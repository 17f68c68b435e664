"""Generic lossless coders for bit sequences.

Every coder is two functions over bytes, ``encode(bits) -> blob`` and
``decode(blob, n_bits) -> bits``, registered once by name for
`encode_bits` / `decode_bits`:

* ``rle``     - run lengths as LEB128 varints behind a first-bit flag byte
  (`rle_encode` / `rle_decode`).
* ``huffman`` - canonical Huffman over run-length symbols 1..255 with an
  escape symbol (0) for longer runs (`huffman_encode` / `huffman_decode`).
  The encoder builds its code from the data and the blob carries the code
  lengths alone; canonical code words follow from them (Schwartz & Kallick,
  CACM 1964).  The decoder checks the table's Kraft sum exactly.
* ``ac``      - adaptive binary arithmetic coding (order-0 counts with +1
  smoothing, 32-bit registers; `arith_encode` / `arith_decode`); also
  accepts an explicit per-position probability model, which is how
  simulated payloads are squeezed down to their information content.

Every nonempty bit sequence round-trips through each coder.  Blob layouts
are private to this module; the only cross-module contract is bytes in, bits
out, with the expected bit count supplied out-of-band (the wire header
carries it).  A decoder returns exactly that many bits or raises
CodingError; a run-length blob whose runs cover more fails before anything
is allocated.

An rle blob has one form: a varint with a trailing zero byte (overlong) is
rejected.  A Huffman blob has one form for a given code table: overlong
varints, table symbols that do not ascend strictly or exceed 255, an escape
for a run of 255 or less, 8 or more stream bits after the last run and
nonzero padding are rejected.  The table itself is free: any table with an
exact Kraft sum decodes, whether or not its lengths are the ones the
encoder would build.  An ``ac`` blob has no single form either: its
decoder reads past the end as zeros and ignores bytes it does not need.

The arithmetic coder is one integer loop per direction, shared by the
adaptive and the model path, and it renormalises a whole run per step
rather than a bit per step.  The ``32 - (low ^ high).bit_length()`` top bits
that ``low`` and ``high`` share are settled and leave at once: the first of
them, then its complement once for every pending underflow bit, then the
rest.  The underflow run below them, the leading ones of ``low & ~high``
under bit 31, joins the pending count at once.  Output collects in an
integer flushed to a bytearray every 32 bits and input is read 8 bytes at a
time, so both loops stay linear in the payload length.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from itertools import repeat
from operator import itemgetter

import numpy as np

from .errors import CodingError

__all__ = [
    "rle_encode",
    "rle_decode",
    "huffman_encode",
    "huffman_decode",
    "arith_encode",
    "arith_decode",
    "encode_bits",
    "decode_bits",
    "symbol_distribution",
    "chi_square_uniform",
    "CODER_NAMES",
]


# ======================================================================
# Varints (LEB128)
# ======================================================================

def write_varint(value: int, out: bytearray) -> None:
    if value < 0:
        raise ValueError("varints are unsigned")
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def read_varint(data, pos: int):
    value = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodingError("truncated varint")
        b = data[pos]
        pos += 1
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            if not b and shift:
                raise CodingError("overlong varint")
            return value, pos
        shift += 7
        if shift > 63:
            raise CodingError("varint too long")


def _chunk(data, pos: int) -> int:
    """The 64 bits of ``data`` from byte ``pos`` on, as one integer; a bit
    reader takes its input 8 bytes at a time, past the end as zeros."""
    chunk = data[pos : pos + 8]
    return int.from_bytes(chunk, "big") << 8 * (8 - len(chunk))


def _as_bits(bits) -> np.ndarray:
    arr = np.asarray(bits, dtype=bool)
    if arr.ndim != 1:
        raise ValueError("bit sequence must be one-dimensional")
    return arr


def _run_split(bits: np.ndarray):
    """(first bit value, run lengths of alternating values)."""
    if bits.size == 0:
        raise CodingError("cannot run-length encode an empty bit sequence")
    # The last index of every run; their differences are the run lengths.
    ends = [-1, *(bits[1:] != bits[:-1]).nonzero()[0].tolist(), bits.size - 1]
    return int(bits[0]), [b - a for a, b in zip(ends, ends[1:])]


# ======================================================================
# Run-length coding
# ======================================================================

def rle_encode(bits) -> bytes:
    """Flag byte (first bit), then each run length as a varint."""
    first, runs = _run_split(_as_bits(bits))
    out = bytearray([first])
    for r in runs:
        write_varint(r, out)
    return bytes(out)


def rle_decode(blob: bytes, n_bits: int) -> np.ndarray:
    """Expand a run-length blob; one whose runs cover more than the
    expected ``n_bits`` raises CodingError before anything is allocated."""
    first = _first_bit(blob, "run-length")
    runs = []
    pos = 1
    while pos < len(blob):
        r, pos = read_varint(blob, pos)
        if r == 0:
            raise CodingError("zero-length run")
        runs.append(r)
    if not runs:
        raise CodingError("run-length blob carries no runs")
    return _expand(first, runs, n_bits)


def _first_bit(blob, coder: str) -> int:
    """The flag byte that opens an rle or huffman blob."""
    if not blob:
        raise CodingError(f"empty {coder} blob")
    first = blob[0]
    if first not in (0, 1):
        raise CodingError(f"bad flag byte 0x{first:02x}")
    return first


def _expand(first_bit: int, runs: list, n_bits: int) -> np.ndarray:
    """The bits of alternating positive runs, the first of value
    ``first_bit``; runs that do not cover exactly ``n_bits`` raise
    CodingError, those that cover more before anything is allocated."""
    total = sum(runs)
    if total > n_bits:
        raise CodingError(f"runs cover more than the {n_bits} bits expected")
    if total < n_bits:
        raise CodingError(f"decoded {total} bits where {n_bits} were expected")
    values = np.zeros(len(runs), dtype=bool)
    values[1 - first_bit :: 2] = True
    return np.repeat(values, runs)


# ======================================================================
# Canonical Huffman over run-length symbols
# ======================================================================

ESC = 0  # escape symbol: run longer than 255, remainder follows as a varint
_MAX_RUN_SYMBOL = 255
_LENGTH_THEN_SYMBOL = itemgetter(1, 0)  # sort key of (symbol, length) pairs


def _code_lengths(hist: dict) -> dict:
    """Huffman code lengths for a histogram of positive symbol counts."""
    if len(hist) == 1:
        return {sym: 1 for sym in hist}
    heap = [(count, sym, sym) for sym, count in hist.items()]
    heapq.heapify(heap)
    merges = []
    node = max(hist) + 1
    while len(heap) > 1:
        c1, _, n1 = heapq.heappop(heap)
        c2, _, n2 = heapq.heappop(heap)
        merges.append((node, n1, n2))
        heapq.heappush(heap, (c1 + c2, -node, node))
        node += 1
    # Walk the merges from the root down: a child sits one below its parent.
    depth = {node - 1: 0}
    for parent, n1, n2 in reversed(merges):
        depth[n1] = depth[n2] = depth[parent] + 1
    return {sym: depth[sym] for sym in hist}


def _canonical(lengths: dict) -> list:
    """The canonical code's ``(symbol, code, length)`` words in (length,
    symbol) order: the lengths alone fix the code (Schwartz & Kallick)."""
    words = []
    code = prev_len = 0
    for sym, length in sorted(lengths.items(), key=_LENGTH_THEN_SYMBOL):
        code <<= length - prev_len
        words.append((sym, code, length))
        code += 1
        prev_len = length
    return words


def _parse_table(data: bytes, pos: int):
    """Read a code table, ``{symbol: length}``, and check it: a blob is
    untrusted, its symbols must ascend strictly up to the longest run
    symbol, and only a table whose Kraft sum is exactly 1 (or that has one
    word) gives a prefix code whose words fit their lengths."""
    count, pos = read_varint(data, pos)
    if count == 0:
        raise CodingError("empty code table")
    lengths = {}
    sym = -1
    for _ in range(count):
        prev = sym
        sym, pos = read_varint(data, pos)
        if sym <= prev:
            raise CodingError("bad code table: symbols must ascend strictly")
        if pos >= len(data):
            raise CodingError("truncated code table")
        lengths[sym] = data[pos]
        pos += 1
    if sym > _MAX_RUN_SYMBOL:
        raise CodingError(f"bad code table: symbol {sym} above {_MAX_RUN_SYMBOL}")
    if min(lengths.values()) <= 0:
        raise CodingError("bad code table: code lengths must be positive")
    if len(lengths) > 1:
        # Exact integer Kraft sum: sum of 2^-l is 1 exactly when the sum
        # of 2^(top - l) is 2^top.
        top = max(lengths.values())
        kraft = sum([1 << (top - l) for l in lengths.values()])
        if kraft != 1 << top:
            raise CodingError(
                "bad code table: code lengths violate the Kraft equality "
                f"(sum={kraft}/2^{top})"
            )
    return lengths, pos


def huffman_encode(bits) -> bytes:
    """Run-length split, then Huffman-code the run symbols.

    Blob: flag byte (first bit), varint run count, code table, code bits.
    A run longer than 255 is coded as the escape symbol, its length
    following the code word as a varint.
    """
    first, runs = _run_split(_as_bits(bits))
    syms = [r if r <= _MAX_RUN_SYMBOL else ESC for r in runs]
    hist = {}
    for sym in syms:
        hist[sym] = hist.get(sym, 0) + 1
    lengths = _code_lengths(hist)
    out = bytearray([first])
    write_varint(len(syms), out)
    write_varint(len(lengths), out)
    for sym in sorted(lengths):
        write_varint(sym, out)
        out.append(lengths[sym])
    codes = {sym: (code, length) for sym, code, length in _canonical(lengths)}
    words = [codes[sym] for sym in syms]  # (code, length) of each run
    if ESC in codes:  # an escaped run's varint follows its code word
        for i, run in enumerate(runs):
            if run > _MAX_RUN_SYMBOL:
                extra = bytearray()
                write_varint(run, extra)
                code, length = words[i]
                words[i] = ((code << 8 * len(extra)) | int.from_bytes(extra, "big"),
                            length + 8 * len(extra))
    acc = nacc = 0  # code bits not yet flushed to ``out``
    for code, length in words:
        acc = (acc << length) | code
        nacc += length
        if nacc >= 256:
            rest = nacc & 7
            out += (acc >> rest).to_bytes((nacc - rest) >> 3, "big")
            acc &= (1 << rest) - 1
            nacc = rest
    pad = -nacc & 7
    out += (acc << pad).to_bytes((nacc + pad) >> 3, "big")
    return bytes(out)


def huffman_decode(blob: bytes, n_bits: int) -> np.ndarray:
    """Decode a Huffman blob to exactly ``n_bits`` bits; raise CodingError as
    soon as the runs read so far cover more than that."""
    first = _first_bit(blob, "huffman")
    count, pos = read_varint(blob, 1)
    if count == 0:
        raise CodingError("huffman blob carries no runs")
    lengths, pos = _parse_table(blob, pos)
    # Canonical code words, left-aligned to ``width`` bits, cover adjacent
    # ranges in (length, symbol) order: the word at the head of the stream
    # is the one whose range holds the next ``width`` bits.  A peek that
    # falls past every range (a one-word code) is no word at all.
    width = max(lengths.values())
    syms, codes, lens = zip(*_canonical(lengths))
    ends = [(code + 1) << (width - length) for code, length in zip(codes, lens)]
    avail = 8 * (len(blob) - pos)
    need = width + 80  # a code word and the longest escape varint
    at = 0  # stream bits consumed
    win = nwin = 0  # the next ``nwin`` stream bits, read past the end as zeros
    runs = []
    total = 0
    for _ in range(count):
        while nwin < need:
            win = (win << 64) | _chunk(blob, pos)
            pos += 8
            nwin += 64
        i = bisect_right(ends, win >> (nwin - width))
        if i == len(ends):
            # Telling a bad word from a short stream takes width + 1 bits.
            if avail - at <= width:
                raise CodingError("bit stream exhausted")
            raise CodingError("invalid code word")
        at += lens[i]
        if at > avail:
            raise CodingError("bit stream exhausted")
        nwin -= lens[i]
        run = syms[i]
        if run == ESC:
            run = shift = 0
            while True:
                if at + 8 > avail:
                    raise CodingError("bit stream exhausted")
                at += 8
                nwin -= 8
                b = (win >> nwin) & 0xFF
                run |= (b & 0x7F) << shift
                if not b & 0x80:
                    if not b and shift:
                        raise CodingError("overlong varint")
                    break
                shift += 7
                if shift > 63:
                    raise CodingError("varint too long")
            if run <= _MAX_RUN_SYMBOL:
                raise CodingError(f"escaped run {run} fits a run symbol")
        win &= (1 << nwin) - 1
        total += run
        if total > n_bits:
            raise CodingError(f"runs cover more than the {n_bits} bits expected")
        runs.append(run)
    # The stream ends within the byte of its last code bit, zero-padded.
    left = avail - at
    if left >= 8:
        raise CodingError(f"{left} bits follow the last run")
    if left and blob[-1] & ((1 << left) - 1):
        raise CodingError("padding bits past the code stream must be zero")
    return _expand(first, runs, n_bits)


# ======================================================================
# Binary arithmetic coding
# ======================================================================

_MASK = (1 << 32) - 1  # 32-bit registers
_HALF = 1 << 31
_QUARTER = 1 << 30
_PROB_BITS = 16
_PROB_ONE = 1 << _PROB_BITS
_ADAPT_LIMIT = 1 << 16


def _ac_encode(bits: list, t0s) -> bytes:
    """Arithmetic-code ``bits`` (a list of 0/1) on the interval [low,
    low + rng), whose high end is low + rng - 1 (see the module docstring).
    ``t0s`` lists each bit's weight of zero out of _PROB_ONE; None codes
    with the adaptive counts.  Only an interval within half the register
    can renormalise."""
    half, mask, limit = _HALF, _MASK, _ADAPT_LIMIT
    quarter, three_quarters = _QUARTER, _HALF + _QUARTER
    low, rng, pending = 0, mask + 1, 0
    c0 = c1 = 1
    total = _PROB_ONE
    out = bytearray()
    acc = nacc = 0  # output bits not yet flushed to ``out``
    for bit, t0 in zip(bits, repeat(None) if t0s is None else t0s):
        if t0 is None:  # adaptive: weigh by the counts so far
            total = c0 + c1
            if total >= limit:
                c0 = (c0 + 1) >> 1
                c1 = (c1 + 1) >> 1
                total = c0 + c1
            t0 = c0
        zero = rng * t0 // total  # width of the zero subinterval
        if bit:
            low += zero
            rng -= zero
            c1 += 1
        else:
            rng = zero
            c0 += 1
        if rng > half:
            continue
        k = 32 - (low ^ (low + rng - 1)).bit_length()  # settled top bits
        if k:
            word, width = low >> (32 - k), k
            if pending:  # the first settled bit b, pending times not-b, the rest
                word += ((1 << pending) - 1) << (k - 1)
                width += pending
                pending = 0
            acc = (acc << width) | word
            nacc += width
            if nacc >= 32:
                rest = nacc & 7
                out += (acc >> rest).to_bytes((nacc - rest) >> 3, "big")
                acc &= (1 << rest) - 1
                nacc = rest
            low = (low << k) & mask
            rng <<= k
        if low >= quarter and low + rng <= three_quarters:  # low 01..., high 10...
            m = 31 - ((low & ~(low + rng - 1)) ^ (half - 1)).bit_length()
            pending += m
            low = (low << m) & (half - 1)
            rng <<= m
    # Flush: a 1, its pending complements, then zeros to the byte boundary.
    nacc += pending + 1
    acc = (acc << (pending + 1)) | (1 << pending)
    pad = -nacc & 7
    out += (acc << pad).to_bytes((nacc + pad) >> 3, "big")
    return bytes(out)


def _ac_decode(data, n_bits: int, t0s) -> np.ndarray:
    """Mirror of _ac_encode; reads past the end of ``data`` as zeros.

    It tracks ``val``, the code value's offset from ``low``, which always
    lies in [0, rng); a renormalisation shifts the next input bits into it.
    """
    out = bytearray(n_bits)
    half, mask, limit = _HALF, _MASK, _ADAPT_LIMIT
    quarter, three_quarters = _QUARTER, _HALF + _QUARTER
    low, rng = 0, mask + 1
    c0 = c1 = 1
    total = _PROB_ONE
    win, at, nwin = _chunk(data, 0), 8, 64 - 32
    val = win >> nwin  # the first 32 bits; the rest wait in ``win``
    win &= (1 << nwin) - 1
    for i, t0 in enumerate(repeat(None, n_bits) if t0s is None else t0s[:n_bits]):
        if t0 is None:
            total = c0 + c1
            if total >= limit:
                c0 = (c0 + 1) >> 1
                c1 = (c1 + 1) >> 1
                total = c0 + c1
            t0 = c0
        zero = rng * t0 // total
        if val >= zero:
            out[i] = 1
            val -= zero
            low += zero
            rng -= zero
            c1 += 1
        else:
            rng = zero
            c0 += 1
        if rng > half:
            continue
        k = 32 - (low ^ (low + rng - 1)).bit_length()
        if k:
            low = (low << k) & mask
            rng <<= k
        if low >= quarter and low + rng <= three_quarters:
            m = 31 - ((low & ~(low + rng - 1)) ^ (half - 1)).bit_length()
            low = (low << m) & (half - 1)
            rng <<= m
            k += m
        elif not k:
            continue
        if nwin < k:
            win = (win << 64) | _chunk(data, at)
            at += 8
            nwin += 64
        nwin -= k
        val = (val << k) | (win >> nwin)
        win &= (1 << nwin) - 1
    return np.frombuffer(out, dtype=bool)


def _scale_probs(model) -> list:
    """Per-position weights of zero out of _PROB_ONE, as Python ints."""
    p1 = np.asarray(model, dtype=np.float64)
    if p1.ndim != 1:
        raise ValueError("probability model must be one-dimensional")
    if np.any(p1 < 0.0) or np.any(p1 > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    t1 = np.clip(np.rint(p1 * _PROB_ONE), 1, _PROB_ONE - 1).astype(np.int64)
    return (_PROB_ONE - t1).tolist()


def arith_encode(bits, model=None) -> bytes:
    """Arithmetic-code a bit sequence.

    With ``model`` (per-position probabilities of a 1 bit, covering the
    input) the coder is static; without it, an adaptive two-count model
    with +1 smoothing learns as it goes.  Output carries no length; the
    caller keeps the bit count.
    """
    arr = _as_bits(bits)
    t0s = None
    if model is not None:
        t0s = _scale_probs(model)
        if len(t0s) < arr.size:
            raise ValueError(
                f"model covers {len(t0s)} positions but input has {arr.size} bits"
            )
    return _ac_encode(arr.view(np.uint8).tolist(), t0s)


def arith_decode(data: bytes, n_bits: int, model=None) -> np.ndarray:
    if n_bits < 0:
        raise ValueError("bit count must be nonnegative")
    t0s = None
    if model is not None:
        t0s = _scale_probs(model)
        if len(t0s) < n_bits:
            raise ValueError(
                f"model covers {len(t0s)} positions but {n_bits} bits are expected"
            )
    return _ac_decode(data, n_bits, t0s)


# ======================================================================
# Registry + diagnostics
# ======================================================================

_CODERS = {  # name -> (encode, decode)
    "rle": (rle_encode, rle_decode),
    "huffman": (huffman_encode, huffman_decode),
    "ac": (arith_encode, arith_decode),
}
CODER_NAMES = tuple(_CODERS)


def _coder(name: str):
    if name not in CODER_NAMES:
        raise ValueError(f"unknown coder {name!r}; choose from {CODER_NAMES}")
    return _CODERS[name]


def encode_bits(name: str, bits) -> bytes:
    """Encode with a coder chosen by name ('rle', 'huffman', 'ac')."""
    return _coder(name)[0](bits)


def decode_bits(name: str, blob: bytes, n_bits: int) -> np.ndarray:
    return _coder(name)[1](blob, n_bits)


def symbol_distribution(payloads) -> np.ndarray:
    """Byte-symbol histogram (256 bins) of concatenated payload bits.

    Payloads are packed most-significant-bit first, as on the wire; a final
    partial byte is dropped rather than zero-padded so padding does not
    masquerade as structure.
    """
    chunks = []
    for p in payloads:
        bits = _as_bits(p)
        n = bits.size - (bits.size % 8)
        if n:
            chunks.append(np.packbits(bits[:n]))
    if not chunks:
        return np.zeros(256, dtype=np.int64)
    data = np.concatenate(chunks)
    return np.bincount(data, minlength=256).astype(np.int64)


def chi_square_uniform(hist) -> float:
    """Chi-square statistic of a histogram against the uniform law
    (255 degrees of freedom for byte symbols); a diagnostic, not a test."""
    h = np.asarray(hist, dtype=np.float64)
    total = h.sum()
    if total == 0:
        return 0.0
    expected = total / h.size
    return float(((h - expected) ** 2 / expected).sum())
