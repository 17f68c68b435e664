"""Generic lossless coders for bit sequences.

Three coders share one registry interface (`encode_bits` / `decode_bits`):

* ``rle``     - run lengths as LEB128 varints behind a first-bit flag byte.
* ``huffman`` - canonical Huffman over run-length symbols 1..255 with an
  escape symbol (0) for longer runs; the code table travels in the blob.
* ``ac``      - adaptive binary arithmetic coding (order-0 counts with +1
  smoothing, 32-bit registers); also accepts an explicit per-position
  probability model, which is how simulated payloads are squeezed down to
  their information content.

All three are bijective on nonempty bit sequences.  Blob layouts are private
to this module; the only cross-module contract is bytes in, bits out, with
the expected bit count supplied out-of-band (the wire header carries it).
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import CodingError

__all__ = [
    "RleStream",
    "rle_encode",
    "rle_decode",
    "HuffmanModel",
    "huffman_build",
    "huffman_encode",
    "huffman_decode",
    "ArithEncoder",
    "ArithDecoder",
    "arith_encode",
    "arith_decode",
    "encode_bits",
    "decode_bits",
    "symbol_distribution",
    "chi_square_uniform",
    "CODER_NAMES",
]

CODER_NAMES = ("rle", "huffman", "ac")


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
            return value, pos
        shift += 7
        if shift > 63:
            raise CodingError("varint too long")


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

@dataclass(frozen=True)
class RleStream:
    """First bit value plus the lengths of alternating runs."""

    first_bit: int
    runs: tuple

    def __post_init__(self):
        if self.first_bit not in (0, 1):
            raise ValueError("first_bit must be 0 or 1")
        runs = tuple(map(int, self.runs))
        if not runs or min(runs) <= 0:
            raise ValueError("runs must be positive")
        object.__setattr__(self, "runs", runs)

    @property
    def n_bits(self) -> int:
        return sum(self.runs)

    def to_bytes(self) -> bytes:
        out = bytearray([self.first_bit])
        for r in self.runs:
            write_varint(r, out)
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "RleStream":
        if not blob:
            raise CodingError("empty run-length blob")
        first = blob[0]
        if first not in (0, 1):
            raise CodingError(f"bad flag byte 0x{first:02x}")
        runs = []
        pos = 1
        while pos < len(blob):
            r, pos = read_varint(blob, pos)
            if r == 0:
                raise CodingError("zero-length run")
            runs.append(r)
        if not runs:
            raise CodingError("run-length blob carries no runs")
        return cls(first, tuple(runs))


def rle_encode(bits) -> RleStream:
    first, runs = _run_split(_as_bits(bits))
    return RleStream(first, tuple(runs))


def rle_decode(stream: RleStream, n_bits: int) -> np.ndarray:
    """Expand a run-length stream; one whose runs cover more than the
    expected ``n_bits`` raises CodingError before anything is allocated."""
    if stream.n_bits > n_bits:
        raise CodingError(f"runs cover more than the {n_bits} bits expected")
    values = np.zeros(len(stream.runs), dtype=bool)
    values[1 - stream.first_bit :: 2] = True
    return np.repeat(values, stream.runs)


# ======================================================================
# Canonical Huffman over run-length symbols
# ======================================================================

ESC = 0  # escape symbol: run longer than 255, remainder follows as a varint
_MAX_RUN_SYMBOL = 255
_LENGTH_THEN_SYMBOL = itemgetter(1, 0)  # sort key of (symbol, length) pairs


class HuffmanModel:
    """Canonical prefix code over integer symbols.

    Built from code lengths alone; codes are assigned in (length, symbol)
    order so a table of lengths reproduces the code exactly.
    """

    def __init__(self, lengths: dict):
        if not lengths:
            raise ValueError("empty code")
        self.lengths = {int(s): int(l) for s, l in lengths.items()}
        if min(self.lengths.values()) <= 0:
            raise ValueError("code lengths must be positive")
        if len(self.lengths) > 1:
            # Exact integer Kraft sum: sum of 2^-l is 1 exactly when the sum
            # of 2^(top - l) is 2^top.
            top = max(self.lengths.values())
            kraft = sum([1 << (top - l) for l in self.lengths.values()])
            if kraft != 1 << top:
                raise ValueError(
                    f"code lengths violate the Kraft equality (sum={kraft}/2^{top})"
                )
        self.codes = {}
        code = 0
        prev_len = 0
        for sym, length in sorted(self.lengths.items(), key=_LENGTH_THEN_SYMBOL):
            code <<= length - prev_len
            self.codes[sym] = (code, length)
            code += 1
            prev_len = length

    def __eq__(self, other):
        return isinstance(other, HuffmanModel) and self.lengths == other.lengths

    def mean_length(self, hist: dict) -> float:
        total = sum(hist.values())
        return sum(hist[s] * self.lengths[s] for s in hist) / total


def huffman_build(hist: dict) -> HuffmanModel:
    """Canonical Huffman code for a symbol histogram."""
    items = {int(s): int(c) for s, c in hist.items() if c > 0}
    if not items:
        raise ValueError("histogram must contain a symbol with positive count")
    if len(items) == 1:
        return HuffmanModel({next(iter(items)): 1})
    heap = [(count, sym, sym) for sym, count in items.items()]
    heapq.heapify(heap)
    merges = []
    node = max(items) + 1
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
    return HuffmanModel({sym: depth[sym] for sym in items})


def _serialize_table(model: HuffmanModel, out: bytearray):
    write_varint(len(model.lengths), out)
    for sym in sorted(model.lengths):
        write_varint(sym, out)
        out.append(model.lengths[sym])


def _parse_table(data: bytes, pos: int):
    count, pos = read_varint(data, pos)
    if count == 0:
        raise CodingError("empty code table")
    lengths = {}
    for _ in range(count):
        sym, pos = read_varint(data, pos)
        if pos >= len(data):
            raise CodingError("truncated code table")
        lengths[sym] = data[pos]
        pos += 1
    try:
        return HuffmanModel(lengths), pos
    except ValueError as exc:
        raise CodingError(f"bad code table: {exc}") from exc


def huffman_encode(bits) -> bytes:
    """Run-length split, then Huffman-code the run symbols.

    Blob: flag byte (first bit), varint run count, code table, code bits.
    A run longer than 255 is coded as the escape symbol, its length
    following the code word as a varint.
    """
    first, runs = _run_split(_as_bits(bits))
    syms = [r if r <= _MAX_RUN_SYMBOL else ESC for r in runs]
    model = huffman_build(Counter(syms))
    head = bytearray([first])
    write_varint(len(syms), head)
    _serialize_table(model, head)
    words = {sym: f"{code:0{length}b}" for sym, (code, length) in model.codes.items()}
    stream = []
    for sym, run in zip(syms, runs):
        stream.append(words[sym])
        if sym == ESC:
            extra = bytearray()
            write_varint(run, extra)
            stream.extend(f"{b:08b}" for b in extra)
    code_bits = "".join(stream)
    code_bits += "0" * (-len(code_bits) % 8)
    return bytes(head) + int(code_bits, 2).to_bytes(len(code_bits) // 8, "big")


def huffman_decode(blob: bytes, n_bits: int) -> np.ndarray:
    """Decode a Huffman blob; raise CodingError as soon as the runs read so
    far cover more than the expected ``n_bits``."""
    if not blob:
        raise CodingError("empty huffman blob")
    first = blob[0]
    if first not in (0, 1):
        raise CodingError(f"bad flag byte 0x{first:02x}")
    count, pos = read_varint(blob, 1)
    if count == 0:
        raise CodingError("huffman blob carries no runs")
    model, pos = _parse_table(blob, pos)
    # Canonical code words, left-aligned to ``width`` bits, cover adjacent
    # ranges in (length, symbol) order: the word at the head of the stream
    # is the one whose range holds the next ``width`` bits.  A peek that
    # falls past every range (a one-word code) is no word at all.
    width = max(model.lengths.values())
    syms, lens, ends = [], [], []
    for sym, (code, length) in model.codes.items():
        syms.append(sym)
        lens.append(length)
        ends.append((code + 1) << (width - length))
    stream = bin(int.from_bytes(b"\x01" + blob[pos:], "big"))[3:]
    avail = len(stream)
    stream += "0" * width  # peeks past the end read zeros
    at = 0
    runs = []
    total = 0
    for _ in range(count):
        i = bisect_right(ends, int(stream[at : at + width], 2))
        if i == len(ends):
            # Telling a bad word from a short stream takes width + 1 bits.
            if avail - at <= width:
                raise CodingError("bit stream exhausted")
            raise CodingError("invalid code word")
        at += lens[i]
        if at > avail:
            raise CodingError("bit stream exhausted")
        run = syms[i]
        if run == ESC:
            run = shift = 0
            while True:
                if at + 8 > avail:
                    raise CodingError("bit stream exhausted")
                b = int(stream[at : at + 8], 2)
                at += 8
                run |= (b & 0x7F) << shift
                if not b & 0x80:
                    break
                shift += 7
                if shift > 63:
                    raise CodingError("varint too long")
        if run <= 0:
            raise CodingError("zero-length run")
        total += run
        if total > n_bits:
            raise CodingError(f"runs cover more than the {n_bits} bits expected")
        runs.append(run)
    return rle_decode(RleStream(first, tuple(runs)), n_bits)


# ======================================================================
# Binary arithmetic coding
# ======================================================================

_STATE_BITS = 32
_MASK = (1 << _STATE_BITS) - 1
_HALF = 1 << (_STATE_BITS - 1)
_QUARTER = 1 << (_STATE_BITS - 2)
_PROB_BITS = 16
_PROB_ONE = 1 << _PROB_BITS
_ADAPT_LIMIT = 1 << 16


class ArithEncoder:
    """Binary arithmetic encoder, 32-bit registers with underflow counting."""

    def __init__(self):
        self.low = 0
        self.high = _MASK
        self._underflow = 0
        self._buf = bytearray()
        self._acc = 0
        self._nacc = 0
        self._finished = False

    def _emit(self, bit: int):
        self._acc = (self._acc << 1) | bit
        self._nacc += 1
        if self._nacc == 8:
            self._buf.append(self._acc)
            self._acc = 0
            self._nacc = 0

    def encode_bit(self, bit: int, t0: int, total: int = _PROB_ONE):
        """Narrow the interval; ``t0`` of ``total`` is the weight of zero."""
        low, high = self.low, self.high
        rng = high - low + 1
        split = low + rng * t0 // total - 1
        if bit:
            low = split + 1
        else:
            high = split
        while True:
            if (low ^ high) & _HALF == 0:
                b = low >> (_STATE_BITS - 1)
                self._emit(b)
                flip = b ^ 1
                while self._underflow:
                    self._emit(flip)
                    self._underflow -= 1
            elif low & ~high & _QUARTER:
                self._underflow += 1
                low ^= _QUARTER
                high ^= _QUARTER
            else:
                break
            low = (low << 1) & _MASK
            high = ((high << 1) & _MASK) | 1
        self.low, self.high = low, high

    def finish(self) -> bytes:
        if self._finished:
            raise CodingError("encoder already finished")
        self._finished = True
        self._emit(1)
        while self._underflow:
            self._emit(0)
            self._underflow -= 1
        if self._nacc:
            self._buf.append((self._acc << (8 - self._nacc)) & 0xFF)
        return bytes(self._buf)


class ArithDecoder:
    """Mirror of ArithEncoder; reads past the blob end as zeros."""

    def __init__(self, data: bytes):
        self._data = data
        self._bitpos = 0
        self.low = 0
        self.high = _MASK
        self.code = 0
        for _ in range(_STATE_BITS):
            self.code = (self.code << 1) | self._read_bit()

    def _read_bit(self) -> int:
        byte = self._bitpos >> 3
        if byte >= len(self._data):
            return 0
        bit = (self._data[byte] >> (7 - (self._bitpos & 7))) & 1
        self._bitpos += 1
        return bit

    def decode_bit(self, t0: int, total: int = _PROB_ONE) -> int:
        low, high, code = self.low, self.high, self.code
        rng = high - low + 1
        split = low + rng * t0 // total - 1
        bit = 1 if code > split else 0
        if bit:
            low = split + 1
        else:
            high = split
        while True:
            if (low ^ high) & _HALF == 0:
                pass
            elif low & ~high & _QUARTER:
                low ^= _QUARTER
                high ^= _QUARTER
                code ^= _QUARTER
            else:
                break
            low = (low << 1) & _MASK
            high = ((high << 1) & _MASK) | 1
            code = ((code << 1) & _MASK) | self._read_bit()
        self.low, self.high, self.code = low, high, code
        return bit


def _scale_probs(model) -> np.ndarray:
    p1 = np.asarray(model, dtype=np.float64)
    if p1.ndim != 1:
        raise ValueError("probability model must be one-dimensional")
    if np.any(p1 < 0.0) or np.any(p1 > 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    t1 = np.clip(np.rint(p1 * _PROB_ONE), 1, _PROB_ONE - 1).astype(np.int64)
    return _PROB_ONE - t1  # weight of zero per position


def arith_encode(bits, model=None) -> bytes:
    """Arithmetic-code a bit sequence.

    With ``model`` (per-position probabilities of a 1 bit, covering the
    input) the coder is static; without it, an adaptive two-count model
    with +1 smoothing learns as it goes.  Output carries no length; the
    caller keeps the bit count.
    """
    arr = _as_bits(bits)
    enc = ArithEncoder()
    if model is not None:
        t0s = _scale_probs(model)
        if t0s.size < arr.size:
            raise ValueError(
                f"model covers {t0s.size} positions but input has {arr.size} bits"
            )
        for bit, t0 in zip(arr.view(np.uint8), t0s):
            enc.encode_bit(int(bit), int(t0))
    else:
        c0 = c1 = 1
        for bit in arr.view(np.uint8):
            enc.encode_bit(int(bit), c0, c0 + c1)
            if bit:
                c1 += 1
            else:
                c0 += 1
            if c0 + c1 >= _ADAPT_LIMIT:
                c0 = (c0 + 1) >> 1
                c1 = (c1 + 1) >> 1
    return enc.finish()


def arith_decode(data: bytes, n_bits: int, model=None) -> np.ndarray:
    if n_bits < 0:
        raise ValueError("bit count must be nonnegative")
    dec = ArithDecoder(data)
    out = np.empty(n_bits, dtype=bool)
    if model is not None:
        t0s = _scale_probs(model)
        if t0s.size < n_bits:
            raise ValueError(
                f"model covers {t0s.size} positions but {n_bits} bits are expected"
            )
        for i in range(n_bits):
            out[i] = dec.decode_bit(int(t0s[i]))
    else:
        c0 = c1 = 1
        for i in range(n_bits):
            bit = dec.decode_bit(c0, c0 + c1)
            out[i] = bit
            if bit:
                c1 += 1
            else:
                c0 += 1
            if c0 + c1 >= _ADAPT_LIMIT:
                c0 = (c0 + 1) >> 1
                c1 = (c1 + 1) >> 1
    return out


# ======================================================================
# Registry + diagnostics
# ======================================================================

def encode_bits(name: str, bits) -> bytes:
    """Encode with a coder chosen by name ('rle', 'huffman', 'ac')."""
    if name == "rle":
        return rle_encode(bits).to_bytes()
    if name == "huffman":
        return huffman_encode(bits)
    if name == "ac":
        return arith_encode(bits)
    raise ValueError(f"unknown coder {name!r}; choose from {CODER_NAMES}")


def decode_bits(name: str, blob: bytes, n_bits: int) -> np.ndarray:
    if name == "rle":
        bits = rle_decode(RleStream.from_bytes(blob), n_bits)
    elif name == "huffman":
        bits = huffman_decode(blob, n_bits)
    elif name == "ac":
        return arith_decode(blob, n_bits)
    else:
        raise ValueError(f"unknown coder {name!r}; choose from {CODER_NAMES}")
    if bits.size != n_bits:
        raise CodingError(f"decoded {bits.size} bits where {n_bits} were expected")
    return bits


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
