import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bmkit import (
    CodingError,
    arith_decode,
    arith_encode,
    chi_square_uniform,
    decode_bits,
    encode_bits,
    huffman_decode,
    huffman_encode,
    rle_decode,
    rle_encode,
    symbol_distribution,
)
from bmkit.coders import (
    ESC,
    CODER_NAMES,
    _canonical,
    _code_lengths,
    _parse_table,
    _run_split,
    _scale_probs,
    read_varint,
    write_varint,
)
from conftest import hostile_blob


def _adversarial_strings():
    yield np.zeros(1, dtype=bool)
    yield np.ones(1, dtype=bool)
    yield np.zeros(456, dtype=bool)
    yield np.ones(456, dtype=bool)
    yield np.arange(300) % 2 == 0  # alternating
    yield np.arange(300) % 2 == 1
    # run lengths straddling the one-byte symbol limit
    for run in (254, 255, 256, 257, 511, 600):
        s = np.zeros(run + 3, dtype=bool)
        s[-3:] = True
        yield s
    yield np.r_[np.ones(255, dtype=bool), np.zeros(1, dtype=bool), np.ones(255, dtype=bool)]


def _random_strings(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        size = int(rng.integers(1, 200))
        p = rng.random()
        yield rng.random(size) < p


# ----------------------------------------------------------------------
# varints
# ----------------------------------------------------------------------

def test_varint_round_trip():
    for v in (0, 1, 127, 128, 300, 456, 2**32, 2**63 - 1):
        buf = bytearray()
        write_varint(v, buf)
        got, pos = read_varint(bytes(buf), 0)
        assert got == v and pos == len(buf)


def test_varint_boundaries():
    buf = bytearray()
    write_varint(127, buf)
    assert bytes(buf) == b"\x7f"
    buf = bytearray()
    write_varint(128, buf)
    assert bytes(buf) == b"\x80\x01"
    with pytest.raises(ValueError):
        write_varint(-1, bytearray())
    with pytest.raises(CodingError):
        read_varint(b"\x80", 0)  # continuation bit with nothing after it


# ----------------------------------------------------------------------
# run-length layer
# ----------------------------------------------------------------------

def test_rle_known_values():
    # flag byte 1, then runs of 2, 3 and 1
    assert rle_encode([1, 1, 0, 0, 0, 1]) == bytes([1, 2, 3, 1])
    assert _run_split(np.array([1, 1, 0, 0, 0, 1], dtype=bool)) == (1, [2, 3, 1])
    # a whole-window blank map costs three bytes: flag + varint(456)
    assert rle_encode(np.zeros(456, dtype=bool)) == bytes.fromhex("00c803")


def test_rle_round_trips():
    for bits in _adversarial_strings():
        assert np.array_equal(rle_decode(rle_encode(bits), bits.size), bits)
    for bits in _random_strings(200, seed=2):
        assert np.array_equal(rle_decode(rle_encode(bits), bits.size), bits)


def test_rle_rejects_bad_input():
    with pytest.raises(CodingError, match="^cannot run-length encode an empty"):
        rle_encode([])
    for blob, message in [
        (b"", "empty run-length blob"),
        (b"\x02\x01", "bad flag byte 0x02"),
        (b"\x05\x01", "bad flag byte 0x05"),
        (b"\x00", "run-length blob carries no runs"),  # flag with no runs
        (b"\x00\x03\x00", "zero-length run"),
        (b"\x00\x00", "zero-length run"),
        (b"\x00\x80", "truncated varint"),
    ]:
        with pytest.raises(CodingError, match=f"^{message}$"):
            rle_decode(blob, 3)
    with pytest.raises(CodingError, match="^decoded 3 bits where 4 were expected$"):
        rle_decode(b"\x00\x03", 4)


# ----------------------------------------------------------------------
# canonical Huffman over run symbols
# ----------------------------------------------------------------------

def test_huffman_uniform_histogram():
    assert set(_code_lengths({1: 10, 2: 10, 3: 10, 4: 10}).values()) == {2}


def test_huffman_skewed_pair():
    assert _code_lengths({1: 1000, 2: 1}) == {1: 1, 2: 1}


def test_huffman_single_symbol():
    assert _code_lengths({7: 5}) == {7: 1}
    assert _canonical({7: 1}) == [(7, 0, 1)]


def test_huffman_codes_are_canonical_and_prefix_free():
    rng = np.random.default_rng(4)
    for _ in range(20):
        syms = rng.choice(200, size=rng.integers(2, 40), replace=False)
        hist = {int(s): int(rng.integers(1, 500)) for s in syms}
        lengths = _code_lengths(hist)
        assert set(lengths) == set(hist)
        kraft = sum(2.0 ** -l for l in lengths.values())
        assert kraft == pytest.approx(1.0)
        words = _canonical(lengths)
        assert [(s, l) for s, _, l in words] == sorted(lengths.items(), key=lambda w: w[::-1])
        codes = [f"{c:0{l}b}" for _, c, l in words]
        assert codes == sorted(codes)  # canonical: words count up in order
        for a in codes:
            for b in codes:
                if a is not b:
                    assert not b.startswith(a)
        # mean length within one bit of the histogram entropy
        total = sum(hist.values())
        ent = -sum(c / total * np.log2(c / total) for c in hist.values())
        assert ent <= sum(hist[s] * lengths[s] for s in hist) / total < ent + 1


# Over-full by 2^-45: a float Kraft sum within 1e-9 of 1 let it through, and
# its last code words got values wider than their lengths.
_OVER_FULL = {k: k for k in range(1, 41)} | {41: 40, 42: 45, 0: 45}


_HUFFMAN_DECODERS = (huffman_decode, lambda b, n: decode_bits("huffman", b, n))


def test_huffman_decoder_checks_its_code_table():
    for decode in _HUFFMAN_DECODERS:
        with pytest.raises(CodingError, match="^empty code table$"):
            decode(b"\x00\x01\x00", 8)
        for lengths in ({1: 0}, {1: 1, 2: 0}):
            with pytest.raises(CodingError, match="^bad code table: code lengths must be pos"):
                decode(_table_head(0, 1, lengths), 8)
    # One word is exempt from the Kraft equality: {5: 3} is the code word 000.
    assert _canonical({5: 3}) == [(5, 0, 3)]
    blob = _blob_with_table(0, [5, 5, 5], {5: 3})
    assert np.array_equal(huffman_decode(blob, 15), np.repeat([False, True, False], 5))


def test_huffman_decoder_needs_an_exact_kraft_sum():
    full = {k: k for k in range(1, 41)}  # Kraft sum 1 - 2^-40
    for lengths in (_OVER_FULL, full, {1: 1, 2: 2}, {1: 1, 2: 2, 3: 2, 4: 3}):
        for decode in _HUFFMAN_DECODERS:
            with pytest.raises(CodingError, match="^bad code table: .*Kraft"):
                decode(_table_head(0, 1, lengths), 85)
    exact = full | {41: 40}  # exactly 1
    runs = [1, 2, 41, 40]
    bits = np.repeat(np.arange(4) % 2 == 1, runs)
    for decode in _HUFFMAN_DECODERS:
        assert np.array_equal(decode(_blob_with_table(0, runs, exact), bits.size), bits)


def test_huffman_round_trips():
    for bits in _adversarial_strings():
        assert np.array_equal(huffman_decode(huffman_encode(bits), bits.size), bits)
    for bits in _random_strings(200, seed=5):
        assert np.array_equal(huffman_decode(huffman_encode(bits), bits.size), bits)


def _table_head(first, count, lengths):
    """The head of a Huffman blob: flag byte, run count and code table, its
    symbols in ascending order."""
    out = bytearray([first])
    write_varint(count, out)
    write_varint(len(lengths), out)
    for sym, length in sorted(lengths.items()):
        write_varint(sym, out)
        out.append(length)
    return bytes(out)


def _blob_with_table(first, runs, lengths):
    """A Huffman blob coding ``runs`` with the given code table; a run the
    table has no symbol for goes through the escape."""
    words = {sym: f"{code:0{length}b}" for sym, code, length in _canonical(lengths)}
    stream = ""
    for run in runs:
        if run in lengths:
            stream += words[run]
        else:
            extra = bytearray()
            write_varint(run, extra)
            stream += words[ESC] + "".join(f"{b:08b}" for b in extra)
    stream += "0" * (-len(stream) % 8)
    code = int(stream or "0", 2).to_bytes(len(stream) // 8, "big")
    return _table_head(first, len(runs), lengths) + code


def test_huffman_escapes_runs_past_the_symbol_limit():
    """A run longer than 255 is coded as the escape plus a varint, whatever
    the table; an escape for a shorter run is a second form, rejected."""
    data = np.zeros(400, dtype=bool)
    data[::37] = True
    data[300:] = True  # runs of 1 and 36, then 3 zeros and 100 ones
    long_run = np.r_[np.zeros(300, dtype=bool), np.ones(3, dtype=bool)]
    for bits in (data, long_run):
        assert np.array_equal(huffman_decode(huffman_encode(bits), bits.size), bits)
    first, runs = _run_split(long_run)
    blob = _blob_with_table(first, runs, {3: 1, ESC: 1})
    assert np.array_equal(huffman_decode(blob, long_run.size), long_run)
    first, runs = _run_split(data)
    blob = _blob_with_table(first, runs, {1: 2, 36: 2, ESC: 1})
    with pytest.raises(CodingError, match="^escaped run 3 fits a run symbol$"):
        huffman_decode(blob, data.size)


def test_huffman_decode_rejects_corrupt_blob():
    blob = huffman_encode(np.ones(40, dtype=bool))
    with pytest.raises(CodingError):
        huffman_decode(blob[:2], 40)
    with pytest.raises(CodingError):
        huffman_decode(b"", 40)


def test_huffman_blob_with_no_runs_is_a_coding_error():
    blob = b"\x00\x00\x01\x01\x01"  # flag 0, zero runs, a one-word table
    with pytest.raises(CodingError, match="^huffman blob carries no runs$"):
        decode_bits("huffman", blob, 8)


def test_rle_and_huffman_blobs_have_one_form():
    """A second blob for the same bits is a CodingError: an overlong
    varint, bytes or set bits past the Huffman stream, an escape for a run
    a symbol could code, and a table whose symbols do not ascend."""
    with pytest.raises(CodingError, match="^overlong varint$"):
        decode_bits("rle", b"\x00\x81\x00", 1)  # 1 as two bytes; rle_encode gives 00 01
    with pytest.raises(CodingError, match="^overlong varint$"):
        read_varint(b"\x80\x80\x00", 0)
    assert read_varint(b"\x00", 0) == (0, 1)
    blob = huffman_encode([0, 0, 1])
    assert np.array_equal(huffman_decode(blob, 3), [0, 0, 1])
    with pytest.raises(CodingError, match="^14 bits follow the last run$"):
        huffman_decode(blob + b"\xff", 3)
    with pytest.raises(CodingError, match="^padding bits past the code stream must be zero$"):
        huffman_decode(blob[:-1] + bytes([blob[-1] | 1]), 3)
    # Flag 0, 2 runs, a table of symbol 2 twice (the later length once won).
    with pytest.raises(CodingError, match="^bad code table: symbols must ascend strictly$"):
        huffman_decode(bytes([0, 2, 2, 2, 1, 2, 1, 0x00]), 4)
    with pytest.raises(CodingError, match="^bad code table: symbols must ascend strictly$"):
        huffman_decode(bytes([0, 2, 2, 2, 1, 1, 1, 0x40]), 3)
    with pytest.raises(CodingError, match="^bad code table: symbol 256 above 255$"):
        huffman_decode(_blob_with_table(0, [256, 1], {1: 1, 256: 1}), 257)
    # Run 300 (ac 02) through the escape, with its varint padded to 3 bytes.
    stream = "0" + "".join(f"{b:08b}" for b in b"\xac\x82\x00") + "1"
    blob = _table_head(0, 2, {ESC: 1, 1: 1}) + int(stream + "000000", 2).to_bytes(4, "big")
    with pytest.raises(CodingError, match="^overlong varint$"):
        huffman_decode(blob, 301)


@given(runs=st.lists(st.integers(1, 20_000), min_size=1, max_size=30), first=st.booleans())
def test_rle_and_huffman_encoders_give_the_one_form(runs, first):
    """Every encoder output decodes, escapes and long varints included."""
    bits = np.repeat(np.arange(len(runs)) % 2 != first, runs)
    for name in ("rle", "huffman"):
        assert np.array_equal(decode_bits(name, encode_bits(name, bits), bits.size), bits)


def _reference_huffman_decode(blob, n_bits):
    """Huffman decoding one bit at a time, matching (length, code) pairs."""
    if not blob:
        raise CodingError("empty huffman blob")
    if blob[0] not in (0, 1):
        raise CodingError(f"bad flag byte 0x{blob[0]:02x}")
    count, pos = read_varint(blob, 1)
    if count == 0:
        raise CodingError("huffman blob carries no runs")
    lengths, pos = _parse_table(blob, pos)
    words = {(l, c): s for s, c, l in _canonical(lengths)}
    max_len = max(lengths.values())
    at = 8 * pos

    def bit():
        nonlocal at
        if at >> 3 >= len(blob):
            raise CodingError("bit stream exhausted")
        at += 1
        return (blob[(at - 1) >> 3] >> (7 - ((at - 1) & 7))) & 1

    runs = []
    for _ in range(count):
        code = length = 0
        while True:
            code, length = (code << 1) | bit(), length + 1
            sym = words.get((length, code))
            if sym is not None:
                break
            if length > max_len:
                raise CodingError("invalid code word")
        if sym == ESC:
            sym = shift = 0
            while True:
                b = 0
                for _ in range(8):
                    b = (b << 1) | bit()
                sym |= (b & 0x7F) << shift
                if not b & 0x80:
                    if not b and shift:
                        raise CodingError("overlong varint")
                    break
                shift += 7
                if shift > 63:
                    raise CodingError("varint too long")
            if sym <= 255:
                raise CodingError(f"escaped run {sym} fits a run symbol")
        runs.append(sym)
        if sum(runs) > n_bits:
            raise CodingError(f"runs cover more than the {n_bits} bits expected")
    left = 8 * len(blob) - at
    if left >= 8:
        raise CodingError(f"{left} bits follow the last run")
    if any(bit() for _ in range(left)):
        raise CodingError("padding bits past the code stream must be zero")
    if sum(runs) < n_bits:
        raise CodingError(f"decoded {sum(runs)} bits where {n_bits} were expected")
    return np.repeat(np.arange(len(runs)) % 2 != blob[0], runs)


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (CodingError, ValueError) as exc:
        return type(exc), str(exc)
    return out.size, out.tobytes()


def _table_blob(rng, lengths):
    """A Huffman blob with the given code table over up to 11 random code
    words; an escape word codes a random run past the symbol limit."""
    syms = sorted(lengths)
    runs = [int(rng.choice(syms)) for _ in range(int(rng.integers(0, 12)))]
    runs = [run or int(rng.integers(256, 1000)) for run in runs]
    return _blob_with_table(int(rng.integers(2)), runs, lengths)


def test_huffman_decode_matches_its_bit_at_a_time_reference():
    """Valid, mutated and hand-built blobs decode to the same bits, or
    fail with the same error, as the one-bit-at-a-time loop."""
    rng = np.random.default_rng(31)
    escaping = _code_lengths({1: 5, 2: 3, ESC: 1})
    blobs = []
    for _ in range(60):
        runs = rng.integers(1, rng.choice([4, 40, 400]), size=rng.integers(1, 20))
        bits = np.repeat(np.arange(runs.size) % 2 == rng.integers(2), runs)
        long_runs = np.where(runs > 2, runs + 253, runs)  # escaped past the symbol limit
        blobs += [huffman_encode(bits), _blob_with_table(int(bits[0]), long_runs.tolist(), escaping)]
    bad_tables = []
    for _ in range(40):
        blobs.append(_table_blob(rng, {int(rng.integers(0, 300)): int(rng.integers(1, 5))}))
        bad_tables.append(_table_blob(rng, {k: k for k in range(1, 41)}))  # Kraft 1 - 2**-40
        bad_tables.append(_table_blob(rng, _OVER_FULL))
        blobs.append(_table_blob(rng, {0: 1, 1: 2, 2: 2}))
    # An escape whose varint never ends.
    blobs.append(bytes([0, 1, 2, ESC, 1, 1, 1]) + b"\x7f" + b"\xff" * 9 + b"\x80")
    cases = []
    for blob in blobs + bad_tables:
        cases.append(blob)
        for _ in range(6):
            b = bytearray(blob)
            kind = rng.integers(3)
            if kind == 0:
                b = b[: rng.integers(len(b))]
            elif kind == 1:
                for i in rng.integers(8 * len(b), size=rng.integers(1, 4)):
                    b[i // 8] ^= 0x80 >> (i % 8)
            else:
                b += rng.bytes(int(rng.integers(1, 4)))
            cases.append(bytes(b))
    decoded = 0
    for blob in cases:
        # A decoder returns exactly the expected bits: where the reference
        # reads runs covering fewer than 5000, try their length too.
        short = re.match(r"decoded (\d+) bits", str(_outcome(_reference_huffman_decode, blob, 5000)[1]))
        for n_bits in (16, 300, 5000, *([int(short[1])] if short else [])):
            got = _outcome(huffman_decode, blob, n_bits)
            assert got == _outcome(_reference_huffman_decode, blob, n_bits)
            decoded += got[0] == n_bits
    # The blobs outside bad_tables average more than one exact decode each.
    assert decoded > len(blobs)


# ----------------------------------------------------------------------
# adaptive binary arithmetic coder
# ----------------------------------------------------------------------

_MASK, _HALF, _QUARTER = (1 << 32) - 1, 1 << 31, 1 << 30


def _reference_weights(model):
    """Each position's (weight of zero, total), fixed by ``model`` or drawn
    from the adaptive counts, which ``learn(bit)`` updates."""
    t0s = None if model is None else _scale_probs(model)
    counts = [1, 1]

    def weight(i):
        return (t0s[i], 1 << 16) if t0s is not None else (counts[0], sum(counts))

    def learn(bit):
        counts[bit] += 1
        if sum(counts) >= 1 << 16:
            counts[:] = [(c + 1) >> 1 for c in counts]

    return weight, learn


def _reference_arith_encode(bits, model=None):
    """Arithmetic encoding one renormalisation step and one output bit at a
    time: the reference the integer kernel must match."""
    bits = np.asarray(bits, dtype=bool).astype(int).tolist()
    weight, learn = _reference_weights(model)
    low, high, underflow, out = 0, _MASK, 0, []
    for i, bit in enumerate(bits):
        t0, total = weight(i)
        split = low + (high - low + 1) * t0 // total - 1
        if bit:
            low = split + 1
        else:
            high = split
        learn(bit)
        while True:
            if (low ^ high) & _HALF == 0:
                out.append(low >> 31)
                out += [1 - out[-1]] * underflow
                underflow = 0
            elif low & ~high & _QUARTER:
                underflow += 1
                low ^= _QUARTER
                high ^= _QUARTER
            else:
                break
            low = (low << 1) & _MASK
            high = ((high << 1) & _MASK) | 1
    out += [1] + [0] * underflow
    return np.packbits(out).tobytes()


def _reference_arith_decode(data, n_bits, model=None):
    """The decoder matching _reference_arith_encode: one input bit per
    renormalisation step, read past the end of ``data`` as zeros."""
    stream = iter(np.unpackbits(np.frombuffer(bytes(data), dtype=np.uint8)).tolist())
    weight, learn = _reference_weights(model)
    low, high, code, out = 0, _MASK, 0, []
    for _ in range(32):
        code = (code << 1) | next(stream, 0)
    for i in range(n_bits):
        t0, total = weight(i)
        split = low + (high - low + 1) * t0 // total - 1
        bit = int(code > split)
        if bit:
            low = split + 1
        else:
            high = split
        learn(bit)
        out.append(bit)
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
            code = ((code << 1) & _MASK) | next(stream, 0)
    return np.array(out, dtype=bool)


def _reference_huffman_encode(bits):
    """Huffman encoding through one string of code bits: the reference the
    integer packing must match."""
    first, runs = _run_split(np.asarray(bits, dtype=bool))
    syms = [r if r <= 255 else ESC for r in runs]
    lengths = _code_lengths(Counter(syms))
    head = bytearray([first])
    write_varint(len(syms), head)
    write_varint(len(lengths), head)
    for sym in sorted(lengths):
        write_varint(sym, head)
        head.append(lengths[sym])
    words = {sym: f"{code:0{length}b}" for sym, code, length in _canonical(lengths)}
    code_bits = ""
    for sym, run in zip(syms, runs):
        code_bits += words[sym]
        if sym == ESC:
            extra = bytearray()
            write_varint(run, extra)
            code_bits += "".join(f"{b:08b}" for b in extra)
    code_bits += "0" * (-len(code_bits) % 8)
    return bytes(head) + int(code_bits, 2).to_bytes(len(code_bits) // 8, "big")


def _assert_coders_match_their_references(bits, model=None):
    blob = arith_encode(bits, model=model)
    assert blob == _reference_arith_encode(bits, model)
    decoded = arith_decode(blob, len(bits), model=model)
    assert decoded.dtype == bool and decoded.shape == (len(bits),)
    assert np.array_equal(decoded, _reference_arith_decode(blob, len(bits), model))
    assert np.array_equal(decoded, np.asarray(bits, dtype=bool))
    if len(bits) and model is None:
        assert huffman_encode(bits) == _reference_huffman_encode(bits)


def test_coder_kernels_match_their_one_step_references():
    """The arithmetic coder's integer kernel gives the blobs and bits of the
    bit-at-a-time loop, on both paths; Huffman's integer packing gives the
    blobs of the string-based encoder."""
    for bits in _adversarial_strings():
        _assert_coders_match_their_references(bits)
    rng = np.random.default_rng(41)
    for _ in range(24):
        n = int(rng.integers(1, 5001))
        bits = rng.random(n) < rng.random() ** 2
        _assert_coders_match_their_references(bits)
        model = np.clip(rng.random(n + int(rng.integers(0, 40))) ** 3, 0.0, 1.0)
        model[rng.integers(model.size, size=3)] = [0.0, 1.0, 0.5]
        _assert_coders_match_their_references(bits, model)  # the model may be longer
    # The adaptive counts halve from bit 65,534 on.
    for p in (0.2, 0.5):
        _assert_coders_match_their_references(np.random.default_rng(41).random(70_000) < p)
    # Escapes (runs over 255 bits) and one-symbol tables.
    for runs in ([256], [300, 2, 70_000], [1] * 40, [7] * 9, [255, 256, 255, 1000]):
        bits = np.repeat(np.arange(len(runs)) % 2 == 1, runs)
        assert huffman_encode(bits) == _reference_huffman_encode(bits)
        assert huffman_encode(~bits) == _reference_huffman_encode(~bits)


def test_ac_decodes_garbage_like_its_one_step_reference():
    rng = np.random.default_rng(43)
    for size in range(13):
        for _ in range(8):
            blob = rng.bytes(size)
            for n_bits in (0, 1, 31, 200):
                assert np.array_equal(arith_decode(blob, n_bits),
                                      _reference_arith_decode(blob, n_bits))


@given(bits=st.lists(st.booleans(), max_size=400),
       probs=st.lists(st.floats(0.0, 1.0), max_size=420))
def test_coders_match_their_references_on_any_bit_list(bits, probs):
    _assert_coders_match_their_references(bits)
    if len(probs) >= len(bits):
        _assert_coders_match_their_references(bits, probs)


def test_ac_rejects_a_short_model_and_a_negative_count():
    with pytest.raises(ValueError, match="^model covers 2 positions but input has 3 bits$"):
        arith_encode([1, 0, 1], model=[0.5, 0.5])
    with pytest.raises(ValueError, match="^model covers 2 positions but 3 bits are expected$"):
        arith_decode(b"", 3, model=[0.5, 0.5])
    with pytest.raises(ValueError, match="^bit count must be nonnegative$"):
        arith_decode(b"", -1)


def test_ac_round_trips():
    for bits in _adversarial_strings():
        blob = arith_encode(bits)
        assert np.array_equal(arith_decode(blob, bits.size), bits)
    for bits in _random_strings(300, seed=6):
        blob = arith_encode(bits)
        assert np.array_equal(arith_decode(blob, bits.size), bits)


def test_ac_blank_window_is_tiny():
    blob = arith_encode(np.zeros(456, dtype=bool))
    assert len(blob) <= 3
    assert np.array_equal(arith_decode(blob, 456), np.zeros(456, dtype=bool))


def test_ac_empty_input():
    blob = arith_encode(np.zeros(0, dtype=bool))
    assert np.array_equal(arith_decode(blob, 0), np.zeros(0, dtype=bool))


def test_ac_with_supplied_model():
    rng = np.random.default_rng(8)
    p = np.clip(np.linspace(0.02, 0.9, 300), 0.0, 1.0)
    bits = rng.random(300) < p
    blob = arith_encode(bits, model=p)
    assert np.array_equal(arith_decode(blob, 300, model=p), bits)


def test_ac_coded_length_near_information_content():
    """With the true per-bit model, output stays within the coder's small
    constant of the exact information content."""
    rng = np.random.default_rng(13)
    for trial in range(10):
        p = np.clip(rng.random(2000), 0.01, 0.99)
        bits = rng.random(2000) < p
        ideal = float(-np.sum(np.where(bits, np.log2(p), np.log2(1 - p))))
        coded = 8 * len(arith_encode(bits, model=p))
        assert coded <= ideal + 64


def test_ac_adaptive_tracks_empirical_entropy():
    rng = np.random.default_rng(14)
    for p in (0.02, 0.1, 0.5, 0.93):
        bits = rng.random(8000) < p
        k = int(bits.sum())
        ratio = k / bits.size
        emp = 0.0
        for q in (ratio, 1 - ratio):
            if q > 0:
                emp -= bits.size * q * np.log2(q)
        coded = 8 * len(arith_encode(bits))
        assert coded <= emp + 64


def test_ac_cannot_compress_fair_coin():
    rng = np.random.default_rng(15)
    bits = rng.random(50_000) < 0.5
    coded = 8 * len(arith_encode(bits))
    assert coded >= bits.size * 0.98
    assert coded <= bits.size * 1.02 + 64


def test_ac_decoder_zero_pads_missing_tail():
    # the final flush bit convention lets a decoder read past the blob end
    # as zeros, so truncated input still yields the requested bit count
    out = arith_decode(b"", 32)
    assert out.size == 32
    bits = np.ones(48, dtype=bool)
    blob = arith_encode(bits)
    assert np.array_equal(arith_decode(blob[: max(1, len(blob) - 1)], 48), bits)


# ----------------------------------------------------------------------
# registry and diagnostics
# ----------------------------------------------------------------------

def test_registry_round_trips():
    rng = np.random.default_rng(16)
    for name in CODER_NAMES:
        for _ in range(30):
            bits = rng.random(int(rng.integers(1, 300))) < rng.random()
            blob = encode_bits(name, bits)
            assert np.array_equal(decode_bits(name, blob, bits.size), bits)


def test_registry_checks_length():
    blob = encode_bits("rle", np.zeros(20, dtype=bool))
    with pytest.raises(CodingError):
        decode_bits("rle", blob, 21)
    with pytest.raises(ValueError, match="^unknown coder 'nope'"):
        encode_bits("nope", np.zeros(4, dtype=bool))
    with pytest.raises(ValueError, match="^unknown coder 'nope'"):
        decode_bits("nope", b"\x00", 1)


def test_decoders_reject_runs_past_the_expected_length():
    """A run claiming 2^62 or 2^63 bits raises CodingError before anything
    is allocated, whichever public decoder reads it."""
    for size in (2**62, 2**63):
        blobs = {name: hostile_blob(name, size) for name in ("rle", "huffman")}
        for name, blob in blobs.items():
            with pytest.raises(CodingError):
                decode_bits(name, blob, 8)
        many = bytearray(b"\x01")
        for run in (3, size, 2**62):
            write_varint(run, many)
        for blob in (blobs["rle"], bytes(many)):
            # The rle blob itself parses: only the expected length rules it out.
            with pytest.raises(CodingError, match="^runs cover more than the 8 bits"):
                rle_decode(blob, 8)
        with pytest.raises(CodingError, match="^runs cover more than the 8 bits"):
            huffman_decode(blobs["huffman"], 8)
    bits = np.ones(300, dtype=bool)
    for name in ("rle", "huffman"):
        blob = encode_bits(name, bits)
        assert np.array_equal(decode_bits(name, blob, 300), bits)
        with pytest.raises(CodingError):
            decode_bits(name, blob, 299)


def test_symbol_distribution_drops_partial_bytes():
    hist = symbol_distribution([np.ones(12, dtype=bool)])
    assert hist.sum() == 1  # only the one full byte counts
    assert hist[0xFF] == 1
    assert symbol_distribution([np.ones(7, dtype=bool)]).sum() == 0
    assert symbol_distribution([]).sum() == 0


def test_chi_square_uniform_behaviour():
    flat = np.full(256, 40)
    assert chi_square_uniform(flat) == 0.0
    spiked = np.zeros(256)
    spiked[3] = 1000
    assert chi_square_uniform(spiked) > 1000
    assert chi_square_uniform(np.zeros(256)) == 0.0
