"""Seeded hostile-bytes fuzzing of every reader of untrusted bytes.

Valid encodings (wire messages, coder blobs, CLI dumps) are mutated by
truncation, bit flips and edits of their bit-count fields.  Every reader
must either accept the result or reject it with ``BmkitError`` or
``ValueError``; the CLI must exit 0 or 2, never 3.  Stdlib ``random`` with
fixed seeds keeps the cases reproducible.
"""

import random
import struct

import numpy as np
import pytest

from bmkit.cli import main
from bmkit.coders import CODER_NAMES, decode_bits, encode_bits
from bmkit.errors import BmkitError
from bmkit.fillmodel import two_segment_curve
from bmkit.schemes import (
    PpbmsSession,
    SpbmsEncoder,
    pack_message,
    sbms_encode,
    unpack_message,
)
from bmkit.sim import SCHEMES
from bmkit.traceio import generate, write_trace

_NBITS_AT = 9  # the 16-bit bit count inside the 11-byte message envelope
_FRAME_HEAD = struct.Struct(">IB")
_FRAME_TAIL = struct.Struct(">BBH")


def _mutants(rng, blob, count_fields, k):
    """``k`` mutants of ``blob``: a truncation, one to four flipped bits, or
    a new value in one of the 16-bit bit-count fields at ``count_fields``."""
    for _ in range(k):
        kind = rng.randrange(3 if count_fields else 2)
        b = bytearray(blob)
        if kind == 0:
            yield bytes(b[: rng.randrange(len(b))])
        elif kind == 1:
            for _ in range(rng.randint(1, 4)):
                i = rng.randrange(8 * len(b))
                b[i // 8] ^= 0x80 >> (i % 8)
            yield bytes(b)
        else:
            pos = rng.choice(count_fields)
            old = int.from_bytes(b[pos : pos + 2], "big")
            new = rng.choice([0, 1, 0xFFFF, old + 1, max(old - 1, 0), old + 8,
                              rng.randrange(0x10000)]) & 0xFFFF
            b[pos : pos + 2] = new.to_bytes(2, "big")
            yield bytes(b)


def _rejects_cleanly(fn, *args):
    try:
        fn(*args)
    except (BmkitError, ValueError):
        pass


@pytest.fixture(scope="module")
def messages():
    """Real messages of every scheme from a two-peer trace, with one resync
    of each stateful scheme."""
    recs = generate(two_segment_curve(32, 4, 0.8), T=8, rounds=10, seed=1, tau=2)
    spbms = {p: SpbmsEncoder(32) for p in "AB"}
    ppbms = {p: PpbmsSession(32) for p in "AB"}
    msgs = []
    for k, rec in enumerate(recs):
        enc, sess = spbms[rec.peer], ppbms[rec.peer]
        msgs.append(sbms_encode(rec.bm))
        msgs.append(enc.make_resync(rec.bm) if k == 9 else enc.encode(rec.bm))
        msg = sess.make_resync(rec.bm) if k == 9 else sess.encode(rec.bm)
        ppbms["A" if rec.peer == "B" else "B"].decode(msg)
        msgs.append(msg)
    return msgs


def _unpack_all(data):
    """Read consecutive messages until ``data`` ends; each read advances at
    least one envelope."""
    pos = 0
    while pos < len(data):
        _, pos = unpack_message(data, pos)


def test_mutated_wire_messages_fail_cleanly(messages):
    rng = random.Random(7)
    packed = [pack_message(m) for m in messages]
    for blob in packed:
        for bad in _mutants(rng, blob, [_NBITS_AT], 30):
            _rejects_cleanly(unpack_message, bad)
    stream = b"".join(packed)
    starts = np.cumsum([0] + [len(b) for b in packed[:-1]])
    for bad in _mutants(rng, stream, [int(s) + _NBITS_AT for s in starts], 400):
        _rejects_cleanly(_unpack_all, bad)


@pytest.mark.parametrize("coder", CODER_NAMES)
def test_mutated_coder_blobs_fail_cleanly(messages, coder):
    rng = random.Random(11)
    for msg in messages:
        bits = msg.payload
        if bits.size == 0:
            continue
        blob = encode_bits(coder, bits)
        for bad in _mutants(rng, blob, [], 12):
            _rejects_cleanly(decode_bits, coder, bad, bits.size)
        for n_bits in (0, 1, bits.size - 1, bits.size + 1, rng.randrange(2 * bits.size + 16)):
            _rejects_cleanly(decode_bits, coder, blob, n_bits)


def _count_fields(dump):
    """Offsets of each frame's message bit count and frame body length."""
    fields = []
    pos = 4
    while pos < len(dump):
        _, plen = _FRAME_HEAD.unpack_from(dump, pos)
        pos += _FRAME_HEAD.size + plen
        body_len = _FRAME_TAIL.unpack_from(dump, pos)[2]
        fields.append(pos + 2)
        pos += _FRAME_TAIL.size
        fields.append(pos + _NBITS_AT)
        pos += body_len
    return fields


def test_mutated_dumps_never_reach_an_internal_error(tmp_path, capsys):
    trace = tmp_path / "t.tsv"
    write_trace(trace, generate(two_segment_curve(32, 4, 0.8), T=8, rounds=6, seed=3, tau=2))
    rng = random.Random(13)
    out = tmp_path / "out"
    bad_path = tmp_path / "bad.bmd"
    for scheme in SCHEMES:
        for coder in (None,) + CODER_NAMES:
            dump = tmp_path / f"{scheme}-{coder}.bmd"
            args = ["encode", "--trace", str(trace), "--scheme", scheme, "--out", str(dump)]
            assert main(args + (["--coder", coder] if coder else [])) == 0
            valid = dump.read_bytes()
            for bad in _mutants(rng, valid, _count_fields(valid), 50):
                bad_path.write_bytes(bad)
                assert main(["decode", str(bad_path), "--out", str(out)]) in (0, 2)
            capsys.readouterr()
