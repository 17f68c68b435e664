"""Golden bytes: the codecs' wire output for fixed seeds, pinned by digest.

One sha256 covers, for several seeded ``run_synthetic`` and
``reorder_fault_run`` configurations across all three schemes, every
message the simulator packs (``pack_message`` bytes, resyncs included),
every decoded output, the measured payloads, support-set sizes and
``to_csv()``.  A refactor of the support-set machinery must leave it
unchanged; a deliberate change to the wire format or to what a message
reports must update the digest in the same change.  A second digest pins
every per-message ideal code length of the same runs by value, a third
pins ``run_trace`` replays of fixed traces, and a fourth pins what the
``bmkit encode``/``decode`` commands write and the generic coders' blobs.
A fifth pins seeded random fault runs, the corners the fixed runs miss,
and a sixth what ``bmkit analyze`` writes.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from bmkit import sim
from bmkit.bitmap import BufferMap
from bmkit.cli import main
from bmkit.coders import CODER_NAMES, decode_bits, encode_bits
from bmkit.entropy import calibrate_curve
from bmkit.fillmodel import two_segment_curve
from bmkit.schemes import PpbmsSession, SpbmsEncoder, pack_message
from bmkit.sim import ReorderScript, SimConfig, reorder_fault_run, run_synthetic, run_trace
from bmkit.traceio import TraceRecord, generate, write_trace

GOLDEN_SHA256 = "4289d813f9d554c34c6c3b65ac38e1984987d670094b803d870cc043829efe4d"


def _record_messages(monkeypatch):
    """Log the packed bytes of every message the simulator encodes."""
    wire = []

    def logged(fn):
        def wrapper(*args, **kwargs):
            msg = fn(*args, **kwargs)
            wire.append(pack_message(msg))
            return msg

        return wrapper

    for cls in (SpbmsEncoder, PpbmsSession):
        monkeypatch.setattr(cls, "encode", logged(cls.encode))
        monkeypatch.setattr(cls, "make_resync", logged(cls.make_resync))
    monkeypatch.setattr(sim, "sbms_encode", logged(sim.sbms_encode))
    return wire


def _feed_result(h, res):
    h.update(res.to_csv().encode())
    for key in sorted(res.payloads):
        for bits in res.payloads[key]:
            h.update(len(bits).to_bytes(4, "big") + np.packbits(bits).tobytes())
        h.update(np.asarray(res.ss_sizes[key], dtype=np.int64).tobytes())
    for key in sorted(res.decoded):
        for out in res.decoded[key]:
            h.update(out.offset.to_bytes(8, "big"))
            if isinstance(out, BufferMap):
                h.update(np.packbits(out.bits).tobytes())
            else:
                h.update(np.asarray(out.locations, dtype=np.int64).tobytes())
                h.update(np.packbits(np.asarray(out.bits, dtype=bool)).tobytes())


def _runs(calibrated_curve):
    small = two_segment_curve(32, 4, 0.8)
    c64 = calibrate_curve(20.0, 64).to_curve(64)
    yield run_synthetic, (
        SimConfig(small, T=8, tau=2, rounds=40, seed=3, coders=("rle", "huffman", "ac"),
                  keep_messages=True),
    )
    yield run_synthetic, (
        SimConfig(c64, T=8, tau=3, rounds=30, seed=11, offset_lag=5, keep_messages=True),
    )
    yield run_synthetic, (
        SimConfig(calibrated_curve, T=20, tau=5, rounds=20, seed=0, keep_messages=True),
    )
    yield reorder_fault_run, (
        SimConfig(small, T=8, tau=2, rounds=60, seed=3, keep_messages=True),
        ReorderScript(
            delays={("ab", 12): 2, ("ba", 25): 3, ("ab", 30): 25},
            drops=[("ba", 50)],
            swaps=[("ab", 10), ("ba", 20)],
        ),
    )
    yield reorder_fault_run, (
        SimConfig(c64, T=4, tau=1, rounds=60, seed=2, archive_depth=4, keep_messages=True),
        ReorderScript(delays={("ba", 10): 25}, swaps=[("ab", 40)]),
    )


def test_wire_bytes_and_outputs_match_the_golden_digest(monkeypatch, calibrated_curve):
    wire = _record_messages(monkeypatch)
    h = hashlib.sha256()
    for run, args in _runs(calibrated_curve):
        _feed_result(h, run(*args))
        for blob in wire:
            h.update(len(blob).to_bytes(4, "big") + blob)
        wire.clear()
    assert h.hexdigest() == GOLDEN_SHA256


IDEAL_SHA256 = "0c86d249704f6ca3dda19d0d947df98ddf65404639379556b5661d1518ea47e7"


def test_ideal_code_lengths_match_the_golden_digest(calibrated_curve):
    """Every per-message ideal code length of the golden runs, by value.

    Adding 0.0 folds -0.0 into 0.0: a zero-cost message may sum its
    log-probabilities to either sign of zero, which is the same length.
    """
    h = hashlib.sha256()
    for run, args in _runs(calibrated_curve):
        res = run(*args)
        for key in sorted(res.ideal_bits):
            arr = res.ideal_bits[key]
            h.update(repr(key).encode() + len(arr).to_bytes(4, "big"))
            h.update((arr + 0.0).tobytes())
    assert h.hexdigest() == IDEAL_SHA256


TRACE_SHA256 = "c4f160e5cb65fbe4f5dd49040d3b371f8804c3b786e98a818323cddf0059516a"


def _trace_runs(calibrated_curve):
    """Recorded-trace replays: two peers with every scheme and coder, a
    tau = T schedule at n = 456, one peer alone, and repeated records."""
    small = two_segment_curve(32, 4, 0.8)
    yield dict(trace=generate(small, T=8, rounds=40, seed=3, tau=2), schemes=sim.SCHEMES,
               coders=("rle", "huffman", "ac"), keep_messages=True)
    yield dict(trace=generate(calibrated_curve, T=20, rounds=15, seed=5, tau=20),
               schemes=sim.SCHEMES, keep_messages=True)
    solo = [r for r in generate(small, T=4, rounds=30, seed=7, tau=1) if r.peer == "B"]
    yield dict(trace=solo, schemes=("sbms", "spbms"), coders=("rle",), keep_messages=True)
    doubled = []
    for k, rec in enumerate(generate(small, T=8, rounds=20, seed=9, tau=3)):
        doubled += [rec, rec] if k % 3 == 0 else [rec]
    yield dict(trace=doubled, schemes=sim.SCHEMES, keep_messages=True)


def test_trace_replay_matches_the_golden_digest(monkeypatch, calibrated_curve):
    """``run_trace`` output and wire bytes for fixed traces.  The sbms
    ``decoded`` entries are left out: they are not part of what a replay
    promises to keep."""
    wire = _record_messages(monkeypatch)
    h = hashlib.sha256()
    for kwargs in _trace_runs(calibrated_curve):
        res = run_trace(**kwargs)
        decoded = {k: v for k, v in res.decoded.items() if k[0] != "sbms"}
        _feed_result(h, dataclasses.replace(res, decoded=decoded))
        for key in sorted(res.ideal_bits):
            nan = np.isnan(res.ideal_bits[key])
            h.update(repr(key).encode() + len(nan).to_bytes(4, "big") + np.packbits(nan).tobytes())
        for blob in wire:
            h.update(len(blob).to_bytes(4, "big") + blob)
        wire.clear()
    assert h.hexdigest() == TRACE_SHA256


CLI_SHA256 = "4fb41d2969eee95539def49b954cb18a4302ec497fe209a181e247bcae818e5e"


def _long_run_trace(path):
    """Two peers over a 600-chunk window whose maps hold runs longer than
    127 and 255 bits: multi-byte rle varints and Huffman escapes."""
    n = 600
    records = []
    for i in range(12):
        for peer, direction, lag in (("B", "received", 0), ("A", "sent", 1)):
            offset = 10 * i
            c = offset + np.arange(n)
            filled = (c < offset + 130 + 25 * i + 40 * lag) | ((c % 97 == 0) & (c < offset + 330))
            records.append(TraceRecord(4 * i + lag, peer, direction, BufferMap(offset, filled)))
    write_trace(path, records)


def _coder_payloads():
    rng = np.random.default_rng(2024)
    for size in (1, 2, 7, 8, 9, 64, 200, 1000):
        for density in (0.02, 0.5, 0.98):
            yield rng.random(size) < density
    for _ in range(6):
        runs = rng.integers(1, 700, size=rng.integers(1, 12))
        yield np.repeat(np.arange(runs.size) % 2 == rng.integers(2), runs)


def test_cli_dumps_outputs_and_coder_blobs_match_the_golden_digest(tmp_path):
    """Every scheme x coder dump of ``bmkit encode`` and what ``bmkit
    decode`` writes back, for the README-point trace (n=64, T=8, tau=3,
    50 rounds) and a long-run trace, plus ``encode_bits`` blobs of every
    coder over seeded payloads."""
    readme = tmp_path / "readme.trace"
    assert main(["gen-trace", "--n", "64", "--calibrate-hsbms", "20", "--T", "8",
                 "--tau", "3", "--rounds", "50", "--seed", "7", "--out", str(readme)]) == 0
    long_runs = tmp_path / "long.trace"
    _long_run_trace(long_runs)
    dump, out = tmp_path / "d.bmd", tmp_path / "out"
    h = hashlib.sha256()
    for trace in (readme, long_runs):
        h.update(trace.read_bytes())
        for scheme in sim.SCHEMES:
            for coder in (None,) + CODER_NAMES:
                argv = ["encode", "--trace", str(trace), "--scheme", scheme, "--out", str(dump)]
                assert main(argv + (["--coder", coder] if coder else [])) == 0
                assert main(["decode", str(dump), "--out", str(out)]) == 0
                for data in (dump.read_bytes(), out.read_bytes()):
                    h.update(len(data).to_bytes(4, "big") + data)
    for bits in _coder_payloads():
        for coder in CODER_NAMES:
            blob = encode_bits(coder, bits)
            assert np.array_equal(decode_bits(coder, blob, bits.size), bits)
            h.update(coder.encode() + bits.size.to_bytes(4, "big") + len(blob).to_bytes(4, "big"))
            h.update(blob)
    assert h.hexdigest() == CLI_SHA256


FAULT_CORNER_SHA256 = "1c23a140b01ec9f2e5f771facce9b69a1e1625923901980f7e156162f78075fd"


def _fault_corner_runs(count, seed):
    """Seeded random fault runs of all three schemes: n in {16, 32, 64},
    T in {2, 4, 8}, every tau, archive depth 1-8, offset_lag 0-5, and up to
    six mixed drops, delays and swaps, as ``ReorderScript`` keyword
    arguments.  Delays reach past the archive, and adjacent swaps on one
    direction overlap, so some scripts are rejected as they are built."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.choice([16, 32, 64]))
        T = int(rng.choice([2, 4, 8]))
        tau = int(rng.integers(1, T + 1))
        curve = two_segment_curve(n, int(rng.integers(1, n - 1)), float(rng.uniform(0.1, 0.9)))
        depth = int(rng.integers(1, 9))
        cfg = SimConfig(curve, T=T, tau=tau, rounds=int(rng.integers(4, 17)),
                        seed=int(rng.integers(2**31)), archive_depth=depth,
                        offset_lag=int(rng.integers(0, 6)), keep_messages=True)
        sent = cfg.warmup_periods + cfg.rounds  # messages per direction
        delays, drops, swaps = {}, set(), set()
        for _ in range(int(rng.integers(0, 7))):
            key = (("ab", "ba")[rng.integers(2)], int(rng.integers(sent)))
            kind = rng.integers(3)
            if kind == 0:
                drops.add(key)
            elif kind == 1:
                delays[key] = int(rng.integers(1, 2 * depth + 4))
            else:
                swaps.add(key)
        yield cfg, dict(delays=delays, drops=drops, swaps=swaps)


def test_random_fault_runs_match_the_golden_digest():
    """320 seeded random fault runs: ``to_csv``, payloads, support-set
    sizes, decoded outputs and every ideal length by value, or the type and
    message of the exception a run raises.  A run that raises stays pinned
    as raising until a change mends it on purpose: nine whose scripts hold
    overlapping swaps, rejected as the script is built, and run 316, whose
    spbms ab check fails after a drop behind an in-flight resync."""
    h = hashlib.sha256()
    raised = {}
    for i, (cfg, faults) in enumerate(_fault_corner_runs(320, 15)):
        try:
            res = reorder_fault_run(cfg, ReorderScript(**faults))
        except Exception as exc:  # the raise is the pinned outcome
            h.update(f"{type(exc).__name__}: {exc}".encode())
            raised[i] = str(exc)
            continue
        _feed_result(h, res)
        for key in sorted(res.ideal_bits):
            h.update((res.ideal_bits[key] + 0.0).tobytes())
    assert h.hexdigest() == FAULT_CORNER_SHA256
    assert sorted(raised) == [0, 13, 17, 100, 190, 225, 247, 305, 310, 316]
    assert all(raised[i].startswith("overlapping swaps on direction ") for i in sorted(raised)[:-1])
    assert raised[316] == "spbms ab: the support sets at the two ends diverged"


ANALYZE_SHA256 = {
    "calibrated": "fa411fd93139ec3b406ec3b386c763933bbe73ceffc96cac31947f71eead2c04",
    "deterministic": "bfc4a3cdd409f72e24d0720ced30128fd7bee10ccd24d7134f128f3bc7423463",
}


@pytest.mark.parametrize("curve", sorted(ANALYZE_SHA256))
def test_analyze_csv_matches_the_golden_digest(tmp_path, curve):
    """The ``bmkit analyze`` CSV over T 8, 16, 24, 32 and every tau, for the
    default calibrated curve and for a 64-wide curve that is 0 up to age 23
    and 1 after it.  That curve carries no information, so every row's h
    and every gain, each row's gain over itself included, is 0."""
    argv = ["analyze", "--T", "8", "16", "24", "32", "--tau", "sweep"]
    if curve == "deterministic":
        path = tmp_path / "det.curve"
        path.write_text("".join(f"{i} {0 if i < 24 else 1}\n" for i in range(64)))
        argv += ["--curve", str(path)]
    out = tmp_path / "grid.csv"
    assert main(argv + ["--out", str(out)]) == 0
    data = out.read_bytes()
    if curve == "deterministic":
        assert all(line.endswith(b",0.000000,0.000000,0.000000,0.000000")
                   for line in data.splitlines()[1:])
    assert hashlib.sha256(data).hexdigest() == ANALYZE_SHA256[curve]
