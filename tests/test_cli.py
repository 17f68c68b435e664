"""Command-line front end, exercised in-process through main(argv)."""

import struct
import tracemalloc

import numpy as np
import pytest

from bmkit.cli import main
from bmkit.fillmodel import (
    load_curve,
    sample_fill_delays,
    save_curve,
    two_segment_curve,
)
from bmkit.schemes import HEADER_LEN, unpack_envelope
from conftest import hostile_blob


def _lines(capsys):
    return capsys.readouterr().out.strip().split("\n")


def _csv_rows(lines):
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------

def test_analyze_default_grid(capsys):
    assert main(["analyze"]) == 0
    lines = _lines(capsys)
    assert lines[0] == "scheme,T,tau,bits_per_msg,bits_per_chunktime,gain_vs_sbms,gain_vs_spbms"
    rows = _csv_rows(lines)
    sbms = [r for r in rows if r["scheme"] == "sbms"]
    assert [r["T"] for r in sbms] == ["8", "16", "24", "32"]
    # Whole-map information does not depend on the period.
    assert len({r["bits_per_msg"] for r in sbms}) == 1
    assert float(sbms[0]["bits_per_msg"]) == pytest.approx(77.0, abs=0.5)
    spbms = [float(r["bits_per_msg"]) for r in rows if r["scheme"] == "spbms"]
    assert spbms == sorted(spbms)  # nondecreasing in T


def test_analyze_tau_sweep_and_out_file(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(["analyze", "--T", "6", "--tau", "sweep", "--n", "64",
                 "--calibrate-hsbms", "20", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    rows = _csv_rows(out.read_text().strip().split("\n"))
    assert [r["tau"] for r in rows if r["scheme"] == "ppbms"] == [
        "1", "2", "3", "4", "5", "6"
    ]


def test_analyze_usage_errors(tmp_path, capsys):
    assert main(["analyze", "--T"]) == 1
    assert main(["analyze", "--tau", "soon"]) == 1
    curve_file = tmp_path / "c.tsv"
    save_curve(two_segment_curve(16, 2, 0.7), curve_file)
    assert main(["analyze", "--curve", str(curve_file),
                 "--calibrate-hsbms", "9"]) == 1
    capsys.readouterr()


def test_analyze_inadmissible_tau_is_invalid_input(capsys):
    assert main(["analyze", "--T", "4", "--tau", "9"]) == 2
    capsys.readouterr()


def test_analyze_accepts_a_curve_file(tmp_path, capsys):
    curve_file = tmp_path / "c.tsv"
    save_curve(two_segment_curve(64, 6, 0.9), curve_file)
    assert main(["analyze", "--curve", str(curve_file), "--T", "8"]) == 0
    rows = _csv_rows(_lines(capsys))
    assert all(int(r["T"]) == 8 for r in rows)


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

def test_simulate_is_deterministic(capsys):
    args = ["simulate", "--n", "64", "--calibrate-hsbms", "20",
            "--T", "8", "--rounds", "40", "--seed", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("# n=64 T=8 tau=2 rounds=40 seed=9 source=synthetic")


def test_simulate_scheme_and_coder_selection(capsys):
    assert main(["simulate", "--n", "64", "--calibrate-hsbms", "20",
                 "--T", "8", "--rounds", "30", "--scheme", "spbms",
                 "--coder", "rle"]) == 0
    lines = _lines(capsys)
    assert lines[1].endswith("rle_bytes")
    rows = _csv_rows(lines[1:])
    assert {r["scheme"] for r in rows} == {"spbms"}
    assert all(int(r["rle_bytes"]) > 0 for r in rows)
    # A repeated scheme or coder is invalid input, not an internal error
    # or a doubled byte count.
    for twice in (["--scheme", "ppbms", "ppbms"], ["--coder", "rle", "rle"]):
        assert main(["simulate", "--n", "64", "--calibrate-hsbms", "20",
                     "--T", "8", "--rounds", "5", *twice]) == 2
    assert "at most once" in capsys.readouterr().err


def test_simulate_validates_timing(capsys):
    assert main(["simulate", "--T", "8", "--tau", "9"]) == 1
    assert main(["simulate", "--n", "16", "--calibrate-hsbms", "5",
                 "--T", "17"]) == 1
    capsys.readouterr()


def test_simulate_replays_a_trace(tmp_path, capsys):
    trace = tmp_path / "t.tsv"
    assert main(["gen-trace", "--n", "64", "--calibrate-hsbms", "20",
                 "--T", "8", "--rounds", "50", "--out", str(trace)]) == 0
    assert main(["simulate", "--trace", str(trace),
                 "--scheme", "spbms", "ppbms"]) == 0
    lines = _lines(capsys)
    assert "source=trace" in lines[0]
    rows = _csv_rows(lines[1:])
    assert {r["scheme"] for r in rows} == {"spbms", "ppbms"}
    assert all(int(r["messages"]) == 50 for r in rows)


def test_simulate_rejects_a_trace_with_three_peers(tmp_path, capsys):
    from bmkit.traceio import TraceRecord, parse_trace, write_trace

    trace = tmp_path / "t.tsv"
    assert main(["gen-trace", "--n", "64", "--calibrate-hsbms", "20",
                 "--T", "8", "--rounds", "10", "--out", str(trace)]) == 0
    recs = parse_trace(trace)
    recs += [TraceRecord(r.timestamp, "C", r.direction, r.bm) for r in recs if r.peer == "A"]
    write_trace(trace, sorted(recs, key=lambda r: r.timestamp))
    for scheme in ("sbms", "spbms", "ppbms"):
        assert main(["simulate", "--trace", str(trace), "--scheme", scheme]) == 2
        assert "'C'" in capsys.readouterr().err


# ----------------------------------------------------------------------
# encode / decode
# ----------------------------------------------------------------------

@pytest.fixture()
def small_trace(tmp_path):
    path = tmp_path / "trace.tsv"
    assert main(["gen-trace", "--n", "64", "--calibrate-hsbms", "20",
                 "--T", "8", "--tau", "3", "--rounds", "40",
                 "--seed", "4", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("scheme", ["sbms", "spbms"])
@pytest.mark.parametrize("coder", [None, "rle", "huffman", "ac"])
def test_encode_decode_round_trip(tmp_path, small_trace, scheme, coder):
    dump = tmp_path / "d.bmd"
    back = tmp_path / "back.tsv"
    args = ["encode", "--trace", str(small_trace), "--scheme", scheme,
            "--out", str(dump)]
    if coder:
        args += ["--coder", coder]
    assert main(args) == 0
    assert dump.read_bytes()[:4] == b"BMD1"
    assert main(["decode", str(dump), "--out", str(back)]) == 0
    assert back.read_bytes() == small_trace.read_bytes()


def test_ppbms_dump_decodes_to_fill_report(tmp_path, small_trace, capsys):
    dump = tmp_path / "d.bmd"
    assert main(["encode", "--trace", str(small_trace), "--scheme", "ppbms",
                 "--out", str(dump)]) == 0
    assert main(["decode", str(dump)]) == 0
    lines = _lines(capsys)
    assert lines[0] == "timestamp,peer,direction,offset,location,bit"
    rows = _csv_rows(lines)
    assert len(rows) > 100
    assert {r["peer"] for r in rows} == {"A", "B"}
    assert {r["bit"] for r in rows} <= {"0", "1"}
    # Every reported location lies inside the window it was reported for.
    for r in rows:
        assert 0 <= int(r["location"]) - int(r["offset"]) < 64


def test_ppbms_dump_is_smaller_than_spbms_dump(tmp_path, small_trace):
    a = tmp_path / "spbms.bmd"
    b = tmp_path / "ppbms.bmd"
    assert main(["encode", "--trace", str(small_trace), "--scheme", "spbms",
                 "--out", str(a)]) == 0
    assert main(["encode", "--trace", str(small_trace), "--scheme", "ppbms",
                 "--out", str(b)]) == 0
    assert b.stat().st_size < a.stat().st_size


def test_encode_ppbms_needs_two_peers(tmp_path, small_trace, capsys):
    from bmkit.traceio import parse_trace, write_trace

    solo = tmp_path / "solo.tsv"
    write_trace(solo, [r for r in parse_trace(small_trace) if r.peer == "B"])
    dump = tmp_path / "d.bmd"
    assert main(["encode", "--trace", str(solo), "--scheme", "ppbms",
                 "--out", str(dump)]) == 2
    assert "ppbms needs a two-peer trace" in capsys.readouterr().err


def test_decode_usage_errors(tmp_path, small_trace, capsys):
    dump = tmp_path / "d.bmd"
    assert main(["encode", "--trace", str(small_trace), "--scheme", "spbms",
                 "--out", str(dump)]) == 0
    assert main(["decode", str(dump)]) == 1  # spbms decode needs --out
    assert main(["decode", str(dump), "--scheme", "sbms",
                 "--out", str(tmp_path / "x.tsv")]) == 1  # wrong scheme claim
    capsys.readouterr()


def test_decode_rejects_corrupt_dumps(tmp_path, small_trace, capsys):
    dump = tmp_path / "d.bmd"
    assert main(["encode", "--trace", str(small_trace), "--scheme", "spbms",
                 "--out", str(dump)]) == 0
    data = bytearray(dump.read_bytes())
    bad_magic = tmp_path / "m.bmd"
    bad_magic.write_bytes(b"XXXX" + bytes(data[4:]))
    assert main(["decode", str(bad_magic), "--out", str(tmp_path / "o.tsv")]) == 2
    truncated = tmp_path / "t.bmd"
    truncated.write_bytes(bytes(data[:-3]))
    assert main(["decode", str(truncated), "--out", str(tmp_path / "o.tsv")]) == 2
    assert main(["decode", str(tmp_path / "absent.bmd"),
                 "--out", str(tmp_path / "o.tsv")]) == 2
    capsys.readouterr()


def test_decode_detects_payload_tampering(tmp_path, small_trace, capsys):
    """Flipping a payload bit desyncs the support sets mid-dump."""
    dump = tmp_path / "d.bmd"
    assert main(["encode", "--trace", str(small_trace), "--scheme", "spbms",
                 "--out", str(dump)]) == 0
    data = bytearray(dump.read_bytes())
    data[-1] ^= 0x80  # a bit inside the final frame's payload
    # Truncate a frame instead: cut the last byte so lengths disagree.
    broken = tmp_path / "b.bmd"
    broken.write_bytes(bytes(data[:-1]))
    assert main(["decode", str(broken), "--out", str(tmp_path / "o.tsv")]) == 2
    capsys.readouterr()


def test_decode_rejects_nonzero_padding(tmp_path, small_trace, capsys):
    """A coder-less frame whose payload padding is not zero is not the one
    wire form of its message: invalid input."""
    dump = tmp_path / "d.bmd"
    assert main(["encode", "--trace", str(small_trace), "--scheme", "spbms",
                 "--out", str(dump)]) == 0
    data = bytearray(dump.read_bytes())
    head = struct.Struct(">IB")
    tail = struct.Struct(">BBH")
    at = 4
    while True:  # find the first frame whose payload ends mid-byte
        at += head.size + head.unpack_from(data, at)[1]
        body_len = tail.unpack_from(data, at)[2]
        at += tail.size + body_len
        if unpack_envelope(bytes(data[at - body_len : at]))[4] % 8:
            break
    data[at - 1] |= 1
    dirty = tmp_path / "p.bmd"
    dirty.write_bytes(bytes(data))
    assert main(["decode", str(dirty), "--out", str(tmp_path / "o.tsv")]) == 2
    assert "padding bits past the payload must be zero" in capsys.readouterr().err


@pytest.mark.parametrize("coder", ["rle", "huffman"])
def test_decode_rejects_a_coder_blob_claiming_2_62_bits(tmp_path, small_trace, coder, capsys):
    """A coded payload whose runs overrun the header's bit count is invalid
    input (exit 2), not an attempt to allocate 2^62 bits (exit 3)."""
    dump = tmp_path / "d.bmd"
    assert main(["encode", "--trace", str(small_trace), "--scheme", "spbms",
                 "--coder", coder, "--out", str(dump)]) == 0
    data = dump.read_bytes()
    # Keep the first frame only, with its payload blob swapped.
    head = struct.Struct(">IB")
    tail = struct.Struct(">BBH")
    plen = head.unpack_from(data, 4)[1]
    at = 4 + head.size + plen
    direction, coder_id, _ = tail.unpack_from(data, at)
    body = data[at + tail.size : at + tail.size + HEADER_LEN] + hostile_blob(coder)
    hostile = tmp_path / "h.bmd"
    hostile.write_bytes(data[:at] + tail.pack(direction, coder_id, len(body)) + body)
    assert main(["decode", str(hostile), "--out", str(tmp_path / "o.tsv")]) == 2
    capsys.readouterr()


# ----------------------------------------------------------------------
# gen-trace
# ----------------------------------------------------------------------

def test_gen_trace_is_deterministic(tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    args = ["gen-trace", "--n", "64", "--calibrate-hsbms", "20",
            "--T", "8", "--rounds", "20", "--seed", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.tsv"
    assert main(["gen-trace", "--n", "64", "--calibrate-hsbms", "20",
                 "--T", "8", "--rounds", "20", "--seed", "4",
                 "--out", str(c)]) == 0
    assert c.read_bytes() != a.read_bytes()


def test_gen_trace_validates_timing(tmp_path, capsys):
    out = tmp_path / "t.tsv"
    assert main(["gen-trace", "--T", "8", "--tau", "9", "--out", str(out)]) == 1
    assert main(["gen-trace", "--n", "16", "--calibrate-hsbms", "5",
                 "--T", "17", "--out", str(out)]) == 1
    capsys.readouterr()


# ----------------------------------------------------------------------
# fit-curve
# ----------------------------------------------------------------------

def test_fit_curve_from_raw_delays(tmp_path, capsys):
    curve = two_segment_curve(64, 6, 0.9)
    rng = np.random.default_rng(8)
    delays = sample_fill_delays(curve, rng.random(5000))
    samples = tmp_path / "delays.txt"
    np.savetxt(samples, delays, fmt="%d")
    fitted = tmp_path / "fitted.tsv"
    assert main(["fit-curve", "--samples", str(samples), "--n", "64",
                 "--out", str(fitted)]) == 0
    lines = _lines(capsys)
    assert lines[0] == "breakpoint,p_break,terminal,initial"
    b, p_break, terminal, initial = lines[1].split(",")
    assert abs(int(b) - 6) <= 1
    assert float(p_break) == pytest.approx(0.9, abs=0.05)
    got = load_curve(fitted)
    assert got.n == 64
    assert np.abs(got.probs - curve.probs).max() < 0.08


def test_fit_curve_from_many_raw_delays_in_bounded_memory(tmp_path, capsys):
    """The per-age fill frequency of 200,000 delays takes memory in the
    number of samples, not in samples x window positions (a bool matrix
    of 89 MB at --n 456)."""
    rng = np.random.default_rng(9)
    delays = sample_fill_delays(two_segment_curve(456, 41, 0.9), rng.random(200_000))
    samples = tmp_path / "delays.txt"
    np.savetxt(samples, delays, fmt="%d")
    tracemalloc.start()
    try:
        assert main(["fit-curve", "--samples", str(samples), "--n", "456"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MB"
    breakpoint = int(_lines(capsys)[1].split(",")[0])
    assert abs(breakpoint - 41) <= 2


def test_fit_curve_from_age_probability_pairs(tmp_path, capsys):
    curve = two_segment_curve(32, 4, 0.8)
    samples = tmp_path / "pairs.txt"
    pts = np.stack([np.arange(32), curve.probs], axis=1)
    np.savetxt(samples, pts, fmt="%.9f")
    assert main(["fit-curve", "--samples", str(samples), "--n", "32"]) == 0
    lines = _lines(capsys)
    b, p_break, _, _ = lines[1].split(",")
    assert int(b) == 4
    assert float(p_break) == pytest.approx(0.8, abs=1e-6)


def test_fit_curve_rejects_bad_samples(tmp_path, capsys):
    two = tmp_path / "two.txt"
    two.write_text("3\n5\n")
    assert main(["fit-curve", "--samples", str(two)]) == 2
    junk = tmp_path / "junk.txt"
    junk.write_text("once upon a time\n")
    assert main(["fit-curve", "--samples", str(junk)]) == 2
    wide = tmp_path / "wide.txt"
    wide.write_text("1 2 3\n4 5 6\n7 8 9\n")
    assert main(["fit-curve", "--samples", str(wide)]) == 2
    negative = tmp_path / "neg.txt"
    negative.write_text("-1\n4\n5\n")
    assert main(["fit-curve", "--samples", str(negative)]) == 2
    capsys.readouterr()


def test_fit_curve_on_a_window_too_narrow_for_a_breakpoint_is_invalid_input(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 0.1\n1 0.5\n1 0.9\n")
    assert main(["fit-curve", "--samples", str(pairs), "--n", "2"]) == 2
    assert "n >= 3" in capsys.readouterr().err


# ----------------------------------------------------------------------
# top-level parser behavior
# ----------------------------------------------------------------------

def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out


def test_bad_invocations_are_usage_errors(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["analyze", "--bogus-flag"]) == 1
    capsys.readouterr()
