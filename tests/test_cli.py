"""Command-line front end, exercised in-process through main(argv), and
once as a process."""

import hashlib
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from bmkit import cli
from bmkit.bitmap import BufferMap
from bmkit.cli import main
from bmkit.coders import decode_bits
from bmkit.entropy import h_spbms, report_grid
from bmkit.errors import InvariantError
from bmkit.fillmodel import (
    load_curve,
    sample_fill_delays,
    save_curve,
    two_segment_curve,
)
from bmkit.schemes import HEADER_LEN, unpack_envelope
from bmkit.sim import SimConfig
from bmkit.traceio import TraceRecord, generate, parse_trace, write_trace
from conftest import hostile_blob


def _bm(offset, bits):
    return BufferMap(offset, [int(b) for b in bits])


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


@pytest.mark.parametrize("argv, message", [
    (["--T", "0"], "need 0 < T <= n, got T=0, n=456"),
    (["--T", "-3"], "need 0 < T <= n, got T=-3, n=456"),
    (["--T", "457"], "need 0 < T <= n, got T=457, n=456"),
    (["--T", "8", "--tau", "9"], "no admissible tau for T=8"),
], ids=["T0", "T-3", "T457", "T8-tau9"])
def test_analyze_bad_timing_is_a_usage_error(argv, message, capsys):
    """A period the default window cannot hold, or no admissible offset, is
    a bad flag: exit 1, with the message ``report_grid`` raises."""
    assert main(["analyze", *argv]) == 1
    assert capsys.readouterr().err == f"bmkit: {message}\n"


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


@pytest.mark.parametrize("T", ["0", "-3"])
def test_simulate_and_gen_trace_reject_a_nonpositive_period_as_usage(tmp_path, capsys, T):
    """Both commands default tau to max(1, T // 4) = 1 but check the period
    first, so a nonpositive T gets the period's usage error before any work."""
    for argv in (["simulate"], ["gen-trace", "--out", str(tmp_path / "t.tsv")]):
        assert main(argv + ["--n", "16", "--calibrate-hsbms", "5", "--T", T]) == 1
        assert capsys.readouterr() == ("", f"bmkit: need 0 < T <= n, got T={T}, n=16\n")
    assert not (tmp_path / "t.tsv").exists()


_RUN = {"T": 8, "tau": 2, "rounds": 2, "seed": 1}  # a valid run on a 16-chunk window


@pytest.mark.parametrize("bad, text", [
    ({"T": 0}, "need 0 < T <= n, got T=0, n=16"),
    ({"T": -3}, "need 0 < T <= n, got T=-3, n=16"),
    ({"T": 17}, "need 0 < T <= n, got T=17, n=16"),
    ({"tau": 9}, "need 0 < tau <= T, got tau=9, T=8"),
    ({"tau": 0}, "need 0 < tau <= T, got tau=0, T=8"),
    ({"rounds": 0}, "need rounds >= 1, got rounds=0"),
    ({"rounds": -3}, "need rounds >= 1, got rounds=-3"),
    ({"seed": -1}, "need seed >= 0, got seed=-1"),
    ({"n": 65536}, "--n 65536 exceeds 65535, the widest window the wire carries"),
    ({"n": 70000}, "--n 70000 exceeds 65535, the widest window the wire carries"),
], ids=["T0", "T-3", "T17", "tau9", "tau0", "rounds0", "rounds-3", "seed-1", "n65536", "n70000"])
def test_a_bad_run_parameter_has_one_text_at_every_entry_point(tmp_path, capsys, bad, text):
    """``SimConfig`` and ``generate`` raise each of the four texts of a
    synthetic run's parameters, and ``report_grid`` and ``h_spbms`` the
    period's.  ``simulate``, ``gen-trace`` and, for the period, ``analyze``
    print the same text as a usage error (exit 1) before writing anything.
    A window wider than the wire carries is a usage error of those three and
    ``fit-curve``, before any calibration or fit: an unreachable target and
    too few samples would each fail with exit 2 at once."""
    run = {**_RUN, **bad}
    n = run.pop("n", 16)
    curve = two_segment_curve(16, 2, 0.8)
    flags = [f"--{k}={v}" for k, v in run.items()]
    commands = [["simulate", *flags], ["gen-trace", *flags]]
    calls, target = [], 5
    if "n" in bad:
        commands += [["analyze"], ["fit-curve", "--samples", _two_delays(tmp_path)]]
        target = -1
    else:
        calls = [lambda: SimConfig(curve, **run), lambda: generate(curve, **run)]
    if "T" in bad:
        calls += [lambda: report_grid(curve, [run["T"]]), lambda: h_spbms(curve, run["T"])]
        commands.append(["analyze", f"--T={run['T']}"])
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == text
    out = tmp_path / "out"
    for command in commands:
        if command[0] != "fit-curve":
            command = command + [f"--calibrate-hsbms={target}"]
        assert main(command + ["--n", str(n), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"bmkit: {text}\n")
        assert not out.exists()


def _two_delays(tmp_path) -> str:
    """A delays file one sample short of a fit."""
    samples = tmp_path / "two_delays.txt"
    samples.write_text("1\n2\n")
    return str(samples)


def test_the_widest_window_the_wire_carries_passes_the_width_check(tmp_path, capsys):
    """``--n 65535`` gets past the width check to the next input's error
    (exit 2), without calibrating or fitting a curve that wide."""
    reach = "target -1.0 outside the reachable range [0, 65535]"
    for command in (["analyze"], ["simulate"], ["gen-trace", "--out", str(tmp_path / "t")]):
        assert main(command + ["--n", "65535", "--calibrate-hsbms=-1"]) == 2
        assert capsys.readouterr() == ("", f"bmkit: {reach}\n")
    assert main(["fit-curve", "--samples", _two_delays(tmp_path), "--n", "65535"]) == 2
    assert capsys.readouterr() == ("", "bmkit: need at least 3 delay samples, got 2\n")


@pytest.mark.parametrize("argv", [["analyze"], ["simulate", "--rounds", "5"],
                                  ["gen-trace", "--rounds", "5", "--out", "t.tsv"]],
                         ids=lambda argv: argv[0])
def test_curve_with_n_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    """A curve file fixes the window width, so ``--n`` with ``--curve`` is a
    usage error that names both flags; either flag alone sets the width."""
    monkeypatch.chdir(tmp_path)
    save_curve(two_segment_curve(64, 6, 0.9), "c64.txt")
    argv = argv + ["--T", "8"]
    assert main(argv + ["--curve", "c64.txt", "--n", "7"]) == 1
    assert capsys.readouterr().err == "bmkit: --curve and --n are mutually exclusive\n"
    assert not (tmp_path / "t.tsv").exists()
    for flags, width in ((["--curve", "c64.txt"], 64), (["--n", "128"], 128)):
        assert main(argv + flags) == 0
        out = capsys.readouterr().out
        if argv[0] == "simulate":
            assert out.startswith(f"# n={width} ")
        elif argv[0] == "gen-trace":
            assert (tmp_path / "t.tsv").read_text().startswith(f"#bmtrace v1 n={width}\n")
        else:
            assert out.startswith("scheme,T,tau,")


@pytest.mark.parametrize("flags, named", [
    (["--curve", "c.txt"], "--curve"),
    (["--calibrate-hsbms", "20"], "--calibrate-hsbms"),
    (["--n", "64"], "--n"),
    (["--T", "8"], "--T"),
    (["--tau", "2"], "--tau"),
    (["--rounds", "5"], "--rounds"),
    (["--seed", "0"], "--seed"),
    (["--T", "0", "--tau", "9", "--rounds", "-5", "--seed", "3", "--n", "7"],
     "--n --T --tau --rounds --seed"),
])
def test_simulate_rejects_synthetic_run_flags_with_a_trace(small_trace, capsys, flags, named):
    """A replay takes its curve and timing from the trace: a flag of a
    synthetic run is a usage error that names every such flag given."""
    assert main(["simulate", "--trace", str(small_trace), *flags]) == 1
    assert capsys.readouterr().err == (
        f"bmkit: --trace replays a recorded run; {named} cannot apply\n")


# sha256 of the four replays' CSVs below, recorded before synthetic-run
# flags became usage errors with --trace.
TRACE_REPLAY_SHA256 = "2fd0dceb4b491aa4b9f5ebba7713a1e984accdd50bb02c3f20144f290b644973"


def test_simulate_replays_a_trace_with_its_scheme_coder_and_out_flags(
        small_trace, tmp_path, capsys):
    h = hashlib.sha256()
    out = tmp_path / "o.csv"
    for extra in ([], ["--scheme", "spbms", "ppbms"], ["--coder", "rle", "ac"],
                  ["--scheme", "sbms", "--coder", "huffman"]):
        assert main(["simulate", "--trace", str(small_trace), *extra]) == 0
        printed = capsys.readouterr().out
        assert main(["simulate", "--trace", str(small_trace), "--out", str(out), *extra]) == 0
        assert out.read_text() == printed and capsys.readouterr().out == ""
        h.update(printed.encode())
    assert h.hexdigest() == TRACE_REPLAY_SHA256


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


def test_ppbms_fill_report_rows_are_the_fills_the_trace_implies(tmp_path, small_trace, capsys):
    """Row by row: each message reports every position of its window that
    neither peer announced filled before, with the sender's bit there."""
    dump = tmp_path / "d.bmd"
    assert main(["encode", "--trace", str(small_trace), "--scheme", "ppbms",
                 "--out", str(dump)]) == 0
    assert main(["decode", str(dump)]) == 0
    lines = _lines(capsys)
    announced, expected = set(), ["timestamp,peer,direction,offset,location,bit"]
    for rec in parse_trace(small_trace):
        o = rec.bm.offset
        for loc, bit in enumerate(rec.bm.bits.tolist(), o):
            if loc not in announced:
                expected.append(f"{rec.timestamp},{rec.peer},{rec.direction},{o},{loc},{int(bit)}")
                if bit:
                    announced.add(loc)
    assert len(expected) > 100
    assert lines == expected


def test_ppbms_dump_is_smaller_than_spbms_dump(tmp_path, small_trace):
    a = tmp_path / "spbms.bmd"
    b = tmp_path / "ppbms.bmd"
    assert main(["encode", "--trace", str(small_trace), "--scheme", "spbms",
                 "--out", str(a)]) == 0
    assert main(["encode", "--trace", str(small_trace), "--scheme", "ppbms",
                 "--out", str(b)]) == 0
    assert b.stat().st_size < a.stat().st_size


def test_encode_ppbms_needs_two_peers(tmp_path, small_trace, capsys):
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


@pytest.mark.parametrize("coder", [None, "rle"])
def test_decode_rejects_bytes_past_a_zero_bit_message(tmp_path, coder, capsys):
    """A message with no payload bits is its header alone, coded or not: a
    frame that carries bytes past it is invalid input."""
    full = "1" * 8
    records = [TraceRecord(0, "B", "received", _bm(0, full)),
               TraceRecord(1, "A", "sent", _bm(1, full)),
               TraceRecord(2, "B", "received", _bm(1, full))]  # nothing left to report
    trace, dump = tmp_path / "t.tsv", tmp_path / "d.bmd"
    write_trace(trace, records)
    argv = ["encode", "--trace", str(trace), "--scheme", "ppbms", "--out", str(dump)]
    assert main(argv + (["--coder", coder] if coder else [])) == 0
    data = dump.read_bytes()
    tail = struct.Struct(">BBH")
    at = len(data) - HEADER_LEN - tail.size  # the last frame's tail
    direction, coder_id, body_len = tail.unpack_from(data, at)
    assert body_len == HEADER_LEN and unpack_envelope(data[-HEADER_LEN:])[4] == 0
    padded = tmp_path / "p.bmd"
    padded.write_bytes(data[:at] + tail.pack(direction, coder_id, body_len + 2)
                       + data[-HEADER_LEN:] + b"\xde\xad")
    assert main(["decode", str(padded), "--out", str(tmp_path / "o.tsv")]) == 2
    assert "frame length disagrees with message length" in capsys.readouterr().err


@pytest.mark.parametrize("coder", ["rle", "huffman", "ac"])
def test_a_coded_zero_bit_message_round_trips(tmp_path, coder):
    """An spbms map sent again unchanged leaves nothing to report: its coded
    frame is the header alone, and it decodes back to the map."""
    records = [TraceRecord(t, "B", "received", _bm(0, "1" * 8)) for t in (0, 1)]
    trace, dump, back = tmp_path / "t.tsv", tmp_path / "d.bmd", tmp_path / "back.tsv"
    write_trace(trace, records)
    assert main(["encode", "--trace", str(trace), "--scheme", "spbms", "--coder", coder,
                 "--out", str(dump)]) == 0
    data = dump.read_bytes()
    body_len = struct.unpack_from(">H", data, len(data) - HEADER_LEN - 2)[0]
    assert body_len == HEADER_LEN and unpack_envelope(data[-HEADER_LEN:])[4] == 0
    assert main(["decode", str(dump), "--out", str(back)]) == 0
    assert back.read_bytes() == trace.read_bytes()


@pytest.mark.parametrize("records, message", [
    (None, "holds no records"),  # the header line alone
    ([TraceRecord(0, "p" * 256, "sent", _bm(0, "10"))], "peer name too long"),
    ([TraceRecord(2**32, "B", "sent", _bm(0, "10"))], "does not fit the frame field"),
])
def test_encode_rejects_a_trace_no_dump_can_hold(tmp_path, records, message, capsys):
    trace = tmp_path / "t.tsv"
    if records is None:
        trace.write_text("#bmtrace v1 n=8\n")
    else:
        write_trace(trace, records)
    assert main(["encode", "--trace", str(trace), "--scheme", "spbms",
                 "--out", str(tmp_path / "d.bmd")]) == 2
    assert message in capsys.readouterr().err


def test_encode_rejects_a_coded_message_past_frame_capacity(tmp_path, capsys):
    """An rle blob of a 65,535-bit alternating map is 65,536 bytes, so the
    frame's 16-bit body size cannot hold it with its envelope: invalid
    input (exit 2), and no dump is written."""
    trace, dump = tmp_path / "t.tsv", tmp_path / "d.bmd"
    bits = np.arange(65535) % 2 == 0
    write_trace(trace, [TraceRecord(0, "B", "sent", BufferMap(0, bits))])
    assert main(["encode", "--trace", str(trace), "--scheme", "sbms", "--coder", "rle",
                 "--out", str(dump)]) == 2
    assert capsys.readouterr().err == "bmkit: message body exceeds frame capacity\n"
    assert not dump.exists()


@pytest.mark.parametrize("exc, err", [
    (InvariantError("sets diverged"), "bmkit: internal invariant breach: sets diverged\n"),
    (KeyError("oops"), "bmkit: internal error: KeyError('oops')\n"),
])
def test_a_command_that_breaks_an_invariant_or_fails_unexpectedly_exits_3(
        monkeypatch, capsys, exc, err):
    """A bug in the tool, an invariant breach or an exception no command
    expects, exits 3 with its own stderr prefix."""
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_analyze", broken)
    assert main(["analyze"]) == 3
    assert capsys.readouterr().err == err


def test_a_command_whose_reader_closes_the_pipe_exits_0(monkeypatch, capsys):
    """``bmkit analyze | head`` is no error: a closed stdout ends the
    command quietly."""
    def closed(args):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "_cmd_analyze", closed)
    assert main(["analyze"]) == 0
    assert capsys.readouterr() == ("", "")


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


def _frames(data):
    """The byte spans of a dump's frames, in order."""
    head, tail = struct.Struct(">IB"), struct.Struct(">BBH")
    spans, at = [], 4
    while at < len(data):
        end = at + head.size + head.unpack_from(data, at)[1]
        end += tail.size + tail.unpack_from(data, end)[2]
        spans.append((at, end))
        at = end
    return spans


def test_decode_rejects_a_second_scheme_before_decoding_its_payload(
        tmp_path, small_trace, monkeypatch, capsys):
    """A dump whose frame 2 switches from sbms to spbms fails at that frame:
    only frame 1's payload is decoded."""
    dumps = {}
    for scheme in ("sbms", "spbms"):
        dumps[scheme] = tmp_path / f"{scheme}.bmd"
        assert main(["encode", "--trace", str(small_trace), "--scheme", scheme,
                     "--coder", "ac", "--out", str(dumps[scheme])]) == 0
    sbms, spbms = (dumps[s].read_bytes() for s in ("sbms", "spbms"))
    (a, b), rest = _frames(sbms)[0], _frames(spbms)[1:61]
    mixed = tmp_path / "mixed.bmd"
    mixed.write_bytes(b"BMD1" + sbms[a:b] + spbms[rest[0][0] : rest[-1][1]])
    calls = []

    def counting(*args):
        calls.append(args[0])
        return decode_bits(*args)

    monkeypatch.setattr(cli, "decode_bits", counting)
    assert main(["decode", str(mixed), "--out", str(tmp_path / "o.tsv")]) == 2
    assert "dump mixes schemes ['sbms', 'spbms']" in capsys.readouterr().err
    assert len(calls) <= 1


def _claiming(frame, nbits):
    """``frame`` with the bit count in its envelope set to ``nbits``."""
    at = struct.calcsize(">IB") + frame[4] + struct.calcsize(">BBH") + HEADER_LEN - 2
    return frame[:at] + struct.pack(">H", nbits) + frame[at + 2 :]


@pytest.mark.parametrize("scheme, message", [
    ("sbms", "expected 64 raw bits, got 65535"),
    ("spbms", "expected at most 64 payload bits, got 65535"),
], ids=["sbms", "spbms"])
def test_decode_bounds_each_frames_bit_count_before_decoding_its_payload(
        tmp_path, small_trace, monkeypatch, capsys, scheme, message):
    """Two valid frames, then 48 that each claim 65,535 bits: frame 3 fails
    against frame 1's whole-window bit count (an sbms frame must equal it,
    an spbms one may not exceed it), so only frames 1 and 2 are decoded."""
    dump = tmp_path / "d.bmd"
    assert main(["encode", "--trace", str(small_trace), "--scheme", scheme,
                 "--coder", "ac", "--out", str(dump)]) == 0
    data = dump.read_bytes()
    (a, b), (c, d) = _frames(data)[:2]
    hostile = tmp_path / "hostile.bmd"
    hostile.write_bytes(b"BMD1" + data[a:d] + _claiming(data[c:d], 0xFFFF) * 48)
    calls = []

    def counting(*args):
        calls.append(args[0])
        return decode_bits(*args)

    monkeypatch.setattr(cli, "decode_bits", counting)
    assert main(["decode", str(hostile), "--out", str(tmp_path / "o.tsv")]) == 2
    assert capsys.readouterr().err == f"bmkit: {message}\n"
    assert len(calls) <= 2


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


def test_gen_trace_defaults_tau_to_a_quarter_period(tmp_path):
    """tau defaults to a quarter period, floored but at least 1."""
    out = tmp_path / "t.tsv"
    for T, tau in ((8, 2), (2, 1)):
        assert main(["gen-trace", "--T", str(T), "--rounds", "1", "--out", str(out)]) == 0
        assert next(r for r in parse_trace(out) if r.peer == "A").timestamp == tau


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
    # Each exits 2 at once with its one text and no warning; a NaN age must
    # not reach the least-squares solver, which does not return on it.
    cases = {
        "0 0.1\nnan 0.3\n2 0.5\n": "sample ages must lie in [0, n)",
        "0 0.1\n1 5\n2 -3\n": "sample probabilities must lie in [0, 1]",
        "0 0.1\n1 nan\n2 0.5\n": "sample probabilities must lie in [0, 1]",
        "0 0.1\n1 inf\n2 0.5\n": "sample probabilities must lie in [0, 1]",
        "": "need at least 3 delay samples, got 0",
        "# no samples yet\n": "need at least 3 delay samples, got 0",
    }
    for text, message in cases.items():
        samples = tmp_path / "samples.txt"
        samples.write_text(text)
        assert main(["fit-curve", "--samples", str(samples), "--n", "16"]) == 2
        assert capsys.readouterr() == ("", f"bmkit: {message}\n")


def test_fit_curve_on_a_window_too_narrow_for_a_breakpoint_is_invalid_input(tmp_path, capsys):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 0.1\n1 0.5\n1 0.9\n")
    assert main(["fit-curve", "--samples", str(pairs), "--n", "2"]) == 2
    assert "n >= 3" in capsys.readouterr().err


# ----------------------------------------------------------------------
# as a process
# ----------------------------------------------------------------------

def test_bmkit_round_trips_a_trace_as_a_process(tmp_path):
    """``python -m bmkit.cli`` generates a trace, codes it as spbms with
    Huffman and decodes it back byte for byte; a usage error exits 1 with
    its message on stderr and nothing on stdout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    def bmkit(*argv):
        return subprocess.run([sys.executable, "-m", "bmkit.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, timeout=60)

    for argv in (["gen-trace", "--n", "64", "--calibrate-hsbms", "20", "--T", "8",
                  "--rounds", "40", "--seed", "4", "--out", "t.tsv"],
                 ["encode", "--trace", "t.tsv", "--scheme", "spbms", "--coder", "huffman",
                  "--out", "d.bmd"],
                 ["decode", "d.bmd", "--out", "back.tsv"]):
        proc = bmkit(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert (tmp_path / "back.tsv").read_bytes() == (tmp_path / "t.tsv").read_bytes()
    proc = bmkit("gen-trace", "--n", "16", "--calibrate-hsbms", "5", "--T", "17",
                 "--out", "bad.tsv")
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"bmkit: need 0 < T <= n, got T=17, n=16\n"
    assert not (tmp_path / "bad.tsv").exists()


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
