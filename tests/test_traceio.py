"""Trace files: parsing, validation, canonical writing, deduping, synthesis."""

import numpy as np
import pytest

from bmkit.bitmap import BufferMap
from bmkit.errors import TraceError
from bmkit.fillmodel import two_segment_curve
from bmkit.traceio import TraceRecord, dedupe, generate, parse_trace, write_trace

CANON = """\
#bmtrace v1 n=8
0\tB\treceived\t0\tb0
1\tA\tsent\t0\t11
4\tB\treceived\t4\t0b
5\tA\tsent\t4\t1f
"""


def _rec(t, peer, direction, offset, hexstr, n=8):
    return TraceRecord(t, peer, direction, BufferMap.from_hex(offset, hexstr, n))


def test_parse_golden_fixture(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text(CANON)
    recs = parse_trace(path)
    assert len(recs) == 4
    assert recs[0].timestamp == 0 and recs[0].peer == "B"
    assert recs[0].direction == "received" and recs[0].bm.offset == 0
    assert recs[0].bm == BufferMap.from_hex(0, "b0", 8)
    assert recs[3].bm.offset == 4


def test_write_parse_write_is_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    p1.write_text(CANON)
    write_trace(p2, parse_trace(p1))
    assert p2.read_bytes() == p1.read_bytes()

    curve = two_segment_curve(24, 3, 0.8)
    recs = generate(curve, T=6, rounds=40, seed=9, tau=max(1, 6 // 4))
    p3, p4 = tmp_path / "c.tsv", tmp_path / "d.tsv"
    write_trace(p3, recs)
    write_trace(p4, parse_trace(p3))
    assert p4.read_bytes() == p3.read_bytes()


def test_comments_and_blank_lines_are_ignored(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text(
        "# a remark\n\n#bmtrace v1 n=8\n# mid-file remark\n"
        "0\tB\treceived\t0\tb0\n\n"
    )
    assert len(parse_trace(path)) == 1


def test_empty_file_is_an_empty_trace(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("")
    assert parse_trace(path) == []
    out = tmp_path / "o.tsv"
    write_trace(out, [])
    assert out.read_bytes() == b""


def _expect_error(tmp_path, text, match, line=None):
    path = tmp_path / "bad.tsv"
    path.write_text(text)
    with pytest.raises(TraceError, match=match) as info:
        parse_trace(path)
    if line is not None:
        assert info.value.line == line


def test_parse_rejects_records_before_header(tmp_path):
    _expect_error(tmp_path, "0\tB\treceived\t0\tb0\n", "header", line=1)


def test_parse_rejects_bad_header(tmp_path):
    _expect_error(tmp_path, "#bmtrace v1 n=eight\n", "bad width", line=1)
    _expect_error(tmp_path, "#bmtrace v1 n=0\n", "positive", line=1)


def test_parse_rejects_wrong_field_count(tmp_path):
    _expect_error(
        tmp_path, "#bmtrace v1 n=8\n0\tB\treceived\tb0\n", "5 tab", line=2
    )


def test_parse_rejects_malformed_fields(tmp_path):
    _expect_error(
        tmp_path, "#bmtrace v1 n=8\nzero\tB\treceived\t0\tb0\n", ".*", line=2
    )
    _expect_error(  # hex shorter than the declared width
        tmp_path, "#bmtrace v1 n=8\n0\tB\treceived\t0\tb\n", ".*", line=2
    )
    _expect_error(  # unknown direction
        tmp_path, "#bmtrace v1 n=8\n0\tB\tsideways\t0\tb0\n", "direction", line=2
    )


LATER = "#bmtrace v1 n=9\n0\tB\treceived\t0\tb000\n1\tA\tsent\t0\t1100\n# note\n\n4\tB\treceived\t4\t0b00\n"


@pytest.mark.parametrize("record, message", [
    ("5\tA\tsent\t4\tbz00", "non-hexadecimal number found in fromhex() arg at position 1"),
    ("5\tA\tsent\t4\tb0", "hex bitmap has 1 bytes, expected 2"),
    ("5\tA\tsent\t4\t1f01", "padding bits past the window width must be zero"),
    ("5\tA\tsent\tfour\t1f00", "invalid literal for int() with base 10: 'four'"),
    ("5\tA\tsideways\t4\t1f00", "direction must be one of ('sent', 'received')"),
])
def test_parse_reports_a_malformed_later_record_at_its_line(tmp_path, record, message):
    """A malformed record after the first raises its own message at its
    own line, ahead of a bad line after it."""
    path = tmp_path / "bad.tsv"
    path.write_text(LATER + record + "\n9\tB\treceived\t8\tzz\n")
    with pytest.raises(TraceError) as info:
        parse_trace(path)
    assert str(info.value) == f"line 7: {message}"
    assert info.value.line == 7


def test_validation_rejects_timestamp_regression(tmp_path):
    text = CANON.replace("5\tA\tsent", "3\tA\tsent")
    _expect_error(tmp_path, text, "timestamp regressed")


def test_validation_rejects_offset_regression(tmp_path):
    recs = [
        _rec(0, "B", "received", 4, "0b"),
        _rec(4, "B", "received", 0, "b0"),
    ]
    with pytest.raises(TraceError, match="offset regressed"):
        write_trace(tmp_path / "x.tsv", recs)


def test_validation_rejects_unfilling(tmp_path):
    recs = [
        _rec(0, "B", "received", 0, "b0"),
        _rec(4, "B", "received", 0, "30"),  # chunk 0 flipped back to 0
    ]
    with pytest.raises(TraceError, match="filled to unfilled"):
        write_trace(tmp_path / "x.tsv", recs)


def test_validation_rejects_width_changes(tmp_path):
    recs = [
        _rec(0, "B", "received", 0, "b0", n=8),
        TraceRecord(4, "B", "received", BufferMap.from_hex(0, "b000", 16)),
    ]
    with pytest.raises(TraceError, match="width"):
        write_trace(tmp_path / "x.tsv", recs)


def test_parse_rejects_a_width_change_between_headers(tmp_path):
    text = "#bmtrace v1 n=8\n0\tB\treceived\t0\tb0\n#bmtrace v1 n=12\n4\tB\treceived\t4\t0b00\n"
    _expect_error(tmp_path, text, "record 1: bitmap width 12 differs from 8")


def test_validation_is_per_peer(tmp_path):
    # Interleaved peers progress independently; neither trips the other.
    recs = [
        _rec(0, "B", "received", 4, "0b"),
        _rec(1, "A", "sent", 0, "b0"),
        _rec(4, "B", "received", 5, "16"),
        _rec(5, "A", "sent", 0, "b1"),
    ]
    write_trace(tmp_path / "ok.tsv", recs)  # must not raise


def test_trace_record_validation():
    bm = BufferMap.from_hex(0, "b0", 8)
    with pytest.raises(ValueError):
        TraceRecord(-1, "B", "received", bm)
    with pytest.raises(ValueError):
        TraceRecord(0, "B", "upward", bm)
    with pytest.raises(ValueError):
        TraceRecord(0, "", "sent", bm)
    with pytest.raises(ValueError):
        TraceRecord(0, "two words", "sent", bm)


def test_dedupe_drops_repeats_keeps_changes():
    base = [
        _rec(0, "B", "received", 0, "b0"),
        _rec(1, "A", "sent", 0, "11"),
        _rec(4, "B", "received", 0, "b0"),  # dup of B's previous
        _rec(5, "A", "sent", 0, "11"),      # dup of A's previous
        _rec(8, "B", "received", 0, "b1"),
        _rec(9, "A", "sent", 0, "11"),      # still unchanged
        _rec(12, "B", "received", 1, "62"),
        _rec(13, "A", "sent", 0, "13"),
        _rec(16, "B", "received", 1, "62"),  # dup again
        _rec(17, "A", "sent", 0, "17"),
    ]
    out = dedupe(base)
    assert [r.timestamp for r in out] == [0, 1, 8, 12, 13, 17]
    assert dedupe(out) == out


def test_dedupe_compares_offset_too():
    # Same bit pattern at a new offset is a different map and survives.
    recs = [
        _rec(0, "B", "received", 0, "ff"),
        _rec(4, "B", "received", 1, "ff"),
    ]
    assert len(dedupe(recs)) == 2


def test_generate_is_deterministic():
    curve = two_segment_curve(16, 2, 0.8)
    a = generate(curve, T=4, rounds=30, seed=5, tau=max(1, 4 // 4))
    b = generate(curve, T=4, rounds=30, seed=5, tau=max(1, 4 // 4))
    assert a == b
    c = generate(curve, T=4, rounds=30, seed=6, tau=max(1, 4 // 4))
    assert a != c


def test_generate_schedule_and_roles():
    curve = two_segment_curve(16, 2, 0.8)
    recs = generate(curve, T=8, rounds=5, seed=1, tau=3)
    assert [r.timestamp for r in recs] == [0, 3, 8, 11, 16, 19, 24, 27, 32, 35]
    assert all(r.peer == "B" and r.direction == "received" for r in recs[0::2])
    assert all(r.peer == "A" and r.direction == "sent" for r in recs[1::2])
    with pytest.raises(ValueError):
        generate(curve, T=0, rounds=5, seed=1, tau=max(1, 0 // 4))
    with pytest.raises(ValueError):
        generate(curve, T=4, rounds=0, seed=1, tau=max(1, 4 // 4))
    with pytest.raises(ValueError):
        generate(curve, T=4, rounds=5, seed=1, tau=5)
    with pytest.raises(ValueError):  # a period past a 4-chunk window
        generate(two_segment_curve(4, 1, 0.8), T=5, rounds=5, seed=1, tau=1)


def test_generate_reproduces_the_fill_law():
    """Bit frequencies per age over many disjoint windows match the curve."""
    n, rounds = 16, 10_000
    curve = two_segment_curve(n, 3, 0.7)
    recs = generate(curve, T=n, rounds=rounds, seed=12, tau=max(1, n // 4))
    freq = np.zeros(n)
    b_maps = [r.bm for r in recs if r.peer == "B"]
    for bm in b_maps:
        freq += bm.bits[::-1]  # position n-1 is age 0 (newest)
    freq /= len(b_maps)
    assert np.abs(freq - curve.probs).max() < 0.02
