"""Trace files against a plain reference parser, validator and writer.

``parse_trace`` builds each map from one unpack of its hex field and checks
each peer's overlap with its previous map in one comparison.  The reference
below reads every field plainly: the hex bitmap bit by bit, the peer name
character by character, and the monotone check chunk by chunk.  On seeded
valid traces both must give the same records and, through ``write_trace``,
the same bytes.  On hostile lines both must raise the same ``TraceError``
text at the same line.
"""

import numpy as np
import pytest

from bmkit.bitmap import BufferMap
from bmkit.errors import TraceError
from bmkit.traceio import TraceRecord, parse_trace, write_trace

HEADER = "#bmtrace v1 n="
DIRECTIONS = ("sent", "received")


def plain_bits(hexmap, n):
    """The first ``n`` bits of a hex bitmap, most significant bit first."""
    data = bytes.fromhex(hexmap)
    if len(data) != (n + 7) // 8:
        raise ValueError(f"hex bitmap has {len(data)} bytes, expected {(n + 7) // 8}")
    bits = [(byte >> (7 - k)) & 1 for byte in data for k in range(8)]
    if any(bits[n:]):
        raise ValueError("padding bits past the window width must be zero")
    return bits[:n]


def plain_hex(bits):
    padded = list(bits) + [0] * (-len(bits) % 8)
    return "".join(
        f"{sum(bit << (7 - k) for k, bit in enumerate(padded[i : i + 8])):02x}"
        for i in range(0, len(padded), 8)
    )


def plain_fields(t, peer, direction, offset):
    if offset < 0:
        raise ValueError("offset must be nonnegative")
    if t < 0:
        raise ValueError("timestamp must be nonnegative")
    if direction not in DIRECTIONS:
        raise ValueError(f"direction must be one of {DIRECTIONS}")
    if not peer or any(c.isspace() for c in peer):
        raise ValueError("peer id must be nonempty and contain no whitespace")


def plain_validate(records):
    """Records are (timestamp, peer, direction, offset, bits) tuples."""
    width = last_t = None
    prev = {}
    for idx, (t, peer, _, offset, bits) in enumerate(records):
        if width is None:
            width = len(bits)
        elif len(bits) != width:
            raise TraceError(f"record {idx}: bitmap width {len(bits)} differs from {width}")
        if last_t is not None and t < last_t:
            raise TraceError(f"record {idx}: timestamp regressed to {t}")
        last_t = t
        if peer in prev:
            before, old = prev[peer]
            if offset < before:
                raise TraceError(
                    f"record {idx}: peer {peer} offset regressed from {before} to {offset}"
                )
            for chunk in range(offset, min(before + len(old), offset + len(bits))):
                if old[chunk - before] and not bits[chunk - offset]:
                    raise TraceError(
                        f"record {idx}: peer {peer}: chunk {chunk} went from filled to unfilled"
                    )
        prev[peer] = (offset, bits)


def plain_parse(text):
    records = []
    n = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if line.startswith(HEADER):
                try:
                    n = int(line[len(HEADER) :])
                except ValueError:
                    raise TraceError("bad width in header", line=lineno) from None
                if n <= 0:
                    raise TraceError("width must be positive", line=lineno)
            continue
        if n is None:
            raise TraceError(f"records before the '{HEADER}<bits>' header", line=lineno)
        fields = line.split("\t")
        if len(fields) != 5:
            raise TraceError(f"expected 5 tab-separated fields, got {len(fields)}", line=lineno)
        t, peer, direction, offset, hexmap = fields
        try:
            t, offset = int(t), int(offset)
            bits = plain_bits(hexmap, n)
            plain_fields(t, peer, direction, offset)
        except ValueError as exc:
            raise TraceError(str(exc), line=lineno) from None
        records.append((t, peer, direction, offset, bits))
    plain_validate(records)
    return records


def plain_write(records):
    plain_validate(records)
    if not records:
        return b""
    lines = [f"{HEADER}{len(records[0][4])}"]
    lines += [f"{t}\t{peer}\t{d}\t{offset}\t{plain_hex(bits)}"
              for t, peer, d, offset, bits in records]
    return ("\n".join(lines) + "\n").encode("utf-8")


def as_tuples(records):
    return [(r.timestamp, r.peer, r.direction, r.bm.offset, r.bm.bits.astype(int).tolist())
            for r in records]


def as_records(tuples):
    return [TraceRecord(t, peer, d, BufferMap(offset, bits)) for t, peer, d, offset, bits in tuples]


def random_trace(rng):
    """A valid trace of one to three peers: nondecreasing timestamps, each
    peer's offset staying, stepping inside its window or jumping past it,
    and every chunk it keeps in view staying filled."""
    n = int(rng.integers(1, 70))
    peers = ["A", "B", "peer-3"][: int(rng.integers(1, 4))]
    last = {}
    t = 0
    records = []
    for _ in range(int(rng.integers(0, 40))):
        peer = peers[int(rng.integers(len(peers)))]
        t += int(rng.integers(0, 4))
        fresh = [int(b) for b in rng.random(n) < rng.random()]
        if peer not in last:
            offset, bits = int(rng.integers(0, 50)), fresh
        else:
            before, old = last[peer]
            offset = before + int(rng.choice([0, rng.integers(1, n + 1), n + rng.integers(0, 9)]))
            kept = old[offset - before :]
            bits = [a | b for a, b in zip(kept + [0] * n, fresh)]
        last[peer] = (offset, bits)
        records.append((t, peer, DIRECTIONS[int(rng.integers(2))], offset, bits))
    return n, records


def render(n, records, rng):
    """Trace text with comments and blank lines strewn between records."""
    lines = [f"# remark {int(rng.integers(100))}", f"{HEADER}{n}"]
    for t, peer, d, offset, bits in records:
        if rng.random() < 0.15:
            lines.append(rng.choice(["", "   ", "# note", "#bmtrace v2 is not a header"]))
        lines.append(f"{t}\t{peer}\t{d}\t{offset}\t{plain_hex(bits)}")
    return "\n".join(lines) + "\n"


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except TraceError as exc:
        return "TraceError", str(exc), exc.line


@pytest.mark.parametrize("seed", range(6))
def test_valid_traces_parse_and_write_as_the_reference_does(tmp_path, seed):
    rng = np.random.default_rng(seed)
    path, out = tmp_path / "t.tsv", tmp_path / "w.tsv"
    for _ in range(25):
        n, records = random_trace(rng)
        text = render(n, records, rng)
        path.write_bytes(text.encode("utf-8"))
        parsed = parse_trace(path)
        assert as_tuples(parsed) == plain_parse(text) == records
        write_trace(out, parsed)
        assert out.read_bytes() == plain_write(records)


def _set_field(line, k, value):
    fields = line.split("\t")
    fields[k] = value
    return "\t".join(fields)


def _hostile(rng, text, records, n):
    """One record line of ``text`` broken in one way; returns the text."""
    lines = text.split("\n")
    rows = [i for i, line in enumerate(lines) if line and not line.startswith("#") and line.strip()]
    k = int(rng.integers(len(rows)))
    i = rows[k]
    t, peer, _, offset, bits = records[k]
    line = lines[i]
    kind = rng.integers(12)
    if kind == 0:  # a bad hex character
        hexmap = line.split("\t")[4]
        j = int(rng.integers(len(hexmap)))
        line = _set_field(line, 4, hexmap[:j] + rng.choice(["g", "z", " -", "x"]) + hexmap[j + 1 :])
    elif kind == 1:  # short hex
        line = _set_field(line, 4, line.split("\t")[4][: -2 * int(rng.integers(1, 3))])
    elif kind == 2:  # a padding bit set, or a byte too many where n fills its bytes
        hexmap = line.split("\t")[4]
        if n % 8:
            last = int(hexmap[-2:], 16) | 1 << int(rng.integers(-n % 8))
            hexmap = hexmap[:-2] + f"{last:02x}"
        else:
            hexmap += "00"
        line = _set_field(line, 4, hexmap)
    elif kind == 3:  # a negative offset
        line = _set_field(line, 3, str(-int(rng.integers(1, 9))))
    elif kind == 4:  # a negative timestamp
        line = _set_field(line, 0, str(-int(rng.integers(1, 9))))
    elif kind == 5:  # an empty peer name
        line = _set_field(line, 1, "")
    elif kind == 6:  # whitespace in the peer name
        space = str(rng.choice([" ", "\u3000", "\u2028", "\x0b", "\x0c", "\x1c", "\x1f", "\x85"]))
        where = int(rng.integers(len(peer) + 1))
        line = _set_field(line, 1, peer[:where] + space + peer[where:])
    elif kind == 7:  # a bad direction
        line = _set_field(line, 2, str(rng.choice(["sideways", "Sent", "sent ", ""])))
    elif kind == 8:  # the width changes
        wider = n + int(rng.integers(1, 9))
        line = f"{HEADER}{wider}\n" + _set_field(line, 4, plain_hex(bits + [0] * (wider - n)))
    elif kind == 9:  # the peer's offset regresses
        line = _set_field(line, 3, str(offset - int(rng.integers(1, 9))))
    elif kind == 10:  # the timestamp regresses
        line = _set_field(line, 0, str(t - int(rng.integers(1, 5))))
    else:  # a chunk the peer had filled unfills
        ones = [j for j, bit in enumerate(bits) if bit]
        if ones:
            cleared = list(bits)
            cleared[ones[int(rng.integers(len(ones)))]] = 0
            line = _set_field(line, 4, plain_hex(cleared))
    lines[i] = line
    return "\n".join(lines)


# One phrase of each error a broken record can raise.
ERRORS = ("non-hexadecimal", "bytes, expected", "padding bits", "offset must be",
          "timestamp must be", "peer id", "direction must", "differs from",
          "offset regressed", "timestamp regressed", "filled to unfilled")


def test_hostile_lines_raise_what_the_reference_raises(tmp_path):
    """Every broken record raises the reference's TraceError text at its
    line (none for a trace-wide check); a break the trace happens to allow
    (say, an unfilled chunk no earlier map had filled) parses to the
    reference's records."""
    rng = np.random.default_rng(21)
    path = tmp_path / "bad.tsv"
    met = set()
    for _ in range(600):
        n, records = random_trace(rng)
        if not records:
            continue
        text = _hostile(rng, render(n, records, rng), records, n)
        path.write_bytes(text.encode("utf-8"))
        got = outcome(lambda: as_tuples(parse_trace(path)))
        assert got == outcome(plain_parse, text), text
        if got[0] == "TraceError":
            met.update(phrase for phrase in ERRORS if phrase in got[1])
    assert met == set(ERRORS)


def test_written_records_are_checked_as_the_reference_checks_them(tmp_path):
    """write_trace validates before it writes: a width change, an offset or
    timestamp regression or an unfilled chunk raises the reference's text."""
    rng = np.random.default_rng(5)
    out = tmp_path / "w.tsv"
    kinds = set()
    for _ in range(300):
        n, records = random_trace(rng)
        if len(records) < 2:
            continue
        k = int(rng.integers(1, len(records)))
        t, peer, d, offset, bits = records[k]
        kind = int(rng.integers(4))
        if kind == 0:
            bits = bits + [0] * int(rng.integers(1, 5))
        elif kind == 1:
            offset -= int(rng.integers(1, 4))
        elif kind == 2:
            t = max(records[k - 1][0] - int(rng.integers(1, 3)), 0)
        else:
            bits = [0] * len(bits)
        broken = records[:k] + [(t, peer, d, max(offset, 0), bits)] + records[k + 1 :]
        got = outcome(write_trace, out, as_records(broken))
        want = outcome(plain_write, broken)
        if want[0] == "ok":
            assert got[0] == "ok" and out.read_bytes() == want[1]
        else:
            assert got == want
            kinds.add(kind)
    assert kinds == {0, 1, 2, 3}
