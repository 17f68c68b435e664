"""Buffer-map trace files.

Plain-text TSV, one record per line::

    timestamp <TAB> peer <TAB> direction <TAB> offset <TAB> hex-bitmap

with a required version header ``#bmtrace v1 n=<bits>`` and '#' comment
lines.  Hex bitmaps pack bits most-significant-bit first, matching the wire
payload packing, so fixtures are byte-reusable across modules.  Timestamps
count chunk-time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitmap import BufferMap, PeerBufferState, check_monotone
from .entropy import _check_run
from .errors import MonotonicityError, TraceError
from .fillmodel import SCurve

__all__ = ["TraceRecord", "parse_trace", "write_trace", "dedupe", "generate"]

_HEADER_PREFIX = "#bmtrace v1 n="
_DIRECTIONS = ("sent", "received")


@dataclass(frozen=True)
class TraceRecord:
    """One logged buffer map: when, whose, which way it traveled, and the
    map itself."""

    timestamp: int
    peer: str
    direction: str
    bm: BufferMap

    def __post_init__(self):
        if self.timestamp < 0:
            raise ValueError("timestamp must be nonnegative")
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}")
        if self.peer.split() != [self.peer]:  # empty, or holds whitespace
            raise ValueError("peer id must be nonempty and contain no whitespace")

    def line(self) -> str:
        return (
            f"{self.timestamp}\t{self.peer}\t{self.direction}"
            f"\t{self.bm.offset}\t{self.bm.to_hex()}"
        )


def _validate(records) -> None:
    """Trace-wide invariants: constant width, nondecreasing timestamps,
    per-peer offset progression and monotone filling."""
    last_t = None
    width = None
    prev = {}  # peer -> its previous map
    for idx, rec in enumerate(records):
        bm = rec.bm
        if width is None:
            width = bm.bits.size
        elif bm.bits.size != width:
            raise TraceError(
                f"record {idx}: bitmap width {bm.bits.size} differs from {width}"
            )
        if last_t is not None and rec.timestamp < last_t:
            raise TraceError(f"record {idx}: timestamp regressed to {rec.timestamp}")
        last_t = rec.timestamp
        before = prev.get(rec.peer)
        prev[rec.peer] = bm
        if before is None:
            continue
        shift = bm.offset - before.offset
        if shift < 0:
            raise TraceError(
                f"record {idx}: peer {rec.peer} offset regressed "
                f"from {before.offset} to {bm.offset}"
            )
        # One comparison of the overlap; check_monotone names the chunk.
        if shift < width and np.count_nonzero(before.bits[shift:] > bm.bits[: width - shift]):
            try:
                check_monotone(before, bm)
            except MonotonicityError as exc:
                raise TraceError(f"record {idx}: peer {rec.peer}: {exc}") from exc


def parse_trace(path) -> list:
    """Read and validate a trace file; an empty file is an empty trace."""
    records = []
    n = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                if line.startswith(_HEADER_PREFIX):
                    try:
                        n = int(line[len(_HEADER_PREFIX) :])
                    except ValueError:
                        raise TraceError("bad width in header", line=lineno) from None
                    if n <= 0:
                        raise TraceError("width must be positive", line=lineno)
                continue
            if n is None:
                raise TraceError(
                    f"records before the '{_HEADER_PREFIX}<bits>' header", line=lineno
                )
            parts = line.split("\t")
            if len(parts) != 5:
                raise TraceError(
                    f"expected 5 tab-separated fields, got {len(parts)}", line=lineno
                )
            try:
                t = int(parts[0])
                offset = int(parts[3])
                bm = BufferMap.from_hex(offset, parts[4], n)
                rec = TraceRecord(t, parts[1], parts[2], bm)
            except (ValueError, TraceError) as exc:
                raise TraceError(str(exc), line=lineno) from None
            records.append(rec)
    _validate(records)
    return records


def write_trace(path, records) -> None:
    """Write records in canonical form (header first, one line each), so
    write(parse(x)) is byte-identical for canonical files."""
    records = list(records)
    _validate(records)
    with open(path, "w", encoding="utf-8") as fh:
        if records:  # an empty trace is an empty file
            fh.write(f"{_HEADER_PREFIX}{records[0].bm.n}\n")
            for rec in records:
                fh.write(rec.line() + "\n")


def dedupe(records) -> list:
    """Drop records identical to the same peer's previous record (same
    offset and bitmap); order is otherwise preserved."""
    out = []
    last = {}
    for rec in records:
        before = last.get(rec.peer)
        if before is not None and before.bm == rec.bm:
            continue
        out.append(rec)
        last[rec.peer] = rec
    return out


def generate(curve: SCurve, T: int, rounds: int, seed: int, tau: int) -> list:
    """Deterministic synthetic two-peer trace on the standard schedule.

    Peer B's map is snapshotted at ``i*T`` (logged as received, i.e. the
    counterpart's announcement) and peer A's at ``i*T + tau`` (logged as
    sent), for ``rounds`` periods.
    """
    _check_run(curve.n, T, tau, rounds, seed)
    logged = (("B", "received"), ("A", "sent"))
    return [TraceRecord(t, *logged[k % 2], bm)
            for k, (t, bm) in enumerate(_schedule(curve, T, tau, rounds, seed))]


def _schedule(curve: SCurve, T: int, tau: int, periods: int, seed: int, offset_lag: int = 0):
    """Yield ``(t, map)`` of peer B at ``i*T``, then of peer A at ``i*T +
    tau``, for each of ``periods`` periods.  ``seed`` spawns the two peers'
    streams, B's first; A's window starts ``offset_lag`` chunks later."""
    seq_b, seq_a = np.random.SeedSequence(seed).spawn(2)
    peer_b = PeerBufferState("B", curve, rng=np.random.default_rng(seq_b))
    peer_a = PeerBufferState("A", curve, base_offset=offset_lag, rng=np.random.default_rng(seq_a))
    # Touch each peer's newest chunk of the run, so that its fill delays are
    # drawn in one batch; split draws read the same stream.
    last = (periods - 1) * T + curve.n - 1
    peer_b.fill_delay(last)
    peer_a.fill_delay(offset_lag + last + tau)
    for i in range(periods):
        yield i * T, peer_b.snapshot(i * T)
        yield i * T + tau, peer_a.snapshot(i * T + tau)
