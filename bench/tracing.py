"""Per-layer spans recorded from outside bmkit.

The tracer wraps each layer's public entry points.  A wrapped name is
rebound in every ``bmkit`` module that holds it, because ``sim``, ``cli``,
``bitmap`` and ``traceio`` import functions by name; methods are replaced
on their class.  Each call records a span (name, start, end, parent) in
flat in-memory arrays, plus a few counts taken at the same boundary
(payload bits, support-set sizes, decode retries and misses, simulator
resyncs and drops).  Nothing is written until :meth:`Tracer.save`.

A layer's self time is its span's duration minus the durations of its
direct child spans.  Every ``*_us`` / ``*_ns_per_bit`` metric below is a
self time, so a layer is not charged for the layers it calls.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

clock = time.perf_counter

# Per-layer metrics in output order: name -> unit.
LAYER_METRICS = {
    "bitmap.snapshot_us": "us",
    "bitmap.diff_new_fills_us": "us",
    "fillmodel.sample_fill_delays_us": "us",
    "schemes.spbms_encode_us": "us",
    "schemes.spbms_decode_us": "us",
    "schemes.ppbms_encode_us": "us",
    "schemes.ppbms_decode_us": "us",
    "schemes.ppbms_apply_sent_us": "us",
    "schemes.pack_us": "us",
    "schemes.unpack_us": "us",
    "schemes.payload_bits_per_msg": "bits",
    "schemes.ss_size_mean": "count",
    "schemes.decode_calls": "count",
    "schemes.decode_retries": "count",
    "schemes.decode_misses": "count",
    "schemes.decode_ok_ratio": "ratio",
    "coders.rle.encode_ns_per_bit": "ns/bit",
    "coders.rle.decode_ns_per_bit": "ns/bit",
    "coders.huffman.encode_ns_per_bit": "ns/bit",
    "coders.huffman.decode_ns_per_bit": "ns/bit",
    "coders.ac.encode_ns_per_bit": "ns/bit",
    "coders.ac.decode_ns_per_bit": "ns/bit",
    "traceio.parse_us_per_record": "us/record",
    "traceio.write_us_per_record": "us/record",
    "cli.encode_self_us_per_msg": "us/msg",
    "cli.decode_self_us_per_msg": "us/msg",
    "sim.self_us_per_msg": "us/msg",
    "sim.resyncs": "1/run",
    "sim.drops": "1/run",
    "entropy.calibrate_curve_ms": "ms",
    "trace.overhead_pct": "%",
}

_ENCODE_SPANS = ("schemes.sbms_encode", "schemes.spbms_encode", "schemes.ppbms_encode")
_DECODE_SPANS = (
    "schemes.sbms_decode",
    "schemes.spbms_decode",
    "schemes.ppbms_decode",
    "schemes.ppbms_apply_sent",
)


def rebind(original, replacement, undo: list) -> None:
    """Point every bmkit module-level name bound to ``original`` at
    ``replacement``, appending what to restore to ``undo``."""
    for modname, mod in list(sys.modules.items()):
        if modname != "bmkit" and not modname.startswith("bmkit."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def replace_method(cls, attr, replacement, undo: list) -> None:
    undo.append((cls, attr, cls.__dict__[attr]))
    setattr(cls, attr, replacement)


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


class Tracer:
    """Span recorder for one process; install, run, uninstall, summarise."""

    def __init__(self):
        self.span_names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.sums = defaultdict(float)
        self._undo = []
        self._scales = []  # (first span index, speed scale) per block

    # -- recording -------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return nid

    def wrap(self, fn, name, after=None, on_error=None):
        """Return ``fn`` recording one span per call.

        ``name`` is a span name, or a function of the call's positional
        arguments giving one.  ``after(args, result)`` and
        ``on_error(exc)`` record counts at the boundary.
        """
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack
        )
        fixed = None if callable(name) else self._nid(name)
        nid_of = self._nid

        def traced(*args, **kwargs):
            i = len(names)
            names.append(fixed if fixed is not None else nid_of(name(args)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                ends[i] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            ends[i] = clock()
            stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    # -- layers ----------------------------------------------------------

    def install(self):
        """Wrap the public entry points of every bmkit layer."""
        from bmkit import bitmap, cli, coders, entropy, fillmodel, schemes, sim, traceio
        from bmkit.errors import MissingReferenceError

        sums = self.sums

        def func(mod, attr, name, after=None, on_error=None):
            original = getattr(mod, attr)
            rebind(original, self.wrap(original, name, after, on_error), self._undo)

        def meth(cls, attr, name, after=None, on_error=None):
            wrapped = self.wrap(cls.__dict__[attr], name, after, on_error)
            replace_method(cls, attr, wrapped, self._undo)

        def encoded(args, msg):
            sums["encodes"] += 1
            sums["payload_bits"] += msg.n_bits
            sums["ss_size"] += len(args[0].support_set)

        def decoded(args, out):
            sums["decode_calls"] += 1
            sums["decode_ok"] += 1

        def decode_failed(exc):
            sums["decode_calls"] += 1
            if isinstance(exc, MissingReferenceError):
                sums["decode_retries" if exc.ahead else "decode_misses"] += 1

        def coded(kind, bits_of):
            def after(args, out):
                sums[f"coders.{args[0]}.{kind}.bits"] += bits_of(args)
            return after

        def parsed(args, records):
            sums["traceio.parse.records"] += len(records)

        def written(args, out):
            sums["traceio.write.records"] += len(args[1])

        def ran(args, res):
            cfg = args[0]
            sums["sim.runs"] += 1
            sums["sim.msgs"] += 2 * (cfg.warmup_periods + cfg.rounds) * len(cfg.schemes)
            for s in res.schemes:
                rows = [res.row(s, d) for d in ("ab", "ba")]
                # One ppbms pairing reports its resync count on both rows.
                sums["sim.resyncs"] += rows[0].resyncs if s == "ppbms" else sum(
                    r.resyncs for r in rows
                )
                sums["sim.drops"] += sum(r.drops for r in rows)

        func(fillmodel, "sample_fill_delays", "fillmodel.sample_fill_delays")
        func(entropy, "calibrate_curve", "entropy.calibrate_curve")
        meth(bitmap.PeerBufferState, "snapshot", "bitmap.snapshot")
        func(bitmap, "diff_new_fills", "bitmap.diff_new_fills")
        func(schemes, "sbms_encode", "schemes.sbms_encode")
        func(schemes, "sbms_decode", "schemes.sbms_decode")
        meth(schemes.SpbmsEncoder, "encode", "schemes.spbms_encode", encoded)
        meth(schemes.SpbmsDecoder, "decode", "schemes.spbms_decode", decoded, decode_failed)
        meth(schemes.PpbmsSession, "encode", "schemes.ppbms_encode", encoded)
        meth(schemes.PpbmsSession, "decode", "schemes.ppbms_decode", decoded, decode_failed)
        meth(schemes.PpbmsSession, "apply_sent", "schemes.ppbms_apply_sent")
        func(schemes, "pack_message", "schemes.pack")
        func(schemes, "unpack_message", "schemes.unpack")
        func(coders, "encode_bits", lambda a: f"coders.{a[0]}.encode",
             coded("encode", lambda a: np.size(a[1])))
        func(coders, "decode_bits", lambda a: f"coders.{a[0]}.decode",
             coded("decode", lambda a: a[2]))
        func(traceio, "parse_trace", "traceio.parse", parsed)
        func(traceio, "write_trace", "traceio.write", written)
        func(sim, "reorder_fault_run", "sim.run", ran)
        func(cli, "main", lambda a: f"cli.{a[0][0]}")

    def uninstall(self):
        restore(self._undo)

    def mark(self, scale: float) -> None:
        """Spans from now on were timed at this speed scale (see speed.py)."""
        self._scales.append((len(self.name), scale))

    # -- summary ---------------------------------------------------------

    def _arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def durations(self):
        """Per-span duration in seconds, normalised by its block's scale."""
        _, _, start, end = self._arrays()
        scale = np.ones(start.size)
        for first, factor in self._scales:
            scale[first:] = factor
        return (end - start) * scale

    def self_times(self):
        """Per-span self time in seconds."""
        _, parent, _, _ = self._arrays()
        dur = self.durations()
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        return dur - child

    def _ids_of(self, names):
        return [self._ids[n] for n in names if n in self._ids]

    def _mask(self, names):
        return np.isin(self._arrays()[0], self._ids_of(names))

    def _under(self, names, ancestors):
        """Count spans named in ``names`` with an ancestor in ``ancestors``."""
        name, parent, _, _ = self._arrays()
        idx = np.flatnonzero(self._mask(names))
        anc_ids = self._ids_of(ancestors)
        found = np.zeros(idx.size, dtype=bool)
        cur = parent[idx]
        while cur.size and (cur >= 0).any():
            live = cur >= 0
            found[live] |= np.isin(name[cur[live]], anc_ids)
            cur = np.where(live, parent[np.maximum(cur, 0)], -1)
        return int(found.sum())

    def layer_metrics(self, overhead_pct: float) -> dict:
        st = self.self_times()
        sums = self.sums

        def self_total(names):
            return float(st[self._mask(names)].sum())

        def per_call(span, scale):
            m = self._mask([span])
            return float(st[m].mean()) * scale if m.any() else 0.0

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        out = {
            "bitmap.snapshot_us": per_call("bitmap.snapshot", 1e6),
            "bitmap.diff_new_fills_us": per_call("bitmap.diff_new_fills", 1e6),
            "fillmodel.sample_fill_delays_us": per_call("fillmodel.sample_fill_delays", 1e6),
            "schemes.spbms_encode_us": per_call("schemes.spbms_encode", 1e6),
            "schemes.spbms_decode_us": per_call("schemes.spbms_decode", 1e6),
            "schemes.ppbms_encode_us": per_call("schemes.ppbms_encode", 1e6),
            "schemes.ppbms_decode_us": per_call("schemes.ppbms_decode", 1e6),
            "schemes.ppbms_apply_sent_us": per_call("schemes.ppbms_apply_sent", 1e6),
            "schemes.pack_us": per_call("schemes.pack", 1e6),
            "schemes.unpack_us": per_call("schemes.unpack", 1e6),
            "schemes.payload_bits_per_msg": ratio(sums["payload_bits"], sums["encodes"]),
            "schemes.ss_size_mean": ratio(sums["ss_size"], sums["encodes"]),
            "schemes.decode_calls": sums["decode_calls"],
            "schemes.decode_retries": sums["decode_retries"],
            "schemes.decode_misses": sums["decode_misses"],
            "schemes.decode_ok_ratio": ratio(sums["decode_ok"], sums["decode_calls"]),
        }
        for coder in ("rle", "huffman", "ac"):
            for kind in ("encode", "decode"):
                span = f"coders.{coder}.{kind}"
                out[f"{span}_ns_per_bit"] = ratio(
                    self_total([span]), sums[f"{span}.bits"], 1e9
                )
        out["traceio.parse_us_per_record"] = ratio(
            self_total(["traceio.parse"]), sums["traceio.parse.records"], 1e6
        )
        out["traceio.write_us_per_record"] = ratio(
            self_total(["traceio.write"]), sums["traceio.write.records"], 1e6
        )
        out["cli.encode_self_us_per_msg"] = ratio(
            self_total(["cli.encode"]), self._under(_ENCODE_SPANS, ["cli.encode"]), 1e6
        )
        out["cli.decode_self_us_per_msg"] = ratio(
            self_total(["cli.decode"]), self._under(_DECODE_SPANS, ["cli.decode"]), 1e6
        )
        out["sim.self_us_per_msg"] = ratio(self_total(["sim.run"]), sums["sim.msgs"], 1e6)
        out["sim.resyncs"] = ratio(sums["sim.resyncs"], sums["sim.runs"])
        out["sim.drops"] = ratio(sums["sim.drops"], sums["sim.runs"])
        cal = self._mask(["entropy.calibrate_curve"])
        out["entropy.calibrate_curve_ms"] = (
            float(self.durations()[cal].mean()) * 1e3 if cal.any() else 0.0
        )
        out["trace.overhead_pct"] = overhead_pct
        return out

    def save(self, path, env: dict) -> None:
        """Write every span (and the environment) as a compressed npz."""
        name, parent, start, end = self._arrays()
        np.savez_compressed(
            path,
            span_names=np.array(self.span_names),
            name=name,
            parent=parent,
            start=start,
            end=end,
            env=np.array(json.dumps(env)),
        )
