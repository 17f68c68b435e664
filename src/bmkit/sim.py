"""Two-peer exchange simulator.

One engine drives every selected scheme over one stream of buffer maps,
each sent in one direction: ``ba`` (peer B to A) or ``ab`` (A to B).  A
synthetic run samples the stream on the standard schedule: peer B sends
at ``i*T``, peer A answers at ``i*T + tau``.  A trace replay takes it from
the records of one or two peers: the first peer to appear plays B, the
second A.  Each message is encoded, optionally entropy-coded, delivered
(immediately, delayed, swapped, or dropped per an optional reorder
script), decoded, and checked:

* sbms: the decoded map must equal the sender's snapshot.
* spbms: the decoder's reconstruction must equal the sender's snapshot
  bit-for-bit, and the two support sets must match whenever no message is
  in flight.
* ppbms: every reported (location, bit) pair must match the sender's
  snapshot, and the two shared support sets must match whenever the pair
  is drained.

With ``keep_messages`` a result's ``decoded`` holds, per scheme and
direction, every spbms reconstruction and ppbms report in delivery order;
sbms lists stay empty.

Alongside byte counts the engine measures each message's *ideal code
length*: minus log2 of the payload's probability under the true generative
model.  A support-set location the sender had already reported (it lies
below the sender's previous window end) carries a bit distributed as the
conditional fill probability q_{age-T, age}; a location newly covered since
then carries a fresh p_age bit.  Averaged over messages, these lengths are
exactly the per-message information quantities the entropy module computes,
which is what the formula-validation tests exploit.  A trace carries no
generative model, so its ideal lengths are NaN.

Message loss is the designed recovery path, not an error: a receiver that
can no longer resolve references (archive eviction or an overflowing hold
buffer) flags its pairing, the next sender answers with a whole-bitmap
resync message, and stale traffic from before the resync is discarded via
an engine-level epoch stamp on each delivery.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from . import traceio
from .bitmap import PeerBufferState
from .coders import CODER_NAMES, encode_bits
from .entropy import ExchangeParams
from .errors import InvariantError, MissingReferenceError
from .fillmodel import SCurve
from .schemes import PpbmsSession, SpbmsDecoder, SpbmsEncoder, sbms_decode, sbms_encode

__all__ = [
    "SCHEMES",
    "SimConfig",
    "ReorderScript",
    "SchemeDirStats",
    "SimResult",
    "run_synthetic",
    "run_trace",
    "reorder_fault_run",
]

SCHEMES = ("sbms", "spbms", "ppbms")
_DIRS = ("ab", "ba")
_SENDER = {"ab": "A", "ba": "B"}
_RECEIVER = {"ab": "B", "ba": "A"}


def _check_schemes_coders(schemes, coders) -> tuple:
    schemes, coders = tuple(schemes), tuple(coders)
    if not schemes or any(s not in SCHEMES for s in schemes):
        raise ValueError(f"schemes must be a nonempty subset of {SCHEMES}")
    bad = [c for c in coders if c not in CODER_NAMES]
    if bad:
        raise ValueError(f"unknown coders {bad}; choose from {CODER_NAMES}")
    return schemes, coders


@dataclass(frozen=True)
class SimConfig:
    """Parameters of a synthetic run; ``seed`` fixes all randomness."""

    curve: SCurve
    T: int
    tau: int
    rounds: int
    seed: int = 0
    schemes: tuple = SCHEMES
    coders: tuple = ()
    offset_lag: int = 0
    warmup: int | None = None  # periods before measuring; None = window fill + 1
    archive_depth: int = 8
    keep_messages: bool = False

    def __post_init__(self):
        ExchangeParams(self.T, self.tau, self.curve.n)
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        schemes, coders = _check_schemes_coders(self.schemes, self.coders)
        object.__setattr__(self, "schemes", schemes)
        object.__setattr__(self, "coders", coders)
        if self.offset_lag < 0:
            raise ValueError("offset_lag must be nonnegative")
        if self.warmup is not None and self.warmup < 0:
            raise ValueError("warmup must be nonnegative")

    @property
    def n(self) -> int:
        return self.curve.n

    @property
    def warmup_periods(self) -> int:
        if self.warmup is not None:
            return self.warmup
        return math.ceil(self.n / self.T) + 1


@dataclass(frozen=True)
class ReorderScript:
    """Delivery faults keyed by (direction, per-direction message index).

    ``drops`` lose the message; ``swaps`` invert messages idx and idx+1 of
    one direction; ``delays`` hold a message for that many delivery slots.
    A dropped index wins over a swap or delay on the same message.
    """

    delays: dict = field(default_factory=dict)
    drops: frozenset = field(default_factory=frozenset)
    swaps: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(
            self, "delays", {(d, int(i)): int(v) for (d, i), v in dict(self.delays).items()}
        )
        object.__setattr__(self, "drops", frozenset((d, int(i)) for d, i in self.drops))
        object.__setattr__(self, "swaps", frozenset((d, int(i)) for d, i in self.swaps))
        for (d, i), v in self.delays.items():
            if d not in _DIRS or i < 0 or v < 0:
                raise ValueError(f"bad delay entry ({d!r}, {i}) -> {v}")
        for d, i in self.drops | self.swaps:
            if d not in _DIRS or i < 0:
                raise ValueError(f"bad message key ({d!r}, {i})")


@dataclass(frozen=True)
class SchemeDirStats:
    scheme: str
    direction: str
    messages: int
    mean_payload_bits: float
    std_payload_bits: float
    mean_ideal_bits: float
    mean_ss_size: float
    resyncs: int
    drops: int
    coder_bytes: dict


@dataclass(frozen=True)
class SimResult:
    """Measured sizes and diagnostics of one run; ``to_csv`` is stable
    byte-for-byte for a fixed config and seed."""

    n: int
    T: int
    tau: int
    rounds: int
    seed: int
    source: str
    schemes: tuple
    coders: tuple
    stats: tuple
    payloads: dict
    ss_sizes: dict
    ideal_bits: dict
    decoded: dict

    def row(self, scheme: str, direction: str) -> SchemeDirStats:
        for s in self.stats:
            if s.scheme == scheme and s.direction == direction:
                return s
        raise KeyError(f"no stats for ({scheme}, {direction})")

    def mean_ideal(self, scheme: str) -> float:
        """Mean ideal code length per message, both directions pooled."""
        chunks = [self.ideal_bits[(scheme, d)] for d in _DIRS if (scheme, d) in self.ideal_bits]
        pooled = np.concatenate([c for c in chunks if c.size]) if chunks else np.empty(0)
        if pooled.size == 0:
            raise ValueError(f"no measured messages for {scheme}")
        return float(pooled.mean())

    def concat_payload(self, scheme: str) -> np.ndarray:
        """All measured payload bits of a scheme, direction-major (every
        ab payload in send order, then every ba payload)."""
        parts = []
        for d in _DIRS:
            parts.extend(self.payloads.get((scheme, d), []))
        if not parts:
            return np.empty(0, dtype=bool)
        return np.concatenate(parts)

    def total_resyncs(self, scheme: str) -> int:
        """Resyncs over the scheme's pairings: sbms and spbms have one per
        direction, while ppbms's one shared pairing reports its count on
        both rows."""
        ab, ba = (self.row(scheme, d).resyncs for d in _DIRS)
        return ab if scheme == "ppbms" else ab + ba

    def to_csv(self) -> str:
        """Per-(scheme, direction) statistics as CSV under one ``#`` header
        line.  ``rounds`` in that header is the measured periods per
        direction for a synthetic run, but for a trace replay it is the
        number of deduped records of both peers together."""
        cols = [
            "scheme",
            "direction",
            "messages",
            "mean_payload_bits",
            "std_payload_bits",
            "mean_ideal_bits",
            "mean_ss_size",
            "resyncs",
            "drops",
        ] + [f"{c}_bytes" for c in self.coders]
        lines = [
            f"# n={self.n} T={self.T} tau={self.tau} rounds={self.rounds}"
            f" seed={self.seed} source={self.source}",
            ",".join(cols),
        ]
        for s in self.stats:
            row = [
                s.scheme,
                s.direction,
                str(s.messages),
                f"{s.mean_payload_bits:.6f}",
                f"{s.std_payload_bits:.6f}",
                f"{s.mean_ideal_bits:.6f}",
                f"{s.mean_ss_size:.6f}",
                str(s.resyncs),
                str(s.drops),
            ] + [str(s.coder_bytes.get(c, 0)) for c in self.coders]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


class _Acc:
    def __init__(self, coders):
        self.messages = 0
        self.payload_bits = []
        self.ideal = []
        self.ss = []
        self.payloads = []
        self.decoded = []
        self.coder_bytes = {c: 0 for c in coders}
        self.drops = 0

    def stats(self, scheme, direction, resyncs) -> SchemeDirStats:
        pb = np.asarray(self.payload_bits, dtype=np.float64)
        ideal = np.asarray(self.ideal, dtype=np.float64)
        ss = np.asarray(self.ss, dtype=np.float64)
        return SchemeDirStats(
            scheme,
            direction,
            self.messages,
            float(pb.mean()) if pb.size else float("nan"),
            float(pb.std()) if pb.size else float("nan"),
            float(ideal.mean()) if ideal.size and not np.isnan(ideal).any() else float("nan"),
            float(ss.mean()) if ss.size else float("nan"),
            resyncs,
            self.drops,
            dict(self.coder_bytes),
        )


def _ideal_table(curve: SCurve, period: int) -> np.ndarray:
    """Log2 probability of one payload bit under the true fill model, flat
    over (kind, age): entry ``(2 * old + bit) * n + age``.

    A fresh location's bit is distributed as p_age; an old one, reported
    one period earlier while unfilled at age - period, as
    q_{age - period, age}.  Old entries no valid payload can reach are NaN:
    ages below one period, and locations certainly filled at that report.
    """
    p = curve.probs
    n = p.size
    prev = np.full(n, np.nan)
    prev[period:] = p[: n - period]
    left = 1.0 - prev
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(left > 0.0, (p - prev) / left, np.nan)
        return np.log2(np.concatenate([1.0 - p, p, 1.0 - q, q]))


def _ideal_bits(table: np.ndarray, n: int, period: int, offset: int, locs: np.ndarray,
                bits: np.ndarray, prev_end) -> float:
    """Minus log2 probability of a payload under the true fill model; a
    location below ``prev_end`` (None: none) was reported before."""
    if locs.size == 0:
        return 0.0
    ages = offset + n - 1 - locs
    idx = ages + n * bits
    if prev_end is not None:
        old = locs < prev_end
        idx += 2 * n * old
    log_p = table[idx]
    total = log_p.sum()
    if math.isfinite(total):
        return float(-total)
    if np.isnan(log_p).any():
        if np.any(old & (ages < period)):
            raise InvariantError(
                "a previously reported location is younger than one period"
            )
        raise InvariantError(
            "a support-set location was certainly filled at its previous report"
        )
    raise InvariantError("payload contains a zero-probability bit under the true model")


@dataclass
class _Envelope:
    due: float
    counter: int
    scheme: str
    direction: str
    epoch: int
    msg: object
    snap: object
    idx: int


class _Engine:
    """The one exchange driver, for synthetic runs and trace replays alike.

    ``run`` consumes a stream of ``(direction, BufferMap, measured)`` sends
    in time order.  ``script`` injects delivery faults; ``ideal`` is a
    ``(log2-probability table, period)`` model of ideal code lengths, or
    None, which makes every length NaN.
    """

    def __init__(self, n, schemes, coders, archive_depth=8, keep_messages=False,
                 script=None, ideal=None):
        self.n = n
        self.schemes = schemes
        self.coders = coders
        self.archive_depth = archive_depth
        self.keep_messages = keep_messages
        self.script = script or ReorderScript()
        self.ideal = ideal
        self.spbms_enc = {d: SpbmsEncoder(n) for d in _DIRS}
        self.spbms_dec = {d: SpbmsDecoder(n) for d in _DIRS}
        self.ppbms = {
            p: PpbmsSession(n, archive_depth=archive_depth) for p in ("A", "B")
        }
        self.acc = {(s, d): _Acc(coders) for s in schemes for d in _DIRS}
        self.prev_end = {(s, d): None for s in schemes for d in _DIRS}
        self.pending = []  # heap of (due, counter, envelope)
        self.held = {(s, d): [] for s in schemes for d in _DIRS}
        self.swap_stash = {(s, d): None for s in schemes for d in _DIRS}
        self.send_epoch = {}
        self.recv_epoch = {}
        self.needs_resync = {}
        self.resyncs = {}
        self.dirty = {}  # pairing lost a message; true until a resync lands
        for s in schemes:
            for key in self._pairings(s):
                self.send_epoch[key] = 0
                self.recv_epoch[key] = 0
                self.needs_resync[key] = False
                self.resyncs[key] = 0
                self.dirty[key] = False
        self.send_idx = {d: 0 for d in _DIRS}
        self._counter = 0

    @staticmethod
    def _pairings(scheme):
        if scheme == "ppbms":
            return [("ppbms",)]
        return [(scheme, d) for d in _DIRS]

    @staticmethod
    def _pairing(scheme, direction):
        return ("ppbms",) if scheme == "ppbms" else (scheme, direction)

    # -- delivery ---------------------------------------------------------

    def _outstanding(self, scheme) -> int:
        k = sum(1 for _, _, e in self.pending if e.scheme == scheme)
        k += sum(len(self.held[(scheme, d)]) for d in _DIRS)
        k += sum(1 for d in _DIRS if self.swap_stash[(scheme, d)] is not None)
        return k

    def _assert_consistent(self, scheme):
        if scheme == "sbms" or self._outstanding(scheme):
            return
        if any(
            self.needs_resync[k] or self.dirty[k] for k in self._pairings(scheme)
        ):
            return
        if scheme == "spbms":
            for d in _DIRS:
                if not self.spbms_enc[d].support_set == self.spbms_dec[d].support_set:
                    raise InvariantError(
                        f"spbms {d}: encoder and decoder support sets diverged"
                    )
        else:
            if not self.ppbms["A"].support_set == self.ppbms["B"].support_set:
                raise InvariantError("ppbms: the two peers' support sets diverged")

    def _deliver(self, env: _Envelope) -> str:
        scheme, d = env.scheme, env.direction
        if scheme == "sbms":
            rt = sbms_decode(env.msg, self.n)
            if not rt == env.snap:
                raise InvariantError(f"sbms {d} message {env.idx}: reconstruction differs")
            return "ok"
        key = self._pairing(scheme, d)
        if env.epoch < self.recv_epoch[key]:
            return "discard"
        if env.epoch > self.recv_epoch[key] and not env.msg.resync:
            self._hold(env)
            return "held"
        if env.msg.resync:
            self.recv_epoch[key] = env.epoch
            self.dirty[key] = False
            for dd in _DIRS if scheme == "ppbms" else [d]:
                self.held[(scheme, dd)] = [
                    e for e in self.held[(scheme, dd)] if e.epoch >= env.epoch
                ]
        try:
            if scheme == "spbms":
                out = self.spbms_dec[d].decode(env.msg)
                if not out == env.snap:
                    raise InvariantError(
                        f"spbms {d} message {env.idx}: reconstruction differs"
                    )
            else:
                receiver = _RECEIVER[d]
                out = self.ppbms[receiver].decode(env.msg)
                truth = env.snap.bits[out.locations - env.snap.offset]
                if not np.array_equal(np.asarray(out.bits, dtype=bool), truth):
                    raise InvariantError(
                        f"ppbms {d} message {env.idx}: reported bits differ from snapshot"
                    )
            if self.keep_messages:
                self.acc[(scheme, d)].decoded.append(out)
            return "ok"
        except MissingReferenceError as exc:
            if exc.ahead:
                self._hold(env)
                return "held"
            # Reference evicted: designed recovery is a pair resync.
            self.needs_resync[key] = True
            self.dirty[key] = True
            return "discard"

    def _hold(self, env: _Envelope):
        q = self.held[(env.scheme, env.direction)]
        q.append(env)
        if len(q) > self.archive_depth:
            key = self._pairing(env.scheme, env.direction)
            self.needs_resync[key] = True
            self.dirty[key] = True
            q.clear()

    def _pump(self, scheme):
        progressed = True
        while progressed:
            progressed = False
            for d in _DIRS:
                q = self.held[(scheme, d)]
                if not q:
                    continue
                self.held[(scheme, d)] = []
                q.sort(key=lambda e: e.idx)
                for k, env in enumerate(q):
                    outcome = self._deliver(env)
                    if outcome == "held":
                        # Later messages of this direction cannot resolve
                        # before this one does; they stay held, untried.
                        self.held[(scheme, d)].extend(q[k + 1 :])
                        break
                    if outcome == "ok":
                        progressed = True

    def _deliver_due(self, now: float):
        """Deliver every pending envelope due by ``now`` in (due, counter)
        order; those not yet popped stay pending, so they count as in flight."""
        while self.pending and self.pending[0][0] <= now:
            env = heapq.heappop(self.pending)[2]
            if self._deliver(env) == "ok":
                self._pump(env.scheme)
            self._assert_consistent(env.scheme)

    # -- sending ----------------------------------------------------------

    def _encode(self, scheme, d, snap, resync):
        if scheme == "sbms":
            return sbms_encode(snap), np.arange(snap.offset, snap.end, dtype=np.int64)
        if scheme == "spbms":
            enc = self.spbms_enc[d]
            msg = enc.make_resync(snap) if resync else enc.encode(snap)
            return msg, enc.last_locations
        sess = self.ppbms[_SENDER[d]]
        msg = sess.make_resync(snap) if resync else sess.encode(snap)
        return msg, sess.last_locations

    def send(self, eidx, d, snap, measured):
        idx = self.send_idx[d]
        self.send_idx[d] += 1
        for scheme in self.schemes:
            key = self._pairing(scheme, d)
            resync = scheme != "sbms" and self.needs_resync[key]
            msg, locs = self._encode(scheme, d, snap, resync)
            if resync:
                self.needs_resync[key] = False
                self.send_epoch[key] += 1
                self.resyncs[key] += 1
                self.prev_end[(scheme, d)] = None
                if scheme == "ppbms":
                    self.prev_end[("ppbms", _other_dir(d))] = None
            payload = np.asarray(msg.payload, dtype=bool)
            if self.ideal is None:
                ideal = math.nan
            else:
                table, period = self.ideal
                prev_end = None if scheme == "sbms" else self.prev_end[(scheme, d)]
                ideal = _ideal_bits(table, self.n, period, snap.offset, locs, payload, prev_end)
            self.prev_end[(scheme, d)] = snap.end
            if measured:
                a = self.acc[(scheme, d)]
                a.messages += 1
                a.payload_bits.append(msg.n_bits)
                a.ideal.append(ideal)
                a.payloads.append(payload)
                if scheme == "spbms":
                    a.ss.append(len(self.spbms_enc[d].support_set))
                elif scheme == "ppbms":
                    a.ss.append(len(self.ppbms[_SENDER[d]].support_set))
                for c in self.coders:
                    if msg.n_bits:
                        a.coder_bytes[c] += len(encode_bits(c, msg.payload))
            self._route(eidx, scheme, d, msg, snap, idx)

    def _route(self, eidx, scheme, d, msg, snap, idx):
        script = self.script
        if (d, idx) in script.drops:
            self.acc[(scheme, d)].drops += 1
            if scheme != "sbms":
                self.dirty[self._pairing(scheme, d)] = True
            return
        env = _Envelope(
            due=eidx + 1 + script.delays.get((d, idx), 0),
            counter=self._counter,
            scheme=scheme,
            direction=d,
            epoch=self.send_epoch[self._pairing(scheme, d)],
            msg=msg,
            snap=snap,
            idx=idx,
        )
        self._counter += 1
        stash_key = (scheme, d)
        if (d, idx) in script.swaps:
            if self.swap_stash[stash_key] is not None:
                raise ValueError(f"overlapping swaps on direction {d}")
            self.swap_stash[stash_key] = env
            return
        self._enqueue(env)
        stashed = self.swap_stash[stash_key]
        if stashed is not None and stashed.idx == idx - 1:
            stashed.due = env.due
            stashed.counter = self._counter
            self._counter += 1
            self._enqueue(stashed)  # after env: inverted arrival
            self.swap_stash[stash_key] = None

    def _enqueue(self, env: _Envelope):
        heapq.heappush(self.pending, (env.due, env.counter, env))

    # -- main loop --------------------------------------------------------

    def run(self, sends, **meta) -> SimResult:
        """Drive the codecs over ``sends``; ``meta`` fills the result's T,
        tau, rounds, seed and source."""
        for eidx, (d, snap, measured) in enumerate(sends):
            self._deliver_due(eidx)
            self.send(eidx, d, snap, measured)
        for key, env in self.swap_stash.items():
            if env is not None:  # swap named a final message; deliver it late
                self._enqueue(env)
                self.swap_stash[key] = None
        self._deliver_due(math.inf)
        for scheme in self.schemes:
            self._assert_consistent(scheme)
        stats = []
        payloads = {}
        ss_sizes = {}
        ideal = {}
        decoded = {}
        for scheme in self.schemes:
            for d in _DIRS:
                a = self.acc[(scheme, d)]
                resyncs = self.resyncs[self._pairing(scheme, d)]
                stats.append(a.stats(scheme, d, resyncs))
                payloads[(scheme, d)] = a.payloads
                ss_sizes[(scheme, d)] = np.asarray(a.ss, dtype=np.int64)
                ideal[(scheme, d)] = np.asarray(a.ideal, dtype=np.float64)
                if self.keep_messages:
                    decoded[(scheme, d)] = a.decoded
        return SimResult(
            n=self.n,
            schemes=self.schemes,
            coders=self.coders,
            stats=tuple(stats),
            payloads=payloads,
            ss_sizes=ss_sizes,
            ideal_bits=ideal,
            decoded=decoded,
            **meta,
        )


def _other_dir(d):
    return "ba" if d == "ab" else "ab"


def _simulate(cfg: SimConfig, script: ReorderScript | None) -> SimResult:
    """Run the engine over two synthetic peers: B sends at i*T, then A at
    i*T + tau.  That order is already sorted in time; with tau == T, A's
    send comes before B's next, the order they were scheduled in."""
    seq_b, seq_a = np.random.SeedSequence(cfg.seed).spawn(2)
    peer_b = PeerBufferState("B", cfg.curve, rng=np.random.default_rng(seq_b))
    peer_a = PeerBufferState(
        "A", cfg.curve, base_offset=cfg.offset_lag, rng=np.random.default_rng(seq_a)
    )
    warm = cfg.warmup_periods

    def sends():
        for i in range(warm + cfg.rounds):
            yield "ba", peer_b.snapshot(i * cfg.T), i >= warm
            yield "ab", peer_a.snapshot(i * cfg.T + cfg.tau), i >= warm

    engine = _Engine(cfg.n, cfg.schemes, cfg.coders, cfg.archive_depth, cfg.keep_messages,
                     script, (_ideal_table(cfg.curve, cfg.T), cfg.T))
    return engine.run(sends(), T=cfg.T, tau=cfg.tau, rounds=cfg.rounds, seed=cfg.seed,
                      source="synthetic")


def run_synthetic(config: SimConfig) -> SimResult:
    """Drive the full protocol over synthetic peers; see the module
    docstring for what is asserted along the way."""
    return _simulate(config, None)


def reorder_fault_run(config: SimConfig, script: ReorderScript) -> SimResult:
    """Like run_synthetic but with scripted delivery faults; resyncs are
    counted in the result rather than treated as failures."""
    return _simulate(config, script)


def run_trace(trace, schemes=("spbms",), coders=(), keep_messages: bool = False) -> SimResult:
    """Replay recorded buffer maps through the engine, in record order.

    ``trace`` is a path or a list of TraceRecords from one or two peers.
    Records are deduped first; every record counts toward the statistics
    (a trace has no warm-up, so the bootstrap message is part of the mean).
    The first peer to appear plays B (the ``ba`` sender), the second plays
    A (``ab``); ppbms needs both.  Ideal code lengths need the generative
    model, so they are NaN here.  Under ``keep_messages``, ``decoded`` holds
    the spbms reconstructions and ppbms reports; sbms lists stay empty.
    The result's ``rounds`` (the ``to_csv()`` header) counts the deduped
    records of both peers together, not periods per direction.
    """
    if isinstance(trace, (str, bytes)) or hasattr(trace, "__fspath__"):
        records = traceio.parse_trace(trace)
    else:
        records = list(trace)
        traceio._validate(records)
    records = traceio.dedupe(records)
    schemes, coders = _check_schemes_coders(schemes, coders)
    if not records:
        raise ValueError("empty trace")
    peers = list(dict.fromkeys(rec.peer for rec in records))
    if len(peers) > 2 or ("ppbms" in schemes and len(peers) != 2):
        need = "exactly two peers" if "ppbms" in schemes else "one or two peers"
        raise ValueError(f"trace replay needs {need}, trace has {len(peers)} ({peers})")
    direction = dict(zip(peers, ("ba", "ab")))
    engine = _Engine(records[0].bm.n, schemes, coders, keep_messages=keep_messages)
    sends = ((direction[rec.peer], rec.bm, True) for rec in records)
    return engine.run(sends, T=0, tau=0, rounds=len(records), seed=0, source="trace")
