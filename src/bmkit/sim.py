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

Each measured spbms or ppbms message also records the size of the
support set it leaves at its sender (``ss_sizes``, averaged as
``mean_ss_size``; sbms keeps no set).  A sender never re-reports a
location it has announced filled, so that set is the locations the message
reported 0.  A ppbms set adds the counterpart's members past the sender's
window, which no message of the sender can reach yet.

The log2 probabilities are laid out once per run by window position, one
table per old-prefix length k: the number of window positions below the
sender's previous window end.  Each table is built the first time a
message needs it and then kept, so pricing a message is one gather of its
(bit, position) entries in location order and one sum.

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
from .entropy import ExchangeParams, _cond_fill
from .errors import InvariantError, MissingReferenceError
from .fillmodel import SCurve
from .schemes import (
    PpbmsSession,
    SpbmsDecoder,
    SpbmsEncoder,
    _unfilled_past,
    sbms_decode,
    sbms_encode,
)

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


def _check_schemes_coders(schemes, coders) -> tuple:
    schemes, coders = tuple(schemes), tuple(coders)
    if not schemes or any(s not in SCHEMES for s in schemes):
        raise ValueError(f"schemes must be a nonempty subset of {SCHEMES}")
    bad = [c for c in coders if c not in CODER_NAMES]
    if bad:
        raise ValueError(f"unknown coders {bad}; choose from {CODER_NAMES}")
    if len(set(schemes)) < len(schemes) or len(set(coders)) < len(coders):
        raise ValueError("name each scheme and each coder at most once")
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
    A dropped index wins over a swap or delay on the same message.  When a
    swap's partner idx+1 is dropped, message idx arrives in its slot.
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


class _IdealTables(dict):
    """Log2 probabilities of payload bits under the true fill model for one
    run, laid out by window position: table ``k``, built on first use,
    prices the bit at window position j (age n - 1 - j) at entry
    ``bit * n + j``, as a location reported before when j < k.

    A fresh location's bit is distributed as p_age; an old one, reported
    one period earlier while unfilled at age - period, as
    q_{age - period, age}.  Old entries no valid payload can reach are NaN:
    ages below one period, and locations certainly filled at that report.
    """

    def __init__(self, curve: SCurve, period: int):
        super().__init__()
        p = curve.probs
        self.n = n = p.size
        self.period = period
        _, q = _cond_fill(p, period)
        with np.errstate(divide="ignore", invalid="ignore"):
            by_age = np.log2(np.concatenate([1.0 - p, p, 1.0 - q, q])).reshape(4, n)
        by_pos = by_age[:, ::-1]  # rows: fresh 0, fresh 1, old 0, old 1
        self._fresh, self._old = by_pos[:2], by_pos[2:]

    def __missing__(self, k: int) -> np.ndarray:
        tab = np.concatenate([self._old[:, :k], self._fresh[:, k:]], axis=1).ravel()
        self[k] = tab
        return tab


def _ideal_bits(tables: _IdealTables, k: int, pos, bits: np.ndarray) -> float:
    """Minus log2 probability of a payload under the true fill model.

    ``bits`` are the payload's bits at the ascending window positions
    ``pos`` (None: the whole window); positions below ``k`` were reported
    before.
    """
    if bits.size == 0:
        return 0.0  # not the -0.0 that negating an empty sum gives
    n = tables.n
    tab = tables[k]
    log_p = np.where(bits, tab[n:], tab[:n]) if pos is None else tab[pos + n * bits]
    total = np.add.reduce(log_p)
    if math.isfinite(total):
        return float(-total)
    if np.isnan(log_p).any():
        pos = np.arange(n) if pos is None else pos
        if np.any(pos[pos < k] >= n - tables.period):
            raise InvariantError(
                "a previously reported location is younger than one period"
            )
        raise InvariantError(
            "a support-set location was certainly filled at its previous report"
        )
    raise InvariantError("payload contains a zero-probability bit under the true model")


@dataclass
class _Pairing:
    """Loss-recovery state of one pairing.  Both ppbms links share one;
    each sbms or spbms link has its own.  ``dirs`` names the directions of
    its links, which the engine looks up: a pairing holds no link, so the
    two form no reference cycle."""

    dirs: tuple
    send_epoch: int = 0
    recv_epoch: int = 0
    needs_resync: bool = False
    dirty: bool = False  # lost a message; true until a resync lands
    resyncs: int = 0


class _Link:
    """One scheme in one direction: the codec ends that send (``enc``) and
    receive (``dec``) on it, None for sbms; its pairing; what was measured
    on it; and the envelopes it holds back."""

    def __init__(self, scheme, direction, enc, dec, pairing, coders):
        self.scheme = scheme
        self.direction = direction
        self.enc = enc
        self.dec = dec
        self.pairing = pairing
        self.prev_end = None  # end of the previous sent window; None after a resync
        self.held = []
        self.swap_stash = None
        self.ideal = []
        self.ss = []
        self.payloads = []
        self.decoded = []
        self.coder_bytes = {c: 0 for c in coders}
        self.drops = 0

    def stats(self) -> SchemeDirStats:
        pb = np.array([p.size for p in self.payloads], dtype=np.float64)
        ideal = np.asarray(self.ideal, dtype=np.float64)
        ss = np.asarray(self.ss, dtype=np.float64)
        return SchemeDirStats(
            self.scheme,
            self.direction,
            len(self.payloads),
            float(pb.mean()) if pb.size else float("nan"),
            float(pb.std()) if pb.size else float("nan"),
            float(ideal.mean()) if ideal.size and not np.isnan(ideal).any() else float("nan"),
            float(ss.mean()) if ss.size else float("nan"),
            self.pairing.resyncs,
            self.drops,
            dict(self.coder_bytes),
        )


@dataclass
class _Envelope:
    """A message in flight.  It does not name its link: the link's held
    queue and swap stash own envelopes, and the pending heap pairs each one
    with its link, so no envelope points back at the link that holds it."""

    due: float
    counter: int
    epoch: int
    msg: object
    snap: object
    idx: int


class _Engine:
    """The one exchange driver, for synthetic runs and trace replays alike.

    ``run`` consumes a stream of ``(direction, BufferMap, measured)`` sends
    in time order.  ``script`` injects delivery faults; ``ideal`` holds the
    run's ``_IdealTables`` for ideal code lengths, or None, which makes
    every length NaN.
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
        self.links = {}  # scheme -> direction -> _Link
        for s in schemes:
            if s == "ppbms":
                # One pairing of two peer sessions: A sends ab, B sends ba.
                a, b = (PpbmsSession(n, archive_depth=archive_depth) for _ in range(2))
                shared = _Pairing(_DIRS)
                ends = {"ab": (a, b, shared), "ba": (b, a, shared)}
            elif s == "spbms":
                ends = {d: (SpbmsEncoder(n), SpbmsDecoder(n), _Pairing((d,))) for d in _DIRS}
            else:
                ends = {d: (None, None, _Pairing((d,))) for d in _DIRS}
            self.links[s] = {d: _Link(s, d, *ends[d], coders) for d in _DIRS}
        self.pending = []  # heap of (due, counter, link, envelope)
        self.send_idx = {d: 0 for d in _DIRS}
        self._counter = 0

    # -- delivery ---------------------------------------------------------

    def _outstanding(self, scheme) -> int:
        k = sum(1 for _, _, link, _ in self.pending if link.scheme == scheme)
        for link in self.links[scheme].values():
            k += len(link.held) + (link.swap_stash is not None)
        return k

    def _assert_consistent(self, scheme):
        links = self.links[scheme].values()
        if scheme == "sbms" or self._outstanding(scheme):
            return
        if any(link.pairing.needs_resync or link.pairing.dirty for link in links):
            return
        for link in links:
            # A shared pairing's two ends are compared once, on its first link.
            if link.direction != link.pairing.dirs[0]:
                continue
            # Equal spbms maps leave equal sets; only differing ones need building.
            if scheme == "spbms" and link.enc.last_bm == link.dec.last_bm:
                continue
            if not link.enc.support_set == link.dec.support_set:
                raise InvariantError(
                    f"{scheme} {link.direction}: the support sets at the two ends diverged"
                )

    def _deliver(self, link, env: _Envelope) -> str:
        scheme, d = link.scheme, link.direction
        if scheme == "sbms":
            rt = sbms_decode(env.msg, self.n)
            if not rt == env.snap:
                raise InvariantError(f"sbms {d} message {env.idx}: reconstruction differs")
            return "ok"
        pairing = link.pairing
        if env.epoch < pairing.recv_epoch:
            return "discard"
        if env.epoch > pairing.recv_epoch and not env.msg.resync:
            self._hold(link, env)
            return "held"
        if env.msg.resync:
            pairing.recv_epoch = env.epoch
            pairing.dirty = False
            for dd in pairing.dirs:
                other = self.links[scheme][dd]
                other.held = [e for e in other.held if e.epoch >= env.epoch]
        try:
            out = link.dec.decode(env.msg)
            if scheme == "spbms":
                if not out == env.snap:
                    raise InvariantError(
                        f"spbms {d} message {env.idx}: reconstruction differs"
                    )
            else:
                truth = env.snap.bits[out.locations - env.snap.offset]
                if out.bits.shape != truth.shape or np.count_nonzero(out.bits != truth):
                    raise InvariantError(
                        f"ppbms {d} message {env.idx}: reported bits differ from snapshot"
                    )
            if self.keep_messages:
                link.decoded.append(out)
            return "ok"
        except MissingReferenceError as exc:
            if exc.ahead:
                self._hold(link, env)
                return "held"
            # Reference evicted: designed recovery is a pair resync.
            pairing.needs_resync = True
            pairing.dirty = True
            return "discard"

    def _hold(self, link, env: _Envelope):
        link.held.append(env)
        if len(link.held) > self.archive_depth:
            link.pairing.needs_resync = True
            link.pairing.dirty = True
            link.held.clear()

    def _pump(self, scheme):
        progressed = True
        while progressed:
            progressed = False
            for link in self.links[scheme].values():
                q = link.held
                if not q:
                    continue
                link.held = []
                q.sort(key=lambda e: e.idx)
                for k, env in enumerate(q):
                    outcome = self._deliver(link, env)
                    if outcome == "held":
                        # Later messages of this direction cannot resolve
                        # before this one does; they stay held, untried.
                        link.held.extend(q[k + 1 :])
                        break
                    if outcome == "ok":
                        progressed = True

    def _deliver_due(self, now: float):
        """Deliver every pending envelope due by ``now`` in (due, counter)
        order; those not yet popped stay pending, so they count as in flight."""
        while self.pending and self.pending[0][0] <= now:
            _, _, link, env = heapq.heappop(self.pending)
            if self._deliver(link, env) == "ok":
                self._pump(link.scheme)
            self._assert_consistent(link.scheme)

    # -- sending ----------------------------------------------------------

    def send(self, eidx, d, snap, measured):
        idx = self.send_idx[d]
        self.send_idx[d] += 1
        for links in self.links.values():
            link = links[d]
            pairing = link.pairing
            resync = pairing.needs_resync
            if link.scheme == "sbms":
                msg = sbms_encode(snap)
            else:
                msg = link.enc.make_resync(snap) if resync else link.enc.encode(snap)
            if resync:
                pairing.needs_resync = False
                pairing.send_epoch += 1
                pairing.resyncs += 1
                for dd in pairing.dirs:
                    links[dd].prev_end = None
            if self.ideal is None:
                ideal = math.nan
            elif link.scheme == "sbms":  # the whole window, none of it reported before
                ideal = _ideal_bits(self.ideal, 0, None, msg.payload)
            else:
                # Window positions below the previous window's end were reported before.
                k = 0 if link.prev_end is None else max(link.prev_end - snap.offset, 0)
                pos = link.enc.last_window.nonzero()[0]
                ideal = _ideal_bits(self.ideal, k, pos, msg.payload)
            link.prev_end = snap.end
            if measured:
                link.ideal.append(ideal)
                link.payloads.append(msg.payload)
                if link.enc is not None:  # the set it leaves; see the module docstring
                    ss = msg.n_bits - np.count_nonzero(msg.payload)
                    if link.scheme == "ppbms":
                        ss += _unfilled_past(link.enc, snap.end)
                    link.ss.append(ss)
                for c in self.coders:
                    if msg.n_bits:
                        link.coder_bytes[c] += len(encode_bits(c, msg.payload))
            self._route(eidx, link, msg, snap, idx)

    def _route(self, eidx, link, msg, snap, idx):
        script = self.script
        d = link.direction
        if (d, idx) in script.drops:
            link.drops += 1
            link.pairing.dirty = True
            due = eidx + 1
        else:
            env = _Envelope(
                due=eidx + 1 + script.delays.get((d, idx), 0),
                counter=self._counter,
                epoch=link.pairing.send_epoch,
                msg=msg,
                snap=snap,
                idx=idx,
            )
            self._counter += 1
            if (d, idx) in script.swaps:
                if link.swap_stash is not None:
                    raise ValueError(f"overlapping swaps on direction {d}")
                link.swap_stash = env
                return
            self._enqueue(link, env)
            due = env.due
        stashed = link.swap_stash
        if stashed is not None and stashed.idx == idx - 1:
            # The swap's partner arrived (or was dropped): release the stash
            # after it, in its slot.
            stashed.due = due
            stashed.counter = self._counter
            self._counter += 1
            self._enqueue(link, stashed)
            link.swap_stash = None

    def _enqueue(self, link, env: _Envelope):
        heapq.heappush(self.pending, (env.due, env.counter, link, env))

    # -- main loop --------------------------------------------------------

    def run(self, sends, **meta) -> SimResult:
        """Drive the codecs over ``sends``; ``meta`` fills the result's T,
        tau, rounds, seed and source."""
        for eidx, (d, snap, measured) in enumerate(sends):
            self._deliver_due(eidx)
            self.send(eidx, d, snap, measured)
        links = [link for by_dir in self.links.values() for link in by_dir.values()]
        for link in links:
            if link.swap_stash is not None:  # swap named a final message; deliver it late
                self._enqueue(link, link.swap_stash)
                link.swap_stash = None
        self._deliver_due(math.inf)
        for scheme in self.schemes:
            self._assert_consistent(scheme)
        payloads = {}
        ss_sizes = {}
        ideal = {}
        decoded = {}
        for link in links:
            key = (link.scheme, link.direction)
            payloads[key] = link.payloads
            ss_sizes[key] = np.asarray(link.ss, dtype=np.int64)
            ideal[key] = np.asarray(link.ideal, dtype=np.float64)
            if self.keep_messages:
                decoded[key] = link.decoded
        return SimResult(
            n=self.n,
            schemes=self.schemes,
            coders=self.coders,
            stats=tuple(link.stats() for link in links),
            payloads=payloads,
            ss_sizes=ss_sizes,
            ideal_bits=ideal,
            decoded=decoded,
            **meta,
        )


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
    # Touch each peer's newest chunk of the run, so that its fill delays are
    # drawn in one batch; split draws read the same stream.
    last = warm + cfg.rounds - 1
    peer_b.fill_delay(last * cfg.T + cfg.n - 1)
    peer_a.fill_delay(cfg.offset_lag + last * cfg.T + cfg.tau + cfg.n - 1)

    def sends():
        for i in range(warm + cfg.rounds):
            yield "ba", peer_b.snapshot(i * cfg.T), i >= warm
            yield "ab", peer_a.snapshot(i * cfg.T + cfg.tau), i >= warm

    engine = _Engine(cfg.n, cfg.schemes, cfg.coders, cfg.archive_depth, cfg.keep_messages,
                     script, _IdealTables(cfg.curve, cfg.T))
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
