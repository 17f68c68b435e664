"""Two-peer exchange simulator.

Every selected scheme runs over one stream of buffer maps, each sent in
one direction: ``ba`` (peer B to A) or ``ab`` (A to B).  A synthetic run
samples the stream on the standard schedule: peer B sends at ``i*T``, peer
A answers at ``i*T + tau``.  A trace replay takes it from the records of
one or two peers: the first peer to appear plays B, the second A.  An
engine models one pairing: a ppbms engine carries both directions, and
each sbms or spbms direction has its own, so the engines share nothing but
the stream.  Each message is encoded, optionally entropy-coded, delivered
(immediately, delayed, swapped, or dropped per an optional reorder
script), decoded, and checked:

* sbms: the decoded map must equal the sender's snapshot.
* spbms: the decoder's reconstruction must equal the sender's snapshot
  bit-for-bit, and the two support sets must match whenever no message is
  in flight.
* ppbms: every reported (location, bit) pair must match the sender's
  snapshot, and the two shared support sets must match whenever the pair
  is drained.

Each check compares two bit arrays by one rule, ``bitmap._same_bits``
(maps, reported bits, or the filled windows of two support sets, in
``SupportSet ==``): raw bytes first; only a mismatch runs the elementwise
comparison, which decides.

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
``mean_ss_size``; an sbms link has no codec end and keeps no set): the
sender's ``len(support_set)`` right after the send.

The log2 probabilities are laid out in one table of the run's curve and
period, shared by every run over the same curve values and period (an
``lru_cache`` keeps the ``_TABLE_SETS`` pairs used last): fresh 0, fresh 1,
old 0 and old 1 by window position, where a position is old when it lies
below the sender's previous window end.  Sending does not price: each link
keeps its sends unpriced and prices them ``_BLOCK`` at a time, and the rest
when the run ends.  A block is one pass: one gather of every send's (old,
bit, position) entries in location order (an sbms block, whole windows, one
``np.where``) and one finiteness check, warm-up included, then one sum per
measured send over its own entries.  A bit the model cannot produce
therefore raises at the end of its block, not at its send; no correct run
does, since each bit the generator draws has positive probability under
the same curve.
"""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from . import traceio
from .bitmap import _same_bits
from .coders import CODER_NAMES, encode_bits
from .entropy import _check_run, _csv_line
from .errors import InvariantError, MissingReferenceError
from .fillmodel import SCurve, _cond_fill
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
        _check_run(self.curve.n, self.T, self.tau, self.rounds, self.seed)
        schemes, coders = _check_schemes_coders(self.schemes, self.coders)
        object.__setattr__(self, "schemes", schemes)
        object.__setattr__(self, "coders", coders)
        if self.offset_lag < 0:
            raise ValueError("offset_lag must be nonnegative")
        if self.warmup is not None and self.warmup < 0:
            raise ValueError("warmup must be nonnegative")
        if self.archive_depth < 1:
            raise ValueError("archive depth must be at least 1")

    @property
    def n(self) -> int:
        return self.curve.n

    @property
    def warmup_periods(self) -> int:
        if self.warmup is not None:
            return self.warmup
        return math.ceil(self.n / self.T) + 1


def _count(x) -> bool:
    """Whether ``x`` is a nonnegative integer, NumPy's too."""
    return isinstance(x, numbers.Integral) and x >= 0


@dataclass(frozen=True)
class ReorderScript:
    """Delivery faults keyed by (direction, per-direction message index).

    ``drops`` lose the message; ``swaps`` invert messages idx and idx+1 of
    one direction; ``delays`` hold a message for that many delivery slots.
    A dropped index wins over a swap or delay on the same message.  When a
    swap's partner idx+1 is dropped, message idx arrives in its slot.  Swaps
    at idx and idx+1 of one direction, neither dropped, overlap: the script
    is rejected.
    """

    delays: dict = field(default_factory=dict)
    drops: frozenset = field(default_factory=frozenset)
    swaps: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        delays, drops, swaps = dict(self.delays), frozenset(self.drops), frozenset(self.swaps)
        for (d, i), v in delays.items():
            if d not in _DIRS or not _count(i) or not _count(v):
                raise ValueError(f"bad delay entry ({d!r}, {i}) -> {v}")
        for d, i in drops | swaps:
            if d not in _DIRS or not _count(i):
                raise ValueError(f"bad message key ({d!r}, {i})")
        object.__setattr__(self, "delays", {(d, int(i)): int(v) for (d, i), v in delays.items()})
        object.__setattr__(self, "drops", frozenset((d, int(i)) for d, i in drops))
        object.__setattr__(self, "swaps", frozenset((d, int(i)) for d, i in swaps))
        # Swaps at i and i + 1 of one direction, neither dropped, would hold
        # two messages back at once.  Name the overlap a run would meet
        # first: the lowest i + 1, ba's before ab's (B sends first each period).
        live = self.swaps - self.drops
        overlaps = [(i, d != "ba", d) for d, i in live if (d, i + 1) in live]
        if overlaps:
            raise ValueError(f"overlapping swaps on direction {min(overlaps)[2]}")


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
        names = [f.name for f in fields(SchemeDirStats) if f.name != "coder_bytes"]
        lines = [
            f"# n={self.n} T={self.T} tau={self.tau} rounds={self.rounds}"
            f" seed={self.seed} source={self.source}",
            ",".join(names + [f"{c}_bytes" for c in self.coders]),
        ]
        for s in self.stats:
            coded = [str(s.coder_bytes.get(c, 0)) for c in self.coders]
            lines.append(",".join([_csv_line(s, names)] + coded))
        return "\n".join(lines) + "\n"


class _IdealTables:
    """Log2 probabilities of payload bits under the true fill model of one
    curve and period, laid out by window position j (age n - 1 - j).
    Entry ``(2 * old + bit) * n + j`` of the read-only ``flat``, which runs
    share, prices ``bit`` at position j of a location that is fresh
    (``old`` 0) or was reported one period earlier (``old`` 1).

    A fresh location's bit is distributed as p_age; an old one, reported
    one period earlier while unfilled at age - period, as
    q_{age - period, age}.  Old entries no valid payload can reach are NaN:
    ages below one period, and locations certainly filled at that report.
    """

    def __init__(self, curve: SCurve, period: int):
        p = curve.probs
        self.n = n = p.size
        self.period = period
        _, q = _cond_fill(p, period)
        with np.errstate(divide="ignore", invalid="ignore"):
            by_age = np.log2(np.concatenate([1.0 - p, p, 1.0 - q, q])).reshape(4, n)
        self.flat = by_age[:, ::-1].ravel()  # rows: fresh 0, fresh 1, old 0, old 1
        self.flat.flags.writeable = False


_TABLE_SETS = 8  # (curve values, period) pairs whose tables are kept


@lru_cache(maxsize=_TABLE_SETS)
def _ideal_tables(probs: bytes, period: int) -> _IdealTables:
    """The tables of the curve whose values are ``probs`` (its
    ``probs.tobytes()``) at ``period``, built once and shared by every run
    over equal curve values and the same period."""
    return _IdealTables(SCurve(np.frombuffer(probs)), period)


_BLOCK = 256  # sends a link prices in one pass; bounds what a long run holds unpriced


def _ideal_bits(tables: _IdealTables, sends) -> list:
    """Minus log2 probabilities of a block of payloads under the true fill
    model, one per measured send, in send order.

    ``sends`` holds ``(k, win, bits, measured)`` per send: ``bits`` are the
    payload's bits at the True positions of the window mask ``win``, in
    position order, and positions below ``k`` were reported before.  A
    block of sbms sends has every ``win`` None: each payload is a whole
    window, none of it reported before.  Every send is checked, measured
    or not; a bit the model cannot produce raises InvariantError, naming
    the first such send's fault.
    """
    n, flat = tables.n, tables.flat
    ks, wins, payloads, measured = zip(*sends)
    bits = np.concatenate(payloads)
    if wins[0] is None:
        log_p = np.where(bits.reshape(-1, n), flat[n : 2 * n], flat[:n])
        sums = np.add.reduce(log_p, axis=1)
        if not math.isfinite(np.add.reduce(sums)):
            _raise_first(tables, sends, log_p)
        return [float(-s) for s, m in zip(sums, measured) if m]
    sizes = [b.size for b in payloads]
    pos = np.flatnonzero(np.concatenate(wins))  # send i's positions, plus i * n
    pos -= np.repeat(np.arange(0, n * len(sends), n), sizes)
    # Entry (2 * old + bit) * n + pos, built in place in one int array;
    # pos goes before the gather, so a block holds two such arrays at most.
    idx = (pos < np.repeat(np.array(ks), sizes)).astype(np.intp)
    idx <<= 1
    idx += bits
    idx *= n
    idx += pos
    del pos
    log_p = flat[idx]
    ends = list(itertools.accumulate(sizes))
    if not math.isfinite(np.add.reduce(log_p)):
        _raise_first(tables, sends, np.split(log_p, ends[:-1]))
    # One sum per payload over its own slice: np.add.reduceat would group
    # the additions differently and change the last bits.
    return [-float(np.add.reduce(log_p[end - size : end])) if size else 0.0
            for size, end, m in zip(sizes, ends, measured) if m]


def _raise_first(tables: _IdealTables, sends, log_ps):
    """Raise the InvariantError of the first send whose log2 probabilities
    ``log_ps`` hold a non-finite entry."""
    n = tables.n
    for (k, win, _, _), log_p in zip(sends, log_ps):
        if np.isfinite(log_p).all():
            continue
        if np.isnan(log_p).any():
            pos = np.arange(n) if win is None else win.nonzero()[0]
            if np.any(pos[pos < k] >= n - tables.period):
                raise InvariantError(
                    "a previously reported location is younger than one period"
                )
            raise InvariantError(
                "a support-set location was certainly filled at its previous report"
            )
        raise InvariantError("payload contains a zero-probability bit under the true model")


def _mean(x: np.ndarray) -> float:
    """``x.mean()`` without its dispatch, bit for bit (NaN when empty)."""
    return float(np.add.reduce(x) / x.size) if x.size else math.nan


class _Link:
    """One direction of a pairing: the codec ends that send (``enc``) and
    receive (``dec``) on it, None for sbms; what was measured on it; its
    sends not yet priced; and the envelopes it holds back."""

    def __init__(self, direction, enc, dec):
        self.direction = direction
        self.enc = enc
        self.dec = dec
        self.sent = 0  # messages sent, the next one's per-direction index
        self.prev_end = None  # end of the previous sent window; None after a resync
        self.unpriced = []  # (k, window mask or None, payload, measured) per send
        self.held = []
        self.swap_stash = None
        self.ideal = []
        self.ss = []
        self.payloads = []
        self.decoded = []
        self.drops = 0

    def price(self, tables):
        """Append the ideal lengths of the measured unpriced sends: NaN each
        for a run without ``tables``."""
        if self.unpriced:
            if tables is None:
                self.ideal += [math.nan] * sum(m for *_, m in self.unpriced)
            else:
                self.ideal += _ideal_bits(tables, self.unpriced)
            self.unpriced = []

    def stats(self, scheme, resyncs, coders) -> SchemeDirStats:
        pb = np.array([p.size for p in self.payloads], dtype=np.float64)
        mean_pb = _mean(pb)
        return SchemeDirStats(
            scheme,
            self.direction,
            len(self.payloads),
            mean_pb,
            math.sqrt(_mean(np.square(pb - mean_pb))),
            _mean(np.asarray(self.ideal, dtype=np.float64)),
            _mean(np.asarray(self.ss, dtype=np.float64)),
            resyncs,
            self.drops,
            {c: sum(len(encode_bits(c, p)) for p in self.payloads if p.size) for c in coders},
        )


@dataclass(slots=True)
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


@dataclass(slots=True)
class _Recovery:
    """A pairing's loss recovery.  Message loss is the designed recovery
    path, not an error: a receiver that can no longer resolve references
    (archive eviction or an overflowing hold buffer) asks for a resync, the
    pairing's next send is a whole-bitmap resync message, and the epoch
    stamped on each envelope discards traffic from before the last resync
    that landed and holds traffic from after one still in flight."""

    epoch: int = 0  # resyncs sent so far; an sbms pairing never sends one
    landed: int = 0  # epoch of the last resync that landed
    asked: bool = False  # a receiver asked for a resync not yet sent
    dirty: bool = False  # lost a message; true until a resync lands

    def lose(self):
        self.dirty = True

    def ask(self):
        self.asked = self.dirty = True

    def next_send(self) -> tuple[bool, int]:  # (whether it is a resync, the epoch it carries)
        resync, self.asked = self.asked, False
        self.epoch += resync
        return resync, self.epoch

    def land(self, epoch: int, resync: bool) -> str:
        if epoch < self.landed:
            return "discard"
        if resync:
            self.landed = epoch
            self.dirty = False
        elif epoch > self.landed:
            return "held"
        return "ok"

    def settled(self) -> bool:  # whether the drained check may run
        return not (self.asked or self.dirty)


class _Engine:
    """One pairing of one scheme, with its ``_Recovery``, its links
    (direction -> ``_Link``; both directions for ppbms, one for sbms and
    spbms) and the envelopes in flight on them.

    ``send`` takes a map of a direction the pairing carries, ``deliver_due``
    delivers what is due by a slot, and ``flush`` delivers the rest once the
    stream ends.  ``script`` is the pairing's one ``ReorderScript``, read
    by (direction, index) per send; ``ideal`` holds the ``_IdealTables`` of
    the run's curve and period, or None, which makes every ideal length NaN.
    """

    def __init__(self, scheme, dirs, n, archive_depth, keep_messages, script, ideal):
        self.scheme = scheme
        self.n = n
        self.archive_depth = archive_depth
        self.keep_messages = keep_messages
        self.script = script
        self.ideal = ideal
        if scheme == "ppbms":
            # Two peer sessions: A sends ab, B sends ba.
            a, b = (PpbmsSession(n, archive_depth=archive_depth) for _ in range(2))
            ends = {"ab": (a, b), "ba": (b, a)}
        elif scheme == "spbms":
            ends = {d: (SpbmsEncoder(n), SpbmsDecoder(n)) for d in dirs}
        else:
            ends = {d: (None, None) for d in dirs}
        self.links = {d: _Link(d, *ends[d]) for d in dirs}
        self.recovery = _Recovery()
        self.pending = []  # heap of (due, counter, link, envelope)
        self._counter = 0

    # -- delivery ---------------------------------------------------------

    def _assert_consistent(self):
        """Raise when a drained pairing's ends hold different support sets
        (sbms ends hold none)."""
        # A ppbms pairing's two sessions are both ends of its first link.
        link = next(iter(self.links.values()))
        if link.enc is None or not self.recovery.settled() or self.pending or any(
                other.held or other.swap_stash is not None for other in self.links.values()):
            return
        if not link.enc.support_set == link.dec.support_set:
            raise InvariantError(
                f"{self.scheme} {link.direction}: the support sets at the two ends diverged"
            )

    def _deliver(self, link, env: _Envelope) -> str:
        outcome = self.recovery.land(env.epoch, env.msg.resync)
        dec = link.dec
        if outcome == "ok":
            try:
                out = sbms_decode(env.msg, self.n) if dec is None else dec.decode(env.msg)
            except MissingReferenceError as exc:
                outcome = "held" if exc.ahead else "discard"
                if not exc.ahead:  # reference evicted: designed recovery is a pair resync
                    self.recovery.ask()
        if outcome == "held":
            link.held.append(env)
            if len(link.held) > self.archive_depth:
                self.recovery.ask()
                link.held.clear()
        if outcome != "ok":
            return outcome
        if self.scheme == "ppbms":
            truth = env.snap.bits[out.locations - env.snap.offset]
            if not _same_bits(out.bits, truth):
                raise InvariantError(
                    f"ppbms {link.direction} message {env.idx}: reported bits differ from snapshot"
                )
        elif not out == env.snap:
            raise InvariantError(
                f"{self.scheme} {link.direction} message {env.idx}: reconstruction differs"
            )
        if self.keep_messages and dec is not None:
            link.decoded.append(out)
        return "ok"

    def _pump(self):
        # One pass: no held envelope is a resync, and each changes only its own link's receiver.
        for link in self.links.values():
            q = link.held
            if not q:
                continue
            link.held = []
            q.sort(key=lambda e: e.idx)
            for k, env in enumerate(q):
                if self._deliver(link, env) == "held":
                    # Later messages of this direction cannot resolve
                    # before this one does; they stay held, untried.
                    link.held.extend(q[k + 1 :])
                    break

    def deliver_due(self, now: float):
        """Deliver every pending envelope due by ``now`` in (due, counter)
        order; those not yet popped stay pending, so they count as in flight."""
        while self.pending and self.pending[0][0] <= now:
            _, _, link, env = heapq.heappop(self.pending)
            if self._deliver(link, env) == "ok":
                self._pump()
            self._assert_consistent()

    def flush(self):
        """Deliver what is still in flight after the last send, check the
        drained pairing, and price the sends not yet priced."""
        for link in self.links.values():
            if link.swap_stash is not None:  # swap named a final message; deliver it late
                self._enqueue(link, link.swap_stash)
                link.swap_stash = None
        self.deliver_due(math.inf)
        self._assert_consistent()
        for link in self.links.values():
            link.price(self.ideal)

    # -- sending ----------------------------------------------------------

    def send(self, eidx, d, snap, measured):
        link = self.links[d]
        enc = link.enc
        idx = link.sent
        link.sent += 1
        resync, epoch = self.recovery.next_send()
        if enc is None:
            msg = sbms_encode(snap)
        else:
            msg = enc.make_resync(snap) if resync else enc.encode(snap)
        if resync:
            for other in self.links.values():
                other.prev_end = None
        if enc is None:  # sbms: the whole window, none of it reported before
            k, win = 0, None
        else:
            # Window positions below the previous window's end were reported before.
            k = 0 if link.prev_end is None else max(link.prev_end - snap.offset, 0)
            win = enc.last_window
        link.unpriced.append((k, win, msg.payload, measured))
        if len(link.unpriced) >= _BLOCK:
            link.price(self.ideal)
        link.prev_end = snap.end
        if measured:
            link.payloads.append(msg.payload)
            if enc is not None:  # the set it leaves; see the module docstring
                link.ss.append(len(enc.support_set))
        self._route(eidx, link, msg, snap, idx, epoch)

    def _route(self, eidx, link, msg, snap, idx, epoch):
        key = (link.direction, idx)
        if key in self.script.drops:
            link.drops += 1
            self.recovery.lose()
            due = eidx + 1
        else:
            env = _Envelope(eidx + 1 + self.script.delays.get(key, 0), self._counter, epoch,
                            msg, snap, idx)
            self._counter += 1
            if key in self.script.swaps:  # ReorderScript rejects overlapping swaps
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


def _run(sends, n, schemes, coders, archive_depth=8, keep_messages=False, script=None,
         ideal=None, **meta) -> SimResult:
    """Drive one engine per pairing over ``sends``, a stream of
    ``(direction, BufferMap, measured)`` in time order; ``meta`` fills the
    result's T, tau, rounds, seed and source.

    The schemes share nothing but the stream, so each slot first lets every
    engine deliver what is due by it, then hands the send to the engines
    that carry its direction.  Engines and their links are built in row
    order: schemes in order, ab before ba.
    """
    script = script or ReorderScript()
    engines = [
        _Engine(s, dirs, n, archive_depth, keep_messages, script, ideal)
        for s in schemes
        for dirs in ((_DIRS,) if s == "ppbms" else (("ab",), ("ba",)))
    ]
    carriers = {d: [e for e in engines if d in e.links] for d in _DIRS}
    for eidx, (d, snap, measured) in enumerate(sends):
        for engine in engines:
            engine.deliver_due(eidx)
        for engine in carriers[d]:
            engine.send(eidx, d, snap, measured)
    for engine in engines:
        engine.flush()
    stats, payloads, ss_sizes, ideal_bits, decoded = [], {}, {}, {}, {}
    for engine in engines:
        for link in engine.links.values():
            key = (engine.scheme, link.direction)
            stats.append(link.stats(engine.scheme, engine.recovery.epoch, coders))
            payloads[key] = link.payloads
            ss_sizes[key] = np.asarray(link.ss, dtype=np.int64)
            ideal_bits[key] = np.asarray(link.ideal, dtype=np.float64)
            if keep_messages:
                decoded[key] = link.decoded
    return SimResult(
        n=n,
        schemes=schemes,
        coders=coders,
        stats=tuple(stats),
        payloads=payloads,
        ss_sizes=ss_sizes,
        ideal_bits=ideal_bits,
        decoded=decoded,
        **meta,
    )


def run_synthetic(config: SimConfig) -> SimResult:
    """Drive the full protocol over synthetic peers; see the module
    docstring for what is asserted along the way."""
    return reorder_fault_run(config, None)


def reorder_fault_run(config: SimConfig, script: ReorderScript | None) -> SimResult:
    """Like run_synthetic but with scripted delivery faults (None for none);
    resyncs are counted in the result rather than treated as failures.

    The two synthetic peers follow the standard schedule
    (``traceio._schedule``): B sends at i*T, then A at i*T + tau.  That order
    is already sorted in time; with tau == T, A's send comes before B's next,
    the order they were scheduled in."""
    warm = config.warmup_periods
    stream = traceio._schedule(config.curve, config.T, config.tau, warm + config.rounds,
                               config.seed, config.offset_lag)
    sends = ((("ba", "ab")[k % 2], bm, k // 2 >= warm) for k, (_, bm) in enumerate(stream))
    return _run(sends, config.n, config.schemes, config.coders, config.archive_depth,
                config.keep_messages, script,
                _ideal_tables(config.curve.probs.tobytes(), config.T), T=config.T,
                tau=config.tau, rounds=config.rounds, seed=config.seed, source="synthetic")


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
    sends = ((direction[rec.peer], rec.bm, True) for rec in records)
    return _run(sends, records[0].bm.n, schemes, coders, keep_messages=keep_messages, T=0,
                tau=0, rounds=len(records), seed=0, source="trace")
