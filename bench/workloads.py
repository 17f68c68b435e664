"""The three benchmark workloads and the checks that verify their outputs.

Every workload is single-process, single-thread and closed-loop: the next
operation starts only after the previous one has finished and been
checked.  ``setup`` does everything before the first measured operation;
``op`` performs one verified operation (or a small batch) and counts it
in a :class:`Tally`; ``metrics`` turns what was measured into the
end-to-end metrics.  All inputs derive from the workload seed.  Every
duration is CPU time of this thread, multiplied by ``scale``, which ``run.py`` sets before each
block of operations to normalise for the machine's current speed (see
``speed.py``).

bmkit is reached only through module attributes (``schemes.pack_message``
and so on), never imported by name, so the tracer's rebinding is seen.  The
one exception is ``account_pack``, which sizes messages outside the timed
work and so must not be traced.
"""

from __future__ import annotations

import itertools
import math
import os
import resource
import time
import traceback
from array import array

import numpy as np

from bmkit import bitmap, cli, entropy, errors, schemes, sim, traceio

# Per-operation times are the thread's CPU time: compute per message is
# what is measured, and on a shared host a descheduled thread would
# otherwise put its neighbours' work into the tail quantiles.
clock = time.thread_time
SCHEMES = ("sbms", "spbms", "ppbms")
CODERS = (None, "rle", "huffman", "ac")
PAIRS = [(s, c) for s in SCHEMES for c in CODERS]
DIRS = ("ab", "ba")
SENDER = {"ab": "A", "ba": "B"}
RECEIVER = {"ab": "B", "ba": "A"}
# exchange: rounds per peer session, and measured rounds its wire bits cover.
SESSION_ROUNDS = 2500
BIT_ROUNDS = 500
# sweep: the simulator's reorder archive depth; long delays exceed it.
ARCHIVE_DEPTH = 8
# cli-trace: the README example's point.
CLI_N, CLI_H_SBMS, CLI_T, CLI_TAU = 64, 20.0, 8, 3

# Accounting outside the timed work packs messages with this binding,
# taken before any tracer wraps pack_message, so it records no spans.
account_pack = schemes.pack_message


class Tally:
    """Operations attempted and failed; a failed operation raised or did
    not pass its check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def record(self, ok: bool, error: str | None = None) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_error is None:
                self.first_error = error or "check failed"
        return ok


def run_checked(tally: Tally, fn, *args) -> bool:
    """Call ``fn`` (which returns True when its output verified) as one
    operation; an exception counts as a failure with its traceback kept."""
    try:
        ok = bool(fn(*args))
    except Exception:  # the benchmark keeps running and reports the failure
        return tally.record(False, traceback.format_exc())
    return tally.record(ok)


def quantile(samples, q: float) -> float:
    return float(np.quantile(np.frombuffer(samples, dtype=np.float64), q))


def scheme_latencies(samples: dict) -> dict:
    """The per-scheme latency metrics from per-scheme samples in seconds."""
    return {
        "sbms.msg_p50_us": (quantile(samples["sbms"], 0.5) * 1e6, "us"),
        "spbms.msg_p50_us": (quantile(samples["spbms"], 0.5) * 1e6, "us"),
        "spbms.msg_p99_us": (quantile(samples["spbms"], 0.99) * 1e6, "us"),
        "ppbms.msg_p50_us": (quantile(samples["ppbms"], 0.5) * 1e6, "us"),
        "ppbms.msg_p99_us": (quantile(samples["ppbms"], 0.99) * 1e6, "us"),
    }


def config_latencies(times: dict) -> dict:
    """The per-scheme latency metrics over configurations: ``times`` maps
    (scheme, *configuration) to per-message times in seconds, and each
    configuration counts once, by its median.  The quantiles then rank
    configurations, not moments when the host was slow."""
    per_config = {s: array("d") for s in SCHEMES}
    for (scheme, *_), samples in times.items():
        per_config[scheme].append(float(np.median(samples)))
    return scheme_latencies(per_config)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ======================================================================
# exchange: one peer pair, every scheme, message by message
# ======================================================================

class Exchange:
    """Two generative peers at the calibrated point, in-order delivery.

    A round is peer B's send at ``i*T`` and peer A's answer at
    ``i*T + tau``; each send runs every scheme.  One message is
    snapshot -> encode -> pack -> unpack -> decode, timed as a whole, then
    checked bit-exactly against the snapshot, with the two ends' support
    sets compared.  Sessions restart (new peers, same seed stream) every
    ``SESSION_ROUNDS`` rounds: a ``PeerBufferState`` keeps one fill delay
    per chunk it has seen, so without restarts ``peak_rss_mb`` would grow
    with the rounds a run completes, that is, with bmkit's speed.  Each
    session's window fill runs unmeasured, as in ``sim``.  Wire bits are
    taken over the first ``BIT_ROUNDS`` measured rounds, so they repeat
    exactly for a seed.
    """

    def __init__(self, seed: int, *, n=456, h_sbms=77.0, T=20, tau=5):
        self.seed = seed
        self.n, self.h_sbms, self.T, self.tau = n, h_sbms, T, tau

    def setup(self):
        self.curve = entropy.calibrate_curve(self.h_sbms, self.n).to_curve(self.n)
        self.warm_rounds = math.ceil(self.n / self.T) + 1
        self.sessions = np.random.SeedSequence(self.seed)
        self.bits = {s: [0, 0] for s in SCHEMES}  # scheme -> [messages, wire bits]
        self.measured_rounds = 0
        self.start_phase()
        self._new_session(Tally())

    def _new_session(self, tally: Tally):
        seq_b, seq_a = self.sessions.spawn(2)
        n = self.n
        self.peers = {
            "B": bitmap.PeerBufferState("B", self.curve, rng=np.random.default_rng(seq_b)),
            "A": bitmap.PeerBufferState("A", self.curve, rng=np.random.default_rng(seq_a)),
        }
        self.spbms = {d: (schemes.SpbmsEncoder(n), schemes.SpbmsDecoder(n)) for d in DIRS}
        self.ppbms = {p: schemes.PpbmsSession(n) for p in ("A", "B")}
        self.round = 0
        for _ in range(self.warm_rounds):
            self._round(tally, measured=False)

    def start_phase(self):
        self.scale = 1.0
        self.lat = {s: array("d") for s in SCHEMES}
        self.round_times = array("d")
        self.msgs = 0
        self.stateful_sent = 0
        self.stateful_decoded = 0

    def _message(self, scheme, d, t):
        """One message; returns (seconds, wire bytes, verified)."""
        sender = SENDER[d]
        t0 = clock()
        snap = self.peers[sender].snapshot(t)
        if scheme == "sbms":
            msg = schemes.sbms_encode(snap)
            wire = schemes.pack_message(msg)
            rx, _ = schemes.unpack_message(wire)
            out = schemes.sbms_decode(rx, self.n)
        elif scheme == "spbms":
            enc, dec = self.spbms[d]
            msg = enc.encode(snap)
            wire = schemes.pack_message(msg)
            rx, _ = schemes.unpack_message(wire)
            out = dec.decode(rx)
        else:
            tx, recv = self.ppbms[sender], self.ppbms[RECEIVER[d]]
            msg = tx.encode(snap)
            wire = schemes.pack_message(msg)
            rx, _ = schemes.unpack_message(wire)
            out = recv.decode(rx)
        dt = (clock() - t0) * self.scale
        ok = rx == msg and self.check(scheme, d, snap, out)
        return dt, len(wire), ok

    def check(self, scheme, d, snap, out) -> bool:
        """Bit-exact decode, and equal support sets at both ends."""
        if scheme == "sbms":
            return out == snap
        if scheme == "spbms":
            enc, dec = self.spbms[d]
            return out == snap and enc.support_set == dec.support_set
        tx, recv = self.ppbms[SENDER[d]], self.ppbms[RECEIVER[d]]
        return (
            np.array_equal(out.locations, tx.last_locations)
            and np.array_equal(out.bits, snap.bits[out.locations - snap.offset])
            and tx.support_set == recv.support_set
        )

    def _round(self, tally: Tally, measured: bool):
        i = self.round
        self.round += 1
        spent = 0.0
        count_bits = measured and self.measured_rounds < BIT_ROUNDS
        for t, d in ((i * self.T, "ba"), (i * self.T + self.tau, "ab")):
            for scheme in SCHEMES:
                stateful = scheme != "sbms"
                self.stateful_sent += stateful
                try:
                    dt, nbytes, ok = self._message(scheme, d, t)
                except Exception:
                    tally.record(False, traceback.format_exc())
                    continue
                self.stateful_decoded += stateful
                self.msgs += tally.record(ok)
                if measured:
                    self.lat[scheme].append(dt)
                    spent += dt
                if count_bits:
                    self.bits[scheme][0] += 1
                    self.bits[scheme][1] += 8 * nbytes
        if measured:
            self.round_times.append(spent)
            self.measured_rounds += 1

    def op(self, tally: Tally):
        if self.round >= self.warm_rounds + SESSION_ROUNDS:
            self._new_session(tally)
        self._round(tally, measured=True)

    def prefix_done(self) -> bool:
        return self.measured_rounds >= BIT_ROUNDS

    def metrics(self, elapsed: float) -> dict:
        bits = self.bits
        total = [sum(v[k] for v in bits.values()) for k in (0, 1)]
        return {
            "msgs_per_s": (self.msgs / elapsed, "1/s"),
            **scheme_latencies(self.lat),
            "spbms.wire_bits_per_msg": (bits["spbms"][1] / bits["spbms"][0], "bits"),
            "ppbms.wire_bits_per_msg": (bits["ppbms"][1] / bits["ppbms"][0], "bits"),
            "run_p50_ms": (quantile(self.round_times, 0.5) * 1e3, "ms"),
            "run_p90_ms": (quantile(self.round_times, 0.9) * 1e3, "ms"),
            "delivered_share": (self.stateful_decoded / self.stateful_sent, "ratio"),
            "dump_bits_per_msg": (total[1] / total[0], "bits"),
        }


# ======================================================================
# sweep: many short fault-injected simulator runs
# ======================================================================

FAULTS = ("swap", "swap", "delay", "long delay", "drop")
# Message indices between two faults, either direction.  A drop or a long
# delay is repaired by a resync: the receiver holds the next archive-depth
# plus one messages, overflows and flags the pair, and the next sender's
# resync lands one slot later.  In ppbms runs no other fault starts until
# that is over.
SPACING = 3
RECOVERY = ARCHIVE_DEPTH + 4
FAULT_ORDERS = sorted(set(itertools.permutations(FAULTS)))


def fault_gap(kind: str) -> int:
    return RECOVERY if kind in ("long delay", "drop") else SPACING


def placed_faults(rng, periods: int) -> list:
    """(kind, key) for each fault on distinct slots at least ``SPACING``
    apart per direction, in any order."""
    slots = [(d, i) for d in DIRS for i in range(2, periods - 2, SPACING)]
    picks = rng.choice(len(slots), size=len(FAULTS), replace=False)
    return [(kind, slots[k]) for kind, k in zip(FAULTS, picks)]


def separated_faults(rng, periods: int) -> list:
    """(kind, key) for each fault in a random order and random directions,
    on message indices 1 to ``periods - 2``, ``SPACING`` apart, with a
    fault that forces a resync ``RECOVERY`` clear of the next."""
    lo, hi = 1, periods - 2
    orders = [o for o in FAULT_ORDERS if sum(map(fault_gap, o[:-1])) <= hi - lo]
    if not orders:
        raise ValueError(f"{periods} periods cannot hold {len(FAULTS)} separated faults")
    order = orders[int(rng.integers(len(orders)))]
    slack = hi - lo - sum(map(fault_gap, order[:-1]))
    shifts = np.sort(rng.integers(0, slack + 1, size=len(order)))
    directions = rng.integers(0, 2, size=len(order))
    faults, at = [], lo
    for kind, shift, d in zip(order, shifts, directions):
        faults.append((kind, (DIRS[int(d)], at + int(shift))))
        at += fault_gap(kind)
    return faults


def fault_script(rng, periods: int, scheme: str) -> sim.ReorderScript:
    """Two swaps, a short and a long delay (beyond the archive) and a drop.
    sbms and spbms runs place them anywhere (:func:`placed_faults`).  ppbms
    runs keep each resync recovery clear of the next fault
    (:func:`separated_faults`), because ``sim`` fails a ppbms run whose
    recoveries overlap (see :func:`crossing_resyncs_reproduce`)."""
    place = separated_faults if scheme == "ppbms" else placed_faults
    swaps, delays, drops = set(), {}, set()
    for kind, key in place(rng, periods):
        if kind == "swap":
            swaps.add(key)
        elif kind == "delay":
            delays[key] = int(rng.integers(1, 4))
        elif kind == "long delay":
            delays[key] = int(rng.integers(ARCHIVE_DEPTH + 1, 2 * ARCHIVE_DEPTH + 3))
        else:
            drops.add(key)
    return sim.ReorderScript(swaps=frozenset(swaps), delays=delays, drops=frozenset(drops))


def crossing_resyncs_reproduce() -> bool:
    """True while ``sim`` still fails a fault run whose recoveries overlap.

    A drop at ab 8 makes the receiver overflow and flag the pair; the resync
    that follows is then delayed by three slots.  ``sim._Engine`` bumps the
    pair's shared epoch when a resync is sent, so the other end's next
    message, still encoded against its pre-resync state, carries the new
    epoch; when that end resyncs too, the two resyncs cross and the run
    raises.  ``fault_script`` keeps ppbms recoveries apart, so the sweep
    never meets this; every run reports it here instead, until it is fixed."""
    curve = entropy.calibrate_curve(20.0, 64).to_curve(64)
    cfg = sim.SimConfig(curve, T=4, tau=2, rounds=20, seed=904342679, schemes=("ppbms",),
                        archive_depth=ARCHIVE_DEPTH)
    script = sim.ReorderScript(delays={("ab", 17): 3}, drops=[("ab", 8)])
    try:
        sim.reorder_fault_run(cfg, script)
    except (errors.InvariantError, errors.DesyncError):
        return True
    return False


class RunLog:
    """Every message one simulator run sends, and every ppbms report it
    decodes, as logged by the stand-ins of :func:`logging_standins`."""

    def __init__(self):
        self.sent = []  # in send order
        self.encoded = {}  # id(ppbms message) -> (message, sender's locations)
        self.reports = []  # (ppbms message, decoded report)

    def add(self, msg, locations=None):
        self.sent.append(msg)
        if locations is not None:
            self.encoded[id(msg)] = (msg, locations)

    def replace_last(self, msg, locations=None):
        """A resync message wraps the one its inner encode just logged."""
        inner = self.sent.pop()
        self.encoded.pop(id(inner), None)
        self.add(msg, locations)

    def reports_match(self) -> bool:
        """Each ppbms report covers exactly the locations its sender
        encoded, so a report missing a fill row fails here."""
        return all(np.array_equal(out.locations, self.encoded[id(msg)][1])
                   for msg, out in self.reports)


def logging_standins(owner) -> dict:
    """Stand-ins for the encoders ``sim`` builds, under the names ``sim``
    looks them up by.  Each runs bmkit's own code and logs into
    ``owner.log``."""

    def sbms_encode(*args, **kwargs):
        msg = schemes.sbms_encode(*args, **kwargs)
        owner.log.add(msg)
        return msg

    class SpbmsEncoder(schemes.SpbmsEncoder):
        def encode(self, bm):
            msg = super().encode(bm)
            owner.log.add(msg)
            return msg

        def make_resync(self, bm):
            msg = super().make_resync(bm)
            owner.log.replace_last(msg)
            return msg

    class PpbmsSession(schemes.PpbmsSession):
        def encode(self, bm):
            msg = super().encode(bm)
            owner.log.add(msg, self.last_locations)
            return msg

        def make_resync(self, bm):
            msg = super().make_resync(bm)
            owner.log.replace_last(msg, self.last_locations)
            return msg

        def decode(self, msg):
            out = super().decode(msg)
            owner.log.reports.append((msg, out))
            return out

    return {"sbms_encode": sbms_encode, "SpbmsEncoder": SpbmsEncoder,
            "PpbmsSession": PpbmsSession}


class Sweep:
    """A researcher's parameter sweep: short ``reorder_fault_run`` calls
    over every n in ``grid``, T in ``periods``, tau in 1..T and scheme.
    Runs form a stream: each epoch visits every combination once, in a
    seed-shuffled order (so a partly finished epoch is a fair sample), and
    every run draws its own simulator seed and faults from (seed, run
    index).  Bits and delivery shares come from the first epoch, so they
    repeat exactly for a seed; times come from every run, and the
    per-scheme latencies are quantiles over configurations of each one's
    median time per message.  During a run,
    ``sim``'s encoders are stand-ins that log every message sent and every
    ppbms report (see :class:`RunLog`), for the wire bits and the
    fill-row check.
    """

    def __init__(self, seed: int, *, grid=((64, 20.0), (456, 77.0)), periods=(4, 8, 20),
                 rounds=20):
        self.seed = seed
        self.grid, self.periods, self.rounds = grid, periods, rounds

    def setup(self):
        self.combos = []
        for n, h in self.grid:
            curve = entropy.calibrate_curve(h, n).to_curve(n)
            for T in self.periods:
                for tau in range(1, T + 1):
                    self.combos += [(curve, T, tau, scheme) for scheme in SCHEMES]
        self.order = (-1, None)  # (epoch, permutation)
        self.next = 0
        # First-epoch totals: scheme -> [messages, wire bits]; stateful
        # messages sent and delivered.
        self.wire = {s: [0, 0] for s in SCHEMES}
        self.first_sent = self.first_delivered = 0
        self.standins = logging_standins(self)
        self.start_phase()

    def start_phase(self):
        self.scale = 1.0
        self.run_times = array("d")
        self.per_msg = {}  # (scheme, n, T, tau) -> run time / messages sent
        self.msgs = 0

    def run_spec(self, k: int):
        """Config and fault script of run ``k`` of the stream."""
        epoch, j = divmod(k, len(self.combos))
        if self.order[0] != epoch:
            perm = np.random.default_rng((self.seed, epoch)).permutation(len(self.combos))
            self.order = (epoch, perm)
        curve, T, tau, scheme = self.combos[self.order[1][j]]
        rng = np.random.default_rng((self.seed, epoch, j))
        cfg = sim.SimConfig(curve, T=T, tau=tau, rounds=self.rounds,
                            seed=int(rng.integers(2**31)), schemes=(scheme,),
                            archive_depth=ARCHIVE_DEPTH, keep_messages=True)
        return cfg, fault_script(rng, cfg.warmup_periods + cfg.rounds, scheme)

    def _run(self, k: int) -> bool:
        """One run.  The engine raises InvariantError if any decoded message
        differs from its snapshot or the support sets diverge when drained;
        the log's check catches a ppbms report that lost a location."""
        cfg, script = self.run_spec(k)
        self.log = RunLog()
        saved = {name: getattr(sim, name) for name in self.standins}
        for name, standin in self.standins.items():
            setattr(sim, name, standin)
        try:
            t0 = clock()
            res = sim.reorder_fault_run(cfg, script)
            dt = (clock() - t0) * self.scale
        finally:
            for name, value in saved.items():
                setattr(sim, name, value)
        scheme = cfg.schemes[0]
        sent = cfg.warmup_periods + cfg.rounds  # per direction
        self.run_times.append(dt)
        self.per_msg.setdefault((scheme, cfg.n, cfg.T, cfg.tau), []).append(dt / (2 * sent))
        first_epoch = k < len(self.combos)
        for d in DIRS:
            delivered = (sent - res.row(scheme, d).drops if scheme == "sbms"
                         else len(res.decoded[(scheme, d)]))
            self.msgs += delivered
            if first_epoch and scheme != "sbms":
                self.first_sent += sent
                self.first_delivered += delivered
        if first_epoch:
            self.wire[scheme][0] += len(self.log.sent)
            self.wire[scheme][1] += sum(8 * len(account_pack(m)) for m in self.log.sent)
        return self.log.reports_match()

    def op(self, tally: Tally):
        k = self.next
        self.next += 1
        run_checked(tally, self._run, k)

    def prefix_done(self) -> bool:
        return self.next >= len(self.combos)

    def metrics(self, elapsed: float) -> dict:
        wire = self.wire
        total = [sum(v[k] for v in wire.values()) for k in (0, 1)]
        return {
            "msgs_per_s": (self.msgs / elapsed, "1/s"),
            **config_latencies(self.per_msg),
            "spbms.wire_bits_per_msg": (wire["spbms"][1] / wire["spbms"][0], "bits"),
            "ppbms.wire_bits_per_msg": (wire["ppbms"][1] / wire["ppbms"][0], "bits"),
            "run_p50_ms": (quantile(self.run_times, 0.5) * 1e3, "ms"),
            "run_p90_ms": (quantile(self.run_times, 0.9) * 1e3, "ms"),
            # A run that raised is neither sent nor delivered here.
            "delivered_share": (self.first_delivered / self.first_sent, "ratio"),
            "dump_bits_per_msg": (total[1] / total[0], "bits"),
        }


# ======================================================================
# cli-trace: the bmkit encode/decode commands over a generated trace
# ======================================================================

def expected_fill_rows(records) -> list:
    """ppbms fill report computed from the trace alone: each message
    reports every position of its window that neither peer has announced
    filled before, with the sender's bit there."""
    announced = set()
    rows = []
    for rec in records:
        o = rec.bm.offset
        for i, bit in enumerate(rec.bm.bits.tolist()):
            c = o + i
            if c in announced:
                continue
            rows.append((rec.timestamp, rec.peer, rec.direction, o, c, int(bit)))
            if bit:
                announced.add(c)
    return rows


def parse_fill_rows(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != "timestamp,peer,direction,offset,location,bit":
        return []
    rows = []
    for line in lines[1:]:
        ts, peer, direction, offset, loc, bit = line.split(",")
        rows.append((int(ts), peer, direction, int(offset), int(loc), int(bit)))
    return rows


class CliTrace:
    """``bmkit encode`` then ``bmkit decode``, in-process, for every
    scheme x coder over one generated trace (the README example's n=64,
    T=8, tau=3 and h_sbms=20, over 50 rounds rather than 200 so that a run
    holds enough passes for stable medians).  A round trip passes when both
    commands exit 0 and the output equals the source: the decoded trace
    file byte for byte (sbms, spbms), or the fill report row for row
    against rows computed from the trace alone (ppbms).  Each scheme's
    latencies are quantiles over its four coder configurations of each
    one's median round-trip time per record.
    """

    def __init__(self, seed: int, workdir: str, *, rounds=50):
        self.seed = seed
        self.workdir = workdir
        self.rounds = rounds

    def setup(self):
        curve = entropy.calibrate_curve(CLI_H_SBMS, CLI_N).to_curve(CLI_N)
        self.records = traceio.generate(curve, CLI_T, rounds=self.rounds, seed=self.seed,
                                        tau=CLI_TAU)
        self.src = os.path.join(self.workdir, "source.trace")
        traceio.write_trace(self.src, self.records)
        with open(self.src, "rb") as fh:
            self.src_bytes = fh.read()
        self.expected_rows = expected_fill_rows(self.records)
        self.dump = os.path.join(self.workdir, "out.dump")
        self.out = os.path.join(self.workdir, "out.decoded")
        self.dump_bits = {}
        self.start_phase()

    def start_phase(self):
        self.scale = 1.0
        self.pass_times = array("d")
        self.pass_spent = 0.0
        self.per_msg = {}  # (scheme, coder) -> round-trip time / records
        self.next = 0
        self.msgs = 0
        self.stateful_sent = 0
        self.stateful_decoded = 0

    def check(self, scheme: str, output: bytes) -> bool:
        if scheme == "ppbms":
            return parse_fill_rows(output.decode("utf-8")) == self.expected_rows
        return output == self.src_bytes

    def _pair(self, scheme, coder) -> bool:
        argv = ["encode", "--trace", self.src, "--scheme", scheme, "--out", self.dump]
        if coder is not None:
            argv += ["--coder", coder]
        t0 = clock()
        rc_enc = cli.main(argv)
        rc_dec = cli.main(["decode", self.dump, "--scheme", scheme, "--out", self.out])
        dt = (clock() - t0) * self.scale
        self.pass_spent += dt
        self.per_msg.setdefault((scheme, coder), []).append(dt / len(self.records))
        if rc_enc or rc_dec:
            raise RuntimeError(f"bmkit exited {rc_enc} (encode) / {rc_dec} (decode)")
        if scheme != "sbms":
            self.stateful_decoded += len(self.records)
        self.dump_bits[(scheme, coder)] = 8 * os.path.getsize(self.dump)
        with open(self.out, "rb") as fh:
            ok = self.check(scheme, fh.read())
        if ok:
            self.msgs += len(self.records)
        return ok

    def op(self, tally: Tally):
        """One scheme x coder round trip; a pass is all of them in turn."""
        scheme, coder = PAIRS[self.next % len(PAIRS)]
        self.next += 1
        if scheme != "sbms":
            self.stateful_sent += len(self.records)
        run_checked(tally, self._pair, scheme, coder)
        if self.next % len(PAIRS) == 0:
            self.pass_times.append(self.pass_spent)
            self.pass_spent = 0.0

    def prefix_done(self) -> bool:
        return len(self.pass_times) > 0

    def _wire_bits(self, scheme: str) -> float:
        """Mean envelope plus payload bits of the trace's messages."""
        n = CLI_N
        peers = list(dict.fromkeys(r.peer for r in self.records))
        total = 0
        if scheme == "spbms":
            encoders = {p: schemes.SpbmsEncoder(n) for p in peers}
            for rec in self.records:
                total += 8 * len(account_pack(encoders[rec.peer].encode(rec.bm)))
        else:
            sessions = {p: schemes.PpbmsSession(n) for p in peers}
            for rec in self.records:
                other = peers[1 - peers.index(rec.peer)]
                msg = sessions[rec.peer].encode(rec.bm)
                sessions[other].decode(msg)
                total += 8 * len(account_pack(msg))
        return total / len(self.records)

    def metrics(self, elapsed: float) -> dict:
        return {
            "msgs_per_s": (self.msgs / elapsed, "1/s"),
            **config_latencies(self.per_msg),
            "spbms.wire_bits_per_msg": (self._wire_bits("spbms"), "bits"),
            "ppbms.wire_bits_per_msg": (self._wire_bits("ppbms"), "bits"),
            "run_p50_ms": (quantile(self.pass_times, 0.5) * 1e3, "ms"),
            "run_p90_ms": (quantile(self.pass_times, 0.9) * 1e3, "ms"),
            # A decode that exits 0 has decoded every message of its dump.
            "delivered_share": (self.stateful_decoded / self.stateful_sent, "ratio"),
            "dump_bits_per_msg": (
                sum(self.dump_bits.values()) / (len(self.records) * len(self.dump_bits)),
                "bits",
            ),
        }


def make(name: str, seed: int, workdir: str):
    if name == "exchange":
        return Exchange(seed)
    if name == "sweep":
        return Sweep(seed)
    return CliTrace(seed, workdir)
