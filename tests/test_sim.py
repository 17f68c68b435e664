"""Two-peer exchange engine: measured sizes, trace replay, delivery faults."""

import gc
import math

import numpy as np
import pytest

from bmkit.entropy import calibrate_curve, h_ppbms, h_sbms, h_spbms
from bmkit.errors import InvariantError
from bmkit.fillmodel import SCurve, two_segment_curve
from bmkit import sim
from bmkit.bitmap import BufferMap
from bmkit.schemes import PartialBufferMap, PpbmsSession, SpbmsDecoder, SpbmsEncoder
from bmkit.sim import (
    ReorderScript,
    SimConfig,
    _ideal_bits,
    _IdealTables,
    reorder_fault_run,
    run_synthetic,
    run_trace,
)
from bmkit.traceio import TraceRecord, generate


def _cfg(**kw):
    base = dict(
        curve=two_segment_curve(32, 4, 0.8), T=8, tau=2, rounds=60, seed=3
    )
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(T=0)
    with pytest.raises(ValueError):
        _cfg(tau=9)  # tau > T
    with pytest.raises(ValueError):
        _cfg(T=33)  # T > n
    with pytest.raises(ValueError):
        _cfg(rounds=0)
    with pytest.raises(ValueError):
        _cfg(schemes=("spbms", "nope"))
    with pytest.raises(ValueError):
        _cfg(schemes=())
    with pytest.raises(ValueError):
        _cfg(coders=("zip",))
    with pytest.raises(ValueError, match="at most once"):
        _cfg(schemes=("spbms", "spbms"))
    with pytest.raises(ValueError, match="at most once"):
        _cfg(coders=("rle", "rle"))
    with pytest.raises(ValueError):
        _cfg(offset_lag=-1)


def test_instant_fill_leaves_only_window_appends():
    """With every chunk buffered on arrival, spbms reports exactly the T
    fresh positions each period and ppbms splits them tau / T - tau."""
    curve = SCurve(np.ones(16))
    res = run_synthetic(SimConfig(curve, T=8, tau=3, rounds=40, seed=1))
    for d in ("ab", "ba"):
        assert res.row("sbms", d).mean_payload_bits == 16.0
        assert res.row("spbms", d).mean_payload_bits == 8.0
        assert res.row("spbms", d).mean_ss_size == 0.0
    assert res.row("ppbms", "ab").mean_payload_bits == 3.0
    assert res.row("ppbms", "ba").mean_payload_bits == 5.0
    for scheme in ("sbms", "spbms", "ppbms"):
        assert res.mean_ideal(scheme) == 0.0
        assert res.total_resyncs(scheme) == 0


def test_never_fill_keeps_the_whole_window_unknown():
    """With nothing ever buffered, every scheme ships n bits per message
    and none of them carry any information."""
    curve = SCurve(np.zeros(16))
    res = run_synthetic(SimConfig(curve, T=4, tau=1, rounds=40, seed=1))
    for scheme in ("sbms", "spbms", "ppbms"):
        for d in ("ab", "ba"):
            row = res.row(scheme, d)
            assert row.mean_payload_bits == 16.0
            assert row.std_payload_bits == 0.0
        assert res.mean_ideal(scheme) == 0.0


def test_measured_sizes_track_the_analytic_entropies(calibrated_curve):
    """Mean ideal code length per message converges to the formulas."""
    res = run_synthetic(
        SimConfig(calibrated_curve, T=20, tau=5, rounds=1200, seed=7)
    )
    assert res.mean_ideal("sbms") == pytest.approx(h_sbms(calibrated_curve), rel=0.02)
    assert res.mean_ideal("spbms") == pytest.approx(
        h_spbms(calibrated_curve, 20), rel=0.02
    )
    assert res.mean_ideal("ppbms") == pytest.approx(
        h_ppbms(calibrated_curve, 20, 5), rel=0.02
    )
    # Direction split: ab sees a tau-stale counterpart, ba a (T-tau)-stale one.
    from bmkit.entropy import h_ab, h_ba

    assert res.ideal_bits[("ppbms", "ab")].mean() == pytest.approx(
        h_ab(calibrated_curve, 20, 5), rel=0.03
    )
    assert res.ideal_bits[("ppbms", "ba")].mean() == pytest.approx(
        h_ba(calibrated_curve, 20, 5), rel=0.03
    )


def test_rounds_counts_measured_messages():
    """``rounds`` is the measured message count per direction; warm-up
    periods run before it and stay out of the statistics."""
    res = run_synthetic(_cfg(warmup=0, rounds=25))
    res2 = run_synthetic(_cfg(rounds=25))
    for scheme in ("sbms", "spbms", "ppbms"):
        for d in ("ab", "ba"):
            assert res.row(scheme, d).messages == 25
            assert res2.row(scheme, d).messages == 25
    # Without warm-up the whole-window bootstrap message is averaged in.
    assert (
        res.row("spbms", "ab").mean_payload_bits
        > res2.row("spbms", "ab").mean_payload_bits
    )


def test_csv_output_is_deterministic():
    a = run_synthetic(_cfg()).to_csv()
    b = run_synthetic(_cfg()).to_csv()
    assert a == b
    assert a.splitlines()[0].startswith("# n=32 T=8 tau=2 rounds=60 seed=3")
    header = a.splitlines()[1].split(",")
    assert header[:3] == ["scheme", "direction", "messages"]
    c = run_synthetic(_cfg(seed=4)).to_csv()
    assert c != a


def test_coder_byte_totals_are_reported():
    res = run_synthetic(_cfg(coders=("rle", "ac")))
    row = res.row("spbms", "ab")
    assert set(row.coder_bytes) == {"rle", "ac"}
    assert row.coder_bytes["rle"] > 0 and row.coder_bytes["ac"] > 0
    assert "rle_bytes" in res.to_csv().splitlines()[1]


def test_keep_messages_retains_decoded_traffic():
    res = run_synthetic(_cfg(keep_messages=True, warmup=0, rounds=10))
    assert len(res.decoded[("spbms", "ab")]) == 10
    assert len(res.payloads[("ppbms", "ba")]) == 10
    lean = run_synthetic(_cfg(warmup=0, rounds=10))
    assert lean.decoded == {}


def test_offset_lag_desynchronizes_the_windows():
    res = run_synthetic(_cfg(offset_lag=5))
    assert res.row("spbms", "ab").messages > 0
    assert res.total_resyncs("spbms") == 0


# ----------------------------------------------------------------------
# Trace replay
# ----------------------------------------------------------------------

def test_trace_replay_matches_synthetic_statistics(calibrated_curve):
    """Replaying a generated trace reproduces the synthetic payload means:
    the engine and the replay path drive the codecs identically."""
    T, tau, rounds = 20, 5, 600
    recs = generate(calibrated_curve, T=T, rounds=rounds, seed=11, tau=tau)
    rep = run_trace(recs, schemes=("spbms", "ppbms"))
    syn = run_synthetic(
        SimConfig(calibrated_curve, T=T, tau=tau, rounds=rounds, seed=11, warmup=0)
    )
    for scheme in ("spbms", "ppbms"):
        for d in ("ab", "ba"):
            assert rep.row(scheme, d).mean_payload_bits == pytest.approx(
                syn.row(scheme, d).mean_payload_bits, rel=0.05
            )
    assert rep.source == "trace" and rep.T == 0
    assert math.isnan(rep.row("spbms", "ab").mean_ideal_bits)


def test_trace_replay_from_file(tmp_path, calibrated_curve):
    from bmkit.traceio import write_trace

    recs = generate(calibrated_curve, T=20, rounds=30, seed=2)
    path = tmp_path / "t.tsv"
    write_trace(path, recs)
    rep = run_trace(path)
    assert rep.row("spbms", "ba").messages == 30


def test_trace_replay_single_record_is_all_bootstrap(calibrated_curve):
    recs = generate(calibrated_curve, T=20, rounds=1, seed=2)[:1]
    rep = run_trace(recs, schemes=("spbms",))
    assert rep.row("spbms", "ba").messages == 1
    assert rep.row("spbms", "ba").mean_payload_bits == 456.0


def test_trace_replay_validation(calibrated_curve):
    recs = generate(calibrated_curve, T=20, rounds=5, seed=2)
    solo = [r for r in recs if r.peer == "B"]
    with pytest.raises(ValueError, match="two peers"):
        run_trace(solo, schemes=("ppbms",))
    run_trace(solo, schemes=("spbms",))  # fine: spbms streams are per-peer
    with pytest.raises(ValueError, match="schemes"):
        run_trace(recs, schemes=("bogus",))
    with pytest.raises(ValueError, match="coders"):
        run_trace(recs, coders=("bogus",))
    with pytest.raises(ValueError, match="empty"):
        run_trace([])


# ----------------------------------------------------------------------
# Delivery faults
# ----------------------------------------------------------------------

def test_reorder_script_validation():
    ReorderScript(delays={("ab", 3): 2}, drops=[("ba", 1)], swaps=[("ab", 5)])
    with pytest.raises(ValueError):
        ReorderScript(delays={("up", 3): 2})
    with pytest.raises(ValueError):
        ReorderScript(delays={("ab", -1): 2})
    with pytest.raises(ValueError):
        ReorderScript(delays={("ab", 1): -2})
    with pytest.raises(ValueError):
        ReorderScript(drops=[("ab", -4)])


def test_empty_script_changes_nothing():
    cfg = _cfg()
    assert reorder_fault_run(cfg, ReorderScript()).to_csv() == run_synthetic(cfg).to_csv()


def test_adjacent_swaps_are_absorbed_by_the_archive():
    cfg = _cfg(rounds=50)
    script = ReorderScript(swaps=[("ab", 10), ("ba", 20), ("ab", 30)])
    res = reorder_fault_run(cfg, script)
    for scheme in ("sbms", "spbms", "ppbms"):
        assert res.total_resyncs(scheme) == 0


def test_short_delays_are_absorbed_by_the_archive():
    cfg = _cfg(rounds=50)
    script = ReorderScript(delays={("ab", 12): 2, ("ba", 25): 3})
    res = reorder_fault_run(cfg, script)
    for scheme in ("spbms", "ppbms"):
        assert res.total_resyncs(scheme) == 0


def test_a_dropped_message_forces_exactly_one_resync():
    cfg = _cfg(rounds=60)
    res = reorder_fault_run(cfg, ReorderScript(drops=[("ab", 15)]))
    assert res.total_resyncs("spbms") == 1
    assert res.total_resyncs("ppbms") == 1
    assert res.total_resyncs("sbms") == 0  # stateless: loss needs no repair
    # The run keeps producing sound statistics afterwards.
    assert res.row("spbms", "ab").messages > 30
    assert res.row("spbms", "ab").drops == 1


def test_a_swap_whose_partner_is_dropped_arrives_in_its_slot():
    """Swapping ab 10 with the dropped ab 11 delivers ab 10 where ab 11
    would have arrived, so the run matches one with the drop alone, and a
    later swap on the same direction is not taken as overlapping."""
    cfg = _cfg(rounds=40, warmup=0, keep_messages=True)
    reorder_fault_run(cfg, ReorderScript(swaps=[("ab", 10), ("ab", 20)], drops=[("ab", 11)]))
    swapped = reorder_fault_run(cfg, ReorderScript(swaps=[("ab", 10)], drops=[("ab", 11)]))
    dropped = reorder_fault_run(cfg, ReorderScript(drops=[("ab", 11)]))
    for scheme in ("sbms", "spbms", "ppbms"):
        for d in ("ab", "ba"):
            assert swapped.decoded[(scheme, d)] == dropped.decoded[(scheme, d)]
            assert swapped.row(scheme, d).resyncs == dropped.row(scheme, d).resyncs
    assert len(swapped.decoded[("spbms", "ab")]) == 30


def test_ideal_bits_match_the_per_location_model():
    curve = two_segment_curve(32, 4, 0.8)
    n, T, offset = 32, 8, 100
    p = curve.probs
    tables = _IdealTables(curve, T)
    rng = np.random.default_rng(0)
    for _ in range(50):
        locs = np.sort(rng.choice(np.arange(offset, offset + n), size=rng.integers(1, n),
                                  replace=False))
        prev_end = [None, offset + n - T][rng.integers(2)]
        expect = 0.0
        bits = np.zeros(locs.size, dtype=bool)
        for k, loc in enumerate(locs):
            age = offset + n - 1 - loc
            q = p[age]
            if prev_end is not None and loc < prev_end:
                q = (p[age] - p[age - T]) / (1.0 - p[age - T])
            bits[k] = q == 1.0 or (q > 0.0 and rng.random() < 0.5)
            expect -= math.log2(q if bits[k] else 1.0 - q)
        k = 0 if prev_end is None else prev_end - offset
        got = _ideal_bits(tables, k, locs - offset, bits)
        assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)
    assert _ideal_bits(tables, 0, np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)) == 0.0
    whole = rng.random(n) < p[::-1]  # a whole window, newest position last
    whole[-1] = False  # p_0 = 0
    assert _ideal_bits(tables, 0, None, whole) == _ideal_bits(tables, 0, np.arange(n), whole)
    assert set(tables) == {0, n - T}  # one table per old-prefix length, kept


def test_ideal_bits_reject_payloads_the_model_cannot_produce():
    n, T = 32, 8
    newest = np.array([n - 1])
    oldest = np.array([0])
    tables = _IdealTables(two_segment_curve(n, 4, 0.8), T)  # p_0 = 0
    with pytest.raises(InvariantError, match="zero-probability"):
        _ideal_bits(tables, 0, newest, np.array([True]))
    with pytest.raises(InvariantError, match="zero-probability"):
        _ideal_bits(tables, 0, None, np.ones(n, dtype=bool))
    # An old location younger than one period cannot have been reported.
    with pytest.raises(InvariantError, match="younger than one period"):
        _ideal_bits(tables, n, newest, np.array([False]))
    certain = SCurve(np.r_[np.linspace(0.0, 1.0, 16), np.ones(16)])
    tables = _IdealTables(certain, T)
    with pytest.raises(InvariantError, match="certainly filled"):
        _ideal_bits(tables, 1, oldest, np.array([True]))


def _reference_ideal(p, T, offset, locs, bits, prev_end):
    """Minus log2 probability of a payload, priced location by location
    from the curve: a location below ``prev_end`` was reported one period
    earlier, so its bit is q_{age - T, age}, else p_age.  The log2s are
    summed in location order with one ``np.add.reduce``."""
    n = p.size
    probs = []
    for loc, bit in zip(locs.tolist(), bits.tolist()):
        age = offset + n - 1 - loc
        q = p[age]
        if prev_end is not None and loc < prev_end:
            assert age >= T
            q = (p[age] - p[age - T]) / (1.0 - p[age - T])
        probs.append(q if bit else 1.0 - q)
    if not probs:
        return 0.0
    return float(-np.add.reduce(np.log2(np.array(probs))))


def _ideal_case(case, calibrated_curve):
    """A run's curve, config and fault script (None: a fault-free run)."""
    small = two_segment_curve(32, 4, 0.8)
    c64 = calibrate_curve(20.0, 64).to_curve(64)
    if case == "lagging":
        return SimConfig(c64, T=8, tau=3, rounds=40, seed=11, offset_lag=5), None
    if case == "T = n":
        return SimConfig(c64, T=64, tau=20, rounds=25, seed=4), None
    if case == "calibrated":
        return SimConfig(calibrated_curve, T=20, tau=5, rounds=30, seed=0), None
    script = ReorderScript(delays={("ab", 30): 25}, drops=[("ab", 15), ("ba", 40)],
                           swaps=[("ba", 20)])
    return SimConfig(small, T=8, tau=2, rounds=70, seed=3, archive_depth=4), script


@pytest.mark.parametrize("case", ["lagging", "T = n", "calibrated", "faults"])
def test_engine_ideal_lengths_equal_a_per_location_reference(monkeypatch, calibrated_curve,
                                                             case):
    """Every measured message's ideal length equals the per-location
    reference exactly.  The reference follows each sending end's own
    messages: a resync restarts its direction (both, for ppbms's shared
    pairing) with nothing reported before."""
    sent, engines = [], []
    for cls in (SpbmsEncoder, PpbmsSession):
        def encode(self, bm, _encode=cls.encode):
            msg = _encode(self, bm)
            sent.append([self, bm.offset, self.last_locations, msg.payload, False])
            return msg

        def make_resync(self, bm, _make_resync=cls.make_resync):
            msg = _make_resync(self, bm)  # encodes through the wrapper above
            sent[-1][4] = True
            return msg

        monkeypatch.setattr(cls, "encode", encode)
        monkeypatch.setattr(cls, "make_resync", make_resync)

    def run(self, *args, _run=sim._Engine.run, **kwargs):
        engines.append(self)
        return _run(self, *args, **kwargs)

    monkeypatch.setattr(sim._Engine, "run", run)
    cfg, script = _ideal_case(case, calibrated_curve)
    res = run_synthetic(cfg) if script is None else reorder_fault_run(cfg, script)
    (engine,) = engines
    p, n, T = cfg.curve.probs, cfg.n, cfg.T
    sender = {id(link.enc): (s, d) for s, by_dir in engine.links.items()
              for d, link in by_dir.items() if link.enc is not None}
    expect = {key: [] for key in sender.values()}
    prev_end = {}
    for enc, offset, locs, payload, resync in sent:
        scheme, d = sender[id(enc)]
        if resync:
            for dd in (("ab", "ba") if scheme == "ppbms" else (d,)):
                prev_end[(scheme, dd)] = None
        expect[(scheme, d)].append(
            _reference_ideal(p, T, offset, locs, payload, prev_end.get((scheme, d)))
        )
        prev_end[(scheme, d)] = offset + n
    for d in ("ab", "ba"):
        expect[("sbms", d)] = [_reference_ideal(p, T, 0, np.arange(n), bits, None)
                               for bits in res.payloads[("sbms", d)]]
    for key, want in expect.items():
        got = res.ideal_bits[key].tolist()
        assert 0 < len(got) <= len(want)
        assert got == want[len(want) - len(got):], key
    if case == "faults":
        assert res.total_resyncs("spbms") >= 2 and res.total_resyncs("ppbms") >= 2
        assert any(resync for *_, resync in sent)


def _flip_first(bits):
    out = np.array(bits, dtype=bool)
    out[0] ^= True
    return out


class _WrongMapDecoder(SpbmsDecoder):
    """Returns a wrong map from its fifth message on; keeps the right one."""

    def decode(self, msg):
        out = super().decode(msg)
        self.calls = getattr(self, "calls", 0) + 1
        return out if self.calls < 5 else BufferMap(out.offset, _flip_first(out.bits))


class _CorruptMapDecoder(SpbmsDecoder):
    """Returns the right map but keeps a corrupted one after its fifth."""

    def decode(self, msg):
        out = super().decode(msg)
        self.calls = getattr(self, "calls", 0) + 1
        if self.calls == 5:
            self.last_bm = BufferMap(out.offset, _flip_first(out.bits))
        return out


class _WrongReportSession(PpbmsSession):
    """Reports a flipped bit from its fifth decoded message on."""

    def decode(self, msg):
        out = super().decode(msg)
        self.calls = getattr(self, "calls", 0) + 1
        if self.calls < 5 or not out.bits.size:
            return out
        return PartialBufferMap(out.offset, out.locations, _flip_first(out.bits))


class _PerturbedSetSession(PpbmsSession):
    """Reports correctly but forgets the fills of its known map, which its
    shared set then gains as members, after its fifth decoded message."""

    def decode(self, msg):
        out = super().decode(msg)
        self.calls = getattr(self, "calls", 0) + 1
        if self.calls == 5:
            self._known = BufferMap(self._known.offset, np.zeros(self.n, dtype=bool))
        return out


def _wrong_sbms_decode(msg, n):
    return BufferMap(msg.offset, _flip_first(msg.payload))


@pytest.mark.parametrize("scheme, attr, stand_in, match", [
    ("sbms", "sbms_decode", _wrong_sbms_decode, "sbms ba message 0: reconstruction differs"),
    ("spbms", "SpbmsDecoder", _WrongMapDecoder, "reconstruction differs"),
    ("spbms", "SpbmsDecoder", _CorruptMapDecoder, "support sets at the two ends diverged"),
    ("ppbms", "PpbmsSession", _WrongReportSession, "reported bits differ"),
    ("ppbms", "PpbmsSession", _PerturbedSetSession, "support sets at the two ends diverged"),
])
def test_injected_divergence_ends_the_run(monkeypatch, scheme, attr, stand_in, match):
    """A codec end that goes wrong, in what it returns or only in the state
    it keeps, ends the run in InvariantError."""
    monkeypatch.setattr(sim, attr, stand_in)
    with pytest.raises(InvariantError, match=match):
        run_synthetic(_cfg(schemes=(scheme,), rounds=20))


_ONE_DROP_HEAD = (
    "# n=32 T=8 tau=2 rounds=60 seed=3 source=synthetic\n"
    "scheme,direction,messages,mean_payload_bits,std_payload_bits,mean_ideal_bits,"
    "mean_ss_size,resyncs,drops\n"
)
_ONE_DROP_CSV = {
    "spbms": "spbms,ab,60,13.683333,2.843072,9.779509,5.550000,1,1\n"
             "spbms,ba,60,13.333333,1.776388,10.168929,5.533333,0,0\n",
    "ppbms": "ppbms,ab,60,6.250000,3.585271,4.122702,3.283333,1,1\n"
             "ppbms,ba,60,10.083333,1.968855,7.477250,4.150000,1,0\n",
}


@pytest.mark.parametrize("scheme, retrying_all_calls", [("spbms", 165), ("ppbms", 157)])
def test_pump_retries_only_the_head_of_each_held_queue(monkeypatch, scheme, retrying_all_calls):
    """After a drop, the messages held behind it wait on the oldest one, so
    the pump tries that one alone.  Re-delivering the whole held queue after
    every delivery made ``retrying_all_calls`` decoder calls on this run."""
    calls = []
    for cls in (SpbmsDecoder, PpbmsSession):
        def counted(self, msg, _decode=cls.decode):
            calls.append(msg)
            return _decode(self, msg)

        monkeypatch.setattr(cls, "decode", counted)
    res = reorder_fault_run(_cfg(schemes=(scheme,)), ReorderScript(drops=[("ab", 20)]))
    assert res.to_csv() == _ONE_DROP_HEAD + _ONE_DROP_CSV[scheme]
    assert res.total_resyncs(scheme) == 1
    assert len(calls) < retrying_all_calls


def test_total_resyncs_counts_every_pairing_once():
    """spbms pairs each direction on its own, so drops in both directions
    resync twice; ppbms's one shared pairing shows its count on both rows."""
    n = 64
    cfg = SimConfig(calibrate_curve(20.0, n).to_curve(n), T=8, tau=3, rounds=60, seed=3)
    res = reorder_fault_run(cfg, ReorderScript(drops=[("ab", 15), ("ba", 40)]))
    assert [res.row("spbms", d).resyncs for d in ("ab", "ba")] == [1, 1]
    assert [res.row("ppbms", d).resyncs for d in ("ab", "ba")] == [2, 2]
    assert [res.total_resyncs(s) for s in ("sbms", "spbms", "ppbms")] == [0, 2, 2]


def test_delay_beyond_archive_depth_forces_resync():
    cfg = _cfg(rounds=80, archive_depth=4)
    res = reorder_fault_run(cfg, ReorderScript(delays={("ba", 10): 25}))
    assert res.total_resyncs("ppbms") >= 1
    assert res.row("ppbms", "ab").messages > 0


def test_mixed_faults_recover(calibrated_curve):
    cfg = SimConfig(calibrated_curve, T=20, tau=5, rounds=120, seed=5)
    script = ReorderScript(
        delays={("ab", 30): 25}, drops=[("ba", 50)], swaps=[("ab", 70)]
    )
    res = reorder_fault_run(cfg, script)
    for scheme in ("spbms", "ppbms"):
        assert res.total_resyncs(scheme) >= 1
        assert res.row(scheme, "ab").messages > 0
        assert res.row(scheme, "ba").messages > 0


@pytest.mark.parametrize("T, tau, lag", [(8, 3, 30), (4, 4, 1)])
def test_ppbms_with_a_lagging_window_reports_only_the_senders_window(T, tau, lag):
    """With A's window ahead of B's, the shared set reaches past B's newest
    chunk; B's messages still carry only locations inside B's window."""
    n = 64
    curve = calibrate_curve(20.0, n).to_curve(n)
    res = run_synthetic(
        SimConfig(curve, T=T, tau=tau, rounds=30, schemes=("ppbms",), offset_lag=lag,
                  keep_messages=True)
    )
    assert res.total_resyncs("ppbms") == 0
    for d in ("ab", "ba"):
        assert res.row("ppbms", d).messages == 30
        for out in res.decoded[("ppbms", d)]:
            assert out.locations.size == out.bits.size
            assert np.all((out.locations >= out.offset) & (out.locations < out.offset + n))


@pytest.mark.parametrize("T, tau, lag, faults", [(8, 3, 30, False), (4, 4, 1, False),
                                                (4, 2, 5, True)])
def test_measured_set_sizes_equal_the_senders_support_sets(monkeypatch, T, tau, lag, faults):
    """The engine counts each set off its message; that count equals the
    sending end's support set right after the encode, with windows lagging
    either way and across a drop and a delay that force resyncs."""
    sizes, engines = [], []
    for cls in (SpbmsEncoder, PpbmsSession):
        def encode(self, bm, _encode=cls.encode):
            msg = _encode(self, bm)  # make_resync encodes through here too
            sizes.append((self, len(self.support_set)))
            return msg

        monkeypatch.setattr(cls, "encode", encode)

    def run(self, *args, _run=sim._Engine.run, **kwargs):
        engines.append(self)
        return _run(self, *args, **kwargs)

    monkeypatch.setattr(sim._Engine, "run", run)
    n = 64
    cfg = SimConfig(calibrate_curve(20.0, n).to_curve(n), T=T, tau=tau, rounds=30,
                    schemes=("spbms", "ppbms"), offset_lag=lag)
    script = ReorderScript(drops=[("ab", 12)], delays={("ba", 20): 11}) if faults else None
    res = reorder_fault_run(cfg, script) if faults else run_synthetic(cfg)
    (engine,) = engines
    for scheme in ("spbms", "ppbms"):
        assert (res.total_resyncs(scheme) > 0) == faults
        for d, link in engine.links[scheme].items():
            want = [size for enc, size in sizes if enc is link.enc][-cfg.rounds:]
            assert res.ss_sizes[(scheme, d)].tolist() == want, (scheme, d)


# ----------------------------------------------------------------------
# One driver for synthetic runs and trace replays
# ----------------------------------------------------------------------

@pytest.mark.parametrize("T, tau", [(8, 3), (8, 8)])
def test_trace_replay_of_a_generated_trace_equals_the_synthetic_run(T, tau):
    """A generated trace samples the same peers on the same schedule as
    ``run_synthetic``, so replaying it sends the same messages: payloads,
    support-set sizes, coder bytes and decoded outputs match one for one."""
    curve = calibrate_curve(20.0, 64).to_curve(64)
    coders = ("rle", "huffman", "ac")
    rep = run_trace(generate(curve, T=T, rounds=40, seed=5, tau=tau),
                    schemes=("sbms", "spbms", "ppbms"), coders=coders, keep_messages=True)
    syn = run_synthetic(SimConfig(curve, T=T, tau=tau, rounds=40, seed=5, warmup=0,
                                  coders=coders, keep_messages=True))
    for scheme in ("sbms", "spbms", "ppbms"):
        for d in ("ab", "ba"):
            key = (scheme, d)
            assert len(rep.payloads[key]) == len(syn.payloads[key]) == 40
            for a, b in zip(rep.payloads[key], syn.payloads[key]):
                assert np.array_equal(a, b)
            assert np.array_equal(rep.ss_sizes[key], syn.ss_sizes[key])
            assert rep.row(scheme, d).coder_bytes == syn.row(scheme, d).coder_bytes
            if scheme != "sbms":
                for a, b in zip(rep.decoded[key], syn.decoded[key], strict=True):
                    assert a.offset == b.offset
                    if scheme == "spbms":
                        assert a == b
                    else:
                        assert np.array_equal(a.locations, b.locations)
                        assert np.array_equal(a.bits, b.bits)
            assert np.isnan(rep.ideal_bits[key]).all()


@pytest.mark.parametrize("scheme", ["sbms", "spbms", "ppbms"])
def test_trace_replay_rejects_a_third_peer(scheme):
    recs = generate(two_segment_curve(32, 4, 0.8), T=8, rounds=6, seed=2, tau=2)
    third = [TraceRecord(r.timestamp, "C", r.direction, r.bm) for r in recs if r.peer == "A"]
    trio = sorted(recs + third, key=lambda r: r.timestamp)
    with pytest.raises(ValueError, match=r"3 \(\['B', 'A', 'C'\]\)"):
        run_trace(trio, schemes=(scheme,))


def test_codec_stand_ins_on_the_sim_module_see_every_message(monkeypatch):
    """``sim`` looks its codecs up as module globals when a run starts, so a
    stand-in set there sees every message sent and every ppbms report
    delivered, in a fault run and in a trace replay alike."""
    import bmkit.schemes as schemes
    from bmkit import sim

    sent = {s: [] for s in ("sbms", "spbms", "ppbms")}
    reports = []

    def sbms_encode(bm):
        msg = schemes.sbms_encode(bm)
        sent["sbms"].append(msg.n_bits)
        return msg

    class Spbms(schemes.SpbmsEncoder):
        def encode(self, bm):
            msg = super().encode(bm)
            sent["spbms"].append(msg.n_bits)
            return msg

    class Ppbms(schemes.PpbmsSession):
        def encode(self, bm):
            msg = super().encode(bm)
            sent["ppbms"].append(msg.n_bits)
            return msg

        def decode(self, msg):
            out = super().decode(msg)
            reports.append(out)
            return out

    monkeypatch.setattr(sim, "sbms_encode", sbms_encode)
    monkeypatch.setattr(sim, "SpbmsEncoder", Spbms)
    monkeypatch.setattr(sim, "PpbmsSession", Ppbms)
    def check(res, per_dir):
        for scheme, bits in sent.items():
            assert len(bits) == 2 * per_dir
            assert sum(bits) == sum(b.size for d in ("ab", "ba")
                                    for b in res.payloads[(scheme, d)])
            bits.clear()
        assert reports
        assert len(reports) == sum(len(res.decoded[("ppbms", d)]) for d in ("ab", "ba"))
        reports.clear()

    script = ReorderScript(delays={("ab", 12): 2}, drops=[("ba", 20)], swaps=[("ab", 5)])
    check(reorder_fault_run(_cfg(rounds=30, warmup=0, keep_messages=True), script), 30)
    trace = generate(two_segment_curve(32, 4, 0.8), T=8, rounds=25, seed=4, tau=2)
    check(run_trace(trace, schemes=("sbms", "spbms", "ppbms"), keep_messages=True), 25)


def test_an_engine_leaves_no_cyclic_garbage():
    """Links, pairings and envelopes point one way only, so a finished run
    is freed by reference counting alone, even with a message still held
    at the end (the one after the dropped ab 28)."""
    script = ReorderScript(delays={("ab", 12): 2}, drops=[("ab", 28)], swaps=[("ba", 5)])
    cfg = _cfg(rounds=30, warmup=0, keep_messages=True)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        reorder_fault_run(cfg, script)
        gc.collect()
        kinds = {type(obj) for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert not [k for k in kinds if k.__module__ in ("bmkit.sim", "bmkit.schemes")]
