"""Per-message information of the three schemes and the calibration helper."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bmkit import entropy
from bmkit.entropy import (
    CALIBRATION_TOL,
    DEFAULT_KNEE_FRAC,
    REPORT_COLUMNS,
    EntropyReport,
    EntropyRow,
    calibrate_curve,
    h_ab,
    h_ba,
    h_binary,
    h_ppbms,
    h_sbms,
    h_spbms,
    overhead,
    report_grid,
    _csv_line,
    _two_segment_h,
)
from bmkit.errors import CalibrationError
from bmkit.fillmodel import SCurve, _two_segment_probs, transition_prob, two_segment_curve
from bmkit.sim import SchemeDirStats, SimConfig, SimResult

from conftest import random_monotone_curve


def test_h_binary_values():
    assert h_binary(0.0) == 0.0
    assert h_binary(1.0) == 0.0
    assert h_binary(0.5) == 1.0
    assert h_binary(0.11) == pytest.approx(0.499916, abs=1e-4)
    assert h_binary(0.3) == h_binary(0.7)
    with pytest.raises(ValueError):
        h_binary(-0.01)
    with pytest.raises(ValueError):
        h_binary(1.01)


def test_conditional_term_reassembles_joint_entropy():
    """h(p_i) + (1-p_i) h(q_ij) equals the entropy of the three reachable
    (X_i, X_j) outcomes -- the chain rule for monotone fill indicators."""
    curve = SCurve([0.05, 0.2, 0.45, 0.6, 0.85, 0.97])
    p = curve.probs
    for i in range(5):
        for j in range(i + 1, 6):
            q = transition_prob(curve, i, j)
            lhs = h_binary(p[i]) + (1.0 - p[i]) * h_binary(q)
            cells = np.array([1.0 - p[j], p[j] - p[i], p[i]])
            cells = cells[cells > 0.0]
            rhs = float(-(cells * np.log2(cells)).sum())
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_overhead_is_bits_per_chunktime():
    assert overhead(77.0, 8) == 9.625
    assert overhead(0.0, 5) == 0.0
    with pytest.raises(ValueError):
        overhead(10.0, 0)


def test_exchange_params_validation():
    """A run's timing needs 0 < T <= n, checked first, then 0 < tau <= T."""
    curve = two_segment_curve(64, 8, 0.8)
    SimConfig(curve, T=8, tau=3, rounds=1)
    SimConfig(curve, T=64, tau=64, rounds=1)
    for T, tau, text in [(0, 0, "need 0 < T <= n, got T=0, n=64"),
                         (65, 1, "need 0 < T <= n, got T=65, n=64"),
                         (8, 9, "need 0 < tau <= T, got tau=9, T=8"),
                         (8, 0, "need 0 < tau <= T, got tau=0, T=8")]:
        with pytest.raises(ValueError) as err:
            SimConfig(curve, T=T, tau=tau, rounds=1)
        assert str(err.value) == text


def test_deterministic_curve_carries_no_information():
    """A curve that jumps straight from 0 to 1 leaves nothing to report."""
    curve = SCurve([0.0] * 7 + [1.0] * 13)
    assert h_sbms(curve) == 0.0
    for T in (1, 5, 20):
        assert h_spbms(curve, T) == 0.0
        assert h_ppbms(curve, T, max(1, T // 2)) == 0.0


def test_spbms_degenerates_to_sbms_when_period_spans_window():
    rng = np.random.default_rng(2)
    for _ in range(20):
        curve = SCurve(random_monotone_curve(rng, 40))
        assert h_spbms(curve, 40) == pytest.approx(h_sbms(curve), abs=1e-12)


def test_direction_symmetry(calibrated_curve):
    """Swapping the roles mirrors the stale lag: H_ab(T,tau) == H_ba(T,T-tau)."""
    for T in (4, 20, 64):
        for tau in range(0, T + 1):
            assert h_ab(calibrated_curve, T, tau) == pytest.approx(
                h_ba(calibrated_curve, T, T - tau), abs=1e-9
            )


def test_direction_symmetry_with_distinct_peers():
    rng = np.random.default_rng(9)
    mine = SCurve(random_monotone_curve(rng, 30))
    other = SCurve(random_monotone_curve(rng, 30))
    for T, tau in ((6, 2), (15, 7), (30, 1)):
        assert h_ab(mine, T, tau, counterpart=other) == pytest.approx(
            h_ba(mine, T, T - tau, counterpart=other), abs=1e-9
        )


def test_scheme_ordering_on_random_curves():
    """ppbms <= spbms <= sbms pointwise, over random monotone curves."""
    rng = np.random.default_rng(31)
    for _ in range(60):
        n = int(rng.integers(6, 80))
        curve = SCurve(random_monotone_curve(rng, n))
        h0 = h_sbms(curve)
        T = int(rng.integers(1, n + 1))
        tau = int(rng.integers(1, T + 1))
        hs = h_spbms(curve, T)
        hp = h_ppbms(curve, T, tau)
        assert hs <= h0 + 1e-12
        assert hp <= hs + 1e-12
        assert hp >= -1e-12


def test_information_grows_with_period_and_lag():
    """Less frequent reports carry more bits each: h_spbms and h_ab are
    nondecreasing in T, and h_ab is nondecreasing in tau."""
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(8, 60))
        curve = SCurve(random_monotone_curve(rng, n))
        spb = [h_spbms(curve, T) for T in range(1, n + 1)]
        assert all(b - a >= -1e-9 for a, b in zip(spb, spb[1:]))
        T = int(rng.integers(2, n + 1))
        ab = [h_ab(curve, T, tau) for tau in range(0, T + 1)]
        assert all(b - a >= -1e-9 for a, b in zip(ab, ab[1:]))
        abT = [h_ab(curve, t, min(2, t)) for t in range(1, n + 1)]
        assert all(b - a >= -1e-9 for a, b in zip(abT, abT[1:]))


def test_ppbms_equals_spbms_only_against_a_silent_counterpart():
    """The pairing gain vanishes exactly when the counterpart never fills
    anything (its factors are all 1); any fill probability strictly helps."""
    n, T, tau = 24, 6, 2
    rng = np.random.default_rng(23)
    silent = SCurve(np.zeros(n))
    for _ in range(20):
        curve = SCurve(random_monotone_curve(rng, n))
        hs = h_spbms(curve, T)
        assert h_ab(curve, T, tau, counterpart=silent) == pytest.approx(hs, abs=1e-12)
        assert h_ppbms(curve, T, tau, counterpart=silent) == pytest.approx(hs, abs=1e-12)
        if hs > 1e-9:  # a live counterpart strictly shrinks a live direction
            assert h_ppbms(curve, T, tau) < hs - 1e-12
    with pytest.raises(ValueError, match="^counterpart curve must have the same width$"):
        h_ab(curve, T, tau, counterpart=SCurve(np.zeros(n + 1)))


def test_tau_zero_is_accepted_as_a_limit_label():
    curve = two_segment_curve(16, 3, 0.8)
    # tau=0 is the perfectly-fresh-counterpart limit: maximal suppression.
    assert 0.0 <= h_ab(curve, 4, 0) <= h_spbms(curve, 4) + 1e-12
    with pytest.raises(ValueError):
        h_ab(curve, 4, 5)
    with pytest.raises(ValueError):
        h_ab(curve, 0, 0)
    with pytest.raises(ValueError):
        h_spbms(curve, 17)


# ----------------------------------------------------------------------
# Calibration
# ----------------------------------------------------------------------

def test_calibrate_hits_the_information_target():
    params = calibrate_curve(77.0, 456)
    curve = params.to_curve(456)
    assert 76.5 <= h_sbms(curve) <= 77.5
    assert params.breakpoint == int(round(DEFAULT_KNEE_FRAC * 455))


def test_calibrate_edge_targets():
    flat = calibrate_curve(0.0, 32).to_curve(32)
    assert h_sbms(flat) == 0.0
    full = calibrate_curve(32.0, 32).to_curve(32)
    assert h_sbms(full) == pytest.approx(32.0, abs=1e-9)


def test_calibrate_rejects_unreachable_targets():
    with pytest.raises(CalibrationError):
        calibrate_curve(-1.0, 64)
    with pytest.raises(CalibrationError):
        calibrate_curve(65.0, 64)
    with pytest.raises(CalibrationError):
        calibrate_curve(10.0, 1)


def test_calibrate_takes_the_largest_reachable_breakpoint_below_the_knee():
    """1 bit at n=32 is out of reach at the default knee (breakpoint 3), so
    calibration settles on breakpoint 2, the largest below it that reaches 1
    bit; 31 bits is out of every breakpoint's reach and raises."""
    assert int(round(DEFAULT_KNEE_FRAC * 31)) == 3
    params = calibrate_curve(1.0, 32)
    assert params.breakpoint == 2
    assert abs(h_sbms(params.to_curve(32)) - 1.0) <= CALIBRATION_TOL
    with pytest.raises(CalibrationError, match="no two-segment curve reaches 31.0 bits"):
        calibrate_curve(31.0, 32)


def test_calibration_matches_a_linear_search_below_the_knee(monkeypatch):
    """Over a grid of windows and targets, the breakpoints that reach a
    target are a prefix of 1..b0, and calibration returns the same
    breakpoint and p_break as a plain loop over them: the knee b0 if it
    reaches, else the largest breakpoint below it that does.  The targets
    crowd both ends of (0, 0.8 n), where the knee misses."""
    solve = functools.cache(entropy._solve_p_break)
    monkeypatch.setattr(entropy, "_solve_p_break", solve)
    fractions = (0.005, 0.02, 0.03, 0.045, 0.3, 0.6, 0.75, 0.76, 0.77, 0.79)
    below_knee = 0
    for n in [*range(3, 41), 64, 100]:
        b0 = min(max(int(round(DEFAULT_KNEE_FRAC * (n - 1))), 1), n - 2)
        for target in (f * n for f in fractions):
            reaches = [solve(target, n, b) is not None for b in range(1, b0 + 1)]
            r = sum(reaches)
            assert reaches == [True] * r + [False] * (b0 - r), (n, target)
            if r == 0:
                with pytest.raises(CalibrationError):
                    calibrate_curve.__wrapped__(target, n)
                continue
            below_knee += r < b0
            params = calibrate_curve.__wrapped__(target, n)
            assert (params.breakpoint, params.p_break) == (r, solve(target, n, r)), (n, target)
    assert below_knee > 50


@pytest.mark.parametrize("n", [1200, 4560])
def test_calibration_solves_a_logarithmic_number_of_breakpoints(monkeypatch, n):
    """77 bits misses the knee at these windows; the bisection below it
    finds breakpoint 107 in at most ceil(log2 b0) + 2 solves, not one per
    breakpoint."""
    calls = []
    solve = entropy._solve_p_break
    monkeypatch.setattr(entropy, "_solve_p_break", lambda *a: calls.append(a) or solve(*a))
    params = calibrate_curve.__wrapped__(77.0, n)
    b0 = int(round(DEFAULT_KNEE_FRAC * (n - 1)))
    assert params.breakpoint == 107
    assert abs(h_sbms(params.to_curve(n)) - 77.0) <= CALIBRATION_TOL
    assert len(calls) <= math.ceil(math.log2(b0)) + 2


def test_calibrate_various_targets_round_trip():
    # Endpoint-pinned two-segment curves top out near 0.79*n bits (at
    # breakpoint 1; 157.6 bits at n=200), so targets stay below that ceiling.
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(16, 200))
        target = float(rng.uniform(0.5, 0.65 * n))
        curve = calibrate_curve(target, n).to_curve(n)
        assert abs(h_sbms(curve) - target) <= 0.5


def test_calibration_grid_matches_the_scalar_curve_bit_for_bit():
    """The calibration search evaluates many p_break values in one array
    pass; each value must equal the one-curve h_sbms exactly, and each row
    the two-segment formula computed one float at a time."""
    rng = np.random.default_rng(17)
    for k in range(40):
        n = int(rng.integers(3, 500))
        b = int(rng.integers(1, n - 1))
        pbs = np.concatenate([np.linspace(0.0, 1.0, 257), rng.random(20)])
        scalar = [h_sbms(two_segment_curve(n, b, float(pb))) for pb in pbs]
        assert _two_segment_h(n, b, pbs).tolist() == scalar
        if k % 8 == 0:
            for pb in pbs[::40].tolist():
                row = [pb * (i / b) if i < b else pb + (1.0 - pb) * ((i - b) / (n - 1 - b))
                       for i in range(n)]
                ref = [min(max(p, 0.0), 1.0) for p in row]
                assert _two_segment_probs(n, b, pb)[0].tolist() == ref


def test_calibration_grid_runs_in_bounded_memory():
    """The grid is evaluated in blocks of rows: one 257 x 456 pass would
    hold about 6.6 MB of temporaries at once."""
    tracemalloc.start()
    try:
        calibrate_curve.__wrapped__(77.0, 456)  # past the cache
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ----------------------------------------------------------------------
# Grid reports
# ----------------------------------------------------------------------

def test_report_grid_rows_and_gains(calibrated_curve):
    rep = report_grid(calibrated_curve, [8, 20], taus=[5])
    schemes = [r.scheme for r in rep.rows]
    assert schemes == ["sbms", "spbms", "ab", "ba", "ppbms"] * 2
    h0 = h_sbms(calibrated_curve)
    for r in [r for r in rep.rows if r.scheme == "sbms"]:
        assert r.bits_per_msg == pytest.approx(h0, abs=1e-9)
        assert r.bits_per_chunktime == pytest.approx(h0 / r.T, abs=1e-9)
    [row] = [r for r in rep.rows if (r.scheme, r.T, r.tau) == ("ppbms", 20, 5)]
    assert row.bits_per_msg == pytest.approx(h_ppbms(calibrated_curve, 20, 5), abs=1e-9)
    assert row.gain_vs_sbms == pytest.approx(1 - row.bits_per_msg / h0, abs=1e-9)
    hs = h_spbms(calibrated_curve, 20)
    assert row.gain_vs_spbms == pytest.approx(1 - row.bits_per_msg / hs, abs=1e-9)


def test_report_grid_tau_policies(calibrated_curve):
    assert [r.tau for r in report_grid(calibrated_curve, [6], taus="min").rows] == [1] * 5
    sweep = report_grid(calibrated_curve, [4], taus="sweep")
    assert [r.tau for r in sweep.rows if r.scheme == "ppbms"] == [1, 2, 3, 4]
    picked = report_grid(calibrated_curve, [4, 12], taus=[3, 11])
    assert [(r.T, r.tau) for r in picked.rows if r.scheme == "ab"] == [
        (4, 3), (12, 3), (12, 11)]
    with pytest.raises(ValueError):
        report_grid(calibrated_curve, [], taus="min")
    with pytest.raises(ValueError):
        report_grid(calibrated_curve, [4], taus=[9])  # nothing admissible


def test_report_csv_shape(calibrated_curve):
    rep = report_grid(calibrated_curve, [8], taus="min")
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 1 + len(rep.rows)
    assert all(len(l.split(",")) == len(REPORT_COLUMNS) for l in lines[1:])
    first = lines[1].split(",")
    assert first[0] == "sbms" and float(first[3]) == pytest.approx(77.0, abs=0.5)


# Each table's columns and formats as they were spelled out by hand; the
# rows printed from the row types must match them byte for byte.
_OLD_REPORT_COLUMNS = ("scheme", "T", "tau", "bits_per_msg", "bits_per_chunktime",
                       "gain_vs_sbms", "gain_vs_spbms")
_OLD_SIM_COLUMNS = ["scheme", "direction", "messages", "mean_payload_bits", "std_payload_bits",
                    "mean_ideal_bits", "mean_ss_size", "resyncs", "drops"]


def _old_report_line(r):
    return (
        f"{r.scheme},{r.T},{r.tau},"
        f"{r.bits_per_msg:.6f},{r.bits_per_chunktime:.6f},"
        f"{r.gain_vs_sbms:.6f},{r.gain_vs_spbms:.6f}"
    )


def _old_sim_line(s, coders):
    return ",".join([
        s.scheme, s.direction, str(s.messages),
        f"{s.mean_payload_bits:.6f}", f"{s.std_payload_bits:.6f}",
        f"{s.mean_ideal_bits:.6f}", f"{s.mean_ss_size:.6f}",
        str(s.resyncs), str(s.drops),
    ] + [str(s.coder_bytes.get(c, 0)) for c in coders])


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, -1e300, 5e-324,
                     2.2250738585072014e-308 / 3]),
    st.floats().map(np.float64),
    st.integers(-(2**70), 2**70),
)
_INTS = st.one_of(st.integers(-(2**70), 2**70), st.integers(-(2**63), 2**63 - 1).map(np.int64))
_CODERS = ("rle", "huffman", "ac")


@given(report=st.builds(EntropyRow, st.sampled_from(["sbms", "spbms", "ab", "ba", "ppbms"]),
                        _INTS, _INTS, _FLOATS, _FLOATS, _FLOATS, _FLOATS),
       stats=st.builds(SchemeDirStats, st.sampled_from(["sbms", "spbms", "ppbms"]),
                       st.sampled_from(["ab", "ba"]), _INTS, _FLOATS, _FLOATS, _FLOATS,
                       _FLOATS, _INTS, _INTS,
                       st.dictionaries(st.sampled_from(_CODERS), _INTS)))
def test_csv_rows_print_as_the_hand_written_formats(report, stats):
    """A field declared float prints as ``:.6f`` whatever the value's type
    (an int there prints ``3.000000``); any other field prints as ``str``."""
    assert _csv_line(report, REPORT_COLUMNS) == _old_report_line(report)
    assert _csv_line(stats, _OLD_SIM_COLUMNS) == _old_sim_line(stats, ())
    result = SimResult(64, 8, 2, 10, 0, "synthetic", ("spbms",), _CODERS, (stats,), {}, {}, {}, {})
    head, columns, row = result.to_csv().splitlines()
    assert head == "# n=64 T=8 tau=2 rounds=10 seed=0 source=synthetic"
    assert row == _old_sim_line(stats, _CODERS)


def test_csv_columns_are_the_hand_written_lists():
    assert REPORT_COLUMNS == _OLD_REPORT_COLUMNS
    result = SimResult(64, 8, 2, 10, 0, "synthetic", ("spbms",), _CODERS, (), {}, {}, {}, {})
    assert result.to_csv().splitlines()[1].split(",") == _OLD_SIM_COLUMNS + [
        "rle_bytes", "huffman_bytes", "ac_bytes"]


def test_report_rejects_a_negative_information_row(calibrated_curve):
    row = report_grid(calibrated_curve, [8], taus="min").rows[0]
    with pytest.raises(ValueError, match="^negative information quantity in row"):
        EntropyReport((dataclasses.replace(row, bits_per_msg=-1e-9),))


def test_report_mean_gain(calibrated_curve):
    rep = report_grid(calibrated_curve, [8, 16, 24, 32], taus="min")
    manual = np.mean([
        1 - h_ppbms(calibrated_curve, T, 1) / h_spbms(calibrated_curve, T)
        for T in (8, 16, 24, 32)
    ])
    assert rep.mean_gain("ppbms", "spbms") == pytest.approx(float(manual), abs=1e-9)
    assert report_grid(calibrated_curve, [8]).mean_gain("ppbms", "sbms") == pytest.approx(
        1 - h_ppbms(calibrated_curve, 8, 1) / h_sbms(calibrated_curve), abs=1e-9
    )
    with pytest.raises(ValueError):
        EntropyReport(()).mean_gain("ppbms", "spbms")
