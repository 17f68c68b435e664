import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bmkit import fillmodel
from bmkit.entropy import calibrate_curve
from bmkit.errors import InsufficientDataError, UndefinedConditionalError
from bmkit.fillmodel import (
    SCurve,
    TwoSegmentParams,
    fit_two_segment,
    load_curve,
    sample_fill_delay,
    sample_fill_delays,
    save_curve,
    transition_prob,
    two_segment_curve,
)
from conftest import random_monotone_curve


def test_curve_validation():
    SCurve([0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        SCurve([0.5, 0.4])  # decreasing
    with pytest.raises(ValueError):
        SCurve([0.1, 1.2])
    with pytest.raises(ValueError):
        SCurve([-0.1, 0.5])
    with pytest.raises(ValueError):
        SCurve([])
    with pytest.raises(ValueError):
        SCurve([[0.1, 0.2]])


def test_curve_eval_and_immutability():
    c = SCurve([0.1, 0.6, 0.9])
    assert c.n == c.probs.size == 3
    assert c.probs[1] == 0.6
    assert repr(c) == "SCurve(n=3, p0=0.1, p2=0.9)"
    with pytest.raises(ValueError):
        c.probs[0] = 0.9


def test_two_segment_shape():
    c = two_segment_curve(10, 3, 0.6, terminal=0.9, initial=0.1)
    assert c.n == 10
    assert c.probs[0] == pytest.approx(0.1)
    assert c.probs[3] == pytest.approx(0.6)
    assert c.probs[-1] == pytest.approx(0.9)
    assert np.all(np.diff(c.probs) >= 0)
    # breakpoint at the edge collapses the first segment
    c0 = two_segment_curve(5, 0, 0.4)
    assert c0.probs[0] == pytest.approx(0.4)
    assert c0.probs[-1] == pytest.approx(1.0)


def test_two_segment_params_validation():
    with pytest.raises(ValueError):
        TwoSegmentParams(-1, 0.5)
    with pytest.raises(ValueError):
        TwoSegmentParams(3, 0.5, terminal=0.4)  # terminal below the knee
    with pytest.raises(ValueError):
        TwoSegmentParams(3, 0.5, initial=0.6)  # initial above the knee
    with pytest.raises(ValueError):
        TwoSegmentParams(12, 0.5).to_curve(10)  # knee outside the window


def test_inverse_cdf_law():
    """P(delay <= i) must equal p_i: that is what 'inverse CDF' means."""
    c = SCurve([0.0, 0.2, 0.2, 0.7, 0.95])
    rng = np.random.default_rng(1)
    d = sample_fill_delays(c, rng.random(200_000))
    for i, p in enumerate(c.probs):
        assert abs(np.mean(d <= i) - p) < 5e-3


def test_sample_fill_delay_edges():
    c = SCurve([0.0, 0.2, 0.2, 0.7, 0.95])
    # u == 0 may not land on a zero-probability age
    assert sample_fill_delay(c, 0.0) == 1
    # a draw above the terminal probability never fills in-window
    assert sample_fill_delay(c, 0.96) == math.inf
    # flat stretch: both draws resolve to the first age of the plateau
    assert sample_fill_delay(c, 0.2) == 1
    assert sample_fill_delay(c, 0.21) == 3
    with pytest.raises(ValueError):
        sample_fill_delay(c, 1.0)
    with pytest.raises(ValueError):
        sample_fill_delay(c, -0.01)
    # instant-fill curve: every draw lands at age zero
    ones = SCurve(np.ones(4))
    assert sample_fill_delay(ones, 0.0) == 0
    assert sample_fill_delay(ones, 0.999) == 0


def test_vectorised_sampling_matches_scalar():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = SCurve(random_monotone_curve(rng, int(rng.integers(2, 30))))
        u = rng.random(64)
        vec = sample_fill_delays(c, u)
        for uu, dd in zip(u, vec):
            scalar = sample_fill_delay(c, float(uu))
            assert dd == (c.n if scalar == math.inf else scalar)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40),
       u=st.floats(0.0, 1.0, exclude_max=True))
def test_scalar_sampling_is_the_one_element_vector_call(seed, n, u):
    """``sample_fill_delay(c, u)`` is ``sample_fill_delays(c, [u])[0]`` as a
    Python int, with ``inf`` for ``n``, on random curves and on the same
    curve with p_0 = 0, at the drawn u and at u = 0; a draw outside [0, 1)
    is still rejected."""
    probs = random_monotone_curve(np.random.default_rng(seed), n)
    for c in (SCurve(probs), SCurve(np.r_[0.0, probs[1:]])):
        for draw in (u, 0.0):
            d = sample_fill_delay(c, draw)
            assert d == math.inf or type(d) is int
            assert (c.n if d == math.inf else d) == sample_fill_delays(c, [draw])[0]
        for bad in (-5e-324, -0.5, 1.0, 1.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"u must lie in \[0, 1\)"):
                sample_fill_delay(c, bad)


@pytest.mark.parametrize("probs", [[0.0, 0.2, 0.2, 0.7, 0.95], [0.3, 0.5, 1.0], [0.0, 0.0, 1.0],
                                   [1.0, 1.0]])
def test_vectorised_sampling_pins_the_where_formula(probs):
    """Every draw, the edge ones included (zero, negative, NaN, the largest
    double below 1), gives the int64 delay of the plain formula: the left
    search for a positive draw, else the first age past the zero
    probabilities."""
    c = SCurve(probs)
    edges = [0.0, -0.0, -0.5, -np.inf, np.nan, 1.0 - 2.0**-53, 5e-324, 0.2, 0.7, 0.95, 1.0]
    u = np.concatenate([edges, np.random.default_rng(4).random(199)])
    for draws in (u, u[::-1], u[:1], u[:0], u.reshape(-1, 3)):
        want = np.where(draws > 0.0, np.searchsorted(c.probs, draws, side="left"),
                        np.searchsorted(c.probs, 0.0, side="right")).astype(np.int64)
        got = sample_fill_delays(c, draws)
        assert got.dtype == np.int64 and got.shape == draws.shape
        assert got.tobytes() == want.tobytes()
    scalar = sample_fill_delays(c, np.nan)
    assert scalar.dtype == np.int64 and scalar.shape == ()
    assert int(scalar) == int(np.searchsorted(c.probs, 0.0, side="right"))


def _plain_delays(probs, u):
    """The inverse-CDF rule written out: the number of curve values below
    a positive draw, else the number of zero values."""
    u = np.asarray(u, dtype=np.float64)
    d = np.asarray(probs.searchsorted(u), dtype=np.int64)
    d[~(u > 0.0)] = np.count_nonzero(probs <= 0.0)
    return d


def _assert_plain(c, draws):
    got, want = sample_fill_delays(c, draws), _plain_delays(c.probs, draws)
    assert type(got) is np.ndarray and got.dtype == np.int64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _plateaus(repeats):
    """Runs of 0 and of 1, and buckets of 512 holding ``repeats`` + 1
    values: at 0.1 (``repeats`` copies and a value just above) and at 0.5
    (itself and three copies of the next double)."""
    return SCurve(np.r_[np.zeros(5), [0.1] * repeats, 0.1 + 2.0**-40, 0.3, 0.3, 0.5 - 1e-9, 0.5,
                        [0.5 + 2.0**-53] * 3, 0.9, np.ones(4)])


def _pinned_curves():
    rng = np.random.default_rng(35)
    return [calibrate_curve(20.0, 64).to_curve(64), calibrate_curve(77.0, 456).to_curve(456),
            _plateaus(3), _plateaus(4), SCurve([0.2, 1 - 2.0**-20, 1 - 2.0**-30, 1 - 2.0**-40]),
            SCurve([0.37]), SCurve(np.sort(rng.random(65_535)))]


@pytest.mark.parametrize("c", _pinned_curves(),
                         ids=["n64", "n456", "plateaus", "crowded", "top", "n1", "n65535"])
def test_guide_table_draws_are_the_plain_rule(c):
    """Every delay is the plain rule's, to the value, dtype and shape: on a
    grid of 2^16 draws, on every curve value and its neighbours, in a batch
    of its own for each edge draw and mixed with in-range ones, for a
    scalar and for a 2-D batch."""
    p = c.probs
    grid = np.arange(1, 2**16) / 2**16
    at = np.concatenate([p, np.nextafter(p, -np.inf), np.nextafter(p, np.inf)])
    inside = at[(at > 0.0) & (at < 1.0)]
    edges = [0.0, -0.0, np.nan, 1.0, 1.5, -0.1]
    for draws in (grid, inside, inside[::-1], at, np.r_[grid[::97], edges], grid.reshape(-1, 5)):
        _assert_plain(c, draws)
    for edge in edges + [0.25]:
        _assert_plain(c, edge)
        _assert_plain(c, [edge])
    _assert_plain(c, np.empty(0))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300))
def test_guide_table_draws_match_the_plain_rule_on_random_curves(seed, n):
    rng = np.random.default_rng(seed)
    c = SCurve(random_monotone_curve(rng, n))
    _assert_plain(c, rng.random(500))
    at = np.concatenate([c.probs, np.nextafter(c.probs, -np.inf), np.nextafter(c.probs, np.inf)])
    _assert_plain(c, at[(at > 0.0) & (at < 1.0)])


def test_guide_tables_are_bounded_and_cached_per_curve_values():
    """A table is at most 200 KB for a 456-point curve and 1.2 MB for a
    65,535-point one, and its bucket count is a power of two (which makes
    ``floor(u * k)`` exact); equal curve values share one table, and at
    most ``_GUIDE_TABLES`` tables are kept.  The pinned plateau curves
    sit on either side of ``_MAX_STEPS``."""
    cached = fillmodel._guide_table
    cached.cache_clear()
    assert cached(_plateaus(3).probs.tobytes()).steps == fillmodel._MAX_STEPS
    assert cached(_plateaus(4).probs.tobytes()).steps == fillmodel._MAX_STEPS + 1

    def size(table):
        return table.lo.nbytes + table.padded.nbytes

    p456 = calibrate_curve(77.0, 456).to_curve(456).probs
    table = cached(p456.tobytes())
    assert size(table) <= 200_000 and table.k & (table.k - 1) == 0
    assert cached(p456.copy().tobytes()) is table
    assert size(cached(np.linspace(0.0, 1.0, 65_535).tobytes())) <= 1_200_000
    assert cached.cache_info().maxsize == fillmodel._GUIDE_TABLES
    for k in range(2 * fillmodel._GUIDE_TABLES):
        cached(two_segment_curve(32, 4, 0.5 + k / 100).probs.tobytes())
        assert cached.cache_info().currsize <= fillmodel._GUIDE_TABLES


def test_transition_prob_known_value():
    c = SCurve([0.2, 0.6])
    assert transition_prob(c, 0, 1) == pytest.approx(0.5)


def test_transition_prob_identity():
    """p_i + (1 - p_i) * q_ij must reassemble p_j exactly."""
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        c = SCurve(random_monotone_curve(rng, n))
        i = int(rng.integers(0, n - 1))
        j = int(rng.integers(i + 1, n))
        if c.probs[i] >= 1.0:
            continue
        q = transition_prob(c, i, j)
        assert 0.0 <= q <= 1.0 + 1e-12
        assert c.probs[i] + (1 - c.probs[i]) * q == pytest.approx(c.probs[j], abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40))
def test_transition_prob_is_the_scalar_formula_bit_for_bit(seed, n):
    """At every i < j of a random curve, ``transition_prob`` equals the
    scalar formula (p_j - p_i) / (1 - p_i) to the last bit, as a Python
    float, and raises UndefinedConditionalError wherever p_i == 1."""
    c = SCurve(random_monotone_curve(np.random.default_rng(seed), n))
    for i in range(n - 1):
        p_i = float(c.probs[i])
        for j in range(i + 1, n):
            if p_i >= 1.0:
                with pytest.raises(UndefinedConditionalError, match=f"^p_{i} == 1: "):
                    transition_prob(c, i, j)
                continue
            q = transition_prob(c, i, j)
            assert type(q) is float and q == (float(c.probs[j]) - p_i) / (1.0 - p_i)


def test_transition_prob_monte_carlo():
    """Conditional fill frequency among survivors matches the formula."""
    c = SCurve([0.0, 0.3, 0.5, 0.8, 0.9])
    rng = np.random.default_rng(11)
    d = sample_fill_delays(c, rng.random(300_000))
    i, j = 1, 3
    unfilled_at_i = d > i
    emp = np.mean(d[unfilled_at_i] <= j)
    assert abs(emp - transition_prob(c, i, j)) < 5e-3


def test_transition_prob_errors():
    c = SCurve([0.2, 1.0, 1.0])
    with pytest.raises(UndefinedConditionalError):
        transition_prob(c, 1, 2)
    with pytest.raises(ValueError):
        transition_prob(c, 1, 1)
    with pytest.raises(ValueError):
        transition_prob(c, 2, 1)


def test_fit_recovers_exact_curve():
    true = TwoSegmentParams(12, 0.7, terminal=0.97, initial=0.05)
    curve = true.to_curve(60)
    pts = list(enumerate(curve.probs))
    got = fit_two_segment(pts, 60)
    assert got.breakpoint == true.breakpoint
    assert got.p_break == pytest.approx(true.p_break, abs=1e-9)
    assert got.terminal == pytest.approx(true.terminal, abs=1e-9)
    assert got.initial == pytest.approx(true.initial, abs=1e-9)


def test_fit_recovers_noisy_curve():
    rng = np.random.default_rng(5)
    true = TwoSegmentParams(15, 0.8)
    curve = true.to_curve(80)
    noisy = np.clip(curve.probs + rng.normal(0, 0.01, 80), 0, 1)
    got = fit_two_segment(list(enumerate(noisy)), 80)
    assert abs(got.breakpoint - true.breakpoint) <= 2
    assert got.p_break == pytest.approx(true.p_break, abs=0.03)


def test_fit_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit_two_segment([(0, 0.1), (5, 0.9)], 10)


def test_fit_needs_room_for_a_breakpoint():
    """A window of two or fewer chunks has no breakpoint candidate."""
    for n in (2, 1, 0):
        with pytest.raises(ValueError, match="n >= 3"):
            fit_two_segment([(0, 0.1), (1, 0.5), (1, 0.9)], n)


def test_fit_rejects_out_of_range_ages():
    with pytest.raises(ValueError, match=r"^sample ages must lie in \[0, n\)$"):
        fit_two_segment([(0, 0.1), (5, 0.5), (10, 0.9)], 10)
    # NaN compares false with both bounds; past the check it stalls the solver.
    with pytest.raises(ValueError, match=r"^sample ages must lie in \[0, n\)$"):
        fit_two_segment([(0, 0.1), (float("nan"), 0.3), (2, 0.5)], 16)
    for bad in (5.0, -3.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"^sample probabilities must lie in \[0, 1\]$"):
            fit_two_segment([(0, 0.1), (1, bad), (2, 0.5)], 16)


def test_curve_file_round_trip(tmp_path):
    c = two_segment_curve(30, 7, 0.66, terminal=0.99, initial=0.02)
    path = tmp_path / "fill.curve"
    save_curve(c, path)
    back = load_curve(path)
    assert back == c


def test_load_curve_rejects_gaps(tmp_path):
    path = tmp_path / "bad.curve"
    path.write_text("0 0.1\n2 0.9\n")
    with pytest.raises(ValueError):
        load_curve(path)
    path.write_text("0 0.1\n1 0.2 0.3\n")
    with pytest.raises(ValueError):
        load_curve(path)
    path.write_text("# only comments\n")
    with pytest.raises(ValueError):
        load_curve(path)
    # A field that does not parse names its file and line, as a field count does.
    for text in ("0 0.1\n1 abc\n", "0 0.1\nx 0.2\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="expected 'index probability'") as err:
            load_curve(path)
        assert str(err.value).startswith(f"{path}:2:")


def test_load_curve_accepts_comments(tmp_path):
    path = tmp_path / "ok.curve"
    path.write_text("# fitted on day one\n0 0.25\n1 0.75  # knee\n")
    assert np.allclose(load_curve(path).probs, [0.25, 0.75])
