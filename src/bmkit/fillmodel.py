"""Stationary buffer-fill model.

A peer's buffer window holds ``n`` chunk positions.  The model assigns each
age index ``i`` (0 = the newest position, the one that just entered the
window) a stationary probability ``p_i`` that a chunk of that age is already
buffered.  Because chunks are never un-filled while they stay in the window,
the curve is monotone nondecreasing in the age index.

Chunks acquire their content after a random *fill delay* drawn from the
curve's inverse CDF, so ``P(delay <= i) == p_i`` holds at every age.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, UndefinedConditionalError

__all__ = [
    "SCurve",
    "TwoSegmentParams",
    "two_segment_curve",
    "sample_fill_delay",
    "sample_fill_delays",
    "transition_prob",
    "fit_two_segment",
    "load_curve",
    "save_curve",
]


class SCurve:
    """Monotone nondecreasing fill-probability curve over age indices 0..n-1."""

    __slots__ = ("probs",)

    def __init__(self, probs):
        arr = np.asarray(probs, dtype=np.float64).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("curve needs a one-dimensional, nonempty probability vector")
        if np.any(~np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("fill probabilities must lie in [0, 1]")
        if np.any(np.diff(arr) < 0.0):
            raise ValueError("fill probabilities must be nondecreasing in the age index")
        arr.flags.writeable = False
        self.probs = arr

    @property
    def n(self) -> int:
        return self.probs.size

    def __eq__(self, other):
        return isinstance(other, SCurve) and np.array_equal(self.probs, other.probs)

    def __repr__(self):
        return f"SCurve(n={self.n}, p0={self.probs[0]:.4g}, p{self.n - 1}={self.probs[-1]:.4g})"


@dataclass(frozen=True)
class TwoSegmentParams:
    """Two-segment piecewise-linear curve: (0, initial) -> (breakpoint,
    p_break) -> (n-1, terminal)."""

    breakpoint: int
    p_break: float
    terminal: float = 1.0
    initial: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "breakpoint", int(self.breakpoint))
        object.__setattr__(self, "p_break", float(self.p_break))
        object.__setattr__(self, "terminal", float(self.terminal))
        object.__setattr__(self, "initial", float(self.initial))
        if self.breakpoint < 0:
            raise ValueError("breakpoint must be nonnegative")
        if not 0.0 <= self.initial <= self.p_break <= self.terminal <= 1.0:
            raise ValueError("need 0 <= initial <= p_break <= terminal <= 1")

    def to_curve(self, n: int) -> SCurve:
        if not 0 <= self.breakpoint <= n - 1:
            raise ValueError(f"breakpoint {self.breakpoint} outside [0, {n - 1}]")
        return SCurve(
            _two_segment_probs(n, self.breakpoint, self.p_break, self.terminal, self.initial)[0]
        )


def _two_segment_probs(n, b, p_break, terminal=1.0, initial=0.0) -> np.ndarray:
    """The two-segment curve's probabilities, one row per value in the
    column ``p_break``, every other parameter shared and unchecked."""
    p_break = np.reshape(p_break, (-1, 1))
    probs = np.empty((p_break.shape[0], n), dtype=np.float64)
    if b > 0:
        probs[:, : b + 1] = initial + (p_break - initial) * (np.arange(b + 1) / b)
    else:
        probs[:, :1] = p_break
    if b < n - 1:
        probs[:, b:] = p_break + (terminal - p_break) * (np.arange(n - b) / (n - 1 - b))
    # Clip float noise so the monotonicity check never trips on rounding.
    return np.clip(probs, 0.0, 1.0)


def two_segment_curve(n, breakpoint, p_break, terminal=1.0, initial=0.0) -> SCurve:
    return TwoSegmentParams(breakpoint, p_break, terminal, initial).to_curve(n)


def sample_fill_delay(curve: SCurve, u: float):
    """Inverse-CDF fill delay for uniform draw ``u`` in [0, 1).

    Returns the smallest age ``d`` with ``p_d >= u`` (and ``p_d > 0``), or
    ``math.inf`` when the chunk never fills within the window.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    d = int(sample_fill_delays(curve, [u])[0])
    return math.inf if d >= curve.n else d


def sample_fill_delays(curve: SCurve, u) -> np.ndarray:
    """Vectorised :func:`sample_fill_delay`; never-filled is encoded as ``n``
    (one past the largest in-window age) instead of ``inf``."""
    u = np.asarray(u, dtype=np.float64)
    probs = curve.probs
    d = np.asarray(probs.searchsorted(u), dtype=np.int64)
    # A draw of 0 (or NaN) must still respect P(delay <= i) == p_i: a zero
    # probability at age 0 means the chunk cannot already be filled.
    d[~(u > 0.0)] = probs.searchsorted(0.0, side="right")
    return d


def _cond_fill(p: np.ndarray, lag: int):
    """Per age i, ``left`` = 1 - p_{i-lag}, the probability a position was
    still unfilled ``lag`` chunk-times earlier, and the conditional
    q_{i-lag,i} = (p_i - p_{i-lag}) / left that it has filled since.

    Both are NaN below ``lag``; q is also NaN where left is 0 (a position
    certainly filled back then is never reported again).
    """
    n = p.size
    prev = np.full(n, np.nan)
    prev[lag:] = p[: n - lag]
    left = 1.0 - prev
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(left > 0.0, (p - prev) / left, np.nan)
    return left, q


def transition_prob(curve: SCurve, i: int, j: int) -> float:
    """P(filled at age j | unfilled at age i) == (p_j - p_i) / (1 - p_i)."""
    if not 0 <= i < j < curve.n:
        raise ValueError(f"need 0 <= i < j < n, got i={i}, j={j}, n={curve.n}")
    if curve.probs[i] >= 1.0:
        raise UndefinedConditionalError(
            f"p_{i} == 1: conditioning on an unfilled age-{i} position has probability zero"
        )
    return float(_cond_fill(curve.probs, j - i)[1][j])


def fit_two_segment(samples, n: int) -> TwoSegmentParams:
    """Least-squares fit of a two-segment curve to (age, probability) samples.

    For every candidate breakpoint the curve is linear in (initial, p_break,
    terminal), so each candidate is an ordinary least-squares solve; the
    breakpoint with the smallest residual wins (ties go to the smallest
    breakpoint).
    """
    if n < 3:
        raise ValueError(f"need n >= 3 to place a breakpoint inside the window, got n={n}")
    pts = [(float(a), float(p)) for a, p in samples]
    if len(pts) < 3:
        raise InsufficientDataError(f"need at least 3 samples, got {len(pts)}")
    ages = np.array([a for a, _ in pts])
    vals = np.array([p for _, p in pts])
    # Written so that NaN fails too: it compares false with every bound.
    if not np.all((ages >= 0) & (ages < n)):
        raise ValueError("sample ages must lie in [0, n)")
    if not np.all((vals >= 0) & (vals <= 1)):
        raise ValueError("sample probabilities must lie in [0, 1]")

    best = None  # (residual, breakpoint, params)
    for b in range(1, n - 1):
        left = ages <= b
        design = np.zeros((ages.size, 3))  # columns: initial, p_break, terminal
        design[left, 0] = 1.0 - ages[left] / b
        design[left, 1] = ages[left] / b
        design[~left, 1] = 1.0 - (ages[~left] - b) / (n - 1 - b)
        design[~left, 2] = (ages[~left] - b) / (n - 1 - b)
        coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
        p_break = min(max(coef[1], 0.0), 1.0)
        initial = min(max(coef[0], 0.0), p_break)
        terminal = min(max(coef[2], p_break), 1.0)
        resid = float(np.sum((design @ np.array([initial, p_break, terminal]) - vals) ** 2))
        if best is None or resid < best[0] - 1e-15:
            best = (resid, b, TwoSegmentParams(b, p_break, terminal, initial))
    return best[2]


def load_curve(path) -> SCurve:
    """Read an 'index probability' pair per line; '#' starts a comment."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'index probability', got {raw!r}")
            pairs.append((int(parts[0]), float(parts[1])))
    if not pairs:
        raise ValueError(f"{path}: no curve points found")
    pairs.sort()
    indices = [i for i, _ in pairs]
    if indices != list(range(len(pairs))):
        raise ValueError(f"{path}: curve indices must cover 0..n-1 exactly once")
    return SCurve([p for _, p in pairs])


def save_curve(curve: SCurve, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, p in enumerate(curve.probs):
            fh.write(f"{i} {float(p):.17g}\n")
