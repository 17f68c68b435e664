"""Information content of buffer-map messages under each scheme.

Everything here is a pure function of an SCurve and the exchange timing
(T = send period, tau = offset between the two peers' send instants, both
in chunk-time).  Ages index the curve: age 0 is the newest window position.

Per message, a scheme pays for exactly the positions it still reports:

* sbms: every position ->  sum_i h(p_i); independent of T.
* spbms: the T newest positions are fresh (never reported); an older
  position is reported only if the sender's previous message (one period
  ago, age i-T) reported it unfilled, and then its fill status is the
  conditional q_{i-T,i} ->  sum_{i<T} h(p_i)
  + sum_{i>=T} (1-p_{i-T}) h(q_{i-T,i}).
* ppbms A->B: additionally, the counterpart's last message (tau ago, so
  age i-tau at its send time) may have announced the position filled,
  which removes it from the shared support set.  Positions younger than
  tau were never covered by the counterpart ->  three ranges
  [0,tau), [tau,T), [T,N) with counterpart factors (1-p'_{i-tau}).
* ppbms B->A: same with staleness T-tau; the pair average is H_PPBMS.

The counterpart factors default to the sender's own curve (statistically
identical peers); passing a different counterpart curve models asymmetric
pairs — a counterpart curve of all zeros contributes no exclusions and
collapses every direction to the spbms quantity exactly.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import CalibrationError
from .fillmodel import SCurve, TwoSegmentParams, _cond_fill, _two_segment_probs

__all__ = [
    "h_binary",
    "h_sbms",
    "h_spbms",
    "h_ab",
    "h_ba",
    "h_ppbms",
    "overhead",
    "calibrate_curve",
    "report_grid",
    "EntropyRow",
    "EntropyReport",
    "REPORT_COLUMNS",
]


def h_binary(p: float) -> float:
    """Entropy of a single binary source, in bits."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def _h_arr(p: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p, dtype=np.float64)
    inner = (p > 0.0) & (p < 1.0)
    q = p[inner]
    out[inner] = -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q)
    return out


def h_sbms(curve: SCurve) -> float:
    """Bits per message when every position is reported independently."""
    return float(_h_arr(curve.probs).sum())


def _check_T(n: int, T: int):
    if not 0 < T <= n:
        raise ValueError(f"need 0 < T <= n, got T={T}, n={n}")


def _check_run(n: int, T: int, tau: int, rounds: int, seed: int):
    """A synthetic run's parameters: a period the window holds, a reply
    offset inside it, at least one round and a seed numpy accepts."""
    _check_T(n, T)
    if not 0 < tau <= T:
        raise ValueError(f"need 0 < tau <= T, got tau={tau}, T={T}")
    if rounds < 1:
        raise ValueError(f"need rounds >= 1, got rounds={rounds}")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got seed={seed}")


def _check_tau(T: int, tau: int):
    # tau == 0 is outside the protocol's domain (sends would coincide) but
    # is accepted as the limit label used in sweeps and reports.
    if not 0 <= tau <= T:
        raise ValueError(f"need 0 <= tau <= T, got tau={tau}, T={T}")


def h_spbms(curve: SCurve, T: int) -> float:
    """Bits per message when the sender never re-reports a filled position:
    a direction whose counterpart never excludes anything."""
    return _h_directed(curve, T, T, curve.n, None)


def _counterpart_factors(curve: SCurve, counterpart, stale: int, n: int) -> np.ndarray:
    """Probability the counterpart's last message (stale chunk-times old)
    had NOT announced each age filled; ages below ``stale`` were not yet in
    its window and get factor 1."""
    pc = (counterpart if counterpart is not None else curve).probs
    if pc.size != n:
        raise ValueError("counterpart curve must have the same width")
    f = np.ones(n, dtype=np.float64)
    if stale < n:
        f[stale:] = 1.0 - pc[: n - stale]
    return f


def _h_directed(curve: SCurve, T: int, tau: int, stale: int, counterpart) -> float:
    """Bits per message in a direction whose counterpart reported ``stale``
    chunk-times earlier."""
    _check_T(curve.n, T)
    _check_tau(T, tau)
    p = curve.probs
    n = curve.n
    cf = _counterpart_factors(curve, counterpart, stale, n)
    total = float((cf[:T] * _h_arr(p[:T])).sum())
    if T < n:
        # A position certainly filled a period ago (left 0, q NaN) adds 0.
        left, q = _cond_fill(p, T)
        total += float((cf[T:] * (left[T:] * _h_arr(q[T:]))).sum())
    return total


def h_ab(curve: SCurve, T: int, tau: int, counterpart: SCurve | None = None) -> float:
    """Bits per message in the direction whose counterpart reported tau
    chunk-times earlier (A->B on the standard schedule)."""
    return _h_directed(curve, T, tau, tau, counterpart)


def h_ba(curve: SCurve, T: int, tau: int, counterpart: SCurve | None = None) -> float:
    """Bits per message in the reverse direction: its counterpart reported
    T - tau chunk-times earlier."""
    return _h_directed(curve, T, tau, T - tau, counterpart)


def h_ppbms(curve: SCurve, T: int, tau: int, counterpart: SCurve | None = None) -> float:
    """Bits per message averaged over the two directions of a pair."""
    return 0.5 * (h_ab(curve, T, tau, counterpart) + h_ba(curve, T, tau, counterpart))


def overhead(bits_per_message: float, T: int) -> float:
    """Signaling cost in bits per chunk-time."""
    if T <= 0:
        raise ValueError("T must be positive")
    return bits_per_message / T


# ======================================================================
# Calibration
# ======================================================================

# Fraction of the window at which the two-segment knee sits.  The
# information target alone cannot pin down the curve's shape (a whole
# (breakpoint, level) family matches any reachable target), so the knee is
# fixed as a documented default: an early sharp rise followed by a long
# plateau-approach, the profile measured fill curves show.
DEFAULT_KNEE_FRAC = 0.09
# How far, in bits, a calibrated curve's information may miss its target.
CALIBRATION_TOL = 0.5
_GRID_BLOCK = 2**12


def _two_segment_h(n: int, b: int, p_break) -> np.ndarray:
    """h_sbms of the two-segment curve at each value of ``p_break``, bit for
    bit as ``h_sbms(two_segment_curve(n, b, pb))`` computes it."""
    return _h_arr(_two_segment_probs(n, b, p_break)).sum(axis=1)


def _solve_p_break(target: float, n: int, b: int):
    """p_break that brings a fixed breakpoint's curve to the target, or None
    if the target is out of reach; coarse grid then bisection on the
    bracketing interval."""
    grid = np.linspace(0.0, 1.0, 257)
    # Blocks of about _GRID_BLOCK values, or one row each, bound the pass's memory.
    blocks = np.array_split(grid, min(grid.size, -(-grid.size * n // _GRID_BLOCK)))
    vals = np.concatenate([_two_segment_h(n, b, block) for block in blocks])
    lo = None
    for k in range(len(grid) - 1):
        if (vals[k] - target) * (vals[k + 1] - target) <= 0.0:
            lo, hi = grid[k], grid[k + 1]
            flo = vals[k] - target
            break
    if lo is None:
        best = int(np.abs(vals - target).argmin())
        return float(grid[best]) if abs(vals[best] - target) <= CALIBRATION_TOL else None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fmid = float(_two_segment_h(n, b, mid)[0]) - target
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=64)
def calibrate_curve(target_h_sbms: float, n: int) -> TwoSegmentParams:
    """Two-segment parameters whose per-message information matches the
    target within ``CALIBRATION_TOL`` bits.

    The endpoints stay pinned at 0 and 1 (fresh positions empty, oldest
    certain) except for the two degenerate targets: 0 bits needs the
    deterministic curve, n bits the flat coin-flip curve.  The breakpoint is
    the knee b0 at ``DEFAULT_KNEE_FRAC`` of the window if the target is
    reachable there, else the largest breakpoint below b0 that reaches it.
    Below mid-window a lower breakpoint widens the range of information a
    curve can carry, so the reachable breakpoints are a prefix 1..r and one
    bisection finds r: at most ceil(log2 b0) + 2 solves in all.
    """
    if n < 2:
        raise CalibrationError("window too small to calibrate")
    if not 0.0 <= target_h_sbms <= n:
        raise CalibrationError(
            f"target {target_h_sbms} outside the reachable range [0, {n}]"
        )
    if target_h_sbms == 0.0:
        return TwoSegmentParams(n - 1, 0.0)
    if target_h_sbms == float(n):
        return TwoSegmentParams(n // 2, 0.5, terminal=0.5, initial=0.5)
    b = min(max(int(round(DEFAULT_KNEE_FRAC * (n - 1))), 1), n - 2)
    pb = _solve_p_break(target_h_sbms, n, b)
    if pb is None:
        # The index of the first unreachable breakpoint in 1..b-1 is the last reachable one.
        b = bisect.bisect_left(range(1, b), True,
                               key=lambda k: _solve_p_break(target_h_sbms, n, k) is None)
        if b == 0:
            raise CalibrationError(f"no two-segment curve reaches {target_h_sbms} bits "
                                   f"within {CALIBRATION_TOL} for n={n}")
        pb = _solve_p_break(target_h_sbms, n, b)
    return TwoSegmentParams(b, pb)


# ======================================================================
# Grid reports
# ======================================================================

def _csv_line(row, names) -> str:
    """The dataclass ``row``'s fields ``names`` as one CSV line.  A field
    declared ``float`` prints with six decimals whatever the value's type,
    so an int there prints ``3.000000``; any other field prints as ``str``."""
    floats = {f.name for f in fields(row) if f.type in ("float", float)}
    return ",".join(
        f"{getattr(row, k):.6f}" if k in floats else str(getattr(row, k)) for k in names
    )


@dataclass(frozen=True)
class EntropyRow:
    scheme: str
    T: int
    tau: int
    bits_per_msg: float
    bits_per_chunktime: float
    gain_vs_sbms: float
    gain_vs_spbms: float


REPORT_COLUMNS = tuple(f.name for f in fields(EntropyRow))


@dataclass(frozen=True)
class EntropyReport:
    rows: tuple

    def __post_init__(self):
        for r in self.rows:
            if r.bits_per_msg < -1e-12 or r.bits_per_chunktime < -1e-12:
                raise ValueError(f"negative information quantity in row {r}")

    def to_csv(self) -> str:
        lines = [",".join(REPORT_COLUMNS)]
        lines += [_csv_line(r, REPORT_COLUMNS) for r in self.rows]
        return "\n".join(lines) + "\n"

    def mean_gain(self, scheme: str, baseline: str) -> float:
        """Average of the per-T gains of ``scheme`` over ``baseline``
        (gain = 1 - H_scheme/H_baseline), one grid point per T."""
        col = {"sbms": "gain_vs_sbms", "spbms": "gain_vs_spbms"}[baseline]
        rows = [r for r in self.rows if r.scheme == scheme]
        if not rows:
            raise ValueError("no matching rows")
        return float(np.mean([getattr(r, col) for r in rows]))


def _gain(h_new: float, h_old: float) -> float:
    return 1.0 - h_new / h_old if h_old > 0.0 else 0.0


def report_grid(curve: SCurve, T_list, taus="min") -> EntropyReport:
    """Evaluate every scheme over a (T, tau) grid.

    ``taus`` selects the tau grid per T: "min" (just tau=1), "sweep"
    (1..T), or an explicit list (entries filtered to 1..T).
    """
    Ts = [int(T) for T in T_list]
    if not Ts:
        raise ValueError("empty T list")
    h0 = h_sbms(curve)
    rows = []
    for T in Ts:
        _check_T(curve.n, T)
        if taus == "min":
            tau_grid = [1]
        elif taus == "sweep":
            tau_grid = list(range(1, T + 1))
        else:
            tau_grid = [t for t in (int(x) for x in taus) if 1 <= t <= T]
            if not tau_grid:
                raise ValueError(f"no admissible tau for T={T}")
        hs = h_spbms(curve, T)
        for tau in tau_grid:
            hab = h_ab(curve, T, tau)
            hba = h_ba(curve, T, tau)
            # A row's gain over itself is 1 - h/h == 0.0, or 0.0 for h == 0.
            for scheme, h in (("sbms", h0), ("spbms", hs), ("ab", hab), ("ba", hba),
                              ("ppbms", 0.5 * (hab + hba))):
                rows.append(EntropyRow(scheme, T, tau, h, overhead(h, T), _gain(h, h0),
                                       _gain(h, hs)))
    return EntropyReport(tuple(rows))
