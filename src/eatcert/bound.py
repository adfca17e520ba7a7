"""Single-round entropy lower bounds from device winning statistics.

The bound takes a device's preimage-test and equation-test winning rates (and
its measured commutator defect) and returns a certified lower bound on the
conditional entropy of the preimage measurement against quantum side
information.  entropy_bound, entropy_bounds and entropy_bound_combined run
one numpy kernel that evaluates many rate pairs at once; the scalar
_entropy_bound_pure and _entropy_bound_combined_pure spell out the same
algorithm with numerics.maximize_scalar and minimize_scalar and are the
reference the tests compare the kernel against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Tuple

import numpy as np

from .numerics import (
    _INV_GOLDEN,
    DEFAULT_OPTIMIZER,
    Interval,
    OptimizerConfig,
    _golden_refine,
    _grid,
    binary_entropy,
    clamp01,
    maximize_scalar,
    minimize_scalar,
)

# The package has no compiled kernels; the benchmark harness reads this flag
# to label its runs.
USING_COMPILED_KERNELS = False

__all__ = [
    "USING_COMPILED_KERNELS",
    "WinningStats",
    "BoundConfig",
    "DEFAULT_BOUND_CONFIG",
    "bad_subspace_coefficient",
    "entropy_bound_fixed_overlap",
    "projection_continuity_penalty",
    "entropy_bound",
    "entropy_bounds",
    "entropy_bound_combined",
]

_SQRT2 = math.sqrt(2.0)
_LOG2_3 = math.log2(3.0)


@dataclass(frozen=True)
class WinningStats:
    """Observable winning rates of a device.

    preimage_rate is the probability of not failing the preimage check,
    equation_rate the probability of winning the equation test, and defect the
    commutator defect of the device's two measurements.
    """

    preimage_rate: float
    equation_rate: float
    defect: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.preimage_rate <= 1.0:
            raise ValueError(f"preimage_rate {self.preimage_rate} outside [0, 1]")
        if not 0.0 <= self.equation_rate <= 1.0:
            raise ValueError(f"equation_rate {self.equation_rate} outside [0, 1]")
        if self.defect < 0.0:
            raise ValueError(f"defect {self.defect} must be non-negative")

    def combined(self, beta: float) -> float:
        """Overall test winning rate when the equation test runs with
        probability beta."""
        return (1.0 - beta) * self.preimage_rate + beta * self.equation_rate


@dataclass(frozen=True)
class BoundConfig:
    # Open left endpoint of the overlap domain handled by a small offset.
    c_domain: Interval = field(default_factory=lambda: Interval(0.5 + 1e-6, 1.0))
    optimizer: OptimizerConfig = DEFAULT_OPTIMIZER

    def __post_init__(self):
        if self.c_domain.lo <= 0.5 or self.c_domain.hi > 1.0:
            raise ValueError("overlap domain must sit inside (1/2, 1]")


DEFAULT_BOUND_CONFIG = BoundConfig()


def bad_subspace_coefficient(c: float) -> float:
    """Weight 10/(2c-1)^2 controlling how much state can live outside the
    good subspace at overlap threshold c."""
    if c <= 0.5:
        raise ValueError(f"overlap threshold c={c} must exceed 1/2")
    # Squared by multiplying, as numpy's ** 2 does, so that the scalar curve
    # and the numpy kernel agree: libm's pow(t, 2) differs from t * t in the
    # last bit on about 0.1% of inputs.
    t = 2.0 * c - 1.0
    return 10.0 / (t * t)


def entropy_bound_fixed_overlap(stats: WinningStats, c: float) -> float:
    """Uncertainty part of the entropy bound at a fixed overlap threshold c.

    This is the split form without the state-replacement continuity penalty;
    entropy_bound subtracts that penalty after optimizing over c.
    """
    if not 0.5 < c <= 1.0:
        raise ValueError(f"overlap threshold c={c} outside (1/2, 1]")
    return _fixed_overlap_curve(stats)(c)


def _rate_terms(omega_p: float, omega_m: float, defect: float) -> Tuple[float, float]:
    """The terms of the uncertainty bound that do not depend on c: the
    penalty pen, and the binary entropy's argument before a(c) pen is
    subtracted from it."""
    pen = defect / 5.0 + _SQRT2 * (1.0 - omega_p) ** 0.25 + math.sqrt(1.0 - omega_m)
    return pen, omega_m - 2.0 * math.sqrt(1.0 - omega_p)


def _fixed_overlap_curve(stats: WinningStats) -> Callable[[float], float]:
    """entropy_bound_fixed_overlap(stats, .) for c in (1/2, 1], with the terms
    that do not depend on c computed once; the operations per c, and so the
    values, are the same."""
    pen, arg_base = _rate_terms(stats.preimage_rate, stats.equation_rate, stats.defect)
    log2 = math.log2

    # The optimizers call this ~10^5 times per combined bound, so the clamps
    # are spelled as comparisons: x if x > 0.0 else 0.0 is max(0.0, x).
    def at(c: float) -> float:
        t = 2.0 * c - 1.0
        a = 10.0 / (t * t)  # bad_subspace_coefficient(c)
        prefactor = 1.0 - a * pen
        if not prefactor > 0.0:
            return 0.0
        arg = arg_base - a * pen
        # Below 1/2 the binary entropy stops being decreasing and the bound
        # is vacuous; force the subtracted term to its maximum.
        hterm = 1.0 if arg < 0.5 else binary_entropy(clamp01(arg))
        gap = log2(1.0 / c) - hterm
        return prefactor * gap if gap > 0.0 else 0.0

    return at


def projection_continuity_penalty(omega_p: float) -> float:
    """Entropy cost of replacing the device state by its projection onto the
    non-failing preimage outcomes, as a function of the preimage rate."""
    if not 0.0 <= omega_p <= 1.0:
        raise ValueError(f"preimage rate {omega_p} outside [0, 1]")
    e = math.sqrt(1.0 - omega_p)
    if e <= 0.0:
        return 0.0
    return e * _LOG2_3 + (1.0 + e) * binary_entropy(e / (1.0 + e))


def _entropy_bound_pure(stats: WinningStats, cfg: BoundConfig) -> float:
    _, best = maximize_scalar(_fixed_overlap_curve(stats), cfg.c_domain, cfg.optimizer)
    return max(0.0, best - projection_continuity_penalty(stats.preimage_rate))


# Rows of the c grid evaluated per matrix; a chunk's temporaries stay near
# 100 kB with the 301-point rate grid.
_CHUNK_ROWS = 48


def _overlap_bound(a, log2_inv_c, pen, arg_base):
    """_fixed_overlap_curve elementwise over broadcast arrays, given
    a = bad_subspace_coefficient(c) and log2_inv_c = log2(1/c).

    arg never exceeds 1 (pen >= 0 and arg_base <= 1), so clamp01 reduces to
    the binary entropy being 0 at 1.
    """
    apen = a * pen
    prefactor = 1.0 - apen
    x = arg_base - apen
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    hterm = np.where(x < 0.5, 1.0, np.where(x < 1.0, h, 0.0))
    gap = log2_inv_c - hterm
    return np.where((prefactor > 0.0) & (gap > 0.0), prefactor * gap, 0.0)


def _golden_max(f, a: np.ndarray, b: np.ndarray, iters: int, tol: float) -> np.ndarray:
    """numerics._golden_refine, maximizing, on the brackets [a[i], b[i]] of
    all rows in lockstep; f maps one point per row to one value per row.
    Returns the midpoint of each final bracket.

    A row stops where the scalar loop breaks, once b - a <= tol: its bracket
    no longer moves, and what its c and d go on to hold is never read.
    """
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        active = b - a > tol
        if not active.any():
            break
        # left: the maximum lies in [a, d]; otherwise in [c, b].
        left = fc >= fd
        b = np.where(active & left, d, b)
        a = np.where(active & ~left, c, a)
        x = np.where(left, b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a))
        fx = f(x)
        c, fc, d, fd = (
            np.where(left, x, d),
            np.where(left, fx, fd),
            np.where(left, c, x),
            np.where(left, fc, fx),
        )
    return 0.5 * (a + b)


def _max_over_c(pen: np.ndarray, arg_base: np.ndarray, cfg: BoundConfig) -> np.ndarray:
    """Max over c of the uncertainty bound for each row of pen and arg_base:
    numerics.maximize_scalar's grid scan and golden-section refinement, run
    on all rows at once."""
    opt = cfg.optimizer
    xs = _grid(cfg.c_domain.lo, cfg.c_domain.hi, opt.grid_points)
    grid = np.array(xs)
    a_cols = 10.0 / (2.0 * grid - 1.0) ** 2
    # math.log2, as _fixed_overlap_curve has it: np.log2 differs from it in
    # the last bit on about 0.3% of inputs.  The grid's c are the same for
    # every row; the golden-section points are not, and use np.log2.
    log_cols = np.array([math.log2(1.0 / c) for c in xs])
    best_i = np.empty(len(pen), dtype=np.intp)
    best = np.empty(len(pen))
    for start in range(0, len(pen), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        values = _overlap_bound(a_cols, log_cols, pen[rows, None], arg_base[rows, None])
        # argmax keeps the earliest of tied grid points, as the scan does.
        best_i[rows] = values.argmax(axis=1)
        best[rows] = values.max(axis=1)
    if opt.refine_iterations == 0:
        return best
    lo = grid[np.maximum(best_i - 1, 0)]
    hi = grid[np.minimum(best_i + 1, len(xs) - 1)]

    def at(c):
        return _overlap_bound(10.0 / (2.0 * c - 1.0) ** 2, np.log2(1.0 / c), pen, arg_base)

    refined = at(_golden_max(at, lo, hi, opt.refine_iterations, opt.tolerance))
    return np.where((hi > lo) & (refined > best), refined, best)


def _bounds(rows: Sequence[Tuple[float, float, float]], cfg: BoundConfig) -> np.ndarray:
    """entropy_bound for rows of (preimage rate, *_rate_terms)."""
    omega_p, pen, arg_base = np.array(rows, dtype=float).reshape(-1, 3).T
    penalty = np.array([projection_continuity_penalty(wp) for wp in omega_p.tolist()])
    return np.maximum(0.0, _max_over_c(pen, arg_base, cfg) - penalty)


def entropy_bounds(
    stats: Sequence[WinningStats], cfg: BoundConfig = DEFAULT_BOUND_CONFIG
) -> np.ndarray:
    """entropy_bound of each element of stats, evaluated together."""
    return _bounds(
        [(s.preimage_rate, *_rate_terms(s.preimage_rate, s.equation_rate, s.defect)) for s in stats],
        cfg,
    )


def entropy_bound(stats: WinningStats, cfg: BoundConfig = DEFAULT_BOUND_CONFIG) -> float:
    """Entropy lower bound from both winning rates: maximum over the overlap
    threshold of the uncertainty bound, minus the continuity penalty, clamped
    at zero."""
    return float(entropy_bounds([stats], cfg)[0])


def _combined_feasible_range(omega: float, beta: float) -> Interval:
    # The equation rate (omega - (1-beta) wp) / beta must land in [0, 1].
    lo = max(0.0, (omega - beta) / (1.0 - beta))
    hi = min(1.0, omega / (1.0 - beta))
    return Interval(lo, hi)


def _entropy_bound_combined_pure(omega: float, beta: float, cfg: BoundConfig) -> float:
    dom = _combined_feasible_range(omega, beta)

    def worst_case(wp: float) -> float:
        wm = clamp01((omega - (1.0 - beta) * wp) / beta)
        return _entropy_bound_pure(WinningStats(clamp01(wp), wm, 0.0), cfg)

    _, best = minimize_scalar(worst_case, dom, cfg.optimizer)
    return best


def entropy_bound_combined(
    omega: float, beta: float, cfg: BoundConfig = DEFAULT_BOUND_CONFIG
) -> float:
    """Entropy lower bound from the combined test winning rate alone.

    Minimizes entropy_bound over every split of omega into preimage and
    equation rates consistent with the test mixing ratio beta.  The defect is
    taken as zero here; it enters the finite-size analysis through the slack.
    The search is numerics.minimize_scalar's, with the grid of splits
    evaluated in one pass.
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"combined rate {omega} outside [0, 1]")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"mixing ratio beta={beta} outside (0, 1)")
    dom = _combined_feasible_range(omega, beta)
    opt = cfg.optimizer

    def split(x: float) -> Tuple[float, float, float]:
        """(preimage rate, *_rate_terms) of the split at preimage rate x."""
        wp, wm = clamp01(x), clamp01((omega - (1.0 - beta) * x) / beta)
        return (wp, *_rate_terms(wp, wm, 0.0))

    xs = [dom.lo] if dom.lo == dom.hi else _grid(dom.lo, dom.hi, opt.grid_points)
    rows = []
    for x in xs:
        rows.append(split(x))
        # a(c) >= 10 for c <= 1, so a split with 1 - 10 pen <= 0 has
        # prefactor <= 0 at every c: its bound, and so the minimum over
        # splits, is 0.
        if 1.0 - 10.0 * rows[-1][1] <= 0.0:
            return 0.0
    values = _bounds(rows, cfg)
    # argmin keeps the earliest of tied grid points, as the scan does.
    i = int(values.argmin())
    best = float(values[i])
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
    if opt.refine_iterations > 0 and hi > lo:

        def at(x: float) -> float:
            return float(_bounds([split(x)], cfg)[0])

        _, refined = _golden_refine(at, lo, hi, opt.refine_iterations, opt.tolerance, -1.0)
        if refined < best:
            return refined
    return best
