"""Single-round entropy lower bounds from device winning statistics.

The bound takes a device's preimage-test and equation-test winning rates (and
its measured commutator defect) and returns a certified lower bound on the
conditional entropy of the preimage measurement against quantum side
information.  Hot paths dispatch to compiled kernels when available; a
pure-Python mirror of the same algorithm is used otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .numerics import (
    DEFAULT_OPTIMIZER,
    Interval,
    OptimizerConfig,
    binary_entropy,
    clamp01,
    maximize_scalar,
    minimize_scalar,
)

try:
    from . import _kernels

    USING_COMPILED_KERNELS = True
except ImportError:  # pragma: no cover - depends on build environment
    _kernels = None
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
    return 10.0 / (2.0 * c - 1.0) ** 2


def entropy_bound_fixed_overlap(stats: WinningStats, c: float) -> float:
    """Uncertainty part of the entropy bound at a fixed overlap threshold c.

    This is the split form without the state-replacement continuity penalty;
    entropy_bound subtracts that penalty after optimizing over c.
    """
    if not 0.5 < c <= 1.0:
        raise ValueError(f"overlap threshold c={c} outside (1/2, 1]")
    return _fixed_overlap_curve(stats)(c)


def _fixed_overlap_curve(stats: WinningStats) -> Callable[[float], float]:
    """entropy_bound_fixed_overlap(stats, .) for c in (1/2, 1], with the terms
    that do not depend on c computed once; the operations per c, and so the
    values, are the same."""
    pen = (
        stats.defect / 5.0
        + _SQRT2 * (1.0 - stats.preimage_rate) ** 0.25
        + math.sqrt(1.0 - stats.equation_rate)
    )
    arg_base = stats.equation_rate - 2.0 * math.sqrt(1.0 - stats.preimage_rate)
    log2 = math.log2

    # The optimizers call this ~10^5 times per combined bound, so the clamps
    # are spelled as comparisons: x if x > 0.0 else 0.0 is max(0.0, x).
    def at(c: float) -> float:
        a = 10.0 / (2.0 * c - 1.0) ** 2  # bad_subspace_coefficient(c)
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


def entropy_bound(stats: WinningStats, cfg: BoundConfig = DEFAULT_BOUND_CONFIG) -> float:
    """Entropy lower bound from both winning rates: maximum over the overlap
    threshold of the uncertainty bound, minus the continuity penalty, clamped
    at zero."""
    if _kernels is not None:
        return _kernels.two_var_bound(
            stats.preimage_rate,
            stats.equation_rate,
            stats.defect,
            0.0,  # the kernels' slack argument
            cfg.c_domain.lo,
            cfg.c_domain.hi,
            cfg.optimizer.grid_points,
            cfg.optimizer.refine_iterations,
            cfg.optimizer.tolerance,
        )
    return _entropy_bound_pure(stats, cfg)


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
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"combined rate {omega} outside [0, 1]")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"mixing ratio beta={beta} outside (0, 1)")
    if _kernels is not None:
        return _kernels.combined_bound(
            omega,
            beta,
            0.0,  # the kernels' slack argument
            cfg.c_domain.lo,
            cfg.c_domain.hi,
            cfg.optimizer.grid_points,
            cfg.optimizer.refine_iterations,
            cfg.optimizer.tolerance,
        )
    return _entropy_bound_combined_pure(omega, beta, cfg)
