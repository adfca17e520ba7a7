"""Scalar special functions and bounded one-dimensional optimizers.

Everything here is deterministic: the optimizers are a dense grid scan
followed by golden-section refinement around the best grid cell, so repeated
runs with identical inputs give identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

__all__ = [
    "Interval",
    "OptimizerConfig",
    "DEFAULT_OPTIMIZER",
    "binary_entropy",
    "clamp01",
    "maximize_scalar",
    "minimize_scalar",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Interval:
    """A finite closed interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"invalid interval: lo={self.lo} > hi={self.hi}")


@dataclass(frozen=True)
class OptimizerConfig:
    grid_points: int = 301
    refine_iterations: int = 40
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.grid_points < 2:
            raise ValueError("grid_points must be >= 2")
        if self.refine_iterations < 0:
            raise ValueError("refine_iterations must be >= 0")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


DEFAULT_OPTIMIZER = OptimizerConfig()


def binary_entropy(x: float) -> float:
    """Shannon entropy (base 2) of a {x, 1-x} distribution, with 0 log 0 = 0."""
    if x < -1e-12 or x > 1.0 + 1e-12:
        raise ValueError(f"binary_entropy argument {x} outside [0, 1]")
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _grid(lo: float, hi: float, n: int) -> list:
    step = (hi - lo) / (n - 1)
    xs = [lo + i * step for i in range(n)]
    xs[-1] = hi
    return xs


def _golden_refine(f, a, b, iters, tol, sign):
    """Golden-section pass on [a, b]; sign=+1 maximizes, sign=-1 minimizes.

    Returns the midpoint of the final bracket and its (signed back) value.
    """
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc = sign * f(c)
    fd = sign * f(d)
    for _ in range(iters):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = sign * f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = sign * f(d)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def _scan_and_refine(f, domain, cfg, sign):
    """Grid scan plus golden-section refinement around the best grid cell;
    sign=+1 maximizes, sign=-1 minimizes.  Returns (argbest, f there).

    The scan maximizes sign * f, so ties keep the earliest grid point either
    way.  Both endpoints are grid points, so the result is never worse than
    f at either of them.
    """
    xs = _grid(domain.lo, domain.hi, cfg.grid_points)
    best_i = 0
    best_v = sign * f(xs[0])
    for i in range(1, len(xs)):
        v = sign * f(xs[i])
        if v > best_v:
            best_i, best_v = i, v
    a = xs[best_i - 1] if best_i > 0 else xs[0]
    b = xs[best_i + 1] if best_i < len(xs) - 1 else xs[-1]
    if cfg.refine_iterations > 0 and b > a:
        xr, vr = _golden_refine(f, a, b, cfg.refine_iterations, cfg.tolerance, sign)
        if sign * vr > best_v:
            return xr, vr
    return xs[best_i], sign * best_v


def maximize_scalar(
    f: Callable[[float], float],
    domain: Interval,
    cfg: OptimizerConfig = DEFAULT_OPTIMIZER,
) -> Tuple[float, float]:
    """(argmax, max) of f over the domain; see _scan_and_refine."""
    return _scan_and_refine(f, domain, cfg, +1.0)


def minimize_scalar(
    f: Callable[[float], float],
    domain: Interval,
    cfg: OptimizerConfig = DEFAULT_OPTIMIZER,
) -> Tuple[float, float]:
    """(argmin, min) of f over the domain; see _scan_and_refine."""
    return _scan_and_refine(f, domain, cfg, -1.0)
