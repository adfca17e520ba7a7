"""Randomized verification suites.

Each suite draws random instances, checks a mathematical property of the
implementation against the exact oracle, and reports the worst slack
observed (positive slack = margin, negative = violation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from . import quantum
from .bound import (
    WinningStats,
    bad_subspace_coefficient,
    entropy_bound_fixed_overlap,
    projection_continuity_penalty,
)
from .devices import (
    exact_equation_entropy,
    exact_round_entropy,
    device_stats,
    random_device,
)
from .eat import RATE_BOUND_CONFIG, TradeoffFunction, tradeoff_value
from .numerics import binary_entropy

__all__ = ["SuiteReport", "SUITES", "run_suite"]

_TOL = 1e-9


@dataclass(frozen=True)
class SuiteReport:
    name: str
    trials: int
    passed: bool
    worst_slack: float
    message: str = ""


def _report(name: str, trials: int, worst: float, message: str = "") -> SuiteReport:
    # Slacks often come out as numpy scalars; report a plain float.
    return SuiteReport(name, trials, worst >= -_TOL, float(worst), message)


def _vacuous(name: str) -> SuiteReport:
    return SuiteReport(name, 0, True, math.inf, "no trials requested; vacuous pass")


def suite_jordan(trials: int, seed: int) -> SuiteReport:
    """Block reconstruction and the per-block spectrum identity."""
    if trials == 0:
        return _vacuous("jordan")
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(trials):
        dim = int(rng.integers(2, 13))
        p = quantum.random_projector(dim, int(rng.integers(1, dim)), rng)
        m = quantum.random_projector(dim, int(rng.integers(1, dim)), rng)
        jb = quantum.jordan_decompose(p, m)
        # Reconstruct both projectors through the block resolution.
        resolution = [b.projector() for b in jb.blocks]
        resolution.append(jb.residual_projector())
        total = sum(resolution)
        err = np.max(np.abs(total - np.eye(dim)))
        for op in (p, m):
            rebuilt = sum(b @ op @ b for b in resolution)
            err = max(err, np.max(np.abs(rebuilt - op)))
        # Spectrum of P M P + (1-P) M (1-P) inside each 2-dim block.
        pinched = p @ m @ p + (np.eye(dim) - p) @ m @ (np.eye(dim) - p)
        for b in jb.blocks:
            sub = b.basis.conj().T @ pinched @ b.basis
            evals = np.sort(np.linalg.eigvalsh((sub + sub.conj().T) / 2.0))
            c2 = math.cos(b.angle / 2.0) ** 2
            expected = np.sort([c2, 1.0 - c2])
            err = max(err, float(np.max(np.abs(evals - expected))))
        worst = min(worst, _TOL - err)
    return _report("jordan", trials, worst, "slack = 1e-9 - worst error")


def suite_good_subspace(trials: int, seed: int) -> SuiteReport:
    """Trace bound on the state weight outside the good subspace."""
    if trials == 0:
        return _vacuous("good-subspace")
    rng = np.random.default_rng(seed)
    worst = math.inf
    c_values = [0.55 + 0.05 * i for i in range(9)]
    for k in range(trials):
        dim = int(rng.integers(2, 9))
        p = quantum.random_projector(dim, int(rng.integers(1, dim)), rng)
        m = quantum.random_projector(dim, int(rng.integers(1, dim)), rng)
        phi = quantum.random_density_matrix(dim, rng)
        q = np.eye(dim) - p
        pinched = np.real(np.trace(m @ p @ phi @ p) + np.trace(m @ q @ phi @ q))
        mu = abs(0.5 - pinched)
        omega = float(np.real(np.trace(m @ phi)))
        c = c_values[k % len(c_values)]
        gamma_proj = quantum.good_subspace_projector(p, m, c)
        lhs = float(np.real(np.trace((np.eye(dim) - gamma_proj) @ phi)))
        rhs = bad_subspace_coefficient(c) * (
            mu / 5.0 + math.sqrt(max(0.0, 1.0 - omega))
        )
        worst = min(worst, rhs - lhs)
    return _report("good-subspace", trials, worst, "slack = bound - trace")


def suite_bound_vs_oracle(trials: int, seed: int) -> SuiteReport:
    """Analytic entropy bound never exceeds the exact oracle entropy."""
    if trials == 0:
        return _vacuous("bound-vs-oracle")
    rng = np.random.default_rng(seed)
    worst = math.inf
    c_grid = [0.5 + 1e-6 + i * (0.5 - 2e-6) / 19 for i in range(20)]
    for _ in range(trials):
        dev = random_device(rng)
        stats = device_stats(dev)
        exact = exact_round_entropy(dev)
        for c in c_grid:
            bound = entropy_bound_fixed_overlap(
                stats, c
            ) - projection_continuity_penalty(stats.preimage_rate)
            worst = min(worst, exact - bound)
    return _report("bound-vs-oracle", trials, worst, "slack = oracle - bound")


def suite_tradeoff(trials: int, seed: int) -> SuiteReport:
    """Tradeoff value at a device's outcome distribution never exceeds the
    device's exact per-round entropy contribution."""
    if trials == 0:
        return _vacuous("tradeoff")
    rng = np.random.default_rng(seed)
    worst = math.inf
    gamma = 1.0
    beta = 0.045
    tf = TradeoffFunction(beta, gamma, omega_0=1.0, cfg=RATE_BOUND_CONFIG)
    for _ in range(trials):
        dev = random_device(rng)
        stats = device_stats(dev)
        omega = stats.combined(beta)
        p = (1.0 - gamma, gamma * (1.0 - omega), gamma * omega)
        value = tradeoff_value(p, tf)
        exact = (1.0 - beta * gamma) * exact_round_entropy(dev) + (
            beta * gamma
        ) * exact_equation_entropy(dev)
        worst = min(worst, exact - value)
    return _report("tradeoff", trials, worst, "slack = exact - tradeoff value")


def suite_continuity(trials: int, seed: int) -> SuiteReport:
    """Conditional-entropy continuity in the trace distance."""
    if trials == 0:
        return _vacuous("continuity")
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(trials):
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        rho = quantum.random_density_matrix(da * db, rng)
        sigma = quantum.random_density_matrix(da * db, rng)
        # Pull sigma toward rho so small distances get exercised too.
        lam = float(rng.uniform(0.0, 1.0))
        sigma = lam * rho + (1.0 - lam) * sigma
        eps = quantum.trace_distance(rho, sigma)
        if eps >= 1.0:
            continue
        gap = abs(
            quantum.conditional_entropy(rho, (da, db))
            - quantum.conditional_entropy(sigma, (da, db))
        )
        allowed = eps * math.log2(da) + (1.0 + eps) * binary_entropy(
            eps / (1.0 + eps)
        )
        worst = min(worst, allowed - gap)
    return _report("continuity", trials, worst, "slack = allowance - gap")


SUITES: Dict[str, Callable[[int, int], SuiteReport]] = {
    "jordan": suite_jordan,
    "good-subspace": suite_good_subspace,
    "bound-vs-oracle": suite_bound_vs_oracle,
    "tradeoff": suite_tradeoff,
    "continuity": suite_continuity,
}


def run_suite(name: str, trials: int, seed: int) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if trials < 0:
        raise ValueError("trials must be non-negative")
    return SUITES[name](trials, seed)
