"""Randomized verification suites.

Each suite draws random instances, checks a mathematical property of the
implementation against the exact oracle, and reports the worst slack
observed (positive slack = margin, negative = violation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from . import quantum
from .bound import (
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
from .eat import TradeoffCurve, TradeoffFunction, tradeoff_value
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
    # Slacks often come out as numpy scalars; report a plain float and bool.
    worst = float(worst)
    return SuiteReport(name, trials, worst >= -_TOL, worst, message)


def _vacuous(name: str) -> SuiteReport:
    return SuiteReport(name, 0, True, math.inf, "no trials requested; vacuous pass")


# The jordan, good-subspace and continuity suites draw a chunk of trials
# first, in the generator order of a trial-by-trial loop (no draw depends on
# a computed result), then group the chunk by dimension and run its linear
# algebra over the stacks.  numpy's stacked eigvalsh, qr and matmul repeat the
# per-matrix LAPACK and BLAS calls, so the reports are those of the
# trial-by-trial loop, bit for bit; tests/reference_suites.py holds that loop.
# The chunk bounds the memory that drawn instances and stacks hold.
_CHUNK = 250


def _stacked_slacks(trials: int, seed: int, draw, check) -> list:
    """Slacks in trial order.  ``draw(rng, k)`` draws trial k as a tuple
    whose first item is its dimension key; ``check(chunk)`` returns one
    slack per drawn trial, None for a skipped one."""
    rng = np.random.default_rng(seed)
    slacks = []
    for start in range(0, trials, _CHUNK):
        stop = min(trials, start + _CHUNK)
        slacks += check([draw(rng, k) for k in range(start, stop)])
    return slacks


def _by_dimension(chunk) -> List[Tuple[object, np.ndarray]]:
    """(key, indices) for each distinct dimension key, indices in trial order."""
    groups: Dict[object, list] = {}
    for i, drawn in enumerate(chunk):
        groups.setdefault(drawn[0], []).append(i)
    return [(key, np.array(idx)) for key, idx in groups.items()]


def _worst(slacks) -> float:
    """min over the slacks in trial order, skipped trials (None) left out."""
    return min([math.inf] + [s for s in slacks if s is not None])


def _trace(a: np.ndarray) -> np.ndarray:
    return np.trace(a, axis1=-2, axis2=-1)


def _dagger(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a.conj(), -1, -2)


def _draw_projector_pair(dim: int, rng: np.random.Generator):
    """The draws of random_projector(dim, rank, rng) for P and then for M:
    (rank_p, g_p, rank_m, g_m)."""
    rank_p = int(rng.integers(1, dim))
    g_p = quantum.random_ginibre((dim, dim), rng)
    rank_m = int(rng.integers(1, dim))
    return rank_p, g_p, rank_m, quantum.random_ginibre((dim, dim), rng)


def _projector_pairs(draws) -> Tuple[np.ndarray, np.ndarray]:
    """Stacks of P and of M from same-dimension projector-pair draws."""
    ranks = np.array([(d[0], d[2]) for d in draws])
    g = np.array([(d[1], d[3]) for d in draws])
    n, _, dim, _ = g.shape
    proj = quantum.projectors_from_ginibre(g.reshape(2 * n, dim, dim), ranks.ravel())
    proj = proj.reshape(g.shape)
    return proj[:, 0], proj[:, 1]


def _jordan_error(p: np.ndarray, m: np.ndarray, pinched: np.ndarray) -> float:
    """Worst reconstruction or block-spectrum error of one projector pair."""
    jb = quantum.jordan_decompose(p, m)
    # Reconstruct both projectors through the block resolution.
    resolution = np.array([b.projector() for b in jb.blocks] + [jb.residual_projector()])
    err = np.max(np.abs(resolution.sum(axis=0) - np.eye(len(p))))
    for op in (p, m):
        rebuilt = (resolution @ op @ resolution).sum(axis=0)
        err = max(err, np.max(np.abs(rebuilt - op)))
    # Spectrum of P M P + (1-P) M (1-P) inside each 2-dim block.
    if jb.blocks:
        basis = np.array([b.basis for b in jb.blocks])
        sub = _dagger(basis) @ pinched @ basis
        evals = np.sort(np.linalg.eigvalsh((sub + _dagger(sub)) / 2.0), axis=-1)
        c2 = np.array([math.cos(b.angle / 2.0) ** 2 for b in jb.blocks])
        expected = np.sort(np.column_stack([c2, 1.0 - c2]), axis=-1)
        err = max(err, float(np.max(np.abs(evals - expected))))
    return err


def _draw_jordan(rng: np.random.Generator, k: int):
    dim = int(rng.integers(2, 13))
    return dim, _draw_projector_pair(dim, rng)


def _check_jordan(chunk) -> list:
    slacks = [None] * len(chunk)
    for dim, idx in _by_dimension(chunk):
        ps, ms = _projector_pairs([chunk[i][1] for i in idx])
        qs = np.eye(dim) - ps
        pinched = ps @ ms @ ps + qs @ ms @ qs
        for i, p, m, pin in zip(idx, ps, ms, pinched):
            slacks[i] = _TOL - _jordan_error(p, m, pin)
    return slacks


def suite_jordan(trials: int, seed: int) -> SuiteReport:
    """Block reconstruction and the per-block spectrum identity."""
    if trials == 0:
        return _vacuous("jordan")
    slacks = _stacked_slacks(trials, seed, _draw_jordan, _check_jordan)
    return _report("jordan", trials, _worst(slacks), "slack = 1e-9 - worst error")


_GOOD_SUBSPACE_C = [0.55 + 0.05 * i for i in range(9)]


def _draw_good_subspace(rng: np.random.Generator, k: int):
    """(dim, projector-pair draws, Ginibre draw of phi, overlap threshold c)."""
    dim = int(rng.integers(2, 9))
    pair = _draw_projector_pair(dim, rng)
    g_phi = quantum.random_ginibre((dim, dim), rng)
    return dim, pair, g_phi, _GOOD_SUBSPACE_C[k % len(_GOOD_SUBSPACE_C)]


def _check_good_subspace(chunk) -> list:
    slacks = [None] * len(chunk)
    for dim, idx in _by_dimension(chunk):
        ps, ms = _projector_pairs([chunk[i][1] for i in idx])
        phis = quantum.density_from_ginibre(np.array([chunk[i][2] for i in idx]))
        qs = np.eye(dim) - ps
        pinched = np.real(_trace(ms @ ps @ phis @ ps) + _trace(ms @ qs @ phis @ qs))
        mu = np.abs(0.5 - pinched)
        omega = np.real(_trace(ms @ phis))
        cs = [chunk[i][3] for i in idx]
        gammas = np.array(
            [quantum.good_subspace_projector(p, m, c) for p, m, c in zip(ps, ms, cs)]
        )
        lhs = np.real(_trace((np.eye(dim) - gammas) @ phis))
        for j, i in enumerate(idx):
            rhs = bad_subspace_coefficient(cs[j]) * (
                mu[j] / 5.0 + math.sqrt(max(0.0, 1.0 - omega[j]))
            )
            slacks[i] = rhs - lhs[j]
    return slacks


def suite_good_subspace(trials: int, seed: int) -> SuiteReport:
    """Trace bound on the state weight outside the good subspace."""
    if trials == 0:
        return _vacuous("good-subspace")
    slacks = _stacked_slacks(trials, seed, _draw_good_subspace, _check_good_subspace)
    return _report("good-subspace", trials, _worst(slacks), "slack = bound - trace")


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
    tf = TradeoffFunction(TradeoffCurve(beta, gamma), omega_0=1.0)
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


def _draw_continuity(rng: np.random.Generator, k: int):
    """((da, db), Ginibre draws of rho and sigma, mixing weight lambda)."""
    da = int(rng.integers(2, 4))
    db = int(rng.integers(2, 4))
    g_rho = quantum.random_ginibre((da * db, da * db), rng)
    g_sigma = quantum.random_ginibre((da * db, da * db), rng)
    return (da, db), g_rho, g_sigma, float(rng.uniform(0.0, 1.0))


def _check_continuity(chunk) -> list:
    slacks = [None] * len(chunk)
    for (da, db), idx in _by_dimension(chunk):
        rho = quantum.density_from_ginibre(np.array([chunk[i][1] for i in idx]))
        sigma = quantum.density_from_ginibre(np.array([chunk[i][2] for i in idx]))
        # Pull sigma toward rho so small distances get exercised too.
        lam = np.array([chunk[i][3] for i in idx])[:, None, None]
        sigma = lam * rho + (1.0 - lam) * sigma
        eps = quantum.trace_distance(rho, sigma)
        kept = ~(eps >= 1.0)
        if not kept.any():
            continue
        gap = np.abs(
            quantum.conditional_entropy(rho[kept], (da, db))
            - quantum.conditional_entropy(sigma[kept], (da, db))
        )
        for i, e, g in zip(idx[kept], eps[kept], gap):
            allowed = e * math.log2(da) + (1.0 + e) * binary_entropy(e / (1.0 + e))
            slacks[i] = allowed - g
    return slacks


def suite_continuity(trials: int, seed: int) -> SuiteReport:
    """Conditional-entropy continuity in the trace distance."""
    if trials == 0:
        return _vacuous("continuity")
    slacks = _stacked_slacks(trials, seed, _draw_continuity, _check_continuity)
    return _report("continuity", trials, _worst(slacks), "slack = allowance - gap")


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
