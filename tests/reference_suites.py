"""Trial-by-trial reference for the verification suites.

These are the suite loops the library ran before the suites drew every
instance first and ran their linear algebra over stacks: each trial builds
its own instances with the ``quantum.random_*`` constructors and checks
them on its own.  The exact entropies of ``bound-vs-oracle`` and
``tradeoff`` come from a purification of rho_DE and the
measurement-on-D conditional entropy, the pipeline the library used before
it computed them on rho_D.  Tests compare ``run_suite`` with these loops.
"""

import math

import numpy as np

from eatcert import quantum
from eatcert.bound import (
    bad_subspace_coefficient,
    entropy_bound_fixed_overlap,
    projection_continuity_penalty,
)
from eatcert.devices import device_operators, device_stats, random_device
from eatcert.eat import TradeoffCurve, TradeoffFunction, tradeoff_value
from eatcert.numerics import binary_entropy
from eatcert.verify import _TOL, _report, _vacuous


def _purified_with_povm(dev):
    rho_de, pi3, m2, (dd, de) = device_operators(dev)
    rho_pure = quantum.purify(rho_de)
    # The purification lives on (D E) (x) F; regroup as D (x) (E F).
    return rho_pure, pi3, m2, (dd, de * dd * de)


def exact_round_entropy_purified(dev):
    rho_pure, pi3, _, dims = _purified_with_povm(dev)
    return quantum.conditional_measurement_entropy(rho_pure, pi3, dims)


def exact_equation_entropy_purified(dev):
    rho_pure, _, m2, dims = _purified_with_povm(dev)
    return quantum.conditional_measurement_entropy(rho_pure, m2, dims)


def suite_jordan(trials, seed):
    if trials == 0:
        return _vacuous("jordan")
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(trials):
        dim = int(rng.integers(2, 13))
        p = quantum.random_projector(dim, int(rng.integers(1, dim)), rng)
        m = quantum.random_projector(dim, int(rng.integers(1, dim)), rng)
        jb = quantum.jordan_decompose(p, m)
        resolution = [b.projector() for b in jb.blocks]
        resolution.append(jb.residual_projector())
        total = sum(resolution)
        err = np.max(np.abs(total - np.eye(dim)))
        for op in (p, m):
            rebuilt = sum(b @ op @ b for b in resolution)
            err = max(err, np.max(np.abs(rebuilt - op)))
        pinched = p @ m @ p + (np.eye(dim) - p) @ m @ (np.eye(dim) - p)
        for b in jb.blocks:
            sub = b.basis.conj().T @ pinched @ b.basis
            evals = np.sort(np.linalg.eigvalsh((sub + sub.conj().T) / 2.0))
            c2 = math.cos(b.angle / 2.0) ** 2
            expected = np.sort([c2, 1.0 - c2])
            err = max(err, float(np.max(np.abs(evals - expected))))
        worst = min(worst, _TOL - err)
    return _report("jordan", trials, worst, "slack = 1e-9 - worst error")


def suite_good_subspace(trials, seed):
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


def suite_bound_vs_oracle(trials, seed):
    if trials == 0:
        return _vacuous("bound-vs-oracle")
    rng = np.random.default_rng(seed)
    worst = math.inf
    c_grid = [0.5 + 1e-6 + i * (0.5 - 2e-6) / 19 for i in range(20)]
    for _ in range(trials):
        dev = random_device(rng)
        stats = device_stats(dev)
        exact = exact_round_entropy_purified(dev)
        for c in c_grid:
            bound = entropy_bound_fixed_overlap(
                stats, c
            ) - projection_continuity_penalty(stats.preimage_rate)
            worst = min(worst, exact - bound)
    return _report("bound-vs-oracle", trials, worst, "slack = oracle - bound")


def suite_tradeoff(trials, seed):
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
        exact = (1.0 - beta * gamma) * exact_round_entropy_purified(dev) + (
            beta * gamma
        ) * exact_equation_entropy_purified(dev)
        worst = min(worst, exact - value)
    return _report("tradeoff", trials, worst, "slack = exact - tradeoff value")


def suite_continuity(trials, seed):
    if trials == 0:
        return _vacuous("continuity")
    rng = np.random.default_rng(seed)
    worst = math.inf
    for _ in range(trials):
        da = int(rng.integers(2, 4))
        db = int(rng.integers(2, 4))
        rho = quantum.random_density_matrix(da * db, rng)
        sigma = quantum.random_density_matrix(da * db, rng)
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


REFERENCE_SUITES = {
    "jordan": suite_jordan,
    "good-subspace": suite_good_subspace,
    "bound-vs-oracle": suite_bound_vs_oracle,
    "tradeoff": suite_tradeoff,
    "continuity": suite_continuity,
}
