import math

import numpy as np
import pytest

from eatcert import quantum
from eatcert.numerics import binary_entropy

RNG = lambda seed=0: np.random.default_rng(seed)

BELL = np.outer(
    np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
    np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2),
)


def naive_partial_trace(rho, dims, traced):
    da, db = dims
    if traced == 1:
        out = np.zeros((da, da), dtype=complex)
        for i in range(da):
            for k in range(da):
                for j in range(db):
                    out[i, k] += rho[i * db + j, k * db + j]
    else:
        out = np.zeros((db, db), dtype=complex)
        for j in range(db):
            for l in range(db):
                for i in range(da):
                    out[j, l] += rho[i * db + j, i * db + l]
    return out


class TestValidation:
    def test_density_matrix_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            quantum.check_density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_density_matrix_rejects_negative(self):
        with pytest.raises(ValueError):
            quantum.check_density_matrix(np.diag([1.5, -0.5]))

    def test_projector_rejects_non_idempotent(self):
        with pytest.raises(ValueError):
            quantum.check_projector(np.diag([0.5, 0.5]))

    def test_povm_must_sum_to_identity(self):
        with pytest.raises(ValueError):
            quantum.check_povm([np.diag([0.5, 0.5]), np.diag([0.4, 0.5])])


class TestPartialTrace:
    def test_bell_marginal(self):
        out = quantum.partial_trace(BELL, (2, 2), traced=1)
        assert np.allclose(out, np.eye(2) / 2)

    def test_product_state(self):
        rho_a = np.diag([0.3, 0.7]).astype(complex)
        rho_b = np.diag([0.9, 0.1]).astype(complex)
        out = quantum.partial_trace(np.kron(rho_a, rho_b), (2, 2), traced=1)
        assert np.allclose(out, rho_a)

    def test_against_naive_contraction(self):
        rng = RNG(1)
        rho = quantum.random_density_matrix(4, rng)
        for traced in (0, 1):
            got = quantum.partial_trace(rho, (2, 2), traced)
            want = naive_partial_trace(rho, (2, 2), traced)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            quantum.partial_trace(np.eye(4) / 4, (2, 3), 0)


class TestEntropies:
    def test_maximally_mixed(self):
        assert quantum.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)

    def test_pure_state(self):
        assert quantum.von_neumann_entropy(
            quantum.random_pure_state(3, RNG(2))
        ) == pytest.approx(0.0, abs=1e-9)

    def test_diagonal_matches_binary_entropy(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        assert quantum.von_neumann_entropy(rho) == pytest.approx(
            binary_entropy(0.25), abs=1e-12
        )


class TestConditionalMeasurementEntropy:
    COMP = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]

    def test_plus_state_no_side_info(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        rho = np.kron(plus, np.array([[1.0]], dtype=complex))
        got = quantum.conditional_measurement_entropy(rho, self.COMP, (2, 1))
        assert got == pytest.approx(1.0, abs=1e-10)

    def test_bell_state_outcomes_known_to_e(self):
        got = quantum.conditional_measurement_entropy(BELL, self.COMP, (2, 2))
        assert got == pytest.approx(0.0, abs=1e-10)

    def test_against_direct_cq_construction(self):
        rng = RNG(3)
        rho = quantum.random_density_matrix(4, rng)
        got = quantum.conditional_measurement_entropy(rho, self.COMP, (2, 2))
        # Independent route: build the block-diagonal cq-state explicitly.
        blocks = []
        for e in self.COMP:
            op = np.kron(e, np.eye(2))
            blocks.append(quantum.partial_trace(op @ rho @ op, (2, 2), traced=0))
        cq = np.zeros((4, 4), dtype=complex)
        cq[:2, :2] = blocks[0]
        cq[2:, 2:] = blocks[1]
        want = quantum.von_neumann_entropy(cq) - quantum.von_neumann_entropy(
            quantum.partial_trace(rho, (2, 2), traced=0)
        )
        assert got == pytest.approx(want, abs=1e-9)

    def test_range_and_trivial_side_info(self):
        rng = RNG(4)
        for _ in range(20):
            rho_a = quantum.random_density_matrix(2, rng)
            rho = np.kron(rho_a, np.array([[1.0]], dtype=complex))
            got = quantum.conditional_measurement_entropy(rho, self.COMP, (2, 1))
            assert -1e-10 <= got <= 1.0 + 1e-10
            outcome = np.diag([np.real(rho_a[0, 0]), np.real(rho_a[1, 1])])
            assert got == pytest.approx(
                quantum.von_neumann_entropy(outcome.astype(complex)), abs=1e-9
            )


class TestPurify:
    def test_pure_input(self):
        rho = quantum.random_pure_state(2, RNG(5))
        out = quantum.purify(rho)
        marg = quantum.partial_trace(out, (2, 2), traced=1)
        assert np.max(np.abs(marg - rho)) <= 1e-10

    def test_maximally_mixed(self):
        out = quantum.purify(np.eye(2) / 2)
        assert quantum.von_neumann_entropy(out) == pytest.approx(0.0, abs=1e-9)
        marg = quantum.partial_trace(out, (2, 2), traced=1)
        assert np.allclose(marg, np.eye(2) / 2)

    def test_rank3_reconstruction(self):
        rho = quantum.random_density_matrix(4, RNG(6), rank=3)
        out = quantum.purify(rho)
        evals = np.linalg.eigvalsh(out)
        assert np.sum(evals > 1e-10) == 1  # rank 1
        marg = quantum.partial_trace(out, (4, 4), traced=1)
        assert np.max(np.abs(marg - rho)) <= 1e-10


class TestPurifiedMeasurementEntropy:
    """S(sum_x rho^1/2 E_x rho^1/2) - S(rho) against the entropy of the
    measured purification."""

    def test_against_purified_state(self):
        rng = RNG(7)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            rho = quantum.random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1)))
            # A three-outcome POVM whose elements are not projectors.
            a = quantum.random_density_matrix(d, rng) * 0.6
            b = quantum.random_density_matrix(d, rng) * 0.4
            povm = [a, b, np.eye(d) - a - b]
            want = quantum.conditional_measurement_entropy(quantum.purify(rho), povm, (d, d))
            assert quantum.purified_measurement_entropy(rho, povm) == pytest.approx(want, abs=1e-12)

    def test_bell_marginal_and_pure_state(self):
        comp = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        assert quantum.purified_measurement_entropy(np.eye(2) / 2, comp) == pytest.approx(0.0, abs=1e-12)
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert quantum.purified_measurement_entropy(plus, comp) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_state(self):
        with pytest.raises(ValueError):
            quantum.purified_measurement_entropy(np.diag([1.1, -0.1]).astype(complex), [np.eye(2)])


class TestStacks:
    """Stacked calls give the bits of one call per matrix."""

    def states(self, d, n=40, seed=0):
        rng = RNG(seed)
        full = [quantum.random_density_matrix(d, rng) for _ in range(n)]
        deficient = [quantum.random_density_matrix(d, rng, rank=max(1, d - 2)) for _ in range(n)]
        return np.array(full + deficient)

    @pytest.mark.parametrize("d", [2, 4, 6, 9, 12])
    def test_entropy_and_trace_distance(self, d):
        rho = self.states(d)
        sigma = rho[::-1]
        ent = quantum.von_neumann_entropy(rho)
        dist = quantum.trace_distance(rho, sigma)
        assert ent.shape == dist.shape == (len(rho),)
        for i in range(len(rho)):
            assert ent[i] == quantum.von_neumann_entropy(rho[i])
            assert dist[i] == quantum.trace_distance(rho[i], sigma[i])

    def test_entropy_stack_rejects_negative_state(self):
        rho = self.states(3, n=2)
        rho[1] = np.diag([1.1, 0.0, -0.1])
        with pytest.raises(ValueError):
            quantum.von_neumann_entropy(rho)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3)])
    def test_partial_and_conditional(self, dims):
        rho = self.states(dims[0] * dims[1])
        cond = quantum.conditional_entropy(rho, dims)
        for traced in (0, 1):
            stacked = quantum.partial_trace(rho, dims, traced)
            for i in range(len(rho)):
                assert np.array_equal(stacked[i], quantum.partial_trace(rho[i], dims, traced))
        for i in range(len(rho)):
            assert cond[i] == quantum.conditional_entropy(rho[i], dims)

    @pytest.mark.parametrize("d", [2, 5, 12])
    def test_ginibre_constructors(self, d):
        rng = RNG(d)
        g = np.array([quantum.random_ginibre((d, d), rng) for _ in range(30)])
        ranks = rng.integers(1, d, size=30) if d > 2 else np.ones(30, dtype=int)
        proj = quantum.projectors_from_ginibre(g, ranks)
        rho = quantum.density_from_ginibre(g)
        for i in range(30):
            quantum.check_projector(proj[i])
            assert np.real(np.trace(proj[i])) == pytest.approx(ranks[i])
            q, _ = np.linalg.qr(g[i])
            v = q[:, :ranks[i]]
            assert np.array_equal(proj[i], v @ v.conj().T)
            single = g[i] @ g[i].conj().T
            assert np.array_equal(rho[i], single / np.real(np.trace(single)))


class TestJordanDecompose:
    def test_identical_projectors(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        jb = quantum.jordan_decompose(p, p)
        assert len(jb.blocks) == 1 and jb.blocks[0].angle == 0.0
        assert not jb.residuals

    def test_hadamard_pair(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        m = np.full((2, 2), 0.5, dtype=complex)
        jb = quantum.jordan_decompose(p, m)
        assert len(jb.blocks) == 1
        assert jb.blocks[0].angle == pytest.approx(math.pi / 2)

    def test_random_pairs_reconstruction(self):
        rng = RNG(7)
        for _ in range(50):
            dim = int(rng.integers(2, 13))
            p = quantum.random_projector(dim, int(rng.integers(1, dim)), rng)
            m = quantum.random_projector(dim, int(rng.integers(1, dim)), rng)
            jb = quantum.jordan_decompose(p, m)
            resolution = [b.projector() for b in jb.blocks]
            resolution.append(jb.residual_projector())
            assert np.max(np.abs(sum(resolution) - np.eye(dim))) <= 1e-9
            for op in (p, m):
                rebuilt = sum(b @ op @ b for b in resolution)
                assert np.max(np.abs(rebuilt - op)) <= 1e-9

    def test_pinched_spectrum_per_block(self):
        rng = RNG(8)
        dim = 8
        p = quantum.random_projector(dim, 3, rng)
        m = quantum.random_projector(dim, 4, rng)
        jb = quantum.jordan_decompose(p, m)
        pinched = p @ m @ p + (np.eye(dim) - p) @ m @ (np.eye(dim) - p)
        for b in jb.blocks:
            sub = b.basis.conj().T @ pinched @ b.basis
            evals = np.sort(np.linalg.eigvalsh((sub + sub.conj().T) / 2))
            c2 = math.cos(b.angle / 2) ** 2
            assert np.max(np.abs(evals - np.sort([c2, 1 - c2]))) <= 1e-9

    def test_rejects_non_projector(self):
        with pytest.raises(ValueError):
            quantum.jordan_decompose(np.diag([0.5, 0.5]), np.eye(2))


class TestSquareOverlap:
    """The square overlap of each block of the joint decomposition."""

    def test_maximally_incompatible(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        m = np.full((2, 2), 0.5, dtype=complex)
        jb = quantum.jordan_decompose(p, m)
        assert [b.overlap for b in jb.blocks] == [pytest.approx(0.5)]
        assert jb.residuals == []

    def test_commuting(self):
        # P against itself: one degenerate block at angle 0, overlap 1.
        p = np.diag([1.0, 0.0]).astype(complex)
        jb = quantum.jordan_decompose(p, p)
        assert [b.overlap for b in jb.blocks] == [1.0]
        assert jb.residuals == []

    def test_sixty_degree_block(self):
        theta = math.pi / 3
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        p = np.diag([1.0, 0.0]).astype(complex)
        m = np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)
        jb = quantum.jordan_decompose(p, m)
        assert [b.overlap for b in jb.blocks] == [pytest.approx(0.75, abs=1e-12)]
        assert jb.residuals == []


class TestGoodSubspace:
    def test_all_blocks_good(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        m = np.full((2, 2), 0.5, dtype=complex)
        gamma = quantum.good_subspace_projector(p, m, 0.75)
        assert np.allclose(gamma, np.eye(2))

    def test_commuting_blocks_excluded(self):
        p = np.diag([1.0, 0.0, 0.0]).astype(complex)
        m = np.diag([1.0, 0.0, 1.0]).astype(complex)
        gamma = quantum.good_subspace_projector(p, m, 0.75)
        # All directions commute; pairs form angle-0/pi blocks (overlap 1,
        # excluded) and the leftover is a residual (included).
        assert np.real(np.trace(gamma)) == pytest.approx(1.0, abs=1e-9)

    def test_commutes_with_inputs(self):
        rng = RNG(9)
        p = quantum.random_projector(6, 3, rng)
        m = quantum.random_projector(6, 2, rng)
        gamma = quantum.good_subspace_projector(p, m, 0.8)
        quantum.check_projector(gamma)
        assert np.max(np.abs(gamma @ p - p @ gamma)) <= 1e-9
        assert np.max(np.abs(gamma @ m - m @ gamma)) <= 1e-9

    def test_trace_inequality_random(self):
        rng = RNG(10)
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            p = quantum.random_projector(dim, int(rng.integers(1, dim)), rng)
            m = quantum.random_projector(dim, int(rng.integers(1, dim)), rng)
            phi = quantum.random_density_matrix(dim, rng)
            q = np.eye(dim) - p
            mu = abs(
                0.5
                - np.real(np.trace(m @ p @ phi @ p) + np.trace(m @ q @ phi @ q))
            )
            omega = float(np.real(np.trace(m @ phi)))
            for c in (0.55, 0.75, 0.95):
                gamma = quantum.good_subspace_projector(p, m, c)
                lhs = float(np.real(np.trace((np.eye(dim) - gamma) @ phi)))
                rhs = (2 * mu + 10 * math.sqrt(max(0.0, 1 - omega))) / (
                    2 * c - 1
                ) ** 2
                assert lhs <= rhs + 1e-9

    def test_rejects_bad_threshold(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            quantum.good_subspace_projector(p, p, 0.4)


class TestCommutatorDefect:
    def test_unbiased_block_gives_zero(self):
        # Maximally incompatible measurements: pinched probabilities sum to
        # 1/2 for any state.
        m0 = np.full((2, 2), 0.5, dtype=complex)
        pi3 = [
            np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex),
            np.zeros((2, 2), dtype=complex),
        ]
        psi = quantum.random_density_matrix(2, RNG(11))
        got = quantum.commutator_defect(pi3, [m0, np.eye(2) - m0], psi)
        assert got == pytest.approx(0.0, abs=1e-10)

    def test_aligned_measurements(self):
        pi0 = np.diag([1.0, 0.0]).astype(complex)
        pi3 = [pi0, np.diag([0.0, 1.0]).astype(complex), np.zeros((2, 2))]
        psi = pi0.copy()
        got = quantum.commutator_defect(pi3, [pi0, np.eye(2) - pi0], psi)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_against_naive_loops(self):
        rng = RNG(12)
        pi0 = quantum.random_projector(4, 2, rng)
        pi1 = np.eye(4) - pi0
        pi3 = [pi0, pi1, np.zeros((4, 4))]
        m0 = quantum.random_projector(4, 2, rng)
        psi = quantum.random_density_matrix(4, rng)
        got = quantum.commutator_defect(pi3, [m0, np.eye(4) - m0], psi)
        total = 0.0
        for pb in (pi0, pi1):
            pinch = pb @ psi @ pb
            for i in range(4):
                for j in range(4):
                    total += np.real(m0[i, j] * pinch[j, i])
        assert got == pytest.approx(abs(0.5 - total), abs=1e-12)

    def test_requires_normalized_state(self):
        pi3 = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
        psi = np.diag([0.5, 0.0, 0.5]).astype(complex)
        with pytest.raises(ValueError):
            quantum.commutator_defect(pi3, [np.eye(3), np.zeros((3, 3))], psi)


class TestContinuityLemma:
    def test_conditional_entropy_continuity(self):
        rng = RNG(13)
        for _ in range(50):
            da, db = 2, 3
            rho = quantum.random_density_matrix(da * db, rng)
            other = quantum.random_density_matrix(da * db, rng)
            lam = float(rng.uniform(0, 1))
            sigma = lam * rho + (1 - lam) * other
            eps = quantum.trace_distance(rho, sigma)
            if eps >= 1.0:
                continue
            gap = abs(
                quantum.conditional_entropy(rho, (da, db))
                - quantum.conditional_entropy(sigma, (da, db))
            )
            allowed = eps * math.log2(da) + (1 + eps) * binary_entropy(
                eps / (1 + eps)
            )
            assert gap <= allowed + 1e-9
