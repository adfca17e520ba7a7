import math

import numpy as np
import pytest

from eatcert import quantum
from eatcert.devices import (
    DeviceBlock,
    QubitBlockDevice,
    _equation_projector,
    _named_state,
    device_operators,
    device_stats,
    exact_equation_entropy,
    exact_round_entropy,
    ideal_device,
    parse_device,
    random_device,
    serialize_device,
)
from eatcert.eat import EatParams
from eatcert.protocol import run_protocol, serialize_transcript
from reference_rounds import run_protocol_per_round
from reference_suites import exact_equation_entropy_purified, exact_round_entropy_purified


def pi0_device():
    angle = math.pi / 2
    return QubitBlockDevice((DeviceBlock(1.0, angle, _named_state("pi0", angle)),))


def junk_device():
    return QubitBlockDevice((), junk_weight=1.0)


class TestConstruction:
    def test_weights_must_sum_to_one(self):
        angle = math.pi / 2
        with pytest.raises(ValueError):
            QubitBlockDevice(
                (DeviceBlock(0.5, angle, _named_state("m0", angle)),), 0.1
            )

    def test_angle_range(self):
        with pytest.raises(ValueError):
            DeviceBlock(1.0, 2.0, _named_state("m0", 2.0))


class TestDeviceStats:
    def test_ideal(self):
        s = device_stats(ideal_device())
        assert (s.preimage_rate, s.equation_rate) == (1.0, 1.0)
        assert s.defect == pytest.approx(0.0, abs=1e-10)

    def test_all_junk(self):
        s = device_stats(junk_device())
        assert s.preimage_rate == 0.0

    def test_pi0_eigenstate(self):
        # Born rule |<m0|0>|^2 = cos^2(pi/4) = 1/2.
        s = device_stats(pi0_device())
        assert s.equation_rate == pytest.approx(0.5, abs=1e-12)
        assert s.defect == pytest.approx(0.0, abs=1e-10)

    def test_defect_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            dev = random_device(rng)
            s = device_stats(dev)
            if s.preimage_rate <= 1e-10:
                continue
            rho_de, pi3, m2, dims = device_operators(dev)
            rho_d = quantum.partial_trace(rho_de, dims, traced=1)
            good = pi3[0] + pi3[1]
            psi = good @ rho_d @ good / s.preimage_rate
            assert s.defect == pytest.approx(
                quantum.commutator_defect(pi3, m2, psi), abs=1e-12
            )


class TestExactEntropy:
    def test_ideal_uniform_outcomes(self):
        assert exact_round_entropy(ideal_device()) == pytest.approx(1.0, abs=1e-9)

    def test_entangled_gives_zero(self):
        angle = math.pi / 2
        dev = QubitBlockDevice(
            (DeviceBlock(1.0, angle, _named_state("bell", angle)),)
        )
        assert exact_round_entropy(dev) == pytest.approx(0.0, abs=1e-9)

    def test_against_independent_pipeline(self):
        # Second, independently coded route: purify through vec(sqrt(rho))
        # and assemble the outcome-register state by tensor contraction.
        from scipy.linalg import sqrtm

        rng = np.random.default_rng(1)
        for _ in range(10):
            dev = random_device(rng, max_blocks=3)
            rho, pi3, m2, (dd, de) = device_operators(dev)
            root = sqrtm((rho + rho.conj().T) / 2.0)
            d = dd * de
            phi = np.asarray(root).reshape(dd, de, d)
            for povm, expect in ((pi3, exact_round_entropy(dev)),
                                 (m2, exact_equation_entropy(dev))):
                joint = []
                total = np.zeros((de * d, de * d), dtype=complex)
                for e in povm:
                    y = np.tensordot(e, phi, axes=([1], [0]))
                    sig = np.tensordot(y, phi.conj(), axes=([0], [0]))
                    sig = sig.reshape(de * d, de * d)
                    sig = (sig + sig.conj().T) / 2.0
                    joint.append(np.linalg.eigvalsh(sig))
                    total += sig
                evals = np.concatenate(joint)
                evals = evals[evals > 1e-12]
                h_xb = float(-np.sum(evals * np.log2(evals)))
                h_b = quantum.von_neumann_entropy(total)
                assert expect == pytest.approx(h_xb - h_b, abs=1e-9)


class TestEntropiesAgainstPurification:
    """The exact entropies on rho_D against purify + the measurement-on-D
    conditional entropy on the 196-dimensional purified state."""

    @staticmethod
    def assert_match(dev):
        assert exact_round_entropy(dev) == pytest.approx(
            exact_round_entropy_purified(dev), abs=1e-12
        )
        assert exact_equation_entropy(dev) == pytest.approx(
            exact_equation_entropy_purified(dev), abs=1e-12
        )

    def test_random_devices(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            self.assert_match(random_device(rng))

    def test_no_junk(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            dev = random_device(rng, max_junk=0.0)
            assert dev.junk_weight == 0.0
            self.assert_match(dev)

    @pytest.mark.parametrize("win", [0.0, 1.0])
    def test_junk_equation_win_at_the_ends(self, win):
        rng = np.random.default_rng(10)
        for _ in range(20):
            dev = random_device(rng)
            self.assert_match(QubitBlockDevice(dev.blocks, dev.junk_weight, win))

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_rank_deficient_block_states(self, rank):
        rng = np.random.default_rng(11 + rank)
        for _ in range(10):
            blocks = tuple(
                DeviceBlock(w, float(rng.uniform(0.0, math.pi / 2)),
                            quantum.random_density_matrix(4, rng, rank=rank))
                for w in (0.5, 0.3)
            )
            self.assert_match(QubitBlockDevice(blocks, 0.2, float(rng.uniform())))

    @pytest.mark.parametrize("token", ["bell", "m0", "pi0"])
    @pytest.mark.parametrize("angle", [0.0, 0.4, math.pi / 2])
    def test_named_states(self, token, angle):
        state = _named_state(token, angle)
        self.assert_match(QubitBlockDevice((DeviceBlock(1.0, angle, state),)))
        mixed = (DeviceBlock(0.6, angle, state), DeviceBlock(0.3, 0.9, _named_state("m0", 0.9)))
        self.assert_match(QubitBlockDevice(mixed, junk_weight=0.1, junk_equation_win=0.4))

    def test_all_junk(self):
        for win in (0.0, 0.25, 1.0):
            dev = QubitBlockDevice((), junk_weight=1.0, junk_equation_win=win)
            self.assert_match(dev)
            assert exact_round_entropy(dev) == 0.0

    def test_operators_built_once_and_read_only(self):
        dev = random_device(np.random.default_rng(12))
        assert dev.operators is dev.operators
        rho_de, pi3, m2, _ = dev.operators
        for op in (rho_de, *pi3, *m2, dev.device_marginal):
            assert not op.flags.writeable
        assert np.array_equal(
            dev.device_marginal, quantum.partial_trace(rho_de, (len(pi3[0]), 2), traced=1)
        )


def sampled(dev, n, gamma, beta, seed):
    """A simulated transcript of n rounds against the device."""
    params = EatParams(
        n=n, gamma=gamma, beta=beta, eps_s=1e-5, p_omega=1e-5,
        omega_exp=0.5, delta_est=0.02,
    )
    return run_protocol(dev, params, seed)


class TestSampling:
    def test_ideal_always_wins_equation(self):
        tr = sampled(ideal_device(), 10000, 1.0, 0.999, seed=2)
        eq = tr.t == 1
        assert eq.sum() > 9900
        assert (tr.m_hat[eq] == 0).all() and (tr.w[eq] == 1).all()

    def test_junk_always_fails_preimage(self):
        tr = sampled(junk_device(), 100, 0.5, 0.5, seed=3)
        pre = tr.t == 0
        assert pre.any() and (tr.pi_hat[pre] == 2).all()

    def test_ideal_preimage_uniform(self):
        tr = sampled(ideal_device(), 20000, 0.5, 0.001, seed=4)
        outcomes = tr.pi_hat[tr.t == 0]
        freq = np.count_nonzero(outcomes == 0) / len(outcomes)
        assert freq == pytest.approx(0.5, abs=0.02)
        assert not (outcomes == 2).any()

    def test_frequencies_match_stats(self):
        rng = np.random.default_rng(5)
        dev = random_device(rng, max_blocks=2)
        stats = device_stats(dev)
        tr = sampled(dev, 200000, 1.0, 0.5, seed=5)
        eq, pre = tr.t == 1, tr.t == 0
        eq_wins = np.count_nonzero(tr.m_hat[eq] == 0)
        pre_wins = np.count_nonzero(tr.pi_hat[pre] != 2)
        for wins, n, p in (
            (eq_wins, eq.sum(), stats.equation_rate),
            (pre_wins, pre.sum(), stats.preimage_rate),
        ):
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert wins / n == pytest.approx(p, abs=max(3 * sigma, 1e-3))


class TestResponders:
    def test_sector_and_outcome_draws(self):
        angle = math.pi / 2
        dev = QubitBlockDevice(
            (
                DeviceBlock(0.5, angle, _named_state("m0", angle)),  # p0 1/2, win 1
                DeviceBlock(0.25, angle, _named_state("pi0", angle)),  # p0 1, win 1/2
            ),
            junk_weight=0.25,
            junk_equation_win=0.5,
        )
        # Two rounds in each sector: block 0, block 1, junk.
        u_block = np.array([0.1, 0.1, 0.6, 0.6, 0.9, 0.9])
        u_outcome = np.array([0.4, 0.6] * 3)
        assert dev.respond_preimage(u_block, u_outcome).tolist() == [0, 1, 0, 0, 2, 2]
        assert dev.respond_equation(u_block, u_outcome).tolist() == [0, 0, 0, 1, 0, 1]
        assert junk_device().respond_preimage(u_block, u_outcome).tolist() == [2] * 6


class TestConvexity:
    def test_blockwise_expectation_decomposition(self):
        rng = np.random.default_rng(6)
        dev = random_device(rng, max_blocks=3)
        rho, pi3, m2, (dd, de) = device_operators(dev)
        rho_d = quantum.partial_trace(rho, (dd, de), traced=1)
        # Block-diagonal observable: weighted sum of per-block expectations.
        total = float(np.real(np.trace(m2[0] @ rho_d)))
        parts = dev.junk_weight * dev.junk_equation_win
        for b in dev.blocks:
            parts += b.weight * float(
                np.real(np.trace(_equation_projector(b.angle) @ b.device_marginal))
            )
        assert total == pytest.approx(parts, abs=1e-12)


class TestStoredMarginals:
    def test_transcript_matches_fresh_marginals(self):
        params = EatParams(
            n=3000, gamma=0.5, beta=0.3, eps_s=1e-5, p_omega=1e-5,
            omega_exp=0.9, delta_est=0.02,
        )
        for k in range(3):
            dev = random_device(np.random.default_rng(20 + k), max_blocks=4)
            # The reference takes each round's probability afresh from the
            # block's device marginal.
            a = run_protocol(dev, params, seed=k)
            b = run_protocol_per_round(dev, params, seed=k)
            assert serialize_transcript(a) == serialize_transcript(b)


class TestSerialization:
    def test_roundtrip(self):
        # Device files hold pure block states only.
        rng = np.random.default_rng(7)
        blocks = tuple(
            DeviceBlock(w, float(rng.uniform(0.0, math.pi / 2.0)), quantum.random_pure_state(4, rng))
            for w in (0.5, 0.3, 0.1)
        )
        dev = QubitBlockDevice(blocks, 0.1, 0.4)
        text = serialize_device(dev)
        back = parse_device(text)
        a, b = device_stats(dev), device_stats(back)
        assert a.preimage_rate == pytest.approx(b.preimage_rate, abs=1e-10)
        assert a.equation_rate == pytest.approx(b.equation_rate, abs=1e-10)

    def test_named_states(self):
        text = "blocks = 1\nblock0.weight = 1.0\nblock0.angle = 1.5707963267948966\nblock0.state = m0\n"
        dev = parse_device(text)
        assert device_stats(dev).equation_rate == pytest.approx(1.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_device("blocks = 0\nwhatever = 1\n")

    def test_missing_blocks_rejected(self):
        with pytest.raises(ValueError):
            parse_device("junk_weight = 1.0\n")

    def test_comments_and_blank_lines(self):
        text = "# a device\nblocks = 0\njunk_weight = 1.0  # all junk\n\n"
        dev = parse_device(text)
        assert dev.junk_weight == 1.0
