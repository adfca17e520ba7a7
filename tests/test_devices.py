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
    sample_round,
    serialize_device,
)
from eatcert.eat import EatParams
from eatcert.protocol import run_protocol, serialize_transcript


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


class TestSampling:
    def test_ideal_always_wins_equation(self):
        rng = np.random.default_rng(2)
        dev = ideal_device()
        outcomes = [sample_round(dev, "equation", rng) for _ in range(10000)]
        assert all(o == 0 for o in outcomes)

    def test_junk_always_fails_preimage(self):
        rng = np.random.default_rng(3)
        outcomes = [sample_round(junk_device(), "preimage", rng) for _ in range(100)]
        assert all(o == 2 for o in outcomes)

    def test_ideal_preimage_uniform(self):
        rng = np.random.default_rng(4)
        outcomes = [sample_round(ideal_device(), "preimage", rng) for _ in range(10000)]
        freq = sum(1 for o in outcomes if o == 0) / len(outcomes)
        assert freq == pytest.approx(0.5, abs=0.02)

    def test_frequencies_match_stats(self):
        rng = np.random.default_rng(5)
        dev = random_device(rng, max_blocks=2)
        stats = device_stats(dev)
        n = 100000
        eq_wins = sum(
            1 for _ in range(n) if sample_round(dev, "equation", rng) == 0
        )
        pre_wins = sum(
            1 for _ in range(n) if sample_round(dev, "preimage", rng) != 2
        )
        for wins, p in ((eq_wins, stats.equation_rate), (pre_wins, stats.preimage_rate)):
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert wins / n == pytest.approx(p, abs=max(3 * sigma, 1e-3))

    def test_unknown_challenge(self):
        with pytest.raises(ValueError):
            sample_round(ideal_device(), "nonsense", np.random.default_rng(0))


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


class FreshMarginalDevice(QubitBlockDevice):
    """Responses drawn against the block's device marginal taken afresh in
    every round, as a reference for the per-block stored probabilities."""

    def respond_preimage(self, rng):
        j = self._sample_block(rng)
        if j < 0:
            return 2
        rho = quantum.partial_trace(self.blocks[j].state, (2, 2), traced=1)
        return 0 if rng.random() < float(np.real(rho[0, 0])) else 1

    def respond_equation(self, rng):
        j = self._sample_block(rng)
        if j < 0:
            win = rng.random() < self.junk_equation_win
        else:
            b = self.blocks[j]
            rho = quantum.partial_trace(b.state, (2, 2), traced=1)
            p_win = float(np.real(np.trace(_equation_projector(b.angle) @ rho)))
            win = rng.random() < p_win
        return 0 if win else 1


class TestStoredMarginals:
    def test_transcript_matches_fresh_marginals(self):
        params = EatParams(
            n=3000, gamma=0.5, beta=0.3, eps_s=1e-5, p_omega=1e-5,
            omega_exp=0.9, delta_est=0.02,
        )
        for k in range(3):
            dev = random_device(np.random.default_rng(20 + k), max_blocks=4)
            fresh = FreshMarginalDevice(dev.blocks, dev.junk_weight, dev.junk_equation_win)
            a = run_protocol(dev, params, seed=k)
            b = run_protocol(fresh, params, seed=k)
            assert serialize_transcript(a) == serialize_transcript(b)


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        dev = random_device(rng, max_blocks=3, allow_mixed=False)
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
