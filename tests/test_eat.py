import math

import pytest

from eatcert import eat
from eatcert.bound import entropy_bound_combined
from eatcert.eat import (
    BETA_GRID,
    EatParams,
    OUTCOME_ALPHABET_SIZE,
    TradeoffCurve,
    TradeoffFunction,
    accumulation_rate,
    asymptotic_rate,
    certified_min_entropy,
    optimize_rate,
    second_order_coefficient,
    tradeoff_value,
)


def make_params(**overrides):
    base = dict(
        n=10**8,
        gamma=0.5,
        beta=0.045,
        eps_s=1e-5,
        p_omega=1e-5,
        omega_exp=1.0,
        delta_est=1e-6,
    )
    base.update(overrides)
    return EatParams(**base)


def make_tf(beta=0.045, gamma=1.0, omega_0=1.0):
    return TradeoffFunction(TradeoffCurve(beta, gamma), omega_0)


class TestEatParams:
    def test_threshold(self):
        p = make_params(gamma=0.5, omega_exp=0.95, delta_est=0.02)
        assert p.threshold == pytest.approx(0.95 - 0.04)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n", 0),
            ("gamma", 0.0),
            ("gamma", 1.5),
            ("beta", 0.0),
            ("beta", 1.0),
            ("eps_s", 0.0),
            ("p_omega", 0.0),
            ("omega_exp", 1.2),
            ("delta_est", 0.0),
            ("xi_slack", -0.1),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            make_params(**{field: value})


class TestTradeoffFunction:
    def test_cutoff_continuity(self):
        tf = make_tf()
        assert tf.value(tf.omega_0) == pytest.approx(tf.base(tf.omega_0), abs=1e-12)

    def test_perfect_winning_value(self):
        # Curve value at 1 equals the combined bound scaled by 1 - beta*gamma.
        tf = make_tf()
        assert tf.value(1.0) == pytest.approx(0.9550, abs=1e-3)

    def test_slope_is_backward_secant(self):
        tf = make_tf(omega_0=0.99)
        h = 1e-2
        want = (tf.base(0.99) - tf.base(0.99 - h)) / h
        assert tf.slope == pytest.approx(want, abs=1e-12)

    def test_affine_above_cutoff(self):
        tf = make_tf(gamma=0.5)
        mid = tf.value(1.2)
        want = tf.cutoff_value + tf.slope * 0.2
        assert mid == pytest.approx(want, abs=1e-12)

    def test_flat_region_slope_zero(self):
        # The curve is identically zero around omega_0 = 0.9.
        tf = make_tf(omega_0=0.9)
        assert tf.slope == 0.0
        assert tf.gradient_sup == 0.0

    def test_gradient_sup_scales_with_gamma(self):
        a = make_tf(gamma=1.0)
        b = make_tf(gamma=0.5)
        assert a.gradient_sup == pytest.approx(abs(a.slope))
        assert b.gradient_sup == pytest.approx(2.0 * abs(b.slope))

    def test_cap_below_curve_above_cutoff(self):
        # Validity of the affine continuation as a lower bound.
        tf = make_tf(omega_0=1.0 - 1e-13)
        for omega in (1.0 - 5e-14, 1.0 - 1e-14, 1.0):
            assert tf.value(omega) <= tf.base(omega) + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            TradeoffCurve(0.0, 1.0)
        with pytest.raises(ValueError):
            TradeoffCurve(0.045, 0.0)
        with pytest.raises(ValueError):
            TradeoffFunction(TradeoffCurve(0.045, 1.0), 0.5)


class TestTradeoffValue:
    def test_all_losses(self):
        tf = make_tf(gamma=0.5)
        assert tradeoff_value((0.5, 0.5, 0.0), tf) == 0.0

    def test_all_wins(self):
        tf = make_tf(gamma=1.0)
        assert tradeoff_value((0.0, 0.0, 1.0), tf) == pytest.approx(
            tf.value(1.0), abs=1e-12
        )

    def test_rejects_no_tests(self):
        tf = make_tf(gamma=0.5)
        with pytest.raises(ValueError):
            tradeoff_value((1.0, 0.0, 0.0), tf)

    def test_rejects_gamma_mismatch(self):
        tf = make_tf(gamma=0.5)
        with pytest.raises(ValueError):
            tradeoff_value((0.3, 0.35, 0.35), tf)

    def test_rejects_non_distribution(self):
        tf = make_tf(gamma=0.5)
        with pytest.raises(ValueError):
            tradeoff_value((0.5, 0.5, 0.5), tf)


class TestSecondOrderCoefficient:
    def test_reference_value(self):
        got = second_order_coefficient(6, 0, 1e-5, 1e-5)
        assert got == pytest.approx(60.78, abs=0.01)

    def test_small_product_limit(self):
        # As eps * p_omega -> 1 the sqrt factor -> 1.
        got = second_order_coefficient(6, 0, 0.999999, 0.999999)
        assert got == pytest.approx(2.0 * math.log2(13.0), abs=1e-4)

    def test_hand_arithmetic(self):
        for size, grad, eps, p in [(6, 3, 1e-3, 1e-2), (2, 100, 0.5, 0.1)]:
            want = (
                2.0
                * (math.log2(1 + 2 * size) + grad)
                * math.sqrt(1.0 - 2.0 * math.log2(eps * p))
            )
            got = second_order_coefficient(size, grad, eps, p)
            assert got == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            second_order_coefficient(0, 0, 0.5, 0.5)
        with pytest.raises(ValueError):
            second_order_coefficient(6, -1, 0.5, 0.5)
        with pytest.raises(ValueError):
            second_order_coefficient(6, 0, 1.0, 1.0)


class TestCertifiedMinEntropy:
    def test_tiny_n_floors_at_zero(self):
        tf = make_tf(gamma=0.5)
        assert certified_min_entropy(make_params(n=10), tf) == 0.0

    def test_full_tests_certify_nothing(self):
        # gamma = 1 pays one bit per round, more than the curve can supply.
        tf = make_tf(gamma=1.0)
        assert certified_min_entropy(make_params(gamma=1.0), tf) == 0.0

    def test_asymptotic_per_round_rate(self):
        # Per-round rate converges to curve value minus the per-round test
        # cost once the sqrt(n) penalty is diluted.
        tf = make_tf(gamma=0.5)
        # 1 - 2e-17 rounds to a threshold of exactly 1.
        p = make_params(n=10**16, gamma=0.5, delta_est=1e-17)
        assert p.threshold == 1.0
        want = tf.value(1.0) - p.gamma
        got = certified_min_entropy(p, tf) / p.n
        assert got == pytest.approx(want, abs=1e-4)
        assert got > 0.0

    def test_threshold_range_errors(self):
        tf = make_tf(gamma=0.5)
        with pytest.raises(ValueError):
            certified_min_entropy(make_params(omega_exp=0.5, delta_est=0.05), tf)
        with pytest.raises(ValueError):
            certified_min_entropy(make_params(omega_exp=0.5, delta_est=0.3), tf)

    def test_monotone_in_n(self):
        tf = make_tf(gamma=0.5)
        values = [
            certified_min_entropy(make_params(n=n), tf)
            for n in (10**8, 10**10, 10**12)
        ]
        assert values[0] <= values[1] <= values[2]

    def test_monotone_in_threshold(self):
        tf = make_tf(gamma=0.5)
        lo = certified_min_entropy(make_params(n=10**12, omega_exp=0.95), tf)
        hi = certified_min_entropy(make_params(n=10**12, delta_est=1e-17), tf)
        assert lo <= hi

    def test_monotone_in_failure_budget(self):
        tf = make_tf(gamma=0.5)
        strict = certified_min_entropy(make_params(n=10**12, p_omega=1e-9), tf)
        loose = certified_min_entropy(make_params(n=10**12, p_omega=1e-2), tf)
        assert strict <= loose


class TestAccumulationRate:
    def test_infinite_n_is_curve_value(self):
        tf = make_tf()
        assert accumulation_rate(tf, 1.0, math.inf, 1e-5, 1e-5) == pytest.approx(
            tf.value(1.0), abs=1e-12
        )

    def test_finite_n_below_infinite(self):
        tf = make_tf()
        fin = accumulation_rate(tf, 1.0, 1e8, 1e-5, 1e-5)
        inf = accumulation_rate(tf, 1.0, math.inf, 1e-5, 1e-5)
        assert 0.0 < fin < inf

    def test_monotone_in_n(self):
        tf = make_tf()
        rates = [accumulation_rate(tf, 1.0, n, 1e-5, 1e-5) for n in (1e8, 1e10, 1e12)]
        assert rates[0] <= rates[1] <= rates[2]

    def test_floors_at_zero(self):
        tf = make_tf()
        assert accumulation_rate(tf, 0.9, 1e8, 1e-5, 1e-5) == 0.0


def rate_curves(gamma, grid=BETA_GRID):
    return [TradeoffCurve(beta, gamma) for beta in grid]


class TestAsymptoticRate:
    def test_perfect_winning(self):
        got = asymptotic_rate(1.0, rate_curves(1.0))
        assert got == pytest.approx(0.98999714, abs=1e-6)

    def test_zero_off_support(self):
        assert asymptotic_rate(0.99, rate_curves(1.0)) == 0.0

    def test_dominates_single_beta(self):
        full = asymptotic_rate(1.0, rate_curves(1.0))
        for beta in BETA_GRID:
            assert full >= asymptotic_rate(1.0, rate_curves(1.0, (beta,))) - 1e-12

    def test_equals_best_combined_bound_over_beta(self):
        # The curve value (g - 0) * (1 - beta gamma) is the product the
        # infinite-n rate maximizes, so reading it off a curve is exact.
        for omega in (0.99, 1.0 - 1e-13, 1.0):
            want = max(
                [0.0]
                + [
                    entropy_bound_combined(omega, beta) * (1.0 - beta * 0.5)
                    for beta in BETA_GRID
                ]
            )
            assert asymptotic_rate(omega, rate_curves(0.5)) == want


class TestSharedCurve:
    def test_cutoffs_share_values(self, monkeypatch):
        calls = []
        real = eat.entropy_bound_combined

        def counted(omega, beta):
            calls.append(omega)
            return real(omega, beta)

        monkeypatch.setattr(eat, "entropy_bound_combined", counted)
        curve = TradeoffCurve(0.045, 1.0)
        shared = [TradeoffFunction(curve, omega_0) for omega_0 in (0.99, 1.0)]
        # 0.99 is the first cutoff and the second one's secant point.
        assert sorted(calls) == [0.98, 0.99, 1.0]
        for tf in shared:
            alone = make_tf(omega_0=tf.omega_0)
            assert (tf.cutoff_value, tf.slope) == (alone.cutoff_value, alone.slope)


class TestOptimizeRate:
    def test_infeasible_threshold_gives_zero(self):
        p = make_params(omega_exp=0.5, delta_est=0.01)
        beta, omega_0, rate = optimize_rate(p)
        assert rate == 0.0

    def test_rate_monotone_in_n(self):
        rates = [
            optimize_rate(make_params(n=n, gamma=0.2, delta_est=1e-16))[2]
            for n in (10**6, 10**9, 10**12)
        ]
        assert rates[0] <= rates[1] <= rates[2]
        assert rates[2] > 0.0

    def test_slack_paid_once_per_round(self):
        # xi is subtracted once per round, so with the sqrt(n) terms diluted
        # the best per-round rate falls by exactly xi.
        rates = [
            optimize_rate(
                make_params(n=10**16, omega_exp=1.0, delta_est=1e-30, xi_slack=xi)
            )[2]
            for xi in (0.0, 0.01)
        ]
        assert rates[1] > 0.0
        assert rates[0] - rates[1] == pytest.approx(0.01, abs=1e-12)

    def test_dominates_fixed_choice(self):
        p = make_params(n=10**10)
        beta, omega_0, rate = optimize_rate(p)
        tf = make_tf(beta, p.gamma, omega_0)
        from dataclasses import replace

        direct = certified_min_entropy(replace(p, beta=beta), tf) / p.n
        assert rate == pytest.approx(direct, rel=1e-12)
