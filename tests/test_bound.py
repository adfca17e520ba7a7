import math
import random

import pytest

from eatcert import bound, eat
from eatcert.bound import (
    DEFAULT_BOUND_CONFIG,
    BoundConfig,
    WinningStats,
    bad_subspace_coefficient,
    entropy_bound,
    entropy_bound_combined,
    entropy_bound_fixed_overlap,
    entropy_bounds,
    projection_continuity_penalty,
)
from eatcert.cli import main
from eatcert.numerics import Interval, binary_entropy


class TestWinningStats:
    def test_combined(self):
        s = WinningStats(0.9, 0.5)
        assert s.combined(0.1) == pytest.approx(0.9 * 0.9 + 0.1 * 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            WinningStats(1.2, 0.5)
        with pytest.raises(ValueError):
            WinningStats(0.5, 0.5, defect=-0.1)


class TestBoundConfig:
    def test_rejects_domain_below_half(self):
        with pytest.raises(ValueError):
            BoundConfig(c_domain=Interval(0.4, 1.0))


class TestBadSubspaceCoefficient:
    def test_examples(self):
        assert bad_subspace_coefficient(1.0) == pytest.approx(10.0)
        assert bad_subspace_coefficient(0.75) == pytest.approx(40.0)
        assert bad_subspace_coefficient(0.6) == pytest.approx(250.0)

    def test_rejects_half(self):
        with pytest.raises(ValueError):
            bad_subspace_coefficient(0.5)


class TestFixedOverlap:
    def test_ideal_point(self):
        got = entropy_bound_fixed_overlap(WinningStats(1.0, 1.0), 0.5001)
        assert got == pytest.approx(math.log2(1 / 0.5001), abs=1e-9)

    def test_half_half_clamps(self):
        for c in (0.51, 0.75, 0.99):
            assert entropy_bound_fixed_overlap(WinningStats(0.5, 0.5), c) == 0.0

    def test_large_defect_clamps(self):
        # A(0.9) = 15.625 and mu/5 = 0.1 make the prefactor negative.
        got = entropy_bound_fixed_overlap(WinningStats(1.0, 1.0, 0.5), 0.9)
        assert got == 0.0

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            entropy_bound_fixed_overlap(WinningStats(1.0, 1.0), 0.5)

    def test_equals_formula_exactly(self):
        # The formula term by term; the scalar objective, which the tests
        # take as the reference for the numpy kernel, must give the same
        # floats, not just close ones.
        def formula(s, c):
            a = bad_subspace_coefficient(c)
            pen = (
                s.defect / 5.0
                + math.sqrt(2.0) * (1.0 - s.preimage_rate) ** 0.25
                + math.sqrt(1.0 - s.equation_rate)
            )
            prefactor = max(0.0, 1.0 - a * pen)
            arg = min(max(s.equation_rate - 2.0 * math.sqrt(1.0 - s.preimage_rate) - a * pen, 0.0), 1.0)
            hterm = 1.0 if arg < 0.5 else binary_entropy(arg)
            return prefactor * max(0.0, math.log2(1.0 / c) - hterm)

        nonzero = 0
        for k in range(1, 400):
            s = WinningStats(1.0 - 10.0 ** -(8 + k % 9), 1.0 - 10.0 ** -(4 + k % 13), (k % 3) * 1e-9)
            c = 0.5 + k / 800.0
            got = entropy_bound_fixed_overlap(s, c)
            assert got == formula(s, c)
            nonzero += got > 0.0
        assert nonzero > 50


class TestContinuityPenalty:
    def test_perfect_preimage(self):
        assert projection_continuity_penalty(1.0) == 0.0

    def test_worst_case(self):
        assert projection_continuity_penalty(0.0) == pytest.approx(
            math.log2(3) + 2.0, abs=1e-12
        )

    def test_intermediate(self):
        want = 0.1 * math.log2(3) + 1.1 * binary_entropy(0.1 / 1.1)
        assert projection_continuity_penalty(0.99) == pytest.approx(want, abs=1e-12)


class TestEntropyBound:
    def test_ideal_point(self):
        assert entropy_bound(WinningStats(1.0, 1.0)) >= 0.9997

    def test_zero_equation_rate(self):
        for wp in (0.0, 0.5, 1.0):
            assert entropy_bound(WinningStats(wp, 0.0)) == 0.0

    def test_monotone_spot(self):
        a = entropy_bound(WinningStats(0.999, 0.999))
        b = entropy_bound(WinningStats(1.0, 1.0))
        assert a <= b

    def test_in_unit_interval_and_monotone_grid(self):
        prev_row = None
        for i in range(11):
            row = []
            wp = 1.0 - i * 1e-6
            for j in range(11):
                wm = 1.0 - j * 1e-6
                v = entropy_bound(WinningStats(wp, wm))
                assert 0.0 <= v <= 1.0
                row.append(v)
            # non-increasing as wm decreases, and rows dominate lower-wp rows
            assert all(row[k] >= row[k + 1] - 1e-12 for k in range(10))
            if prev_row is not None:
                assert all(p >= r - 1e-12 for p, r in zip(prev_row, row))
            prev_row = row


class TestCombinedBound:
    def test_perfect_winning(self):
        assert entropy_bound_combined(1.0, 0.045) >= 0.999

    def test_half_clamps(self):
        for beta in (0.045, 0.3, 0.9):
            assert entropy_bound_combined(0.5, beta) == 0.0

    def test_against_dense_grid_oracle(self):
        # Independent dense scan over the feasible split.
        for omega in (0.99, 1.0 - 1e-13):
            beta = 0.045
            lo = max(0.0, (omega - beta) / (1.0 - beta))
            hi = min(1.0, omega / (1.0 - beta))
            n = 2001
            best = math.inf
            for k in range(n):
                wp = lo + (hi - lo) * k / (n - 1)
                wm = min(1.0, max(0.0, (omega - (1 - beta) * wp) / beta))
                s = WinningStats(wp, wm)
                best = min(best, bound._entropy_bound_pure(s, DEFAULT_BOUND_CONFIG))
            got = entropy_bound_combined(omega, beta)
            assert got == pytest.approx(best, abs=1e-6)

    def test_monotone_in_omega(self):
        values = [
            entropy_bound_combined(w, 0.045)
            for w in (0.5, 0.9, 1.0 - 1e-13, 1.0 - 1e-14, 1.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            entropy_bound_combined(0.9, 0.0)


class TestBackendAgreement:
    """The numpy kernel behind entropy_bound, entropy_bounds and
    entropy_bound_combined reproduces the scalar reference
    (_entropy_bound_pure, _entropy_bound_combined_pure) bit for bit at these
    points."""

    def test_two_var_matches_pure(self):
        for wp, wm, mu in [(1.0, 1.0, 0.0), (0.98, 0.97, 0.0), (0.999, 1.0, 0.01)]:
            s = WinningStats(wp, wm, mu)
            assert entropy_bound(s) == bound._entropy_bound_pure(s, DEFAULT_BOUND_CONFIG)

    def test_combined_matches_pure(self):
        for omega, beta in [
            (0.5, 0.045),
            (0.97, 0.045),
            (1.0 - 1e-13, 0.045),
            (1.0, 0.045),
            (1.0 - 1e-12, 0.01),
            (1.0 - 2e-13, 0.01),
        ]:
            assert entropy_bound_combined(omega, beta) == (
                bound._entropy_bound_combined_pure(omega, beta, DEFAULT_BOUND_CONFIG)
            )

    def test_combined_matches_pure_on_rate_requests(self, tmp_path, monkeypatch):
        # Every (omega, beta) that `eatcert rate` evaluates on the two grids
        # of perfbench's rate-curves workload: the README grid and the last
        # 1e-12 below 1.  The pairs do not depend on gamma.
        pairs = set()
        combined = eat.entropy_bound_combined

        def record(omega, beta):
            pairs.add((omega, beta))
            return combined(omega, beta)

        monkeypatch.setattr(eat, "entropy_bound_combined", record)
        for grid in ("0.9995:1.0:0.0001", "0.999999999999:1.0:2e-13"):
            argv = ["rate", "--n", "1e8,1e10,1e12,inf", "--gamma", "0.5",
                    "--omega-grid", grid, "--out", str(tmp_path / "rate.csv")]
            assert main(argv) == 0
        assert len(pairs) == 85
        for omega, beta in sorted(pairs):
            assert combined(omega, beta) == (
                bound._entropy_bound_combined_pure(omega, beta, DEFAULT_BOUND_CONFIG)
            ), (omega, beta)

    def test_split_without_prefactor_gives_exact_zero(self):
        # a(c) >= 10 on (1/2, 1], so a split with 1 - 10 pen <= 0 has no c
        # with a positive prefactor.  Here the first split has one and a
        # later split does not.
        omega, beta = 1.0 - 2e-5, 0.001
        lo = (omega - beta) / (1.0 - beta)
        hi = min(1.0, omega / (1.0 - beta))
        pens = [
            bound._rate_terms(wp, min(1.0, max(0.0, (omega - (1 - beta) * wp) / beta)), 0.0)[0]
            for wp in (lo, hi)
        ]
        assert 1.0 - 10.0 * pens[0] > 0.0 >= 1.0 - 10.0 * pens[1]
        assert entropy_bound_combined(omega, beta) == 0.0
        assert bound._entropy_bound_combined_pure(omega, beta, DEFAULT_BOUND_CONFIG) == 0.0
        s = WinningStats(hi, (omega - (1 - beta) * hi) / beta)
        assert entropy_bound(s) == 0.0 == bound._entropy_bound_pure(s, DEFAULT_BOUND_CONFIG)

    def test_two_var_rows_match_pure_within_log2_rounding(self):
        # The kernel evaluates the binary entropy, and log2(1/c) at the
        # golden-section points, with np.log2, which differs from libm's
        # log2 by one ulp on about 0.3% of inputs.  A row's value then moves
        # by a few ulp of 1 at most (3.1e-16 here, 2 of these 400 rows), so
        # the bound is 1e-15, about 4.5 ulp of 1; most rows agree exactly.
        rng = random.Random(20231)
        stats = [
            WinningStats(
                1.0 - 10.0 ** rng.uniform(-16, -1),
                1.0 - 10.0 ** rng.uniform(-16, -1),
                rng.choice((0.0, 0.0, 10.0 ** rng.uniform(-9, -3))),
            )
            for _ in range(400)
        ]
        got = entropy_bounds(stats)
        want = [bound._entropy_bound_pure(s, DEFAULT_BOUND_CONFIG) for s in stats]
        assert sum(w > 0.0 for w in want) > 50
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-15
        assert sum(g != w for g, w in zip(got, want)) <= 8
