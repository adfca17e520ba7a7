import math

import pytest
from hypothesis import given, strategies as st

from eatcert.numerics import (
    DEFAULT_OPTIMIZER,
    Interval,
    OptimizerConfig,
    binary_entropy,
    clamp01,
    maximize_scalar,
    minimize_scalar,
)

unit = st.floats(min_value=0.0, max_value=1.0)


class TestInterval:
    def test_width(self):
        assert Interval(0.25, 0.75).width == 0.5

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_rejects_infinite(self):
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)


class TestOptimizerConfig:
    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            OptimizerConfig(grid_points=1)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            OptimizerConfig(tolerance=0.0)


class TestBinaryEntropy:
    def test_symmetric_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_degenerate(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_reference_value(self):
        # Independent high-precision evaluation of h(0.11).
        assert binary_entropy(0.11) == pytest.approx(0.49993, abs=1e-4)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binary_entropy(1.1)
        with pytest.raises(ValueError):
            binary_entropy(-0.1)

    @given(unit)
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    @given(unit, unit, unit)
    def test_concavity(self, x, y, t):
        mid = binary_entropy(t * x + (1.0 - t) * y)
        chord = t * binary_entropy(x) + (1.0 - t) * binary_entropy(y)
        assert mid >= chord - 1e-12


class TestClamp:
    def test_examples(self):
        assert clamp01(1.3) == 1.0
        assert clamp01(-0.2) == 0.0
        assert clamp01(0.4) == 0.4


class TestMaximize:
    def test_quadratic(self):
        arg, value = maximize_scalar(lambda x: -((x - 0.3) ** 2), Interval(0.0, 1.0))
        assert arg == pytest.approx(0.3, abs=1e-6)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_boundary(self):
        arg, value = maximize_scalar(lambda x: x, Interval(0.0, 1.0))
        assert (arg, value) == (1.0, 1.0)

    def test_value_dominates_endpoints(self):
        f = lambda x: math.sin(5 * x) + 0.3 * x
        _, value = maximize_scalar(f, Interval(0.0, 1.0))
        assert value >= f(0.0) and value >= f(1.0)

    def test_grid_sanity(self):
        # The returned maximum dominates many random domain points.
        import random

        rnd = random.Random(0)
        f = lambda x: math.cos(7 * x) * math.exp(-x)
        _, value = maximize_scalar(f, Interval(0.0, 1.0))
        for _ in range(1000):
            assert value >= f(rnd.random()) - 1e-12


class TestMinimize:
    def test_quadratic(self):
        arg, _ = minimize_scalar(lambda x: (x - 0.7) ** 2, Interval(0.0, 1.0))
        assert arg == pytest.approx(0.7, abs=1e-6)

    def test_boundary(self):
        arg, value = minimize_scalar(lambda x: x, Interval(0.0, 1.0))
        assert (arg, value) == (0.0, 0.0)

    def test_degenerate_interval(self):
        arg, value = minimize_scalar(lambda x: x * x, Interval(0.5, 0.5))
        assert (arg, value) == (0.5, 0.25)

