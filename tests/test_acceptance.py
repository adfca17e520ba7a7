"""End-to-end acceptance gate.

Each test checks one release criterion and prints a single pass line; the
stated runtime ceilings are asserted alongside the mathematical checks.
"""

import math
import time

import pytest

from eatcert.bound import WinningStats, entropy_bound
from eatcert.cli import main
from eatcert.devices import DeviceBlock, QubitBlockDevice, _named_state
from eatcert.eat import (
    EatParams,
    TradeoffCurve,
    TradeoffFunction,
    second_order_coefficient,
)
from eatcert.protocol import run_protocol
from eatcert.verify import run_suite


def timed(limit):
    start = time.perf_counter()

    def check():
        elapsed = time.perf_counter() - start
        assert elapsed < limit, f"runtime {elapsed:.1f}s exceeds {limit}s"

    return check


def winning_device(omega):
    """Device with preimage and equation winning rates both equal to omega."""
    angle = math.pi / 2.0
    return QubitBlockDevice(
        blocks=(DeviceBlock(omega, angle, _named_state("m0", angle)),),
        junk_weight=1.0 - omega,
    )


def read_rate_csv(path):
    lines = path.read_text().splitlines()
    curves = {}
    for line in lines[1:]:
        n, omega, rate = line.split(",")
        curves.setdefault(n, {})[omega] = float(rate)
    return curves


def test_criterion_1_block_spectra():
    done = timed(10.0)
    report = run_suite("jordan", 200, seed=0)
    assert report.passed, report
    done()
    print("PASS criterion 1: 200 two-projection block spectra within 1e-9")


def test_criterion_2_good_subspace_trace_bound():
    done = timed(30.0)
    report = run_suite("good-subspace", 500, seed=0)
    assert report.passed, report
    done()
    print("PASS criterion 2: good-subspace trace bound on 500 random instances")


def test_criterion_3_bound_below_exact_entropy():
    done = timed(120.0)
    report = run_suite("bound-vs-oracle", 500, seed=0)
    assert report.passed, report
    done()
    print(
        "PASS criterion 3: analytic bound never exceeds exact entropy on "
        "500 devices x 20 overlap points"
    )


def test_criterion_4_ideal_point():
    done = timed(1.0)
    value = entropy_bound(WinningStats(1.0, 1.0))
    assert value >= 0.999
    done()
    print(f"PASS criterion 4: perfect-winning bound {value:.6f} >= 0.999")


def test_criterion_5_second_order_arithmetic():
    done = timed(1.0)
    value = second_order_coefficient(6, 0, 1e-5, 1e-5)
    assert value == pytest.approx(60.78, abs=0.01)
    done()
    print(f"PASS criterion 5: second-order coefficient {value:.4f} = 60.78 +- 0.01")


def test_criterion_6_rate_curves_converge(tmp_path):
    done = timed(300.0)
    out = tmp_path / "rates.csv"
    code = main(
        ["rate", "--n", "1e8,1e10,1e12,inf", "--gamma", "1.0",
         "--eps", "1e-5", "--pomega", "1e-5",
         "--omega-grid", "0.9995:1.0:0.0001", "--out", str(out)]
    )
    assert code == 0
    curves = read_rate_csv(out)
    limit = curves.pop("inf")
    gaps = []
    for n in ("100000000", "10000000000", "1000000000000"):
        finite = curves[n]
        assert set(finite) == set(limit)
        for omega, rate in finite.items():
            assert rate <= limit[omega] + 1e-12
        gaps.append(max(limit[o] - finite[o] for o in finite))
    assert gaps[0] > gaps[1] > gaps[2]
    done()
    print(
        "PASS criterion 6: finite-n rate curves dominated by the limit curve, "
        f"max gaps {gaps[0]:.3f} > {gaps[1]:.3f} > {gaps[2]:.4f}"
    )


def test_criterion_7_completeness_and_soundness():
    done = timed(120.0)
    params = EatParams(
        n=10**4,
        gamma=0.5,
        beta=0.045,
        eps_s=1e-5,
        p_omega=1e-5,
        omega_exp=0.95,
        delta_est=0.02,
    )
    honest = winning_device(0.95)
    weak = winning_device(0.87)  # omega_exp - 2 delta_est / gamma
    honest_aborts = sum(
        run_protocol(honest, params, seed).aborted for seed in range(200)
    )
    weak_aborts = sum(
        run_protocol(weak, params, seed).aborted for seed in range(200)
    )
    assert honest_aborts <= 10
    assert weak_aborts >= 190
    done()
    print(
        f"PASS criterion 7: honest aborts {honest_aborts}/200 <= 5%, "
        f"weak-device aborts {weak_aborts}/200 >= 95%"
    )


def test_criterion_8_tradeoff_below_exact():
    done = timed(60.0)
    report = run_suite("tradeoff", 200, seed=0)
    assert report.passed, report
    done()
    print(
        "PASS criterion 8: tradeoff value below exact per-round entropy on "
        "200 devices"
    )


def test_criterion_9_gradient_consistency():
    done = timed(5.0)
    tf = TradeoffFunction(TradeoffCurve(0.045, 0.5), omega_0=1.0)
    worst = 0.0
    h = 1e-3
    for k in range(1, 51):
        omega = 1.0 + k * (1.0 / 51.0)
        fd = (tf.value(omega + h) - tf.value(omega - h)) / (2.0 * h)
        worst = max(worst, abs(fd - tf.slope) / abs(tf.slope))
    assert worst <= 1e-6
    done()
    print(
        f"PASS criterion 9: slope matches finite differences at 50 points, "
        f"worst relative error {worst:.2e}"
    )


def test_criterion_10_determinism(tmp_path):
    dev = tmp_path / "device.txt"
    dev.write_text(
        "blocks = 1\nblock0.weight = 1.0\n"
        "block0.angle = 1.5707963267948966\nblock0.state = m0\n"
    )
    par = tmp_path / "params.txt"
    par.write_text(
        "n = 2000\ngamma = 0.5\nbeta = 0.045\neps_s = 1e-5\np_omega = 1e-5\n"
        "omega_exp = 0.95\ndelta_est = 0.02\nomega_0 = 0.95\n"
    )
    commands = {
        "bound": ["bound", "--beta", "0.045", "--omega-grid", "0.9:1.0:0.01"],
        "rate": ["rate", "--n", "1e10,inf", "--omega-grid", "0.999:1.0:0.0005"],
        "simulate": ["simulate", "--device-file", str(dev), "--params", str(par),
                     "--seed", "3"],
    }
    for name, argv in commands.items():
        a = tmp_path / f"{name}_a.out"
        b = tmp_path / f"{name}_b.out"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), name
    print("PASS criterion 10: bound/rate/simulate reruns are byte-identical")
