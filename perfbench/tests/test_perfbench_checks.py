"""Each output check accepts the program's real output and rejects a
corrupted copy of it.

Run from the repository root:  python -m pytest perfbench/tests
"""

import contextlib
import io
import math
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import worker  # noqa: E402
from worker import program_device  # noqa: E402
from eatcert import cli, devices  # noqa: E402
from eatcert.eat import RATE_BOUND_CONFIG, entropy_bound_combined  # noqa: E402

# ---------------------------------------------------------------------------
# rate-curves
# ---------------------------------------------------------------------------

GRID = (0.9, 1.0, 0.05)
OMEGAS = [0.9, 0.95, 1.0]
INF = {0.9: 0.0, 0.95: 0.2, 1.0: 0.9}


def reference(omega, gamma):
    return INF[omega]


def rate_rows(inf=INF):
    rows = []
    for n, penalty in zip(checks.N_TOKENS, (0.3, 0.1, 0.01, 0.0)):
        rows += [(n, w, max(0.0, inf[w] - penalty)) for w in OMEGAS]
    return rows


def run_rate_check(rows):
    return checks.check_rate_curves(rows, GRID, 0.5, [0, 1], reference)


def test_rate_rows_pass():
    assert run_rate_check(rate_rows()) == ([], [])


def test_finite_rate_above_asymptotic_rate_is_rejected():
    rows = rate_rows()
    rows[1] = (rows[1][0], rows[1][1], INF[0.95] + 0.01)  # n = 1e8 row
    faults, errors = run_rate_check(rows)
    assert faults == []
    assert any("rate falls" in e for e in errors)


def test_asymptotic_curve_falling_in_omega_is_rejected():
    falling = {0.9: 0.0, 0.95: 0.5, 1.0: 0.4}
    rows = [(n, w, falling[w] if n == "inf" else 0.0) for n in checks.N_TOKENS for w in OMEGAS]
    _, errors = checks.check_rate_curves(rows, GRID, 0.5, [], lambda w, g: falling[w])
    assert any("asymptotic rate falls" in e for e in errors)


def test_rate_outside_unit_interval_is_rejected():
    rows = rate_rows()
    rows[-1] = ("inf", 1.0, 1.5)
    _, errors = run_rate_check(rows)
    assert any("outside [0, 1]" in e for e in errors)


def test_repeated_omega_is_a_fault_not_an_error():
    rows = rate_rows()
    rows.insert(3, ("100000000", 1.0, rows[2][2]))
    faults, errors = run_rate_check(rows)
    assert faults == ["1 rows repeat an omega already listed for their n"]
    assert errors == []


def check_over_report(excess, at):
    over = {**INF, 0.95: 0.2 + excess}
    rows = rate_rows(over)
    return checks.check_rate_curves(rows, GRID, 0.5, [0, 1], reference, overshoot_at=at)


def test_known_overshoot_is_a_fault_only_where_and_as_large_as_known():
    faults, errors = check_over_report(1e-5, at=0.95)
    assert len(faults) == 1 and "grid reference" in faults[0] and errors == []
    for excess, at in ((1e-5, None), (1e-5, 0.9), (1e-3, 0.95), (0.5, 0.95)):
        faults, errors = check_over_report(excess, at)
        assert faults == [] and any("grid reference" in e for e in errors), (excess, at)


def test_rate_below_reference_is_rejected():
    under = {**INF, 0.95: 0.2 - 1e-5}
    faults, errors = run_rate_check(rate_rows(under))
    assert faults == [] and any("grid reference" in e for e in errors)


@pytest.mark.parametrize("omega,beta", [(1.0 - 2e-13, 0.045), (1.0, 0.01), (0.9999, 0.02)])
def test_grid_bound_matches_program(omega, beta):
    program = entropy_bound_combined(omega, beta, RATE_BOUND_CONFIG)
    assert abs(checks.grid_combined_bound(omega, beta) - program) < checks.ORACLE_TOL


# ---------------------------------------------------------------------------
# protocol-certify
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """One real `eatcert simulate` run on a benchmark-made device."""
    tmp = tmp_path_factory.mktemp("sim")
    rng = random.Random(7)
    device = inputs._device(rng, 2)
    beta, gamma = 0.05, 0.5
    omega = (1 - beta) * device["preimage_win"] + beta * device["equation_win"]
    params = {
        "n": 3000, "gamma": gamma, "beta": beta, "eps_s": 1e-5, "p_omega": 1e-5,
        "omega_exp": omega, "delta_est": 0.02, "omega_0": omega,
    }
    (tmp / "device.txt").write_text(inputs.device_file_text(device))
    (tmp / "params.txt").write_text("".join(f"{k} = {v!r}\n" for k, v in params.items()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main([
            "simulate", "--device-file", str(tmp / "device.txt"), "--params",
            str(tmp / "params.txt"), "--seed", "4", "--out", str(tmp / "tr.txt"),
        ])
    assert rc == 0
    return (tmp / "tr.txt").read_text(), out.getvalue().strip(), device, params


def test_transcript_passes(simulated):
    assert checks.check_transcript(*simulated) == []


def test_flipped_win_bit_is_rejected(simulated):
    text, summary, device, params = simulated
    lines = text.splitlines()
    k = next(i for i, line in enumerate(lines[1:], 1) if line.endswith(",1"))
    lines[k] = lines[k][:-1] + "0"
    assert checks.check_transcript("\n".join(lines) + "\n", summary, device, params)


def test_wrong_abort_flag_is_rejected(simulated):
    text, summary, device, params = simulated
    assert " aborted=0" in text.splitlines()[0]
    errors = checks.check_transcript(text.replace(" aborted=0", " aborted=1", 1), summary, device, params)
    assert any("abort flag" in e for e in errors)


def test_wrong_printed_frequency_is_rejected(simulated):
    text, summary, device, params = simulated
    fields = checks.parse_summary(summary)
    wrong = summary.replace(f"freq_1={fields['freq_1']}", f"freq_1={float(fields['freq_1']) + 1e-4!r}")
    assert any("freq_1" in e for e in checks.check_transcript(text, wrong, device, params))


def test_win_rate_far_from_device_is_rejected(simulated):
    text, summary, device, params = simulated
    other = dict(device, preimage_win=device["preimage_win"] - 0.1)
    assert any("preimage wins" in e for e in checks.check_transcript(text, summary, other, params))


def test_records_digest_sees_one_field():
    rec = [(0, "k00000000", 1, 0, 1, None, None)]
    assert checks.records_digest(rec) != checks.records_digest([(0, "k00000000", 1, 0, 0, None, None)])


# ---------------------------------------------------------------------------
# oracle-verify
# ---------------------------------------------------------------------------


def oracle_specs():
    return inputs.make_plan("oracle-verify", 3, "")["oracle_devices"][:8]


def test_round_entropy_reference_matches_oracle():
    for spec in oracle_specs():
        assert checks.check_round_entropy(spec, devices.exact_round_entropy(program_device(spec))) == []


def test_wrong_exact_entropy_is_rejected():
    spec = oracle_specs()[0]
    value = devices.exact_round_entropy(program_device(spec)) + 1e-8
    assert checks.check_round_entropy(spec, value)


def test_verify_line_forms():
    ok = "suite=jordan trials=5 result=pass worst_slack=np.float64(9.9e-10) slack = 1e-9 - worst error\n"
    assert checks.check_verify_output(ok, "jordan", 5) == []
    plain = "suite=continuity trials=5 result=pass worst_slack=0.003 slack = allowance - gap\n"
    assert checks.check_verify_output(plain, "continuity", 5) == []
    assert checks.check_verify_output(ok.replace("result=pass", "result=FAIL"), "jordan", 5)
    assert checks.check_verify_output(ok, "jordan", 6)
    assert checks.check_verify_output("usage error\n", "jordan", 5)


def test_failing_verify_request_is_an_error(monkeypatch):
    from eatcert.verify import SuiteReport

    monkeypatch.setattr(cli, "run_suite", lambda name, trials, seed: SuiteReport(name, trials, False, -0.5))
    plan = inputs.make_plan("oracle-verify", 3, "")
    plan = dict(plan, requests=plan["requests"][:1], oracle_devices=[])
    _, result = worker.run_request(plan["requests"][0])
    assert result["rc"] == 2
    faults, errors = worker.check_outputs(plan, [result])
    assert faults == [[]]
    assert any("exit code 2" in e for e in errors)
    assert any("result=FAIL" in e for e in errors)


def test_kernel_disagreement_is_rejected():
    assert checks.check_kernel_agreement([("f(1)", 0.25, 0.25)]) == []
    assert checks.check_kernel_agreement([("f(1)", 0.25, 0.25), ("f(2)", 0.1, math.nextafter(0.1, 1.0))])


def test_kernels_agree_at_the_benchmark_points():
    # Without compiled kernels both values come from the pure path.
    assert checks.check_kernel_agreement(worker.kernel_cases()) == []


def test_plan_is_a_function_of_the_seed(tmp_path):
    a = inputs.make_plan("protocol-certify", 5, str(tmp_path))
    b = inputs.make_plan("protocol-certify", 5, str(tmp_path))
    c = inputs.make_plan("protocol-certify", 6, str(tmp_path))
    assert a == b and a != c
    assert math.isclose(sum(x["weight"] for x in a["requests"][0]["device"]["blocks"])
                        + a["requests"][0]["device"]["junk_weight"], 1.0, abs_tol=1e-12)
