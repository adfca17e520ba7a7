import math
from collections import Counter
from dataclasses import fields

import pytest

from eatcert import cli, eat
from eatcert.bound import WinningStats, entropy_bound
from eatcert.cli import UsageError, _parse_grid, main
from eatcert.devices import ideal_device, serialize_device
from eatcert.eat import (
    BETA_GRID,
    CUTOFF_GRID,
    EatParams,
    TradeoffCurve,
    TradeoffFunction,
    accumulation_rate,
    asymptotic_rate,
)
from eatcert.protocol import RoundRecord, Transcript, parse_transcript
from eatcert.verify import SuiteReport

PARAMS = """\
n = 2000
gamma = 0.5
beta = 0.045
eps_s = 1e-5
p_omega = 1e-5
omega_exp = 0.95
delta_est = 0.02
omega_0 = 0.95
"""


def write_inputs(tmp_path, device=None):
    dev = tmp_path / "device.txt"
    dev.write_text(serialize_device(device or ideal_device()))
    par = tmp_path / "params.txt"
    par.write_text(PARAMS)
    return str(dev), str(par)


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestParseGrid:
    def test_inclusive_endpoints(self):
        assert _parse_grid("0:1:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_final_point_clamped(self):
        grid = _parse_grid("0.9995:1.0:0.0001")
        assert grid[-1] == 1.0
        assert len(grid) == 6

    def test_step_below_clamp_tolerance_gives_no_duplicates(self):
        # The last step lands within 1e-12 of hi; later steps used to clamp
        # to hi again and repeat it.
        lo = 0.999999999999
        grid = _parse_grid(f"{lo!r}:1.0:2e-13")
        assert len(grid) == len(set(grid)) == 6
        assert grid[0] == lo and grid[-1] == 1.0
        assert grid == sorted(grid)

    def test_bad_specs(self):
        for spec in ("0:1", "a:b:c", "1:0:0.1", "0:1:0"):
            with pytest.raises(UsageError):
                _parse_grid(spec)

    def test_step_below_double_spacing_is_refused(self, tmp_path, capsys):
        # lo + k * 1e-17 rounds back to lo: the grid would repeat points.
        spec = "0.999999999999:1.0:1e-17"
        with pytest.raises(UsageError):
            _parse_grid(spec)
        out = tmp_path / "b.csv"
        assert main(["bound", "--beta", "0.045", "--omega-grid", spec, "--out", str(out)]) == 1
        assert "spacing of doubles" in capsys.readouterr().err


class TestExitCodes:
    def test_bad_flag_is_usage_error(self, capsys):
        assert main(["bound", "--nope"]) == 1

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_missing_device_file(self, tmp_path, capsys):
        _, par = write_inputs(tmp_path)
        code = main(
            ["simulate", "--device-file", str(tmp_path / "none.txt"),
             "--params", par, "--out", str(tmp_path / "t.txt")]
        )
        assert code == 1

    def test_unknown_param_key(self, tmp_path, capsys):
        dev, _ = write_inputs(tmp_path)
        bad = tmp_path / "params.txt"
        bad.write_text(PARAMS + "bogus = 1\n")
        code = main(
            ["simulate", "--device-file", dev, "--params", str(bad),
             "--out", str(tmp_path / "t.txt")]
        )
        assert code == 1

    def test_verify_failure_is_code_2(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli,
            "run_suite",
            lambda name, trials, seed: SuiteReport(name, trials, False, -1.0, "bad"),
        )
        assert main(["verify", "--suite", "jordan", "--trials", "5"]) == 2

    def test_verify_pass_is_code_0(self, capsys):
        assert main(["verify", "--suite", "jordan", "--trials", "3"]) == 0

    def test_verify_prints_plain_float_slack(self, capsys):
        assert main(["verify", "--suite", "jordan", "--trials", "3"]) == 0
        fields = dict(
            tok.split("=", 1) for tok in capsys.readouterr().out.split() if "=" in tok
        )
        assert float(fields["worst_slack"]) >= -1e-9

    def test_zero_trials_warns_but_passes(self, capsys):
        assert main(["verify", "--suite", "tradeoff", "--trials", "0"]) == 0
        assert "vacuous" in capsys.readouterr().err


class TestBoundCommand:
    def test_values_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["bound", "--beta", "0.045", "--omega-grid", "0.5:1.0:0.1"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header, rows = read_rows(out1)
        assert header == ["omega", "bound"]
        assert float(rows[0][1]) == 0.0
        assert float(rows[-1][1]) >= 0.999

    def test_grid_matches_request(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        assert main(["bound", "--beta", "0.045", "--omega-grid", "0:1:0.5",
                     "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]


class TestBound2dCommand:
    def test_corner_values(self, tmp_path, capsys):
        out = tmp_path / "b2.csv"
        assert main(["bound2d", "--grid", "0.5:1.0:0.25", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == ["omega_p", "omega_m", "bound"]
        table = {(r[0], r[1]): float(r[2]) for r in rows}
        assert table[("1.0", "1.0")] >= 0.999
        assert table[("0.5", "0.5")] == 0.0
        assert len(rows) == 9

    def test_rows_equal_entropy_bound_per_cell(self, tmp_path, capsys):
        out = tmp_path / "b2.csv"
        assert main(["bound2d", "--grid", "0.99999999999:1.0:2e-12", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 36
        nonzero = 0
        for wp, wm, got in rows:
            want = entropy_bound(WinningStats(float(wp), float(wm)))
            assert got == repr(want)
            nonzero += want > 0.0
        assert nonzero >= 10


class TestRateCommand:
    def test_finite_n_dominated_by_infinite(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(
            ["rate", "--n", "1e8,inf", "--gamma", "1.0",
             "--omega-grid", "0.999:1.0:0.0005", "--out", str(out)]
        ) == 0
        header, rows = read_rows(out)
        assert header == ["n", "omega", "rate"]
        finite = {r[1]: float(r[2]) for r in rows if r[0] != "inf"}
        infinite = {r[1]: float(r[2]) for r in rows if r[0] == "inf"}
        assert set(finite) == set(infinite)
        for omega, rate in finite.items():
            assert rate <= infinite[omega] + 1e-12
        assert infinite[max(infinite)] > 0.98

    def test_deterministic(self, tmp_path, capsys):
        argv = ["rate", "--n", "1e10", "--omega-grid", "0.99:1.0:0.005"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("n", ["0", "-5", "0.5", "abc", "1e8,0", "nan", "-inf"])
    def test_rejects_bad_round_count(self, n, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["rate", "--n", n, "--omega-grid", "0.9:1.0:0.1", "--out", str(out)]) == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()

    def test_accepts_whole_numbers_and_inf(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["rate", "--n", "1, 2e3 ,inf,INF,Infinity,1e400",
                     "--omega-grid", "0.9:1.0:0.1", "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert [r[0] for r in rows] == ["1", "1", "2000", "2000"] + ["inf"] * 8


def fake_combined_bound(omega, beta):
    """Cheap stand-in for the combined bound: non-zero only near 1."""
    return max(0.0, 1.0 - 50.0 * (1.0 - omega)) * (1.0 - beta)


class TestRateSharing:
    N = "1e8,1e12,inf"
    GRID = "0.99:1.0:0.0025"
    GAMMA = 0.5

    def run_rate(self, out):
        return main(
            ["rate", "--n", self.N, "--gamma", repr(self.GAMMA),
             "--omega-grid", self.GRID, "--out", str(out)]
        )

    def test_each_bound_evaluated_once_per_request(self, tmp_path, monkeypatch, capsys):
        calls = Counter()

        def counted(omega, beta):
            calls[(omega, beta)] += 1
            return fake_combined_bound(omega, beta)

        monkeypatch.setattr(eat, "entropy_bound_combined", counted)
        # The grid's omegas, the tradeoff cutoffs and their secant points.
        omegas = set(_parse_grid(self.GRID)) | set(CUTOFF_GRID)
        omegas |= {omega_0 - eat._SLOPE_STEP for omega_0 in CUTOFF_GRID}
        pairs = {(omega, beta) for omega in omegas for beta in BETA_GRID}
        for k in range(2):
            calls.clear()
            assert self.run_rate(tmp_path / f"r{k}.csv") == 0
            # A second request computes every pair again: nothing is kept
            # between requests.
            assert set(calls) == pairs
            assert set(calls.values()) == {1}

    def test_rows_match_direct_evaluation(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(eat, "entropy_bound_combined", fake_combined_bound)
        out = tmp_path / "r.csv"
        assert self.run_rate(out) == 0
        eps = pomega = 1e-5
        want = []
        for tok in self.N.split(","):
            for omega in _parse_grid(self.GRID):
                if tok == "inf":
                    rate = asymptotic_rate(
                        omega,
                        [TradeoffCurve(beta, self.GAMMA)
                         for beta in BETA_GRID],
                    )
                else:
                    rate = max(
                        accumulation_rate(
                            TradeoffFunction(
                                TradeoffCurve(beta, self.GAMMA), omega_0
                            ),
                            omega, float(tok), eps, pomega,
                        )
                        for beta in BETA_GRID
                        for omega_0 in CUTOFF_GRID
                    )
                want.append([tok if tok == "inf" else str(int(float(tok))), repr(omega), repr(rate)])
        header, rows = read_rows(out)
        assert header == ["n", "omega", "rate"]
        assert rows == want
        assert any(float(r[2]) > 0.0 for r in rows)


class TestSimulateCommand:
    def test_honest_run(self, tmp_path, capsys):
        dev, par = write_inputs(tmp_path)
        out = tmp_path / "t.txt"
        code = main(["simulate", "--device-file", dev, "--params", par,
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        summary = capsys.readouterr().out
        assert "aborted=false" in summary
        assert "generation_rounds=" in summary
        tr = parse_transcript(out.read_text())
        assert len(tr.rounds) == 2000
        assert not tr.aborted

    def test_abort_still_exit_zero(self, tmp_path, capsys):
        dev = tmp_path / "dead.txt"
        dev.write_text("blocks = 0\njunk_weight = 1.0\n")
        _, par = write_inputs(tmp_path)
        out = tmp_path / "t.txt"
        code = main(["simulate", "--device-file", str(dev), "--params", par,
                     "--out", str(out)])
        assert code == 0
        summary = capsys.readouterr().out
        assert "aborted=true" in summary
        assert "certified_entropy=0.0" in summary

    def test_deterministic_transcripts(self, tmp_path, capsys):
        dev, par = write_inputs(tmp_path)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert main(["simulate", "--device-file", dev, "--params", par,
                         "--seed", "9", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestParamsFile:
    def test_slack_defaults_to_zero(self, tmp_path):
        _, par = write_inputs(tmp_path)
        params, omega_0 = cli._load_params(par)
        assert params.xi_slack == 0.0
        assert (params.n, params.delta_est, omega_0) == (2000, 0.02, 0.95)

    def test_slack_reaches_the_transcript(self, tmp_path, capsys):
        dev, par = write_inputs(tmp_path)
        with open(par, "a") as fh:
            fh.write("xi_slack = 0.25\n")
        out = tmp_path / "t.txt"
        assert main(["simulate", "--device-file", dev, "--params", par,
                     "--seed", "3", "--out", str(out)]) == 0
        assert parse_transcript(out.read_text()).params.xi_slack == 0.25

    @pytest.mark.parametrize("key", [f.name for f in fields(EatParams) if f.name != "xi_slack"])
    def test_missing_key_is_usage_error(self, key, tmp_path, capsys):
        dev, _ = write_inputs(tmp_path)
        par = tmp_path / "short.txt"
        par.write_text("".join(
            line + "\n" for line in PARAMS.splitlines() if not line.startswith(key + " ")
        ))
        assert main(["simulate", "--device-file", dev, "--params", str(par),
                     "--out", str(tmp_path / "t.txt")]) == 1
        assert repr(key) in capsys.readouterr().err

    def test_simulate_pays_slack_once_per_round(self, tmp_path, monkeypatch, capsys):
        # n = 10^16 rounds cannot be simulated; a few generation rounds under
        # those parameters stand in, since the certified entropy depends only
        # on the parameters of a transcript that did not abort.
        def few_rounds(device, params, seed):
            rounds = [RoundRecord(i, f"k{i:08d}", 1, 0, 0, None, None) for i in range(3)]
            return Transcript.from_rounds(params, seed, rounds)

        monkeypatch.setattr(cli, "run_protocol", few_rounds)
        dev, _ = write_inputs(tmp_path)
        n = 10**16
        rates = []
        for xi in ("0", "0.01"):
            par = tmp_path / f"p{xi}.txt"
            par.write_text(
                f"n = {n}\ngamma = 0.5\nbeta = 0.045\neps_s = 1e-5\np_omega = 1e-5\n"
                f"omega_exp = 1.0\ndelta_est = 1e-30\nxi_slack = {xi}\nomega_0 = 1.0\n"
            )
            assert main(["simulate", "--device-file", dev, "--params", str(par),
                         "--out", str(tmp_path / "t.txt")]) == 0
            summary = dict(tok.split("=") for tok in capsys.readouterr().out.split())
            rates.append(float(summary["certified_entropy"]) / n)
        assert rates[1] > 0.0
        assert rates[0] - rates[1] == pytest.approx(0.01, abs=1e-12)
