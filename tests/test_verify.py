import math

import pytest

from eatcert.verify import SUITES, run_suite
from reference_suites import REFERENCE_SUITES


class TestRunSuite:
    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_small_run_passes(self, name):
        report = run_suite(name, 10, seed=0)
        assert report.passed
        assert report.trials == 10
        assert report.worst_slack >= -1e-9

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_zero_trials_vacuous(self, name):
        report = run_suite(name, 0, seed=0)
        assert report.passed
        assert report.worst_slack == math.inf

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suite("nope", 10, seed=0)

    def test_negative_trials(self):
        with pytest.raises(ValueError):
            run_suite("jordan", -1, seed=0)

    def test_deterministic_under_seed(self):
        a = run_suite("good-subspace", 20, seed=5)
        b = run_suite("good-subspace", 20, seed=5)
        assert a == b


class TestAgainstTrialByTrialReference:
    """The stacked suites against the per-trial loops of reference_suites."""

    @pytest.mark.parametrize("name", ["jordan", "good-subspace", "continuity"])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("trials", [0, 1, 7, 200])
    def test_stacked_suites_equal_reference(self, name, seed, trials):
        assert run_suite(name, trials, seed) == REFERENCE_SUITES[name](trials, seed)

    @pytest.mark.parametrize("name", ["jordan", "good-subspace", "continuity"])
    @pytest.mark.parametrize("chunk", [1, 4])
    def test_chunks_straddling_trials(self, name, chunk, monkeypatch):
        import eatcert.verify

        monkeypatch.setattr(eatcert.verify, "_CHUNK", chunk)
        for trials in (1, 7, 30):
            assert run_suite(name, trials, 4) == REFERENCE_SUITES[name](trials, 4)

    @pytest.mark.parametrize("name", ["jordan", "good-subspace", "continuity"])
    def test_more_trials_than_one_chunk(self, name):
        assert run_suite(name, 600, 1) == REFERENCE_SUITES[name](600, 1)

    def test_continuity_skips_distances_of_one_or_more(self, monkeypatch):
        # Random mixtures never reach trace distance 1; stretch the distances
        # so that both loops skip the same trials.
        from eatcert import quantum

        distance = quantum.trace_distance
        monkeypatch.setattr(quantum, "trace_distance", lambda r, s: 4.0 * distance(r, s))
        for trials in (1, 7, 200):
            got = run_suite("continuity", trials, 2)
            assert got == REFERENCE_SUITES["continuity"](trials, 2)
        assert got.worst_slack < math.inf

    @pytest.mark.parametrize(
        "name, trials", [("bound-vs-oracle", 0), ("bound-vs-oracle", 1),
                         ("bound-vs-oracle", 7), ("bound-vs-oracle", 200),
                         ("tradeoff", 0), ("tradeoff", 1), ("tradeoff", 7)]
    )
    @pytest.mark.parametrize("seed", [0, 5])
    def test_oracle_suites_match_purified_reference(self, name, trials, seed):
        got = run_suite(name, trials, seed)
        want = REFERENCE_SUITES[name](trials, seed)
        assert (got.trials, got.passed, got.message) == (want.trials, want.passed, want.message)
        if trials == 0:
            assert got.worst_slack == want.worst_slack == math.inf
        else:
            assert got.worst_slack == pytest.approx(want.worst_slack, abs=1e-12)
