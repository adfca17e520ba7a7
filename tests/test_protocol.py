import math

import numpy as np
import pytest

from eatcert.devices import QubitBlockDevice, ideal_device, random_device
from eatcert.eat import EatParams, RATE_BOUND_CONFIG, TradeoffFunction, certified_min_entropy
from eatcert.protocol import (
    BOT,
    FreqDistribution,
    RoundRecord,
    Transcript,
    certify,
    freq_of,
    markov_condition_audit,
    parse_transcript,
    run_protocol,
    serialize_transcript,
)


def make_params(**overrides):
    base = dict(
        n=2000,
        gamma=0.5,
        beta=0.045,
        eps_s=1e-5,
        p_omega=1e-5,
        omega_exp=0.95,
        delta_est=0.02,
    )
    base.update(overrides)
    return EatParams(**base)


def gen_round(i, w_prev=None):
    return RoundRecord(i, f"k{i:08d}", 1, 0, 0, BOT, BOT)


class TestRoundRecord:
    def test_generation_round_invariants(self):
        with pytest.raises(ValueError):
            RoundRecord(0, "k", 1, 1, BOT, 0, BOT)
        with pytest.raises(ValueError):
            RoundRecord(0, "k", 1, 0, 0, BOT, 1)

    def test_challenge_outcome_exclusivity(self):
        with pytest.raises(ValueError):
            RoundRecord(0, "k", 0, 0, 0, 0, 1)
        with pytest.raises(ValueError):
            RoundRecord(0, "k", 0, 1, 0, 0, 1)


class TestRunProtocol:
    def test_ideal_device_never_aborts(self):
        tr = run_protocol(ideal_device(), make_params(), seed=0)
        assert not tr.aborted
        assert len(tr.rounds) == 2000

    def test_dead_device_aborts(self):
        dev = QubitBlockDevice((), junk_weight=1.0)
        tr = run_protocol(dev, make_params(), seed=0)
        assert tr.aborted

    def test_abort_rule_matches_raw_records(self):
        p = make_params()
        tr = run_protocol(ideal_device(), p, seed=1)
        wins = sum(r.w for r in tr.rounds if r.g == 0 and r.w is not BOT)
        threshold = (p.omega_exp * p.gamma - p.delta_est) * p.n
        assert tr.aborted == (wins < threshold)
        assert tr.test_win_count() == wins

    def test_deterministic_under_seed(self):
        a = run_protocol(ideal_device(), make_params(), seed=7)
        b = run_protocol(ideal_device(), make_params(), seed=7)
        assert serialize_transcript(a) == serialize_transcript(b)

    def test_seed_changes_transcript(self):
        a = run_protocol(ideal_device(), make_params(), seed=7)
        b = run_protocol(ideal_device(), make_params(), seed=8)
        assert serialize_transcript(a) != serialize_transcript(b)

    def test_fresh_keys_by_default(self):
        tr = run_protocol(ideal_device(), make_params(n=50), seed=0)
        keys = [r.key_id for r in tr.rounds]
        assert len(set(keys)) == 50

    def test_key_reuse(self):
        tr = run_protocol(ideal_device(), make_params(n=50), seed=0, key_reuse=True)
        assert {r.key_id for r in tr.rounds} == {"k00000000"}

    def test_round_shape(self):
        tr = run_protocol(ideal_device(), make_params(n=500), seed=2)
        for r in tr.rounds:
            if r.g == 1:
                assert r.t == 0 and r.w is BOT and r.m_hat is BOT
            elif r.t == 0:
                assert r.pi_hat in (0, 1, 2) and r.w == (1 if r.pi_hat != 2 else 0)
            else:
                assert r.m_hat in (0, 1) and r.w == (1 if r.m_hat == 0 else 0)

    def test_split_fractions(self):
        p = make_params(n=20000, gamma=0.3, beta=0.2)
        tr = run_protocol(ideal_device(), p, seed=3)
        tests = [r for r in tr.rounds if r.g == 0]
        eq = [r for r in tests if r.t == 1]
        assert len(tests) / p.n == pytest.approx(p.gamma, abs=0.02)
        assert len(eq) / max(len(tests), 1) == pytest.approx(p.beta, abs=0.02)


class TestFreq:
    def test_constructed_counts(self):
        p = make_params(n=4)
        tr = Transcript(params=p, seed=0)
        tr.rounds = [
            RoundRecord(0, "a", 1, 0, 0, BOT, BOT),
            RoundRecord(1, "b", 0, 0, 0, BOT, 1),
            RoundRecord(2, "c", 0, 1, BOT, 1, 0),
            RoundRecord(3, "d", 0, 0, 1, BOT, 1),
        ]
        assert freq_of(tr).counts == (1, 1, 2)
        assert freq_of(tr, "test").counts == (0, 1, 2)
        assert freq_of(tr).probabilities() == (0.25, 0.25, 0.5)

    def test_all_generation(self):
        p = make_params(n=3)
        tr = Transcript(params=p, seed=0)
        tr.rounds = [gen_round(i) for i in range(3)]
        assert freq_of(tr).probabilities() == (1.0, 0.0, 0.0)

    def test_unknown_restriction(self):
        with pytest.raises(ValueError):
            freq_of(Transcript(params=make_params(), seed=0), "nope")

    def test_empty_distribution(self):
        with pytest.raises(ValueError):
            FreqDistribution((0, 0, 0), 0).probabilities()


class TestCertify:
    def test_aborted_raises(self):
        tr = Transcript(params=make_params(), seed=0, aborted=True)
        tf = TradeoffFunction(0.045, 0.5, 1.0, RATE_BOUND_CONFIG)
        with pytest.raises(ValueError):
            certify(tr, tf)

    def test_matches_direct_evaluation(self):
        p = make_params()
        tr = run_protocol(ideal_device(), p, seed=4)
        tf = TradeoffFunction(p.beta, p.gamma, 1.0, RATE_BOUND_CONFIG)
        entropy, count = certify(tr, tf)
        assert entropy == certified_min_entropy(p, tf)
        assert count == sum(1 for r in tr.rounds if r.g == 1)


class TestMarkovAudit:
    def test_honest_run_passes(self):
        p = make_params(n=10000)
        tr = run_protocol(ideal_device(), p, seed=3)
        assert markov_condition_audit(tr)

    def test_memoryless_transcripts_pass(self):
        # run_protocol's rounds are independent by construction.  Each of
        # these transcripts has a table with p below about 0.01 (0.18 over
        # the ~18 tables), so testing every table at 0.01 rejects them; at a
        # family-wise 0.01 they pass.
        dev = random_device(np.random.default_rng(11), max_blocks=3)
        p = make_params(n=4000, beta=0.3)
        for seed in (18, 22):
            tr = run_protocol(dev, p, seed)
            assert not markov_condition_audit(tr, significance=0.18)
            assert markov_condition_audit(tr)

    def test_past_dependent_challenges_fail(self):
        # Adversarial scheduler: challenge type copies the previous round's
        # win bit, a blatant violation of independence from the past.
        p = make_params(n=5000)
        tr = Transcript(params=p, seed=0)
        w_prev = 1
        for i in range(p.n):
            t = w_prev
            if t == 1:
                w = 1 if i % 3 else 0
                tr.rounds.append(RoundRecord(i, f"k{i:08d}", 0, 1, BOT, 1 - w, w))
            else:
                w = 1 if i % 4 else 0
                tr.rounds.append(
                    RoundRecord(i, f"k{i:08d}", 0, 0, 0 if w else 2, BOT, w)
                )
            w_prev = w
        assert not markov_condition_audit(tr)

    def test_too_short_raises(self):
        tr = run_protocol(ideal_device(), make_params(n=100), seed=0)
        with pytest.raises(ValueError):
            markov_condition_audit(tr)

    def test_constant_columns_are_vacuous(self):
        # All-generation transcript: every table is degenerate, audit passes.
        p = make_params(n=1500)
        tr = Transcript(params=p, seed=0)
        tr.rounds = [gen_round(i) for i in range(p.n)]
        assert markov_condition_audit(tr)


class TestSerialization:
    def test_roundtrip(self):
        tr = run_protocol(ideal_device(), make_params(n=200), seed=5)
        back = parse_transcript(serialize_transcript(tr))
        assert back.params == tr.params
        assert back.seed == tr.seed
        assert back.aborted == tr.aborted
        assert back.rounds == tr.rounds

    def test_roundtrip_preserves_error(self):
        tr = Transcript(params=make_params(), seed=0, aborted=True)
        tr.error = "device failure at round 3: boom"
        back = parse_transcript(serialize_transcript(tr))
        assert back.error == tr.error
        assert back.aborted

    def test_bot_encoding(self):
        tr = Transcript(params=make_params(n=1), seed=0)
        tr.rounds = [gen_round(0)]
        line = serialize_transcript(tr).splitlines()[1]
        assert line.endswith(",-,-")

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            parse_transcript("0,k,1,0,0,-,-\n")
