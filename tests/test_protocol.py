import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eatcert import protocol
from eatcert.devices import DeviceBlock, QubitBlockDevice, ideal_device, random_device
from eatcert.eat import (
    EatParams,
    TradeoffCurve,
    TradeoffFunction,
    certified_min_entropy,
)
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
from reference_rounds import run_protocol_per_round


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
        tr = Transcript.from_rounds(
            p,
            0,
            [
                RoundRecord(0, "a", 1, 0, 0, BOT, BOT),
                RoundRecord(1, "b", 0, 0, 0, BOT, 1),
                RoundRecord(2, "c", 0, 1, BOT, 1, 0),
                RoundRecord(3, "d", 0, 0, 1, BOT, 1),
            ],
        )
        assert freq_of(tr).counts == (1, 1, 2)
        assert freq_of(tr).probabilities() == (0.25, 0.25, 0.5)

    def test_all_generation(self):
        p = make_params(n=3)
        tr = Transcript.from_rounds(p, 0, [gen_round(i) for i in range(3)])
        assert freq_of(tr).probabilities() == (1.0, 0.0, 0.0)

    def test_empty_distribution(self):
        with pytest.raises(ValueError):
            FreqDistribution((0, 0, 0), 0).probabilities()


class TestCertify:
    def test_aborted_raises(self):
        tr = Transcript(params=make_params(), seed=0, aborted=True)
        tf = TradeoffFunction(TradeoffCurve(0.045, 0.5), 1.0)
        with pytest.raises(ValueError):
            certify(tr, tf)

    def test_matches_direct_evaluation(self):
        p = make_params()
        tr = run_protocol(ideal_device(), p, seed=4)
        tf = TradeoffFunction(TradeoffCurve(p.beta, p.gamma), 1.0)
        entropy, count = certify(tr, tf)
        assert entropy == certified_min_entropy(p, tf)
        assert count == sum(1 for r in tr.rounds if r.g == 1)


class TestMarkovAudit:
    def test_honest_run_passes(self):
        p = make_params(n=10000)
        tr = run_protocol(ideal_device(), p, seed=3)
        assert markov_condition_audit(tr)

    def test_memoryless_transcripts_pass(self, monkeypatch):
        # run_protocol's rounds are independent by construction.  Each of
        # these transcripts has a table with p below about 0.01 (0.18 over
        # the ~18 tables), so testing every table at 0.01 rejects them; at a
        # family-wise 0.01 they pass.
        dev = random_device(np.random.default_rng(11), max_blocks=3)
        p = make_params(n=4000, beta=0.3)
        transcripts = [run_protocol(dev, p, seed) for seed in (18, 22)]
        assert all(markov_condition_audit(tr) for tr in transcripts)
        monkeypatch.setattr(protocol, "_AUDIT_SIGNIFICANCE", 0.18)
        assert not any(markov_condition_audit(tr) for tr in transcripts)

    def test_past_dependent_challenges_fail(self):
        # Adversarial scheduler: challenge type copies the previous round's
        # win bit, a blatant violation of independence from the past.
        p = make_params(n=5000)
        rounds = []
        w_prev = 1
        for i in range(p.n):
            t = w_prev
            if t == 1:
                w = 1 if i % 3 else 0
                rounds.append(RoundRecord(i, f"k{i:08d}", 0, 1, BOT, 1 - w, w))
            else:
                w = 1 if i % 4 else 0
                rounds.append(
                    RoundRecord(i, f"k{i:08d}", 0, 0, 0 if w else 2, BOT, w)
                )
            w_prev = w
        tr = Transcript.from_rounds(p, 0, rounds)
        assert not markov_condition_audit(tr)

    def test_too_short_raises(self):
        tr = run_protocol(ideal_device(), make_params(n=100), seed=0)
        with pytest.raises(ValueError):
            markov_condition_audit(tr)

    def test_constant_columns_are_vacuous(self):
        # All-generation transcript: every table is degenerate, audit passes.
        p = make_params(n=1500)
        tr = Transcript.from_rounds(p, 0, [gen_round(i) for i in range(p.n)])
        assert markov_condition_audit(tr)


class TestSerialization:
    def test_roundtrip(self):
        tr = run_protocol(ideal_device(), make_params(n=200), seed=5)
        back = parse_transcript(serialize_transcript(tr))
        assert back.params == tr.params
        assert back.seed == tr.seed
        assert back.aborted == tr.aborted
        assert back.rounds == tr.rounds

    def test_bot_encoding(self):
        tr = Transcript.from_rounds(make_params(n=1), 0, [gen_round(0)])
        line = serialize_transcript(tr).splitlines()[1]
        assert line.endswith(",-,-")

    def test_missing_header_rejected(self):
        text = serialize_transcript(run_protocol(ideal_device(), make_params(n=5), seed=0))
        for bad in ("", "\n" + text, text.replace("#eatcert-transcript", "#eatcert-transcript2")):
            with pytest.raises(ValueError, match="missing transcript header"):
                parse_transcript(bad)
        with pytest.raises(ValueError):
            parse_transcript("0,k,1,0,0,-,-\n")

    def test_header_round_trips_every_field(self):
        p = EatParams(
            n=3, gamma=0.3, beta=0.1 + 0.2, eps_s=1e-7, p_omega=0.125,
            omega_exp=0.875, delta_est=1.0 / 3.0, xi_slack=2.5e-4,
        )
        defaults = make_params()
        for f in dataclasses.fields(EatParams):
            assert getattr(p, f.name) != getattr(defaults, f.name), f.name
        tr = Transcript.from_rounds(p, 424242, [gen_round(i) for i in range(3)])
        text = serialize_transcript(tr)
        assert text.splitlines()[0] == (
            "#eatcert-transcript n=3 gamma=0.3 beta=0.30000000000000004 eps_s=1e-07"
            " p_omega=0.125 omega_exp=0.875 delta_est=0.3333333333333333"
            " xi_slack=0.00025 seed=424242 aborted=0"
        )
        back = parse_transcript(text)
        assert (back.params, back.seed, back.aborted) == (p, 424242, False)
        assert serialize_transcript(back) == text


def device_with_junk(seed, junk):
    """A random 1-4 block device whose junk sector has the given weight."""
    rng = np.random.default_rng(seed)
    base = random_device(rng, max_blocks=4, max_junk=0.0)
    blocks = tuple(DeviceBlock(b.weight * (1.0 - junk), b.angle, b.state) for b in base.blocks)
    return QubitBlockDevice(blocks, junk, float(rng.uniform()) if junk else 0.0)


# (junk weight, gamma, beta) of the devices compared with the reference.
REFERENCE_CASES = [
    (0.0, 0.5, 0.3),
    (0.9, 0.5, 0.3),
    (0.3, 1.0, 0.5),
    (0.2, 0.6, 1e-3),
    (0.2, 0.6, 0.999),
]


class TestMatchesPerRoundReference:
    @pytest.mark.parametrize("case", range(len(REFERENCE_CASES)))
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 5000])
    def test_byte_identical(self, n, case):
        junk, gamma, beta = REFERENCE_CASES[case]
        dev = device_with_junk(case, junk)
        p = make_params(n=n, gamma=gamma, beta=beta, omega_exp=0.8)
        seed = 1000 * case + n
        want = serialize_transcript(run_protocol_per_round(dev, p, seed))
        assert serialize_transcript(run_protocol(dev, p, seed)) == want

    @pytest.mark.parametrize("draw_block", [4, 5, 64])
    def test_rounds_straddling_draw_blocks(self, monkeypatch, draw_block):
        monkeypatch.setattr(protocol, "_DRAW_BLOCK", draw_block)
        dev = device_with_junk(7, 0.3)
        p = make_params(n=700, gamma=0.7, beta=0.4)
        want = serialize_transcript(run_protocol_per_round(dev, p, 3))
        assert serialize_transcript(run_protocol(dev, p, 3)) == want

    def test_dead_device(self):
        dev = QubitBlockDevice((), junk_weight=1.0, junk_equation_win=0.4)
        p = make_params(n=500, beta=0.5)
        want = serialize_transcript(run_protocol_per_round(dev, p, 2))
        assert serialize_transcript(run_protocol(dev, p, 2)) == want


class TestColumns:
    def test_columns_are_int8_and_read_only(self):
        tr = run_protocol(ideal_device(), make_params(n=100), seed=0)
        for name in ("g", "t", "pi_hat", "m_hat", "w"):
            col = getattr(tr, name)
            assert col.dtype == np.int8 and col.shape == (100,)
            with pytest.raises(ValueError):
                col[0] = 0
        assert set(tr.w[tr.g == 1].tolist()) == {-1}

    def test_rounds_view(self):
        tr = run_protocol(ideal_device(), make_params(n=100), seed=0)
        rounds = tr.rounds
        assert len(rounds) == 100
        assert rounds[-1] == list(rounds)[99]
        assert rounds[10:13] == [rounds[10], rounds[11], rounds[12]]
        assert [r.index for r in rounds] == list(range(100))
        with pytest.raises(IndexError):
            rounds[100]
        with pytest.raises(AttributeError):
            tr.rounds = []

    def test_round_record_has_slots(self):
        r = gen_round(0)
        assert not hasattr(r, "__dict__")

    def test_from_rounds_requires_positions(self):
        with pytest.raises(ValueError):
            Transcript.from_rounds(make_params(n=2), 0, [gen_round(0), gen_round(2)])

    def test_constructor_checks_record_rules(self):
        with pytest.raises(ValueError):
            # A generation round with an observed win bit.
            Transcript(make_params(n=1), 0, ["k"], g=[1], t=[0], pi_hat=[0], m_hat=[-1], w=[1])
        with pytest.raises(ValueError):
            Transcript(make_params(n=1), 0, ["k"], g=[1], t=[0], pi_hat=[3], m_hat=[-1], w=[-1])
        with pytest.raises(ValueError):
            Transcript(make_params(n=2), 0, ["k"], g=[1, 1], t=[0], pi_hat=[0], m_hat=[-1], w=[-1])

    def test_record_domains(self):
        with pytest.raises(ValueError):
            RoundRecord(0, "k", 0, 0, 3, BOT, 1)
        with pytest.raises(ValueError):
            RoundRecord(0, "k", 2, 0, 0, BOT, BOT)


def _edit_line(text, k, old, new):
    lines = text.splitlines()
    assert old in lines[k]
    lines[k] = lines[k].replace(old, new, 1)
    return "\n".join(lines) + "\n"


_PARAM_NAMES = [f.name for f in dataclasses.fields(EatParams)]


class TestParseRejectsUntrustworthy:
    @pytest.mark.parametrize("flag", ["2", "-1", "01", "true", ""])
    def test_abort_flag_other_than_0_or_1(self, flag):
        dead = QubitBlockDevice((), junk_weight=1.0)
        text = serialize_transcript(run_protocol(dead, make_params(n=50), seed=0))
        assert parse_transcript(text).aborted
        with pytest.raises(ValueError, match="abort flag"):
            parse_transcript(_edit_line(text, 0, "aborted=1", f"aborted={flag}"))

    @pytest.mark.parametrize("name", _PARAM_NAMES + ["seed", "aborted"])
    def test_header_missing_a_name(self, name):
        text = serialize_transcript(run_protocol(ideal_device(), make_params(n=50), seed=0))
        header = text.splitlines()[0].split(" ")
        kept = [tok for tok in header if not tok.startswith(name + "=")]
        assert len(kept) == len(header) - 1
        with pytest.raises(ValueError, match="transcript header"):
            parse_transcript(_edit_line(text, 0, " ".join(header), " ".join(kept)))

    @pytest.mark.parametrize("extra", ["n=50", "xi_slack=0.0", "seed=0", "bogus=1", "n", "="])
    def test_header_with_repeated_or_unknown_name(self, extra):
        text = serialize_transcript(run_protocol(ideal_device(), make_params(n=50), seed=0))
        header = text.splitlines()[0]
        with pytest.raises(ValueError, match="transcript header"):
            parse_transcript(_edit_line(text, 0, header, f"{header} {extra}"))

    def test_round_index_not_its_position(self):
        text = serialize_transcript(run_protocol(ideal_device(), make_params(n=5), seed=0))
        assert parse_transcript(text).params.n == 5
        with pytest.raises(ValueError):
            parse_transcript(_edit_line(text, 3, "2,k00000002", "5,k00000002"))
        lines = text.splitlines()
        lines[2], lines[3] = lines[3], lines[2]
        with pytest.raises(ValueError):
            parse_transcript("\n".join(lines) + "\n")

    def test_round_count_other_than_n(self):
        text = serialize_transcript(run_protocol(ideal_device(), make_params(n=5), seed=0))
        short = "".join(text.splitlines(keepends=True)[:-1])
        with pytest.raises(ValueError):
            parse_transcript(short)
        with pytest.raises(ValueError):
            parse_transcript(text + "5,k00000005,1,0,0,-,-\n")

    def test_abort_flag_recomputed(self):
        dead = QubitBlockDevice((), junk_weight=1.0)
        text = serialize_transcript(run_protocol(dead, make_params(), seed=0))
        assert parse_transcript(text).aborted
        forged = _edit_line(text, 0, "aborted=1", "aborted=0")
        with pytest.raises(ValueError):
            parse_transcript(forged)
        honest = serialize_transcript(run_protocol(ideal_device(), make_params(), seed=0))
        assert not parse_transcript(honest).aborted
        with pytest.raises(ValueError):
            parse_transcript(_edit_line(honest, 0, "aborted=0", "aborted=1"))

    def test_error_line_refused(self):
        # No writer produces an #error line; a file holding one is malformed,
        # whatever its abort flag and wherever the line sits.
        dead = QubitBlockDevice((), junk_weight=1.0)
        aborted = serialize_transcript(run_protocol(dead, make_params(n=200), seed=0))
        honest = serialize_transcript(run_protocol(ideal_device(), make_params(n=200), seed=0))
        assert aborted.splitlines()[0].endswith("aborted=1")
        assert honest.splitlines()[0].endswith("aborted=0")
        for text in (aborted, honest):
            assert parse_transcript(text).params.n == 200
            for at in (1, 100, 201):
                lines = text.splitlines()
                lines.insert(at, "#error device failure at round 4: boom")
                with pytest.raises(ValueError, match="not a round line"):
                    parse_transcript("\n".join(lines) + "\n")
            # Nor does it excuse a short file.
            lines = text.splitlines()[:-1]
            lines.insert(1, "#error x")
            with pytest.raises(ValueError):
                parse_transcript("\n".join(lines) + "\n")


_FIELD_VALUES = st.tuples(
    st.sampled_from([0, 1]),
    st.sampled_from([BOT, 0, 1]),
    st.sampled_from([BOT, 0, 1, 2]),
    st.sampled_from([BOT, 0, 1]),
    st.sampled_from([BOT, 0, 1]),
)


def _valid(fields):
    try:
        RoundRecord(0, "k", *fields)
    except ValueError:
        return False
    return True


_LINE_TEXT = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters=","),
    max_size=12,
)


class TestSerializationProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        rounds=st.lists(
            st.tuples(_LINE_TEXT, _FIELD_VALUES.filter(_valid)), min_size=1, max_size=30
        ),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_roundtrip_with_any_key_ids(self, rounds, seed):
        records = [RoundRecord(i, key, *fields) for i, (key, fields) in enumerate(rounds)]
        tr = Transcript.from_rounds(make_params(n=len(records)), seed, records)
        tr.aborted = tr.test_win_count() < tr.abort_threshold
        text = serialize_transcript(tr)
        back = parse_transcript(text)
        assert (back.params, back.seed, back.aborted) == (tr.params, seed, tr.aborted)
        assert back.rounds == records
        assert serialize_transcript(back) == text
