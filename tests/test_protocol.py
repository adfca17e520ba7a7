import dataclasses
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2, chi2_contingency

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


# Every (g, t, pi_hat, m_hat, w) a round may carry: generation rounds with
# any preimage outcome, preimage tests won off the junk answer 2, equation
# tests won on m_hat = 0.
ROUND_KINDS = [
    (1, 0, 0, BOT, BOT),
    (1, 0, 1, BOT, BOT),
    (1, 0, 2, BOT, BOT),
    (0, 0, 0, BOT, 1),
    (0, 0, 1, BOT, 1),
    (0, 0, 2, BOT, 0),
    (0, 1, BOT, 0, 1),
    (0, 1, BOT, 1, 0),
]
# Every combination of the values each field can spell: 216 tuples.
ALL_FIELD_TUPLES = list(
    itertools.product([0, 1], [BOT, 0, 1], [BOT, 0, 1, 2], [BOT, 0, 1], [BOT, 0, 1])
)


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


def categories(table):
    """xs, ys whose 3x3 cross-tabulation holds ``table`` in its corner."""
    table = np.asarray(table)
    cells = np.repeat(np.arange(table.size), table.ravel())
    return cells // table.shape[1], cells % table.shape[1]


class TestChiSquare:
    """The audit's test is Pearson's chi-square independence test with
    Yates' correction at one degree of freedom, as scipy computes it."""

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_matches_scipy(self, shape):
        rng = np.random.default_rng(sum(shape))
        compared = 0
        for _ in range(400):
            probs = rng.dirichlet(np.full(shape[0] * shape[1], rng.choice([0.5, 1.0, 5.0])))
            table = rng.multinomial(int(rng.integers(10, 3000)), probs).reshape(shape)
            if table.sum(axis=0).min() == 0 or table.sum(axis=1).min() == 0:
                continue
            _, ref, dof, expected = chi2_contingency(table)
            assert dof == (shape[0] - 1) * (shape[1] - 1)
            p = protocol._chi2_independent(*categories(table))
            if expected.min() < 1.0:
                assert p is None
                continue
            compared += 1
            if ref >= 1e-300:
                assert p == pytest.approx(ref, rel=1e-12, abs=0.0)
            else:
                assert p < 1e-299
        assert compared >= 200

    def test_yates_step_capped_at_the_distance_to_expected(self):
        # Expected counts 100/21, 110/21, 110/21, 121/21: every cell is
        # 5/21 < 1/2 from its expected count, so the corrected table equals
        # the expected one; a full half step would overshoot it.
        table = [[5, 5], [5, 6]]
        p = protocol._chi2_independent(*categories(table))
        assert p == chi2_contingency(table)[1] == 1.0

    def test_yates_half_step(self):
        table = [[30, 10], [12, 28]]
        p = protocol._chi2_independent(*categories(table))
        assert p == pytest.approx(chi2_contingency(table)[1], rel=1e-12)
        assert p != pytest.approx(chi2_contingency(table, correction=False)[1], rel=1e-3)

    def test_degenerate_tables_give_none(self):
        # One row: xs is constant.
        assert protocol._chi2_independent(*categories([[40, 25, 35]])) is None
        # An expected count of 1/101 * 50 < 1.
        assert protocol._chi2_independent(*categories([[50, 50], [1, 0]])) is None

    @pytest.mark.parametrize("dof", [1, 2, 3, 4])
    @pytest.mark.parametrize("x", [0.0, 0.01, 0.5, 3.84, 9.49, 40.0, 300.0, 1300.0])
    def test_tail_matches_scipy(self, x, dof):
        assert protocol._chi2_tail(x, dof) == pytest.approx(chi2.sf(x, dof), rel=1e-12, abs=0.0)

    def test_tail_refuses_other_dof(self):
        with pytest.raises(ValueError):
            protocol._chi2_tail(1.0, 5)


def test_cli_and_audit_load_no_scipy():
    # scipy.stats alone took about 0.7 s of each cold start.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys\n"
        "import eatcert.cli\n"
        "from eatcert.devices import ideal_device\n"
        "from eatcert.eat import EatParams\n"
        "from eatcert.protocol import markov_condition_audit, run_protocol\n"
        "params = EatParams(n=2000, gamma=0.5, beta=0.045, eps_s=1e-5, p_omega=1e-5,"
        " omega_exp=0.95, delta_est=0.02)\n"
        "assert markov_condition_audit(run_protocol(ideal_device(), params, 3))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


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
        for kind in ([-1], [8], [3, 9], [2.5], [True]):
            with pytest.raises(ValueError, match="integers in 0..7"):
                Transcript(make_params(n=len(kind)), 0, ["k"] * len(kind), kind)
        with pytest.raises(ValueError, match="shape"):
            Transcript(make_params(n=2), 0, ["k"], [0, 0])
        with pytest.raises(ValueError, match="shape"):
            Transcript(make_params(n=2), 0, ["k", "k"], [0])
        tr = Transcript(make_params(n=8), 0, ["k"] * 8, range(8))
        assert tr.kind.dtype == np.int8 and not tr.kind.flags.writeable
        assert [(r.g, r.t, r.pi_hat, r.m_hat, r.w) for r in tr.rounds] == ROUND_KINDS

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


def _transcript_text(params, aborted, suffixes):
    header = f"#eatcert-transcript {params.tokens()} seed=0 aborted={int(aborted)}"
    lines = [header] + [f"{i},k{i:08d},{suffix}" for i, suffix in enumerate(suffixes)]
    return "\n".join(lines) + "\n"


def _spell(fields):
    return ",".join("-" if v is BOT else str(v) for v in fields)


class TestOnlyRoundKinds:
    def test_field_domains_hold_216_tuples(self):
        assert len(set(ALL_FIELD_TUPLES)) == 216
        assert set(ROUND_KINDS) <= set(ALL_FIELD_TUPLES)

    @pytest.mark.parametrize("fields", ALL_FIELD_TUPLES, ids=_spell)
    def test_exactly_the_eight_kinds_are_accepted(self, fields):
        # A one-round file whose abort flag agrees with the win it claims:
        # at n = 1 the threshold is 0.455, so a claimed win passes.
        p = make_params(n=1)
        text = _transcript_text(p, fields[4] != 1, [_spell(fields)])
        if fields in ROUND_KINDS:
            assert RoundRecord(0, "k", *fields).w == fields[4]
            assert parse_transcript(text).rounds == [RoundRecord(0, "k00000000", *fields)]
        else:
            with pytest.raises(ValueError, match="not a round kind"):
                RoundRecord(0, "k", *fields)
            with pytest.raises(ValueError, match="not a round kind"):
                parse_transcript(text)

    @pytest.mark.parametrize(
        "forged",
        ["0,0,2,-,1", "0,1,-,1,1"],
        ids=["failed-preimage-test", "lost-equation-test"],
    )
    def test_forged_wins_refused(self, forged):
        # Every round a lost test that claims a win: read as won, the file
        # would pass parameter estimation with 2000 test wins.
        p = make_params()
        with pytest.raises(ValueError, match="round 0: .* is not a round kind"):
            parse_transcript(_transcript_text(p, False, [forged] * p.n))

    def test_honest_spellings_only(self):
        p = make_params(n=1)
        for suffix in ("1,0, 0,-,-", "1,0,+0,-,-", "1,0,0,-,-,", "1,0,0,,-", "1,0,00,-,-"):
            with pytest.raises(ValueError, match="not a round kind"):
                parse_transcript(_transcript_text(p, True, [suffix]))
        assert parse_transcript(_transcript_text(p, True, ["1,0,0,-,-"])).params.n == 1


_LINE_TEXT = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters=","),
    max_size=12,
)


class TestSerializationProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        rounds=st.lists(
            st.tuples(_LINE_TEXT, st.sampled_from(ROUND_KINDS)), min_size=1, max_size=30
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
