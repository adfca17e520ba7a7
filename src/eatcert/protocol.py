"""Executable round-by-round protocol against a pluggable device.

Each round is either a generation round (output bit recorded, nothing
tested) or a test round; test rounds run either the preimage check or the
equation check.  Parameter estimation at the end aborts the run when the
test-round win count falls below the configured threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy.stats import chi2_contingency

from .devices import QubitBlockDevice
from .eat import EatParams, TradeoffFunction, certified_min_entropy

__all__ = [
    "BOT",
    "RoundRecord",
    "Transcript",
    "FreqDistribution",
    "run_protocol",
    "freq_of",
    "certify",
    "markov_condition_audit",
    "serialize_transcript",
    "parse_transcript",
]

# Sentinel for unobserved values; serialized as "-".
BOT: None = None


@dataclass(frozen=True)
class RoundRecord:
    index: int
    key_id: str
    g: int  # 1 = generation round, 0 = test round
    t: Optional[int]  # 0 = preimage challenge, 1 = equation challenge
    pi_hat: Optional[int]  # preimage outcome in {0, 1, 2}
    m_hat: Optional[int]  # equation outcome in {0, 1}; 0 = win
    w: Optional[int]  # test-round win indicator

    def __post_init__(self):
        if self.g == 1 and (self.t != 0 or self.w is not BOT):
            raise ValueError("generation rounds must have t=0 and unobserved w")
        if self.t == 0 and self.m_hat is not BOT:
            raise ValueError("preimage rounds must not record an equation outcome")
        if self.t == 1 and self.pi_hat is not BOT:
            raise ValueError("equation rounds must not record a preimage outcome")


@dataclass
class Transcript:
    params: EatParams
    seed: int
    rounds: List[RoundRecord] = field(default_factory=list)
    aborted: bool = False
    error: Optional[str] = None

    @property
    def abort_threshold(self) -> float:
        p = self.params
        return (p.omega_exp * p.gamma - p.delta_est) * p.n

    def test_win_count(self) -> int:
        return sum(r.w for r in self.rounds if r.g == 0 and r.w is not BOT)


@dataclass(frozen=True)
class FreqDistribution:
    counts: Tuple[int, int, int]  # over (bot, 0, 1)
    n: int

    def probabilities(self) -> Tuple[float, float, float]:
        if self.n == 0:
            raise ValueError("empty frequency distribution")
        return tuple(c / self.n for c in self.counts)


def _fresh_key(i: int) -> str:
    return f"k{i:08d}"


def run_protocol(
    device: QubitBlockDevice,
    params: EatParams,
    seed: int,
    key_reuse: bool = False,
) -> Transcript:
    """Run all n rounds against the device; deterministic under the seed.

    The test/generation split draws one uniform per round, the challenge
    split one more in test rounds, then the device consumes the generator.
    """
    rng = np.random.default_rng(seed)
    tr = Transcript(params=params, seed=seed)
    for i in range(params.n):
        key = _fresh_key(0 if key_reuse else i)
        is_test = rng.random() < params.gamma
        try:
            if not is_test:
                pi_hat = device.respond_preimage(rng)
                tr.rounds.append(RoundRecord(i, key, 1, 0, pi_hat, BOT, BOT))
                continue
            equation = rng.random() < params.beta
            if equation:
                m_hat = device.respond_equation(rng)
                w = 1 if m_hat == 0 else 0
                tr.rounds.append(RoundRecord(i, key, 0, 1, BOT, m_hat, w))
            else:
                pi_hat = device.respond_preimage(rng)
                w = 1 if pi_hat != 2 else 0
                tr.rounds.append(RoundRecord(i, key, 0, 0, pi_hat, BOT, w))
        except Exception as exc:  # device failure mid-run
            tr.error = f"device failure at round {i}: {exc}"
            tr.aborted = True
            return tr
    tr.aborted = tr.test_win_count() < tr.abort_threshold
    return tr


def freq_of(transcript: Transcript, restrict: str = "all") -> FreqDistribution:
    """Empirical frequencies of the test-outcome register over (bot, 0, 1)."""
    if restrict == "all":
        rounds = transcript.rounds
    elif restrict == "test":
        rounds = [r for r in transcript.rounds if r.g == 0]
    else:
        raise ValueError(f"unknown restriction {restrict!r}")
    counts = [0, 0, 0]
    for r in rounds:
        counts[0 if r.w is BOT else r.w + 1] += 1
    return FreqDistribution(tuple(counts), len(rounds))


def certify(transcript: Transcript, tf: TradeoffFunction) -> Tuple[float, int]:
    """Certified min-entropy of the generation outputs and their count.

    The entropy is evaluated at the protocol's designed threshold, not the
    realized frequency: passing the abort test is what licenses the bound.
    """
    if transcript.aborted:
        raise ValueError("aborted transcript certifies nothing")
    entropy = certified_min_entropy(transcript.params, tf)
    generation_count = sum(1 for r in transcript.rounds if r.g == 1)
    return entropy, generation_count


def _category(value: Optional[int]) -> int:
    return 0 if value is BOT else value + 1


def _chi2_independent(xs: np.ndarray, ys: np.ndarray) -> Optional[float]:
    """p-value of a chi-square independence test, or None if degenerate.

    xs and ys hold categories 0-2; a category that never occurs gets no row
    or column.
    """
    table = np.bincount(3 * xs + ys, minlength=9).reshape(3, 3)
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    if table.shape[0] < 2 or table.shape[1] < 2:
        return None
    _, p, _, expected = chi2_contingency(table)
    if expected.min() < 1.0:
        return None
    return float(p)


def markov_condition_audit(
    transcript: Transcript, significance: float = 0.01, max_lag: int = 3
) -> bool:
    """Statistical check that round choices are independent of the past.

    Tests each of the current round's (G, T) against each lagged record
    field (G, T, W) with chi-square independence tests.  Degenerate tables
    (constant columns) are skipped.  significance is the family-wise level:
    each of the m remaining tests rejects at significance / m (Bonferroni),
    so a memoryless transcript fails with probability at most significance
    (up to the chi-square approximation).
    """
    n = len(transcript.rounds)
    if n < 1000:
        raise ValueError("audit needs at least 1000 rounds")
    g = np.array([r.g for r in transcript.rounds])
    t = np.array([_category(r.t) for r in transcript.rounds])
    w = np.array([_category(r.w) for r in transcript.rounds])
    current = {"G": g, "T": t}
    past = {"G": g, "T": t, "W": w}
    p_values = []
    for lag in range(1, max_lag + 1):
        for cur in current.values():
            for prev in past.values():
                p = _chi2_independent(cur[lag:], prev[:-lag])
                if p is not None:
                    p_values.append(p)
    return all(p >= significance / len(p_values) for p in p_values)


# ---------------------------------------------------------------------------
# Serialization: one header line, then one round per line
# ---------------------------------------------------------------------------


def _enc(value: Optional[int]) -> str:
    return "-" if value is BOT else str(value)


def _dec(token: str) -> Optional[int]:
    return BOT if token == "-" else int(token)


def serialize_transcript(tr: Transcript) -> str:
    p = tr.params
    header = (
        "#eatcert-transcript"
        f" n={p.n} gamma={p.gamma!r} beta={p.beta!r} eps_s={p.eps_s!r}"
        f" p_omega={p.p_omega!r} omega_exp={p.omega_exp!r}"
        f" delta_est={p.delta_est!r} xi_slack={p.xi_slack!r}"
        f" seed={tr.seed} aborted={int(tr.aborted)}"
    )
    lines = [header]
    if tr.error:
        lines.append(f"#error {tr.error}")
    for r in tr.rounds:
        lines.append(
            f"{r.index},{r.key_id},{r.g},{_enc(r.t)},"
            f"{_enc(r.pi_hat)},{_enc(r.m_hat)},{_enc(r.w)}"
        )
    return "\n".join(lines) + "\n"


def parse_transcript(text: str) -> Transcript:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#eatcert-transcript"):
        raise ValueError("missing transcript header")
    fields = dict(
        tok.split("=", 1) for tok in lines[0].split()[1:]
    )
    params = EatParams(
        n=int(fields["n"]),
        gamma=float(fields["gamma"]),
        beta=float(fields["beta"]),
        eps_s=float(fields["eps_s"]),
        p_omega=float(fields["p_omega"]),
        omega_exp=float(fields["omega_exp"]),
        delta_est=float(fields["delta_est"]),
        xi_slack=float(fields["xi_slack"]),
    )
    tr = Transcript(params=params, seed=int(fields["seed"]))
    tr.aborted = bool(int(fields["aborted"]))
    for line in lines[1:]:
        if line.startswith("#error "):
            tr.error = line[len("#error "):]
            continue
        if not line.strip():
            continue
        idx, key, g, t, pi_hat, m_hat, w = line.split(",")
        tr.rounds.append(
            RoundRecord(
                int(idx), key, int(g), _dec(t), _dec(pi_hat), _dec(m_hat), _dec(w)
            )
        )
    return tr
