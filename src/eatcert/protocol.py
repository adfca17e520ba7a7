"""Executable protocol rounds and the transcript a verifier reads.

Each round is either a generation round (output bit recorded, nothing
tested) or a test round; test rounds run either the preimage check or the
equation check, and a test round's win follows from its outcome.  So a
round is one of eight kinds, ``_KINDS``.  Parameter estimation at the end
aborts the run when the test-round win count falls below the configured
threshold.

A transcript keeps its rounds as one int8 column of kinds, from which the
columns of the round fields are derived, so the simulator, the file format,
the frequency counts and the Markov audit each work on whole columns;
``Transcript.rounds`` presents the same rounds as ``RoundRecord``s.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

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

# Sentinel for unobserved values; serialized as "-" and stored as -1 in the
# transcript's columns.
BOT: None = None

# The eight kinds of round, as (g, t, pi_hat, m_hat, w): generation rounds
# with preimage outcome 0, 1 or 2; preimage tests, won by any answer off the
# junk sector (pi_hat != 2); equation tests, won when m_hat = 0.
_KINDS = (
    (1, 0, 0, BOT, BOT),
    (1, 0, 1, BOT, BOT),
    (1, 0, 2, BOT, BOT),
    (0, 0, 0, BOT, 1),
    (0, 0, 1, BOT, 1),
    (0, 0, 2, BOT, 0),
    (0, 1, BOT, 0, 1),
    (0, 1, BOT, 1, 0),
)
_KIND_OF = {fields: k for k, fields in enumerate(_KINDS)}
_FIELDS = ("g", "t", "pi_hat", "m_hat", "w")
# Row j: field j of each kind, -1 standing for BOT.
_KIND_COLUMNS = np.array(
    [[-1 if v is BOT else v for v in fields] for fields in _KINDS], dtype=np.int8
).T.copy()


@dataclass(frozen=True, slots=True)
class RoundRecord:
    index: int
    key_id: str
    g: int  # 1 = generation round, 0 = test round
    t: Optional[int]  # 0 = preimage challenge, 1 = equation challenge
    pi_hat: Optional[int]  # preimage outcome in {0, 1, 2}
    m_hat: Optional[int]  # equation outcome in {0, 1}; 0 = win
    w: Optional[int]  # test-round win indicator

    def __post_init__(self):
        fields = (self.g, self.t, self.pi_hat, self.m_hat, self.w)
        if fields not in _KIND_OF:
            raise ValueError(f"round {self.index}: {fields!r} is not a round kind")


@dataclass(eq=False)
class Transcript:
    """One protocol run: parameters, seed, rounds and abort flag.

    The rounds are columns: ``key_ids`` holds one key id per round and
    ``kind`` one read-only int8 index into ``_KINDS`` per round.  The
    read-only int8 columns ``g``, ``t``, ``pi_hat``, ``m_hat`` and ``w``,
    -1 standing for BOT, are derived from ``kind`` on construction.  A
    round's index is its position.
    """

    params: EatParams
    seed: int
    key_ids: Sequence[str] = ()
    kind: np.ndarray = ()
    aborted: bool = False

    def __post_init__(self):
        self.key_ids = tuple(self.key_ids)
        n = len(self.key_ids)
        kind = np.asarray(self.kind)
        if kind.shape != (n,):
            raise ValueError(f"column kind has shape {kind.shape}, expected ({n},)")
        if n and (kind.dtype.kind not in "iu" or not 0 <= kind.min() <= kind.max() < 8):
            raise ValueError("column kind must hold integers in 0..7")
        self.kind = kind.astype(np.int8)
        for name, col in zip(("kind", *_FIELDS), (self.kind, *_KIND_COLUMNS[:, self.kind])):
            col.flags.writeable = False
            setattr(self, name, col)

    @classmethod
    def from_rounds(
        cls,
        params: EatParams,
        seed: int,
        rounds: Iterable[RoundRecord],
        aborted: bool = False,
    ) -> "Transcript":
        """A transcript holding the given records, whose indices must be
        their positions."""
        rounds = list(rounds)
        for i, r in enumerate(rounds):
            if r.index != i:
                raise ValueError(f"round record {i} carries index {r.index}")
        kind = [_KIND_OF[r.g, r.t, r.pi_hat, r.m_hat, r.w] for r in rounds]
        return cls(params, seed, [r.key_id for r in rounds], kind, aborted)

    @property
    def rounds(self) -> "_RoundsView":
        """The rounds as a read-only sequence of ``RoundRecord``s."""
        return _RoundsView(self)

    @property
    def abort_threshold(self) -> float:
        p = self.params
        return (p.omega_exp * p.gamma - p.delta_est) * p.n

    def test_win_count(self) -> int:
        return int(np.count_nonzero(self.w == 1))


class _RoundsView(Sequence):
    """A transcript's rounds as RoundRecords, each built when it is read."""

    __slots__ = ("_tr",)
    __hash__ = None

    def __init__(self, tr: Transcript):
        self._tr = tr

    def __len__(self) -> int:
        return len(self._tr.key_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]
        return RoundRecord(i, self._tr.key_ids[i], *_KINDS[self._tr.kind[i]])

    def __iter__(self) -> Iterator[RoundRecord]:
        for i, (key, kind) in enumerate(zip(self._tr.key_ids, self._tr.kind.tolist())):
            yield RoundRecord(i, key, *_KINDS[kind])

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"<{len(self)} rounds>"


@dataclass(frozen=True)
class FreqDistribution:
    counts: Tuple[int, int, int]  # over (bot, 0, 1)
    n: int

    def probabilities(self) -> Tuple[float, float, float]:
        if self.n == 0:
            raise ValueError("empty frequency distribution")
        return tuple(c / self.n for c in self.counts)


# run_protocol draws its uniforms from the generator this many at a time.
_DRAW_BLOCK = 1 << 16


def run_protocol(
    device: QubitBlockDevice,
    params: EatParams,
    seed: int,
) -> Transcript:
    """Run all n rounds against the device; deterministic under the seed.

    The rounds read one stream of uniforms from ``default_rng(seed)``, in
    order: the test/generation split, in test rounds the challenge split,
    the device's block (junk at or above the blocks' total weight), and the
    outcome, drawn against the block's stored probability; a preimage round
    that lands in the junk sector answers 2 and draws no outcome.  A round
    thus takes 2, 3 or 4 uniforms.  For each block of draws the number a
    round starting at each position would take is computed at once, one
    pass over those numbers finds where the rounds start, and the device
    answers all preimage rounds and all equation rounds of the block in one
    ``respond_preimage`` and one ``respond_equation`` call.
    """
    rng = np.random.default_rng(seed)
    n, gamma, beta = params.n, params.gamma, params.beta
    cum_weights = device.cumulative_weights
    in_blocks = float(cum_weights[-1]) if len(cum_weights) else 0.0

    parts: List[np.ndarray] = []
    done = 0
    u = np.empty(0)
    while done < n:
        # Enough for the remaining rounds, or one block of draws.
        u = np.concatenate((u, rng.random(min(_DRAW_BLOCK, 4 * (n - done)))))
        # steps[k]: uniforms taken by a round starting at position k, for
        # every k whose round has all its uniforms in u.
        first, second, third = u[:-3], u[1:-2], u[2:-1]
        steps = np.where(
            first >= gamma,
            np.uint8(2) + (second < in_blocks),
            np.where(second < beta, np.uint8(4), np.uint8(3) + (third < in_blocks)),
        )
        walk = steps.tobytes()
        starts = []
        append = starts.append
        pos, limit = 0, len(walk)
        while pos < limit:
            append(pos)
            pos += walk[pos]
        del starts[n - done:]  # past the last round
        s = np.array(starts, dtype=np.int32)
        gen = u[s] >= gamma
        eq = ~gen & (u[s + 1] < beta)
        pre = ~eq
        u_block = u[np.where(gen, s + 1, s + 2)]
        u_outcome = u[s + steps[s] - 1]  # the round's last uniform
        outcome = np.empty(len(s), dtype=np.int8)
        outcome[pre] = device.respond_preimage(u_block[pre], u_outcome[pre])
        outcome[eq] = device.respond_equation(u_block[eq], u_outcome[eq])
        # Kinds 0-2 are generation rounds, 3-5 preimage tests and 6-7
        # equation tests, each ordered by outcome.
        parts.append(np.where(gen, 0, np.where(eq, 6, 3)) + outcome)
        done += len(starts)
        u = u[pos:]

    keys = ["k%08d" % i for i in range(n)]
    tr = Transcript(params, seed, keys, np.concatenate(parts))
    tr.aborted = tr.test_win_count() < tr.abort_threshold
    return tr


def freq_of(transcript: Transcript) -> FreqDistribution:
    """Empirical frequencies of the test-outcome register over (bot, 0, 1)."""
    counts = np.bincount(transcript.w + 1, minlength=3)
    return FreqDistribution(tuple(int(c) for c in counts), len(transcript.w))


def certify(transcript: Transcript, tf: TradeoffFunction) -> Tuple[float, int]:
    """Certified min-entropy of the generation outputs and their count.

    The entropy is evaluated at the protocol's designed threshold, not the
    realized frequency: passing the abort test is what licenses the bound.
    """
    if transcript.aborted:
        raise ValueError("aborted transcript certifies nothing")
    entropy = certified_min_entropy(transcript.params, tf)
    generation_count = int(np.count_nonzero(transcript.g == 1))
    return entropy, generation_count


def _chi2_tail(x: float, dof: int) -> float:
    """P(X >= x) for X chi-square with dof degrees of freedom, 1 to 4."""
    if dof == 1:
        return math.erfc(math.sqrt(x / 2))
    if dof == 2:
        return math.exp(-x / 2)
    if dof == 3:
        return math.erfc(math.sqrt(x / 2)) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
    if dof == 4:
        return math.exp(-x / 2) * (1 + x / 2)
    raise ValueError(f"no closed-form chi-square tail for {dof} degrees of freedom")


def _chi2_independent(xs: np.ndarray, ys: np.ndarray) -> Optional[float]:
    """p-value of Pearson's chi-square independence test, or None if
    degenerate.

    xs and ys hold categories 0-2; a category that never occurs gets no row
    or column, and a table with fewer than two of either, or with an
    expected count below 1, is degenerate.  With one degree of freedom the
    statistic takes Yates' continuity correction.  This is the test of
    ``scipy.stats.chi2_contingency``.
    """
    table = np.bincount(3 * xs + ys, minlength=9).reshape(3, 3)
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    if table.shape[0] < 2 or table.shape[1] < 2:
        return None
    observed = table.astype(np.float64)
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / observed.sum()
    if expected.min() < 1.0:
        return None
    dof = (table.shape[0] - 1) * (table.shape[1] - 1)
    if dof == 1:
        # Move each cell toward its expected count by at most 1/2.
        diff = expected - observed
        observed = observed + np.sign(diff) * np.minimum(0.5, np.abs(diff))
    statistic = float(((observed - expected) ** 2 / expected).sum())
    return _chi2_tail(statistic, dof)


_AUDIT_LAGS = 3
_AUDIT_SIGNIFICANCE = 0.01


def markov_condition_audit(transcript: Transcript) -> bool:
    """Statistical check that round choices are independent of the past.

    Tests each of the current round's (G, T) against each record field
    (G, T, W) of the rounds 1 to _AUDIT_LAGS places back with chi-square
    independence tests.  Degenerate tables (constant columns) are skipped.
    _AUDIT_SIGNIFICANCE is the family-wise level: each of the m remaining
    tests rejects at _AUDIT_SIGNIFICANCE / m (Bonferroni), so a memoryless
    transcript fails with probability at most _AUDIT_SIGNIFICANCE (up to the
    chi-square approximation).
    """
    if len(transcript.key_ids) < 1000:
        raise ValueError("audit needs at least 1000 rounds")
    # Categories 0-2, BOT being 0.
    g, t, w = transcript.g, transcript.t + 1, transcript.w + 1
    current = {"G": g, "T": t}
    past = {"G": g, "T": t, "W": w}
    p_values = []
    for lag in range(1, _AUDIT_LAGS + 1):
        for cur in current.values():
            for prev in past.values():
                p = _chi2_independent(cur[lag:], prev[:-lag])
                if p is not None:
                    p_values.append(p)
    return all(p >= _AUDIT_SIGNIFICANCE / len(p_values) for p in p_values)


# ---------------------------------------------------------------------------
# Serialization: one header line, then one round per line
# ---------------------------------------------------------------------------


# Each kind's round-line suffix "g,t,pi_hat,m_hat,w", and back.
_SUFFIXES = np.array(
    [",".join("-" if v is BOT else str(v) for v in fields) for fields in _KINDS], dtype=object
)
_KIND_OF_SUFFIX = {suffix: k for k, suffix in enumerate(_SUFFIXES)}


# The header's names after "#eatcert-transcript": the parameters, then
# the seed and the abort flag.
_HEADER_NAMES = tuple(f.name for f in dataclasses.fields(EatParams)) + ("seed", "aborted")


def serialize_transcript(tr: Transcript) -> str:
    header = (
        f"#eatcert-transcript {tr.params.tokens()}"
        f" seed={tr.seed} aborted={int(tr.aborted)}"
    )
    rows = zip(map(str, range(len(tr.kind))), tr.key_ids, _SUFFIXES[tr.kind].tolist())
    return "\n".join(itertools.chain([header], map(",".join, rows))) + "\n"


def parse_transcript(text: str) -> Transcript:
    """Read a transcript file, refusing one a verifier must not trust.

    The header must give each parameter, the seed and the abort flag once,
    and nothing else; the abort flag must be 0 or 1.  Every round line must
    carry its position as its index and end in the fields of one of the
    eight round kinds, spelled as ``serialize_transcript`` spells them; the
    file must hold exactly the header's n rounds, and its abort flag must be
    the abort rule applied to those rounds.  Blank lines are skipped; any
    other line that is not a round, an ``#error`` line among them, is
    refused.
    """
    lines = text.splitlines()
    words = lines[0].split() if lines else []
    if words[:1] != ["#eatcert-transcript"]:
        raise ValueError("missing transcript header")
    tokens = [word.partition("=") for word in words[1:]]
    names = [name for name, eq, _ in tokens if eq]
    if len(names) != len(tokens) or sorted(names) != sorted(_HEADER_NAMES):
        raise ValueError(
            f"transcript header must give name=value for each of {' '.join(_HEADER_NAMES)},"
            " once each and nothing else"
        )
    header = {name: value for name, _, value in tokens}
    params = EatParams.from_text(header)
    if header["aborted"] not in ("0", "1"):
        raise ValueError(f"abort flag {header['aborted']!r} is neither 0 nor 1")
    aborted = header["aborted"] == "1"
    keys: List[str] = []
    kinds: List[int] = []
    for line in lines[1:]:
        try:
            index, key, suffix = line.split(",", 2)
            index = int(index)
        except ValueError:
            # Not a round line: a blank line, or malformed.
            if not line.strip():
                continue
            raise ValueError(f"not a round line: {line[:40]!r}") from None
        i = len(keys)
        if index != i:
            raise ValueError(f"round {i} is numbered {index}")
        kind = _KIND_OF_SUFFIX.get(suffix)
        if kind is None:
            raise ValueError(
                f"round {i}: g,t,pi_hat,m_hat,w = {suffix[:40]!r} is not a round kind"
            )
        keys.append(key)
        kinds.append(kind)
    if len(keys) != params.n:
        raise ValueError(f"transcript holds {len(keys)} rounds, its header n={params.n}")
    tr = Transcript(params, int(header["seed"]), keys, np.array(kinds, dtype=np.int8), aborted)
    if aborted != (tr.test_win_count() < tr.abort_threshold):
        raise ValueError(
            f"abort flag {int(aborted)} disagrees with {tr.test_win_count()} test-round"
            f" wins against the threshold {tr.abort_threshold!r}"
        )
    return tr
