"""Executable protocol rounds and the transcript a verifier reads.

Each round is either a generation round (output bit recorded, nothing
tested) or a test round; test rounds run either the preimage check or the
equation check.  Parameter estimation at the end aborts the run when the
test-round win count falls below the configured threshold.

A transcript keeps its rounds as int8 columns, so the simulator, the file
format, the frequency counts and the Markov audit each work on whole
columns; ``Transcript.rounds`` presents the same rounds as ``RoundRecord``s.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

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

# Sentinel for unobserved values; serialized as "-" and stored as -1 in the
# transcript's columns.
BOT: None = None

# Round fields held as columns, and the values each may take.
_DOMAINS = {
    "g": (0, 1),
    "t": (BOT, 0, 1),
    "pi_hat": (BOT, 0, 1, 2),
    "m_hat": (BOT, 0, 1),
    "w": (BOT, 0, 1),
}
_FIELDS = tuple(_DOMAINS)


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
        for name in _FIELDS:
            if getattr(self, name) not in _DOMAINS[name]:
                raise ValueError(
                    f"round {self.index}: {name}={getattr(self, name)!r}"
                    f" outside {_DOMAINS[name]}"
                )
        if self.g == 1 and (self.t != 0 or self.w is not BOT):
            raise ValueError("generation rounds must have t=0 and unobserved w")
        if self.t == 0 and self.m_hat is not BOT:
            raise ValueError("preimage rounds must not record an equation outcome")
        if self.t == 1 and self.pi_hat is not BOT:
            raise ValueError("equation rounds must not record a preimage outcome")


# A round's five fields packed into one code: field k's value + 1 (0 for
# BOT) in bits 2k and 2k + 1.
def _code(fields) -> int:
    return sum((0 if v is BOT else v + 1) << 2 * k for k, v in enumerate(fields))


def _fields(code: int) -> Tuple[Optional[int], ...]:
    return tuple(
        None if v == 0 else v - 1 for v in ((code >> 2 * k) & 3 for k in range(5))
    )


@dataclass(eq=False)
class Transcript:
    """One protocol run: parameters, seed, rounds and abort flag.

    The rounds are columns: ``key_ids`` holds one key id per round, and
    ``g``, ``t``, ``pi_hat``, ``m_hat`` and ``w`` one read-only int8 entry
    per round, -1 standing for BOT.  A round's index is its position.  Each
    distinct combination of the five fields is checked against the
    ``RoundRecord`` rules on construction.
    """

    params: EatParams
    seed: int
    key_ids: Sequence[str] = ()
    g: np.ndarray = ()
    t: np.ndarray = ()
    pi_hat: np.ndarray = ()
    m_hat: np.ndarray = ()
    w: np.ndarray = ()
    aborted: bool = False

    def __post_init__(self):
        self.key_ids = tuple(self.key_ids)
        n = len(self.key_ids)
        for name in _FIELDS:
            col = np.asarray(getattr(self, name))
            if col.shape != (n,):
                raise ValueError(f"column {name} has shape {col.shape}, expected ({n},)")
            if n and (col.min() < -1 or col.max() > 2):
                raise ValueError(f"column {name} holds values outside -1..2")
            col = col.astype(np.int8)
            col.flags.writeable = False
            setattr(self, name, col)
        codes = self._codes()
        for code in np.flatnonzero(np.bincount(codes)):
            i = int(np.argmax(codes == code))
            RoundRecord(i, self.key_ids[i], *_fields(int(code)))

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
        columns = {
            name: [-1 if getattr(r, name) is BOT else getattr(r, name) for r in rounds]
            for name in _FIELDS
        }
        return cls(params, seed, [r.key_id for r in rounds], **columns, aborted=aborted)

    def _codes(self) -> np.ndarray:
        """Each round's fields packed as by ``_code``, as int16."""
        codes = np.zeros(len(self.key_ids), dtype=np.int16)
        for k, name in enumerate(_FIELDS):
            codes |= (getattr(self, name).astype(np.int16) + 1) << 2 * k
        return codes

    @property
    def rounds(self) -> "_RoundsView":
        """The rounds as a read-only sequence of ``RoundRecord``s."""
        return _RoundsView(self)

    @property
    def abort_threshold(self) -> float:
        p = self.params
        return (p.omega_exp * p.gamma - p.delta_est) * p.n

    def test_win_count(self) -> int:
        return int(np.count_nonzero((self.g == 0) & (self.w == 1)))


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
        fields = (int(getattr(self._tr, name)[i]) for name in _FIELDS)
        return RoundRecord(i, self._tr.key_ids[i], *(None if v < 0 else v for v in fields))

    def __iter__(self) -> Iterator[RoundRecord]:
        codes = self._tr._codes()
        fields = {int(c): _fields(int(c)) for c in np.unique(codes)}
        for i, (key, code) in enumerate(zip(self._tr.key_ids, codes.tolist())):
            yield RoundRecord(i, key, *fields[code])

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
    key_reuse: bool = False,
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

    parts: List[Tuple[np.ndarray, ...]] = []
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
        pi_hat = np.full(len(s), -1, dtype=np.int8)
        pi_hat[pre] = device.respond_preimage(u_block[pre], u_outcome[pre])
        m_hat = np.full(len(s), -1, dtype=np.int8)
        m_hat[eq] = device.respond_equation(u_block[eq], u_outcome[eq])
        # A test round wins on an equation win or a preimage answer off junk.
        w = np.where(gen, -1, np.where(eq, m_hat == 0, pi_hat != 2))
        parts.append((gen, eq, pi_hat, m_hat, w))
        done += len(starts)
        u = u[pos:]

    columns = {
        name: np.concatenate([part[k] for part in parts]).astype(np.int8)
        for k, name in enumerate(_FIELDS)
    }
    keys = ("k00000000",) * n if key_reuse else ["k%08d" % i for i in range(n)]
    tr = Transcript(params=params, seed=seed, key_ids=keys, **columns)
    tr.aborted = tr.test_win_count() < tr.abort_threshold
    return tr


def freq_of(transcript: Transcript, restrict: str = "all") -> FreqDistribution:
    """Empirical frequencies of the test-outcome register over (bot, 0, 1)."""
    if restrict == "all":
        w = transcript.w
    elif restrict == "test":
        w = transcript.w[transcript.g == 0]
    else:
        raise ValueError(f"unknown restriction {restrict!r}")
    counts = np.bincount(w + 1, minlength=3)
    return FreqDistribution(tuple(int(c) for c in counts), len(w))


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
    # Each line ends in its round's "g,t,pi_hat,m_hat,w", one of a few.
    codes = tr._codes()
    suffixes = np.empty(1 << 10, dtype=object)  # one slot per possible code
    for code in np.unique(codes):
        suffixes[code] = ",".join(_enc(v) for v in _fields(int(code)))
    rows = zip(map(str, range(len(codes))), tr.key_ids, suffixes[codes].tolist())
    return "\n".join(itertools.chain([header], map(",".join, rows))) + "\n"


def parse_transcript(text: str) -> Transcript:
    """Read a transcript file, refusing one a verifier must not trust.

    Every round line must carry its position as its index, the file must
    hold exactly the header's n rounds, and its abort flag must be the abort
    rule applied to those rounds.  Blank lines are skipped; any other line
    that is not a round, an ``#error`` line among them, is refused.
    """
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
    aborted = bool(int(fields["aborted"]))
    keys: List[str] = []
    codes: List[int] = []
    # Each distinct "g,t,pi_hat,m_hat,w" suffix is decoded and checked once.
    suffix_codes = {}
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
        code = suffix_codes.get(suffix)
        if code is None:
            values = [_dec(tok) for tok in suffix.split(",")]
            if len(values) != len(_FIELDS):
                raise ValueError(f"round {i}: expected 7 comma-separated fields")
            RoundRecord(i, key, *values)
            code = suffix_codes[suffix] = _code(values)
        keys.append(key)
        codes.append(code)
    if len(keys) != params.n:
        raise ValueError(f"transcript holds {len(keys)} rounds, its header n={params.n}")
    packed = np.array(codes, dtype=np.int16)
    columns = {
        name: ((packed >> 2 * k) & 3).astype(np.int8) - 1
        for k, name in enumerate(_FIELDS)
    }
    tr = Transcript(params, int(fields["seed"]), keys, **columns, aborted=aborted)
    if aborted != (tr.test_win_count() < tr.abort_threshold):
        raise ValueError(
            f"abort flag {int(aborted)} disagrees with {tr.test_win_count()} test-round"
            f" wins against the threshold {tr.abort_threshold!r}"
        )
    return tr
