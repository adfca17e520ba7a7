"""Output checks.  Each check returns a list of error strings; empty means the
output is correct.  The reference values are computed here, independently of
the program: the combined entropy bound by brute force on a dense numpy grid,
transcripts by a separate reader, and the round entropy through an identity
that needs no purification.
"""

from __future__ import annotations

import hashlib
import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# rate-curves
# ---------------------------------------------------------------------------

N_TOKENS = ("100000000", "10000000000", "1000000000000", "inf")
# The rate search's mixing ratios (eatcert.eat.DEFAULT_RATE_SEARCH).
BETA_GRID = (0.01, 0.02, 0.045, 0.09, 0.15)
# The overlap threshold c ranges over (1/2, 1]; the open end is offset.
C_LO, C_HI = 0.5 + 1e-6, 1.0
ORACLE_TOL = 1e-6
# The known over-report of the program's bound minimizer: about 1.1e-5 at
# omega = 1 - 1e-12.  A larger one, or one at another omega, is an error.
OVERSHOOT_MAX = 2e-5
# Rates come out of a grid-plus-golden-section optimizer with tolerance 1e-9.
MONOTONE_TOL = 1e-9
_LOG2_3 = math.log2(3.0)
_TINY = 1e-300


def _h2(x: np.ndarray) -> np.ndarray:
    """Binary entropy, elementwise, with 0 log 0 = 0."""
    return -(x * np.log2(np.maximum(x, _TINY)) + (1.0 - x) * np.log2(np.maximum(1.0 - x, _TINY)))


def _fixed_overlap(c: np.ndarray, pen: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Uncertainty bound at overlap threshold c for rows with penalty pen and
    equation margin base = omega_m - 2 sqrt(1 - omega_p)."""
    a_pen = 10.0 / (2.0 * c - 1.0) ** 2 * pen
    arg = np.clip(base - a_pen, 0.0, 1.0)
    hterm = np.where(arg < 0.5, 1.0, _h2(arg))
    return np.maximum(0.0, 1.0 - a_pen) * np.maximum(0.0, np.log2(1.0 / c) - hterm)


def grid_combined_bound(
    omega: float, beta: float, wp_points: int = 4001, c_points: int = 1001,
    refine_points: int = 201, chunk: int = 256,
) -> float:
    """Combined-rate entropy bound by brute force.

    Minimum over a grid of preimage rates omega_p (the equation rate follows
    from omega and beta) of the maximum over the overlap threshold c of the
    uncertainty bound, minus the continuity penalty, clamped at 0.  The
    maximum over c scans c_points and then refine_points inside the best
    cell, so a peak narrower than the scan step is still resolved.
    """
    lo = max(0.0, (omega - beta) / (1.0 - beta))
    hi = min(1.0, omega / (1.0 - beta))
    wp = np.clip(np.linspace(lo, hi, wp_points) if hi > lo else np.array([lo]), 0.0, 1.0)
    wm = np.clip((omega - (1.0 - beta) * wp) / beta, 0.0, 1.0)
    pen = math.sqrt(2.0) * (1.0 - wp) ** 0.25 + np.sqrt(1.0 - wm)
    base = wm - 2.0 * np.sqrt(1.0 - wp)
    c = np.linspace(C_LO, C_HI, c_points)
    t = np.linspace(0.0, 1.0, refine_points)
    best = np.empty(wp.size)
    for s in range(0, wp.size, chunk):
        p, b = pen[s:s + chunk, None], base[s:s + chunk, None]
        f = _fixed_overlap(c[None, :], p, b)
        i = f.argmax(axis=1)
        left = c[np.maximum(i - 1, 0)][:, None]
        right = c[np.minimum(i + 1, c_points - 1)][:, None]
        fine = _fixed_overlap(left + (right - left) * t[None, :], p, b)
        best[s:s + chunk] = np.maximum(f.max(axis=1), fine.max(axis=1))
    e = np.sqrt(1.0 - wp)
    penalty = e * _LOG2_3 + (1.0 + e) * _h2(e / (1.0 + e))
    return float(np.maximum(0.0, best - penalty).min())


def asymptotic_rate_reference(omega: float, gamma: float) -> float:
    return max(0.0, max((1.0 - b * gamma) * grid_combined_bound(omega, b) for b in BETA_GRID))


def parse_rate_csv(text: str) -> List[Tuple[str, float, float]]:
    lines = text.splitlines()
    if not lines or lines[0] != "n,omega,rate":
        raise ValueError("rate CSV header is not 'n,omega,rate'")
    rows = []
    for line in lines[1:]:
        n, omega, rate = line.split(",")
        rows.append((n, float(omega), float(rate)))
    return rows


def check_rate_curves(
    rows: Sequence[Tuple[str, float, float]],
    grid: Sequence[float],
    gamma: float,
    oracle_points: Sequence[int],
    reference=asymptotic_rate_reference,
    overshoot_at: Optional[float] = None,
) -> Tuple[List[str], List[str]]:
    """Returns (faults, errors).

    Faults are the two known defects that make a request count as failed:
    an omega listed twice for one n, and, at overshoot_at only, an
    asymptotic rate above the brute-force bound by at most OVERSHOOT_MAX
    (the program's minimizer misses a lower point there).  Errors are any
    other wrong output, over-reports anywhere else or by more included.
    """
    faults: List[str] = []
    errors: List[str] = []
    by_n: Dict[str, Dict[float, float]] = {}
    repeats = 0
    for n, omega, rate in rows:
        if not 0.0 <= rate <= 1.0:
            errors.append(f"n={n} omega={omega!r}: rate {rate!r} outside [0, 1]")
        curve = by_n.setdefault(n, {})
        if omega in curve:
            repeats += 1
            if curve[omega] != rate:
                errors.append(f"n={n} omega={omega!r}: repeated row with another rate")
        curve[omega] = rate
    if repeats:
        faults.append(f"{repeats} rows repeat an omega already listed for their n")
    if tuple(by_n) != N_TOKENS:
        return faults, errors + [f"n values {list(by_n)} != {list(N_TOKENS)}"]
    lo, hi, step = grid
    omegas = sorted(by_n["inf"])
    expected = int(round((hi - lo) / step)) + 1
    if len(omegas) != expected or omegas[0] != lo or omegas[-1] != hi:
        errors.append(f"distinct omegas {omegas} do not span {lo!r}:{hi!r} in {expected} points")
    for n in N_TOKENS:
        if sorted(by_n[n]) != omegas:
            return faults, errors + [f"n={n}: omega set differs from n=inf"]
    for omega in omegas:
        curve = [by_n[n][omega] for n in N_TOKENS]
        for smaller, larger, n in zip(curve, curve[1:], N_TOKENS[1:]):
            if smaller > larger + MONOTONE_TOL:
                errors.append(f"omega={omega!r}: rate falls to {larger!r} at n={n} from {smaller!r}")
    inf_curve = [by_n["inf"][omega] for omega in omegas]
    for w0, r0, w1, r1 in zip(omegas, inf_curve, omegas[1:], inf_curve[1:]):
        if r1 < r0 - MONOTONE_TOL:
            errors.append(f"asymptotic rate falls from {r0!r} at {w0!r} to {r1!r} at {w1!r}")
    for omega in sorted({omegas[k] for k in oracle_points if k < len(omegas)} | {omegas[-1]}):
        want = reference(omega, gamma)
        got = by_n["inf"][omega]
        message = f"omega={omega!r}: asymptotic rate {got!r}, grid reference {want!r}"
        if got > want + ORACLE_TOL and omega == overshoot_at and got - want <= OVERSHOOT_MAX:
            faults.append(message)
        elif abs(got - want) > ORACLE_TOL:
            errors.append(message)
    return faults, errors


# ---------------------------------------------------------------------------
# protocol-certify
# ---------------------------------------------------------------------------

SIGMAS = 5.0
Record = Tuple[int, str, int, Optional[int], Optional[int], Optional[int], Optional[int]]


def _field(token: str) -> Optional[int]:
    return None if token == "-" else int(token)


def read_transcript(text: str) -> Tuple[Dict[str, str], List[Record]]:
    """Header fields and round records of a transcript file."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#eatcert-transcript "):
        raise ValueError("missing transcript header")
    header = dict(tok.split("=", 1) for tok in lines[0].split()[1:])
    records = []
    for line in lines[1:]:
        if line.startswith("#"):
            raise ValueError(f"unexpected comment line {line!r}")
        idx, key, g, t, pi_hat, m_hat, w = line.split(",")
        records.append((int(idx), key, int(g), _field(t), _field(pi_hat), _field(m_hat), _field(w)))
    return header, records


def _record_errors(i: int, rec: Record) -> Optional[str]:
    idx, key, g, t, pi_hat, m_hat, w = rec
    if idx != i or key != f"k{i:08d}":
        return f"round {i}: index/key {idx}/{key}"
    if g == 1:
        ok = t == 0 and pi_hat in (0, 1, 2) and m_hat is None and w is None
    elif g == 0 and t == 0:
        ok = pi_hat in (0, 1, 2) and m_hat is None and w == (1 if pi_hat != 2 else 0)
    elif g == 0 and t == 1:
        ok = pi_hat is None and m_hat in (0, 1) and w == (1 if m_hat == 0 else 0)
    else:
        ok = False
    return None if ok else f"round {i}: record {rec} breaks the field rules"


def _within_sigmas(observed: int, trials: int, p: float) -> bool:
    if trials == 0:
        return True
    sigma = math.sqrt(p * (1.0 - p) / trials)
    return abs(observed / trials - p) <= SIGMAS * sigma + 1e-12


def parse_summary(line: str) -> Dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split())


def check_transcript(text: str, summary: str, device: Dict, params: Dict) -> List[str]:
    """Transcript file and printed summary of one `eatcert simulate` run."""
    try:
        header, records = read_transcript(text)
    except (ValueError, IndexError) as exc:
        return [f"unreadable transcript: {exc}"]
    n = int(params["n"])
    gamma, beta, delta = params["gamma"], params["beta"], params["delta_est"]
    errors = []
    if int(header.get("n", -1)) != n or len(records) != n:
        errors.append(f"{len(records)} rounds, header n={header.get('n')}, expected {n}")
    for i, rec in enumerate(records):
        err = _record_errors(i, rec)
        if err:
            errors.append(err)
            break
    tests = [r for r in records if r[2] == 0]
    preimage = [r for r in tests if r[3] == 0]
    equation = [r for r in tests if r[3] == 1]
    if not _within_sigmas(len(tests), len(records), gamma):
        errors.append(f"{len(tests)} test rounds of {len(records)}: not within 5 sigma of gamma={gamma}")
    if not _within_sigmas(len(equation), len(tests), beta):
        errors.append(f"{len(equation)} equation rounds of {len(tests)}: not within 5 sigma of beta={beta}")
    for name, rounds, p in (
        ("preimage", preimage, device["preimage_win"]),
        ("equation", equation, device["equation_win"]),
    ):
        wins = sum(r[6] for r in rounds)
        if not _within_sigmas(wins, len(rounds), p):
            errors.append(f"{name} wins {wins}/{len(rounds)}: not within 5 sigma of {p!r}")
    wins = sum(r[6] for r in tests)
    aborted = wins < (params["omega_exp"] * gamma - delta) * n
    if header.get("aborted") != str(int(aborted)):
        errors.append(f"abort flag {header.get('aborted')} but {wins} wins recount to aborted={aborted}")
    try:
        printed = parse_summary(summary)
        losses = len(tests) - wins
        generation = len(records) - len(tests)
        expect = {
            "aborted": "true" if aborted else "false",
            "freq_bot": generation / n,
            "freq_0": losses / n,
            "freq_1": wins / n,
            "generation_rounds": 0 if aborted else generation,
        }
        for key, want in expect.items():
            got = printed[key] if isinstance(want, str) else type(want)(printed[key])
            if got != want:
                errors.append(f"printed {key}={printed[key]} but the recount gives {want!r}")
        entropy = float(printed["certified_entropy"])
        limit = 0.0 if aborted else generation
        if not 0.0 <= entropy <= limit:
            errors.append(f"certified entropy {entropy!r} outside [0, {limit}]")
    except (KeyError, ValueError) as exc:
        errors.append(f"unreadable summary {summary!r}: {exc}")
    return errors


def records_digest(records) -> str:
    """Digest of round records given as 7-tuples, to compare two readers."""
    h = hashlib.sha256()
    for rec in records:
        h.update(repr(tuple(rec)).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# oracle-verify
# ---------------------------------------------------------------------------

_VERIFY_LINE = re.compile(
    r"^suite=(?P<suite>\S+) trials=(?P<trials>\d+) result=(?P<result>\S+)"
    r" worst_slack=(?:np\.float64\()?(?P<slack>[-+0-9.eEinf]+)\)? "
)
SLACK_TOL = 1e-9


def check_verify_output(stdout: str, suite: str, trials: int) -> List[str]:
    m = _VERIFY_LINE.match(stdout)
    if m is None:
        return [f"unreadable verify output {stdout!r}"]
    errors = []
    if m["suite"] != suite or int(m["trials"]) != trials:
        errors.append(f"ran suite={m['suite']} trials={m['trials']}, asked {suite}/{trials}")
    if m["result"] != "pass" or float(m["slack"]) < -SLACK_TOL:
        errors.append(f"suite {suite} result={m['result']} worst_slack={m['slack']}")
    return errors


def check_kernel_agreement(cases) -> List[str]:
    """(label, compiled value, pure value) triples: the compiled bound
    kernels must reproduce the pure-Python fallback exactly."""
    return [
        f"{label}: compiled {compiled!r} != pure {pure!r}"
        for label, compiled, pure in cases
        if compiled != pure
    ]


def _entropy_bits(evals: np.ndarray) -> float:
    evals = evals[evals > 1e-15]
    return float(-np.sum(evals * np.log2(evals)))


def block_state(block: Dict) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in block["rho"]])


def round_entropy_reference(device: Dict) -> float:
    """H(X | purifying side information) of the preimage measurement.

    For a pure state on D (x) R and a projective measurement {Pi_x} on D,
    H(X|R) = S(sum_x Pi_x rho_D Pi_x) - S(rho_D).  The preimage measurement
    is diagonal in the block basis, so the pinched state is diag(rho_D).
    """
    blocks = device["blocks"]
    dim = 2 * len(blocks) + 1
    rho_d = np.zeros((dim, dim), dtype=complex)
    for j, block in enumerate(blocks):
        marginal = np.einsum("ijkj->ik", block_state(block).reshape(2, 2, 2, 2))
        rho_d[2 * j:2 * j + 2, 2 * j:2 * j + 2] = block["weight"] * marginal
    rho_d[-1, -1] = device["junk_weight"]
    pinched = np.real(np.diag(rho_d))
    return _entropy_bits(pinched) - _entropy_bits(np.linalg.eigvalsh(rho_d))


ENTROPY_TOL = 1e-9


def check_round_entropy(device: Dict, value: float) -> List[str]:
    want = round_entropy_reference(device)
    if abs(value - want) > ENTROPY_TOL:
        return [f"exact_round_entropy {value!r}, reference {want!r}"]
    return []
