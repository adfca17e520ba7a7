"""Command-line surface: bound sweeps, rate curves, protocol simulation, and
verification suites, all emitting deterministic CSV or text outputs.

Exit codes: 0 success (a protocol abort is a successful outcome), 1 usage
error, 2 verification failure, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Dict, List, Optional, Sequence

from .devices import parse_device
from .eat import (
    BETA_GRID,
    CUTOFF_GRID,
    EatParams,
    TradeoffCurve,
    TradeoffFunction,
    accumulation_rate,
    asymptotic_rate,
    entropy_bound_combined,
)
from .bound import WinningStats, entropy_bounds
from .protocol import certify, freq_of, run_protocol, serialize_transcript
from .verify import run_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAIL = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on bad flags; remap to the usage code."""

    def error(self, message):
        raise UsageError(message)


def _parse_grid(spec: str) -> List[float]:
    """Parse 'lo:hi:step' into an inclusive list of grid values."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid spec {spec!r} must be lo:hi:step")
    try:
        lo, hi, step = (float(x) for x in parts)
    except ValueError:
        raise UsageError(f"non-numeric grid spec {spec!r}") from None
    if step <= 0 or hi < lo:
        raise UsageError(f"invalid grid spec {spec!r}")
    values = []
    k = 0
    while True:
        x = lo + k * step
        if x > hi + 1e-12:
            break
        value = min(x, hi)
        if values and value == values[-1]:
            raise UsageError(
                f"grid spec {spec!r}: step {step!r} is below the spacing of doubles"
                f" near {value!r}, so the grid repeats points"
            )
        values.append(value)
        if x >= hi:
            # Later points would clamp to hi again.
            break
        k += 1
    return values


def _read_config(path: str, allowed: Sequence[str]) -> Dict[str, str]:
    """Flat 'key = value' file with '#' comments; unknown keys rejected."""
    out: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in allowed:
                raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = val
    return out


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(cell) for cell in row) + "\n")


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return repr(cell)
    return str(cell)


def cmd_bound(args) -> int:
    omegas = _parse_grid(args.omega_grid)
    rows = [(omega, entropy_bound_combined(omega, args.beta)) for omega in omegas]
    _write_csv(args.out, ("omega", "bound"), rows)
    return EXIT_OK


def cmd_bound2d(args) -> int:
    grid = _parse_grid(args.grid)
    cells = [(wp, wm) for wp in grid for wm in grid]
    bounds = entropy_bounds([WinningStats(wp, wm) for wp, wm in cells])
    rows = [(wp, wm, b) for (wp, wm), b in zip(cells, bounds.tolist())]
    _write_csv(args.out, ("omega_p", "omega_m", "bound"), rows)
    return EXIT_OK


def _parse_n(token: str) -> float:
    """A round count for `rate`: a whole number >= 1, or anything float()
    reads as +inf ('inf', 'Infinity', '1e400')."""
    token = token.strip()
    try:
        n = float(token)
    except ValueError:
        raise UsageError(f"non-numeric round count {token!r}") from None
    if n == math.inf:
        return n
    if not (math.isfinite(n) and n >= 1.0 and n == int(n)):
        raise UsageError(f"round count {token!r} must be 'inf' or a whole number >= 1")
    return n


def cmd_rate(args) -> int:
    omegas = _parse_grid(args.omega_grid)
    n_values = [_parse_n(tok) for tok in args.n.split(",")]
    # One curve per beta serves every cutoff and the infinite-n rows, so each
    # combined bound is computed once per request.  The curves live only as
    # long as this request.
    curves = {beta: TradeoffCurve(beta, args.gamma) for beta in BETA_GRID}
    # Tradeoff functions are shared across omega and n; build them once.
    tfs = [
        TradeoffFunction(curves[beta], omega_0)
        for beta in BETA_GRID
        for omega_0 in CUTOFF_GRID
    ]
    rows = []
    for n in n_values:
        for omega in omegas:
            if math.isinf(n):
                rate = asymptotic_rate(omega, curves.values())
            else:
                rate = max(
                    accumulation_rate(tf, omega, n, args.eps, args.pomega)
                    for tf in tfs
                )
            rows.append(("inf" if math.isinf(n) else int(n), omega, rate))
    _write_csv(args.out, ("n", "omega", "rate"), rows)
    return EXIT_OK


_PARAM_KEYS = tuple(f.name for f in dataclasses.fields(EatParams)) + ("omega_0",)


def _load_params(path: str):
    kv = _read_config(path, _PARAM_KEYS)
    try:
        # A parameter file may leave out the slack.
        params = EatParams.from_text({"xi_slack": "0", **kv})
    except KeyError as exc:
        raise UsageError(f"{path}: missing required key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None
    omega_0 = float(kv.get("omega_0", "0.95"))
    return params, omega_0


def cmd_simulate(args) -> int:
    with open(args.device_file, "r", encoding="utf-8") as fh:
        device = parse_device(fh.read())
    params, omega_0 = _load_params(args.params)
    transcript = run_protocol(device, params, args.seed)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(serialize_transcript(transcript))
    freq = freq_of(transcript)
    probs = freq.probabilities()
    summary = (
        f"aborted={'true' if transcript.aborted else 'false'}"
        f" freq_bot={probs[0]!r} freq_0={probs[1]!r} freq_1={probs[2]!r}"
    )
    if transcript.aborted:
        summary += " certified_entropy=0.0 generation_rounds=0"
    else:
        tf = TradeoffFunction(TradeoffCurve(params.beta, params.gamma), omega_0)
        entropy, gen_count = certify(transcript, tf)
        summary += f" certified_entropy={entropy!r} generation_rounds={gen_count}"
    print(summary)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_suite(args.suite, args.trials, args.seed)
    status = "pass" if report.passed else "FAIL"
    print(
        f"suite={report.name} trials={report.trials} result={status}"
        f" worst_slack={report.worst_slack!r} {report.message}"
    )
    if report.trials == 0:
        print("warning: zero trials requested; result is vacuous", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def build_parser() -> _Parser:
    parser = _Parser(prog="eatcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="sweep the one-variable entropy bound")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--omega-grid", required=True, help="lo:hi:step")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("bound2d", help="sweep the two-variable entropy bound")
    p.add_argument("--grid", required=True, help="lo:hi:step, both axes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bound2d)

    p = sub.add_parser("rate", help="accumulation rate curves per n")
    p.add_argument("--n", required=True, help="comma list, e.g. 1e8,1e10,inf")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--pomega", type=float, default=1e-5)
    p.add_argument("--omega-grid", required=True, help="lo:hi:step")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("simulate", help="run the protocol against a device file")
    p.add_argument("--device-file", required=True)
    p.add_argument("--params", required=True, help="key = value parameter file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="transcript output path")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=["jordan", "good-subspace", "bound-vs-oracle", "tradeoff", "continuity"],
    )
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
