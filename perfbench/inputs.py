"""Seeded inputs for each workload.

Everything here is a pure function of (workload, seed) and uses only the
standard library, so inputs are made before the worker process starts and
their cost stays out of the set-up measurement.  The result is a plan: a
JSON-serialisable dict of CLI requests plus what the checks need to know
about them.
"""

from __future__ import annotations

import math
import os
import random
from typing import Dict, List

N_VALUES = "1e8,1e10,1e12,inf"
# The README's example grid: every rate on it is 0 except at omega = 1.
COARSE_GRID = (0.9995, 1.0, 0.0001)
# The last 1e-12 below omega = 1, the only region with a non-zero bound.  A
# step below 1e-12 makes the CLI's grid parser emit duplicate omega = 1 rows,
# so this request fails on every run; its inputs do not depend on the seed.
FINE_GRID = (0.999999999999, 1.0, 2e-13)
FINE_GAMMA = 0.5
# Fixed, like the rest of the fine request: omega = 1 - 1e-12, where the
# program's bound minimizer overshoots, and omega = 1 - 2e-13.
FINE_ORACLE_POINTS = [0, 4]

TRANSCRIPTS = 4  # one device each with 1, 2, 3 and 4 blocks
ROUNDS = 80000

SUITE_TRIALS = {"jordan": 1000, "good-subspace": 1000, "bound-vs-oracle": 800, "continuity": 2000}
ORACLE_DEVICES = 20

WORKLOADS = ("rate-curves", "protocol-certify", "oracle-verify")


def _grid_spec(grid) -> str:
    return ":".join(repr(x) for x in grid)


def _rate_curves(rng: random.Random, out_dir: str) -> Dict:
    coarse_gamma = round(rng.uniform(0.2, 1.0), 3)
    requests = []
    for name, grid, gamma, checked, overshoot_at in (
        ("coarse", COARSE_GRID, coarse_gamma, [rng.randrange(5)], None),
        ("fine", FINE_GRID, FINE_GAMMA, FINE_ORACLE_POINTS, FINE_GRID[0]),
    ):
        out = os.path.join(out_dir, f"rate-{name}.csv")
        requests.append(
            {
                "kind": "rate",
                "argv": [
                    "rate", "--n", N_VALUES, "--gamma", repr(gamma),
                    "--omega-grid", _grid_spec(grid), "--out", out,
                ],
                "out": out,
                "gamma": gamma,
                "grid": list(grid),
                # Indices into the grid's distinct omegas whose asymptotic
                # rate is recomputed independently; omega = 1 always is.
                "oracle_points": checked,
                # The one omega at which the known minimizer over-report is
                # counted as a failed request rather than an error.
                "overshoot_at": overshoot_at,
            }
        )
    return {"requests": requests}


def _unit_vector(rng: random.Random, dim: int) -> List[List[float]]:
    """A random unit vector as [re, im] pairs."""
    v = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(dim)]
    norm = math.sqrt(sum(abs(a) ** 2 for a in v))
    return [[a.real / norm, a.imag / norm] for a in v]


def equation_win_probability(angle: float, state: List[List[float]]) -> float:
    """Probability that a pure block state on D (x) E (index 2d + e, given as
    [re, im] pairs) passes the equation test, whose winning projector on D is
    |v><v| with v = (cos(angle/2), sin(angle/2))."""
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    amps = [complex(re, im) for re, im in state]
    return sum(abs(c * amps[e] + s * amps[2 + e]) ** 2 for e in range(2))


def _block_weights(rng: random.Random, blocks: int, junk: float) -> List[float]:
    """Flat-Dirichlet weights of the blocks, summing to 1 - junk."""
    raw = [rng.gammavariate(1.0, 1.0) for _ in range(blocks)]
    return [(1.0 - junk) * r / sum(raw) for r in raw]


def _device(rng: random.Random, blocks: int) -> Dict:
    junk = rng.uniform(0.1, 0.2)
    weights = _block_weights(rng, blocks, junk)
    spec = {
        "junk_weight": junk,
        "junk_equation_win": rng.uniform(0.0, 1.0),
        "blocks": [
            {"weight": w, "angle": rng.uniform(0.0, math.pi / 2.0), "state": _unit_vector(rng, 4)}
            for w in weights
        ],
    }
    spec["preimage_win"] = 1.0 - junk
    spec["equation_win"] = junk * spec["junk_equation_win"] + sum(
        b["weight"] * equation_win_probability(b["angle"], b["state"]) for b in spec["blocks"]
    )
    return spec


def device_file_text(spec: Dict) -> str:
    lines = [
        f"blocks = {len(spec['blocks'])}",
        f"junk_weight = {spec['junk_weight']!r}",
        f"junk_equation_win = {spec['junk_equation_win']!r}",
    ]
    for j, b in enumerate(spec["blocks"]):
        amps = ",".join(f"{re!r},{im!r}" for re, im in b["state"])
        lines += [
            f"block{j}.weight = {b['weight']!r}",
            f"block{j}.angle = {b['angle']!r}",
            f"block{j}.state = pure:{amps}",
        ]
    return "\n".join(lines) + "\n"


def _protocol_certify(rng: random.Random, out_dir: str) -> Dict:
    block_counts = list(range(1, TRANSCRIPTS + 1))
    rng.shuffle(block_counts)
    requests = []
    for k, blocks in enumerate(block_counts):
        device = _device(rng, blocks)
        gamma = round(rng.uniform(0.45, 0.55), 3)
        beta = round(rng.uniform(0.04, 0.06), 4)
        # The device's own combined winning rate sets the expectation and the
        # tradeoff cutoff.
        omega = (1.0 - beta) * device["preimage_win"] + beta * device["equation_win"]
        params = {
            "n": ROUNDS, "gamma": gamma, "beta": beta, "eps_s": 1e-5, "p_omega": 1e-5,
            "omega_exp": omega, "delta_est": 0.02, "omega_0": omega,
        }
        device_path = os.path.join(out_dir, f"device{k}.txt")
        params_path = os.path.join(out_dir, f"params{k}.txt")
        out = os.path.join(out_dir, f"transcript{k}.txt")
        with open(device_path, "w", encoding="utf-8") as fh:
            fh.write(device_file_text(device))
        with open(params_path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{key} = {value!r}\n" for key, value in params.items()))
        requests.append(
            {
                "kind": "simulate",
                "argv": [
                    "simulate", "--device-file", device_path, "--params", params_path,
                    "--seed", str(rng.randrange(2**31)), "--out", out,
                ],
                "out": out,
                "device": device,
                "params": params,
            }
        )
    return {"requests": requests}


def _random_state(rng: random.Random) -> List[List[List[float]]]:
    """A 4x4 density matrix G G^dagger / tr, G of rank 1 to 4, as [re, im] pairs."""
    rank = rng.randint(1, 4)
    g = [[complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(rank)] for _ in range(4)]
    rho = [[sum(g[i][k] * g[j][k].conjugate() for k in range(rank)) for j in range(4)] for i in range(4)]
    trace = sum(rho[i][i].real for i in range(4))
    return [[[(x / trace).real, (x / trace).imag] for x in row] for row in rho]


def _oracle_verify(rng: random.Random, out_dir: str) -> Dict:
    requests = [
        {
            "kind": "verify",
            "suite": suite,
            "trials": trials,
            "argv": ["verify", "--suite", suite, "--trials", str(trials), "--seed", str(rng.randrange(2**31))],
        }
        for suite, trials in SUITE_TRIALS.items()
    ]
    devices = []
    for _ in range(ORACLE_DEVICES):
        blocks = rng.randint(1, 4)
        junk = rng.uniform(0.0, 0.3)
        weights = _block_weights(rng, blocks, junk)
        devices.append(
            {
                "junk_weight": junk,
                "junk_equation_win": rng.uniform(0.0, 1.0),
                "blocks": [
                    {"weight": w, "angle": rng.uniform(0.0, math.pi / 2.0), "rho": _random_state(rng)}
                    for w in weights
                ],
            }
        )
    return {"requests": requests, "oracle_devices": devices}


def make_plan(workload: str, seed: int, out_dir: str) -> Dict:
    """Inputs for one run; files the requests read are written to out_dir."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    make = {
        "rate-curves": _rate_curves,
        "protocol-certify": _protocol_certify,
        "oracle-verify": _oracle_verify,
    }[workload]
    plan = make(rng, out_dir)
    plan.update(workload=workload, seed=seed)
    return plan
