"""Benchmark entry point: build, make inputs, run one workload, print a result.

    python3 perfbench/run.py --workload rate-curves --seed 1 --seconds 10 --trace 0

Runs the repository's own build step in place, writes the seeded inputs under
.perfbench-out/, then runs the workload in a fresh worker process (BLAS held
to one thread) whose last line of output is the JSON result.  With --trace 1
the result holds the per-layer metrics instead of the end-to-end ones, and
the spans are written to .perfbench-out/trace-<workload>.csv.  See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from inputs import WORKLOADS, make_plan  # noqa: E402

BUILD_TIMEOUT_S = 800
WORKER_TIMEOUT_S = 150
# Cold set-ups timed in fresh processes before the worker's own one; setup_s
# is the median of all of them.
EXTRA_SETUP_SAMPLES = 4
SETUP_TIMEOUT_S = 20


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout + build.stderr)
        print(f"perfbench: build step failed with exit code {build.returncode}", file=sys.stderr)
        return 1

    out_root = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=out_root)
    try:
        plan = make_plan(args.workload, args.seed, work_dir)
        plan_path = os.path.join(work_dir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        trace_path = os.path.join(out_root, f"trace-{args.workload}.csv")
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        worker_py = os.path.join(HERE, "worker.py")
        samples = []
        for _ in range(0 if args.trace else EXTRA_SETUP_SAMPLES):
            t0 = time.monotonic()
            sample = subprocess.run(
                [sys.executable, worker_py, "--setup-sample", repr(t0)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            )
            if sample.returncode != 0:
                sys.stderr.write(sample.stderr)
                return 1
            samples.append(sample.stdout.strip())
        t0 = time.monotonic()
        worker = subprocess.run(
            [
                sys.executable, worker_py, plan_path, repr(args.seconds),
                str(args.trace), repr(t0), trace_path, ",".join(samples),
            ],
            cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S,
        )
        return worker.returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
