"""Benchmark the compiled entropy-bound kernels against the pure-Python
fallback and check that both backends agree.

Usage: python benchmarks/bench_kernels.py

Exits with 1 when the backends disagree, which points to a stale _kernels.c:
regenerate it with `cython -3 src/eatcert/_kernels.pyx` and rebuild.
"""

import sys
import time

from eatcert import bound
from eatcert.bound import BoundConfig, WinningStats
from eatcert.numerics import OptimizerConfig

CFG = BoundConfig(optimizer=OptimizerConfig(grid_points=301, refine_iterations=40))


def time_call(fn, repeat):
    start = time.perf_counter()
    for _ in range(repeat):
        result = fn()
    return (time.perf_counter() - start) / repeat, result


def main():
    if not bound.USING_COMPILED_KERNELS:
        print("compiled kernels unavailable; nothing to compare")
        return 0
    stats = WinningStats(0.98, 0.97)

    cases = [
        (
            "entropy_bound",
            lambda: bound.entropy_bound(stats, CFG),
            lambda: bound._entropy_bound_pure(stats, CFG),
            50,
            2,
        ),
        (
            "entropy_bound_combined",
            lambda: bound.entropy_bound_combined(0.97, 0.045, CFG),
            lambda: bound._entropy_bound_combined_pure(0.97, 0.045, CFG),
            3,
            1,
        ),
    ]
    print(f"{'kernel':<24} {'compiled':>12} {'pure':>12} {'speedup':>9} {'|diff|':>10}")
    disagree = []
    for name, compiled, pure, rep_c, rep_p in cases:
        t_c, v_c = time_call(compiled, rep_c)
        t_p, v_p = time_call(pure, rep_p)
        print(
            f"{name:<24} {t_c * 1e3:>10.2f}ms {t_p * 1e3:>10.2f}ms"
            f" {t_p / t_c:>8.1f}x {abs(v_c - v_p):>10.2e}"
        )
        if v_c != v_p:
            disagree.append(name)
    if disagree:
        print(f"backends disagree on: {', '.join(disagree)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
