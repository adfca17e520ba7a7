"""Self times on a hand-built span tree, and install/uninstall of the tracer.

Run from the repository root:  python -m pytest perfbench/tests
"""

import contextlib
import io
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import tracing  # noqa: E402


def build(spans_in_start_order):
    spans = tracing.Spans()
    for name, start, end, parent in spans_in_start_order:
        spans.add(name, start, end, parent)
    return spans


def test_self_times_hand_built_tree():
    spans = build([
        ("root", 0.0, 10.0, -1),  # 0
        ("a", 1.0, 4.0, 0),  # 1
        ("a1", 2.0, 3.0, 1),  # 2
        ("b", 3.0, 6.0, 0),  # 3: overlaps a by one second
        ("c", 9.0, 12.0, 0),  # 4: sticks out of root by two seconds
        ("c1", 9.5, 10.0, 4),  # 5
        ("other", 20.0, 21.5, -1),  # 6
    ])
    # root's children cover [1, 6] and [9, 10]: 6 of its 10 seconds.
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 2.5, 0.5, 1.5])


def test_self_times_leaf_and_empty():
    assert tracing.self_times(build([("x", 1.0, 3.5, -1)])) == [2.5]
    assert tracing.self_times(tracing.Spans()) == []


def test_tracer_counts_and_restores():
    import eatcert.cli
    import eatcert.quantum

    originals = (eatcert.cli.main, eatcert.quantum.partial_trace, eatcert.cli.run_suite)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert eatcert.cli.main(["verify", "--suite", "bound-vs-oracle", "--trials", "3", "--seed", "1"]) == 0
    finally:
        tracer.uninstall()
    assert (eatcert.cli.main, eatcert.quantum.partial_trace, eatcert.cli.run_suite) == originals
    assert tracer.missing == []
    layer = tracer.per_layer(batches=1)
    assert set(layer) == set(tracing.PER_LAYER) - {"trace.overhead_s"}
    assert layer["cli.requests"] == 1
    assert layer["verify.trials"] == 3
    assert layer["quantum.partial_trace_calls"] > 0
    assert layer["verify.bound-vs-oracle_s"] > 0.0
    assert layer["bound.combined_calls"] == 0
    root = tracer.spans.names.index("cli.main")
    assert tracer.spans.parents[root] == -1
    assert tracer.spans.names[root + 1] == "verify.bound-vs-oracle"
    assert tracer.spans.parents[root + 1] == root


def test_distinct_ratio_counts_repeated_bound_calls(monkeypatch):
    import eatcert.eat

    monkeypatch.setattr(eatcert.eat, "entropy_bound_combined", lambda omega, beta, cfg=None: 0.0)
    tracer = tracing.Tracer()
    for pairs in ([(0.9, 0.01), (0.9, 0.01), (0.95, 0.01), (0.9, 0.02)], [(1.0, 0.01)] * 4):
        tracer.install()
        try:
            for omega, beta in pairs:
                eatcert.eat.entropy_bound_combined(omega, beta=beta)
        finally:
            tracer.uninstall()
    layer = tracer.per_layer(batches=2)
    assert layer["bound.combined_calls"] == 4
    # 3 distinct pairs in the first batch and 1 in the second, of 8 calls.
    assert layer["bound.combined_distinct_ratio"] == pytest.approx(4 / 8)
