"""Layer spans and counters recorded from outside the program.

The tracer replaces the module attributes that each caller inside eatcert
looks up (for example ``eatcert.eat.entropy_bound_combined``, which
``TradeoffFunction.base`` and ``asymptotic_rate`` resolve through their
module globals) with timing wrappers, and puts the originals back when
uninstalled.  ``src/`` is never modified.  Spans (name, start, end, parent)
are kept in memory and written out once, at the end of the run.

Only the standard library is imported here, so the worker can import this
module without disturbing the cold-import measurement of ``eatcert.cli``.
"""

from __future__ import annotations

import importlib
import time
from typing import Dict, List, Tuple

# (module, attribute, span name).  A dotted attribute names a method looked
# up on a class that is itself a module attribute.
SPAN_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("eatcert.cli", "main", "cli.main"),
    ("eatcert.cli", "TradeoffFunction", "eat.tradeoff_build"),
    ("eatcert.cli", "asymptotic_rate", "eat.asymptotic_rate"),
    ("eatcert.cli", "accumulation_rate", "eat.accumulation_rate"),
    ("eatcert.protocol", "certified_min_entropy", "eat.certified_min_entropy"),
    ("eatcert.eat", "entropy_bound_combined", "bound.combined"),
    ("eatcert.cli", "parse_device", "devices.parse"),
    ("eatcert.devices", "QubitBlockDevice.respond_preimage", "devices.respond"),
    ("eatcert.devices", "QubitBlockDevice.respond_equation", "devices.respond"),
    ("eatcert.verify", "device_stats", "devices.stats"),
    ("eatcert.verify", "exact_round_entropy", "devices.exact_entropy"),
    ("eatcert.verify", "exact_equation_entropy", "devices.exact_entropy"),
    ("eatcert.verify", "random_device", "devices.random_device"),
    ("eatcert.cli", "run_protocol", "protocol.run_protocol"),
    ("eatcert.cli", "serialize_transcript", "protocol.serialize"),
    ("eatcert.protocol", "parse_transcript", "protocol.parse"),
    ("eatcert.protocol", "markov_condition_audit", "protocol.audit"),
    ("eatcert.cli", "certify", "protocol.certify"),
    ("eatcert.quantum", "partial_trace", "quantum.partial_trace"),
    ("eatcert.quantum", "jordan_decompose", "quantum.jordan"),
    ("eatcert.quantum", "von_neumann_entropy", "quantum.entropy"),
    ("eatcert.quantum", "conditional_entropy", "quantum.entropy"),
    ("eatcert.quantum", "conditional_measurement_entropy", "quantum.entropy"),
    ("eatcert.quantum", "purify", "quantum.purify"),
    ("eatcert.quantum", "check_density_matrix", "quantum.check"),
    ("eatcert.quantum", "check_projector", "quantum.check"),
    ("eatcert.quantum", "check_povm", "quantum.check"),
)

# The pure-Python bound resolves its optimizers through eatcert.bound's
# globals.  They are counted, not spanned: one combined bound makes ~310
# optimizer calls and ~10^5 objective evaluations.
OPTIMIZER_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("eatcert.bound", "maximize_scalar"),
    ("eatcert.bound", "minimize_scalar"),
)

VERIFY_SUITES = ("jordan", "good-subspace", "bound-vs-oracle", "continuity")

# Per-layer metric -> (unit, better).  Self-time metrics are "<span>_s".
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "numerics.optimizer_calls": ("count", "lower"),
    "numerics.objective_evals": ("count", "lower"),
    "bound.combined_calls": ("count", "lower"),
    "bound.combined_s": ("s", "lower"),
    "bound.combined_ms_per_call": ("ms", "lower"),
    "bound.combined_distinct_ratio": ("ratio", "higher"),
    "eat.tradeoff_builds": ("count", "lower"),
    "eat.tradeoff_build_s": ("s", "lower"),
    "eat.asymptotic_rate_s": ("s", "lower"),
    "eat.accumulation_rate_s": ("s", "lower"),
    "eat.certified_min_entropy_s": ("s", "lower"),
    "devices.respond_calls": ("count", "lower"),
    "devices.respond_s": ("s", "lower"),
    "devices.parse_s": ("s", "lower"),
    "devices.stats_s": ("s", "lower"),
    "devices.exact_entropy_s": ("s", "lower"),
    "devices.random_device_s": ("s", "lower"),
    "protocol.rounds": ("count", "higher"),
    "protocol.rounds_per_s": ("1/s", "higher"),
    "protocol.run_protocol_s": ("s", "lower"),
    "protocol.serialize_s": ("s", "lower"),
    "protocol.parse_s": ("s", "lower"),
    "protocol.audit_s": ("s", "lower"),
    "protocol.certify_s": ("s", "lower"),
    "protocol.transcript_bytes": ("bytes", "lower"),
    "quantum.partial_trace_calls": ("count", "lower"),
    "quantum.partial_trace_s": ("s", "lower"),
    "quantum.jordan_calls": ("count", "lower"),
    "quantum.jordan_s": ("s", "lower"),
    "quantum.entropy_s": ("s", "lower"),
    "quantum.purify_s": ("s", "lower"),
    "quantum.check_s": ("s", "lower"),
    "verify.trials": ("count", "lower"),
    **{f"verify.{suite}_s": ("s", "lower") for suite in VERIFY_SUITES},
    "cli.requests": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Span name -> metric holding its summed self time.
_SELF_TIME_METRIC = {
    "cli.main": "cli.self_s",
    "eat.tradeoff_build": "eat.tradeoff_build_s",
    "eat.asymptotic_rate": "eat.asymptotic_rate_s",
    "eat.accumulation_rate": "eat.accumulation_rate_s",
    "eat.certified_min_entropy": "eat.certified_min_entropy_s",
    "bound.combined": "bound.combined_s",
    "devices.parse": "devices.parse_s",
    "devices.respond": "devices.respond_s",
    "devices.stats": "devices.stats_s",
    "devices.exact_entropy": "devices.exact_entropy_s",
    "devices.random_device": "devices.random_device_s",
    "protocol.run_protocol": "protocol.run_protocol_s",
    "protocol.serialize": "protocol.serialize_s",
    "protocol.parse": "protocol.parse_s",
    "protocol.audit": "protocol.audit_s",
    "protocol.certify": "protocol.certify_s",
    "quantum.partial_trace": "quantum.partial_trace_s",
    "quantum.jordan": "quantum.jordan_s",
    "quantum.entropy": "quantum.entropy_s",
    "quantum.purify": "quantum.purify_s",
    "quantum.check": "quantum.check_s",
    **{f"verify.{suite}": f"verify.{suite}_s" for suite in VERIFY_SUITES},
}

# Span name -> metric counting its calls.
_CALL_COUNT_METRIC = {
    "cli.main": "cli.requests",
    "eat.tradeoff_build": "eat.tradeoff_builds",
    "bound.combined": "bound.combined_calls",
    "devices.respond": "devices.respond_calls",
    "quantum.partial_trace": "quantum.partial_trace_calls",
    "quantum.jordan": "quantum.jordan_calls",
}


class Spans:
    """Closed and open spans in four parallel lists; parent -1 is a root."""

    def __init__(self):
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def __len__(self) -> int:
        return len(self.names)


def self_times(spans: Spans) -> List[float]:
    """Each span's duration minus the part of it that its children cover.

    Spans must be stored in start order, as the tracer opens them.  Time
    covered by overlapping children counts once, and a child that sticks
    out of its parent is clipped to the parent's interval.
    """
    n = len(spans)
    covered = [0.0] * n
    reach: Dict[int, float] = {}
    for i in range(n):
        p = spans.parents[i]
        if p < 0:
            continue
        r = reach.get(p, spans.starts[p])
        lo = max(spans.starts[i], r)
        hi = min(spans.ends[i], spans.ends[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(r, hi)
    return [spans.ends[i] - spans.starts[i] - covered[i] for i in range(n)]


class Tracer:
    """Installs span wrappers and counters around eatcert's layer calls."""

    def __init__(self):
        self.spans = Spans()
        self.counters: Dict[str, int] = {
            "numerics.optimizer_calls": 0,
            "numerics.objective_evals": 0,
            "protocol.rounds": 0,
            "protocol.transcript_bytes": 0,
            "verify.trials": 0,
        }
        self.missing: List[str] = []
        # (omega, beta) of every combined-bound call, one list per install.
        self.bound_args: List[List[Tuple[float, float]]] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = spans.add(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans.ends[idx] = clock()
                stack.pop()

        return traced

    def _suite_span(self, fn):
        """run_suite(name, trials, seed): one span per suite, named after it."""
        counters, by_suite = self.counters, {}

        def traced(name, trials, seed):
            counters["verify.trials"] += trials
            if name not in by_suite:
                by_suite[name] = self._span(fn, f"verify.{name}")
            return by_suite[name](name, trials, seed)

        return traced

    def _counting_optimizer(self, fn):
        counters = self.counters

        def counted(f, *args, **kwargs):
            evals = 0

            def objective(x):
                nonlocal evals
                evals += 1
                return f(x)

            counters["numerics.optimizer_calls"] += 1
            try:
                return fn(objective, *args, **kwargs)
            finally:
                counters["numerics.objective_evals"] += evals

        return counted

    def _recording_bound_args(self, fn):
        args = self.bound_args[-1]

        def recorded(omega, beta, *rest, **kwargs):
            args.append((omega, beta))
            return fn(omega, beta, *rest, **kwargs)

        return recorded

    def _counting_result(self, fn, counter: str, measure):
        counters = self.counters

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[counter] += measure(result)
            return result

        return counted

    # -- install / uninstall -------------------------------------------------

    def _replace(self, module: str, attr: str, make) -> None:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or leaf not in vars(owner):
            self.missing.append(f"{module}.{attr}")
            return
        original = vars(owner)[leaf]
        self._saved.append((owner, leaf, original))
        setattr(owner, leaf, make(original))

    def install(self) -> None:
        self.missing = []
        self.bound_args.append([])
        # Counters sit innermost, so the span around the same call covers them.
        self._replace("eatcert.eat", "entropy_bound_combined", self._recording_bound_args)
        self._replace(
            "eatcert.cli",
            "run_protocol",
            lambda fn: self._counting_result(fn, "protocol.rounds", lambda tr: len(tr.rounds)),
        )
        self._replace(
            "eatcert.cli",
            "serialize_transcript",
            lambda fn: self._counting_result(
                fn, "protocol.transcript_bytes", lambda text: len(text.encode("utf-8"))
            ),
        )
        for module, attr in OPTIMIZER_TARGETS:
            self._replace(module, attr, self._counting_optimizer)
        self._replace("eatcert.cli", "run_suite", self._suite_span)
        for module, attr, name in SPAN_TARGETS:
            self._replace(module, attr, lambda fn, name=name: self._span(fn, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    # -- results --------------------------------------------------------------

    def per_layer(self, batches: int) -> Dict[str, float]:
        """Every per-layer metric except trace.overhead_s, per batch."""
        totals: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
        selfs = self_times(self.spans)
        run_protocol_wall = 0.0
        for i, name in enumerate(self.spans.names):
            metric = _SELF_TIME_METRIC.get(name)
            if metric is not None:
                totals[metric] += selfs[i]
            metric = _CALL_COUNT_METRIC.get(name)
            if metric is not None:
                totals[metric] += 1
            if name == "protocol.run_protocol":
                run_protocol_wall += self.spans.ends[i] - self.spans.starts[i]
        for name, count in self.counters.items():
            totals[name] += count
        out: Dict[str, float] = {}
        for name, (unit, _) in PER_LAYER.items():
            value = totals[name] / batches
            out[name] = round(value) if unit in ("count", "bytes") else value
        calls = totals["bound.combined_calls"]
        out["bound.combined_ms_per_call"] = 1e3 * totals["bound.combined_s"] / calls if calls else 0.0
        # Distinct (omega, beta) pairs per call within a batch: below 1 when
        # the same bound is evaluated again.
        recorded = sum(len(batch) for batch in self.bound_args)
        distinct = sum(len(set(batch)) for batch in self.bound_args)
        out["bound.combined_distinct_ratio"] = distinct / recorded if recorded else 0.0
        out["protocol.rounds_per_s"] = (
            totals["protocol.rounds"] / run_protocol_wall if run_protocol_wall > 0 else 0.0
        )
        del out["trace.overhead_s"]
        return out

    def write(self, path: str) -> None:
        spans = self.spans
        origin = spans.starts[0] if len(spans) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i in range(len(spans)):
                fh.write(
                    f"{i},{spans.names[i]},{spans.starts[i] - origin:.9f},"
                    f"{spans.ends[i] - origin:.9f},{spans.parents[i]}\n"
                )

