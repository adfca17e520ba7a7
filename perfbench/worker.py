"""One workload run in a fresh process: cold import, timed batches, checks.

Usage (from run.py): worker.py PLAN_JSON SECONDS TRACE T0 TRACE_OUT [SETUP_SAMPLES]
                     worker.py --setup-sample T0

T0 is the parent's time.monotonic() just before it started this process, so
a set-up time covers interpreter start-up plus the import of eatcert.cli and
all it pulls in.  Nothing but the standard library is imported before
eatcert.  With --setup-sample the process prints its set-up time and exits;
setup_s is the median of this process's own set-up time and SETUP_SAMPLES,
a comma-separated list of such samples taken just before it started.  Every
set-up and batch time is taken to the reference host speed (hostclock.py).
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import eatcert.cli  # noqa: E402  (the set-up being measured)

SETUP_DONE = time.monotonic()

import hostclock  # noqa: E402  (numpy is loaded already)

if __name__ == "__main__" and sys.argv[1:2] == ["--setup-sample"]:
    print(repr(hostclock.calibrated_setup(SETUP_DONE - float(sys.argv[2]))))
    sys.exit(0)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import eatcert  # noqa: E402
import eatcert.bound  # noqa: E402
import eatcert.devices  # noqa: E402
import eatcert.eat  # noqa: E402
import eatcert.protocol  # noqa: E402

import checks  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402


def call_cli(argv):
    """eatcert.cli.main in-process, with its printing captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = eatcert.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_request(req, clock=None):
    """One operation; returns (wall seconds, result dict).  The time `clock`
    spent calibrating during the request is not counted."""
    busy = clock.busy_s if clock else 0.0
    start = time.perf_counter()
    rc, out, err = call_cli(req["argv"])
    result = {"rc": rc, "stdout": out, "stderr": err}
    parsed = None
    if req["kind"] == "simulate" and rc == 0:
        # The verifier's side, on the file as written.
        with open(req["out"], "r", encoding="utf-8") as fh:
            text = fh.read()
        parsed = eatcert.protocol.parse_transcript(text)
        result["audit"] = eatcert.protocol.markov_condition_audit(parsed)
    elapsed = time.perf_counter() - start - ((clock.busy_s - busy) if clock else 0.0)
    if parsed is not None:
        result["parsed_aborted"] = parsed.aborted
        result["parsed_digest"] = checks.records_digest(
            (r.index, r.key_id, r.g, r.t, r.pi_hat, r.m_hat, r.w) for r in parsed.rounds
        )
    return elapsed, result


def fingerprint(req, result):
    h = hashlib.sha256(f"{result['rc']}\n{result['stdout']}".encode())
    if "out" in req and os.path.exists(req["out"]):
        with open(req["out"], "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_outputs(plan, results):
    """(faults per request, errors) for the last batch's outputs."""
    faults, errors = [], []
    for req, res in zip(plan["requests"], results):
        name = " ".join(req["argv"][:3])
        req_faults = []
        # No known fault makes a request exit non-zero; `eatcert verify`
        # exits with 2 exactly when a suite fails.
        if res["rc"] != 0:
            errors.append(f"{name}: exit code {res['rc']}: {res['stderr'].strip()}")
        if req["kind"] == "verify":
            wrong = checks.check_verify_output(res["stdout"], req["suite"], req["trials"])
            errors += [f"{name}: {e}" for e in wrong]
        elif res["rc"] != 0:
            pass  # already an error; the request wrote no output to check
        elif req["kind"] == "rate":
            with open(req["out"], "r", encoding="utf-8") as fh:
                rows = checks.parse_rate_csv(fh.read())
            found, wrong = checks.check_rate_curves(
                rows, req["grid"], req["gamma"], req["oracle_points"], overshoot_at=req["overshoot_at"]
            )
            req_faults += found
            errors += [f"{name}: {e}" for e in wrong]
        elif req["kind"] == "simulate":
            with open(req["out"], "r", encoding="utf-8") as fh:
                text = fh.read()
            wrong = checks.check_transcript(text, res["stdout"].strip(), req["device"], req["params"])
            header, records = checks.read_transcript(text)
            if res["parsed_aborted"] != (header.get("aborted") == "1"):
                wrong.append("parse_transcript disagrees on the abort flag")
            if res["parsed_digest"] != checks.records_digest(records):
                wrong.append("parse_transcript disagrees on the round records")
            errors += [f"{name}: {e}" for e in wrong]
        faults.append(req_faults)
    for spec in plan.get("oracle_devices", []):
        device = program_device(spec)
        errors += checks.check_round_entropy(spec, eatcert.devices.exact_round_entropy(device))
    if eatcert.USING_COMPILED_KERNELS and plan["workload"] == "rate-curves":
        errors += checks.check_kernel_agreement(kernel_cases())
    return faults, errors


# (omega, beta) points at which the compiled combined bound must equal the
# pure-Python one: the fine grid's ends, and a point where the bound is 0.
KERNEL_POINTS = ((1.0 - 1e-12, 0.01), (1.0, 0.045), (0.97, 0.045))


def kernel_cases():
    """(label, compiled, pure) values of the combined bound, for the check
    that the compiled kernels reproduce the pure-Python fallback."""
    bound, cfg = eatcert.bound, eatcert.eat.RATE_BOUND_CONFIG
    return [
        (
            f"entropy_bound_combined({omega!r}, {beta!r})",
            bound.entropy_bound_combined(omega, beta, cfg),
            bound._entropy_bound_combined_pure(omega, beta, cfg),
        )
        for omega, beta in KERNEL_POINTS
    ]


def program_device(spec):
    """The program's device object for one of the benchmark's device specs."""
    blocks = tuple(
        eatcert.devices.DeviceBlock(b["weight"], b["angle"], checks.block_state(b)) for b in spec["blocks"]
    )
    return eatcert.devices.QubitBlockDevice(blocks, spec["junk_weight"], spec["junk_equation_win"])


def main():
    plan_path, seconds, trace, t0, trace_out = sys.argv[1:6]
    extra = sys.argv[6] if len(sys.argv) > 6 else ""
    setup_samples = [hostclock.calibrated_setup(SETUP_DONE - float(t0))]
    setup_samples += [float(x) for x in extra.split(",") if x]
    seconds, trace = float(seconds), trace == "1"
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    requests = plan["requests"]
    tracer = Tracer() if trace else None

    # Closed loop: whole batches, one request at a time.  In a traced run the
    # batches alternate untraced/traced so the overhead is measured in-process.
    # Untraced batches run under the host clock; traced ones do not, so the
    # calibration stays out of the spans.
    clock = hostclock.HostClock()
    plain_times, speeds, traced_times, fingerprints, nondeterministic = [], [], [], None, False
    started = time.perf_counter()
    while True:
        traced = trace and len(plain_times) > len(traced_times)
        if traced:
            tracer.install()
        try:
            with contextlib.nullcontext() if traced else clock:
                timed = [run_request(req, None if traced else clock) for req in requests]
        finally:
            if traced:
                tracer.uninstall()
        (traced_times if traced else plain_times).append(sum(t for t, _ in timed))
        if not traced:
            speeds.append(hostclock.speed_factor(clock.samples))
        results = [res for _, res in timed]
        prints = [fingerprint(req, res) for req, res in zip(requests, results)]
        if fingerprints is None:
            fingerprints = prints
        nondeterministic |= prints != fingerprints
        done = len(plain_times) + len(traced_times)
        if time.perf_counter() - started >= seconds and (not trace or traced_times):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    faults, errors = check_outputs(plan, results)
    if nondeterministic:
        errors.append("batches of identical requests gave different outputs")
    failed_per_batch = sum(1 for f in faults if f)
    for req, found in zip(requests, faults):
        for fault in found:
            print(f"failed: {' '.join(req['argv'][:5])}: {fault}")
    for error in errors:
        print(f"INCORRECT: {error}")
    audits = [res["audit"] for res in results if "audit" in res]
    backend = "compiled" if eatcert.USING_COMPILED_KERNELS else "pure-python"
    print(
        f"perfbench: workload={plan['workload']} seed={plan['seed']} backend={backend}"
        f" batches={done} batch_s={[round(t, 3) for t in plain_times]}"
        f" host_speed={[round(v, 3) for v in speeds]}"
        + (f" setup_s={[round(t, 3) for t in setup_samples]}" if not trace else "")
        + (f" traced_batch_s={[round(t, 3) for t in traced_times]}" if trace else "")
        + (f" markov_audit_passed={sum(audits)}/{len(audits)}" if audits else "")
    )

    if trace:
        tracer.write(trace_out)
        for target in tracer.missing:
            print(f"trace: {target} not found; its spans are missing")
        values = tracer.per_layer(len(traced_times))
        values["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(plain_times)
        metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "run_s": {"value": statistics.median(t * v for t, v in zip(plain_times, speeds)), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": done * len(requests),
                "failed": done * failed_per_batch,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
