#!/usr/bin/env python3
"""Wall-clock benchmark of the whole stack: five workloads, one command.

    python3 benchmarks/e2e/run.py --seed 1                # all five, table
    python3 benchmarks/e2e/run.py --seed 1 --trace        # + per-layer ledger
    python3 benchmarks/e2e/run.py --smoke                 # all five, scale 0.02
    python3 benchmarks/e2e/run.py --runs 5 --out A.json   # a set for compare.py
    python3 benchmarks/e2e/run.py --workload kv_read --seed 1 --seconds 8 --trace 0

The last form is what ``BENCHMARK.json`` names: it prints, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Every workload runs in an interpreter of its own (``PYTHONHASHSEED=0``,
GC on); this file is both the parent that starts them and, with
``--child``, the process that runs one.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
from harness import (  # noqa: E402
    E2E_BY_NAME,
    REFERENCE_SECONDS,
    REPO_ROOT,
    SETUP_MAX_REPEATS,
    SETUP_MIN_TOTAL_S,
    SETUP_REPEATS,
    TRACE_SCALE,
    WORKLOADS,
    Recorder,
    counter_delta,
    metric,
    sum_counters,
)

SRC = os.path.join(REPO_ROOT, "src")
SMOKE_SCALE = 0.02
CHILD_TIMEOUT_S = 170


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all five)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--seconds", type=float, default=REFERENCE_SECONDS,
        help="time budget the fixed op counts are sized for (they scale with it)",
    )
    p.add_argument("--scale", type=float, default=1.0, help="multiplies every op count")
    p.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help=f"traced run at {TRACE_SCALE}x the scale: the per-layer ledger",
    )
    p.add_argument("--smoke", action="store_true", help=f"all five at scale {SMOKE_SCALE}")
    p.add_argument("--runs", type=int, default=1, help="repeat every workload (for compare.py)")
    p.add_argument("--out", help="write the full result document here (JSON)")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0 or args.scale <= 0 or args.runs < 1:
        p.error("--seconds, --scale and --runs must be positive")
    if args.smoke:
        args.scale = SMOKE_SCALE
    return args


# ----------------------------------------------------------------------
# Child: one workload in this interpreter
# ----------------------------------------------------------------------


def _timed_pass(workload: Any, inputs: Dict[str, Any], setups: int,
                hook: Any = None) -> Dict[str, Any]:
    """Set up at least ``setups`` times, run once, verify; returns the raw
    numbers. A set-up of a few milliseconds is repeated more often, so that
    its median is as steady as that of one that takes seconds. ``inputs``
    is the workload as its constructor left it: going back to it drops the
    previous stack, so that two stacks never count in ``peak_rss_mb``."""
    setup_s: List[float] = []
    while len(setup_s) < setups or (
        setups > 1 and sum(setup_s) < SETUP_MIN_TOTAL_S and len(setup_s) < SETUP_MAX_REPEATS
    ):
        vars(workload).clear()
        vars(workload).update(inputs)
        gc.collect()
        begin = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - begin)
    if hook is not None:
        workload.timed_hook = hook
    rec = Recorder()
    workload.run(rec)
    # before verification and percentiles allocate on the harness's behalf
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.verify(rec)
    counters = counter_delta(
        sum_counters(workload.counters_end), sum_counters(workload.counters_begin)
    )
    return {"rec": rec, "setup_s": setup_s, "counters": counters, "peak_rss_mb": peak_rss_mb}


def _end_to_end(workload: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    rec: Recorder = result["rec"]
    out: Dict[str, Any] = {}

    def put(name: str, value: float, samples: int) -> None:
        m = E2E_BY_NAME[name]
        out[name] = metric(value, m.unit, m.clock, m.kind, samples)

    put("setup_s", statistics.median(result["setup_s"]), len(result["setup_s"]))
    put("ops_per_s", rec.ops / (rec.busy_ns / 1e9), rec.ops)
    for name, (value, samples) in rec.latency_metrics().items():
        put(name, value, samples)
    put("peak_rss_mb", result["peak_rss_mb"], 1)
    put("error_rate", rec.failed / max(rec.attempted, 1), rec.attempted)
    put("mem_utilization", statistics.fmean(rec.util), len(rec.util))
    for name, (value, samples) in workload.extra.items():
        put(name, value, samples)
    return out


def _per_layer(workload: Any, tracer: Any, traced: Dict[str, Any],
               untraced: Dict[str, Any]) -> Dict[str, Any]:
    from tracing import ledger_metrics

    rec: Recorder = traced["rec"]
    values = ledger_metrics(
        tracer, rec.busy_ns, rec.ops, traced["counters"], workload.extra_counts()
    )
    base: Recorder = untraced["rec"]
    values["harness.trace_overhead_ratio"] = (rec.busy_ns / rec.ops) / (base.busy_ns / base.ops)
    return {
        name: metric(
            values[name], unit, clock, "measured" if clock == "wall" else "count", rec.ops
        )
        for name, unit, _, clock in harness.per_layer_metrics()
    }


def run_child(args: argparse.Namespace) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        print("run.py --child must be started with PYTHONHASHSEED=0", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    factor = args.scale * args.seconds / REFERENCE_SECONDS
    doc: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }
    if not args.trace:
        workload = workloads.BY_NAME[args.workload](args.seed, factor)
        result = _timed_pass(workload, dict(vars(workload)), SETUP_REPEATS)
        doc["metrics"] = _end_to_end(workload, result)
    else:
        # Untraced first, before a single wrapper is installed: its wall
        # time is the base of harness.trace_overhead_ratio.
        from tracing import SpanTracer

        factor *= TRACE_SCALE
        workload = workloads.BY_NAME[args.workload](args.seed, factor)
        inputs = dict(vars(workload))
        untraced = _timed_pass(workload, inputs, 1)
        tracer = SpanTracer()
        tracer.calibrate()
        tracer.install()

        def hook(on: bool) -> None:
            tracer.on = on

        try:
            result = _timed_pass(workload, inputs, 1, hook)
        finally:
            tracer.on = False
            tracer.uninstall()
        rec = result["rec"]
        # Tracing must not change what the program does.
        rec.check(
            result["counters"] == untraced["counters"],
            "registry counters differ between the traced and the untraced pass",
        )
        rec.failed += untraced["rec"].failed
        rec.attempted += untraced["rec"].attempted
        rec.notes += untraced["rec"].notes
        doc["metrics"] = _per_layer(workload, tracer, result, untraced)
        doc["missing_seams"] = tracer.missing
        doc["seams"] = tracer.seam_rows()
        doc["trace_file"] = os.path.relpath(tracer.dump(args.workload), REPO_ROOT)
    rec = result["rec"]
    doc.update(
        attempted=rec.attempted,
        failed=rec.failed,
        failures=rec.notes,
        ops=rec.ops,
        op_trace_digest=workload.op_trace_digest(),
        counters=result["counters"],
    )
    print(json.dumps(doc))
    return 0


# ----------------------------------------------------------------------
# Parent: one interpreter per workload
# ----------------------------------------------------------------------


def spawn(workload: str, args: argparse.Namespace, trace: int) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; returns its document."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--scale", repr(args.scale),
        "--trace", str(trace),
    ]
    # run() kills the child and waits for it if the timeout expires.
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def print_table(docs: List[Dict[str, Any]]) -> None:
    row = "{:<14} {:<40} {:>16} {:<6} {:<5} {:<9} {:>9}"
    print(row.format("workload", "metric", "value", "unit", "clock", "kind", "samples"))
    for doc in docs:
        for name, m in doc["metrics"].items():
            print(row.format(
                doc["workload"], name, f"{m['value']:.6g}", m["unit"], m["clock"],
                m["kind"], m["samples"],
            ))
        for layer, seams in sorted(doc.get("missing_seams", {}).items()):
            print(f"{doc['workload']:<14} {layer}: MISSING seams {', '.join(seams)}")
        if doc["trace"]:
            values = {name: m["value"] for name, m in doc["metrics"].items()}
            for line in harness.broken_predictions(doc["workload"], values):
                print(f"{doc['workload']:<14} PREDICTION {line}")
        for note in doc["failures"]:
            print(f"{doc['workload']:<14} FAILURE {note}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return run_child(args)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    docs: List[Dict[str, Any]] = []
    try:
        for name in names * args.runs:
            if args.workload:
                docs.append(spawn(name, args, args.trace))
            else:  # the one-command form: end-to-end always, ledger on --trace
                docs.append(spawn(name, args, 0))
                if args.trace:
                    docs.append(spawn(name, args, 1))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    print_table(docs)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"runs": docs}, fh, indent=1)
            fh.write("\n")
    attempted = sum(doc["attempted"] for doc in docs)
    failed = sum(doc["failed"] for doc in docs)
    if args.workload:
        # The contract line: plain {value, unit} per metric, only the
        # metrics BENCHMARK.json names for this mode.
        if args.trace:
            wanted = [row[0] for row in harness.per_layer_metrics()]
        else:
            wanted = [m.name for m in harness.driver_metrics()]
        metrics = {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in docs[0]["metrics"].items()
            if name in wanted
        }
        print(json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        ))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
