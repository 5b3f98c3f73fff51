#!/usr/bin/env python3
"""Compare two sets of runs, one row per workload x end-to-end metric.

    python3 benchmarks/e2e/run.py --seed 1 --runs 5 --out A.json   # baseline
    python3 benchmarks/e2e/run.py --seed 1 --runs 5 --out B.json   # change
    python3 benchmarks/e2e/compare.py A.json B.json

Each side's value is the median of its runs. A row is a REGRESSION when
the new median is worse than the base by more than the metric's bound
(``BENCHMARK.json`` where it lists the metric, ``harness.E2E_METRICS``
otherwise), and "unresolved" when either side's own spread (inter-quartile
distance over median) is wider than the bound: then the runs cannot tell.
A sim-clock or count metric that moved at all is marked "changed": for a
seed it repeats bit-for-bit, so any movement is a change of behaviour to
be explained, not noise. Exit code 1 if any row is a REGRESSION.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import E2E_METRICS, WORKLOADS, load_benchmark_json, spread  # noqa: E402


def bounds() -> Dict[str, float]:
    out = {m.name: m.bound for m in E2E_METRICS}
    doc = load_benchmark_json()
    if doc is not None:
        out.update({m["name"]: m["bound"] for m in doc["end_to_end"]})
    return out


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``{(workload, metric): [value per run]}`` of a ``run.py --out`` file."""
    with open(path) as fh:
        doc = json.load(fh)
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in doc["runs"]:
        if run["trace"]:
            continue  # the ledger has no bounds; read it, do not gate on it
        for name, m in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(m["value"])
    return values


def compare(base: Dict[Tuple[str, str], List[float]],
            new: Dict[Tuple[str, str], List[float]]) -> List[Dict[str, Any]]:
    limit = bounds()
    rows = []
    for spec in E2E_METRICS:
        for workload in WORKLOADS:
            key = (workload, spec.name)
            if key not in base and key not in new:
                continue
            row: Dict[str, Any] = {"workload": workload, "metric": spec.name,
                                   "bound": limit[spec.name]}
            rows.append(row)
            if key not in base or key not in new:
                row["verdict"] = "missing in " + ("base" if key not in base else "new")
                continue
            a, b = statistics.median(base[key]), statistics.median(new[key])
            worse = (b - a) if spec.better == "lower" else (a - b)
            row.update(
                base=a, new=b,
                ratio=b / a if a else float("inf") if b else 1.0,
                spread=max(spread(base[key]), spread(new[key])),
            )
            if row["spread"] > row["bound"] and spec.clock == "wall":
                row["verdict"] = "unresolved"
            elif worse > abs(a) * row["bound"]:
                row["verdict"] = "REGRESSION"
            elif spec.clock != "wall" and a != b:
                row["verdict"] = "changed"
            else:
                row["verdict"] = "ok"
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows = compare(load(argv[0]), load(argv[1]))
    line = "{:<14} {:<16} {:>13} {:>13} {:>18} {:>7} {:>7}  {}"
    print(line.format("workload", "metric", "base", "new", "new/base", "spread", "bound", "verdict"))
    for row in rows:
        if "base" not in row:
            print(line.format(row["workload"], row["metric"], "-", "-", "-", "-",
                              f"{row['bound']:.0%}", row["verdict"]))
            continue
        print(line.format(
            row["workload"], row["metric"], f"{row['base']:.6g}", f"{row['new']:.6g}",
            f"{row['ratio']:.4f} of {row['base']:.4g}", f"{row['spread']:.1%}",
            f"{row['bound']:.0%}", row["verdict"],
        ))
    tally: Dict[str, int] = {}
    for row in rows:
        tally[row["verdict"]] = tally.get(row["verdict"], 0) + 1
    print(", ".join(f"{count} {verdict}" for verdict, count in sorted(tally.items())))
    return 1 if tally.get("REGRESSION") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
