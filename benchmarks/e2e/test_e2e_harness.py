"""Self-test of the benchmark harness (not of the program).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q      # < 30 s

Runs every workload at scale 0.01 through the same parent/child path the
driver uses, and checks what the harness promises: a seed fixes every
sim-clock and count number, another seed gives another op trace, the
output follows the schema, each metric appears on the workloads it is
defined for and on no other, and ``BENCHMARK.json`` agrees with the
tables in ``harness.py``.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SCALE = 0.01
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _args(seed: int) -> argparse.Namespace:
    return run.parse_args(["--seed", str(seed), "--scale", str(SCALE)])


def _run_all(seed: int, trace: int = 0):
    return {name: run.spawn(name, _args(seed), trace) for name in harness.WORKLOADS}


@pytest.fixture(scope="module")
def first():
    return _run_all(3)


@pytest.fixture(scope="module")
def again():
    return _run_all(3)


@pytest.fixture(scope="module")
def traced():
    return _run_all(3, trace=1)


def test_no_operation_fails(first, traced):
    for doc in list(first.values()) + list(traced.values()):
        assert doc["failed"] == 0, doc["failures"]
        assert doc["attempted"] >= doc["ops"] >= 1
        assert doc["metrics"].get("error_rate", {"value": 0})["value"] == 0


def test_same_seed_repeats_every_sim_and_count_number(first, again):
    for name in harness.WORKLOADS:
        a, b = first[name], again[name]
        assert a["op_trace_digest"] == b["op_trace_digest"]
        assert a["counters"] == b["counters"]
        assert a["ops"] == b["ops"] and a["attempted"] == b["attempted"]
        for metric, m in a["metrics"].items():
            if m["clock"] != "wall":
                assert m == b["metrics"][metric], (name, metric)


def test_another_seed_gives_another_op_trace(first):
    import workloads  # needs PYTHONPATH=src

    def digest_of(name, seed):
        workload = workloads.BY_NAME[name](seed, SCALE)
        workload.setup()  # tenant_replay draws its trace here
        return workload.op_trace_digest()

    for name in harness.WORKLOADS:
        assert digest_of(name, 3) == first[name]["op_trace_digest"]
        assert digest_of(name, 4) != first[name]["op_trace_digest"]


def test_output_schema(first, traced):
    for doc in list(first.values()) + list(traced.values()):
        assert doc["metrics"]
        for name, m in doc["metrics"].items():
            assert NAME.match(name), name
            assert UNIT.match(m["unit"]), (name, m["unit"])
            assert m["clock"] in ("wall", "sim", "count")
            assert m["kind"] in ("measured", "modelled", "count")
            assert isinstance(m["samples"], int) and m["samples"] >= 1
            assert isinstance(m["value"], (int, float))


def test_each_metric_on_its_workloads_and_no_other(first):
    for name, doc in first.items():
        wanted = {m.name for m in harness.E2E_METRICS if name in m.workloads}
        got = set(doc["metrics"])
        assert got <= wanted, got - wanted
        # a p99 needs 1000 samples, which scale 0.01 does not always give
        for missing in wanted - got:
            assert missing.endswith("_p99_us"), missing
            p50 = doc["metrics"].get(missing.replace("sim_read_p99", "read_p50").replace("p99", "p50"))
            assert p50 is None or p50["samples"] < harness.P99_MIN_SAMPLES
        for metric in got:
            spec = harness.E2E_BY_NAME[metric]
            m = doc["metrics"][metric]
            assert (m["unit"], m["clock"], m["kind"]) == (spec.unit, spec.clock, spec.kind)


def test_traced_run_emits_the_whole_ledger(traced):
    names = [row[0] for row in harness.per_layer_metrics()]
    assert len(names) == len(set(names)) <= 128
    for workload, doc in traced.items():
        assert list(doc["metrics"]) == names
        assert doc["missing_seams"] == {}
        assert os.path.exists(os.path.join(harness.REPO_ROOT, doc["trace_file"]))
        values = {name: m["value"] for name, m in doc["metrics"].items()}
        bypass_only = [
            line for line in harness.broken_predictions(workload, values) if "bypassed" in line
        ]
        assert bypass_only == []  # shares are only meaningful at full scale
        assert values["harness.trace_overhead_ratio"] > 0
        assert values["harness.timer_overhead_ns"] > 0


def test_every_layer_is_exercised_somewhere(traced):
    for layer in harness.LAYERS:
        assert any(doc["metrics"][f"{layer}.calls"]["value"] > 0 for doc in traced.values()), layer


def test_seam_table_covers_the_ledger_layers():
    assert tuple(tracing.SEAMS) == harness.LAYERS
    assert set(harness.BYPASSED) | set(harness.LITTLE) <= set(harness.LAYERS)


def test_a_missing_seam_is_reported_not_fatal(monkeypatch):
    monkeypatch.setitem(tracing.SEAMS, "core.lease", [("repro.core.lease", "LeaseManager.gone")])
    monkeypatch.setitem(tracing.SEAMS, "rpc.server", [("repro.rpc.nowhere", "RpcServer.deliver")])
    sys.path.insert(0, run.SRC)
    tracer = tracing.SpanTracer()
    try:
        tracer.install()
        assert tracer.missing == {
            "core.lease": ["repro.core.lease:LeaseManager.gone"],
            "rpc.server": ["repro.rpc.nowhere:RpcServer.deliver"],
        }
    finally:
        tracer.uninstall()
        sys.path.remove(run.SRC)
    from repro.core.lease import LeaseManager

    assert not hasattr(LeaseManager.renew, "__wrapped__")  # uninstall put it back


def test_benchmark_json_agrees_with_the_tables():
    doc = harness.load_benchmark_json()
    assert doc is not None, "BENCHMARK.json is missing"
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert doc["paths"] == ["benchmarks/e2e"]
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert doc["run_seconds"] == harness.REFERENCE_SECONDS
    assert [w["name"] for w in doc["workloads"]] == list(harness.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in harness.driver_metrics()
    ]
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])
    assert max(m["bound"] for m in doc["end_to_end"]) <= 0.25
    assert doc["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _ in harness.per_layer_metrics()
    ]


def test_driver_line_has_exactly_the_contract_keys(capfd):
    code = run.main(["--workload", "kv_grow", "--seed", "5", "--scale", str(SCALE), "--trace", "0"])
    last = capfd.readouterr().out.strip().splitlines()[-1]
    import json

    line = json.loads(last)
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) <= {m.name for m in harness.driver_metrics()}
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_compare_verdicts():
    def side(ops, util=0.5, jitter=0.0):
        return {
            ("kv_read", "ops_per_s"): [ops * (1 - jitter), ops, ops * (1 + jitter)],
            ("kv_read", "mem_utilization"): [util] * 3,
            ("kv_read", "error_rate"): [0.0] * 3,
        }

    def verdicts(base, new):
        return {row["metric"]: row["verdict"] for row in compare.compare(base, new)}

    assert set(verdicts(side(100.0), side(100.0)).values()) == {"ok"}
    assert verdicts(side(100.0), side(80.0))["ops_per_s"] == "REGRESSION"
    assert verdicts(side(100.0), side(125.0))["ops_per_s"] == "ok"
    assert verdicts(side(100.0, jitter=0.3), side(80.0))["ops_per_s"] == "unresolved"
    assert verdicts(side(100.0), side(100.0, util=0.499))["mem_utilization"] == "changed"
    assert verdicts(side(100.0), side(100.0, util=0.4))["mem_utilization"] == "REGRESSION"
    bad = side(100.0)
    bad[("kv_read", "error_rate")] = [0.0, 0.01, 0.01]
    assert verdicts(side(100.0), bad)["error_rate"] == "REGRESSION"
