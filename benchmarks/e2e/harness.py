"""Metric tables, statistics and failure accounting shared by the harness.

Nothing here imports ``repro``: the tables are data, and
:class:`Recorder` only stores what the workload loops hand it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
from array import array
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS: Tuple[str, ...] = (
    "kv_read",
    "kv_grow",
    "rpc_remote",
    "cache_zipf",
    "tenant_replay",
)

#: ``--seconds`` value at which the op counts in ``workloads.py`` apply
#: unscaled; it is also ``run_seconds`` in ``BENCHMARK.json``.
REFERENCE_SECONDS = 8

#: The traced pass runs the same generators at this fraction of the scale.
TRACE_SCALE = 0.25

#: How many times a run builds its stack; ``setup_s`` is the median. Cheap
#: set-ups repeat until they add up to SETUP_MIN_TOTAL_S (or hit the cap).
SETUP_REPEATS = 3
SETUP_MIN_TOTAL_S = 0.25
SETUP_MAX_REPEATS = 40

#: A p99 is only reported with at least this many samples.
P99_MIN_SAMPLES = 1000

ALL = WORKLOADS
REMOTE = ("rpc_remote", "cache_zipf")


class MetricSpec(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    clock: str  # "wall" | "sim" | "count"
    kind: str  # "measured" | "modelled" | "count"
    bound: float  # share of the baseline median it may worsen by
    workloads: Tuple[str, ...]


#: Every end-to-end metric the harness prints, with the regression bound
#: ``compare.py`` applies. The rows whose ``workloads`` is ``ALL`` (bar
#: ``error_rate``, which is 0 by construction) are the ones
#: ``BENCHMARK.json`` lists; ``test_e2e_harness.py`` keeps the two in step.
E2E_METRICS: Tuple[MetricSpec, ...] = (
    MetricSpec("setup_s", "s", "lower", "wall", "measured", 0.25, ALL),
    MetricSpec("ops_per_s", "1/s", "higher", "wall", "measured", 0.10, ALL),
    MetricSpec("read_p50_us", "us", "lower", "wall", "measured", 0.10, ALL),
    MetricSpec("read_p99_us", "us", "lower", "wall", "measured", 0.25, ALL),
    MetricSpec("write_p50_us", "us", "lower", "wall", "measured", 0.10, ALL),
    MetricSpec("write_p99_us", "us", "lower", "wall", "measured", 0.25, ALL),
    MetricSpec("peak_rss_mb", "MB", "lower", "wall", "measured", 0.20, ALL),
    MetricSpec("mem_utilization", "ratio", "higher", "sim", "modelled", 0.10, ALL),
    MetricSpec(
        "renew_p50_us", "us", "lower", "wall", "measured", 0.10,
        ("rpc_remote", "tenant_replay"),
    ),
    MetricSpec("error_rate", "ratio", "lower", "count", "count", 0.0, ALL),
    MetricSpec("sim_elapsed_s", "s", "lower", "sim", "modelled", 0.01, REMOTE),
    MetricSpec("rpcs_per_op", "ratio", "lower", "count", "count", 0.01, REMOTE),
    MetricSpec(
        "sim_read_p99_us", "us", "lower", "sim", "modelled", 0.01, ("tenant_replay",)
    ),
    MetricSpec(
        "job_slowdown", "ratio", "lower", "sim", "modelled", 0.01, ("tenant_replay",)
    ),
)

E2E_BY_NAME: Dict[str, MetricSpec] = {m.name: m for m in E2E_METRICS}


def driver_metrics() -> List[MetricSpec]:
    """The end-to-end metrics defined on every workload and never 0:
    the ones ``BENCHMARK.json`` can carry."""
    return [m for m in E2E_METRICS if m.workloads == ALL and m.name != "error_rate"]


# ----------------------------------------------------------------------
# The per-layer ledger's rows
# ----------------------------------------------------------------------

#: layer -> the counts reported beside its calls / self time. Registry
#: counters unless :data:`OUTSIDE_REGISTRY` says otherwise; all are
#: deltas over the timed section. ``tracing.SEAMS`` has the same keys.
LAYER_COUNTS: Dict[str, Tuple[str, ...]] = {
    "datastructures.kvstore": ("kv.splits", "kv.merges", "kv.force_room"),
    "datastructures.cuckoo": (),
    "sim.background": ("background.steps", "background.tasks_completed"),
    "datastructures.file": (),
    "datastructures.queue": ("queue.items_enqueued", "queue.items_dequeued"),
    "blocks.pool": ("pool.spill_allocations",),
    "blocks.adaptive": (
        "tier.scans", "tier.promotions", "tier.demotions", "tier.moved_bytes",
        "tier.thrash_aborts",
    ),
    "core.controller": (
        "controller.ops_handled", "controller.scale_up_signals",
        "controller.scale_down_signals", "controller.prefixes_expired", "controller.flushes",
    ),
    "core.lease": ("leases.renewal_requests", "leases.renewals_applied", "leases.expirations"),
    "core.allocator": (
        "allocator.allocations", "allocator.reclamations", "allocator.failed_allocations",
    ),
    "core.hierarchy": (),
    "core.client": (),
    "storage.external": ("storage.external.flushed_bytes",),
    "core.cache": (
        "cache.hits", "cache.misses", "cache.evictions", "cache.invalidations",
        "cache.writeback.flushes", "cache.writeback.folded", "cache.gap_clears",
    ),
    "core.notifications": ("notifications.dropped",),
    "rpc.dataplane": (),
    "rpc.client": ("rpc.client.requests", "rpc.client.bytes_out", "rpc.client.bytes_in"),
    "rpc.framing": (),
    "rpc.server": ("rpc.server.requests", "rpc.server.errors"),
    "rpc.remote": (),
    "sim.events": ("sim.events.events_processed",),
}

LAYERS: Tuple[str, ...] = tuple(LAYER_COUNTS)

#: Counts the workload reads off its own objects (``extra_counts``).
OUTSIDE_REGISTRY = (
    "pool.spill_allocations", "storage.external.flushed_bytes", "sim.events.events_processed",
)

#: name -> (unit, better, clock): what is worked out from spans ("wall")
#: or from the counts above ("count").
DERIVED: Dict[str, Tuple[str, str, str]] = {
    "core.controller.tick_p50_us": ("us", "lower", "wall"),
    "core.controller.tick_p95_us": ("us", "lower", "wall"),
    "core.lease.fanout": ("ratio", "lower", "count"),
    "core.cache.hit_ratio": ("ratio", "higher", "count"),
    "rpc.framing.bytes_per_request": ("B", "lower", "count"),
    "sim.events.events_per_rpc": ("ratio", "lower", "count"),
    "harness.unattributed_share": ("ratio", "lower", "wall"),
    "harness.trace_overhead_ratio": ("ratio", "lower", "wall"),
    "harness.timer_overhead_ns": ("ns", "lower", "wall"),
}

_HIGHER_IS_BETTER = ("cache.hits", "cache.writeback.folded", "tier.promotions")

_KV = ("kv_read", "kv_grow")
_LOCAL = _KV + ("tenant_replay",)
_NOT_TENANT = _KV + REMOTE

#: Predictions the ledger is checked against (README, "Which workload
#: bypasses which layer"): on these workloads the layer's ``calls`` must
#: be 0 in the timed section ...
BYPASSED: Dict[str, Tuple[str, ...]] = {
    "datastructures.kvstore": ("tenant_replay",),
    "datastructures.cuckoo": ("tenant_replay",),
    "datastructures.file": _NOT_TENANT,
    "datastructures.queue": _KV + ("cache_zipf",),
    "blocks.adaptive": _NOT_TENANT,
    "core.lease": _KV + ("cache_zipf",),
    "core.allocator": ("kv_read",),
    "core.client": ("kv_read",),
    "storage.external": _NOT_TENANT,
    "core.cache": _LOCAL + ("rpc_remote",),
    "rpc.dataplane": _LOCAL,
    "rpc.client": _LOCAL,
    "rpc.framing": _LOCAL,
    "rpc.server": _LOCAL,
    "rpc.remote": _LOCAL,
    "sim.events": _LOCAL,
}

#: ... and on these its ``self_share`` must stay at or below LITTLE_SHARE.
LITTLE: Dict[str, Tuple[str, ...]] = {
    "sim.background": ("kv_read",),
    "datastructures.queue": ("rpc_remote",),
    "blocks.pool": REMOTE,
    "core.controller": REMOTE,
    "core.hierarchy": _KV,
    "core.notifications": ("rpc_remote",),
}
LITTLE_SHARE = 0.10
UNATTRIBUTED_SHARE = 0.10


def broken_predictions(workload: str, values: Dict[str, float]) -> List[str]:
    """The predictions above that one traced run's ledger contradicts."""
    out = []
    for layer, where in BYPASSED.items():
        if workload in where and values[f"{layer}.calls"]:
            out.append(f"{layer}.calls = {values[f'{layer}.calls']:g}, predicted bypassed")
    for layer, where in LITTLE.items():
        share = values[f"{layer}.self_share"]
        if workload in where and share > LITTLE_SHARE:
            out.append(f"{layer}.self_share = {share:.3f}, predicted <= {LITTLE_SHARE}")
    share = values["harness.unattributed_share"]
    if share > UNATTRIBUTED_SHARE:
        out.append(f"harness.unattributed_share = {share:.3f}, wanted <= {UNATTRIBUTED_SHARE}")
    return out


def per_layer_metrics() -> List[Tuple[str, str, str, str]]:
    """Every per-layer metric as ``(name, unit, better, clock)``, in ledger
    order; ``clock`` is "wall" for what spans measure, "count" otherwise."""
    rows: List[Tuple[str, str, str, str]] = []
    for layer, counts in LAYER_COUNTS.items():
        rows.append((f"{layer}.calls", "count", "lower", "count"))
        rows.append((f"{layer}.self_us_per_op", "us", "lower", "wall"))
        rows.append((f"{layer}.self_share", "ratio", "lower", "wall"))
        for name in counts:
            unit = "B" if "bytes" in name else "count"
            better = "higher" if name in _HIGHER_IS_BETTER else "lower"
            rows.append((name, unit, better, "count"))
    rows.extend((name, *spec) for name, spec in DERIVED.items())
    return rows


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not len(sorted_values):
        raise ValueError("percentile of no samples")
    rank = max(math.ceil(q * len(sorted_values)) - 1, 0)
    return float(sorted_values[min(rank, len(sorted_values) - 1)])


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if q1 == q3:
        return 0.0
    return abs(q3 - q1) / abs(med) if med else float("inf")


def digest(parts: Iterable[bytes]) -> str:
    h = hashlib.blake2b(digest_size=12)
    for part in parts:
        h.update(part)
    return h.hexdigest()


# ----------------------------------------------------------------------
# Per-run recording
# ----------------------------------------------------------------------


class Recorder:
    """Latency samples, mem-utilisation samples and the failure ledger
    of one timed section."""

    MAX_FAILURE_NOTES = 8

    def __init__(self) -> None:
        self.lat_ns: Dict[str, array] = {
            "read": array("q"),
            "write": array("q"),
            "renew": array("q"),
        }
        self.util: List[float] = []
        self.ops = 0  # logical client calls in the timed section
        self.busy_ns = 0  # wall time of the timed section (loops only)
        self.attempted = 0  # timed + untimed ops + final-state checks
        self.failed = 0
        self.notes: List[str] = []

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < self.MAX_FAILURE_NOTES:
            self.notes.append(what)

    def check(self, ok: bool, what: str) -> None:
        """One final-state (or batch) check: an attempt, maybe a failure."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def latency_metrics(self) -> Dict[str, Tuple[float, int]]:
        """``{metric: (value_us, samples)}`` for the p50/p99 rows."""
        out: Dict[str, Tuple[float, int]] = {}
        for cls, samples in self.lat_ns.items():
            if not samples:
                continue
            ordered = np.sort(np.frombuffer(samples, dtype=np.int64))
            n = len(ordered)
            out[f"{cls}_p50_us"] = (percentile(ordered, 0.50) / 1e3, n)
            if cls != "renew" and n >= P99_MIN_SAMPLES:
                out[f"{cls}_p99_us"] = (percentile(ordered, 0.99) / 1e3, n)
        return out


def sum_counters(counters: Dict[str, int]) -> Dict[str, int]:
    """Registry counters by bare name. A name that has an unlabelled
    series keeps it (its labelled series are per-tenant copies of the
    same events); otherwise the labelled series are summed."""
    out = {key: int(value) for key, value in counters.items() if "{" not in key}
    summed: Dict[str, int] = {}
    for key, value in counters.items():
        name = key.partition("{")[0]
        if "{" in key and name not in out:
            summed[name] = summed.get(name, 0) + int(value)
    out.update(summed)
    return out


def counter_delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in sorted(after.items())}


def metric(value: float, unit: str, clock: str, kind: str, samples: int) -> Dict[str, Any]:
    return {
        "value": value,
        "unit": unit,
        "clock": clock,
        "kind": kind,
        "samples": samples,
    }


def load_benchmark_json() -> Optional[Dict[str, Any]]:
    path = os.path.join(REPO_ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)
