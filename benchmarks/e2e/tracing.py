"""The per-layer ledger: spans recorded from outside the program.

Every layer is measured by wrapping the public functions ("seams") listed
in :data:`SEAMS` on their class or module, looked up by dotted name when
the traced run starts. A seam a later refactor renames or removes is
reported as missing for its layer; nothing else breaks, and the untraced
run never imports this module.

A span is ``(seam, start_ns, end_ns, parent)``. Spans nest on one call
stack (the benchmark has one thread); a layer's self time is its spans'
duration minus the part their child spans cover, corrected by the
calibrated cost of the wrapper itself.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from typing import Any, Callable, Dict, List, Tuple

from harness import LAYER_COUNTS, LAYERS, OUT_DIR, OUTSIDE_REGISTRY, percentile

now_ns = time.perf_counter_ns

#: Raw spans kept in memory and written out when the run ends.
MAX_RAW_SPANS = 200_000

#: Seams whose every duration is kept (for percentiles), not just the sum.
TICK = "JiffyController.tick"
KEEP_DURATIONS = (TICK,)

_DS = "repro.datastructures."
_RPC_OPS_KV = "get put delete exists multi_get multi_put multi_delete"
_RPC_OPS_QUEUE = "enqueue dequeue enqueue_batch dequeue_batch"

#: layer -> [(module, "Class.method method ..." | "function"), ...].
#: Module-level functions imported by name must be patched where they
#: were imported to, so ``rpc.framing`` lists the importing modules.
SEAMS: Dict[str, List[Tuple[str, str]]] = {
    "datastructures.kvstore": [
        (_DS + "kvstore", "JiffyKVStore.get put delete multi_get multi_put"),
    ],
    "datastructures.cuckoo": [(_DS + "cuckoo", "CuckooHashTable.get put delete items")],
    "sim.background": [("repro.sim.background", "BackgroundScheduler.submit poll drain")],
    "datastructures.file": [(_DS + "file", "JiffyFile.append read_at")],
    "datastructures.queue": [
        (_DS + "queue", "JiffyQueue.enqueue dequeue enqueue_batch dequeue_batch"),
    ],
    "blocks.pool": [
        ("repro.blocks.pool", "MemoryPool.allocate reclaim get_block"),
        ("repro.blocks.tiered", "TieredMemoryPool.allocate reclaim allocate_on access_latency"),
    ],
    "blocks.adaptive": [("repro.blocks.adaptive", "AdaptiveTierManager.maybe_scan scan")],
    "core.controller": [
        (
            "repro.core.controller",
            "JiffyController.allocate_block try_allocate_block reclaim_block "
            "reclaim_blocks get_block create_addr_prefix register_datastructure "
            "renew_leases tick flush_prefix",
        ),
    ],
    "core.lease": [("repro.core.lease", "LeaseManager.renew collect_expired due")],
    "core.allocator": [
        ("repro.core.allocator", "BlockAllocator.allocate try_allocate reclaim reclaim_all"),
    ],
    "core.hierarchy": [("repro.core.hierarchy", "AddressHierarchy.add_node get_node resolve")],
    "core.client": [
        ("repro.core.client", "JiffyClient.create_addr_prefix init_data_structure renew_leases"),
    ],
    "storage.external": [("repro.storage.external", "ExternalStore.put get")],
    "core.cache": [
        ("repro.core.cache", "CachedKV.get put multi_get flush"),
        ("repro.core.cache", "ClientCache.get put invalidate_slots invalidate_namespace"),
    ],
    "core.notifications": [
        ("repro.core.notifications", "NotificationBroker.publish"),
        ("repro.core.notifications", "Listener.get_all"),
    ],
    "rpc.dataplane": [
        ("repro.rpc.dataplane", "RemoteKV." + _RPC_OPS_KV),
        ("repro.rpc.dataplane", "RemoteQueue." + _RPC_OPS_QUEUE),
    ],
    "rpc.client": [("repro.rpc.client", "RpcClient.call pipeline")],
    "rpc.framing": [
        ("repro.rpc.client", "encode_message"),
        ("repro.rpc.client", "decode_message"),
        ("repro.rpc.server", "encode_message"),
        ("repro.rpc.server", "decode_message"),
    ],
    "rpc.server": [("repro.rpc.server", "RpcServer.deliver")],
    "rpc.remote": [
        (
            "repro.rpc.remote",
            "RemoteControlPlane.renew_leases allocate_block try_allocate_block "
            "register_datastructure update_metadata",
        ),
    ],
    "sim.events": [("repro.sim.events", "CalendarQueue.schedule_at step run")],
}

#: The event kernel runs other layers' callbacks. ``schedule_at`` names
#: every event, and the prefix says whose work the callback is; without
#: this the RPC server's request execution would count as kernel time.
EVENT_OWNERS: Tuple[Tuple[str, str, str], ...] = (
    ("rpc:", "rpc.server", "execute"),
    ("send:", "rpc.client", "arrive"),
    ("deliver:", "rpc.client", "deliver"),
    ("bg:", "sim.background", "step_event"),
)


class SpanTracer:
    """Call-stack span recorder with online per-seam aggregation."""

    def __init__(self) -> None:
        self.on = False
        self.names: List[Tuple[str, str]] = []  # seam index -> (layer, name)
        self.calls: List[int] = []
        self.total_ns: List[int] = []
        self.child_ns: List[int] = []
        self.children: List[int] = []
        self.durations: Dict[str, List[int]] = {}  # seam name -> samples, if kept
        self.stack: List[List[int]] = []  # frames: [child_ns, children, span id]
        self.raw: List[Tuple[int, int, int, int, int]] = []
        self.spans = 0
        self.missing: Dict[str, List[str]] = {}
        self._undo: List[Tuple[Any, str, Any]] = []
        self.overhead_in_ns = 0.0
        self.overhead_out_ns = 0.0

    # -- wrapping ---------------------------------------------------------

    def seam(self, layer: str, name: str) -> int:
        self.names.append((layer, name))
        for column in (self.calls, self.total_ns, self.child_ns, self.children):
            column.append(0)
        if name in KEEP_DURATIONS:
            self.durations[name] = []
        return len(self.names) - 1

    def wrap(self, fn: Callable[..., Any], index: int, keep_name: bool = True) -> Callable[..., Any]:
        tracer = self
        stack = self.stack
        calls, total_ns = self.calls, self.total_ns
        child_ns, children = self.child_ns, self.children
        raw = self.raw
        kept = self.durations.get(self.names[index][1])

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.on:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            tracer.spans += 1
            frame = [0, 0, tracer.spans]
            stack.append(frame)
            start = now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now_ns()
                stack.pop()
                took = end - start
                calls[index] += 1
                total_ns[index] += took
                child_ns[index] += frame[0]
                children[index] += frame[1]
                if parent is not None:
                    parent[0] += took
                    parent[1] += 1
                if kept is not None:
                    kept.append(took)
                if len(raw) < MAX_RAW_SPANS:
                    raw.append(
                        (frame[2], index, start, end, parent[2] if parent is not None else 0)
                    )

        return functools.wraps(fn)(traced) if keep_name else traced

    def install(self) -> None:
        """Patch every seam in :data:`SEAMS`; record the ones not found."""
        for layer, targets in SEAMS.items():
            for module_name, spec in targets:
                owner_name, _, methods = spec.partition(".")
                try:
                    module = importlib.import_module(module_name)
                    owner = getattr(module, owner_name) if methods else module
                except (ImportError, AttributeError):
                    self.missing.setdefault(layer, []).append(f"{module_name}:{spec}")
                    continue
                for name in methods.split() if methods else [owner_name]:
                    label = f"{owner_name if methods else module_name.rpartition('.')[2]}.{name}"
                    original = getattr(owner, name, None)
                    if not callable(original):
                        self.missing.setdefault(layer, []).append(f"{module_name}:{label}")
                        continue
                    wrapped = self.wrap(original, self.seam(layer, label))
                    if label == "CalendarQueue.schedule_at":
                        wrapped = self._own_events(wrapped)
                    self._undo.append((owner, name, owner.__dict__.get(name, _ABSENT)))
                    setattr(owner, name, wrapped)

    def _own_events(self, schedule_at: Callable[..., Any]) -> Callable[..., Any]:
        """Make scheduled callbacks spans of the layer that owns them."""
        owners = [
            (prefix, self.seam(layer, name)) for prefix, layer, name in EVENT_OWNERS
        ]

        @functools.wraps(schedule_at)
        def schedule(loop: Any, when: float, action: Callable[[], None], name: str = "") -> Any:
            if self.on:
                for prefix, index in owners:
                    if name.startswith(prefix):
                        action = self.wrap(action, index, keep_name=False)
                        break
            return schedule_at(loop, when, action, name)

        return schedule

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            if original is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._undo.clear()

    # -- calibration --------------------------------------------------------

    def calibrate(self, rounds: int = 20_000) -> None:
        """Measure what one span costs: inside its own window
        (``overhead_in_ns``) and around it, in its caller (``overhead_out_ns``)."""

        def leaf() -> None:
            return None

        def loop(fn: Callable[[], None]) -> None:
            for _ in range(rounds):
                fn()

        probe = SpanTracer()
        probe.on = True
        traced_leaf = probe.wrap(leaf, probe.seam("harness", "leaf"))
        traced_loop = probe.wrap(loop, probe.seam("harness", "loop"))
        best_in = best_total = float("inf")
        for _ in range(5):
            begin = now_ns()
            loop(leaf)
            bare = now_ns() - begin
            before = probe.total_ns[0], probe.total_ns[1]
            traced_loop(traced_leaf)
            inside = probe.total_ns[0] - before[0]
            outer = probe.total_ns[1] - before[1]
            probe.raw.clear()
            best_in = min(best_in, inside / rounds)
            best_total = min(best_total, (outer - bare) / rounds)
        self.overhead_in_ns = max(best_in, 0.0)
        self.overhead_out_ns = max(best_total - best_in, 0.0)

    # -- the ledger -----------------------------------------------------------

    def ledger(self, wall_ns: int, ops: int) -> Dict[str, float]:
        """``<layer>.calls / .self_us_per_op / .self_share`` for every layer,
        plus the harness rows. Shares are of the traced timed wall net of
        the tracer's own calibrated cost."""
        per_span = self.overhead_in_ns + self.overhead_out_ns
        net_wall = max(wall_ns - self.spans * per_span, 1.0)
        self_ns = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        for index, (layer, _) in enumerate(self.names):
            own = (
                self.total_ns[index]
                - self.child_ns[index]
                - self.calls[index] * self.overhead_in_ns
                - self.children[index] * self.overhead_out_ns
            )
            self_ns[layer] += max(own, 0.0)
            calls[layer] += self.calls[index]
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_us_per_op"] = self_ns[layer] / 1e3 / ops
            out[f"{layer}.self_share"] = self_ns[layer] / net_wall
        out["harness.unattributed_share"] = 1.0 - sum(self_ns.values()) / net_wall
        out["harness.timer_overhead_ns"] = per_span
        return out

    def seam_rows(self) -> List[Dict[str, Any]]:
        return [
            {
                "layer": layer,
                "seam": name,
                "calls": self.calls[i],
                "total_us": self.total_ns[i] / 1e3,
                "child_us": self.child_ns[i] / 1e3,
            }
            for i, (layer, name) in enumerate(self.names)
            if self.calls[i]
        ]

    def dump(self, workload: str) -> str:
        """Write the seam table and the first raw spans; returns the path."""
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{workload}.json")
        origin = min((span[2] for span in self.raw), default=0)
        with open(path, "w") as fh:
            json.dump(
                {
                    "workload": workload,
                    "seams": [f"{layer}:{name}" for layer, name in self.names],
                    # parent 0 = called by the benchmark loop itself
                    "columns": ["span", "seam", "start_ns", "end_ns", "parent"],
                    "spans_recorded": self.spans,
                    "spans": [(n, i, s - origin, e - origin, p) for n, i, s, e, p in self.raw],
                },
                fh,
                separators=(",", ":"),
            )
        return path


_ABSENT = object()


def ledger_metrics(tracer: SpanTracer, wall_ns: int, ops: int, counters: Dict[str, int],
                   outside: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = tracer.ledger(wall_ns, ops)
    for names in LAYER_COUNTS.values():
        for name in names:
            source = outside if name in OUTSIDE_REGISTRY else counters
            out[name] = source.get(name, 0)
    ticks = sorted(tracer.durations.get(TICK, ()))
    out["core.controller.tick_p50_us"] = percentile(ticks, 0.50) / 1e3 if ticks else 0.0
    out["core.controller.tick_p95_us"] = percentile(ticks, 0.95) / 1e3 if ticks else 0.0
    out["core.lease.fanout"] = ratio(out["leases.renewals_applied"], out["leases.renewal_requests"])
    out["core.cache.hit_ratio"] = ratio(out["cache.hits"], out["cache.hits"] + out["cache.misses"])
    requests = out["rpc.client.requests"]
    out["rpc.framing.bytes_per_request"] = ratio(
        out["rpc.client.bytes_out"] + out["rpc.client.bytes_in"], requests
    )
    out["sim.events.events_per_rpc"] = ratio(out["sim.events.events_processed"], requests)
    return out
