"""An instrumented end-to-end mini-run for the telemetry CLI.

Drives the real stack — a control plane on a tiered pool, leases and
expiry, a KV store served over the RPC data plane — with telemetry
enabled, so ``python -m repro telemetry metrics`` has live counters,
histograms, and a span tree to show. The same harness backs the
telemetry integration test: it must produce several distinct latency
histograms and a trace in which client-side RPC spans parent the
server-side ones.

The control plane is built through
:func:`~repro.core.plane.make_control_plane`, so the demo runs against
any backend: ``--backend sharded`` shows one registry aggregating every
shard's counters (all shards share the registry), and
``--backend remote`` adds the control-plane RPC client/server metrics
to the dump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.blocks.tiered import TieredMemoryPool
from repro.config import KB, JiffyConfig
from repro.core.client import connect
from repro.core.plane import ControlPlane, make_control_plane
from repro.rpc.dataplane import RemoteKV, serve_kv
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracer import Tracer


@dataclass
class DemoResult:
    registry: MetricsRegistry
    tracer: Tracer
    controller: ControlPlane
    keys_written: int


def _tiered_pool(dram_blocks: int, server_id: Optional[str] = None) -> TieredMemoryPool:
    pool = TieredMemoryPool(block_size=4 * KB, spill_server_blocks=64)
    if server_id is None:
        pool.add_server(num_blocks=dram_blocks)
    else:
        pool.add_server(num_blocks=dram_blocks, server_id=server_id)
    return pool


def run(
    quick: bool = False,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    trace_path: Optional[str] = None,
    backend: str = "local",
) -> DemoResult:
    """Run the instrumented workload; returns the populated telemetry.

    The workload exercises every instrumented layer: RPC puts/gets
    (client + server spans and latency histograms), KV hash-slot splits,
    file appends, tiered-pool spills, lease renewals, and an expiry
    sweep that flushes a prefix to the external store. ``backend``
    selects the control-plane backend (``local``/``sharded``/``remote``).
    """
    registry = registry if registry is not None else MetricsRegistry()
    tracer = tracer if tracer is not None else Tracer()
    if trace_path is not None:
        tracer.configure_output(trace_path)

    clock = SimClock()
    loop = EventLoop(clock)
    config = JiffyConfig(block_size=4 * KB, lease_duration=30.0)
    # Tiny DRAM tier: some blocks spill.
    if backend == "sharded":
        controller = make_control_plane(
            "sharded",
            config=config,
            clock=clock,
            num_shards=2,
            registry=registry,
            pool_factory=lambda i, cfg: _tiered_pool(
                2, server_id=f"shard{i}/server-0"
            ),
        )
    else:
        controller = make_control_plane(
            backend,
            config=config,
            clock=clock,
            pool=_tiered_pool(2),
            registry=registry,
            loop=loop,
        )

    client = connect(controller, "demo-job")
    client.create_addr_prefix("shuffle")
    kv = client.init_data_structure("shuffle", "kv_store")
    client.create_addr_prefix("logs", parent="shuffle")
    logs = client.init_data_structure("logs", "file")

    server = serve_kv(kv, loop, registry=registry, tracer=tracer)
    remote = RemoteKV(loop, server, registry=registry, tracer=tracer)

    num_keys = 48 if quick else 192
    with tracer.span("demo.workload", job="demo-job", keys=num_keys):
        for i in range(num_keys):
            remote.put(f"key-{i:04d}".encode(), b"v" * 64)
            if i % 16 == 0:
                client.renew_lease("shuffle")
        for i in range(num_keys):
            remote.get(f"key-{i:04d}".encode())
        logs.append(b"demo log line\n" * 32)

    # Let the leases lapse and run an expiry sweep: the control plane
    # flushes both prefixes to the external store and reclaims blocks.
    clock.advance(config.lease_duration * 2)
    controller.tick()

    return DemoResult(
        registry=registry,
        tracer=tracer,
        controller=controller,
        keys_written=num_keys,
    )
