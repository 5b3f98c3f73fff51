"""Fig 12: controller throughput and multi-core scaling.

(a) Single-core throughput-vs-latency: we measure the *real* service
    time of a representative control-op mix (lease renewals, block
    allocate/reclaim, resolution) against a live controller, then sweep
    offered load through an M/M/1 queueing model to produce the
    throughput-latency curve — the knee sits at the measured saturation
    throughput (the paper's C++ controller saturates at ~42 KOps/core
    with 370 µs latency; a CPython controller is slower, and
    EXPERIMENTS.md reports the measured ratio).

(b) Multi-core scaling: shards own disjoint hierarchies (hash-routed
    job ids), so aggregate throughput scales linearly; we verify shard
    independence by measuring per-shard service time at increasing
    shard counts and report modelled aggregate throughput.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_table
from repro.config import KB, JiffyConfig
from repro.core.controller import JiffyController
from repro.core.sharding import ShardedController
from repro.sim.clock import SimClock

#: Control-op mix: weights roughly matching a running job's traffic
#: (renewals dominate; scaling ops are rare).
OP_MIX = (("renew", 6), ("resolve", 2), ("alloc_reclaim", 1))


def _build_controller(
    num_jobs: int = 32, sync_repartition: bool = False
) -> Tuple[JiffyController, List[str]]:
    controller = JiffyController(
        JiffyConfig(block_size=KB, async_repartition=not sync_repartition),
        clock=SimClock(),
        default_blocks=4096,
    )
    jobs = []
    for i in range(num_jobs):
        job_id = f"job-{i}"
        controller.register_job(job_id)
        controller.create_hierarchy(
            job_id, {"t1": [], "t2": ["t1"], "t3": ["t2"]}
        )
        jobs.append(job_id)
    return controller, jobs


def measure_service_time(
    num_ops: int = 30_000, num_jobs: int = 32, sync_repartition: bool = False
) -> float:
    """Mean seconds per control op over the representative mix."""
    controller, jobs = _build_controller(num_jobs, sync_repartition)
    ops: List[Tuple[str, str]] = []
    i = 0
    while len(ops) < num_ops:
        for op, weight in OP_MIX:
            for _ in range(weight):
                ops.append((op, jobs[i % len(jobs)]))
                i += 1
    ops = ops[:num_ops]
    start = time.perf_counter()
    for op, job_id in ops:
        if op == "renew":
            controller.renew_lease(job_id, "t2")
        elif op == "resolve":
            controller.resolve(job_id, "t1/t2/t3")
        else:
            block = controller.allocate_block(job_id, "t3")
            controller.reclaim_block(job_id, "t3", block.block_id)
    elapsed = time.perf_counter() - start
    return elapsed / num_ops


@dataclass
class Fig12Result:
    service_time_s: float
    saturation_kops: float
    #: (offered kops, mean latency us) points for the 12(a) curve
    throughput_latency: List[Tuple[float, float]] = field(default_factory=list)
    #: (cores, aggregate MOps) points for the 12(b) curve
    core_scaling: List[Tuple[int, float]] = field(default_factory=list)
    #: measured per-shard service times at each shard count (flatness
    #: demonstrates shard independence)
    shard_service_times: Dict[int, float] = field(default_factory=dict)
    #: (rho, analytic latency us, simulated latency us) — queueing
    #: validation through the RPC server loop
    queueing_validation: List[Tuple[float, float, float]] = field(
        default_factory=list
    )


def run_queueing_validation(
    service_time_s: float,
    rhos: Sequence[float] = (0.3, 0.6, 0.9),
    requests_per_point: int = 4000,
    seed: int = 47,
) -> List[Tuple[float, float, float]]:
    """Validate the M/M/1 curve against the simulated RPC server.

    Open-loop Poisson arrivals at utilisation ``rho`` drive a real
    :class:`~repro.rpc.server.RpcServer` on the event loop; the measured
    mean server latency should track ``s / (1 - rho)``.
    """
    import random

    from repro.rpc.framing import RpcRequest, encode_message
    from repro.rpc.server import RpcServer
    from repro.sim.events import EventLoop

    rng = random.Random(seed)
    points: List[Tuple[float, float, float]] = []
    for rho in rhos:
        loop = EventLoop(SimClock())
        server = RpcServer(loop, service_time_s=service_time_s)
        server.register("renew", lambda job, prefix: 1)
        frame = encode_message(
            RpcRequest(seq=0, method="renew", args=("job", "t"))
        )
        rate = rho / service_time_s
        t = 0.0
        for i in range(requests_per_point):
            t += rng.expovariate(rate)
            request = encode_message(
                RpcRequest(seq=i, method="renew", args=("job", "t"))
            )
            loop.schedule_at(
                t,
                lambda req=request, at=t: server.deliver(
                    req, at, lambda out, done: None
                ),
            )
        loop.run()
        analytic = service_time_s / (1.0 - rho)
        measured = float(np.mean(server.stats.latencies))
        points.append((rho, analytic * 1e6, measured * 1e6))
    return points


def run(
    num_ops: int = 30_000,
    core_counts: Sequence[int] = (1, 8, 16, 32, 48, 64),
    shard_check_counts: Sequence[int] = (1, 2, 4),
    ops_per_shard_check: int = 4_000,
    sync_repartition: bool = False,
) -> Fig12Result:
    """Measure the controller and build both Fig 12 curves.

    ``sync_repartition`` exists for uniform ablation runs: the control
    path never repartitions data, so the curves are expected (and
    verified by the ablation) to be mode-independent.
    """
    service = measure_service_time(
        num_ops=num_ops, sync_repartition=sync_repartition
    )
    saturation = 1.0 / service

    # M/M/1: latency = s / (1 - rho). Sweep rho up to 0.98.
    points: List[Tuple[float, float]] = []
    for rho in np.linspace(0.1, 0.98, 12):
        offered = saturation * rho
        latency = service / (1.0 - rho)
        points.append((offered / 1e3, latency * 1e6))

    # Shard independence: per-shard service time should be flat as the
    # shard count grows (disjoint state, no coordination).
    shard_times: Dict[int, float] = {}
    for count in shard_check_counts:
        sharded = ShardedController(
            count,
            JiffyConfig(block_size=KB, async_repartition=not sync_repartition),
            clock=SimClock(),
            blocks_per_shard=512,
        )
        job_ids = [f"job-{i}" for i in range(8 * count)]
        for job_id in job_ids:
            sharded.register_job(job_id)
            sharded.create_hierarchy(job_id, {"t1": [], "t2": ["t1"]})
        start = time.perf_counter()
        for i in range(ops_per_shard_check):
            sharded.renew_lease(job_ids[i % len(job_ids)], "t2")
        shard_times[count] = (time.perf_counter() - start) / ops_per_shard_check

    scaling = [(c, saturation * c / 1e6) for c in core_counts]
    return Fig12Result(
        service_time_s=service,
        saturation_kops=saturation / 1e3,
        throughput_latency=points,
        core_scaling=scaling,
        shard_service_times=shard_times,
        queueing_validation=run_queueing_validation(service),
    )


def format_report(result: Fig12Result) -> str:
    rows_a = [
        [f"{kops:.1f}", f"{lat_us:.0f}"] for kops, lat_us in result.throughput_latency
    ]
    part_a = format_table(
        ["throughput (KOps)", "latency (us)"],
        rows_a,
        title=(
            "Fig 12(a): controller throughput vs latency, single core "
            f"(measured saturation {result.saturation_kops:.1f} KOps; "
            "paper ~42 KOps in C++)"
        ),
    )
    rows_b = [[c, f"{mops:.2f}"] for c, mops in result.core_scaling]
    part_b = format_table(
        ["cores", "throughput (MOps)"],
        rows_b,
        title="Fig 12(b): controller scaling with cores (hash-sharded)",
    )
    rows_c = [
        [count, f"{t * 1e6:.1f}us"]
        for count, t in sorted(result.shard_service_times.items())
    ]
    part_c = format_table(
        ["shards", "per-op service time"],
        rows_c,
        title="Shard independence check (flat = linear scaling)",
    )
    rows_d = [
        [f"{rho:.1f}", f"{analytic:.1f}", f"{measured:.1f}"]
        for rho, analytic, measured in result.queueing_validation
    ]
    part_d = format_table(
        ["utilisation", "M/M/1 latency (us)", "simulated latency (us)"],
        rows_d,
        title="Queueing validation via the RPC server loop",
    )
    return "\n\n".join([part_a, part_b, part_c, part_d])
