"""Fig 14: sensitivity to block size, lease duration, repartition threshold.

Replays a fixed file-workload window through the real system while
sweeping one parameter at a time (defaults: 128 MB blocks, 1 s lease,
95 % high threshold). The figure of merit is the average used/allocated
utilisation over the window; the paper's findings:

(a) larger blocks → lower utilisation (fragmentation within blocks);
(b) longer leases → lower utilisation (reclamation lags demand);
(c) lower high-threshold → lower utilisation (premature block
    allocation), a relatively small effect because files are much
    larger than one block.

Byte quantities are scaled down uniformly (all allocation logic is
ratio-based), with the paper-default block size mapped to
``BASE_BLOCK``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.config import KB, JiffyConfig
from repro.experiments.driver import ReplayResult, TraceReplayDriver
from repro.workloads.snowflake import (
    JobTrace,
    SnowflakeWorkloadGenerator,
    demand_series,
)

#: Scaled stand-in for the paper's default 128 MB block.
BASE_BLOCK = 16 * KB

#: Paper sweep values, as multiples of the default block size.
BLOCK_SIZE_FACTORS = (0.25, 0.5, 1.0, 2.0, 4.0)  # 32MB ... 512MB
LEASE_DURATIONS = (0.25, 1.0, 4.0, 16.0, 64.0)
HIGH_THRESHOLDS = (0.99, 0.95, 0.90, 0.80, 0.60)


@dataclass
class SweepPoint:
    label: str
    avg_utilization: float
    peak_allocated: int
    replay: ReplayResult


@dataclass
class Fig14Result:
    block_size: List[SweepPoint] = field(default_factory=list)
    lease_duration: List[SweepPoint] = field(default_factory=list)
    threshold: List[SweepPoint] = field(default_factory=list)


def _workload(duration_s: float, seed: int) -> List[JobTrace]:
    """A 60-second window of file-heavy jobs (several blocks per file)."""
    gen = SnowflakeWorkloadGenerator(
        seed=seed,
        mean_stage_output=12 * BASE_BLOCK,  # files span several blocks
        sigma_output=0.8,
        mean_stage_duration=duration_s / 5.0,
        mean_stages=3.0,
    )
    jobs = []
    for i in range(4):
        jobs.append(
            gen.generate_job(f"job-{i}", "tenant-0", submit_time=2.0 + 3.0 * i)
        )
    # Clip to the window so every lease outcome is observed.
    return [j for j in jobs if j.end_time < duration_s * 2]


def _replay(config: JiffyConfig, jobs: Sequence[JobTrace], duration_s: float, dt: float):
    driver = TraceReplayDriver(config, ds_type="file", byte_scale=1.0)
    return driver.replay(jobs, t_end=duration_s, dt=dt)


def run(
    duration_s: float = 60.0,
    dt: float = 1.0,
    seed: int = 43,
    block_factors: Sequence[float] = BLOCK_SIZE_FACTORS,
    lease_durations: Sequence[float] = LEASE_DURATIONS,
    thresholds: Sequence[float] = HIGH_THRESHOLDS,
) -> Fig14Result:
    """Run the three sweeps; one parameter varies per sweep."""
    jobs = _workload(duration_s, seed)
    result = Fig14Result()

    for factor in block_factors:
        config = JiffyConfig(
            block_size=int(BASE_BLOCK * factor), lease_duration=1.0
        )
        replay = _replay(config, jobs, duration_s, dt)
        result.block_size.append(
            SweepPoint(
                label=f"{int(128 * factor)}MB",
                avg_utilization=replay.avg_utilization(),
                peak_allocated=int(replay.allocated_bytes.max()),
                replay=replay,
            )
        )

    for lease in lease_durations:
        config = JiffyConfig(block_size=BASE_BLOCK, lease_duration=lease)
        replay = _replay(config, jobs, duration_s, dt)
        result.lease_duration.append(
            SweepPoint(
                label=f"{lease}s",
                avg_utilization=replay.avg_utilization(),
                peak_allocated=int(replay.allocated_bytes.max()),
                replay=replay,
            )
        )

    for threshold in thresholds:
        config = JiffyConfig(
            block_size=BASE_BLOCK, lease_duration=1.0, high_threshold=threshold
        )
        replay = _replay(config, jobs, duration_s, dt)
        result.threshold.append(
            SweepPoint(
                label=f"{threshold:.0%}",
                avg_utilization=replay.avg_utilization(),
                peak_allocated=int(replay.allocated_bytes.max()),
                replay=replay,
            )
        )
    return result


@dataclass
class ScalePoint:
    """One sweep setting of a full-tenant-count replay."""

    label: str
    avg_utilization: float
    peak_allocated: int
    wall_seconds: float
    activations: int  # job-step activation events the replay visited


@dataclass
class Fig14ScaleResult:
    """Fig 14-style sensitivity sweep at the paper's tenant count."""

    num_tenants: int
    num_jobs: int
    duration_s: float
    dt: float
    lease_duration: List[ScalePoint] = field(default_factory=list)

    @property
    def wall_seconds(self) -> float:
        return sum(p.wall_seconds for p in self.lease_duration)

    @property
    def activations(self) -> int:
        return sum(p.activations for p in self.lease_duration)

    @property
    def events_per_sec(self) -> float:
        wall = self.wall_seconds
        return self.activations / wall if wall > 0 else 0.0


def scale_workload(
    num_tenants: int,
    duration_s: float,
    seed: int = 43,
    job_arrival_rate: float = 1.0 / 240.0,
) -> List[JobTrace]:
    """A full-tenant-count workload with block-scale stage outputs.

    Tenants are streamed out of the generator (lazy
    :meth:`~repro.workloads.snowflake.SnowflakeWorkloadGenerator.iter_tenants`),
    so the peak footprint is the flattened job list itself, not a
    per-tenant dict of interim lists.
    """
    gen = SnowflakeWorkloadGenerator(
        seed=seed,
        mean_stage_output=2 * BASE_BLOCK,
        sigma_output=0.8,
        mean_stage_duration=duration_s / 9.0,
        mean_stages=3.0,
    )
    return [
        job
        for _, jobs in gen.iter_tenants(
            num_tenants=num_tenants,
            duration_s=duration_s,
            job_arrival_rate=job_arrival_rate,
        )
        for job in jobs
    ]


def count_activations(jobs: Sequence[JobTrace], t_end: float, dt: float) -> int:
    """Job-step activation events in a replay of ``jobs``.

    One event per (live job, step) pair — the unit of work the
    event-driven driver actually touches, and the numerator of the
    replay-throughput benchmark. Implementation-independent: computed
    from the job windows, so only wall clock moves events/sec.
    """
    import math

    steps = int(math.ceil(t_end / dt))
    times = np.arange(steps) * dt
    submits = np.sort([j.submit_time for j in jobs])
    ends = np.sort([j.end_time for j in jobs])
    live = np.searchsorted(submits, times, side="right") - np.searchsorted(
        ends, times, side="right"
    )
    return int(live.sum())


def run_scale(
    num_tenants: int = 2000,
    duration_s: float = 180.0,
    dt: float = 2.0,
    seed: int = 43,
    lease_durations: Sequence[float] = (1.0, 4.0),
    job_arrival_rate: float = 1.0 / 240.0,
) -> Fig14ScaleResult:
    """The Fig 14(b) lease sweep at the paper's full tenant count.

    Replays every tenant's jobs through the real data plane with
    event-driven activation; the per-point wall clock and activation
    counts feed ``BENCH_replay_scale.json``. Defaults complete a
    2000-tenant sweep in interactive time (single-digit minutes).
    """
    jobs = scale_workload(
        num_tenants, duration_s, seed=seed, job_arrival_rate=job_arrival_rate
    )
    # Size the pool from the workload's aggregate peak demand (plus
    # lease-lag and per-structure headroom), not from total bytes ever
    # written — at 2000 tenants the latter over-provisions by ~20x.
    _, demand = demand_series(jobs, 0.0, duration_s, dt)
    peak = float(demand.max()) if demand.size else float(BASE_BLOCK)
    num_structures = sum(len(j.stages) for j in jobs)
    result = Fig14ScaleResult(
        num_tenants=num_tenants,
        num_jobs=len(jobs),
        duration_s=duration_s,
        dt=dt,
    )
    activations = count_activations(jobs, duration_s, dt)
    for lease in lease_durations:
        config = JiffyConfig(block_size=BASE_BLOCK, lease_duration=lease)
        pool_blocks = (
            int(6.0 * peak / config.block_size) + 2 * num_structures + 256
        )
        driver = TraceReplayDriver(
            config, ds_type="file", byte_scale=1.0, pool_blocks=pool_blocks
        )
        started = time.perf_counter()
        replay = driver.replay(jobs, t_end=duration_s, dt=dt)
        wall = time.perf_counter() - started
        result.lease_duration.append(
            ScalePoint(
                label=f"{lease}s",
                avg_utilization=replay.avg_utilization(),
                peak_allocated=int(replay.allocated_bytes.max()),
                wall_seconds=wall,
                activations=activations,
            )
        )
    return result


@dataclass
class LowThresholdPoint:
    label: str
    blocks_after_deletes: int
    merges: int
    avg_utilization: float


def run_low_threshold(
    low_thresholds: Sequence[float] = (0.01, 0.05, 0.1, 0.2, 0.3),
    num_pairs: int = 400,
    delete_fraction: float = 0.85,
    seed: int = 53,
) -> List[LowThresholdPoint]:
    """Extension sweep: the *low* (merge) threshold (§3.3).

    "Lower low-thresholds result in larger number of nearly empty
    blocks": fill a KV store, delete most pairs, and measure how many
    blocks survive at each low threshold — lower thresholds merge less
    eagerly, stranding nearly-empty blocks.
    """
    from repro.core.client import connect
    from repro.core.controller import JiffyController
    from repro.sim.clock import SimClock

    points: List[LowThresholdPoint] = []
    for low in low_thresholds:
        controller = JiffyController(
            JiffyConfig(block_size=2 * KB, low_threshold=low),
            clock=SimClock(),
            default_blocks=512,
        )
        client = connect(controller, "sweep")
        client.create_addr_prefix("kv")
        kv = client.init_data_structure("kv", "kv_store", num_slots=128)
        for i in range(num_pairs):
            kv.put(f"key-{i:05d}".encode(), b"v" * 48)
        for i in range(int(num_pairs * delete_fraction)):
            kv.delete(f"key-{i:05d}".encode())
        allocated = kv.allocated_bytes()
        points.append(
            LowThresholdPoint(
                label=f"{low:.0%}",
                blocks_after_deletes=len(kv.node.block_ids),
                merges=kv.merges,
                avg_utilization=(kv.used_bytes() / allocated) if allocated else 1.0,
            )
        )
    return points


def format_report(result: Fig14Result) -> str:
    parts = []
    for title, points in (
        ("Fig 14(a): block size (paper-equivalent labels)", result.block_size),
        ("Fig 14(b): lease duration", result.lease_duration),
        ("Fig 14(c): high repartition threshold", result.threshold),
    ):
        rows = [
            [p.label, f"{p.avg_utilization:.1%}", f"{p.peak_allocated / KB:.0f}KB"]
            for p in points
        ]
        parts.append(
            format_table(
                ["setting", "avg used/allocated", "peak allocated"],
                rows,
                title=title,
            )
        )
    return "\n\n".join(parts)
