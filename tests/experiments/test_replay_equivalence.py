"""Replay results are pinned to the pre-optimisation reference replay.

The replay hot path (schedule-driven job activation, batched data-plane
ops, heap-scheduled lease expiry) replaced a per-step scan of every job
with per-item operations and a full expiry scan. That reference arm is
gone from ``src/``; what it produced is kept here as golden digests:

* sha256 of the ``used/allocated/demand`` series plus the expiry counts
  for every data-structure type (KV under synchronous repartitioning,
  where batch-vs-item polling leaves no timing freedom) and for the
  seed-scale Fig 14 workload — captured from the reference arm at the
  commit that deleted it;
* :class:`ActiveJobSet` is exactly the ``submit <= now < end`` scan
  (batched ≡ sequential ops is pinned by
  ``tests/datastructures/test_bulk_equivalence.py``, heap ≡ full expiry
  scan by ``tests/core/test_lease_sweep.py``);
* and a quick smoke keeps replay events/sec above a conservative floor
  so a performance regression fails tier-1, not just the benchmark
  trajectory.
"""

from __future__ import annotations

import hashlib
import time

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.config import KB, JiffyConfig
from repro.experiments import fig14
from repro.experiments.driver import ActiveJobSet, ReplayResult, TraceReplayDriver
from repro.workloads.snowflake import JobTrace, SnowflakeWorkloadGenerator, Stage

BASE_BLOCK = 16 * KB


def _workload(num_tenants=8, duration_s=240.0, seed=11):
    gen = SnowflakeWorkloadGenerator(
        seed=seed,
        mean_stage_output=3 * BASE_BLOCK,
        sigma_output=0.8,
        mean_stage_duration=20.0,
        mean_stages=3.0,
    )
    return [
        job
        for _, jobs in gen.iter_tenants(
            num_tenants=num_tenants,
            duration_s=duration_s,
            job_arrival_rate=1.0 / 120.0,
        )
        for job in jobs
    ]


def _fingerprint(result: ReplayResult):
    """(sha256 of the three series, prefixes expired, blocks reclaimed)."""
    h = hashlib.sha256()
    for series in (result.used_bytes, result.allocated_bytes, result.demand_bytes):
        h.update(np.ascontiguousarray(series, dtype=np.float64).tobytes())
    return h.hexdigest(), result.prefixes_expired, result.blocks_reclaimed_by_expiry


#: ds_type -> fingerprint of the reference arm (``replay(fast_path=False)``
#: at commit 7e7600c).
GOLDEN = {
    "file": ("9e4d1869324c35607a172880b89effcb142cc8c99ae662335be8617fa20d1da8", 34, 583),
    "fifo_queue": (
        "48e30f2ff37b94ce2ceb18ada414a471405bc710084bb7915f737dd9ef2d4e59", 34, 303,
    ),
    "kv_store": ("47059c41dd53291ccd5d31fb42f2616d6e5df2d2b6385df581f75925daacd61d", 34, 915),
}
GOLDEN_FIG14 = ("e53a682a3d9fde1b6fe9a8cb0acb685d0d373d2b9cd480b10643564d2dc16b8b", 7, 102)


@pytest.mark.parametrize("ds_type", sorted(GOLDEN))
def test_replay_matches_reference_digest(ds_type) -> None:
    config = JiffyConfig(
        block_size=BASE_BLOCK,
        lease_duration=1.0,
        # KV only: async repartition polls background migrations once
        # per *batch*, which can shift a split's cut-over by a step
        # against the per-item reference; synchronous repartitioning
        # removes the timing freedom.
        async_repartition=(ds_type != "kv_store"),
    )
    driver = TraceReplayDriver(config, ds_type=ds_type, byte_scale=1.0)
    result = driver.replay(_workload(), t_end=240.0, dt=2.0)
    assert _fingerprint(result) == GOLDEN[ds_type]


def test_seed_scale_fig14_workload_stable() -> None:
    """The Fig 14 seed workload replays to the reference's figure."""
    jobs = fig14._workload(60.0, seed=43)
    config = JiffyConfig(block_size=fig14.BASE_BLOCK, lease_duration=1.0)
    result = TraceReplayDriver(config, ds_type="file", byte_scale=1.0).replay(
        jobs, t_end=60.0, dt=1.0
    )
    assert _fingerprint(result) == GOLDEN_FIG14
    assert result.avg_utilization() == 0.7679854917031766


@st.composite
def job_sets(draw):
    """Jobs on a coarse time grid, so windows share edges with steps."""
    jobs = []
    for k in range(draw(st.integers(min_value=0, max_value=12))):
        submit = draw(st.integers(min_value=0, max_value=20)) * 0.5
        duration = draw(st.integers(min_value=1, max_value=12)) * 0.5
        jobs.append(
            JobTrace(
                f"job-{k}",
                "t",
                submit,
                [Stage(index=0, start=submit, duration=duration, output_bytes=1)],
            )
        )
    return jobs


@given(jobs=job_sets(), dt=st.sampled_from([0.5, 1.0, 1.5, 4.0]))
@settings(max_examples=100, deadline=None)
def test_active_job_set_is_the_window_scan(jobs, dt) -> None:
    activation = ActiveJobSet(jobs)
    now = 0.0
    while now <= 18.0:
        assert activation.advance(now) == [
            j for j in jobs if j.submit_time <= now < j.end_time
        ]
        now += dt


def test_replay_scale_smoke() -> None:
    """Quick tier-1 floor on replay throughput (full pin: benchmarks).

    200 sparse tenants must replay well above 300 activation events per
    second — the replay sustains thousands, so tripping this means
    the schedule-driven activation or batching path regressed badly.
    """
    gen = SnowflakeWorkloadGenerator(
        seed=29,
        mean_stage_output=2 * BASE_BLOCK,
        sigma_output=0.8,
        mean_stage_duration=6.0,
        mean_stages=2.0,
    )
    jobs = [
        job
        for _, tenant_jobs in gen.iter_tenants(
            num_tenants=200, duration_s=900.0, job_arrival_rate=1.0 / 1800.0
        )
        for job in tenant_jobs
    ]
    events = fig14.count_activations(jobs, 900.0, 5.0)
    driver = TraceReplayDriver(
        JiffyConfig(block_size=BASE_BLOCK, lease_duration=1.0),
        ds_type="file",
        byte_scale=1.0,
    )
    started = time.perf_counter()
    driver.replay(jobs, t_end=900.0, dt=5.0)
    wall = time.perf_counter() - started
    assert events > 0
    assert events / wall > 300.0, (
        f"replay smoke: {events / wall:.0f} events/s (floor 300)"
    )
