"""Replay-scale pins: thousand-tenant Snowflake replay at interactive speed.

Two records guard the replay hot path:

* the schedule-driven driver's events/sec on a sparse 2000-tenant
  workload (results are pinned bit-for-bit against the deleted per-step
  full-scan reference by the golden digests in
  ``tests/experiments/test_replay_equivalence.py``; that reference ran
  this workload at 1/20.6 of the speed);
* a 2000-tenant Fig 14-style sensitivity sweep must complete in
  interactive time (single-digit minutes), with wall-clock-per-simulated
  hour and peak RSS recorded so regressions show up in the trajectory.

"Events" are job-step activations — (live job, step) pairs — a property
of the workload, not the implementation, so only wall clock moves the
figure.
"""

import resource
import time

from _results import record

from repro.config import JiffyConfig
from repro.experiments import fig14
from repro.experiments.fig14 import BASE_BLOCK
from repro.experiments.driver import TraceReplayDriver
from repro.workloads.snowflake import SnowflakeWorkloadGenerator


def _sparse_workload(num_tenants=2000, duration_s=7200.0, seed=47):
    """Many tenants, short rare jobs: <1% of jobs live at any instant.

    This is the regime the paper's trace lives in — thousands of tenants
    whose short bursts rarely overlap — and exactly where a per-step
    scan of every job collapses; schedule-driven activation touches only
    the handful that are live.
    """
    gen = SnowflakeWorkloadGenerator(
        seed=seed,
        mean_stage_output=2 * BASE_BLOCK,
        sigma_output=0.8,
        mean_stage_duration=6.0,
        mean_stages=2.0,
    )
    return [
        job
        for _, jobs in gen.iter_tenants(
            num_tenants=num_tenants,
            duration_s=duration_s,
            job_arrival_rate=1.0 / 9600.0,
        )
        for job in jobs
    ]


def _replay(jobs, duration_s, dt):
    config = JiffyConfig(block_size=BASE_BLOCK, lease_duration=0.5)
    driver = TraceReplayDriver(config, ds_type="file", byte_scale=1.0)
    started = time.perf_counter()
    result = driver.replay(jobs, t_end=duration_s, dt=dt)
    return result, time.perf_counter() - started


def test_replay_throughput(once, capsys):
    """Records schedule-driven replay events/sec on the sparse workload."""
    duration_s, dt = 7200.0, 5.0
    jobs = _sparse_workload(duration_s=duration_s)
    events = fig14.count_activations(jobs, duration_s, dt)

    result, wall = once(_replay, jobs, duration_s, dt)

    with capsys.disabled():
        print()
        print(
            f"replay: {len(jobs)} jobs, {events} activation events, "
            f"{wall:.1f}s, {events / wall:,.0f} events/s"
        )
    record(
        "replay_scale",
        {"fast_events_per_sec": (events / wall, "events/s")},
    )
    assert result.prefixes_expired > 0
    # The deleted full-scan reference managed ~95 events/s here; 5x that
    # is a floor a schedule-driven replay (~1,900) cannot miss by noise.
    assert events / wall > 500.0, f"replay only {events / wall:.0f} events/s"


def test_replay_scale_2000_tenants(once, capsys):
    """Full-tenant-count Fig 14 sweep completes in interactive time."""
    result = once(fig14.run_scale)  # 2000 tenants, two lease settings
    wall = result.wall_seconds
    per_sim_hour = wall * 3600.0 / (result.duration_s * len(result.lease_duration))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with capsys.disabled():
        print()
        print(
            f"2000-tenant sweep: {result.num_jobs} jobs, "
            f"{result.activations} activations, wall {wall:.1f}s "
            f"({result.events_per_sec:,.0f} events/s, "
            f"{per_sim_hour:.0f}s per simulated hour, "
            f"peak RSS {peak_rss_mb:.0f}MB)"
        )
        for p in result.lease_duration:
            print(
                f"  lease={p.label:>5} util={p.avg_utilization:6.1%} "
                f"peak_alloc={p.peak_allocated / 1024:,.0f}KB "
                f"wall={p.wall_seconds:.1f}s"
            )
    record(
        "replay_scale",
        {
            "sweep_2000_tenant_wall": (wall, "s"),
            "sweep_wall_per_sim_hour": (per_sim_hour, "s/simhour"),
            "sweep_events_per_sec": (result.events_per_sec, "events/s"),
            "sweep_peak_rss": (peak_rss_mb, "MB"),
        },
    )
    # Interactive time: single-digit minutes, with margin for CI noise.
    assert wall < 540.0, f"2000-tenant sweep took {wall:.0f}s"
    # The sweep still shows the Fig 14(b) finding at full scale:
    # longer leases lag reclamation -> lower utilisation.
    utils = [p.avg_utilization for p in result.lease_duration]
    assert utils[0] > utils[-1]
