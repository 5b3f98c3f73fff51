"""Trace replay against the *real* Jiffy system under a simulated clock.

Fig 11(a) and Fig 14 measure how the functional system's allocated
memory tracks the live intermediate data when a workload is replayed
through actual data structures with real lease renewals and expiry. This
driver converts :class:`~repro.workloads.snowflake.JobTrace` stage
profiles into writes/reads against a chosen data structure type:

* each job stage gets its own address prefix (``job/stage-i``), child of
  the previous stage — so DAG-propagated renewals behave as in §3.2;
* while a stage runs it appends/enqueues/puts its output linearly;
* a stage's prefix is renewed while the stage or its consumer stage is
  running; afterwards renewals stop and the lease expires, letting the
  controller flush + reclaim the blocks;
* queues are additionally drained by the consumer stage, modelling
  consumption-driven demand drop.

Renewals happen every ``lease/2`` seconds of simulated time regardless
of the trace step, as a real job's renewal timer would.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.config import JiffyConfig
from repro.core.client import JiffyClient, connect
from repro.core.plane import make_control_plane
from repro.datastructures.base import DataStructure
from repro.sim.clock import SimClock
from repro.workloads.snowflake import JobTrace
from repro.workloads.zipf import ZipfKeySampler

#: Payload unit for queue items and KV values during replay. Chosen
#: large enough that replaying a multi-hundred-MB (scaled) trace stays
#: fast; all threshold/lease behaviour is per-byte, not per-item.
ITEM_BYTES = 256


@dataclass
class ReplayResult:
    """Time series recorded during a replay.

    ``used_bytes`` is the data-plane block fill (bytes physically stored,
    live or not-yet-reclaimed); ``demand_bytes`` is the live intermediate
    data the trace says is needed at each instant. Utilisation compares
    live demand against allocated capacity, matching the green-vs-red
    areas of Fig 11(a)/Fig 14.
    """

    times: np.ndarray
    used_bytes: np.ndarray
    allocated_bytes: np.ndarray
    demand_bytes: np.ndarray
    repartition_latencies: List[float] = field(default_factory=list)
    blocks_reclaimed_by_expiry: int = 0
    prefixes_expired: int = 0

    def avg_utilization(self) -> float:
        """Mean live-demand/allocated over steps where anything is allocated."""
        active = self.allocated_bytes > 0
        if not active.any():
            return 1.0
        return float(
            np.mean(
                np.minimum(self.demand_bytes[active], self.allocated_bytes[active])
                / self.allocated_bytes[active]
            )
        )

    def avg_fill(self) -> float:
        """Mean block fill (used/allocated) over active steps."""
        active = self.allocated_bytes > 0
        if not active.any():
            return 1.0
        return float(
            np.mean(self.used_bytes[active] / self.allocated_bytes[active])
        )


class ActiveJobSet:
    """Event-driven job activation: only live jobs are visited per step.

    Jobs enter when ``submit_time <= now`` and leave when
    ``end_time <= now`` — together exactly the ``submit <= now < end``
    predicate, but maintained with two sorted pointers so each step
    costs O(live + arrivals + departures) instead of O(all jobs). The
    active list is kept sorted by each job's *original* index, so
    iterating it visits the live jobs in input order and every
    data-plane operation is issued in the sequence a scan of all jobs
    would issue it.
    """

    def __init__(self, jobs: Sequence[JobTrace]) -> None:
        self._jobs = jobs
        n = len(jobs)
        self._by_submit = sorted(range(n), key=lambda k: jobs[k].submit_time)
        self._by_end = sorted(range(n), key=lambda k: jobs[k].end_time)
        self._sp = 0
        self._ep = 0
        self._active: List[int] = []  # original indices, kept sorted

    def advance_indices(self, now: float) -> List[int]:
        """Original indices of jobs with ``submit <= now < end``, sorted."""
        jobs = self._jobs
        n = len(jobs)
        by_submit, by_end, active = self._by_submit, self._by_end, self._active
        sp = self._sp
        while sp < n and jobs[by_submit[sp]].submit_time <= now:
            insort(active, by_submit[sp])
            sp += 1
        self._sp = sp
        ep = self._ep
        while ep < n and jobs[by_end[ep]].end_time <= now:
            k = by_end[ep]
            ep += 1
            pos = bisect_left(active, k)
            if pos < len(active) and active[pos] == k:
                active.pop(pos)
        self._ep = ep
        return active

    def advance(self, now: float) -> List[JobTrace]:
        """Jobs with ``submit_time <= now < end_time``, in input order."""
        jobs = self._jobs
        return [jobs[k] for k in self.advance_indices(now)]

    def arrival_indices(self, now: float) -> Iterator[int]:
        """Indices of jobs with ``submit_time <= now`` not yet reported.

        Consumes the same submit pointer as :meth:`advance`; an instance
        is driven through one of the two views, not both.
        """
        jobs = self._jobs
        by_submit = self._by_submit
        while self._sp < len(jobs) and jobs[by_submit[self._sp]].submit_time <= now:
            yield by_submit[self._sp]
            self._sp += 1


class TraceReplayDriver:
    """Replays job traces into real Jiffy data structures."""

    def __init__(
        self,
        config: JiffyConfig,
        ds_type: str = "file",
        byte_scale: float = 1.0,
        pool_blocks: Optional[int] = None,
        seed: int = 17,
        backend: str = "local",
        num_shards: int = 2,
    ) -> None:
        if byte_scale <= 0:
            raise ValueError("byte_scale must be positive")
        self.config = config
        self.ds_type = ds_type
        self.byte_scale = byte_scale
        self.clock = SimClock()
        self.pool_blocks = pool_blocks
        self.backend = backend
        self.num_shards = num_shards
        self.zipf = ZipfKeySampler(num_keys=4096, alpha=1.0, seed=seed)
        self._key_seq = 0

    # ------------------------------------------------------------------

    def _scaled(self, nbytes: float) -> int:
        return max(int(nbytes * self.byte_scale), 1)

    def _required_blocks(self, jobs: Sequence[JobTrace]) -> int:
        total = sum(self._scaled(j.total_intermediate_bytes()) for j in jobs)
        blocks = math.ceil(4.0 * total / self.config.block_size)
        return max(blocks + 16 * sum(len(j.stages) for j in jobs), 128)

    def _write(self, ds: DataStructure, nbytes: int) -> None:
        if self.ds_type == "file":
            ds.append(b"x" * nbytes)
        elif self.ds_type == "fifo_queue":
            count = max(nbytes // ITEM_BYTES, 1)
            ds.enqueue_batch([b"q" * ITEM_BYTES] * count)
        elif self.ds_type == "kv_store":
            count = max(nbytes // ITEM_BYTES, 1)
            pairs = []
            for _ in range(count):
                # Zipf-skewed hash-slot placement with unique keys, so
                # live data grows as in the trace while block placement
                # stays skewed (the paper's worst case for the KV store).
                base = self.zipf.sample()
                self._key_seq += 1
                pairs.append(
                    (base + b":" + str(self._key_seq).encode(), b"v" * ITEM_BYTES)
                )
            ds.multi_put(pairs)
        else:
            raise ValueError(f"unsupported ds_type {self.ds_type!r}")

    def _consume(self, ds: DataStructure, nbytes: int) -> None:
        if self.ds_type != "fifo_queue":
            return  # files/KV stores shed data via lease expiry only
        count = max(nbytes // ITEM_BYTES, 1)
        ds.dequeue_batch(count)

    # ------------------------------------------------------------------

    def replay(
        self,
        jobs: Sequence[JobTrace],
        t_end: Optional[float] = None,
        dt: float = 1.0,
    ) -> ReplayResult:
        """Replay ``jobs`` and record used/allocated over time.

        Job activation is schedule-driven — each step only visits jobs
        whose ``[submit, end)`` window covers the step — and data-plane
        writes go through the batched multi-op path, so a KV replay with
        *async* repartitioning polls background migrations once per
        batch, not once per item.
        """
        jobs = list(jobs)
        if t_end is None:
            t_end = max(j.end_time for j in jobs) + 2 * self.config.lease_duration
        pool_blocks = self.pool_blocks or self._required_blocks(jobs)
        controller = make_control_plane(
            self.backend,
            config=self.config,
            clock=self.clock,
            default_blocks=pool_blocks,
            num_shards=self.num_shards,
        )

        clients: Dict[str, JiffyClient] = {}
        structures: Dict[str, DataStructure] = {}  # "job/stage-i" handles
        written: Dict[str, int] = {}
        consumed: Dict[str, int] = {}
        prefixes: Dict[str, set] = {}  # job_id -> stage indices with prefixes

        def stage_key(job: JobTrace, idx: int) -> str:
            return f"{job.job_id}#{idx}"

        renew_interval = self.config.lease_duration / 2.0
        steps = int(math.ceil(t_end / dt))
        times = np.zeros(steps)
        used = np.zeros(steps)
        allocated = np.zeros(steps)
        demand = np.zeros(steps)
        repartition_latencies: List[float] = []

        def renew_active(now: float, scan: Sequence[JobTrace]) -> None:
            # Only jobs live at the top of the step can have a renewable
            # stage: before submit no client exists, and after end every
            # stage's consumer window has closed.
            for job in scan:
                client = clients.get(job.job_id)
                if client is None:
                    continue
                for i, stage in enumerate(job.stages):
                    consumer_end = (
                        job.stages[i + 1].end if i + 1 < len(job.stages) else stage.end
                    )
                    key = stage_key(job, i)
                    if key in structures and stage.start <= now < consumer_end:
                        client.renew_lease(f"stage-{i}")

        activation = ActiveJobSet(jobs)

        for step in range(steps):
            now = self.clock.now()
            live = activation.advance(now)
            for job in live:
                client = clients.get(job.job_id)
                if client is None:
                    client = connect(controller, job.job_id)
                    clients[job.job_id] = client
                for i, stage in enumerate(job.stages):
                    key = stage_key(job, i)
                    if stage.start <= now < stage.end and key not in structures:
                        created = prefixes.setdefault(job.job_id, set())
                        # A stage shorter than ``dt`` can fall between
                        # steps without ever creating its prefix; its
                        # consumer still names it as parent, so create
                        # any skipped ancestors (prefix only — a skipped
                        # stage never wrote data). For workloads without
                        # sub-step stages this issues exactly the single
                        # create the per-stage path always issued.
                        for a in range(i + 1):
                            if a not in created:
                                parent = f"stage-{a - 1}" if a > 0 else None
                                client.create_addr_prefix(
                                    f"stage-{a}", parent=parent
                                )
                                created.add(a)
                        kwargs = {}
                        if self.ds_type == "kv_store":
                            # A hash slot must fit in one block (§5.3):
                            # size the slot space so the stage's data
                            # spreads across slots with split headroom.
                            expected_blocks = math.ceil(
                                self._scaled(stage.output_bytes)
                                / self.config.block_size
                            )
                            kwargs["num_slots"] = max(64, 16 * expected_blocks)
                        structures[key] = client.init_data_structure(
                            f"stage-{i}", self.ds_type, **kwargs
                        )
                        written[key] = 0
                        consumed[key] = 0
                    if key not in structures:
                        continue
                    ds = structures[key]
                    total_out = self._scaled(stage.output_bytes)
                    # Producer: write this stage's output linearly.
                    if stage.start <= now < stage.end and not ds.expired:
                        frac = min((now + dt - stage.start) / stage.duration, 1.0)
                        target = int(total_out * frac)
                        delta = target - written[key]
                        if delta > 0:
                            self._write(ds, delta)
                            written[key] = target
                    # Consumer: drain the previous stage's queue.
                    if i + 1 < len(job.stages):
                        consumer = job.stages[i + 1]
                        if consumer.start <= now < consumer.end and not ds.expired:
                            frac = min(
                                (now + dt - consumer.start) / consumer.duration, 1.0
                            )
                            target = int(total_out * frac)
                            delta = target - consumed[key]
                            if delta > 0:
                                self._consume(ds, delta)
                                consumed[key] = target

            # Renew + expire at the job's own lease cadence within [now, now+dt).
            rounds = max(int(math.ceil(dt / renew_interval)), 1)
            sub_dt = dt / rounds
            for _ in range(rounds):
                renew_active(self.clock.now(), live)
                self.clock.advance(sub_dt)
                controller.tick()

            times[step] = now
            used[step] = controller.used_bytes()
            allocated[step] = controller.allocated_bytes()
            # Inactive jobs contribute an exact +0.0, so summing the
            # live subset (in input order) equals the sum over all jobs
            # bit for bit.
            demand[step] = sum(
                self.byte_scale * job.demand_at(now) for job in live
            )

        for ds in structures.values():
            repartition_latencies.extend(
                e.latency_s for e in ds.repartition_events
            )
        # Backend-agnostic counters: stats() is part of the ControlPlane
        # surface, so the same replay reports identically against the
        # local, sharded, and remote backends.
        stats = controller.stats()
        return ReplayResult(
            times=times,
            used_bytes=used,
            allocated_bytes=allocated,
            demand_bytes=demand,
            repartition_latencies=repartition_latencies,
            blocks_reclaimed_by_expiry=stats["blocks_reclaimed_by_expiry"],
            prefixes_expired=stats["prefixes_expired"],
        )
