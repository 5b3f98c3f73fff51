"""Lease-based data lifetime management (§3.2).

Every address prefix carries a lease. The job renews leases for the
prefixes of currently running tasks; Jiffy's twist is that a renewal for
one prefix propagates through the DAG:

* **up** to its *direct* parents — a running task keeps the data it reads
  alive (its parents' outputs; grandparents were already consumed);
* **down** to *all* descendants — data for downstream tasks stays alive.

(Fig 5: renewing T7 renews its parents T3, T5, T6 and its descendants
T8, T9, but *not* T1/T2/T4 — transitive ancestors whose data T7 does not
read are left to expire.)

On expiry the controller flushes the prefix's data to persistent storage
(so late renewals lose performance, not data) and reclaims its blocks.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from repro.core.hierarchy import AddressHierarchy, AddressNode
from repro.sim.clock import Clock
from repro.telemetry import Counter, MetricsRegistry


class LeaseManager:
    """Tracks renewal timestamps and finds expired prefixes.

    The expiry *policy* lives here; the expiry *mechanism* (flushing and
    reclaiming blocks) is performed by the controller, which calls
    :meth:`collect_expired` from its periodic expiry worker.
    """

    def __init__(
        self,
        clock: Clock,
        default_lease_duration: float,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if default_lease_duration <= 0:
            raise ValueError("lease duration must be positive")
        self.clock = clock
        self.default_lease_duration = default_lease_duration
        self.telemetry = registry if registry is not None else MetricsRegistry()
        # renewals requested by jobs / node timestamps updated (incl.
        # propagation) / prefixes marked expired — registry-backed, with
        # the historical attribute names kept as read-through properties.
        self._c_requests = self.telemetry.counter("leases.renewal_requests")
        self._c_applied = self.telemetry.counter("leases.renewals_applied")
        self._c_expirations = self.telemetry.counter("leases.expirations")
        self._h_fanout = self.telemetry.histogram("leases.renew.fanout")
        # Per-tenant companions of the unlabelled series above, cached
        # per job id (cardinality = live jobs, and renewals are control
        # path, so the dict lookup is fine).
        self._c_applied_by_job: Dict[str, Counter] = {}
        self._c_expirations_by_job: Dict[str, Counter] = {}
        # Per-job expiry floor: a lower bound on the earliest deadline of
        # any non-expired node of that job. While ``now <= floor`` the
        # whole hierarchy can be skipped by the sweep — renewals only
        # push deadlines later, and every deadline-lowering path
        # (:meth:`start`, :meth:`renew` of a previously expired node)
        # runs through this manager and lowers the floor with it. A
        # missing or too-low floor merely costs a scan, never an expiry.
        self._floors: Dict[str, float] = {}
        # Min-heap of (floor, job_id) scheduling the sweep: a pass pops
        # only jobs whose floor has lapsed instead of checking every
        # hierarchy, so a tick costs O(expiring) rather than O(jobs).
        # Entries are lazy — every floor *update* pushes, and a popped
        # entry is discarded unless it matches the job's current floor —
        # so at most one entry per job is live at any time.
        self._floor_heap: List[Tuple[float, str]] = []

    def _job_counter(
        self, cache: Dict[str, Counter], name: str, job_id: str
    ) -> Counter:
        counter = cache.get(job_id)
        if counter is None:
            counter = cache[job_id] = self.telemetry.counter(name, job=job_id)
        return counter

    @property
    def renewal_requests(self) -> int:
        return self._c_requests.value

    @property
    def renewals_applied(self) -> int:
        return self._c_applied.value

    @property
    def expirations(self) -> int:
        return self._c_expirations.value

    # ------------------------------------------------------------------

    def lease_duration_of(self, node: AddressNode) -> float:
        """Effective lease duration for a node (per-prefix override or default)."""
        if node.lease_duration is not None:
            return node.lease_duration
        return self.default_lease_duration

    def _set_floor(self, job_id: str, deadline: float) -> None:
        self._floors[job_id] = deadline
        if deadline != float("inf"):
            heapq.heappush(self._floor_heap, (deadline, job_id))

    def _lower_floor(self, job_id: str, deadline: float) -> None:
        floor = self._floors.get(job_id)
        if floor is None or deadline < floor:
            self._set_floor(job_id, deadline)

    def start(self, node: AddressNode) -> None:
        """Begin a node's lease at creation time."""
        node.last_renewal = self.clock.now()
        node.expired = False
        self._lower_floor(
            node.job_id, node.last_renewal + self.lease_duration_of(node)
        )

    def renew(self, node: AddressNode, propagate: bool = True) -> int:
        """Renew a node's lease; returns the number of nodes renewed.

        With ``propagate`` (the default, the paper's behaviour) the
        renewal also covers the node's direct parents and all of its
        descendant prefixes (Fig 5). Passing ``propagate=False`` models
        the naive per-prefix scheme used by the lease-propagation
        ablation.
        """
        now = self.clock.now()
        self._c_requests.inc()
        targets: Set[AddressNode] = {node}
        if propagate:
            targets.update(node.parents)
            targets |= node.descendants()
        min_deadline = float("inf")
        for target in targets:
            target.last_renewal = now
            target.expired = False
            deadline = now + self.lease_duration_of(target)
            if deadline < min_deadline:
                min_deadline = deadline
        self._lower_floor(node.job_id, min_deadline)
        self._c_applied.inc(len(targets))
        self._job_counter(
            self._c_applied_by_job, "leases.renewals_applied", node.job_id
        ).inc(len(targets))
        self._h_fanout.record(float(len(targets)))
        return len(targets)

    def is_expired(self, node: AddressNode) -> bool:
        """Whether a node's lease has lapsed as of the clock's now."""
        return self.clock.now() - node.last_renewal > self.lease_duration_of(node)

    def remaining(self, node: AddressNode) -> float:
        """Seconds until the node's lease lapses (negative if lapsed)."""
        deadline = node.last_renewal + self.lease_duration_of(node)
        return deadline - self.clock.now()

    def due(self, now: float) -> bool:
        """Whether any job's expiry floor has lapsed as of ``now``.

        A cheap heap peek (stale entries may report ``True`` spuriously,
        which merely costs the caller one :meth:`collect_expired` pass),
        letting the expiry worker skip sweep bookkeeping entirely on the
        vast majority of ticks where nothing can have expired.
        """
        heap = self._floor_heap
        return bool(heap) and heap[0][0] < now

    def _scan_hierarchy(
        self, hierarchy: AddressHierarchy, now: float
    ) -> List[AddressNode]:
        """Scan one job: mark newly expired nodes, recompute its floor."""
        expired: List[AddressNode] = []
        new_floor = float("inf")
        for node in hierarchy.nodes():
            if node.expired:
                continue
            deadline = node.last_renewal + self.lease_duration_of(node)
            if now > deadline:
                node.expired = True
                expired.append(node)
                self._c_expirations.inc()
                self._job_counter(
                    self._c_expirations_by_job,
                    "leases.expirations",
                    node.job_id,
                ).inc()
            elif deadline < new_floor:
                new_floor = deadline
        self._set_floor(hierarchy.job_id, new_floor)
        return expired

    def collect_expired(
        self,
        hierarchies: Union[
            Mapping[str, AddressHierarchy], Iterable[AddressHierarchy]
        ],
    ) -> List[AddressNode]:
        """One expiry-worker pass: mark and return newly expired nodes.

        Only nodes that still hold blocks (or have never been marked) are
        interesting; already-expired nodes are skipped so the controller
        flushes each prefix exactly once per expiry.

        With a mapping (the controller's job table) the pass is driven by
        the floor heap and touches only jobs whose floor has lapsed —
        O(expiring), independent of the total job count. An iterable of
        hierarchies (ablations, direct tests) keeps the explicit
        per-hierarchy floor check. Both shapes mark the same nodes, and
        the mapping path returns them in the mapping's iteration order
        (node order within a job) — what a scan of every node of every
        hierarchy would report.
        """
        now = self.clock.now()
        if not isinstance(hierarchies, Mapping):
            expired: List[AddressNode] = []
            for hierarchy in hierarchies:
                floor = self._floors.get(hierarchy.job_id)
                if floor is not None and now <= floor:
                    # Nothing in this job can have expired yet: every
                    # non-expired node's deadline is at or above the
                    # floor.
                    continue
                expired.extend(self._scan_hierarchy(hierarchy, now))
            return expired

        heap = self._floor_heap
        expired_by_job: Dict[str, List[AddressNode]] = {}
        while heap and heap[0][0] < now:
            deadline, job_id = heapq.heappop(heap)
            if deadline != self._floors.get(job_id):
                continue  # superseded by a later floor update
            hierarchy = hierarchies.get(job_id)
            if hierarchy is None:
                del self._floors[job_id]  # job deregistered; drop tracking
                continue
            nodes = self._scan_hierarchy(hierarchy, now)
            if nodes:
                expired_by_job[job_id] = nodes
        if not expired_by_job:
            return []
        if len(expired_by_job) == 1:
            return next(iter(expired_by_job.values()))
        # Heap order is deadline order; report in job-table order so
        # downstream flush / reclaim sequences (and hence block reuse)
        # do not depend on which deadline lapsed first.
        flat: List[AddressNode] = []
        for job_id in hierarchies:
            bucket = expired_by_job.get(job_id)
            if bucket:
                flat.extend(bucket)
        return flat

    def __repr__(self) -> str:
        return (
            f"LeaseManager(default={self.default_lease_duration}s, "
            f"requests={self.renewal_requests}, applied={self.renewals_applied}, "
            f"expired={self.expirations})"
        )
