"""The Jiffy controller: a unified control plane (§4.2.1).

Combines Pocket's separate control and metadata planes into one component
holding two pieces of system-wide state:

* the **free block list** (via :class:`~repro.core.allocator.BlockAllocator`
  over the :class:`~repro.blocks.pool.MemoryPool`), and
* a **per-job address hierarchy** whose nodes carry permissions, lease
  timestamps, block maps and data-structure identity.

Sub-components mirror Fig 7: the block allocator, the metadata manager,
and the lease manager (renewal service + expiry worker). The expiry
worker runs from :meth:`tick`, which live deployments call from a timer
thread and simulations call as the clock advances.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set

from repro.blocks.adaptive import AdaptiveTierManager
from repro.blocks.block import Block, BlockId
from repro.blocks.pool import MemoryPool
from repro.blocks.tiered import TieredMemoryPool
from repro.config import JiffyConfig
from repro.core.allocator import BlockAllocator
from repro.core.autoscale import ClusterAutoscaler
from repro.core.hierarchy import AddressHierarchy, AddressNode
from repro.core.lease import LeaseManager
from repro.core.metadata import MetadataManager, PartitionMetadata
from repro.core.plane import ControlPlane
from repro.core.replication import ReplicaManager
from repro.errors import (
    BlockError,
    CapacityError,
    PermissionError_,
    RegistrationError,
)
from repro.sim import cost
from repro.sim.background import LOW, BackgroundScheduler
from repro.sim.clock import Clock, WallClock
from repro.storage.external import ExternalStore
from repro.telemetry import MetricsRegistry
from repro.telemetry import trace

#: Modeled external-store write path: per-object base latency plus a
#: streaming bandwidth term (an S3-like persistent store, §3.2).
EXTERNAL_STORE_PUT_S = 5e-3
EXTERNAL_STORE_BW_BYTES_PER_S = float(1 << 30)

#: Background steps each expiry-worker pass donates to deferred work
#: (async flush I/O) so persistence overlaps foreground traffic.
TICK_BACKGROUND_BUDGET = 8

#: Modeled cost of migrating one block off a draining server (a block
#: copy over the data-plane network) and of re-extending a replica
#: chain. Both run as LOW-priority background steps — foreground ops are
#: never charged these.
DRAIN_STEP_COST_S = 200e-6
REPAIR_STEP_COST_S = 200e-6


class _CaptureStore:
    """Store shim that snapshots a flush instead of persisting it.

    The async-flush path serialises the data structure synchronously
    (so reclaiming its blocks immediately afterwards is safe) and hands
    the captured bytes to a background task that performs the actual
    external-store write.
    """

    def __init__(self) -> None:
        self.path: Optional[str] = None
        self.data: Optional[bytes] = None

    def put(self, path: str, data: bytes) -> None:
        self.path = path
        self.data = data


class JiffyController(ControlPlane):
    """Controller for one shard of the control plane.

    Args:
        config: system configuration (block size, lease duration, ...).
        pool: the data-plane memory pool this controller allocates from.
            If omitted, a single-server pool with ``default_blocks``
            blocks is created.
        clock: time source for leases; defaults to the wall clock.
        external_store: flush/load target for expired or persisted data.
        default_blocks: pool size when ``pool`` is omitted.
        registry: metrics registry this deployment records into. Defaults
            to a fresh :class:`~repro.telemetry.MetricsRegistry`, so two
            controllers in one process never mix their numbers; pass
            ``repro.telemetry.get_registry()`` to publish process-wide, or
            a registry created with ``enabled=False`` for a no-op mode.
    """

    def __init__(
        self,
        config: Optional[JiffyConfig] = None,
        pool: Optional[MemoryPool] = None,
        clock: Optional[Clock] = None,
        external_store: Optional[ExternalStore] = None,
        default_blocks: int = 1024,
        registry: Optional[MetricsRegistry] = None,
        scheduler: Optional[BackgroundScheduler] = None,
    ) -> None:
        self.config = config if config is not None else JiffyConfig()
        self.clock = clock if clock is not None else WallClock()
        if pool is None:
            if self.config.tiering == "adaptive":
                from repro.storage.tier import TIER_BY_NAME

                pool = TieredMemoryPool(
                    self.config.block_size,
                    tiers=[
                        TIER_BY_NAME[name] for name in self.config.tier_chain
                    ],
                    tier_budgets=self.config.tier_budget_map(),
                )
            else:
                pool = MemoryPool(self.config.block_size)
            pool.add_server(default_blocks)
        if pool.block_size != self.config.block_size:
            raise ValueError(
                f"pool block size {pool.block_size} != configured "
                f"{self.config.block_size}"
            )
        self.pool = pool
        self.external_store = (
            external_store if external_store is not None else ExternalStore()
        )
        self.telemetry = registry if registry is not None else MetricsRegistry()
        # Deferred work (async flush I/O) runs here; drained by
        # drain_background() and polled from tick() so persistence
        # overlaps foreground traffic instead of stalling the sweep.
        self.background = (
            scheduler
            if scheduler is not None
            else BackgroundScheduler(clock=self.clock, registry=self.telemetry)
        )
        self._default_blocks = default_blocks
        # Chain replication (§4.2.2): at replication_factor >= 2 every
        # allocated block becomes a chain head with backups on distinct
        # servers, so a killed server loses nothing.
        self.replicator: Optional[ReplicaManager] = None
        if self.config.replication_factor > 1:
            self.replicator = ReplicaManager(
                pool,
                self.config.replication_factor,
                registry=self.telemetry,
            )
        self.allocator = BlockAllocator(
            pool, registry=self.telemetry, replicator=self.replicator
        )
        self.leases = LeaseManager(
            self.clock,
            self.config.lease_duration,
            registry=self.telemetry,
        )
        self.metadata = MetadataManager()
        self._jobs: Dict[str, AddressHierarchy] = {}
        # Control-plane counters live in the registry; the attribute
        # names below are kept as read-through properties.
        self._c_ops = self.telemetry.counter("controller.ops_handled")
        self._c_scale_up = self.telemetry.counter("controller.scale_up_signals")
        self._c_scale_down = self.telemetry.counter("controller.scale_down_signals")
        self._c_expired = self.telemetry.counter("controller.prefixes_expired")
        self._c_expiry_reclaimed = self.telemetry.counter(
            "controller.blocks_reclaimed_by_expiry"
        )
        self._c_flushes = self.telemetry.counter("controller.flushes")
        self._h_sweep = self.telemetry.histogram("controller.expiry_sweep.latency_s")
        self._h_flush_bytes = self.telemetry.histogram("controller.flush.bytes")
        self._h_flush_duration = self.telemetry.histogram("controller.flush.duration_s")
        self._c_joined = self.telemetry.counter("server.joined")
        self._c_draining = self.telemetry.counter("server.draining")
        self._c_removed = self.telemetry.counter("server.removed")
        self._c_killed = self.telemetry.counter("server.killed")
        self._c_migrated = self.telemetry.counter("pool.blocks_migrated")
        self._c_lost = self.telemetry.counter("pool.blocks_lost")
        # Membership state: block ids that physically moved (drain) or
        # were promoted (kill) forward old -> new here, so clients and
        # data structures keep using the id they cached — get_block and
        # reclaim_block resolve transparently.
        self._forwards: Dict[BlockId, BlockId] = {}
        # Draining servers with a drain task currently in flight; tick()
        # re-kicks drains for draining servers not in this set (e.g. the
        # pool was full when the last attempt ran).
        self._active_drains: Set[str] = set()
        # Pocket-style capacity autoscaling in the tick loop (§3 fn 4).
        self.autoscaler: Optional[ClusterAutoscaler] = None
        if self.config.autoscale:
            blocks_per = self.config.autoscale_blocks_per_server
            if blocks_per <= 0:
                sizes = [s.num_blocks for s in pool.servers()]
                blocks_per = max(sizes) if sizes else default_blocks
            self.autoscaler = ClusterAutoscaler(
                self,
                blocks_per,
                low_free_fraction=self.config.autoscale_low_free,
                high_free_fraction=self.config.autoscale_high_free,
                min_servers=self.config.autoscale_min_servers,
            )
        # Adaptive tiering (Jenga-style): the manager scans from tick(),
        # promotes hot spill blocks toward DRAM and demotes cold DRAM
        # blocks down the chain, with every copy a LOW-priority
        # background task. (JiffyConfig rejects adaptive + replication:
        # tier moves would bypass chain maintenance.)
        self.tier_manager: Optional[AdaptiveTierManager] = None
        if isinstance(pool, TieredMemoryPool):
            pool.bind_registry(self.telemetry)
            if self.config.tiering == "adaptive":
                self.tier_manager = AdaptiveTierManager(
                    pool,
                    self.clock,
                    self.background,
                    dwell_s=self.config.tier_dwell_s,
                    confirm_scans=self.config.tier_confirm_scans,
                    scan_interval_s=self.config.tier_scan_interval_s,
                    registry=self.telemetry,
                    on_move=self._tier_move_hook,
                )
        # Optional flight recorder (see repro.telemetry.timeseries):
        # pumped from tick(), sampling runs as LOW-priority background
        # work — never inside a foreground op.
        self.flight_sampler = None

    # ------------------------------------------------------------------
    # Registry-backed counters (attribute back-compat)
    # ------------------------------------------------------------------

    @property
    def ops_handled(self) -> int:
        """Every externally visible control-plane request handled."""
        return self._c_ops.value

    @property
    def scale_up_signals(self) -> int:
        return self._c_scale_up.value

    @property
    def scale_down_signals(self) -> int:
        return self._c_scale_down.value

    @property
    def prefixes_expired(self) -> int:
        return self._c_expired.value

    @property
    def blocks_reclaimed_by_expiry(self) -> int:
        return self._c_expiry_reclaimed.value

    # ------------------------------------------------------------------
    # Job registration
    # ------------------------------------------------------------------

    def register_job(self, job_id: str) -> AddressHierarchy:
        """Register a job, creating its (initially empty) hierarchy."""
        self._c_ops.inc()
        if not job_id:
            raise RegistrationError("job id must be non-empty")
        if job_id in self._jobs:
            raise RegistrationError(f"job {job_id!r} already registered")
        hierarchy = AddressHierarchy(job_id)
        self._jobs[job_id] = hierarchy
        return hierarchy

    def deregister_job(self, job_id: str, flush: bool = False) -> int:
        """Release every resource of a job; returns blocks reclaimed.

        With ``flush=True`` the job's data is persisted to the external
        store first (mirrors a graceful shutdown); the default matches
        Pocket's semantics where deregistration simply frees resources.
        """
        self._c_ops.inc()
        hierarchy = self._hierarchy(job_id)
        reclaimed = 0
        for node in list(hierarchy.nodes()):
            if flush and node.datastructure is not None and node.block_ids:
                self._flush_node(node)
            reclaimed += self.allocator.reclaim_all(node)
        self.metadata.remove_job(job_id)
        del self._jobs[job_id]
        return reclaimed

    def is_registered(self, job_id: str) -> bool:
        return job_id in self._jobs

    def jobs(self) -> List[str]:
        return list(self._jobs)

    def hierarchy(self, job_id: str) -> AddressHierarchy:
        """The address hierarchy for a registered job."""
        return self._hierarchy(job_id)

    def _hierarchy(self, job_id: str) -> AddressHierarchy:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise RegistrationError(f"job {job_id!r} is not registered") from None

    # ------------------------------------------------------------------
    # Address hierarchy management (Table 1)
    # ------------------------------------------------------------------

    def create_addr_prefix(
        self,
        job_id: str,
        name: str,
        parents: Sequence[str] = (),
        initial_blocks: int = 0,
        lease_duration: Optional[float] = None,
    ) -> AddressNode:
        """Create an address prefix, optionally pre-allocating blocks."""
        self._c_ops.inc()
        hierarchy = self._hierarchy(job_id)
        node = hierarchy.add_node(name, parents=parents)
        node.lease_duration = lease_duration
        self.leases.start(node)
        for _ in range(initial_blocks):
            self.allocator.allocate(node)
        return node

    def create_hierarchy(
        self, job_id: str, dag: Mapping[str, Sequence[str]]
    ) -> AddressHierarchy:
        """Build the whole address hierarchy from an execution DAG."""
        self._c_ops.inc()
        if job_id not in self._jobs:
            raise RegistrationError(f"job {job_id!r} is not registered")
        existing = self._jobs[job_id]
        if len(existing):
            raise RegistrationError(
                f"job {job_id!r} already has an address hierarchy"
            )
        hierarchy = AddressHierarchy.from_dag(job_id, dag)
        # Start every node's lease through the manager so the job's
        # expiry floor is tracked from creation (the heap-driven sweep
        # only visits jobs with a scheduled floor).
        for node in hierarchy.nodes():
            self.leases.start(node)
        self._jobs[job_id] = hierarchy
        return hierarchy

    def add_dependency(self, job_id: str, prefix: str, parent: str) -> None:
        """Add a data-dependency edge discovered during execution.

        §3.1: when the execution plan is not known a priori (dynamic
        query plans), Jiffy "deduces the rest on-the-fly based on the
        intermediate data dependencies between the job's tasks". Tasks
        register late edges here as they discover which outputs they
        actually read.
        """
        self._c_ops.inc()
        self._hierarchy(job_id).add_parent(prefix, parent)

    def resolve(self, job_id: str, prefix: str) -> AddressNode:
        """Resolve an address-prefix path for a job."""
        self._c_ops.inc()
        return self._hierarchy(job_id).get_node(prefix)

    def check_permission(self, job_id: str, prefix: str, principal: str) -> None:
        """Enforce access control on a prefix (§4.2.1 permissions)."""
        node = self._hierarchy(job_id).get_node(prefix)
        if principal not in node.permissions:
            raise PermissionError_(
                f"{principal!r} may not access {job_id}:{prefix}"
            )

    def grant(self, job_id: str, prefix: str, principal: str) -> None:
        """Add a principal to a prefix's access list."""
        self._c_ops.inc()
        self._hierarchy(job_id).get_node(prefix).permissions.add(principal)

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------

    def renew_lease(self, job_id: str, prefix: str, propagate: bool = True) -> int:
        """Renew the lease on a prefix (DAG-propagated by default)."""
        self._c_ops.inc()
        node = self._hierarchy(job_id).get_node(prefix)
        return self.leases.renew(node, propagate=propagate)

    def get_lease_duration(self, job_id: str, prefix: str) -> float:
        """The effective lease duration of a prefix."""
        self._c_ops.inc()
        node = self._hierarchy(job_id).get_node(prefix)
        return self.leases.lease_duration_of(node)

    def start_lease(self, job_id: str, prefix: str) -> None:
        """(Re)start a prefix's lease clock, clearing its expired mark."""
        self._c_ops.inc()
        node = self._hierarchy(job_id).get_node(prefix)
        self.leases.start(node)

    def tick(self) -> List[AddressNode]:
        """Run one expiry-worker pass; returns the prefixes expired.

        For each newly expired prefix: flush its data to the external
        store (if configured — §3.2 guarantees data survives expiry) and
        reclaim its blocks for reuse by other jobs.
        """
        sweep_start = perf_counter()
        expired: List[AddressNode] = []
        # Heap peek: on the vast majority of ticks no job's expiry floor
        # has lapsed, so the sweep (and its span/bookkeeping) is skipped
        # outright — the expiry worker costs O(1) when nothing is due.
        if self.leases.due(self.clock.now()):
            with trace.span(
                "controller.expiry_sweep", jobs=len(self._jobs)
            ) as span:
                expired = self.leases.collect_expired(self._jobs)
                for node in expired:
                    if not node.block_ids:
                        continue
                    if (
                        self.config.flush_on_expiry
                        and node.datastructure is not None
                    ):
                        self._flush_node(node)
                    self._c_expiry_reclaimed.inc(
                        self.allocator.reclaim_all(node)
                    )
                    self._c_expired.inc()
                    hook = getattr(
                        node.datastructure, "_on_expiry_reclaimed", None
                    )
                    if hook is not None:
                        hook()
                span.set_attr("expired", len(expired))
        # Each sweep also advances deferred background work a little, so
        # async flush I/O drains under a steady tick cadence.
        if self.flight_sampler is not None:
            self.flight_sampler.pump(self.background)
        # Tier-manager scan: decays heats and submits promotion/demotion
        # copies as LOW background tasks, which the poll below (and every
        # later tick) advances — movement never runs inside a client op.
        if self.tier_manager is not None:
            self.tier_manager.maybe_scan()
        self.background.poll(TICK_BACKGROUND_BUDGET)
        # Capacity autoscaling: pool-utilisation bands join/drain servers
        # as the trace replays (§3 footnote 4, Pocket policy).
        if self.autoscaler is not None:
            self.autoscaler.evaluate()
        # Re-kick drains that stalled (pool was full) or arrived while a
        # previous drain task was in flight.
        for server_id in self.pool.draining_servers():
            if server_id not in self._active_drains:
                self._submit_drain(server_id)
        self._h_sweep.record(perf_counter() - sweep_start)
        return expired

    def drain_background(self) -> int:
        """Run all pending background work to completion; returns steps.

        Covers the controller's own deferred tasks (async flush I/O) and
        every registered data structure's scheduler (in-flight
        repartition migrations) — after this returns, the deployment is
        in the state the fully synchronous path would have produced.
        """
        steps = self.background.drain()
        for hierarchy in self._jobs.values():
            for node in hierarchy.nodes():
                ds_drain = getattr(node.datastructure, "drain_background", None)
                if ds_drain is not None:
                    steps += ds_drain()
        return steps

    # ------------------------------------------------------------------
    # Flight recording
    # ------------------------------------------------------------------

    def attach_sampler(self, sampler) -> None:
        """Record this deployment into a flight-recorder sampler.

        ``tick()`` pumps the sampler through this controller's
        background scheduler, and an occupancy collector refreshes the
        per-server and per-tenant gauges (``pool.server.*{server=...}``,
        ``job.*{job=...}``) right before each sample — values nothing
        maintains incrementally.
        """
        self.flight_sampler = sampler
        sampler.add_collector(self._collect_occupancy)

    def _collect_occupancy(self) -> None:
        reg = self.telemetry
        for server in self.pool.servers():
            sid = server.server_id
            reg.gauge("pool.server.used_bytes", server=sid).set(
                server.used_bytes()
            )
            reg.gauge("pool.server.allocated_blocks", server=sid).set(
                server.allocated_blocks
            )
            reg.gauge("pool.server.free_blocks", server=sid).set(
                server.free_blocks
            )
        spill_servers = getattr(self.pool, "_spill_servers", None)
        if spill_servers:
            for sid, server in spill_servers.items():
                reg.gauge("pool.server.used_bytes", server=sid).set(
                    server.used_bytes()
                )
                reg.gauge("pool.server.allocated_blocks", server=sid).set(
                    server.allocated_blocks
                )
        for job_id in self._jobs:
            reg.gauge("job.blocks", job=job_id).set(
                self.allocator.blocks_held_by(job_id)
            )
            reg.gauge("job.used_bytes", job=job_id).set(self.used_bytes(job_id))
        sync = getattr(self.pool, "sync_telemetry", None)
        if sync is not None:
            sync()

    # ------------------------------------------------------------------
    # Block allocation (the §3.3 scale-up / scale-down path)
    # ------------------------------------------------------------------

    def allocate_block(self, job_id: str, prefix: str) -> Block:
        """Handle an overload signal: allocate a new block to a prefix."""
        self._c_ops.inc()
        self._c_scale_up.inc()
        node = self._hierarchy(job_id).get_node(prefix)
        self._check_not_expired(node)
        block = self.allocator.allocate(node)
        self._issue_block(block)
        return block

    def try_allocate_block(self, job_id: str, prefix: str) -> Optional[Block]:
        """Like :meth:`allocate_block`, but None on pool exhaustion."""
        self._c_ops.inc()
        self._c_scale_up.inc()
        node = self._hierarchy(job_id).get_node(prefix)
        self._check_not_expired(node)
        return self._issue_block(self.allocator.try_allocate(node))

    def _check_not_expired(self, node: AddressNode) -> None:
        # Blocks allocated to an already-expired prefix would never be
        # reclaimed by the expiry worker (it marks each prefix once);
        # require an explicit renewal or loadAddrPrefix first.
        if node.expired:
            from repro.errors import LeaseExpiredError

            raise LeaseExpiredError(
                f"prefix {node.job_id}:{node.name} has expired; renew its "
                "lease (or loadAddrPrefix) before allocating"
            )

    def reclaim_block(self, job_id: str, prefix: str, block_id: BlockId) -> None:
        """Handle an underload signal: reclaim a (merged-away) block."""
        self._c_ops.inc()
        self._c_scale_down.inc()
        node = self._hierarchy(job_id).get_node(prefix)
        self.allocator.reclaim(node, self._resolve_forward(block_id))

    def blocks_of(self, job_id: str, prefix: str) -> List[Block]:
        """Live blocks of a prefix."""
        node = self._hierarchy(job_id).get_node(prefix)
        return self.allocator.blocks_of(node)

    def get_block(self, block_id: BlockId, job_id: Optional[str] = None) -> Block:
        """Resolve a block id to its :class:`Block` (the data plane).

        ``job_id`` is unused here — a single controller owns one pool —
        but part of the surface so sharded deployments can route.
        Ids of blocks that migrated off a drained server or were
        promoted after a kill resolve to their current physical block.
        """
        return self.pool.get_block(self._resolve_forward(block_id))

    def _resolve_forward(self, block_id: BlockId) -> BlockId:
        forwards = self._forwards
        while block_id in forwards:
            block_id = forwards[block_id]
        return block_id

    def _forward_block(self, old_id: BlockId, new_id: BlockId) -> None:
        """Record ``old_id -> new_id`` with path compression.

        Entries already pointing at ``old_id`` are rewritten to
        ``new_id`` so every chain stays one hop long. That matters once
        ids can be *reused*: tier moves return DRAM blocks to the free
        pool (unlike drains, whose server ids never come back), and
        :meth:`_issue_block` deletes a reused id's own entry — a
        multi-hop chain routed through it would silently re-route to
        the wrong block.
        """
        for key, value in self._forwards.items():
            if value == old_id:
                self._forwards[key] = new_id
        self._forwards[old_id] = new_id

    def _issue_block(self, block: Optional[Block]) -> Optional[Block]:
        """Hand out a freshly allocated block, clearing stale forwards.

        A forward for this id belongs to a previous incarnation that
        moved away; left in place it would shadow the new block on
        every :meth:`get_block`.
        """
        if block is not None:
            self._forwards.pop(block.block_id, None)
        return block

    # ------------------------------------------------------------------
    # Elastic server membership (§3, §4.2.2; InfiniStore-style)
    # ------------------------------------------------------------------

    def join_server(
        self,
        num_blocks: Optional[int] = None,
        server_id: Optional[str] = None,
    ) -> str:
        """Attach a new memory server; its capacity is allocatable
        immediately. Returns the server id.

        ``num_blocks`` defaults to the largest server already in the
        pool (or the controller's ``default_blocks`` for an empty pool).
        """
        self._c_ops.inc()
        if num_blocks is None:
            sizes = [s.num_blocks for s in self.pool.servers()]
            num_blocks = max(sizes) if sizes else self._default_blocks
        sid = self.pool.add_server(num_blocks, server_id=server_id)
        # A reused server id must not resurrect forwards that pointed
        # away from a previous incarnation's blocks.
        prefix = f"{sid}:"
        self._forwards = {
            old: new
            for old, new in self._forwards.items()
            if not old.startswith(prefix)
        }
        self._c_joined.inc()
        return sid

    def leave_server(self, server_id: str) -> int:
        """Gracefully remove a server: drain-and-migrate, then detach.

        The server stops receiving new allocations immediately; its
        resident blocks are migrated off by LOW-priority background
        steps (one block per step), so the foreground path is never
        charged migration latency. An empty server is removed at once.
        Returns the number of blocks resident at the time of the call.
        """
        self._c_ops.inc()
        if not self.pool.has_server(server_id):
            raise BlockError(f"no server {server_id} in pool")
        resident = len(self.pool.blocks_on(server_id))
        if not self.pool.is_draining(server_id):
            self.pool.mark_draining(server_id)
            self._c_draining.inc()
        if resident == 0:
            self._finish_leave(server_id)
            return 0
        self._submit_drain(server_id)
        return resident

    def list_servers(self) -> List[Dict[str, Any]]:
        """Membership view: one row per pool server, sorted by id."""
        self._c_ops.inc()
        rows = []
        for server in self.pool.servers():
            rows.append(
                {
                    "server_id": server.server_id,
                    "num_blocks": server.num_blocks,
                    "free_blocks": server.free_blocks,
                    "allocated_blocks": server.allocated_blocks,
                    "draining": self.pool.is_draining(server.server_id),
                }
            )
        return sorted(rows, key=lambda r: str(r["server_id"]))

    def kill_server(self, server_id: str) -> Dict[str, int]:
        """Crash a server (fault injection): its memory is gone *now*.

        Recovery: lost backups are spliced out of their chains (repairs
        scheduled in the background); lost chain heads promote their
        first surviving replica — committed data is intact because
        writes propagated down the chain before acking; unreplicated
        blocks are recorded as data loss. Returns counts:
        ``{"lost_blocks", "promoted", "data_lost"}``.
        """
        lost = self.pool.kill_server(server_id)
        self._active_drains.discard(server_id)
        self._c_killed.inc()
        promoted = 0
        data_lost = 0
        repair_heads: List[BlockId] = []
        for block_id in lost:
            if self.replicator is not None and self.replicator.is_backup(
                block_id
            ):
                primary = self.replicator.drop_backup(block_id)
                if primary is not None:
                    repair_heads.append(primary)
                continue
            owner = None
            try:
                owner = self.allocator.owner_of(block_id)
            except BlockError:
                pass
            new_head = None
            if self.replicator is not None:
                new_head = self.replicator.promote(block_id, server_id)
            if new_head is not None:
                promoted += 1
                if owner is not None:
                    node = self._hierarchy(owner[0]).get_node(owner[1])
                    self.allocator.rebind(node, block_id, new_head.block_id)
                self._forward_block(block_id, new_head.block_id)
                repair_heads.append(new_head.block_id)
            elif owner is not None:
                data_lost += 1
                self._c_lost.inc()
                node = self._hierarchy(owner[0]).get_node(owner[1])
                self.allocator.forget(node, block_id)
                hook = getattr(
                    node.datastructure, "_on_blocks_relocated", None
                )
                if hook is not None:
                    hook([block_id], lost=True)
            if new_head is not None and owner is not None:
                node = self._hierarchy(owner[0]).get_node(owner[1])
                hook = getattr(
                    node.datastructure, "_on_blocks_relocated", None
                )
                if hook is not None:
                    hook([block_id])
        if repair_heads:
            self.background.submit(
                [
                    (REPAIR_STEP_COST_S, self._repair_step_for(primary_id))
                    for primary_id in dict.fromkeys(repair_heads)
                ],
                name=f"repair:{server_id}",
                priority=LOW,
            )
        return {
            "lost_blocks": len(lost),
            "promoted": promoted,
            "data_lost": data_lost,
        }

    # -- drain machinery -----------------------------------------------

    def _submit_drain(self, server_id: str) -> None:
        if server_id in self._active_drains:
            return
        block_ids = self.pool.blocks_on(server_id)
        if not block_ids:
            self._finish_leave(server_id)
            return
        self._active_drains.add(server_id)
        self.background.submit(
            [
                (
                    DRAIN_STEP_COST_S,
                    lambda bid=bid: self._drain_step(server_id, bid),
                )
                for bid in block_ids
            ],
            name=f"drain:{server_id}",
            priority=LOW,
            on_done=lambda task: self._finish_drain(server_id),
        )

    def _drain_step(self, server_id: str, block_id: BlockId) -> None:
        if not self.pool.has_server(server_id):
            return  # killed mid-drain
        if not self.pool.is_draining(server_id):
            return  # drain cancelled
        if block_id not in self.pool.blocks_on(server_id):
            return  # already reclaimed or migrated
        self._move_block(server_id, block_id)

    def _finish_drain(self, server_id: str) -> None:
        self._active_drains.discard(server_id)
        if not self.pool.has_server(server_id):
            return
        if not self.pool.is_draining(server_id):
            return
        if not self.pool.blocks_on(server_id):
            self._finish_leave(server_id)
        # else: stalled (pool was full) — tick() re-kicks the drain.

    def _finish_leave(self, server_id: str) -> None:
        self.pool.remove_server(server_id)
        self._c_removed.inc()

    def _move_block(self, server_id: str, block_id: BlockId) -> None:
        """Migrate one block off a draining server (atomic cut-over)."""
        if self.replicator is not None and self.replicator.is_backup(block_id):
            self.replicator.move_backup(block_id)
            return
        try:
            job_id, prefix = self.allocator.owner_of(block_id)
        except BlockError:
            return  # untracked block (standalone chain etc.) — leave it
        node = self._hierarchy(job_id).get_node(prefix)
        old = self.pool.get_block(block_id)
        exclude = {server_id}
        if self.replicator is not None:
            exclude |= self.replicator.chain_servers(block_id)
        try:
            new = self.pool.allocate(exclude=exclude)
        except CapacityError:
            return  # no room yet; tick() retries the drain later
        if new.server_id in exclude:
            # Tiered spill fallback may ignore the exclusion set.
            self.pool.reclaim(new.block_id)
            return
        self._issue_block(new)
        new.payload = old.payload
        new.mirror_used(old.used)
        new._sealed = old.sealed
        if self.replicator is not None:
            self.replicator.reattach(block_id, new)
        self.allocator.rebind(node, block_id, new.block_id)
        self._forward_block(block_id, new.block_id)
        self.pool.reclaim(block_id)
        self._c_migrated.inc()
        hook = getattr(node.datastructure, "_on_blocks_relocated", None)
        if hook is not None:
            hook([block_id])

    def _tier_move_hook(self, old_id: BlockId, new: Block) -> None:
        """Cut-over hook for the tier manager: rebind + forward.

        Runs between the data copy and the old block's reclaim — the
        same atomic sequence :meth:`_move_block` uses for drains, so a
        client resolving the old id mid-move always lands on a block
        holding the data. Unlike a drain, the vacated id returns to the
        free pool, so the owning data structure's *internal* id
        references are rewritten too (``_rebind_block``) — they must not
        depend on a forward that dies when the id is reallocated.
        """
        self._issue_block(new)
        self._forward_block(old_id, new.block_id)
        try:
            job_id, prefix = self.allocator.owner_of(old_id)
        except BlockError:
            return  # untracked block (standalone structure) — forwarded only
        node = self._hierarchy(job_id).get_node(prefix)
        self.allocator.rebind(node, old_id, new.block_id)
        rebind = getattr(node.datastructure, "_rebind_block", None)
        if rebind is not None:
            rebind(old_id, new.block_id)
        hook = getattr(node.datastructure, "_on_blocks_relocated", None)
        if hook is not None:
            hook([old_id])

    def _repair_step_for(self, primary_id: BlockId):
        def _repair() -> None:
            if self.replicator is None:
                return
            while self.replicator.repair_chain(primary_id):
                pass

        return _repair

    # ------------------------------------------------------------------
    # Allocation-policy hooks (quotas — §3.1 policy-over-mechanism)
    # ------------------------------------------------------------------

    def set_quota(self, job_id: str, max_blocks: Optional[int]) -> None:
        """Cap a job's concurrent block count (None removes the cap)."""
        self.allocator.set_quota(job_id, max_blocks)

    def quota_of(self, job_id: str) -> Optional[int]:
        """A job's current block quota, if any."""
        return self.allocator.quota_of(job_id)

    def blocks_held_by(self, job_id: str) -> int:
        """Blocks currently allocated across all of a job's prefixes."""
        return self.allocator.blocks_held_by(job_id)

    # ------------------------------------------------------------------
    # Data structure registration & metadata
    # ------------------------------------------------------------------

    def register_datastructure(
        self,
        job_id: str,
        prefix: str,
        ds_type: str,
        ds: Optional[object],
        partitioning: Optional[Mapping[str, Any]] = None,
    ) -> PartitionMetadata:
        """Bind a data-structure instance to a prefix.

        ``partitioning`` seeds the initial partition map in the same
        control-plane operation — remote deployments coalesce the
        registration and the first metadata write into one RPC.
        """
        self._c_ops.inc()
        node = self._hierarchy(job_id).get_node(prefix)
        node.ds_type = ds_type
        node.datastructure = ds
        entry = self.metadata.register(job_id, prefix, ds_type)
        if partitioning is not None:
            self.metadata.update(job_id, prefix, **dict(partitioning))
        return entry

    def partition_metadata(self, job_id: str, prefix: str) -> PartitionMetadata:
        """Fetch (client refresh path) the partition metadata of a prefix."""
        self._c_ops.inc()
        return self.metadata.get(job_id, prefix)

    def update_metadata(self, job_id: str, prefix: str, **partitioning: Any) -> int:
        """Merge keys into the partition map; returns the new version."""
        self._c_ops.inc()
        return self.metadata.update(job_id, prefix, **partitioning)

    # ------------------------------------------------------------------
    # Flush / load (Table 1)
    # ------------------------------------------------------------------

    def flush_prefix(self, job_id: str, prefix: str, external_path: str) -> int:
        """Persist a prefix's data structure to the external store.

        Returns the number of bytes flushed.
        """
        self._c_ops.inc()
        node = self._hierarchy(job_id).get_node(prefix)
        if node.datastructure is None:
            return 0
        return self._flush_node(node, external_path)

    def load_prefix(self, job_id: str, prefix: str, external_path: str) -> int:
        """Load a prefix's data structure back from the external store.

        Returns the number of bytes loaded.
        """
        self._c_ops.inc()
        node = self._hierarchy(job_id).get_node(prefix)
        if node.datastructure is None:
            raise RegistrationError(
                f"no data structure bound to {job_id}:{prefix}"
            )
        # A deferred flush of this (or any) prefix may still be queued;
        # the external store must be caught up before reading from it.
        if not self.background.idle:
            self.background.drain()
        node.expired = False
        self.leases.renew(node, propagate=False)
        loader = getattr(node.datastructure, "load_from")
        return loader(self.external_store, external_path)

    def _flush_node(self, node: AddressNode, external_path: Optional[str] = None) -> int:
        if external_path is None:
            external_path = f"{node.job_id}/{node.name}"
        flusher = getattr(node.datastructure, "flush_to", None)
        if flusher is None:
            return 0
        io_cost = EXTERNAL_STORE_PUT_S
        if not self.config.async_flush:
            with trace.span(
                "controller.flush", job=node.job_id, prefix=node.name
            ) as span:
                nbytes = flusher(self.external_store, external_path)
                span.set_attr("bytes", nbytes)
            io_cost += nbytes / EXTERNAL_STORE_BW_BYTES_PER_S
            # Synchronous persistence stalls the caller for the modeled
            # external-store write.
            cost.charge(io_cost)
            self._c_flushes.inc()
            self._h_flush_bytes.record(float(nbytes))
            self._h_flush_duration.record(io_cost)
            return nbytes
        # Async flush: serialise NOW (so the blocks can be reclaimed the
        # moment we return) but defer the external-store write to a
        # low-priority background task overlapped with foreground
        # traffic. Reads through load_prefix drain the queue first.
        capture = _CaptureStore()
        with trace.span(
            "controller.flush.snapshot", job=node.job_id, prefix=node.name
        ) as span:
            nbytes = flusher(capture, external_path)
            span.set_attr("bytes", nbytes)
        io_cost += nbytes / EXTERNAL_STORE_BW_BYTES_PER_S

        def persist() -> None:
            if capture.path is not None and capture.data is not None:
                self.external_store.put(capture.path, capture.data)
            self._c_flushes.inc()
            self._h_flush_bytes.record(float(nbytes))

        self.background.submit(
            [(io_cost, persist)],
            name=f"flush:{node.job_id}/{node.name}",
            priority=LOW,
            on_done=lambda task: self._h_flush_duration.record(task.duration_s),
        )
        return nbytes

    # ------------------------------------------------------------------
    # Introspection / statistics
    # ------------------------------------------------------------------

    def allocated_bytes(self, job_id: Optional[str] = None) -> int:
        """Bytes of block capacity allocated (to one job or overall)."""
        if job_id is None:
            return self.pool.allocated_bytes()
        hierarchy = self._hierarchy(job_id)
        return hierarchy.total_blocks() * self.config.block_size

    def used_bytes(self, job_id: Optional[str] = None) -> int:
        """Bytes actually used inside allocated blocks."""
        if job_id is None:
            return self.pool.used_bytes()
        hierarchy = self._hierarchy(job_id)
        total = 0
        for node in hierarchy.nodes():
            for block in self.allocator.blocks_of(node):
                total += block.used
        return total

    def utilization(self) -> float:
        """used / allocated across the whole pool (1.0 when nothing is allocated)."""
        allocated = self.pool.allocated_bytes()
        if allocated == 0:
            return 1.0
        return self.pool.used_bytes() / allocated

    def metadata_bytes(self) -> int:
        """Control-plane metadata footprint across all jobs (§6.4)."""
        return sum(h.metadata_bytes() for h in self._jobs.values())

    def total_blocks(self) -> int:
        """Physical block capacity of this controller's pool."""
        return self.pool.total_blocks

    def stats(self) -> Dict[str, int]:
        """Aggregate control-plane counters (ops, expiries, signals)."""
        return {
            "ops_handled": self.ops_handled,
            "scale_up_signals": self.scale_up_signals,
            "scale_down_signals": self.scale_down_signals,
            "prefixes_expired": self.prefixes_expired,
            "blocks_reclaimed_by_expiry": self.blocks_reclaimed_by_expiry,
        }

    def describe_job(self, job_id: str) -> List[dict]:
        """du-style per-prefix accounting for one job.

        Returns one row per prefix: name, data-structure type, block
        count, allocated/used bytes, lease remaining, expired flag.
        """
        hierarchy = self._hierarchy(job_id)
        rows = []
        for node in hierarchy.nodes():
            blocks = self.allocator.blocks_of(node)
            rows.append(
                {
                    "prefix": node.name,
                    "ds_type": node.ds_type,
                    "blocks": len(blocks),
                    "allocated_bytes": len(blocks) * self.config.block_size,
                    "used_bytes": sum(b.used for b in blocks),
                    "lease_remaining_s": self.leases.remaining(node),
                    "expired": node.expired,
                }
            )
        return sorted(rows, key=lambda r: r["prefix"])

    def __repr__(self) -> str:
        return (
            f"JiffyController(jobs={len(self._jobs)}, "
            f"blocks={self.allocator.allocated_blocks}/{self.pool.total_blocks})"
        )
