"""The transport-agnostic control-plane interface (§4.2.1).

Jiffy's control plane is *one* logical surface — registration, the
address hierarchy, leases, permissions, block allocation, data-structure
metadata, flush/load, and statistics — that scales by hash-sharding and
is reached over the network. This module pins that surface down as an
abstract base class so every consumer (clients, data structures, the
frameworks, experiments) depends on the interface rather than on one
concrete controller:

* :class:`~repro.core.controller.JiffyController` — the in-process
  single-shard controller;
* :class:`~repro.core.sharding.ShardedController` — N shards behind
  job-id hash routing (routed methods are *generated* from
  :data:`CONTROL_SURFACE`, so the shard proxy can never drift from the
  interface);
* :class:`~repro.rpc.remote.RemoteControlPlane` — the same surface
  spoken over the framed RPC transport, with batched control ops
  (one-request bulk lease renewal, coalesced register+metadata on
  data-structure init).

:data:`CONTROL_SURFACE` is the machine-readable contract: one
:class:`OpSpec` per method, marking how a multi-shard deployment routes
it. It drives the generated sharding proxy, the RPC server registration,
and the interface-drift test that asserts every backend implements the
full surface with matching signatures.
"""

from __future__ import annotations

import abc
import inspect
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.blocks.block import Block, BlockId
from repro.config import JiffyConfig
from repro.core.hierarchy import AddressHierarchy, AddressNode
from repro.core.metadata import PartitionMetadata
from repro.sim.clock import Clock
from repro.telemetry import MetricsRegistry

#: How a sharded deployment dispatches one control operation.
ROUTE_BY_JOB = "job"  #: hash the job id (first positional arg) to a shard
ROUTE_FANOUT = "fanout"  #: touches every shard (aggregate or broadcast)


@dataclass(frozen=True)
class OpSpec:
    """One control-plane operation in the machine-readable contract.

    Attributes:
        name: method name on :class:`ControlPlane`.
        routing: :data:`ROUTE_BY_JOB` (dispatch on the job-id argument)
            or :data:`ROUTE_FANOUT` (aggregates/broadcasts over shards).
        batched: the remote backend carries this op (or a bulk variant
            of it) in a single RPC for many logical operations.
        mutates: the op changes control-plane state, so a primary-backup
            pair must replay it on the backup
            (:data:`repro.core.failover.MUTATING_OPS` is derived from
            this flag).
    """

    name: str
    routing: str = ROUTE_BY_JOB
    batched: bool = False
    mutates: bool = False


#: The full control surface, in Table-1 order. Generated code (the
#: sharding proxy, the RPC service table, the drift check) iterates this
#: rather than hand-copying method lists.
CONTROL_SURFACE: Tuple[OpSpec, ...] = (
    # -- job registration ------------------------------------------------
    OpSpec("register_job", mutates=True),
    OpSpec("deregister_job", mutates=True),
    OpSpec("is_registered"),
    OpSpec("jobs", routing=ROUTE_FANOUT),
    # -- address hierarchy (Table 1) ------------------------------------
    OpSpec("create_addr_prefix", mutates=True),
    OpSpec("create_hierarchy", mutates=True),
    OpSpec("add_dependency", mutates=True),
    OpSpec("resolve"),
    OpSpec("hierarchy"),
    # -- permissions -----------------------------------------------------
    OpSpec("check_permission"),
    OpSpec("grant", mutates=True),
    # -- leases ----------------------------------------------------------
    OpSpec("renew_lease", mutates=True),
    OpSpec("renew_leases", routing=ROUTE_FANOUT, batched=True, mutates=True),
    OpSpec("get_lease_duration"),
    OpSpec("start_lease", mutates=True),
    OpSpec("tick", routing=ROUTE_FANOUT, mutates=True),
    OpSpec("drain_background", routing=ROUTE_FANOUT, mutates=True),
    # -- blocks (§3.3 scale-up / scale-down) -----------------------------
    OpSpec("allocate_block", mutates=True),
    OpSpec("try_allocate_block", mutates=True),
    OpSpec("reclaim_block", mutates=True),
    OpSpec("reclaim_blocks", batched=True, mutates=True),
    OpSpec("blocks_of"),
    OpSpec("get_block", routing=ROUTE_FANOUT),
    # -- elastic server membership (§3, §4.2.2) --------------------------
    OpSpec("join_server", routing=ROUTE_FANOUT, mutates=True),
    OpSpec("leave_server", routing=ROUTE_FANOUT, mutates=True),
    OpSpec("list_servers", routing=ROUTE_FANOUT, batched=True),
    # -- allocation policy hooks (fairness / quotas) ---------------------
    OpSpec("set_quota", mutates=True),
    OpSpec("quota_of"),
    OpSpec("blocks_held_by"),
    # -- data-structure metadata ----------------------------------------
    OpSpec("register_datastructure", batched=True, mutates=True),
    OpSpec("partition_metadata"),
    OpSpec("update_metadata", mutates=True),
    # -- flush / load (Table 1) -----------------------------------------
    OpSpec("flush_prefix", mutates=True),
    OpSpec("load_prefix", mutates=True),
    # -- introspection / statistics -------------------------------------
    OpSpec("allocated_bytes", routing=ROUTE_FANOUT),
    OpSpec("used_bytes", routing=ROUTE_FANOUT),
    OpSpec("utilization", routing=ROUTE_FANOUT),
    OpSpec("metadata_bytes", routing=ROUTE_FANOUT),
    OpSpec("total_blocks", routing=ROUTE_FANOUT),
    OpSpec("describe_job"),
    OpSpec("stats", routing=ROUTE_FANOUT),
)

#: Non-method attributes every backend must expose.
CONTROL_PROPERTIES: Tuple[str, ...] = ("config", "clock", "telemetry", "ops_handled")


def surface_spec(name: str) -> OpSpec:
    """The :class:`OpSpec` for one surface method."""
    for spec in CONTROL_SURFACE:
        if spec.name == name:
            return spec
    raise KeyError(f"{name!r} is not a control-surface method")


class ControlPlane(abc.ABC):
    """Abstract Jiffy control plane: what every backend must speak.

    Subclasses provide the mechanics (in-process state, shard routing,
    or RPC marshalling); callers — :class:`~repro.core.client.JiffyClient`,
    the data structures, the frameworks, the experiments — hold a
    ``ControlPlane`` and never care which backend is behind it.
    """

    # ------------------------------------------------------------------
    # Required attributes. Annotations rather than abstract properties:
    # the concrete backends assign these as plain instance attributes in
    # __init__ (an inherited setter-less property would reject that).
    # The drift test asserts their presence via CONTROL_PROPERTIES.
    # ------------------------------------------------------------------

    #: System configuration (block size, lease duration, ...).
    config: JiffyConfig
    #: The time source leases are measured against.
    clock: Clock
    #: The metrics registry this deployment records into.
    telemetry: MetricsRegistry

    @property
    @abc.abstractmethod
    def ops_handled(self) -> int:
        """Externally visible control-plane requests handled so far."""

    # ------------------------------------------------------------------
    # Job registration
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def register_job(self, job_id: str) -> Optional[AddressHierarchy]:
        """Register a job, creating its (initially empty) hierarchy."""

    @abc.abstractmethod
    def deregister_job(self, job_id: str, flush: bool = False) -> int:
        """Release every resource of a job; returns blocks reclaimed."""

    @abc.abstractmethod
    def is_registered(self, job_id: str) -> bool:
        """Whether a job id is currently registered."""

    @abc.abstractmethod
    def jobs(self) -> List[str]:
        """Every registered job id."""

    # ------------------------------------------------------------------
    # Address hierarchy (Table 1)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def create_addr_prefix(
        self,
        job_id: str,
        name: str,
        parents: Sequence[str] = (),
        initial_blocks: int = 0,
        lease_duration: Optional[float] = None,
    ) -> AddressNode:
        """Create an address prefix, optionally pre-allocating blocks."""

    @abc.abstractmethod
    def create_hierarchy(
        self, job_id: str, dag: Mapping[str, Sequence[str]]
    ) -> Optional[AddressHierarchy]:
        """Build the whole address hierarchy from an execution DAG."""

    @abc.abstractmethod
    def add_dependency(self, job_id: str, prefix: str, parent: str) -> None:
        """Register a data-dependency edge discovered during execution."""

    @abc.abstractmethod
    def resolve(self, job_id: str, prefix: str) -> AddressNode:
        """Resolve an address-prefix path for a job."""

    @abc.abstractmethod
    def hierarchy(self, job_id: str) -> AddressHierarchy:
        """The address hierarchy for a registered job."""

    # ------------------------------------------------------------------
    # Permissions (§4.2.1)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def check_permission(self, job_id: str, prefix: str, principal: str) -> None:
        """Enforce access control on a prefix; raises on denial."""

    @abc.abstractmethod
    def grant(self, job_id: str, prefix: str, principal: str) -> None:
        """Add a principal to a prefix's access list."""

    # ------------------------------------------------------------------
    # Leases (§3.2)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def renew_lease(self, job_id: str, prefix: str, propagate: bool = True) -> int:
        """Renew the lease on a prefix (DAG-propagated by default)."""

    def renew_leases(
        self, renewals: Sequence[Tuple[str, str]], propagate: bool = True
    ) -> List[int]:
        """Bulk renewal of ``[(job_id, prefix), ...]``.

        Default implementation loops :meth:`renew_lease`; backends with a
        wire in the path override this so one batch is one request.
        """
        return [
            self.renew_lease(job_id, prefix, propagate=propagate)
            for job_id, prefix in renewals
        ]

    @abc.abstractmethod
    def get_lease_duration(self, job_id: str, prefix: str) -> float:
        """The effective lease duration of a prefix."""

    @abc.abstractmethod
    def start_lease(self, job_id: str, prefix: str) -> None:
        """(Re)start a prefix's lease clock, clearing its expired mark."""

    @abc.abstractmethod
    def tick(self) -> List[AddressNode]:
        """Run one expiry-worker pass; returns the prefixes expired."""

    def drain_background(self) -> int:
        """Run all deferred background work (async flush I/O, in-flight
        repartition migrations) to completion; returns steps executed.

        Default implementation reports no background work; backends with
        a scheduler override this. Barriers and verification points call
        it to reach the state the fully synchronous path would produce.
        """
        return 0

    # ------------------------------------------------------------------
    # Blocks (§3.3)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def allocate_block(self, job_id: str, prefix: str) -> Block:
        """Handle an overload signal: allocate a new block to a prefix."""

    @abc.abstractmethod
    def try_allocate_block(self, job_id: str, prefix: str) -> Optional[Block]:
        """Like :meth:`allocate_block`, but None on pool exhaustion."""

    @abc.abstractmethod
    def reclaim_block(self, job_id: str, prefix: str, block_id: BlockId) -> None:
        """Handle an underload signal: reclaim a (merged-away) block."""

    def reclaim_blocks(
        self, job_id: str, prefix: str, block_ids: Sequence[BlockId]
    ) -> int:
        """Bulk reclaim of a prefix's blocks; returns blocks reclaimed.

        Default implementation loops :meth:`reclaim_block`; backends with
        a wire in the path override this so one teardown is one request
        (a data structure releasing N blocks would otherwise cost N RPCs).
        """
        for block_id in block_ids:
            self.reclaim_block(job_id, prefix, block_id)
        return len(block_ids)

    @abc.abstractmethod
    def blocks_of(self, job_id: str, prefix: str) -> List[Block]:
        """Live blocks of a prefix."""

    @abc.abstractmethod
    def get_block(self, block_id: BlockId, job_id: Optional[str] = None) -> Block:
        """Resolve a block id to its :class:`Block` (the data plane).

        ``job_id`` is a routing hint: a sharded deployment uses it to
        reach the owning shard without a search.
        """

    # ------------------------------------------------------------------
    # Elastic server membership (§3, §4.2.2)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def join_server(
        self,
        num_blocks: Optional[int] = None,
        server_id: Optional[str] = None,
    ) -> str:
        """Attach a new memory server (allocatable immediately); returns
        its id. ``num_blocks`` defaults to the deployment's server size."""

    @abc.abstractmethod
    def leave_server(self, server_id: str) -> int:
        """Gracefully remove a server: background drain-and-migrate,
        then detach. Returns the blocks resident at the time of the call."""

    @abc.abstractmethod
    def list_servers(self) -> List[Dict[str, Any]]:
        """Membership view: one dict per server (id, capacity, free,
        allocated, draining), sorted by server id."""

    # ------------------------------------------------------------------
    # Allocation-policy hooks
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def set_quota(self, job_id: str, max_blocks: Optional[int]) -> None:
        """Cap a job's concurrent block count (None removes the cap)."""

    @abc.abstractmethod
    def quota_of(self, job_id: str) -> Optional[int]:
        """A job's current block quota, if any."""

    @abc.abstractmethod
    def blocks_held_by(self, job_id: str) -> int:
        """Blocks currently allocated across all of a job's prefixes."""

    # ------------------------------------------------------------------
    # Data-structure metadata
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def register_datastructure(
        self,
        job_id: str,
        prefix: str,
        ds_type: str,
        ds: Optional[object],
        partitioning: Optional[Mapping[str, Any]] = None,
    ) -> PartitionMetadata:
        """Bind a data-structure instance to a prefix.

        ``partitioning`` seeds the initial partition metadata in the
        same control-plane operation — over RPC, registration and the
        metadata write coalesce into one request instead of two.
        """

    @abc.abstractmethod
    def partition_metadata(self, job_id: str, prefix: str) -> PartitionMetadata:
        """Fetch (client refresh path) a prefix's partition metadata."""

    @abc.abstractmethod
    def update_metadata(self, job_id: str, prefix: str, **partitioning: Any) -> int:
        """Merge keys into the partition map; returns the new version."""

    # ------------------------------------------------------------------
    # Flush / load (Table 1)
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def flush_prefix(self, job_id: str, prefix: str, external_path: str) -> int:
        """Persist a prefix's data structure to the external store."""

    @abc.abstractmethod
    def load_prefix(self, job_id: str, prefix: str, external_path: str) -> int:
        """Load a prefix's data structure back from the external store."""

    # ------------------------------------------------------------------
    # Introspection / statistics
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def allocated_bytes(self, job_id: Optional[str] = None) -> int:
        """Bytes of block capacity allocated (to one job or overall)."""

    @abc.abstractmethod
    def used_bytes(self, job_id: Optional[str] = None) -> int:
        """Bytes actually used inside allocated blocks."""

    @abc.abstractmethod
    def utilization(self) -> float:
        """used / allocated across the whole deployment."""

    @abc.abstractmethod
    def metadata_bytes(self) -> int:
        """Control-plane metadata footprint across all jobs (§6.4)."""

    @abc.abstractmethod
    def total_blocks(self) -> int:
        """Physical block capacity of the deployment's pool(s)."""

    @abc.abstractmethod
    def describe_job(self, job_id: str) -> List[dict]:
        """du-style per-prefix accounting rows for one job."""

    @abc.abstractmethod
    def stats(self) -> Dict[str, int]:
        """Aggregate control-plane counters (ops, expiries, signals)."""

    # ------------------------------------------------------------------
    # Paper-style camelCase aliases (Table 1 verbatim), shared by every
    # backend so paper code runs against local, sharded, and remote.
    # ------------------------------------------------------------------

    def registerJob(self, job_id: str) -> Optional[AddressHierarchy]:
        return self.register_job(job_id)

    def deregisterJob(self, job_id: str, flush: bool = False) -> int:
        return self.deregister_job(job_id, flush=flush)

    def createAddrPrefix(self, job_id: str, name: str, **kwargs: Any) -> AddressNode:
        return self.create_addr_prefix(job_id, name, **kwargs)

    def createHierarchy(
        self, job_id: str, dag: Mapping[str, Sequence[str]]
    ) -> Optional[AddressHierarchy]:
        return self.create_hierarchy(job_id, dag)

    def renewLease(self, job_id: str, prefix: str, propagate: bool = True) -> int:
        return self.renew_lease(job_id, prefix, propagate=propagate)

    def renewLeases(
        self, renewals: Sequence[Tuple[str, str]], propagate: bool = True
    ) -> List[int]:
        return self.renew_leases(renewals, propagate=propagate)

    def getLeaseDuration(self, job_id: str, prefix: str) -> float:
        return self.get_lease_duration(job_id, prefix)

    def flushAddrPrefix(self, job_id: str, prefix: str, external_path: str) -> int:
        return self.flush_prefix(job_id, prefix, external_path)

    def loadAddrPrefix(self, job_id: str, prefix: str, external_path: str) -> int:
        return self.load_prefix(job_id, prefix, external_path)


def signature_of(name: str) -> inspect.Signature:
    """The canonical signature of a surface method (drift checking)."""
    return inspect.signature(getattr(ControlPlane, name))


def make_control_plane(
    backend: str,
    config: Optional[JiffyConfig] = None,
    clock: Optional[Clock] = None,
    default_blocks: int = 1024,
    num_shards: int = 4,
    pool: Optional[Any] = None,
    pool_factory: Optional[Any] = None,
    external_store: Optional[Any] = None,
    registry: Optional[MetricsRegistry] = None,
    loop: Optional[Any] = None,
    network: Optional[Any] = None,
    service_time_s: float = 10e-6,
) -> ControlPlane:
    """Construct a control plane by backend name.

    Backends:

    * ``"local"`` — one in-process :class:`JiffyController`;
    * ``"sharded"`` — ``num_shards`` controller shards behind hash
      routing (``default_blocks`` is split evenly across shards unless a
      ``pool_factory`` provides per-shard pools);
    * ``"remote"`` — a :class:`JiffyController` served over the framed
      RPC transport on a discrete-event loop, fronted by a
      :class:`RemoteControlPlane` proxy. Simulation-only: the RPC layer
      runs on a :class:`~repro.sim.events.EventLoop`.

    The returned object is always a :class:`ControlPlane`; ``connect()``
    and every data structure work identically against each backend. For
    the remote backend the proxy additionally exposes ``.server`` and
    ``.loop`` so tests can reach the transport.
    """
    # Imports are local: the concrete backends import this module.
    if backend == "local":
        from repro.core.controller import JiffyController

        return JiffyController(
            config=config,
            pool=pool,
            clock=clock,
            external_store=external_store,
            default_blocks=default_blocks,
            registry=registry,
        )
    if backend == "sharded":
        from repro.core.sharding import ShardedController

        return ShardedController(
            num_shards,
            config=config,
            clock=clock,
            blocks_per_shard=max(default_blocks // num_shards, 1),
            external_store=external_store,
            registry=registry,
            pool_factory=pool_factory,
        )
    if backend == "remote":
        from repro.core.controller import JiffyController
        from repro.rpc.remote import RemoteControlPlane, serve_control_plane
        from repro.sim.events import EventLoop
        from repro.sim.network import NetworkModel

        if loop is None:
            loop = EventLoop(clock)  # type: ignore[arg-type]
        backing = JiffyController(
            config=config,
            pool=pool,
            clock=loop.clock,
            external_store=external_store,
            default_blocks=default_blocks,
            registry=registry,
        )
        server = serve_control_plane(
            backing, loop, service_time_s=service_time_s, registry=registry
        )
        return RemoteControlPlane(
            loop,
            server,
            network=network if network is not None else NetworkModel(sigma=0.0),
            registry=registry,
        )
    raise ValueError(
        f"unknown control-plane backend {backend!r} "
        "(expected 'local', 'sharded', or 'remote')"
    )


BACKENDS: Tuple[str, ...] = ("local", "sharded", "remote")
