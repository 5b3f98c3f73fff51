"""The Jiffy control plane served over the RPC layer.

Wires a :class:`~repro.core.plane.ControlPlane` behind an
:class:`~repro.rpc.server.RpcServer` and provides
:class:`RemoteControlPlane`, a client proxy that itself implements the
full :class:`~repro.core.plane.ControlPlane` surface — so ``connect()``,
the data structures, and the frameworks run unmodified against a
controller on the other side of the (simulated) network. This is also
how the Fig 12 queueing-validation experiment measures the
throughput-latency curve *emergently* instead of assuming M/M/1.

Three deliberate wire-protocol choices:

* **Batched control ops.** ``renew_leases`` ships a whole renewal batch
  in ONE request (a nested ``[[job, prefix], ...]`` list), and
  ``register_datastructure`` carries the initial partitioning so a
  data-structure init costs one RPC instead of register + metadata
  write. Without these the remote path is N× chattier than local.
* **Typed errors.** Handlers tag failures as ``"ErrorClass: message"``;
  the proxy re-raises the matching :mod:`repro.errors` class, so
  ``except LeaseExpiredError`` works identically on every backend.
* **Data plane stays off the wire.** Block payload access and live
  object binding go directly to the memory servers (§2: clients
  read/write blocks without the controller on the path); the proxy
  reaches them through the served plane, never through an RPC.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import errors
from repro.blocks.block import Block, BlockId
from repro.config import JiffyConfig
from repro.core.hierarchy import AddressHierarchy, AddressNode
from repro.core.metadata import PartitionMetadata
from repro.core.plane import CONTROL_SURFACE, ControlPlane
from repro.errors import JiffyError
from repro.rpc.client import RpcClient
from repro.rpc.framing import RpcError
from repro.rpc.server import RpcServer
from repro.sim.clock import Clock
from repro.sim.events import EventLoop
from repro.sim.network import NetworkModel
from repro.telemetry import MetricsRegistry

#: Surface methods never served over the wire: they hand out live
#: objects and belong to the data plane (§2 — clients reach memory
#: servers directly).
DATA_PLANE_METHODS = frozenset({"hierarchy", "get_block"})


# ----------------------------------------------------------------------
# Partitioning maps on the wire
# ----------------------------------------------------------------------
#
# The framed codec deliberately excludes dicts, so partitioning maps
# cross as JSON. Plain JSON stringifies non-string keys (the KV store's
# slot map is keyed by int hash-slot), so dicts are encoded as explicit
# key/value pair lists and rebuilt with their original key types.

_KV_MARK = "__kv__"


def _jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        return {_KV_MARK: [[_jsonable(k), _jsonable(v)] for k, v in value.items()]}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _unjsonable(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {_KV_MARK}:
            return {_unjsonable(k): _unjsonable(v) for k, v in value[_KV_MARK]}
        return {k: _unjsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_unjsonable(item) for item in value]
    return value


def pack_partitioning(partitioning: Optional[Mapping[str, Any]]) -> Optional[str]:
    """Encode a partitioning map for the wire (key types preserved)."""
    if partitioning is None:
        return None
    return json.dumps(_jsonable(dict(partitioning)))


def unpack_partitioning(payload: Optional[str]) -> Optional[Dict[str, Any]]:
    """Decode :func:`pack_partitioning` output."""
    if payload is None:
        return None
    return _unjsonable(json.loads(payload))


# ----------------------------------------------------------------------
# Typed errors across the wire
# ----------------------------------------------------------------------

_ERROR_CLASSES: Dict[str, type] = {
    name: obj
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, JiffyError)
}


def _typed(handler: Callable[..., Any]) -> Callable[..., Any]:
    """Tag library errors with their class name for the proxy to remap."""

    @functools.wraps(handler)
    def wrapper(*args: Any) -> Any:
        try:
            return handler(*args)
        except JiffyError as exc:
            raise RpcError(f"{type(exc).__name__}: {exc}") from None

    return wrapper


def _raise_mapped(exc: RpcError) -> "None":
    """Re-raise a tagged wire error as its original class."""
    name, sep, message = str(exc).partition(": ")
    cls = _ERROR_CLASSES.get(name)
    if sep and cls is not None:
        raise cls(message) from None
    raise exc


# ----------------------------------------------------------------------
# Server side: the full control surface on an RpcServer
# ----------------------------------------------------------------------


def serve_control_plane(
    plane: ControlPlane,
    loop: EventLoop,
    service_time_s: float = 10e-6,
    registry: Optional[MetricsRegistry] = None,
) -> RpcServer:
    """Expose a control plane's full surface on an RPC server.

    Every :data:`~repro.core.plane.CONTROL_SURFACE` method is served
    except the data-plane ones (:data:`DATA_PLANE_METHODS`). Methods
    whose natural arguments/returns are wire-friendly pass straight
    through; the rest get marshalling wrappers (DAGs and partitioning
    maps as JSON, blocks as block ids, nodes as names). The served plane
    is attached as ``server.control_plane`` so co-located clients can
    reach the data plane directly, as in the real system.
    """
    server = RpcServer(loop, service_time_s=service_time_s, registry=registry)

    def register_job(job_id: str) -> bool:
        plane.register_job(job_id)
        return True

    def create_addr_prefix(
        job_id: str,
        name: str,
        parents: Sequence[str],
        initial_blocks: int,
        lease_duration: Optional[float],
    ) -> str:
        node = plane.create_addr_prefix(
            job_id,
            name,
            parents=list(parents),
            initial_blocks=initial_blocks,
            lease_duration=lease_duration,
        )
        return node.name

    def create_hierarchy(job_id: str, dag_json: str) -> bool:
        dag: Mapping[str, List[str]] = json.loads(dag_json)
        plane.create_hierarchy(job_id, dag)
        return True

    def resolve(job_id: str, prefix: str) -> str:
        return plane.resolve(job_id, prefix).name

    def renew_leases(pairs: Sequence[Sequence[str]], propagate: bool) -> List[int]:
        # The batched renewal: one request covers the whole batch.
        return plane.renew_leases(
            [(job_id, prefix) for job_id, prefix in pairs], propagate=propagate
        )

    def tick() -> List[List[str]]:
        return [[node.job_id, node.name] for node in plane.tick()]

    def allocate_block(job_id: str, prefix: str) -> str:
        return plane.allocate_block(job_id, prefix).block_id

    def try_allocate_block(job_id: str, prefix: str) -> Optional[str]:
        block = plane.try_allocate_block(job_id, prefix)
        return None if block is None else block.block_id

    def reclaim_block(job_id: str, prefix: str, block_id: str) -> bool:
        plane.reclaim_block(job_id, prefix, block_id)
        return True

    def reclaim_blocks(job_id: str, prefix: str, block_ids: Sequence[str]) -> int:
        # The batched reclaim: a whole prefix teardown in one request.
        return plane.reclaim_blocks(job_id, prefix, list(block_ids))

    def blocks_of(job_id: str, prefix: str) -> List[str]:
        return [block.block_id for block in plane.blocks_of(job_id, prefix)]

    def register_datastructure(
        job_id: str, prefix: str, ds_type: str, partitioning_json: Optional[str]
    ) -> List[Any]:
        # The live instance stays client-side (it IS the data plane);
        # registration + the initial partitioning land in one request.
        entry = plane.register_datastructure(
            job_id,
            prefix,
            ds_type,
            None,
            partitioning=unpack_partitioning(partitioning_json),
        )
        return [entry.ds_type, entry.version, pack_partitioning(entry.partitioning)]

    def partition_metadata(job_id: str, prefix: str) -> List[Any]:
        entry = plane.partition_metadata(job_id, prefix)
        return [entry.ds_type, entry.version, pack_partitioning(entry.partitioning)]

    def update_metadata(job_id: str, prefix: str, partitioning_json: str) -> int:
        partitioning = unpack_partitioning(partitioning_json) or {}
        return plane.update_metadata(job_id, prefix, **partitioning)

    def describe_job(job_id: str) -> str:
        return json.dumps(plane.describe_job(job_id))

    def stats() -> str:
        return json.dumps(plane.stats())

    def list_servers() -> str:
        # The whole membership view in ONE request (a row per server
        # would be N RPCs); dict rows cross as JSON.
        return json.dumps(plane.list_servers())

    marshalled: Dict[str, Callable[..., Any]] = {
        "register_job": register_job,
        "create_addr_prefix": create_addr_prefix,
        "create_hierarchy": create_hierarchy,
        "resolve": resolve,
        "renew_leases": renew_leases,
        "tick": tick,
        "allocate_block": allocate_block,
        "try_allocate_block": try_allocate_block,
        "reclaim_block": reclaim_block,
        "reclaim_blocks": reclaim_blocks,
        "blocks_of": blocks_of,
        "register_datastructure": register_datastructure,
        "partition_metadata": partition_metadata,
        "update_metadata": update_metadata,
        "describe_job": describe_job,
        "stats": stats,
        "list_servers": list_servers,
    }
    for spec in CONTROL_SURFACE:
        if spec.name in DATA_PLANE_METHODS:
            continue
        handler = marshalled.get(spec.name, getattr(plane, spec.name))
        server.register(spec.name, _typed(handler))

    server.control_plane = plane  # type: ignore[attr-defined]
    return server


# ----------------------------------------------------------------------
# Client side: the full surface as a ControlPlane proxy
# ----------------------------------------------------------------------


class RemoteControlPlane(ControlPlane):
    """The full control surface spoken over the framed RPC transport.

    Control operations cross the wire; data-plane operations
    (:meth:`get_block`, :meth:`hierarchy`, live data-structure binding)
    go directly to the served plane through ``server.control_plane``,
    mirroring §2 where clients reach memory servers without the
    controller on the path. Simulation-only: the transport runs on a
    discrete-event loop.
    """

    def __init__(
        self,
        loop: EventLoop,
        server: RpcServer,
        network: Optional[NetworkModel] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        backing = getattr(server, "control_plane", None)
        if backing is None:
            raise RpcError(
                "server was not created by serve_control_plane() — "
                "the data plane is unreachable"
            )
        self.loop = loop
        self.server = server
        self._rpc = RpcClient(loop, server, network=network, registry=registry)
        self._plane: ControlPlane = backing
        self.config: JiffyConfig = backing.config
        self.clock: Clock = loop.clock
        self.telemetry: MetricsRegistry = self._rpc.telemetry

    def _call(self, method: str, *args: Any) -> Any:
        try:
            return self._rpc.call(method, *args)
        except RpcError as exc:
            _raise_mapped(exc)

    # -- job registration ----------------------------------------------

    def register_job(self, job_id: str) -> Optional[AddressHierarchy]:
        self._call("register_job", job_id)
        return self._plane.hierarchy(job_id)

    def deregister_job(self, job_id: str, flush: bool = False) -> int:
        return self._call("deregister_job", job_id, flush)

    def is_registered(self, job_id: str) -> bool:
        return self._call("is_registered", job_id)

    def jobs(self) -> List[str]:
        return self._call("jobs")

    # -- address hierarchy ----------------------------------------------

    def create_addr_prefix(
        self,
        job_id: str,
        name: str,
        parents: Sequence[str] = (),
        initial_blocks: int = 0,
        lease_duration: Optional[float] = None,
    ) -> AddressNode:
        created = self._call(
            "create_addr_prefix",
            job_id,
            name,
            list(parents),
            initial_blocks,
            lease_duration,
        )
        return self._plane.hierarchy(job_id).get_node(created)

    def create_hierarchy(
        self, job_id: str, dag: Mapping[str, Sequence[str]]
    ) -> Optional[AddressHierarchy]:
        self._call(
            "create_hierarchy", job_id, json.dumps({k: list(v) for k, v in dag.items()})
        )
        return self._plane.hierarchy(job_id)

    def add_dependency(self, job_id: str, prefix: str, parent: str) -> None:
        self._call("add_dependency", job_id, prefix, parent)

    def resolve(self, job_id: str, prefix: str) -> AddressNode:
        resolved = self._call("resolve", job_id, prefix)
        return self._plane.hierarchy(job_id).get_node(resolved)

    def hierarchy(self, job_id: str) -> AddressHierarchy:
        # Data-plane path: live hierarchies are not marshalled.
        return self._plane.hierarchy(job_id)

    # -- permissions -----------------------------------------------------

    def check_permission(self, job_id: str, prefix: str, principal: str) -> None:
        self._call("check_permission", job_id, prefix, principal)

    def grant(self, job_id: str, prefix: str, principal: str) -> None:
        self._call("grant", job_id, prefix, principal)

    # -- leases ----------------------------------------------------------

    def renew_lease(self, job_id: str, prefix: str, propagate: bool = True) -> int:
        return self._call("renew_lease", job_id, prefix, propagate)

    def renew_leases(
        self, renewals: Sequence[Tuple[str, str]], propagate: bool = True
    ) -> List[int]:
        """Bulk renewal in ONE request (vs N for the naive loop)."""
        if not renewals:
            return []
        return self._call(
            "renew_leases",
            [[job_id, prefix] for job_id, prefix in renewals],
            propagate,
        )

    def get_lease_duration(self, job_id: str, prefix: str) -> float:
        return self._call("get_lease_duration", job_id, prefix)

    def start_lease(self, job_id: str, prefix: str) -> None:
        self._call("start_lease", job_id, prefix)

    def tick(self) -> List[AddressNode]:
        expired = self._call("tick")
        return [
            self._plane.hierarchy(job_id).get_node(name) for job_id, name in expired
        ]

    def drain_background(self) -> int:
        return self._call("drain_background")

    # -- blocks ----------------------------------------------------------

    def allocate_block(self, job_id: str, prefix: str) -> Block:
        block_id = self._call("allocate_block", job_id, prefix)
        return self._plane.get_block(block_id, job_id)

    def try_allocate_block(self, job_id: str, prefix: str) -> Optional[Block]:
        block_id = self._call("try_allocate_block", job_id, prefix)
        if block_id is None:
            return None
        return self._plane.get_block(block_id, job_id)

    def reclaim_block(self, job_id: str, prefix: str, block_id: BlockId) -> None:
        self._call("reclaim_block", job_id, prefix, block_id)

    def reclaim_blocks(
        self, job_id: str, prefix: str, block_ids: Sequence[BlockId]
    ) -> int:
        """Bulk reclaim in ONE request (vs N for the naive loop)."""
        if not block_ids:
            return 0
        return self._call("reclaim_blocks", job_id, prefix, list(block_ids))

    def blocks_of(self, job_id: str, prefix: str) -> List[Block]:
        block_ids = self._call("blocks_of", job_id, prefix)
        return [self._plane.get_block(bid, job_id) for bid in block_ids]

    def get_block(self, block_id: BlockId, job_id: Optional[str] = None) -> Block:
        # Data-plane path: block payload access never crosses the
        # control-plane wire (§2).
        return self._plane.get_block(block_id, job_id)

    # -- elastic server membership ----------------------------------------

    def join_server(
        self,
        num_blocks: Optional[int] = None,
        server_id: Optional[str] = None,
    ) -> str:
        return self._call("join_server", num_blocks, server_id)

    def leave_server(self, server_id: str) -> int:
        return self._call("leave_server", server_id)

    def list_servers(self) -> List[Dict[str, Any]]:
        """The whole membership view in ONE request."""
        return json.loads(self._call("list_servers"))

    def kill_server(self, server_id: str) -> Dict[str, int]:
        """Fault injection: crash a server at the served plane.

        Deliberately NOT an RPC — a crashed server cannot answer one;
        the injector reaches the data plane directly, like pulling the
        plug on the real machine.
        """
        return self._plane.kill_server(server_id)  # type: ignore[attr-defined]

    # -- allocation-policy hooks -----------------------------------------

    def set_quota(self, job_id: str, max_blocks: Optional[int]) -> None:
        self._call("set_quota", job_id, max_blocks)

    def quota_of(self, job_id: str) -> Optional[int]:
        return self._call("quota_of", job_id)

    def blocks_held_by(self, job_id: str) -> int:
        return self._call("blocks_held_by", job_id)

    # -- data-structure metadata ----------------------------------------

    def register_datastructure(
        self,
        job_id: str,
        prefix: str,
        ds_type: str,
        ds: Optional[object],
        partitioning: Optional[Mapping[str, Any]] = None,
    ) -> PartitionMetadata:
        ds_type_out, version, payload = self._call(
            "register_datastructure",
            job_id,
            prefix,
            ds_type,
            pack_partitioning(partitioning),
        )
        # Bind the live instance at the data plane — the structure's
        # payload lives in the memory servers, not at the controller.
        self._plane.hierarchy(job_id).get_node(prefix).datastructure = ds
        return PartitionMetadata(
            ds_type=ds_type_out,
            version=version,
            partitioning=unpack_partitioning(payload) or {},
        )

    def partition_metadata(self, job_id: str, prefix: str) -> PartitionMetadata:
        ds_type, version, payload = self._call("partition_metadata", job_id, prefix)
        # A client-side snapshot — exactly the cached copy the paper's
        # clients hold and refresh when the version moves (§4.2.1).
        return PartitionMetadata(
            ds_type=ds_type,
            version=version,
            partitioning=unpack_partitioning(payload) or {},
        )

    def update_metadata(self, job_id: str, prefix: str, **partitioning: Any) -> int:
        return self._call(
            "update_metadata", job_id, prefix, pack_partitioning(partitioning)
        )

    # -- flush / load ----------------------------------------------------

    def flush_prefix(self, job_id: str, prefix: str, external_path: str) -> int:
        return self._call("flush_prefix", job_id, prefix, external_path)

    def load_prefix(self, job_id: str, prefix: str, external_path: str) -> int:
        return self._call("load_prefix", job_id, prefix, external_path)

    # -- introspection / statistics --------------------------------------

    def allocated_bytes(self, job_id: Optional[str] = None) -> int:
        return self._call("allocated_bytes", job_id)

    def used_bytes(self, job_id: Optional[str] = None) -> int:
        return self._call("used_bytes", job_id)

    def utilization(self) -> float:
        return self._call("utilization")

    def metadata_bytes(self) -> int:
        return self._call("metadata_bytes")

    def total_blocks(self) -> int:
        return self._call("total_blocks")

    def describe_job(self, job_id: str) -> List[dict]:
        return json.loads(self._call("describe_job", job_id))

    def stats(self) -> Dict[str, int]:
        return json.loads(self._call("stats"))

    @property
    def ops_handled(self) -> int:
        # Local read: introspection for tests/aggregation, not a
        # control operation (keeps RPC counters meaningful).
        return self._plane.ops_handled

    def __repr__(self) -> str:
        return f"RemoteControlPlane(calls={self._rpc.calls})"

