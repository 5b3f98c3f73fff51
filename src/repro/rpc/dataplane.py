"""Data-plane operations over the RPC layer (Fig 2's b○ path).

Once a client holds the block locations for its data structure, its
reads and writes go *directly* to memory servers — the controller is
not on the path. This module serves a data structure's operators over
an :class:`~repro.rpc.server.RpcServer`, so the end-to-end request path
(serialise → NIC → server queue → execute → respond) can be exercised
and measured in simulated time.

Default service times follow the calibrated Jiffy device curve: the
230 µs small-object latency of Fig 10 decomposes into ~75 µs of network
round trip and ~155 µs of server-side work.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.datastructures.kvstore import JiffyKVStore, hash_slot
from repro.datastructures.queue import JiffyQueue
from repro.rpc._util import chunked
from repro.rpc.client import RpcClient
from repro.rpc.server import ResourceFn, RpcServer
from repro.sim.events import EventLoop
from repro.sim.network import NetworkModel

#: Server-side service time for small data-plane ops (see module doc).
DATA_OP_SERVICE_S = 155e-6

#: Batched ops (mget/mput/...) pay the single-op cost once per request,
#: then a much smaller per-item increment: parsing, routing, and the
#: response send are amortised over the batch, and the per-item work is
#: just the hash-table/segment touch. Single-op service times (and hence
#: the Fig 10 latency band) are untouched by these constants.
BATCH_OP_BASE_S = DATA_OP_SERVICE_S
BATCH_OP_PER_ITEM_S = 10e-6

#: Items per wire request on the scatter-gather client paths; larger
#: batches are chunked and pipelined so no single frame grows unbounded.
DEFAULT_BATCH_SIZE = 64


def batch_service_time(num_items: int) -> float:
    """Calibrated server-side cost of a batched data-plane request."""
    return BATCH_OP_BASE_S + num_items * BATCH_OP_PER_ITEM_S


_RAISE = object()  # multi_get sentinel: raise on missing keys


def _kv_owner_block(kv: JiffyKVStore) -> ResourceFn:
    """Resource key for single-key KV ops: the owning block id.

    Requests touching the same block serialize (per-block exclusive
    service); requests on different blocks run on different cores.
    ``None`` (slot not yet mapped) means no exclusivity constraint —
    the lookup must not allocate, so it reads the slot map directly.
    """

    def owner(key: bytes, *args: object) -> Optional[str]:
        key_bytes = kv._canonical(key)
        return kv._slot_map.get(hash_slot(key_bytes, kv.num_slots))

    return owner


def _bind_background_executor(ds, loop: EventLoop, server: RpcServer) -> None:
    """Let the structure's background work contend for this server's cores.

    Only when the scheduler is already bound to the same event loop and
    has no executor yet — cooperative (loop-less) schedulers keep their
    foreground-polled semantics.
    """
    scheduler = getattr(ds, "background", None)
    if (
        scheduler is not None
        and scheduler.loop is loop
        and scheduler.executor is None
    ):
        scheduler.executor = server


def serve_kv(
    kv: JiffyKVStore,
    loop: EventLoop,
    service_time_s: float = DATA_OP_SERVICE_S,
    num_cores: int = 1,
    registry: Optional[telemetry.MetricsRegistry] = None,
    tracer: Optional[telemetry.Tracer] = None,
) -> RpcServer:
    """Expose a KV store's operators on an RPC server."""
    server = RpcServer(
        loop,
        service_time_s=service_time_s,
        num_cores=num_cores,
        registry=registry,
        tracer=tracer,
    )
    owner = _kv_owner_block(kv)
    server.register("get", kv.get, resource_fn=owner)
    server.register("put", lambda k, v: (kv.put(k, v), True)[1], resource_fn=owner)
    server.register("delete", kv.delete, resource_fn=owner)
    server.register("exists", kv.exists, resource_fn=owner)
    server.register(
        "mget",
        lambda keys: kv.multi_get(keys),
        service_time_fn=lambda keys: batch_service_time(len(keys)),
    )
    server.register(
        # Lenient batch read: absent keys come back as None (values are
        # always bytes, so None is unambiguous on the wire). This is
        # what read-modify-write accumulators and the client cache's
        # miss path use instead of a try/except per key.
        "mget_or",
        lambda keys: kv.multi_get(keys, default=None),
        service_time_fn=lambda keys: batch_service_time(len(keys)),
    )
    server.register(
        "mput",
        lambda keys, values: (kv.multi_put(list(zip(keys, values))), len(keys))[1],
        service_time_fn=lambda keys, values: batch_service_time(len(keys)),
    )
    server.register(
        "mdel",
        lambda keys: kv.multi_delete(keys),
        service_time_fn=lambda keys: batch_service_time(len(keys)),
    )
    _bind_background_executor(kv, loop, server)
    return server


def serve_queue(
    queue: JiffyQueue,
    loop: EventLoop,
    service_time_s: float = DATA_OP_SERVICE_S,
    num_cores: int = 1,
    registry: Optional[telemetry.MetricsRegistry] = None,
    tracer: Optional[telemetry.Tracer] = None,
) -> RpcServer:
    """Expose a FIFO queue's operators on an RPC server."""
    server = RpcServer(
        loop,
        service_time_s=service_time_s,
        num_cores=num_cores,
        registry=registry,
        tracer=tracer,
    )
    server.register("enqueue", lambda item: (queue.enqueue(item), True)[1])
    server.register("dequeue", queue.dequeue)
    server.register("peek", queue.peek)
    server.register("length", lambda: len(queue))
    server.register(
        "menqueue",
        queue.enqueue_batch,
        service_time_fn=lambda items: batch_service_time(len(items)),
    )
    server.register(
        "mdequeue",
        queue.dequeue_batch,
        service_time_fn=lambda max_items: batch_service_time(max_items),
    )
    _bind_background_executor(queue, loop, server)
    return server


class RemoteKV:
    """Client proxy for a served KV store."""

    def __init__(
        self,
        loop: EventLoop,
        server: RpcServer,
        network: Optional[NetworkModel] = None,
        registry: Optional[telemetry.MetricsRegistry] = None,
        tracer: Optional[telemetry.Tracer] = None,
    ) -> None:
        self._rpc = RpcClient(
            loop, server, network=network, registry=registry, tracer=tracer
        )
        self._loop = loop

    def put(self, key: bytes, value: bytes) -> None:
        self._rpc.call("put", key, value)

    def get(self, key: bytes) -> bytes:
        return self._rpc.call("get", key)

    def delete(self, key: bytes) -> bytes:
        return self._rpc.call("delete", key)

    def exists(self, key: bytes) -> bool:
        return self._rpc.call("exists", key)

    # -- scatter-gather bulk ops ---------------------------------------
    # Batches are chunked at ``batch_size`` and the chunks pipelined in
    # one shot, so total latency ≈ one RTT + the amortised service times
    # instead of one RTT per key.

    def multi_get(
        self,
        keys: Sequence[bytes],
        batch_size: Optional[int] = None,
        default: Any = _RAISE,
    ) -> List[bytes]:
        """Fetch many keys, order preserved, chunk-pipelined.

        Raises on the first absent key unless ``default`` is given, in
        which case absent keys yield ``default`` (served by the lenient
        ``mget_or`` op — one round trip either way).
        """
        keys = list(keys)
        if not keys:
            return []
        size = batch_size if batch_size else DEFAULT_BATCH_SIZE
        method = "mget" if default is _RAISE else "mget_or"
        self._rpc.telemetry.histogram(
            "rpc.client.batch_size", method=method
        ).record(float(len(keys)))
        replies = self._rpc.pipeline(
            [(method, list(chunk)) for chunk in chunked(keys, size)]
        )
        values = [value for chunk in replies for value in chunk]
        if default is _RAISE or default is None:
            return values
        return [default if value is None else value for value in values]

    def multi_put(
        self,
        pairs: Sequence[Tuple[bytes, bytes]],
        batch_size: Optional[int] = None,
    ) -> None:
        pairs = list(pairs)
        if not pairs:
            return
        size = batch_size if batch_size else DEFAULT_BATCH_SIZE
        self._rpc.telemetry.histogram(
            "rpc.client.batch_size", method="mput"
        ).record(float(len(pairs)))
        self._rpc.pipeline(
            [
                ("mput", [k for k, _ in chunk], [v for _, v in chunk])
                for chunk in chunked(pairs, size)
            ]
        )

    def multi_delete(
        self, keys: Sequence[bytes], batch_size: Optional[int] = None
    ) -> List[bytes]:
        keys = list(keys)
        if not keys:
            return []
        size = batch_size if batch_size else DEFAULT_BATCH_SIZE
        self._rpc.telemetry.histogram(
            "rpc.client.batch_size", method="mdel"
        ).record(float(len(keys)))
        replies = self._rpc.pipeline(
            [("mdel", list(chunk)) for chunk in chunked(keys, size)]
        )
        return [value for chunk in replies for value in chunk]

    def timed_get(self, key: bytes) -> tuple:
        """``(value, end_to_end_latency_s)`` for one get."""
        start = self._loop.clock.now()
        value = self.get(key)
        return value, self._loop.clock.now() - start


class RemoteQueue:
    """Client proxy for a served FIFO queue."""

    def __init__(
        self,
        loop: EventLoop,
        server: RpcServer,
        network: Optional[NetworkModel] = None,
        registry: Optional[telemetry.MetricsRegistry] = None,
        tracer: Optional[telemetry.Tracer] = None,
    ) -> None:
        self._rpc = RpcClient(
            loop, server, network=network, registry=registry, tracer=tracer
        )

    def enqueue(self, item: bytes) -> None:
        self._rpc.call("enqueue", item)

    def dequeue(self) -> bytes:
        return self._rpc.call("dequeue")

    def peek(self) -> bytes:
        return self._rpc.call("peek")

    def __len__(self) -> int:
        return self._rpc.call("length")

    # -- scatter-gather bulk ops ---------------------------------------

    def enqueue_batch(
        self, items: Sequence[bytes], batch_size: Optional[int] = None
    ) -> int:
        """Enqueue many items; returns the number accepted."""
        items = list(items)
        if not items:
            return 0
        size = batch_size if batch_size else DEFAULT_BATCH_SIZE
        self._rpc.telemetry.histogram(
            "rpc.client.batch_size", method="menqueue"
        ).record(float(len(items)))
        replies = self._rpc.pipeline(
            [("menqueue", list(chunk)) for chunk in chunked(items, size)]
        )
        return sum(replies)

    def dequeue_batch(
        self, max_items: int, batch_size: Optional[int] = None
    ) -> List[bytes]:
        """Dequeue up to ``max_items``; pipelined head chunks, FIFO order."""
        if max_items <= 0:
            return []
        size = batch_size if batch_size else DEFAULT_BATCH_SIZE
        self._rpc.telemetry.histogram(
            "rpc.client.batch_size", method="mdequeue"
        ).record(float(max_items))
        chunks = [
            min(size, max_items - start) for start in range(0, max_items, size)
        ]
        replies = self._rpc.pipeline([("mdequeue", n) for n in chunks])
        return [item for chunk in replies for item in chunk]
