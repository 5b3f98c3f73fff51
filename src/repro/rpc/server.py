"""An RPC server multiplexing client sessions on the event loop.

Mirrors the paper's server-side optimisations (§4.2.2): asynchronous
framed IO lets requests from different sessions be processed in a
non-blocking manner — a slow burst from one client does not head-of-line
block another client's requests — and the server runs ``num_cores``
service cores, so independent requests are served concurrently while
two ordering constraints are preserved:

* **per-session FIFO** — requests on one session (one ordered byte
  stream) execute in arrival order, one at a time, so a client never
  observes its own responses reordered;
* **per-resource exclusivity** — methods registered with a
  ``resource_fn`` map each request to a contention key (a block id),
  and at most one request (or background reservation) touches a given
  resource at a time, the simulated analogue of one mutation at a time
  per memory block.

Background maintenance (repartition migrations, flushes) shares the
same cores via :meth:`RpcServer.reserve_background`, so off-critical-
path work contends with — but never head-of-line-blocks — foreground
requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.rpc.framing import (
    STATUS_ERROR,
    STATUS_OK,
    RpcError,
    RpcRequest,
    RpcResponse,
    decode_message,
    encode_message,
)
from repro.sim import cost as simcost
from repro.sim.events import EventLoop

#: handler(*args) -> serialisable value
Handler = Callable[..., Any]

#: resource_fn(*args) -> contention key (or None for "no exclusivity")
ResourceFn = Callable[..., Optional[Any]]

#: Default bound on retained latency samples (see :class:`ReservoirSample`).
LATENCY_RESERVOIR_SIZE = 4096


class ReservoirSample(List[float]):
    """A bounded, uniformly-sampled view of an unbounded observation stream.

    Vitter's Algorithm R: the first ``capacity`` observations are kept
    in arrival order; after that each new observation replaces a random
    retained one with probability ``capacity / observed``, so the
    retained set stays a uniform sample of everything seen. Long trace
    replays keep O(capacity) memory instead of O(requests).

    Subclasses ``list`` so existing consumers (indexing, iteration,
    ``np.mean``/``np.percentile``) keep working unchanged; ``observed``
    carries the true stream length. The RNG is seeded for reproducible
    runs.
    """

    def __init__(self, capacity: int = LATENCY_RESERVOIR_SIZE, seed: int = 0) -> None:
        super().__init__()
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.observed = 0
        self._rng = random.Random(seed)

    def append(self, value: float) -> None:
        self.observed += 1
        if len(self) < self.capacity:
            super().append(value)
            return
        slot = self._rng.randrange(self.observed)
        if slot < self.capacity:
            self[slot] = value


@dataclass
class ServerStats:
    requests_served: int = 0
    errors: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    busy_seconds: float = 0.0
    #: per-request latency samples (arrival -> response enqueued),
    #: bounded — a uniform reservoir over the full request stream.
    latencies: ReservoirSample = field(default_factory=ReservoirSample)


class RpcServer:
    """Serves registered methods over framed messages in simulated time.

    The server owns ``num_cores`` service cores: each request is placed
    on the earliest-free core (subject to its session's FIFO order and
    its resource's exclusivity) and takes ``service_time_s`` of
    simulated time to execute (callers can pass per-method overrides),
    so the throughput-latency behaviour under load emerges from the
    event loop rather than from a closed-form queueing formula.

    Handlers run inside a :func:`repro.sim.cost.collecting` scope: any
    simulated latency they charge (e.g. a synchronous repartition on
    the ``--sync-repartition`` ablation path) extends the request's
    service time, so modeled foreground stalls show up in measured
    request latency.
    """

    def __init__(
        self,
        loop: EventLoop,
        service_time_s: float = 10e-6,
        num_cores: int = 1,
        registry: Optional[telemetry.MetricsRegistry] = None,
        tracer: Optional[telemetry.Tracer] = None,
    ) -> None:
        if service_time_s <= 0:
            raise RpcError("service_time_s must be positive")
        if num_cores < 1:
            raise RpcError(f"num_cores must be >= 1, got {num_cores}")
        self.loop = loop
        self.service_time_s = service_time_s
        self.num_cores = num_cores
        self.telemetry = registry if registry is not None else telemetry.get_registry()
        self.tracer = tracer if tracer is not None else telemetry.get_tracer()
        self._handlers: Dict[str, Handler] = {}
        self._method_cost: Dict[str, float] = {}
        self._method_cost_fn: Dict[str, Callable[..., float]] = {}
        self._method_resource_fn: Dict[str, ResourceFn] = {}
        #: next-free time per service core
        self._core_busy: List[float] = [0.0] * num_cores
        #: session id -> completion of that session's last request
        self._session_busy: Dict[Any, float] = {}
        #: resource key -> completion of the last op touching it
        self._resource_busy: Dict[Any, float] = {}
        self.stats = ServerStats()

    # ------------------------------------------------------------------

    def register(
        self,
        method: str,
        handler: Handler,
        service_time_s: Optional[float] = None,
        service_time_fn: Optional[Callable[..., float]] = None,
        resource_fn: Optional[ResourceFn] = None,
    ) -> None:
        """Expose ``handler`` as ``method``.

        ``service_time_fn(*args) -> seconds`` prices a request from its
        arguments — the batch handlers use it so an N-item request costs
        one dispatch plus N amortized per-item steps rather than N full
        service times. It takes precedence over ``service_time_s``.

        ``resource_fn(*args) -> key | None`` maps a request to a
        contention key (e.g. the block it touches); requests sharing a
        key are served one at a time even across cores, and background
        reservations on the key queue behind them.
        """
        if method in self._handlers:
            raise RpcError(f"method {method!r} already registered")
        self._handlers[method] = handler
        if service_time_s is not None:
            self._method_cost[method] = service_time_s
        if service_time_fn is not None:
            self._method_cost_fn[method] = service_time_fn
        if resource_fn is not None:
            self._method_resource_fn[method] = resource_fn

    def register_object(self, obj: Any, methods: List[str]) -> None:
        """Expose a set of an object's bound methods by name."""
        for name in methods:
            self.register(name, getattr(obj, name))

    # ------------------------------------------------------------------
    # Core placement
    # ------------------------------------------------------------------

    def _place(self, ready: float, cost: float) -> Tuple[int, float, float]:
        """Place ``cost`` seconds of work on the earliest-free core.

        Returns ``(core, start, completion)``; the core's busy time is
        advanced to ``completion``.
        """
        core = min(range(self.num_cores), key=lambda i: self._core_busy[i])
        start = max(ready, self._core_busy[core])
        completion = start + cost
        self._core_busy[core] = completion
        return core, start, completion

    @property
    def busy_until(self) -> float:
        """Time at which every core is free (max over cores)."""
        return max(self._core_busy)

    def reserve_background(
        self, cost_s: float, resource: Optional[Any] = None
    ) -> Tuple[float, float]:
        """Reserve service capacity for one background step.

        The :class:`~repro.sim.background.BackgroundScheduler` executor
        protocol: a step of modeled cost ``cost_s`` is placed on the
        earliest-free core starting no earlier than now (and no earlier
        than the last operation on ``resource``, if given), so
        background work consumes the same cores as client requests —
        contention without head-of-line blocking. Returns
        ``(start, completion)``.
        """
        now = self.loop.clock.now()
        ready = now
        if resource is not None:
            ready = max(ready, self._resource_busy.get(resource, 0.0))
        _, start, completion = self._place(ready, cost_s)
        if resource is not None:
            self._resource_busy[resource] = completion
        self.stats.busy_seconds += cost_s
        self.telemetry.counter("rpc.server.background_steps").inc()
        self.telemetry.histogram("rpc.server.background_step_s").record(cost_s)
        return start, completion

    # ------------------------------------------------------------------

    def deliver(
        self,
        frame: bytes,
        arrival_time: float,
        respond: Callable[[bytes, float], None],
        *,
        session: Optional[Any] = None,
    ) -> None:
        """Accept a framed request arriving at ``arrival_time``.

        ``respond(frame, completion_time)`` is invoked when the response
        leaves the server. The request is served on the earliest-free
        core, after the previous request of its ``session`` (if given)
        and after any in-flight work on its resource key (if its method
        registered a ``resource_fn``).
        """
        request = decode_message(frame)
        if not isinstance(request, RpcRequest):
            raise RpcError("server received a non-request frame")
        self.stats.bytes_in += len(frame)
        self.telemetry.counter("rpc.server.bytes_in").inc(len(frame))
        # Trace context propagated in the envelope: the span opened at
        # execute() time parents to the *client's* span, not to whatever
        # span happens to be ambient when the event loop fires.
        parent_ctx = self.tracer.extract(request.headers)

        ready = arrival_time
        if session is not None:
            ready = max(ready, self._session_busy.get(session, 0.0))
        resource_fn = self._method_resource_fn.get(request.method)
        resource = resource_fn(*request.args) if resource_fn is not None else None
        if resource is not None:
            ready = max(ready, self._resource_busy.get(resource, 0.0))

        cost_fn = self._method_cost_fn.get(request.method)
        if cost_fn is not None:
            cost = cost_fn(*request.args)
        else:
            cost = self._method_cost.get(request.method, self.service_time_s)
        core, start, completion = self._place(ready, cost)
        if session is not None:
            self._session_busy[session] = completion
        if resource is not None:
            self._resource_busy[resource] = completion
        self.stats.busy_seconds += cost

        def execute() -> None:
            method = request.method
            with self.tracer.span(
                f"rpc.server.{method}", parent=parent_ctx, method=method
            ) as span:
                handler = self._handlers.get(method)
                extra = 0.0
                if handler is None:
                    response = RpcResponse(
                        seq=request.seq,
                        status=STATUS_ERROR,
                        error=f"unknown method {method!r}",
                    )
                    self.stats.errors += 1
                else:
                    # Collect simulated latency the handler charges
                    # inline (synchronous repartitions, flush I/O on
                    # the ablation path) and stretch this request's
                    # service time by it.
                    with simcost.collecting() as charged:
                        try:
                            value = handler(*request.args)
                            response = RpcResponse(
                                seq=request.seq, status=STATUS_OK, value=value
                            )
                        except Exception as exc:  # noqa: BLE001 — surfaced to caller
                            response = RpcResponse(
                                seq=request.seq, status=STATUS_ERROR, error=str(exc)
                            )
                            self.stats.errors += 1
                    extra = charged.seconds
                finish = completion + extra
                if extra > 0.0:
                    # Late-extend the busy horizon: closed-loop callers
                    # (everything in this repo) see it before their
                    # next request; already-queued pipelined requests
                    # keep their optimistic placement.
                    self._core_busy[core] = max(self._core_busy[core], finish)
                    if session is not None:
                        self._session_busy[session] = max(
                            self._session_busy[session], finish
                        )
                    if resource is not None:
                        self._resource_busy[resource] = max(
                            self._resource_busy.get(resource, 0.0), finish
                        )
                    self.stats.busy_seconds += extra
                    self.telemetry.histogram(
                        "rpc.server.inline_charge_s", method=method
                    ).record(extra)
                if response.status != STATUS_OK:
                    span.status = "error"
                    self.telemetry.counter("rpc.server.errors", method=method).inc()
                out = encode_message(response)
                self.stats.requests_served += 1
                self.stats.bytes_out += len(out)
                sim_latency = finish - arrival_time
                self.stats.latencies.append(sim_latency)
                span.set_attr("sim_latency_s", sim_latency)
                # Segment attribution for the critical-path assembler:
                # FIFO/resource/core wait, pure service, and inline
                # charges (migration interference) sum to sim_latency.
                span.set_attr("sim_arrival", arrival_time)
                span.set_attr("sim_queue_s", start - arrival_time)
                span.set_attr("sim_service_s", cost)
                if extra > 0.0:
                    span.set_attr("sim_charge_s", extra)
                self.telemetry.histogram(
                    "rpc.server.queue_s", method=method
                ).record(start - arrival_time)
                self.telemetry.counter("rpc.server.requests", method=method).inc()
                self.telemetry.counter("rpc.server.bytes_out").inc(len(out))
                self.telemetry.histogram(
                    "rpc.server.latency_s", method=method
                ).record(sim_latency)
                respond(out, finish)

        self.loop.schedule_at(completion, execute, name=f"rpc:{request.method}")

    @property
    def utilization(self) -> float:
        """Busy time over elapsed simulated core-time (all cores)."""
        now = self.loop.clock.now()
        return (self.stats.busy_seconds / (now * self.num_cores)) if now > 0 else 0.0
