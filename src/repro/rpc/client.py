"""RPC client sessions with network latency accounting.

A session carries a sequence number per call; ``call`` is synchronous in
simulated time (send → server queue → execute → respond), and
``pipeline`` issues a batch without waiting between requests — the
optimisation several Fig 10 systems support (the paper disables it for
fairness, and so does the Fig 10 experiment; it is exercised by tests).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro import telemetry
from repro.rpc.framing import (
    RpcBatchError,
    RpcError,
    RpcRequest,
    RpcResponse,
    decode_message,
    encode_message,
)
from repro.rpc.server import RpcServer
from repro.sim.events import EventLoop
from repro.sim.network import NetworkModel


#: Process-wide session id allocator: each client is one ordered stream.
_SESSION_IDS = itertools.count()


class RpcClient:
    """One client session against an :class:`RpcServer`."""

    def __init__(
        self,
        loop: EventLoop,
        server: RpcServer,
        network: Optional[NetworkModel] = None,
        registry: Optional[telemetry.MetricsRegistry] = None,
        tracer: Optional[telemetry.Tracer] = None,
    ) -> None:
        self.loop = loop
        self.server = server
        self.network = network if network is not None else NetworkModel()
        self.telemetry = registry if registry is not None else telemetry.get_registry()
        self.tracer = tracer if tracer is not None else telemetry.get_tracer()
        self._seq = itertools.count()
        #: Session identity for the server's per-session FIFO ordering.
        self.session_id = next(_SESSION_IDS)
        self.calls = 0
        self._responses: Dict[int, RpcResponse] = {}
        #: seq -> (sent_at, arrival, server_done, delivered) simulated
        #: timestamps, for critical-path segment attribution.
        self._timings: Dict[int, Tuple[float, float, float, float]] = {}
        self._g_inflight = self.telemetry.gauge("rpc.client.inflight")
        # The session is one ordered byte stream: a later (smaller)
        # frame can never arrive before an earlier (larger) one, so
        # arrivals are floored at the previous frame's arrival time.
        self._last_arrival = 0.0

    # ------------------------------------------------------------------

    def _send(self, method: str, args: tuple) -> int:
        """Transmit one request at the current simulated time."""
        seq = next(self._seq)
        # Propagate the ambient span (if any) so the server-side span of
        # this request parents to the client-side one across the wire.
        headers = self.tracer.inject()
        frame = encode_message(
            RpcRequest(seq=seq, method=method, args=args, headers=headers)
        )
        sent_at = self.loop.clock.now()
        self.telemetry.counter("rpc.client.requests", method=method).inc()
        self.telemetry.counter("rpc.client.bytes_out").inc(len(frame))
        arrival = max(
            sent_at + self.network.transfer(len(frame)), self._last_arrival
        )
        self._last_arrival = arrival

        def on_response(response_frame: bytes, completion: float) -> None:
            # The response spends a network hop in flight; deliver it as
            # its own event so the clock advances monotonically even
            # when many calls are in flight (pipelining).
            delivered = completion + self.network.transfer(len(response_frame))
            response = decode_message(response_frame)
            self._timings[response.seq] = (sent_at, arrival, completion, delivered)
            self.telemetry.counter("rpc.client.bytes_in").inc(len(response_frame))

            def deliver() -> None:
                self._responses[response.seq] = response
                self._g_inflight.dec()
                self.telemetry.histogram(
                    "rpc.client.latency_s", method=method
                ).record(self.loop.clock.now() - sent_at)

            self.loop.schedule_at(
                max(delivered, self.loop.clock.now()),
                deliver,
                name=f"deliver:{method}",
            )

        # The request "arrives" after the network transfer; schedule its
        # delivery so the server sees the right arrival time.
        def arrive() -> None:
            self.server.deliver(
                frame, arrival, on_response, session=self.session_id
            )

        self.loop.schedule_at(arrival, arrive, name=f"send:{method}")
        self.calls += 1
        self._g_inflight.inc()
        return seq

    def _await(self, seq: int) -> RpcResponse:
        """Run the loop until the response for ``seq`` is delivered."""
        while seq not in self._responses:
            if not self.loop.step():
                raise RpcError(f"no response for seq={seq} and loop is idle")
        return self._responses.pop(seq)

    # ------------------------------------------------------------------

    def call(self, method: str, *args: Any) -> Any:
        """Synchronous call; raises :class:`RpcError` on handler errors."""
        with self.tracer.span(f"rpc.client.{method}", method=method) as span:
            sim_start = self.loop.clock.now()
            seq = self._send(method, args)
            response = self._await(seq)
            span.set_attr("sim_latency_s", self.loop.clock.now() - sim_start)
            timing = self._timings.pop(seq, None)
            if timing is not None:
                sent_at, arrival, server_done, delivered = timing
                # Wire segments bracket the server span's queue/service/
                # charge breakdown; deliver_skew is event-loop slack
                # between the modelled delivery and when the loop got to
                # it (non-zero only under pipelining).
                span.set_attr("sim_wire_out_s", arrival - sent_at)
                span.set_attr("sim_server_s", server_done - arrival)
                span.set_attr("sim_wire_back_s", delivered - server_done)
                span.set_attr(
                    "sim_deliver_skew_s",
                    max(self.loop.clock.now() - delivered, 0.0),
                )
            if not response.ok:
                raise RpcError(response.error)
            return response.value

    def pipeline(self, requests: List[tuple]) -> List[Any]:
        """Issue ``[(method, *args), ...]`` back-to-back, then collect.

        All requests are transmitted without waiting for responses, so
        the server queues them; total latency ≈ one RTT + sum of service
        times instead of N RTTs.

        Every sequence number is drained before any error is raised — a
        mid-batch failure must not leave later responses stranded in the
        session's response table. Failures are aggregated into one
        :class:`RpcBatchError` carrying the per-index error texts.
        """
        with self.tracer.span("rpc.client.pipeline", requests=len(requests)):
            self.telemetry.histogram(
                "rpc.client.batch_size", method="pipeline"
            ).record(float(len(requests)))
            seqs = [self._send(method, tuple(args)) for method, *args in requests]
            values: List[Any] = []
            failures: Dict[int, str] = {}
            for index, seq in enumerate(seqs):
                response = self._await(seq)
                self._timings.pop(seq, None)
                if not response.ok:
                    failures[index] = response.error
                    values.append(None)
                else:
                    values.append(response.value)
            if failures:
                raise RpcBatchError(failures, values)
            return values
