"""A Thrift-style RPC layer over the simulated network (§4.2.2).

The paper's data plane speaks Apache Thrift with two optimisations:
asynchronous *framed* IO that multiplexes many client sessions on one
server loop (requests across sessions are processed without blocking
each other), and thin client wrappers to keep per-call overhead low.

This package reproduces that layer over the discrete-event simulator:

* :mod:`repro.rpc.framing` — length-prefixed message framing and a
  compact binary serialisation for request/response envelopes;
* :mod:`repro.rpc.server` — an :class:`RpcServer` that registers
  handler functions and multiplexes sessions on an event loop;
* :mod:`repro.rpc.client` — an :class:`RpcClient` session issuing
  synchronous or pipelined calls with network latency accounting.

It is exercised by `tests/rpc/` and by the Fig 12 controller benchmark
variant that measures queueing through a real server loop instead of an
analytic M/M/1 curve.
"""

from repro.rpc.framing import (
    RpcError,
    RpcRequest,
    RpcResponse,
    decode_message,
    encode_message,
)
from repro.rpc.server import RpcServer
from repro.rpc.client import RpcClient
from repro.rpc.remote import RemoteControlPlane, serve_control_plane
from repro.rpc.dataplane import (
    RemoteKV,
    RemoteQueue,
    serve_kv,
    serve_queue,
)

__all__ = [
    "RpcError",
    "RpcRequest",
    "RpcResponse",
    "encode_message",
    "decode_message",
    "RpcServer",
    "RpcClient",
    "RemoteControlPlane",
    "serve_control_plane",
    "RemoteKV",
    "RemoteQueue",
    "serve_kv",
    "serve_queue",
]
