"""A "distributed" deployment: control and data planes behind RPC.

Everything the other examples do in-process here crosses a simulated
wire: the job registers and renews leases against a controller served
over the framed RPC layer (§4.2.2), and its gets/puts hit a KV store
served the same way — so every operation pays serialisation, network
and server-queueing latency in simulated time, and the printed timings
land in the Fig 10 band.

Run:  python examples/rpc_deployment.py
"""

from repro import JiffyConfig, JiffyController, connect
from repro.config import KB
from repro.rpc.dataplane import RemoteKV, serve_kv
from repro.rpc.remote import RemoteControlPlane, serve_control_plane
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop
from repro.sim.network import NetworkModel


def main() -> None:
    loop = EventLoop(SimClock())
    controller = JiffyController(
        JiffyConfig(block_size=8 * KB), clock=loop.clock, default_blocks=512
    )

    # Control plane behind RPC (Fig 2's a-path).
    control_server = serve_control_plane(controller, loop)
    remote_ctrl = RemoteControlPlane(loop, control_server, NetworkModel())

    t0 = loop.clock.now()
    remote_ctrl.register_job("remote-job")
    remote_ctrl.create_hierarchy("remote-job", {"reduce": ["map"]})
    print(f"control ops over the wire took {(loop.clock.now() - t0) * 1e3:.2f}ms "
          "of simulated time")

    # The data structure itself is created server-side; its operators
    # are then served to the client directly (Fig 2's b-path: the
    # controller is NOT on the data path).
    local_client = connect(controller, "remote-job", register=False)
    kv = local_client.init_data_structure("reduce", "kv_store", num_slots=64)
    data_server = serve_kv(kv, loop)
    remote_kv = RemoteKV(loop, data_server, NetworkModel())

    for i in range(400):
        remote_kv.put(f"word-{i:03d}".encode(), str(i * i).encode() * 8)
    value, latency = remote_kv.timed_get(b"word-123")
    print(f"get(word-123) = {value!r} in {latency * 1e6:.0f}us end-to-end "
          "(Fig 10 in-memory band: 200-500us)")
    print(f"server stats: {data_server.stats.requests_served} requests, "
          f"{data_server.stats.bytes_in} bytes in, "
          f"{data_server.stats.bytes_out} bytes out")
    print(f"KV splits behind the RPC surface: {kv.splits}")

    # Lease heartbeats keep flowing over the control connection.
    renewed = remote_ctrl.renew_lease("remote-job", "reduce")
    print(f"remote renewal covered {renewed} prefixes")
    print(f"total simulated wall time: {loop.clock.now() * 1e3:.1f}ms "
          f"for {control_server.stats.requests_served + data_server.stats.requests_served} RPCs")


if __name__ == "__main__":
    main()
