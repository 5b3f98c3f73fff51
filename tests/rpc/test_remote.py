"""Controller behind the RPC layer: full control-plane path."""

import pytest

from repro.config import KB, JiffyConfig
from repro.core.controller import JiffyController
from repro.errors import RegistrationError
from repro.rpc.remote import RemoteControlPlane, serve_control_plane
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop
from repro.sim.network import NetworkModel


@pytest.fixture
def setup():
    loop = EventLoop(SimClock())
    controller = JiffyController(
        JiffyConfig(block_size=KB), clock=loop.clock, default_blocks=64
    )
    server = serve_control_plane(controller, loop)
    remote = RemoteControlPlane(loop, server, network=NetworkModel(sigma=0.0))
    return loop, controller, server, remote


class TestRemoteControl:
    def test_register_and_hierarchy(self, setup):
        loop, controller, server, remote = setup
        remote.register_job("j")
        remote.create_hierarchy("j", {"t2": ["t1"], "t3": ["t2"]})
        assert controller.is_registered("j")
        assert remote.resolve("j", "t1/t2/t3").name == "t3"

    def test_lease_over_rpc(self, setup):
        loop, controller, server, remote = setup
        remote.register_job("j")
        remote.create_addr_prefix("j", "t1")
        assert remote.renew_lease("j", "t1") == 1
        assert remote.get_lease_duration("j", "t1") == 1.0

    def test_block_ops_over_rpc(self, setup):
        loop, controller, server, remote = setup
        remote.register_job("j")
        remote.create_addr_prefix("j", "t1")
        block_id = remote.allocate_block("j", "t1").block_id
        assert controller.pool.allocated_blocks == 1
        remote.reclaim_block("j", "t1", block_id)
        assert controller.pool.allocated_blocks == 0

    def test_errors_cross_the_wire(self, setup):
        loop, controller, server, remote = setup
        with pytest.raises(RegistrationError, match="not registered"):
            remote.renew_lease("ghost", "t1")

    def test_deregister(self, setup):
        loop, controller, server, remote = setup
        remote.register_job("j")
        remote.create_addr_prefix("j", "t1")
        remote.allocate_block("j", "t1")
        assert remote.deregister_job("j") == 1

    def test_lease_expiry_timing_includes_rpc_latency(self, setup):
        """Renewals arrive after network+queueing delay; the lease clock
        sees the server-side arrival time, as in a real deployment."""
        loop, controller, server, remote = setup
        remote.register_job("j")
        remote.create_addr_prefix("j", "t1")
        t_before = loop.clock.now()
        remote.renew_lease("j", "t1")
        node = controller.resolve("j", "t1")
        assert node.last_renewal >= t_before

    def test_batched_renewals_are_one_request(self, setup):
        loop, controller, server, remote = setup
        for i in range(4):
            remote.register_job(f"j{i}")
            remote.create_addr_prefix(f"j{i}", "t")
        served = server.stats.requests_served
        counts = remote.renew_leases([(f"j{i}", "t") for i in range(4)])
        assert counts == [1, 1, 1, 1]
        assert server.stats.requests_served == served + 1
