"""Cluster-capacity autoscaling (footnote 4)."""

import pytest

from repro.config import KB, JiffyConfig
from repro.core.autoscale import ClusterAutoscaler
from repro.core.client import connect
from repro.core.controller import JiffyController
from repro.sim.clock import SimClock


@pytest.fixture
def controller():
    controller = JiffyController(
        JiffyConfig(block_size=KB), clock=SimClock(), default_blocks=10
    )
    controller.register_job("j")
    controller.create_addr_prefix("j", "t")
    return controller


def fill(controller, n):
    for _ in range(n):
        assert controller.try_allocate_block("j", "t") is not None


class TestScaleUp:
    def test_adds_servers_when_free_low(self, controller):
        scaler = ClusterAutoscaler(
            controller, blocks_per_server=10, low_free_fraction=0.2
        )
        fill(controller, 9)  # 1/10 free = 10% < 20%
        actions = scaler.evaluate()
        assert actions and all(a.kind == "add" for a in actions)
        assert scaler.free_fraction() >= 0.2
        assert controller.pool.num_servers == 1 + len(actions)

    def test_no_action_in_band(self, controller):
        scaler = ClusterAutoscaler(controller, blocks_per_server=10)
        fill(controller, 6)  # 40% free: inside [10%, 50%]
        assert scaler.evaluate() == []


class TestScaleDown:
    def test_removes_idle_servers_when_free_high(self, controller):
        controller.join_server(10)
        controller.join_server(10)
        scaler = ClusterAutoscaler(
            controller, blocks_per_server=10, high_free_fraction=0.5
        )
        actions = scaler.evaluate()  # 100% free, 3 servers
        assert actions and all(a.kind == "drain" for a in actions)
        controller.drain_background()
        assert controller.pool.num_servers == 3 - len(actions)
        assert controller.pool.num_servers >= scaler.min_servers

    def test_never_below_min_servers(self, controller):
        scaler = ClusterAutoscaler(
            controller,
            blocks_per_server=10,
            low_free_fraction=0.05,
            high_free_fraction=0.1,
            min_servers=1,
        )
        assert scaler.evaluate() == []
        assert controller.pool.num_servers == 1

    def test_scale_down_keeps_low_watermark(self, controller):
        # Draining the spare server would cross the low watermark.
        controller.join_server(10)
        fill(controller, 9)
        scaler = ClusterAutoscaler(
            controller,
            blocks_per_server=10,
            low_free_fraction=0.5,
            high_free_fraction=0.54,
        )
        assert scaler.evaluate() == []
        assert scaler.free_fraction() >= 0.5


class TestControllerMode:
    def _controller(self, **overrides):
        defaults = dict(
            block_size=KB,
            autoscale=True,
            autoscale_low_free=0.2,
            autoscale_high_free=0.8,
            autoscale_blocks_per_server=8,
        )
        defaults.update(overrides)
        return JiffyController(
            JiffyConfig(**defaults), clock=SimClock(), default_blocks=8
        )

    def test_tick_joins_servers_when_free_low(self):
        controller = self._controller()
        controller.register_job("j")
        controller.create_addr_prefix("j", "t")
        for _ in range(7):  # 1/8 free = 12.5% < 20%
            assert controller.try_allocate_block("j", "t") is not None
        controller.tick()
        assert controller.pool.num_servers == 2
        assert any(a.kind == "add" for a in controller.autoscaler.actions)

    def test_tick_drains_loaded_surplus_server(self):
        # Scale-down goes through leave_server, so even a *loaded*
        # surplus server is drained safely via migration.
        controller = self._controller(autoscale_high_free=0.5)
        client = connect(controller, "j")
        client.create_addr_prefix("f")
        f = client.init_data_structure("f", "file")
        payload = bytes(range(256)) * 8  # ~2 blocks
        f.append(payload)
        controller.join_server(8)
        controller.join_server(8)  # 3 servers, mostly free
        controller.tick()
        assert any(
            a.kind == "drain" for a in controller.autoscaler.actions
        )
        controller.drain_background()
        assert controller.pool.num_servers < 3
        assert f.readall() == payload  # migrated, not dropped

    def test_respects_min_servers_with_draining_excluded(self):
        controller = self._controller(
            autoscale_high_free=0.5, autoscale_min_servers=2
        )
        controller.join_server(8)
        controller.join_server(8)
        controller.tick()
        controller.drain_background()
        assert controller.pool.num_servers == 2

    def test_replicated_scale_down_keeps_chain_servers(self):
        # min_servers >= replication_factor (JiffyConfig enforces it), so
        # scale-down stops while every chain still has distinct servers.
        controller = self._controller(
            autoscale_high_free=0.5,
            autoscale_min_servers=2,
            replication_factor=2,
        )
        for _ in range(3):
            controller.join_server(8)
        client = connect(controller, "j")
        client.create_addr_prefix("kv")
        kv = client.init_data_structure("kv", "kv_store", num_slots=16)
        kv.put(b"a", b"1")
        controller.tick()
        controller.drain_background()
        assert controller.pool.num_servers == 2
        for i in range(20):
            kv.put(b"k%d" % i, b"v" * 50)
        assert kv.get(b"a") == b"1"
        assert kv.get(b"k19") == b"v" * 50


class TestValidation:
    def test_bad_band(self, controller):
        with pytest.raises(ValueError):
            ClusterAutoscaler(
                controller, 10, low_free_fraction=0.6, high_free_fraction=0.5
            )

    def test_bad_blocks_per_server(self, controller):
        with pytest.raises(ValueError):
            ClusterAutoscaler(controller, 0)

    def test_bad_min_servers(self, controller):
        with pytest.raises(ValueError):
            ClusterAutoscaler(controller, 10, min_servers=0)
