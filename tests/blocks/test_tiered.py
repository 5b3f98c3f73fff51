"""Tiered data plane: DRAM-first allocation with spill on exhaustion."""

import pytest

from repro.blocks.tiered import TieredMemoryPool
from repro.config import KB, JiffyConfig
from repro.core.client import connect
from repro.core.controller import JiffyController
from repro.errors import BlockError, CapacityError
from repro.sim.clock import SimClock
from repro.storage.tier import PMEM_TIER, S3_TIER, SSD_TIER
from repro.telemetry.registry import MetricsRegistry


@pytest.fixture
def pool():
    pool = TieredMemoryPool(block_size=100, spill_server_blocks=4)
    pool.add_server(num_blocks=2, server_id="dram0")
    return pool


class TestTieredAllocation:
    def test_dram_preferred(self, pool):
        block = pool.allocate()
        assert block.tier == "dram"
        assert pool.spill_allocations == 0

    def test_spill_after_dram_exhausted(self, pool):
        pool.allocate()
        pool.allocate()
        spilled = pool.allocate()
        assert spilled.tier == "SSD"
        assert spilled.server_id.startswith("spill")
        assert pool.spill_allocations == 1
        assert pool.spilled_blocks() == 1

    def test_spill_tier_grows_elastically(self, pool):
        for _ in range(2 + 10):  # 2 DRAM + 10 spill (> one spill server)
            pool.allocate()
        assert pool.spilled_blocks() == 10

    def test_reclaim_routes_by_tier(self, pool):
        dram = pool.allocate()
        pool.allocate()
        spill = pool.allocate()
        pool.reclaim(spill.block_id)
        assert pool.spilled_blocks() == 0
        pool.reclaim(dram.block_id)
        assert pool.free_blocks == 1

    def test_get_block_routes_by_tier(self, pool):
        pool.allocate()
        pool.allocate()
        spill = pool.allocate()
        assert pool.get_block(spill.block_id) is spill

    def test_accounting_includes_spill(self, pool):
        pool.allocate()
        pool.allocate()
        spill = pool.allocate()
        spill.set_used(40)
        assert pool.spilled_bytes() == 40
        assert pool.used_bytes() == 40
        assert pool.allocated_bytes() == 300

    def test_bad_spill_server_blocks(self):
        with pytest.raises(BlockError):
            TieredMemoryPool(block_size=10, spill_server_blocks=0)

    def test_chain_walks_tiers_in_order(self):
        pool = TieredMemoryPool(
            block_size=100,
            tiers=(PMEM_TIER, SSD_TIER),
            spill_server_blocks=4,
            tier_budgets={"PMem": 200},  # two PMem blocks, then SSD
        )
        tiers = [pool.allocate().tier for _ in range(4)]
        assert tiers == ["PMem", "PMem", "SSD", "SSD"]

    def test_allocate_on_targets_one_tier(self):
        pool = TieredMemoryPool(
            block_size=100, tiers=(PMEM_TIER, SSD_TIER), spill_server_blocks=4
        )
        pool.add_server(num_blocks=1, server_id="dram0")
        assert pool.allocate_on("dram").tier == "dram"
        assert pool.allocate_on("SSD").tier == "SSD"  # no PMem fallback
        with pytest.raises(CapacityError):
            pool.allocate_on("dram")  # DRAM full: no spill fallback
        with pytest.raises(BlockError):
            pool.allocate_on("HDD")  # not in the chain

    def test_allocate_on_respects_budget(self):
        pool = TieredMemoryPool(
            block_size=100,
            tiers=(PMEM_TIER, SSD_TIER),
            spill_server_blocks=4,
            tier_budgets={"PMem": 100},
        )
        pool.allocate_on("PMem")
        with pytest.raises(CapacityError):
            pool.allocate_on("PMem")


class TestSpillServerRelease:
    def test_empty_spill_server_is_released(self, pool):
        pool.allocate()
        pool.allocate()
        spill = pool.allocate()
        assert pool.allocated_bytes() == 300
        pool.reclaim(spill.block_id)
        # The spill server's last block freed: the server goes away and
        # allocated_bytes drops back to live DRAM, not the high-water
        # mark.
        assert pool.spill_servers_released == 1
        assert pool.spilled_blocks() == 0
        assert pool.allocated_bytes() == 200
        # A later overflow provisions a fresh server transparently.
        assert pool.allocate().tier == "SSD"

    def test_release_waits_for_last_block(self, pool):
        pool.allocate()
        pool.allocate()
        s1 = pool.allocate()
        s2 = pool.allocate()  # same 4-block spill server
        pool.reclaim(s1.block_id)
        assert pool.spill_servers_released == 0
        pool.reclaim(s2.block_id)
        assert pool.spill_servers_released == 1


class TestTierHeadroom:
    def test_dram_headroom_is_free_blocks(self, pool):
        assert pool.tier_headroom("dram") == 2
        pool.allocate()
        assert pool.tier_headroom("dram") == 1

    def test_unbounded_tier_has_no_headroom_figure(self, pool):
        assert pool.tier_headroom("SSD") is None

    def test_budgeted_tier_headroom_counts_down(self):
        pool = TieredMemoryPool(
            block_size=100,
            tiers=(PMEM_TIER, SSD_TIER),
            spill_server_blocks=4,
            tier_budgets={"PMem": 300},
        )
        assert pool.tier_headroom("PMem") == 3
        block = pool.allocate()
        assert pool.tier_headroom("PMem") == 2
        pool.reclaim(block.block_id)
        assert pool.tier_headroom("PMem") == 3

    def test_unknown_tier_rejected(self, pool):
        with pytest.raises(BlockError):
            pool.tier_headroom("HDD")


class TestRegistryTelemetry:
    def test_spill_metrics_mirrored_to_registry(self, pool):
        registry = MetricsRegistry()
        pool.bind_registry(registry)
        pool.allocate()
        pool.allocate()
        spill = pool.allocate()
        spill.set_used(40)
        pool.sync_telemetry()
        assert registry.counter("pool.spill_allocations").value == 1
        assert registry.gauge("pool.spilled_blocks").value == 1
        assert registry.gauge("pool.spilled_bytes").value == 40
        assert registry.gauge("tier.residency", tier="dram").value == 2
        assert registry.gauge("tier.residency", tier="SSD").value == 1

    def test_release_counter_reaches_registry(self, pool):
        registry = MetricsRegistry()
        pool.bind_registry(registry)
        pool.allocate()
        pool.allocate()
        spill = pool.allocate()
        pool.reclaim(spill.block_id)
        pool.sync_telemetry()
        assert registry.counter("pool.spill_servers_released").value == 1
        assert registry.gauge("pool.spilled_blocks").value == 0

    def test_sync_is_idempotent(self, pool):
        registry = MetricsRegistry()
        pool.bind_registry(registry)
        pool.allocate()
        pool.allocate()
        pool.allocate()
        pool.sync_telemetry()
        pool.sync_telemetry()  # counters must not double-count
        assert registry.counter("pool.spill_allocations").value == 1


class TestAccessLatency:
    def test_dram_is_free(self, pool):
        block = pool.allocate()
        assert pool.access_latency(block, 1000) == 0.0

    def test_spill_pays_device_latency(self, pool):
        pool.allocate()
        pool.allocate()
        spill = pool.allocate()
        read = pool.access_latency(spill, 1000)
        write = pool.access_latency(spill, 1000, write=True)
        assert read == pytest.approx(SSD_TIER.read_latency(1000))
        assert write == pytest.approx(SSD_TIER.write_latency(1000))

    def test_s3_spill_tier(self):
        pool = TieredMemoryPool(block_size=100, tiers=(S3_TIER,))
        block = pool.allocate()  # no DRAM servers: straight to spill
        assert block.tier == "S3"
        assert pool.access_latency(block, 100) > SSD_TIER.read_latency(100)


class TestControllerIntegration:
    def test_constrained_jiffy_spills_instead_of_failing(self):
        clock = SimClock()
        pool = TieredMemoryPool(block_size=KB, spill_server_blocks=16)
        pool.add_server(num_blocks=4)  # tiny DRAM tier
        controller = JiffyController(
            JiffyConfig(block_size=KB), pool=pool, clock=clock
        )
        client = connect(controller, "job")
        client.create_addr_prefix("t")
        f = client.init_data_structure("t", "file")
        f.append(b"x" * 10 * KB)  # far beyond the 4-block DRAM tier
        assert f.readall() == b"x" * 10 * KB
        assert pool.spilled_blocks() > 0
        tiers = {b.tier for b in f.blocks()}
        assert tiers == {"dram", "SSD"}

    def test_expiry_reclaims_spill_blocks_too(self):
        clock = SimClock()
        pool = TieredMemoryPool(block_size=KB, spill_server_blocks=16)
        pool.add_server(num_blocks=2)
        controller = JiffyController(
            JiffyConfig(block_size=KB), pool=pool, clock=clock
        )
        client = connect(controller, "job")
        client.create_addr_prefix("t")
        client.init_data_structure("t", "file").append(b"y" * 8 * KB)
        clock.advance(2.0)
        controller.tick()
        assert pool.spilled_blocks() == 0
        assert pool.allocated_blocks == 0

    def test_dram_frees_reused_before_spill(self):
        clock = SimClock()
        pool = TieredMemoryPool(block_size=KB, spill_server_blocks=16)
        pool.add_server(num_blocks=4)
        controller = JiffyController(
            JiffyConfig(block_size=KB), pool=pool, clock=clock
        )
        a = connect(controller, "a")
        a.create_addr_prefix("t")
        fa = a.init_data_structure("t", "file")
        fa.append(b"x" * 3 * KB)
        clock.advance(2.0)
        controller.tick()  # job a expires; DRAM frees
        b = connect(controller, "b")
        b.create_addr_prefix("t")
        fb = b.init_data_structure("t", "file")
        fb.append(b"z" * 2 * KB)
        assert all(blk.tier == "dram" for blk in fb.blocks())
