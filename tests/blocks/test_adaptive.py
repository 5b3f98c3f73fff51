"""Adaptive tier manager: bands, dwell, persistence, pressure, cut-over.

Deterministic unit tests drive :class:`AdaptiveTierManager` directly —
access counts are set by hand, scans are invoked explicitly, and the
background scheduler is drained on demand — so each policy mechanism
(hysteresis band, dwell, confirm-scan persistence, pressure-driven
demotion, execution-time re-validation, swap eviction) is pinned in
isolation from the Zipf replay that exercises them together in
``benchmarks/test_tiering.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks.adaptive import AdaptiveTierManager
from repro.blocks.tiered import DRAM_NAME, TieredMemoryPool
from repro.config import KB, JiffyConfig
from repro.core.client import connect
from repro.core.controller import JiffyController
from repro.errors import BlockError
from repro.sim.background import BackgroundScheduler
from repro.sim.clock import SimClock
from repro.storage.tier import PMEM_TIER, SSD_TIER
from repro.telemetry.registry import MetricsRegistry


class MoveLog(dict):
    """``on_move`` hook recording each cut-over as ``old_id -> new Block``.

    Keyed by the old id because a swap hands the victim's freed DRAM id
    to the candidate, so a block's current id alone cannot tell the two
    moves apart.
    """

    def __call__(self, old_id, new):
        self[old_id] = new


def make_rig(
    dram_blocks=2,
    tier_budgets=None,
    confirm_scans=1,
    dwell_s=0.0,
    **knobs,
):
    """(clock, scheduler, pool, manager) with test-friendly defaults.

    ``confirm_scans=1`` and ``dwell_s=0`` so a single scan can plan a
    move; individual tests re-enable each guard to pin it. The manager's
    ``on_move`` is a :class:`MoveLog`.
    """
    clock = SimClock()
    scheduler = BackgroundScheduler(clock=clock)
    pool = TieredMemoryPool(
        block_size=100,
        tiers=(PMEM_TIER, SSD_TIER),
        spill_server_blocks=4,
        tier_budgets=tier_budgets,
    )
    pool.add_server(num_blocks=dram_blocks, server_id="dram0")
    registry = MetricsRegistry()
    manager = AdaptiveTierManager(
        pool,
        clock,
        scheduler,
        MoveLog(),
        confirm_scans=confirm_scans,
        dwell_s=dwell_s,
        registry=registry,
        **knobs,
    )
    return clock, scheduler, pool, manager


def fill_dram(pool, n):
    return [pool.allocate() for _ in range(n)]


class TestPromotion:
    def test_hot_spill_block_promoted_into_free_dram(self):
        clock, scheduler, pool, manager = make_rig()
        d0, d1 = fill_dram(pool, 2)
        spill = pool.allocate()
        assert spill.tier == "PMem"
        pool.reclaim(d0.block_id)  # open a DRAM slot
        spill.acc = 5  # heat 5 >= promote_heat 2 after one scan
        manager.demote_enabled = False  # promotion path only
        assert manager.scan() == 1
        assert manager.promotions == 0  # planned, not yet executed
        scheduler.drain()
        assert manager.promotions == 1
        moved = manager.on_move[spill.block_id]
        assert moved.tier == DRAM_NAME
        assert pool.get_block(moved.block_id) is moved

    def test_move_carries_payload_and_accounting(self):
        clock, scheduler, pool, manager = make_rig()
        d0, _ = fill_dram(pool, 2)
        spill = pool.allocate()
        spill.payload["data"] = b"x" * 60
        spill.set_used(60)
        spill.seal()
        pool.reclaim(d0.block_id)
        spill.acc = 5
        manager.scan()
        scheduler.drain()
        moved = manager.on_move[spill.block_id]
        assert moved.payload["data"] == b"x" * 60
        assert moved.used == 60
        assert moved.sealed
        assert moved.tier_moves == 1

    def test_block_inside_band_stays_put(self):
        clock, scheduler, pool, manager = make_rig()
        fill_dram(pool, 2)
        spill = pool.allocate()
        spill.acc = 1  # heat 1: between demote (0.5) and promote (2.0)
        manager.demote_enabled = False  # keep full-DRAM demotions out
        assert manager.scan() == 0
        scheduler.drain()
        assert manager.promotions == 0
        assert pool.get_block(spill.block_id) is spill  # never moved

    def test_mid_chain_promotion_ssd_to_pmem(self):
        clock, scheduler, pool, manager = make_rig(
            tier_budgets={"PMem": 100}  # one PMem block
        )
        fill_dram(pool, 2)
        on_pmem = pool.allocate()  # fills PMem
        on_ssd = pool.allocate()
        assert on_ssd.tier == "SSD"
        # Free the PMem slot so the hot SSD block can hop one tier up.
        pool.reclaim(on_pmem.block_id)
        on_ssd.acc = 5
        manager.demote_enabled = False
        manager.scan()
        scheduler.drain()
        moved = manager.on_move[on_ssd.block_id]
        assert moved.tier == "PMem"
        assert manager.promotions == 1


class TestPressureDrivenDemotion:
    def test_cold_dram_demoted_only_under_pressure(self):
        # DRAM completely full => headroom 0 < max_moves_per_scan.
        clock, scheduler, pool, manager = make_rig(dram_blocks=2)
        cold, warm = fill_dram(pool, 2)
        warm.acc = 1
        clock.advance(1.0)
        assert manager.scan() >= 1
        scheduler.drain()
        assert manager.demotions >= 1
        moved = manager.on_move[cold.block_id]
        assert moved.tier == "PMem"  # demotion goes one level, not to SSD

    def test_roomy_dram_keeps_idle_blocks(self):
        # 16 free DRAM blocks >> max_moves_per_scan: no pressure, the
        # idle block stays — demoting it would only tax its next access.
        clock, scheduler, pool, manager = make_rig(dram_blocks=17)
        block = pool.allocate()
        clock.advance(1.0)
        assert manager.scan() == 0
        assert manager.demotions == 0
        assert pool.get_block(block.block_id) is block

    def test_unbounded_spill_tier_never_demotes(self):
        clock, scheduler, pool, manager = make_rig(dram_blocks=2)
        fill_dram(pool, 2)
        spill = pool.allocate()  # PMem, unbounded budget
        for _ in range(3):
            clock.advance(1.0)
            manager.scan()
            scheduler.drain()
        assert pool.get_block(spill.block_id).tier == "PMem"

    def test_budgeted_spill_tier_demotes_at_pressure(self):
        # PMem capped at 2 blocks: once it fills, its coldest block is
        # pushed to SSD to restore promotion headroom.
        clock, scheduler, pool, manager = make_rig(
            dram_blocks=2, tier_budgets={"PMem": 200}
        )
        fill_dram(pool, 2)
        p0 = pool.allocate()
        p1 = pool.allocate()
        assert {p0.tier, p1.tier} == {"PMem"}
        p1.acc = 1
        clock.advance(1.0)
        manager.scan()
        scheduler.drain()
        moved = manager.on_move[p0.block_id]
        assert moved.tier == "SSD"


class TestDwellAndPersistence:
    def test_dwell_defers_movement(self):
        clock, scheduler, pool, manager = make_rig(dwell_s=10.0)
        d0, _ = fill_dram(pool, 2)
        spill = pool.allocate()
        pool.reclaim(d0.block_id)
        spill.acc = 5
        manager.demote_enabled = False
        assert manager.scan() == 0  # 0s on tier < 10s dwell
        clock.advance(10.0)
        spill.acc = 5
        assert manager.scan() == 1
        scheduler.drain()
        assert manager.promotions == 1

    def test_confirm_scans_filters_one_scan_burst(self):
        clock, scheduler, pool, manager = make_rig(confirm_scans=2)
        d0, _ = fill_dram(pool, 2)
        spill = pool.allocate()
        pool.reclaim(d0.block_id)
        manager.demote_enabled = False
        # One burst of 3 accesses: heat 3.0 (beyond the band) on scan 1,
        # then decays to 1.5 (inside the band) on scan 2 — the streak
        # never reaches 2, so the burst block never moves.
        spill.acc = 3
        assert manager.scan() == 0
        clock.advance(1.0)
        assert manager.scan() == 0
        scheduler.drain()
        assert manager.promotions == 0

    def test_confirm_scans_passes_sustained_heat(self):
        clock, scheduler, pool, manager = make_rig(confirm_scans=2)
        d0, _ = fill_dram(pool, 2)
        spill = pool.allocate()
        pool.reclaim(d0.block_id)
        manager.demote_enabled = False
        spill.acc = 3
        assert manager.scan() == 0  # streak 1 of 2
        clock.advance(1.0)
        spill.acc = 3  # still hot on the next scan: genuine, not a burst
        assert manager.scan() == 1
        scheduler.drain()
        assert manager.promotions == 1

    def test_same_burst_moves_without_persistence(self):
        # The confirm_scans=1 control for the burst test above.
        clock, scheduler, pool, manager = make_rig(confirm_scans=1)
        d0, _ = fill_dram(pool, 2)
        spill = pool.allocate()
        pool.reclaim(d0.block_id)
        manager.demote_enabled = False
        spill.acc = 3
        assert manager.scan() == 1


class TestSwap:
    def test_hot_spill_swaps_with_cold_dram_victim(self):
        clock, scheduler, pool, manager = make_rig(dram_blocks=2)
        moved = manager.on_move
        cold, warm = fill_dram(pool, 2)
        spill = pool.allocate()
        warm.acc = 2
        spill.acc = 8
        clock.advance(1.0)
        manager.scan()
        scheduler.drain()
        assert manager.promotions == 1
        assert manager.demotions == 1
        assert moved[spill.block_id].tier == DRAM_NAME
        assert moved[cold.block_id].tier == "PMem"

    def test_swap_requires_hysteresis_ratio(self):
        # Coldest victim at heat 3; candidate at 5 < 3 * ratio(2) = 6:
        # evicting would be churn, not progress — nobody moves.
        clock, scheduler, pool, manager = make_rig(dram_blocks=2)
        v0, v1 = fill_dram(pool, 2)
        spill = pool.allocate()
        v0.acc = 3
        v1.acc = 3
        spill.acc = 5
        clock.advance(1.0)
        # Suppress demotion so only the swap path is under test (DRAM is
        # full, which would otherwise demote a victim for pressure).
        manager.demote_enabled = False
        assert manager.scan() == 0
        assert manager.promotions == 0


class TestExecutionTimeRevalidation:
    def test_cooled_promotion_aborts_as_thrash(self):
        clock, scheduler, pool, manager = make_rig()
        d0, _ = fill_dram(pool, 2)
        spill = pool.allocate()
        pool.reclaim(d0.block_id)
        spill.acc = 5
        manager.scan()
        spill.heat = 0.0  # cools off while the copy is queued
        scheduler.drain()
        assert manager.thrash_aborts == 1
        assert manager.promotions == 0
        assert pool.get_block(spill.block_id).tier == "PMem"

    def test_reclaimed_block_skips_the_move(self):
        registry = MetricsRegistry()
        clock = SimClock()
        scheduler = BackgroundScheduler(clock=clock)
        pool = TieredMemoryPool(
            block_size=100, tiers=(PMEM_TIER, SSD_TIER), spill_server_blocks=4
        )
        pool.add_server(num_blocks=2)
        manager = AdaptiveTierManager(
            pool,
            clock,
            scheduler,
            MoveLog(),
            confirm_scans=1,
            dwell_s=0.0,
            registry=registry,
        )
        d0, _ = fill_dram(pool, 2)
        spill = pool.allocate()
        pool.reclaim(d0.block_id)
        spill.acc = 5
        manager.scan()
        pool.reclaim(spill.block_id)  # freed between plan and execution
        scheduler.drain()
        assert registry.counter("tier.skipped_moves").value == 1
        assert manager.promotions == 0

    def test_counters_flow_through_registry(self):
        registry = MetricsRegistry()
        clock = SimClock()
        scheduler = BackgroundScheduler(clock=clock)
        pool = TieredMemoryPool(
            block_size=100, tiers=(PMEM_TIER, SSD_TIER), spill_server_blocks=4
        )
        pool.add_server(num_blocks=2)
        manager = AdaptiveTierManager(
            pool,
            clock,
            scheduler,
            MoveLog(),
            confirm_scans=1,
            dwell_s=0.0,
            registry=registry,
        )
        d0, _ = fill_dram(pool, 2)
        spill = pool.allocate()
        pool.reclaim(d0.block_id)
        spill.acc = 5
        manager.scan()
        scheduler.drain()
        assert registry.counter("tier.promotions").value == 1
        assert registry.counter("tier.scans").value == 1
        assert registry.counter("tier.moved_bytes").value == spill.used


class TestValidation:
    def test_rejects_inverted_bands(self):
        clock, scheduler, pool, _ = make_rig()
        with pytest.raises(BlockError):
            AdaptiveTierManager(
                pool,
                clock,
                scheduler,
                MoveLog(),
                promote_heat=1.0,
                demote_heat=2.0,
            )

    def test_rejects_bad_confirm_scans(self):
        clock, scheduler, pool, _ = make_rig()
        with pytest.raises(BlockError):
            AdaptiveTierManager(
                pool, clock, scheduler, MoveLog(), confirm_scans=0
            )

    def test_rejects_bad_hysteresis_ratio(self):
        clock, scheduler, pool, _ = make_rig()
        with pytest.raises(BlockError):
            AdaptiveTierManager(
                pool, clock, scheduler, MoveLog(), hysteresis_ratio=0.5
            )


# Op codes for the equivalence test: (action, operand) pairs.
_OPS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 63)), max_size=60
)


class TestStaticEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(ops=_OPS)
    def test_disabled_manager_is_observationally_static(self, ops):
        """With both policies off, a managed pool IS the static pool.

        Heat tracking stays live (acc bumps, scans decay) but no block
        may ever move — every allocation tier, access latency, and the
        final residency must match a bare TieredMemoryPool replaying the
        same op sequence.
        """

        def build(managed):
            clock = SimClock()
            scheduler = BackgroundScheduler(clock=clock)
            pool = TieredMemoryPool(
                block_size=100,
                tiers=(PMEM_TIER, SSD_TIER),
                spill_server_blocks=4,
                tier_budgets={"PMem": 300},
            )
            pool.add_server(num_blocks=3, server_id="dram0")
            manager = None
            if managed:
                manager = AdaptiveTierManager(
                    pool,
                    clock,
                    scheduler,
                    MoveLog(),
                    confirm_scans=1,
                    dwell_s=0.0,
                    scan_interval_s=1.0,
                )
                manager.promote_enabled = False
                manager.demote_enabled = False
            return clock, scheduler, pool, manager

        def replay(clock, scheduler, pool, manager):
            live = []
            obs = []
            for action, operand in ops:
                if action == 0:
                    block = pool.allocate()
                    live.append(block)
                    obs.append(("alloc", block.tier))
                elif action == 1 and live:
                    block = live.pop(operand % len(live))
                    pool.reclaim(block.block_id)
                    obs.append(("free", block.tier))
                elif action == 2 and live:
                    block = live[operand % len(live)]
                    lat = pool.access_latency(
                        block, 64, write=bool(operand % 2)
                    )
                    obs.append(("access", block.tier, lat))
                clock.advance(0.6)
                if manager is not None:
                    manager.maybe_scan()
                scheduler.poll(8)
            return obs, pool.tier_residency()

        obs_static, res_static = replay(*build(managed=False))
        clock, scheduler, pool, manager = build(managed=True)
        obs_managed, res_managed = replay(clock, scheduler, pool, manager)
        assert obs_managed == obs_static
        assert res_managed == res_static
        assert manager.promotions == 0
        assert manager.demotions == 0
        assert manager.on_move == {}


class TestControllerCutOver:
    """Tier moves recycle DRAM block ids — the aliasing regression.

    A promotion frees its source block back to the pool, and that id is
    later REUSED by a fresh allocation. The controller must purge the
    move's forwarding entry when it re-issues the id, and data
    structures must have their internal id references rewritten at move
    time; miss either and a reused id resolves to some other tenant's
    block (the original symptom: ``KeyError: 'data'`` mid-append).
    """

    def _controller(self):
        clock = SimClock()
        config = JiffyConfig(
            block_size=KB,
            lease_duration=1000.0,  # no expiry churn during the test
            tiering="adaptive",
            tier_chain=("PMem", "SSD"),
            tier_dwell_s=0.0,
            tier_confirm_scans=1,
            tier_scan_interval_s=1.0,
        )
        controller = JiffyController(config, clock=clock, default_blocks=4)
        return clock, controller

    def _force_moves(self, clock, controller, rounds=6):
        manager = controller.tier_manager
        assert manager is not None
        for _ in range(rounds):
            for block in controller.pool.iter_allocated_blocks():
                # Heat spill blocks, starve DRAM blocks: every scan has
                # promotion *and* pressure-demotion work to do.
                block.acc = 5 if block.tier != DRAM_NAME else 0
            clock.advance(1.0)
            controller.tick()
        controller.background.drain()

    def test_file_survives_tier_moves_and_id_reuse(self):
        clock, controller = self._controller()
        client = connect(controller, "job")
        client.create_addr_prefix("t")
        f = client.init_data_structure("t", "file")
        payload = bytes(range(256)) * 32  # 8 KB > the 4-block DRAM tier
        f.append(payload)
        self._force_moves(clock, controller)
        manager = controller.tier_manager
        assert manager.promotions + manager.demotions > 0  # not vacuous
        # The moved file still reads back intact...
        assert f.readall() == payload
        # ...and appends written through reused DRAM ids land correctly.
        f.append(payload)
        self._force_moves(clock, controller)
        assert f.readall() == payload + payload

    def test_kv_survives_tier_moves_and_id_reuse(self):
        clock, controller = self._controller()
        client = connect(controller, "job")
        client.create_addr_prefix("t")
        kv = client.init_data_structure("t", "kv_store", num_slots=64)
        items = {f"k{i:03d}".encode(): (b"v%03d" % i) * 32 for i in range(40)}
        for key, value in items.items():
            kv.put(key, value)
        self._force_moves(clock, controller)
        manager = controller.tier_manager
        assert manager.promotions + manager.demotions > 0
        for key, value in items.items():
            assert kv.get(key) == value
        for key in items:
            kv.put(key, b"new" + key)
        self._force_moves(clock, controller)
        for key in items:
            assert kv.get(key) == b"new" + key
