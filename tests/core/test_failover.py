"""Primary-backup controller fault tolerance (§4.2.1)."""

import pytest

from repro.config import KB, JiffyConfig
from repro.core.controller import JiffyController
from repro.core.failover import PrimaryBackupController
from repro.errors import JiffyError
from repro.sim.clock import SimClock


@pytest.fixture
def clock():
    return SimClock()


def make_pair(clock):
    config = JiffyConfig(block_size=KB)
    primary = JiffyController(config, clock=clock, default_blocks=64)
    backup = JiffyController(config, clock=clock, default_blocks=64)
    return PrimaryBackupController(primary, backup)


class TestReplication:
    def test_mutations_reach_backup(self, clock):
        pair = make_pair(clock)
        pair.register_job("j")
        pair.create_hierarchy("j", {"t2": ["t1"]})
        pair.allocate_block("j", "t2")
        assert pair.state_matches()
        assert pair.replicated_ops == 3

    def test_reads_not_replicated(self, clock):
        pair = make_pair(clock)
        pair.register_job("j")
        pair.create_addr_prefix("j", "t1")
        ops = pair.replicated_ops
        pair.get_lease_duration("j", "t1")
        pair.resolve("j", "t1")
        assert pair.replicated_ops == ops

    def test_lease_state_replicated(self, clock):
        pair = make_pair(clock)
        pair.register_job("j")
        pair.create_addr_prefix("j", "t1", initial_blocks=1)
        clock.advance(0.5)
        pair.renew_lease("j", "t1")
        assert pair.state_matches()

    def test_expiry_replicated_via_tick(self, clock):
        pair = make_pair(clock)
        pair.register_job("j")
        pair.create_addr_prefix("j", "t1", initial_blocks=2)
        clock.advance(2.0)
        pair.tick()
        assert pair.state_matches()
        assert pair.backup.pool.allocated_blocks == 0


class TestFailover:
    def test_failover_preserves_state(self, clock):
        pair = make_pair(clock)
        pair.register_job("j")
        pair.create_hierarchy("j", {"t2": ["t1"]})
        pair.allocate_block("j", "t2")
        old_backup = pair.backup
        new_primary = pair.failover()
        assert new_primary is old_backup
        # Requests keep working against the promoted backup.
        assert pair.resolve("j", "t1/t2").name == "t2"
        node = pair.hierarchy("j").get_node("t2")
        assert len(node.block_ids) == 1

    def test_batched_and_policy_ops_survive_failover(self, clock):
        """MUTATING_OPS is derived from CONTROL_SURFACE: bulk renewals,
        bulk reclaims and quota changes reach the backup too."""
        pair = make_pair(clock)
        pair.register_job("j")
        pair.create_hierarchy("j", {"t2": ["t1"]})
        blocks = [pair.allocate_block("j", "t2").block_id for _ in range(3)]
        clock.advance(0.5)
        pair.renew_leases([("j", "t2")])
        assert pair.reclaim_blocks("j", "t2", blocks[:2]) == 2
        pair.set_quota("j", 5)
        assert pair.state_matches()
        before = pair.describe_job("j")
        pair.failover()
        assert pair.describe_job("j") == before
        assert pair.hierarchy("j").get_node("t2").block_ids == blocks[2:]
        assert pair.hierarchy("j").get_node("t1").last_renewal == 0.5
        assert pair.quota_of("j") == 5
        assert pair.primary.pool.allocated_blocks == 1
        # The promoted backup serves mutations alone: applied once.
        pair.allocate_block("j", "t2")
        assert pair.primary.pool.allocated_blocks == 2

    def test_double_failover_rejected(self, clock):
        pair = make_pair(clock)
        pair.failover()
        with pytest.raises(JiffyError):
            pair.failover()

    def test_log_reseeds_fresh_backup(self, clock):
        pair = make_pair(clock)
        pair.register_job("j")
        pair.create_addr_prefix("j", "t1", initial_blocks=2)
        pair.renew_lease("j", "t1")
        fresh = JiffyController(
            JiffyConfig(block_size=KB), clock=clock, default_blocks=64
        )
        replayed = pair.replay_onto(fresh)
        assert replayed == 3
        assert fresh.is_registered("j")
        assert len(fresh.hierarchy("j").get_node("t1").block_ids) == 2

    def test_mismatched_configs_rejected(self, clock):
        a = JiffyController(JiffyConfig(block_size=KB), clock=clock, default_blocks=8)
        b = JiffyController(
            JiffyConfig(block_size=2 * KB), clock=clock, default_blocks=8
        )
        with pytest.raises(JiffyError):
            PrimaryBackupController(a, b)
