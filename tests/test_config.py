"""Configuration validation and defaults."""

import dataclasses

import pytest

from repro.config import (
    DEFAULT_BLOCK_SIZE,
    MB,
    PAPER_CONFIG,
    TEST_CONFIG,
    JiffyConfig,
)


class TestDefaults:
    def test_paper_defaults(self):
        # §6: 128MB blocks, 1s lease, 5%/95% thresholds, H=1024.
        assert PAPER_CONFIG.block_size == 128 * MB
        assert PAPER_CONFIG.lease_duration == 1.0
        assert PAPER_CONFIG.low_threshold == 0.05
        assert PAPER_CONFIG.high_threshold == 0.95
        assert PAPER_CONFIG.num_hash_slots == 1024

    def test_default_block_size_constant(self):
        assert DEFAULT_BLOCK_SIZE == 128 * MB

    def test_test_config_is_small(self):
        assert TEST_CONFIG.block_size == 1024

    def test_config_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            PAPER_CONFIG.block_size = 1  # type: ignore[misc]


class TestValidation:
    @pytest.mark.parametrize("block_size", [0, -1, -128])
    def test_rejects_bad_block_size(self, block_size):
        with pytest.raises(ValueError):
            JiffyConfig(block_size=block_size)

    @pytest.mark.parametrize("lease", [0.0, -1.0])
    def test_rejects_bad_lease(self, lease):
        with pytest.raises(ValueError):
            JiffyConfig(lease_duration=lease)

    @pytest.mark.parametrize(
        "low,high",
        [(0.5, 0.5), (0.9, 0.5), (-0.1, 0.9), (0.1, 1.5)],
    )
    def test_rejects_bad_thresholds(self, low, high):
        with pytest.raises(ValueError):
            JiffyConfig(low_threshold=low, high_threshold=high)

    def test_rejects_bad_hash_slots(self):
        with pytest.raises(ValueError):
            JiffyConfig(num_hash_slots=0)

    def test_rejects_bad_replication(self):
        with pytest.raises(ValueError):
            JiffyConfig(replication_factor=0)

    def test_rejects_adaptive_tiering_with_replication(self):
        # Tier moves bypass replica-chain upkeep, so the combination is
        # refused at construction instead of silently running static.
        with pytest.raises(ValueError, match="replica chain"):
            JiffyConfig(tiering="adaptive", replication_factor=2)
        assert JiffyConfig(tiering="adaptive").tiering == "adaptive"
        assert JiffyConfig(replication_factor=2).replication_factor == 2

    def test_rejects_autoscale_min_servers_below_replication(self):
        # Draining below rf servers leaves chains nowhere to place a
        # backup, and puts then fail with free blocks left.
        with pytest.raises(ValueError, match="replication_factor=2"):
            JiffyConfig(autoscale=True, replication_factor=2)
        config = JiffyConfig(
            autoscale=True, replication_factor=2, autoscale_min_servers=2
        )
        assert config.autoscale_min_servers == 2
        assert JiffyConfig(replication_factor=2).autoscale is False


class TestOverrides:
    def test_with_overrides_returns_new_config(self):
        base = JiffyConfig()
        derived = base.with_overrides(lease_duration=5.0)
        assert derived.lease_duration == 5.0
        assert base.lease_duration == 1.0
        assert derived.block_size == base.block_size

    def test_with_overrides_validates(self):
        with pytest.raises(ValueError):
            JiffyConfig().with_overrides(block_size=-1)
