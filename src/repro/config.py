"""System-wide configuration for the Jiffy reproduction.

The defaults follow the paper's evaluation setup (§6): 128 MB blocks, a
1-second lease duration, 5 % / 95 % low/high block-usage thresholds for
data repartitioning, and 1024 hash slots for the KV-store.

For unit tests and laptop-scale experiments the absolute block size is
freely configurable — all allocation, lease, and repartitioning logic is
expressed in terms of block counts and usage fractions, so scaling the
block size down preserves behaviour.
"""

from __future__ import annotations

import dataclasses
import typing

KB = 1024
MB = 1024 * 1024
GB = 1024 * 1024 * 1024

#: Default block size used by the paper (§3.1): HDFS-compatible 128 MB.
DEFAULT_BLOCK_SIZE = 128 * MB

#: Default lease duration (seconds) — the paper's sweet spot (§6.6).
DEFAULT_LEASE_DURATION = 1.0

#: Default low/high block-usage thresholds for repartitioning (§6).
DEFAULT_LOW_THRESHOLD = 0.05
DEFAULT_HIGH_THRESHOLD = 0.95

#: Default number of KV-store hash slots (§5.3).
DEFAULT_NUM_HASH_SLOTS = 1024

#: Fixed per-task metadata overhead in bytes (§6.4).
TASK_METADATA_BYTES = 64

#: Per-block metadata overhead in bytes (§6.4).
BLOCK_METADATA_BYTES = 8


@dataclasses.dataclass(frozen=True)
class JiffyConfig:
    """Immutable configuration shared by the controller and data plane.

    Attributes:
        block_size: capacity of each memory block, in bytes.
        lease_duration: seconds a lease stays valid after a renewal.
        low_threshold: block-usage fraction below which a block becomes a
            merge candidate (scale-down).
        high_threshold: block-usage fraction above which a block signals
            the controller for a scale-up.
        num_hash_slots: size of the KV-store hash-slot space ``H``.
        flush_on_expiry: whether expired prefixes are flushed to the
            external store before their blocks are reclaimed (§3.2 —
            "the data is not lost").
        replication_factor: chain-replication factor for blocks; 1 means
            no replication (§4.2.2).
        async_repartition: run KV split/merge as background migrations
            (§3.3 — repartitioning happens off the critical path); False
            recovers the synchronous inline behaviour (the
            ``--sync-repartition`` ablation).
        repartition_poll_budget: background migration steps each
            foreground data-structure operation donates when no event
            loop drives the scheduler (cooperative incremental
            migration, à la Redis rehashing). 0 means foreground ops
            never donate; migrations then only advance via an event
            loop or an explicit drain.
        async_flush: perform lease-expiry / deregister flush I/O as a
            background task (snapshot is still taken synchronously so
            reclamation semantics are unchanged). Off by default: the
            synchronous flush is the conservative, test-pinned path.
        autoscale: run the Pocket-style cluster autoscaler inside the
            controller tick loop, joining servers when the pool's free
            fraction drops below ``autoscale_low_free`` and draining idle
            ones above ``autoscale_high_free`` (§3 footnote 4).
        autoscale_low_free: free-block fraction that triggers a scale-up.
        autoscale_high_free: free-block fraction above which idle servers
            are drained away.
        autoscale_blocks_per_server: size of servers the autoscaler adds;
            0 derives it from the largest server already in the pool.
        autoscale_min_servers: never drain below this many servers. With
            ``autoscale`` on it must be >= ``replication_factor``, so a
            replica chain always finds distinct servers.
        client_cache_bytes: byte budget of the per-session near-memory
            client cache (read-through over KV entries and file
            extents, lease-epoch-coherent invalidation). 0 (default)
            disables caching entirely — handles are returned unwrapped
            and the data path is byte-identical to the uncached build.
        client_cache_policy: eviction policy of the client cache:
            ``"lru"`` (default) or ``"clock"`` (second-chance).
        client_cache_writeback_bytes: byte budget of the client cache's
            write-back buffer. Buffered puts fold repeated writes to the
            same key locally and flush through the batched ``multi_put``
            path at size/epoch boundaries and framework stage barriers.
            0 (default) means write-through: puts land immediately and
            only reads are cached.
        tiering: ``"static"`` (default) keeps the one-way spill model;
            ``"adaptive"`` attaches an
            :class:`~repro.blocks.adaptive.AdaptiveTierManager` to a
            tiered pool — periodic scans promote hot spill blocks toward
            DRAM and demote cold DRAM blocks, with all movement on the
            background scheduler. Rejected together with
            ``replication_factor > 1``: tier moves bypass replica-chain
            upkeep.
        tier_chain: spill tier names behind DRAM, best first (e.g.
            ``("PMem", "SSD")``); names resolve via
            ``repro.storage.tier.TIER_BY_NAME``. Only consulted when the
            controller builds its own pool.
        tier_dwell_s: minimum seconds a block stays on a tier before it
            may move again.
        tier_confirm_scans: consecutive scans a block must spend beyond
            a band before it becomes a move candidate (anti-burst
            persistence; 1 disables it).
        tier_scan_interval_s: cadence of the tier manager's scan in the
            controller tick loop.
        tier_budgets: per-tier byte budgets as a (tier name, max bytes)
            mapping; a tier at budget overflows to the next one in the
            chain. Accepts a dict; stored as a sorted tuple of pairs so
            the config stays hashable.
    """

    block_size: int = DEFAULT_BLOCK_SIZE
    lease_duration: float = DEFAULT_LEASE_DURATION
    low_threshold: float = DEFAULT_LOW_THRESHOLD
    high_threshold: float = DEFAULT_HIGH_THRESHOLD
    num_hash_slots: int = DEFAULT_NUM_HASH_SLOTS
    flush_on_expiry: bool = True
    replication_factor: int = 1
    async_repartition: bool = True
    repartition_poll_budget: int = 4
    async_flush: bool = False
    autoscale: bool = False
    autoscale_low_free: float = 0.1
    autoscale_high_free: float = 0.5
    autoscale_blocks_per_server: int = 0
    autoscale_min_servers: int = 1
    client_cache_bytes: int = 0
    client_cache_policy: str = "lru"
    client_cache_writeback_bytes: int = 0
    tiering: str = "static"
    tier_chain: typing.Tuple[str, ...] = ("PMem", "SSD")
    tier_dwell_s: float = 2.0
    tier_confirm_scans: int = 2
    tier_scan_interval_s: float = 1.0
    tier_budgets: typing.Tuple[typing.Tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.lease_duration <= 0:
            raise ValueError("lease_duration must be positive")
        if not 0.0 <= self.low_threshold < self.high_threshold <= 1.0:
            raise ValueError(
                "thresholds must satisfy 0 <= low < high <= 1, got "
                f"low={self.low_threshold} high={self.high_threshold}"
            )
        if self.num_hash_slots <= 0:
            raise ValueError("num_hash_slots must be positive")
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.repartition_poll_budget < 0:
            raise ValueError("repartition_poll_budget must be >= 0")
        if self.client_cache_bytes < 0:
            raise ValueError("client_cache_bytes must be >= 0")
        if self.client_cache_writeback_bytes < 0:
            raise ValueError("client_cache_writeback_bytes must be >= 0")
        if self.client_cache_policy not in ("lru", "clock"):
            raise ValueError(
                f"client_cache_policy must be 'lru' or 'clock', got "
                f"{self.client_cache_policy!r}"
            )
        if not 0.0 <= self.autoscale_low_free < self.autoscale_high_free <= 1.0:
            raise ValueError(
                "autoscale free fractions must satisfy 0 <= low < high <= 1, "
                f"got low={self.autoscale_low_free} "
                f"high={self.autoscale_high_free}"
            )
        if self.autoscale_blocks_per_server < 0:
            raise ValueError("autoscale_blocks_per_server must be >= 0")
        if self.autoscale_min_servers < 1:
            raise ValueError("autoscale_min_servers must be >= 1")
        if self.autoscale and self.autoscale_min_servers < self.replication_factor:
            raise ValueError(
                f"autoscale_min_servers={self.autoscale_min_servers} is below "
                f"replication_factor={self.replication_factor}: the autoscaler "
                "could drain to fewer servers than a replica chain needs; "
                "raise autoscale_min_servers or disable autoscale"
            )
        if self.tiering not in ("static", "adaptive"):
            raise ValueError(
                f"tiering must be 'static' or 'adaptive', got "
                f"{self.tiering!r}"
            )
        if self.tiering == "adaptive" and self.replication_factor > 1:
            raise ValueError(
                "tiering='adaptive' cannot be combined with "
                f"replication_factor={self.replication_factor}: tier moves "
                "relocate a block without updating its replica chain "
                "(unsupported until the shared BlockMover lands); use "
                "tiering='static' or replication_factor=1"
            )
        object.__setattr__(self, "tier_chain", tuple(self.tier_chain))
        if not self.tier_chain:
            raise ValueError("tier_chain must name at least one tier")
        if self.tier_dwell_s < 0:
            raise ValueError("tier_dwell_s must be >= 0")
        if self.tier_confirm_scans < 1:
            raise ValueError("tier_confirm_scans must be >= 1")
        if self.tier_scan_interval_s <= 0:
            raise ValueError("tier_scan_interval_s must be positive")
        # Normalize dict-typed budgets to a sorted tuple of pairs so the
        # (frozen) config stays hashable.
        budgets = self.tier_budgets
        if isinstance(budgets, dict):
            budgets = tuple(sorted(budgets.items()))
        else:
            budgets = tuple(tuple(pair) for pair in budgets)  # type: ignore[misc]
        object.__setattr__(self, "tier_budgets", budgets)
        for pair in self.tier_budgets:
            if len(pair) != 2 or pair[1] < 0:
                raise ValueError(
                    "tier_budgets entries must be (tier name, bytes >= 0)"
                )

    def tier_budget_map(self) -> typing.Dict[str, int]:
        """The per-tier byte budgets as a plain dict."""
        return dict(self.tier_budgets)

    def with_overrides(self, **kwargs: object) -> "JiffyConfig":
        """Return a copy of this config with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)  # type: ignore[arg-type]


#: Configuration matching the paper's evaluation defaults exactly.
PAPER_CONFIG = JiffyConfig()

#: A small configuration convenient for unit tests (1 KB blocks).
TEST_CONFIG = JiffyConfig(block_size=KB)
