"""A tiered data plane: DRAM first, spill tiers on exhaustion (§2, §6.1).

Pocket supports DRAM/Flash/HDD tiers; Jiffy inherits the capability and
the Fig 9 experiment depends on it ("data spills to SSD when the
allocated capacity at the DRAM-tier is insufficient"). The
:class:`TieredMemoryPool` behaves like a normal
:class:`~repro.blocks.pool.MemoryPool` until DRAM runs out, then serves
*spill blocks* from an elastic chain of secondary tiers (e.g. DRAM →
PMem → SSD). Every block is tagged with its tier so experiments can
account spill traffic and latency, and the adaptive tier manager
(:mod:`repro.blocks.adaptive`) can move blocks between tiers with
``allocate_on`` + copy + reclaim.

Spill servers are elastic in both directions: they grow on demand and
are released back as soon as their last block frees up, so
``allocated_bytes()`` tracks live data instead of the high-water mark.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.blocks.block import Block, BlockId
from repro.blocks.pool import MemoryPool
from repro.blocks.server import MemoryServer
from repro.errors import BlockError, CapacityError
from repro.storage.tier import SSD_TIER, StorageTier
from repro.telemetry.registry import MetricsRegistry

#: Server-id prefix marking the spill tiers' virtual servers.
SPILL_PREFIX = "spill"

#: Name of the primary tier (plain pool servers).
DRAM_NAME = "dram"


class _SpillServer(MemoryServer):
    """A virtual memory server on a spill tier (grows on demand)."""

    def __init__(self, server_id: str, num_blocks: int, block_size: int, tier_name: str) -> None:
        super().__init__(server_id, num_blocks, block_size)
        self.tier_name = tier_name
        for block in self._blocks:
            block.tier = tier_name

    def reset_tier(self, tier_name: str) -> None:
        self.tier_name = tier_name
        for block in self._blocks:
            block.tier = tier_name


class TieredMemoryPool(MemoryPool):
    """DRAM pool with an elastic chain of spill tiers behind it.

    Args:
        block_size: capacity of each block in bytes.
        spill_server_blocks: blocks per virtual spill server.
        tiers: ordered demotion chain of :class:`StorageTier`s; spill
            allocation walks it front to back. Defaults to ``[SSD]``.
        tier_budgets: optional per-tier byte budgets (tier name → max
            provisioned bytes). Missing/0 entries mean unbounded. A tier
            at budget overflows to the next tier in the chain.
    """

    def __init__(
        self,
        block_size: int,
        spill_server_blocks: int = 64,
        tiers: Sequence[StorageTier] = (SSD_TIER,),
        tier_budgets: Optional[Mapping[str, int]] = None,
    ) -> None:
        super().__init__(block_size)
        if spill_server_blocks <= 0:
            raise BlockError("spill_server_blocks must be positive")
        if not tiers:
            raise BlockError("tier chain must not be empty")
        self.tiers: Tuple[StorageTier, ...] = tuple(tiers)
        seen = set()
        for tier in self.tiers:
            if tier.name in seen or tier.name == DRAM_NAME:
                raise BlockError(f"duplicate tier in chain: {tier.name}")
            seen.add(tier.name)
        self.spill_server_blocks = spill_server_blocks
        self._chain_by_name: Dict[str, StorageTier] = {
            t.name: t for t in self.tiers
        }
        self._tier_budget_blocks: Dict[str, Optional[int]] = {}
        for tier in self.tiers:
            budget = (tier_budgets or {}).get(tier.name, 0)
            if budget < 0:
                raise BlockError("tier budgets must be >= 0 bytes")
            self._tier_budget_blocks[tier.name] = (
                budget // block_size if budget else None
            )
        self._spill_servers: Dict[str, _SpillServer] = {}
        self._tier_servers: Dict[str, List[_SpillServer]] = {
            t.name: [] for t in self.tiers
        }
        self._next_spill = 0
        self.spill_allocations = 0
        self.spill_servers_released = 0
        self._registry: Optional[MetricsRegistry] = None
        self._synced_allocations = 0
        self._synced_releases = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(self, exclude: Optional[Collection[str]] = None) -> Block:
        """DRAM first; walk the spill chain when DRAM is out."""
        try:
            return super().allocate(exclude=exclude)
        except CapacityError:
            return self._allocate_spill()

    def allocate_on(self, tier_name: str) -> Block:
        """Allocate a block on one specific tier, with no fallback.

        ``"dram"`` draws from the primary pool; a spill-tier name draws
        from (and may grow) exactly that tier. Raises
        :class:`CapacityError` when the tier is full or at budget — the
        tier manager uses this for targeted promotion/demotion placement.
        """
        if tier_name == DRAM_NAME:
            return MemoryPool.allocate(self)
        tier = self._chain_by_name.get(tier_name)
        if tier is None:
            raise BlockError(f"no tier {tier_name!r} in chain")
        block = self._try_tier(tier)
        if block is None:
            raise CapacityError(f"tier {tier_name} is full (at budget)")
        return block

    def _allocate_spill(self) -> Block:
        for tier in self.tiers:
            block = self._try_tier(tier)
            if block is not None:
                return block
        raise CapacityError("memory pool exhausted: all spill tiers at budget")

    def _try_tier(self, tier: StorageTier) -> Optional[Block]:
        servers = self._tier_servers[tier.name]
        for server in servers:
            if server.free_blocks:
                self.spill_allocations += 1
                return server.allocate()
        grown = self._grow_tier(tier)
        if grown is None:
            return None
        self.spill_allocations += 1
        return grown.allocate()

    def _grow_tier(self, tier: StorageTier) -> Optional[_SpillServer]:
        budget = self._tier_budget_blocks[tier.name]
        size = self.spill_server_blocks
        if budget is not None:
            provisioned = sum(
                s.num_blocks for s in self._tier_servers[tier.name]
            )
            size = min(size, budget - provisioned)
            if size <= 0:
                return None
        server_id = f"{SPILL_PREFIX}-{self._next_spill}"
        self._next_spill += 1
        server = _SpillServer(server_id, size, self.block_size, tier.name)
        self._spill_servers[server_id] = server
        self._tier_servers[tier.name].append(server)
        # Spill blocks route through the same block→server table, so
        # reclaim/get_block need no tier-aware overrides.
        self._register_blocks(server)
        return server

    def iter_allocated_blocks(self):
        """Yield every allocated block, spill tiers included."""
        yield from super().iter_allocated_blocks()
        for server in self._spill_servers.values():
            yield from server.iter_allocated()

    def reclaim(self, block_id: BlockId) -> None:
        """Return a block; release its spill server once fully free."""
        server = self._block_server.get(block_id)
        super().reclaim(block_id)
        if (
            isinstance(server, _SpillServer)
            and server.allocated_blocks == 0
        ):
            self._release_spill_server(server)

    def _release_spill_server(self, server: _SpillServer) -> None:
        self._unregister_blocks(server)
        del self._spill_servers[server.server_id]
        self._tier_servers[server.tier_name].remove(server)
        self.spill_servers_released += 1

    # ------------------------------------------------------------------
    # Tier accounting
    # ------------------------------------------------------------------

    def spilled_blocks(self) -> int:
        """Blocks currently allocated across all spill tiers."""
        return sum(s.allocated_blocks for s in self._spill_servers.values())

    def spilled_bytes(self) -> int:
        """Bytes stored across all spill tiers."""
        return sum(s.used_bytes() for s in self._spill_servers.values())

    def tier_blocks(self, tier_name: str) -> int:
        """Blocks currently allocated on one tier (``"dram"`` included)."""
        if tier_name == DRAM_NAME:
            return super().allocated_blocks
        servers = self._tier_servers.get(tier_name)
        if servers is None:
            raise BlockError(f"no tier {tier_name!r} in chain")
        return sum(s.allocated_blocks for s in servers)

    def tier_bytes(self, tier_name: str) -> int:
        """Bytes stored on one tier (``"dram"`` included)."""
        if tier_name == DRAM_NAME:
            return super().used_bytes()
        servers = self._tier_servers.get(tier_name)
        if servers is None:
            raise BlockError(f"no tier {tier_name!r} in chain")
        return sum(s.used_bytes() for s in servers)

    def tier_headroom(self, tier_name: str) -> Optional[int]:
        """Blocks the tier can still take before capacity/budget.

        DRAM headroom is its free-block count; a spill tier's is budget
        minus allocated blocks, or ``None`` when the tier is unbounded
        (elastic growth). The tier manager demotes *from* a tier only
        when its headroom is running out — demotion exists to make room,
        not to chase every idle block downhill.
        """
        if tier_name == DRAM_NAME:
            return super().free_blocks
        if tier_name not in self._tier_budget_blocks:
            raise BlockError(f"no tier {tier_name!r} in chain")
        budget = self._tier_budget_blocks[tier_name]
        if budget is None:
            return None
        allocated = sum(
            s.allocated_blocks for s in self._tier_servers[tier_name]
        )
        return budget - allocated

    def tier_residency(self) -> Dict[str, int]:
        """Allocated block counts per tier, DRAM first, chain order."""
        residency = {DRAM_NAME: super().allocated_blocks}
        for tier in self.tiers:
            residency[tier.name] = self.tier_blocks(tier.name)
        return residency

    def dram_blocks_free(self) -> int:
        return super().free_blocks

    def used_bytes(self) -> int:
        return super().used_bytes() + self.spilled_bytes()

    def allocated_bytes(self) -> int:
        return (
            super().allocated_bytes()
            + self.spilled_blocks() * self.block_size
        )

    def access_latency(self, block: Block, nbytes: int, write: bool = False) -> float:
        """Modelled device latency for touching ``nbytes`` of a block.

        Charges the block's *current* tier, so a promotion to DRAM stops
        paying device latency and a demotion starts paying its target's.
        Also bumps the block's access counter — this is the read-path
        half of the tier manager's heat tracking (writes count via
        :meth:`Block.set_used`).
        """
        block.acc += 1
        if block.tier == DRAM_NAME:
            return 0.0  # DRAM path folded into baseline op cost
        tier = self._chain_by_name.get(block.tier, self.tiers[0])
        if write:
            return tier.write_latency(nbytes)
        return tier.read_latency(nbytes)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Expose spill counters/gauges through a metrics registry.

        ``spill_allocations``/``spilled_blocks``/``spilled_bytes`` were
        plain attributes invisible to the flight recorder; binding a
        registry mirrors them (plus per-tier residency) as real metrics
        on every :meth:`sync_telemetry` call.
        """
        self._registry = registry
        self.sync_telemetry()

    def sync_telemetry(self) -> None:
        """Refresh registry gauges/counters from the live pool state."""
        registry = self._registry
        if registry is None:
            return
        delta = self.spill_allocations - self._synced_allocations
        if delta > 0:
            registry.counter("pool.spill_allocations").inc(delta)
            self._synced_allocations = self.spill_allocations
        released = self.spill_servers_released - self._synced_releases
        if released > 0:
            registry.counter("pool.spill_servers_released").inc(released)
            self._synced_releases = self.spill_servers_released
        registry.gauge("pool.spilled_blocks").set(self.spilled_blocks())
        registry.gauge("pool.spilled_bytes").set(self.spilled_bytes())
        for tier_name, blocks in self.tier_residency().items():
            registry.gauge("tier.residency", tier=tier_name).set(blocks)

    def __repr__(self) -> str:
        spilled = ", ".join(
            f"{t.name}={self.tier_blocks(t.name)}" for t in self.tiers
        )
        return (
            f"TieredMemoryPool(dram={self.allocated_blocks}/{self.total_blocks}, "
            f"{spilled})"
        )
