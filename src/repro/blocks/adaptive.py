"""Adaptive tier management: hysteresis-banded promotion/demotion.

The static :class:`~repro.blocks.tiered.TieredMemoryPool` spills blocks
one way: once DRAM is exhausted a block lands on a spill tier and pays
device latency on every access forever, however hot it is. This module
adds the Jenga-style feedback loop on top:

* **Cheap access tracking.** Every read charged through
  ``access_latency`` and every write through ``Block.set_used`` bumps a
  per-block integer (``Block.acc``) — one add on the hot path, no RPCs.
  A periodic scan folds the raw count into an exponentially decayed
  frequency (``Block.heat``), so heat reflects *recent* access rate.

* **Hysteresis bands + dwell.** Promotion requires ``heat >=
  promote_heat``; demotion additionally requires the source tier to be
  out of headroom (demotion makes room — an idle block on a tier with
  space stays where it is) and ``heat <= demote_heat`` with
  ``promote_heat > demote_heat``, and either transition additionally
  requires the block to have *dwelled* on its current tier for
  ``dwell_s`` seconds *and* to have sat beyond the band for
  ``confirm_scans`` consecutive scans (one-scan access bursts can spike
  decayed heat straight past the promote band; persistence filters
  them). A block whose heat flaps around one threshold therefore sits
  still — the Jenga observation is that naive single-threshold
  (recency/LRU) policies ping-pong exactly those boundary blocks
  between devices, and the movement cost erases the placement win.
  Swaps take a victim only when the incoming block is
  ``hysteresis_ratio`` times hotter, for the same reason.

* **Off-critical-path movement.** Planned moves are submitted as
  LOW-priority :class:`~repro.sim.background.BackgroundScheduler` tasks
  with a modeled device-copy cost, and each move re-validates at
  execution time (block freed, already moved, heat crossed the opposite
  band, target at budget) before a per-block atomic cut-over — the same
  copy/rebind/reclaim sequence the migration machinery uses. Foreground
  operations are never charged a move.

Telemetry: ``tier.promotions``, ``tier.demotions``,
``tier.thrash_aborts`` (execution-time band-flip aborts),
``tier.skipped_moves`` (target full / block gone), and the
``tier.residency{tier=...}`` gauges via the pool's registry binding.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.blocks.block import Block, BlockId
from repro.blocks.tiered import DRAM_NAME, TieredMemoryPool
from repro.errors import BlockError, CapacityError
from repro.sim import cost
from repro.sim.background import LOW, BackgroundScheduler
from repro.sim.clock import Clock
from repro.storage.tier import DRAM_TIER, StorageTier
from repro.telemetry.registry import MetricsRegistry

#: Hook fired after a block's data moved tiers: (old_id, new_block).
#: The controller rebinds ownership and forwards the old id here.
MoveHook = Callable[[BlockId, Block], None]


class AdaptiveTierManager:
    """Scans a tiered pool and moves blocks toward their heat-right tier.

    Args:
        pool: the N-tier pool to manage.
        clock: time source shared with the deployment (dwell + cadence).
        scheduler: background scheduler the moves run on (LOW priority).
        on_move: cut-over hook fired with ``(old_id, new_block)`` before
            the old block is reclaimed — the controller passes its
            rebind-and-forward routine.
        promote_heat: decayed-frequency floor for moving a block one
            tier *up* (toward DRAM).
        demote_heat: ceiling for moving a block one tier *down*. Must be
            <= ``promote_heat``; the gap between them is the hysteresis
            band where blocks sit still.
        dwell_s: minimum seconds on the current tier before a block may
            move again.
        confirm_scans: consecutive scans a block must spend beyond a
            band before it becomes a move candidate. A Zipf-tail block
            that catches two accesses in one scan window spikes its
            decayed heat straight past ``promote_heat``; without
            persistence it would be promoted, cool off, and demote — the
            burst-driven ping-pong the bands alone cannot stop.
        scan_interval_s: cadence of :meth:`maybe_scan`.
        heat_decay: per-scan multiplier folding history into heat
            (``heat = heat * decay + accesses_since_last_scan``).
        hysteresis_ratio: a DRAM victim is swapped out for a promotion
            candidate only if the candidate is this many times hotter.
        max_moves_per_scan: cap on moves planned per scan, bounding the
            background copy backlog.
        registry: metrics registry for the ``tier.*`` counters.
        inline: execute moves synchronously inside :meth:`scan` and
            charge their modeled cost to the innermost foreground cost
            collector — the A/B ablation proving the background path
            keeps movement off the foreground (benchmarks only).
    """

    def __init__(
        self,
        pool: TieredMemoryPool,
        clock: Clock,
        scheduler: BackgroundScheduler,
        on_move: MoveHook,
        promote_heat: float = 2.0,
        demote_heat: float = 0.5,
        dwell_s: float = 2.0,
        confirm_scans: int = 2,
        scan_interval_s: float = 1.0,
        heat_decay: float = 0.5,
        hysteresis_ratio: float = 2.0,
        max_moves_per_scan: int = 8,
        registry: Optional[MetricsRegistry] = None,
        inline: bool = False,
    ) -> None:
        if demote_heat > promote_heat:
            raise BlockError("demote_heat must be <= promote_heat")
        if not 0.0 < heat_decay <= 1.0:
            raise BlockError("heat_decay must be in (0, 1]")
        if scan_interval_s <= 0:
            raise BlockError("scan_interval_s must be positive")
        if hysteresis_ratio < 1.0:
            raise BlockError("hysteresis_ratio must be >= 1")
        if confirm_scans < 1:
            raise BlockError("confirm_scans must be >= 1")
        self.pool = pool
        self.clock = clock
        self.scheduler = scheduler
        self.promote_heat = promote_heat
        self.demote_heat = demote_heat
        self.dwell_s = dwell_s
        self.confirm_scans = confirm_scans
        self.scan_interval_s = scan_interval_s
        self.heat_decay = heat_decay
        self.hysteresis_ratio = hysteresis_ratio
        self.max_moves_per_scan = max_moves_per_scan
        self.on_move = on_move
        self.inline = inline
        #: Policy toggles (the observation-equivalence tests disable
        #: both: heat tracking stays live, no block ever moves).
        self.promote_enabled = True
        self.demote_enabled = True
        # Tier order, best first: dram, then the pool's spill chain.
        self._order: List[str] = [DRAM_NAME] + [t.name for t in pool.tiers]
        self._rank: Dict[str, int] = {n: i for i, n in enumerate(self._order)}
        self._last_scan: Optional[float] = None
        # Band-persistence streaks: consecutive scans a block has spent
        # beyond each band (pruned to the current beyond-band set every
        # scan, so the dicts track only live boundary blocks).
        self._promote_streak: Dict[BlockId, int] = {}
        self._demote_streak: Dict[BlockId, int] = {}
        self._pending: Set[BlockId] = set()
        reg = registry if registry is not None else MetricsRegistry()
        self._c_promotions = reg.counter("tier.promotions")
        self._c_demotions = reg.counter("tier.demotions")
        self._c_thrash = reg.counter("tier.thrash_aborts")
        self._c_skipped = reg.counter("tier.skipped_moves")
        self._c_scans = reg.counter("tier.scans")
        self._c_moved_bytes = reg.counter("tier.moved_bytes")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def promotions(self) -> int:
        return self._c_promotions.value

    @property
    def demotions(self) -> int:
        return self._c_demotions.value

    @property
    def thrash_aborts(self) -> int:
        return self._c_thrash.value

    def _tier_of(self, name: str) -> StorageTier:
        if name == DRAM_NAME:
            return DRAM_TIER
        return self.pool._chain_by_name[name]

    # ------------------------------------------------------------------
    # Scan
    # ------------------------------------------------------------------

    def maybe_scan(self) -> bool:
        """Run a scan if ``scan_interval_s`` has elapsed; returns whether
        one ran. Wired into the controller tick loop."""
        now = self.clock.now()
        if self._last_scan is not None and now - self._last_scan < self.scan_interval_s:
            return False
        self.scan()
        return True

    def scan(self) -> int:
        """Decay heats, plan moves, submit them; returns moves planned."""
        now = self.clock.now()
        self._last_scan = now
        self._c_scans.inc()
        decay = self.heat_decay
        blocks = list(self.pool.iter_allocated_blocks())
        promote_streak: Dict[BlockId, int] = {}
        demote_streak: Dict[BlockId, int] = {}
        for block in blocks:
            block.heat = block.heat * decay + block.acc
            block.acc = 0
            if self._rank[block.tier] > 0 and block.heat >= self.promote_heat:
                promote_streak[block.block_id] = (
                    self._promote_streak.get(block.block_id, 0) + 1
                )
            if block.heat <= self.demote_heat:
                demote_streak[block.block_id] = (
                    self._demote_streak.get(block.block_id, 0) + 1
                )
        self._promote_streak = promote_streak
        self._demote_streak = demote_streak
        planned = 0
        if self.promote_enabled:
            planned += self._plan_promotions(blocks, now)
        if self.demote_enabled:
            planned += self._plan_demotions(blocks, now, planned)
        self.pool.sync_telemetry()
        return planned

    def _dwelled(self, block: Block, now: float) -> bool:
        return now - block.tier_since >= self.dwell_s

    def _plan_promotions(self, blocks: List[Block], now: float) -> int:
        candidates = [
            b
            for b in blocks
            if self._promote_streak.get(b.block_id, 0) >= self.confirm_scans
            and b.block_id not in self._pending
            and self._dwelled(b, now)
        ]
        if not candidates:
            return 0
        candidates.sort(key=lambda b: -b.heat)
        # DRAM slots we may still fill this scan with direct promotions.
        dram_free = self.pool.dram_blocks_free()
        # Victim pool for swaps, coldest first; each victim used once.
        victims = sorted(
            (
                b
                for b in blocks
                if b.tier == DRAM_NAME
                and b.block_id not in self._pending
                and self._dwelled(b, now)
            ),
            key=lambda b: b.heat,
        )
        planned = 0
        for cand in candidates:
            if planned >= self.max_moves_per_scan:
                break
            target = self._order[self._rank[cand.tier] - 1]
            if target != DRAM_NAME:
                # Mid-chain hop (e.g. SSD → PMem): budget checked at
                # execution time by allocate_on.
                self._submit_move(cand, target, kind="promote")
                planned += 1
                continue
            if dram_free > 0:
                dram_free -= 1
                self._submit_move(cand, DRAM_NAME, kind="promote")
                planned += 1
                continue
            victim = self._take_victim(victims, cand)
            if victim is None:
                continue  # nothing cold enough to evict — stay put
            self._submit_swap(cand, victim)
            planned += 1
        return planned

    def _take_victim(
        self, victims: List[Block], cand: Block
    ) -> Optional[Block]:
        while victims:
            victim = victims[0]
            if cand.heat < victim.heat * self.hysteresis_ratio:
                return None  # coldest victim is still too warm to evict
            victims.pop(0)
            if victim.block_id in self._pending:
                continue
            return victim
        return None

    def _plan_demotions(
        self, blocks: List[Block], now: float, already: int
    ) -> int:
        """Demotion is *pressure-driven*: a cold block moves down only
        when its tier is out of headroom. Idle blocks on a tier with
        room stay put — demoting them buys nothing and their next access
        would pay a slower device (the p99 killer: a Zipf tail touch on
        a needlessly SSD-demoted block)."""
        worst = self._order[-1]
        candidates = [
            b
            for b in blocks
            if b.tier != worst
            and self._demote_streak.get(b.block_id, 0) >= self.confirm_scans
            and b.block_id not in self._pending
            and self._dwelled(b, now)
        ]
        candidates.sort(key=lambda b: b.heat)
        planned = 0
        freed: Dict[str, int] = {}
        for cand in candidates:
            if already + planned >= self.max_moves_per_scan:
                break
            headroom = self.pool.tier_headroom(cand.tier)
            if headroom is None:
                continue  # elastic tier — no pressure, no demotion
            if headroom + freed.get(cand.tier, 0) >= self.max_moves_per_scan:
                continue  # enough room for a scan's worth of promotions
            target = self._order[self._rank[cand.tier] + 1]
            self._submit_move(cand, target, kind="demote")
            freed[cand.tier] = freed.get(cand.tier, 0) + 1
            planned += 1
        return planned

    # ------------------------------------------------------------------
    # Move execution
    # ------------------------------------------------------------------

    def _move_cost(self, block: Block, target: str) -> float:
        nbytes = block.used
        src = self._tier_of(block.tier)
        dst = self._tier_of(target)
        return src.read_latency(nbytes) + dst.write_latency(nbytes)

    def _submit_move(self, block: Block, target: str, kind: str) -> None:
        self._pending.add(block.block_id)
        move_cost = self._move_cost(block, target)
        if self.inline:
            cost.charge(move_cost)
            self._execute_move(block, block.tier, target, kind)
            self._pending.discard(block.block_id)
            return
        block_id = block.block_id
        source = block.tier

        def apply() -> None:
            self._execute_move(block, source, target, kind)

        self.scheduler.submit(
            [(move_cost, apply)],
            name=f"tier-{kind}:{block_id}",
            priority=LOW,
            resource=block_id,
            on_done=lambda task: self._pending.discard(block_id),
        )

    def _submit_swap(self, cand: Block, victim: Block) -> None:
        """Demote a DRAM victim, then promote the candidate into the
        freed slot — two steps of one LOW task, each re-validated."""
        self._pending.add(cand.block_id)
        self._pending.add(victim.block_id)
        victim_target = self._order[1]  # first spill tier
        cand_id, victim_id = cand.block_id, victim.block_id
        cand_source = cand.tier
        cand_heat = cand.heat
        steps = [
            (
                self._move_cost(victim, victim_target),
                lambda: self._execute_swap_out(victim, cand, cand_heat, victim_target),
            ),
            (
                self._move_cost(cand, DRAM_NAME),
                lambda: self._execute_move(cand, cand_source, DRAM_NAME, "promote"),
            ),
        ]
        if self.inline:
            for step_cost, apply in steps:
                cost.charge(step_cost)
                apply()
            self._pending.discard(cand_id)
            self._pending.discard(victim_id)
            return

        def done(task: object) -> None:
            self._pending.discard(cand_id)
            self._pending.discard(victim_id)

        self.scheduler.submit(
            steps,
            name=f"tier-swap:{victim_id}->{cand_id}",
            priority=LOW,
            resource=cand_id,
            on_done=done,
        )

    def _execute_swap_out(
        self, victim: Block, cand: Block, planned_heat: float, target: str
    ) -> None:
        # The swap is only worth it if the candidate is still hot and
        # still off-DRAM; otherwise evicting the victim would be pure
        # thrash.
        if cand.tier == DRAM_NAME or cand.heat < self.promote_heat:
            self._c_thrash.inc()
            return
        if cand.heat < victim.heat * self.hysteresis_ratio:
            self._c_thrash.inc()
            return
        self._execute_move(victim, DRAM_NAME, target, "demote")

    def _execute_move(
        self, block: Block, source: str, target: str, kind: str
    ) -> None:
        """Re-validate and atomically cut one block over to ``target``."""
        if block.tier != source or not self.pool.is_allocated(block.block_id):
            self._c_skipped.inc()
            return  # moved/reclaimed since planning
        if kind == "promote" and block.heat < self.promote_heat:
            self._c_thrash.inc()
            return  # cooled below the band since planning
        if kind == "demote" and block.heat > self.promote_heat:
            self._c_thrash.inc()
            return  # re-heated since planning
        try:
            new = self.pool.allocate_on(target)
        except CapacityError:
            self._c_skipped.inc()
            return  # target filled up in the meantime
        old_id = block.block_id
        new.payload = block.payload
        new.mirror_used(block.used)
        new._sealed = block.sealed
        new.heat = block.heat
        new.acc = block.acc
        new.tier_since = self.clock.now()
        new.tier_moves = block.tier_moves + 1
        self._c_moved_bytes.inc(max(block.used, 0))
        self.on_move(old_id, new)
        self.pool.reclaim(old_id)
        if kind == "promote":
            self._c_promotions.inc()
        else:
            self._c_demotions.inc()

    # ------------------------------------------------------------------

    def residency(self) -> Dict[str, int]:
        """Allocated block counts per tier, best tier first."""
        return self.pool.tier_residency()

    def max_tier_moves(self) -> Tuple[int, float]:
        """(max promote+demote transitions, mean) across live blocks —
        the thrash diagnostic the benchmark pins."""
        moves = [b.tier_moves for b in self.pool.iter_allocated_blocks()]
        if not moves:
            return 0, 0.0
        return max(moves), sum(moves) / len(moves)

    def __repr__(self) -> str:
        return (
            f"AdaptiveTierManager(bands=[{self.demote_heat}, "
            f"{self.promote_heat}], dwell={self.dwell_s}s, "
            f"promotions={self.promotions}, demotions={self.demotions})"
        )
