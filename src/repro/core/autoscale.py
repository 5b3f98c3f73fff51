"""Cluster-capacity autoscaling (§3 remark, footnote 4).

Jiffy's fine-grained elasticity multiplexes *available* capacity; it can
also scale the capacity itself, like Pocket: "if the number of free
blocks available increase/decrease beyond a certain threshold, Jiffy
adds/removes servers to adjust physical memory resources". The paper
treats this as orthogonal and does not evaluate it; it is implemented
here and wired into the controller tick loop.

Policy: keep the pool's free fraction inside [low, high]. When free
capacity falls below ``low_free_fraction``, add servers; when it rises
above ``high_free_fraction`` (and more than ``min_servers`` remain),
drain and remove servers.

Scaling goes through the controller's membership surface —
``join_server`` makes capacity allocatable immediately, ``leave_server``
starts a background drain that migrates resident blocks off before
removal, so even loaded servers can be scaled away safely.

Draining servers count toward neither the free fraction nor the server
count: their capacity is already on its way out, and counting it would
either re-trigger scale-downs forever or mask a real capacity shortage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List

from repro.blocks.server import MemoryServer

if TYPE_CHECKING:
    from repro.core.controller import JiffyController


@dataclass
class ScalingAction:
    """One autoscaler decision."""

    kind: str  # "add" | "drain"
    server_id: str
    free_fraction_before: float


class ClusterAutoscaler:
    """Joins/drains a controller's servers to keep free capacity in band."""

    def __init__(
        self,
        controller: "JiffyController",
        blocks_per_server: int,
        low_free_fraction: float = 0.1,
        high_free_fraction: float = 0.5,
        min_servers: int = 1,
    ) -> None:
        if not 0.0 <= low_free_fraction < high_free_fraction <= 1.0:
            raise ValueError(
                "need 0 <= low_free_fraction < high_free_fraction <= 1"
            )
        if blocks_per_server <= 0:
            raise ValueError("blocks_per_server must be positive")
        if min_servers < 1:
            raise ValueError("min_servers must be >= 1")
        self.controller = controller
        self.pool = controller.pool
        self.blocks_per_server = blocks_per_server
        self.low_free_fraction = low_free_fraction
        self.high_free_fraction = high_free_fraction
        self.min_servers = min_servers
        self.actions: List[ScalingAction] = []

    # ------------------------------------------------------------------

    def _active_servers(self) -> List[MemoryServer]:
        """Pool servers not already on their way out."""
        return [
            s
            for s in self.pool.servers()
            if not self.pool.is_draining(s.server_id)
        ]

    def free_fraction(self) -> float:
        """Free fraction over *active* (non-draining) capacity."""
        total = 0
        free = 0
        for server in self._active_servers():
            total += server.num_blocks
            free += server.free_blocks
        return (free / total) if total else 0.0

    # ------------------------------------------------------------------

    def evaluate(self) -> List[ScalingAction]:
        """One autoscaling pass; returns the actions taken."""
        taken: List[ScalingAction] = []
        taken.extend(self._scale_up())
        taken.extend(self._scale_down())
        self.actions.extend(taken)
        return taken

    def _scale_up(self) -> List[ScalingAction]:
        taken: List[ScalingAction] = []
        while self.free_fraction() < self.low_free_fraction:
            before = self.free_fraction()
            server_id = self.controller.join_server(self.blocks_per_server)
            taken.append(
                ScalingAction("add", server_id, free_fraction_before=before)
            )
        return taken

    def _scale_down(self) -> List[ScalingAction]:
        taken: List[ScalingAction] = []
        while (
            self.free_fraction() > self.high_free_fraction
            and len(self._active_servers()) > self.min_servers
        ):
            candidate = self._pick_drain_candidate()
            # The pool must stay above the low watermark once the
            # candidate's capacity leaves and its resident blocks land
            # on the survivors.
            total_after = self.pool.total_blocks - candidate.num_blocks
            free_after = (
                self.pool.free_blocks
                - candidate.free_blocks
                - candidate.allocated_blocks
            )
            if total_after <= 0 or free_after / total_after < self.low_free_fraction:
                break
            before = self.free_fraction()
            # Migration-backed drain: safe even for loaded servers.
            self.controller.leave_server(candidate.server_id)
            taken.append(
                ScalingAction(
                    "drain", candidate.server_id, free_fraction_before=before
                )
            )
        return taken

    def _pick_drain_candidate(self) -> MemoryServer:
        """Least-loaded active server."""
        return min(
            self._active_servers(),
            key=lambda s: (s.allocated_blocks, s.server_id),
        )
