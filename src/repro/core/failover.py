"""Primary-backup fault tolerance for the control plane (§4.2.1).

"Jiffy adopts primary-backup based mechanisms from prior work at each
controller server for fault-tolerance." The control plane's state is
deterministic under its request stream, so the backup is kept in sync by
*state-machine replication*: every mutating control request is applied
to the primary and forwarded (synchronously) to the backup before the
client sees the response. On primary failure, :meth:`failover` promotes
the backup, whose hierarchies, leases, and allocation maps match the
primary's exactly.

The data plane is NOT replicated here (the controller's free-list and
block maps are metadata; block *contents* are protected separately by
chain replication, §4.2.2). After failover the backup's pool mirrors
the primary's allocation state because allocation order is deterministic.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.core.controller import JiffyController
from repro.core.plane import CONTROL_SURFACE
from repro.errors import JiffyError

#: Controller methods that mutate control-plane state and are replicated
#: — derived from the surface contract so a new op cannot be forgotten.
MUTATING_OPS = frozenset(spec.name for spec in CONTROL_SURFACE if spec.mutates)


class PrimaryBackupController:
    """A controller pair behind a single request surface.

    Reads are served by the primary; mutations are applied to the
    primary first and then replayed on the backup. Responses come from
    the primary (the backup's return values are discarded — they only
    advance its state machine).
    """

    def __init__(
        self, primary: JiffyController, backup: JiffyController
    ) -> None:
        if primary.config != backup.config:
            raise JiffyError("primary and backup must share a config")
        self.primary = primary
        self.backup = backup
        self.failed_over = False
        self.replicated_ops = 0
        self._log: List[Tuple[str, tuple, dict]] = []

    # ------------------------------------------------------------------

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self.primary, name)
        if name not in MUTATING_OPS or not callable(attr):
            return attr
        if self.failed_over:
            # The promoted backup IS the primary now; replaying onto
            # self.backup would apply the mutation twice.
            return attr

        def replicated(*args: Any, **kwargs: Any) -> Any:
            result = attr(*args, **kwargs)
            # Replay on the backup; its (equal) result is discarded.
            # `register_datastructure` carries a live object reference,
            # which the backup stores too — acceptable in-process, and
            # exactly what a real backup reconstructs from the log.
            getattr(self.backup, name)(*args, **kwargs)
            self.replicated_ops += 1
            self._log.append((name, args, kwargs))
            return result

        return replicated

    # ------------------------------------------------------------------

    def failover(self) -> JiffyController:
        """Promote the backup after a primary failure.

        Returns the new primary. A fresh backup can be attached by
        constructing a new controller and replaying :attr:`log`.
        """
        if self.failed_over:
            raise JiffyError("already failed over")
        self.primary = self.backup
        self.failed_over = True
        return self.primary

    @property
    def log(self) -> List[Tuple[str, tuple, dict]]:
        """The replicated operation log (for re-seeding a new backup)."""
        return list(self._log)

    def replay_onto(self, fresh: JiffyController) -> int:
        """Re-seed a fresh controller from the log; returns ops replayed."""
        for name, args, kwargs in self._log:
            getattr(fresh, name)(*args, **kwargs)
        return len(self._log)

    def state_matches(self) -> bool:
        """Structural equality check between primary and backup state."""
        p, b = self.primary, self.backup
        if sorted(p.jobs()) != sorted(b.jobs()):
            return False
        for job_id in p.jobs():
            ph, bh = p.hierarchy(job_id), b.hierarchy(job_id)
            if {n.name for n in ph.nodes()} != {n.name for n in bh.nodes()}:
                return False
            for node in ph.nodes():
                other = bh.get_node(node.name)
                if node.block_ids != other.block_ids:
                    return False
                if node.last_renewal != other.last_renewal:
                    return False
        return p.pool.allocated_blocks == b.pool.allocated_blocks
