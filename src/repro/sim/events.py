"""Discrete-event simulation kernel.

Drives the simulated RPC transport (``repro.rpc``, the remote control
plane) and loop-bound background work: events are scheduled at absolute
simulated times and popped in ``(time, seq)`` order — FIFO for equal
times — advancing the shared :class:`~repro.sim.clock.SimClock`.

The kernel is one binary heap of :class:`Event` objects. Cancelled
events are skipped when popped and compacted away once they exceed half
the queue, so cancellation-heavy workloads (lease-renewal chains
cancelled at job end) cannot leak.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import SimulationError
from repro.sim.clock import SimClock

#: Minimum queue size before cancelled-entry compaction kicks in (tiny
#: queues are cheaper to drain than to rebuild).
_COMPACT_MIN = 64


@dataclass(order=True)
class Event:
    """A scheduled callback. Ordered by (time, sequence number)."""

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    name: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)
    #: Owning loop (set by :meth:`EventLoop.schedule_at`) so cancellation
    #: can be accounted for compaction; a bare Event keeps ``None``.
    loop: Optional["EventLoop"] = field(compare=False, default=None, repr=False)

    def cancel(self) -> None:
        """Mark the event so the loop skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.loop is not None:
            self.loop._note_cancelled()


class EventLoop:
    """Priority-queue discrete-event loop bound to a :class:`SimClock`.

    Example:
        >>> clock = SimClock()
        >>> loop = EventLoop(clock)
        >>> hits = []
        >>> _ = loop.schedule_at(2.0, lambda: hits.append(clock.now()))
        >>> _ = loop.schedule_at(1.0, lambda: hits.append(clock.now()))
        >>> loop.run()
        2
        >>> hits
        [1.0, 2.0]
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._events_processed = 0
        self._queue: List[Event] = []
        self._seq = itertools.count()
        self._cancelled = 0

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def queue_depth(self) -> int:
        """Pending (non-cancelled) events in the queue."""
        return len(self._queue) - self._cancelled

    def schedule_at(
        self, when: float, action: Callable[[], None], name: str = ""
    ) -> Event:
        """Schedule ``action`` at absolute simulated time ``when``."""
        if when < self.clock.now():
            raise SimulationError(
                f"cannot schedule event at {when} before now={self.clock.now()}"
            )
        event = Event(
            time=when, seq=next(self._seq), action=action, name=name, loop=self
        )
        heapq.heappush(self._queue, event)
        return event

    def schedule_after(
        self, delay: float, action: Callable[[], None], name: str = ""
    ) -> Event:
        """Schedule ``action`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self.clock.now() + delay, action, name=name)

    def schedule_every(
        self,
        interval: float,
        action: Callable[[], None],
        until: Optional[float] = None,
        name: str = "",
    ) -> None:
        """Schedule ``action`` periodically until simulated time ``until``.

        The first firing happens one ``interval`` from now. Periodic
        scheduling re-arms lazily from inside the event so a later
        ``cancel`` of the chain is possible by raising StopIteration from
        the action.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")

        def fire() -> None:
            try:
                action()
            except StopIteration:
                return
            next_time = self.clock.now() + interval
            if until is None or next_time <= until:
                self.schedule_at(next_time, fire, name=name)

        self.schedule_after(interval, fire, name=name)

    def _note_cancelled(self) -> None:
        """Account a cancellation; compact once the dead fraction > 50%.

        Without compaction, cancelled events (e.g. lease-renewal chains
        cancelled at job end) sit in the heap until popped — a workload
        that schedules far ahead and cancels most of it leaks memory and
        pays O(log n) on a queue dominated by garbage.
        """
        self._cancelled += 1
        queued = len(self._queue)
        if queued >= _COMPACT_MIN and self._cancelled * 2 > queued:
            self._compact()

    def _compact(self) -> None:
        self._queue = [e for e in self._queue if not e.cancelled]
        heapq.heapify(self._queue)
        self._cancelled = 0

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue).loop = None
            self._cancelled -= 1
        return self._queue[0].time if self._queue else None

    def step(self) -> bool:
        """Process the next event. Returns False if the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            # Detach so a late cancel() of a popped event cannot skew the
            # cancelled-entry accounting.
            event.loop = None
            if event.cancelled:
                self._cancelled -= 1
                continue
            self.clock.set(event.time)
            event.action()
            self._events_processed += 1
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> int:
        """Run until the queue empties or simulated time passes ``until``.

        Returns the number of events processed by this call. ``max_events``
        is a runaway-loop backstop.
        """
        processed = 0
        while processed < max_events:
            next_time = self.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.clock.set(until)
                break
            if not self.step():
                break
            processed += 1
        else:
            raise SimulationError(f"event loop exceeded max_events={max_events}")
        return processed


# benchmarks/e2e/tracing.py (frozen by BENCHMARK.json) installs its
# sim.events seams and its rpc:/send:/deliver:/bg: event attribution on
# this name. Not re-exported, used by nothing in src/; the next benchmark
# PR that retargets the seam to EventLoop drops it.
CalendarQueue = EventLoop


__all__ = ["Event", "EventLoop"]
