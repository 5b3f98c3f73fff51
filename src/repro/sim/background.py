"""Background work for the simulated data plane (§3.3, §4.2).

Jiffy performs repartitioning and persistence *off the critical path*:
the storage server that detects overload keeps serving requests while
migration copies data in the background. This module provides the
scheduler that makes that asynchrony explicit in the reproduction.

A :class:`BackgroundTask` is a fixed sequence of ``(cost_seconds,
apply)`` steps. Each ``apply`` is a closure that performs one atomic
increment of the work (e.g. cut one hash slot over to its new block) and
must leave the owning structure consistent, so a task can be paused,
polled forward, drained, or cancelled between any two steps.

The :class:`BackgroundScheduler` runs tasks in one of two modes:

* **cooperative** (no event loop): foreground operations donate a small
  step budget via :meth:`BackgroundScheduler.poll`, mirroring
  Redis-style incremental rehashing. Deterministic and dependency-free —
  this is what a data structure on an in-process controller uses.
* **loop-bound** (constructed with ``loop=``): steps are scheduled as
  discrete events. With an ``executor`` (an
  :class:`~repro.rpc.server.RpcServer`), each step reserves service
  capacity via ``reserve_background``, so migration work *contends
  with* — but never head-of-line-blocks — client requests on the
  server's cores.

Capacity is bounded: at most ``max_workers`` tasks make progress
concurrently; the rest wait FIFO within three priorities
(:data:`URGENT` > :data:`NORMAL` > :data:`LOW`).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.sim.events import Event, EventLoop

#: Priorities, lowest value served first.
URGENT = 0  #: foreground correctness depends on this (e.g. forced drain)
NORMAL = 1  #: repartition migrations
LOW = 2  #: persistence I/O that only needs to finish eventually

_PRIORITIES = (URGENT, NORMAL, LOW)

#: Label values for per-priority metrics.
_PRIORITY_NAMES = {URGENT: "urgent", NORMAL: "normal", LOW: "low"}

#: One unit of background work: modeled cost plus the state change.
Step = Tuple[float, Callable[[], None]]


class BackgroundTask:
    """A cancellable sequence of background steps.

    Steps are materialized at submit time; each ``apply`` closure reads
    live state when it runs, so the plan is fixed but the data moved is
    whatever exists at execution time.
    """

    def __init__(
        self,
        steps: Sequence[Step],
        name: str = "",
        priority: int = NORMAL,
        resource: Optional[object] = None,
        on_done: Optional[Callable[["BackgroundTask"], None]] = None,
    ) -> None:
        if priority not in _PRIORITIES:
            raise ValueError(f"unknown priority {priority!r}")
        self.steps: List[Step] = list(steps)
        self.name = name
        self.priority = priority
        #: Opaque contention key for loop-bound executors (e.g. a block
        #: id, so migration steps serialize with requests on that block).
        self.resource = resource
        self.on_done = on_done
        self.done = False
        self.cancelled = False
        self.steps_done = 0
        #: Sum of modeled step costs executed so far.
        self.cost_accrued = 0.0
        self.enqueued_at = 0.0
        self.completed_at = 0.0
        # Loop mode: the in-flight apply (cost already reserved).
        self._pending_event: Optional[Event] = None
        self._pending_apply: Optional[Callable[[], None]] = None

    @property
    def steps_remaining(self) -> int:
        remaining = len(self.steps) - self.steps_done
        if self._pending_apply is not None:
            remaining += 1
        return remaining

    @property
    def duration_s(self) -> float:
        """Wall (simulated) duration if the clock moved, else modeled cost."""
        elapsed = self.completed_at - self.enqueued_at
        return elapsed if elapsed > 0 else self.cost_accrued


class BackgroundScheduler:
    """Bounded-capacity, prioritized scheduler for background steps."""

    def __init__(
        self,
        clock: Optional[object] = None,
        loop: Optional[EventLoop] = None,
        executor: Optional[object] = None,
        max_workers: int = 2,
        registry: Optional[telemetry.MetricsRegistry] = None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if executor is not None and loop is None:
            raise ValueError("an executor requires a loop")
        self.loop = loop
        self.clock = loop.clock if loop is not None else clock
        self.executor = executor
        self.max_workers = max_workers
        self.telemetry = registry if registry is not None else telemetry.get_registry()
        self._queues: Dict[int, Deque[BackgroundTask]] = {
            p: deque() for p in _PRIORITIES
        }
        self._running: List[BackgroundTask] = []
        self._seq = itertools.count()
        self._order: Dict[int, int] = {}  # id(task) -> submit order
        self._g_depth = self.telemetry.gauge("background.queue_depth")
        # Labelled companions: depth per priority class, so the flight
        # recorder can show LOW-priority work starving behind NORMAL.
        self._g_depth_by_priority = {
            p: self.telemetry.gauge(
                "background.queue_depth", priority=_PRIORITY_NAMES[p]
            )
            for p in _PRIORITIES
        }
        self._c_completed = self.telemetry.counter("background.tasks_completed")
        self._c_cancelled = self.telemetry.counter("background.tasks_cancelled")
        self._c_steps = self.telemetry.counter("background.steps")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._running) + sum(len(q) for q in self._queues.values())

    @property
    def idle(self) -> bool:
        return len(self) == 0

    def _now(self) -> float:
        return self.clock.now() if self.clock is not None else 0.0

    # ------------------------------------------------------------------
    # Submission / cancellation
    # ------------------------------------------------------------------

    def submit(
        self,
        steps: Sequence[Step],
        name: str = "",
        priority: int = NORMAL,
        resource: Optional[object] = None,
        on_done: Optional[Callable[[BackgroundTask], None]] = None,
    ) -> BackgroundTask:
        """Enqueue a task and return immediately.

        A zero-step task completes synchronously (``on_done`` fires
        before :meth:`submit` returns).
        """
        task = BackgroundTask(
            steps, name=name, priority=priority, resource=resource, on_done=on_done
        )
        task.enqueued_at = self._now()
        self._order[id(task)] = next(self._seq)
        if not task.steps:
            task.done = True
            task.completed_at = task.enqueued_at
            self._c_completed.inc()
            del self._order[id(task)]
            if on_done is not None:
                on_done(task)
            return task
        self._queues[task.priority].append(task)
        self._g_depth.inc()
        self._g_depth_by_priority[task.priority].inc()
        self._admit()
        return task

    def cancel(self, task: BackgroundTask) -> bool:
        """Abort a task between steps; no further ``apply`` runs.

        Returns False if the task already completed. ``on_done`` is not
        called for cancelled tasks — the canceller owns the cleanup.
        """
        if task.done or task.cancelled:
            return False
        task.cancelled = True
        if task._pending_event is not None:
            task._pending_event.cancel()
            task._pending_event = None
            task._pending_apply = None
        self._forget(task)
        self._c_cancelled.inc()
        self._admit()
        return True

    def _forget(self, task: BackgroundTask) -> None:
        if task in self._running:
            self._running.remove(task)
        else:
            queue = self._queues[task.priority]
            if task in queue:
                queue.remove(task)
        self._order.pop(id(task), None)
        self._g_depth.dec()
        self._g_depth_by_priority[task.priority].dec()

    # ------------------------------------------------------------------
    # Worker admission
    # ------------------------------------------------------------------

    def _admit(self) -> None:
        """Promote queued tasks into the bounded running set."""
        while len(self._running) < self.max_workers:
            task = self._pop_queued()
            if task is None:
                return
            self._running.append(task)
            if self.loop is not None:
                self._arm(task)

    def _pop_queued(self) -> Optional[BackgroundTask]:
        for priority in _PRIORITIES:
            if self._queues[priority]:
                return self._queues[priority].popleft()
        return None

    def _pick_running(self) -> Optional[BackgroundTask]:
        if not self._running:
            return None
        return min(
            self._running, key=lambda t: (t.priority, self._order.get(id(t), 0))
        )

    # ------------------------------------------------------------------
    # Loop-bound execution
    # ------------------------------------------------------------------

    def _arm(self, task: BackgroundTask) -> None:
        """Schedule the task's next step as a discrete event."""
        if task.cancelled or task.done or task._pending_event is not None:
            return
        if task.steps_done >= len(task.steps):
            self._complete(task)
            return
        assert self.loop is not None
        cost, apply = task.steps[task.steps_done]
        if self.executor is not None:
            _, completion = self.executor.reserve_background(
                cost, resource=task.resource
            )
        else:
            completion = self.loop.clock.now() + cost
        task.cost_accrued += cost

        def fire() -> None:
            task._pending_event = None
            task._pending_apply = None
            apply()
            if task.cancelled:
                return  # the step aborted its own task
            task.steps_done += 1
            self._c_steps.inc()
            if task.steps_done >= len(task.steps):
                self._complete(task)
            else:
                self._arm(task)

        task._pending_apply = apply
        task._pending_event = self.loop.schedule_at(
            max(completion, self.loop.clock.now()),
            fire,
            name=f"bg:{task.name or 'task'}",
        )

    # ------------------------------------------------------------------
    # Inline execution (cooperative mode, urgent drains)
    # ------------------------------------------------------------------

    def _advance_inline(self, task: BackgroundTask) -> bool:
        """Execute one step of ``task`` immediately.

        Returns True if a step ran. If the step was already armed on the
        loop (cost reserved, apply pending) the event is cancelled and
        the apply runs now — the foreground need preempts the scheduled
        completion, but the reserved service time was already paid.
        """
        if task.done or task.cancelled:
            return False
        if task._pending_event is not None:
            task._pending_event.cancel()
            task._pending_event = None
            apply = task._pending_apply
            task._pending_apply = None
        elif task.steps_done < len(task.steps):
            cost, apply = task.steps[task.steps_done]
            task.cost_accrued += cost
        else:
            self._complete(task)
            return False
        assert apply is not None
        apply()
        if task.cancelled:
            return True  # the step aborted its own task
        task.steps_done += 1
        self._c_steps.inc()
        if task.steps_done >= len(task.steps):
            self._complete(task)
        return True

    def step_task(self, task: BackgroundTask) -> bool:
        """Advance one task by one step inline, regardless of mode.

        The foreground path uses this when a write is blocked on an
        in-flight migration: progress is forced one step at a time, so
        the caller never pays for more of the task than it needs. In
        loop-bound mode the task's next step is re-armed on the loop
        afterwards.
        """
        ran = self._advance_inline(task)
        if (
            self.loop is not None
            and not task.done
            and not task.cancelled
            and task._pending_event is None
            and task in self._running
        ):
            self._arm(task)
        return ran

    def poll(self, max_steps: int = 1) -> int:
        """Donate up to ``max_steps`` foreground steps (cooperative mode).

        Cheap when idle: one length check. In loop-bound mode this is a
        no-op — the loop drives progress.
        """
        if self.loop is not None or max_steps <= 0 or self.idle:
            return 0
        ran = 0
        while ran < max_steps:
            self._admit()
            task = self._pick_running()
            if task is None:
                break
            if self._advance_inline(task):
                ran += 1
        return ran

    def finish(self, task: BackgroundTask) -> None:
        """Run one task to completion inline (urgent foreground drain)."""
        if task.done or task.cancelled:
            return
        if task not in self._running:
            # Jump the queue: this task's completion is blocking a
            # foreground write, so it outranks the capacity bound.
            queue = self._queues[task.priority]
            if task in queue:
                queue.remove(task)
            self._running.append(task)
        while not task.done and not task.cancelled:
            self._advance_inline(task)

    def drain(self) -> int:
        """Run every submitted task to completion inline; returns steps."""
        ran = 0
        while not self.idle:
            self._admit()
            task = self._pick_running()
            if task is None:
                break
            if self._advance_inline(task):
                ran += 1
        return ran

    # ------------------------------------------------------------------

    def _complete(self, task: BackgroundTask) -> None:
        task.done = True
        task.completed_at = self._now()
        self._forget(task)
        self._c_completed.inc()
        if task.on_done is not None:
            task.on_done(task)
        self._admit()
