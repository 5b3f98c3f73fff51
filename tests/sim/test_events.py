"""Discrete-event loop: ordering, cancellation, periodic scheduling."""

from bisect import insort

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import EventLoop


@pytest.fixture
def loop():
    return EventLoop(SimClock())


class TestScheduling:
    def test_runs_in_time_order(self, loop):
        hits = []
        loop.schedule_at(3.0, lambda: hits.append(3))
        loop.schedule_at(1.0, lambda: hits.append(1))
        loop.schedule_at(2.0, lambda: hits.append(2))
        loop.run()
        assert hits == [1, 2, 3]

    def test_fifo_for_equal_times(self, loop):
        hits = []
        loop.schedule_at(1.0, lambda: hits.append("a"))
        loop.schedule_at(1.0, lambda: hits.append("b"))
        loop.run()
        assert hits == ["a", "b"]

    def test_clock_advances_to_event_time(self, loop):
        seen = []
        loop.schedule_at(4.5, lambda: seen.append(loop.clock.now()))
        loop.run()
        assert seen == [4.5]

    def test_schedule_after(self, loop):
        loop.clock.set(2.0)
        seen = []
        loop.schedule_after(1.0, lambda: seen.append(loop.clock.now()))
        loop.run()
        assert seen == [3.0]

    def test_schedule_in_past_rejected(self, loop):
        loop.clock.set(5.0)
        with pytest.raises(SimulationError):
            loop.schedule_at(4.0, lambda: None)

    def test_negative_delay_rejected(self, loop):
        with pytest.raises(SimulationError):
            loop.schedule_after(-1.0, lambda: None)

    def test_events_scheduled_from_events(self, loop):
        hits = []

        def first():
            hits.append("first")
            loop.schedule_after(1.0, lambda: hits.append("second"))

        loop.schedule_at(1.0, first)
        loop.run()
        assert hits == ["first", "second"]
        assert loop.clock.now() == 2.0


class TestRunUntil:
    def test_run_until_stops_before_later_events(self, loop):
        hits = []
        loop.schedule_at(1.0, lambda: hits.append(1))
        loop.schedule_at(10.0, lambda: hits.append(10))
        processed = loop.run(until=5.0)
        assert processed == 1
        assert hits == [1]
        assert loop.clock.now() == 5.0
        # The later event is still pending.
        loop.run()
        assert hits == [1, 10]

    def test_max_events_guard(self, loop):
        def rearm():
            loop.schedule_after(1.0, rearm)

        loop.schedule_after(1.0, rearm)
        with pytest.raises(SimulationError):
            loop.run(max_events=100)


class TestCancellation:
    def test_cancelled_event_skipped(self, loop):
        hits = []
        event = loop.schedule_at(1.0, lambda: hits.append("x"))
        event.cancel()
        loop.run()
        assert hits == []

    def test_peek_skips_cancelled(self, loop):
        event = loop.schedule_at(1.0, lambda: None)
        loop.schedule_at(2.0, lambda: None)
        event.cancel()
        assert loop.peek_time() == 2.0


class TestPeriodic:
    def test_schedule_every(self, loop):
        hits = []
        loop.schedule_every(1.0, lambda: hits.append(loop.clock.now()), until=4.5)
        loop.run()
        assert hits == [1.0, 2.0, 3.0, 4.0]

    def test_periodic_stops_on_stopiteration(self, loop):
        hits = []

        def action():
            hits.append(loop.clock.now())
            if len(hits) >= 2:
                raise StopIteration

        loop.schedule_every(1.0, action, until=100.0)
        loop.run()
        assert hits == [1.0, 2.0]

    def test_bad_interval_rejected(self, loop):
        with pytest.raises(SimulationError):
            loop.schedule_every(0.0, lambda: None)


#: Delays drawn from a small grid so equal fire times (FIFO tie-breaks)
#: are exercised constantly, not almost never.
DELAYS = (0.0, 0.25, 0.5, 1.0, 1.5, 2.75, 5.0, 10.0)


@st.composite
def programs(draw):
    """A random interleaving of kernel operations."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        kind = draw(
            st.sampled_from(
                ["schedule", "nested", "burst", "cancel", "cancel_most", "step", "run"]
            )
        )
        if kind in ("schedule", "nested", "run"):
            ops.append((kind, draw(st.sampled_from(DELAYS))))
        elif kind == "burst":
            ops.append((kind, draw(st.integers(min_value=1, max_value=90))))
        elif kind == "cancel":
            ops.append((kind, draw(st.integers(min_value=0, max_value=200))))
        elif kind == "cancel_most":
            ops.append((kind, draw(st.integers(min_value=0, max_value=3))))
        else:
            ops.append((kind,))
    return ops


class SortedListModel:
    """The kernel's contract on a sorted list of ``(time, seq, label,
    nested delay)``: fire in ``(time, seq)`` order, cancel removes."""

    def __init__(self) -> None:
        self.now = 0.0
        self.pending = []
        self.log = []
        self.processed = 0
        self._seq = 0

    def schedule(self, delay, label, nested=None) -> int:
        self._seq += 1
        insort(self.pending, (self.now + delay, self._seq, label, nested))
        return self._seq

    def cancel(self, seq) -> None:
        self.pending = [e for e in self.pending if e[1] != seq]

    def step(self) -> bool:
        if not self.pending:
            return False
        self.now, _, label, nested = self.pending.pop(0)
        self.log.append(label)
        if nested is not None:
            self.schedule(nested, label + "n")
        self.processed += 1
        return True

    def run(self, until) -> int:
        fired = 0
        while self.pending and self.pending[0][0] <= until:
            fired += self.step()
        if self.pending:
            self.now = until
        return fired


@given(program=programs())
@example(program=[("burst", 90), ("cancel_most", 1), ("step",), ("run", 10.0)])
@settings(max_examples=60, deadline=None)
def test_matches_sorted_list_model(program) -> None:
    """Any schedule / cancel / step / run interleaving — including events
    scheduled from callbacks, cancels of fired events, and queues that are
    mostly cancelled — is observationally a sorted list."""
    loop = EventLoop(SimClock())
    model = SortedListModel()
    log, events, seqs = [], [], []

    def action(label, nested=None):
        def fire() -> None:
            log.append(label)
            if nested is not None:
                loop.schedule_after(nested, action(label + "n"))

        return fire

    def schedule(delay, nested=None) -> None:
        label = f"e{len(events)}"
        events.append(loop.schedule_after(delay, action(label, nested)))
        seqs.append(model.schedule(delay, label, nested))

    def cancel(i) -> None:
        queued = events[i].loop is not None and not events[i].cancelled
        events[i].cancel()
        model.cancel(seqs[i])
        if queued:
            # Compaction: cancelling never leaves a large heap mostly garbage.
            garbage = len(loop._queue) - loop.queue_depth
            assert len(loop._queue) < 64 or garbage * 2 <= len(loop._queue)

    def observe() -> None:
        assert log == model.log
        assert loop.clock.now() == model.now
        assert loop.queue_depth == len(model.pending)
        assert loop.peek_time() == (model.pending[0][0] if model.pending else None)
        assert loop.events_processed == model.processed

    for op in program:
        kind = op[0]
        if kind == "schedule":
            schedule(op[1])
        elif kind == "nested":
            schedule(op[1], nested=op[1])
        elif kind == "burst":
            for k in range(op[1]):
                schedule(DELAYS[k % len(DELAYS)])
        elif kind == "cancel" and events:
            cancel(op[1] % len(events))
        elif kind == "cancel_most":
            for i in range(len(events)):
                if i % 4 != op[1]:
                    cancel(i)
        elif kind == "step":
            assert loop.step() == model.step()
        elif kind == "run":
            until = model.now + op[1]
            assert loop.run(until=until) == model.run(until)
        observe()
    assert loop.run() == model.run(float("inf"))
    observe()
    assert loop.queue_depth == 0
