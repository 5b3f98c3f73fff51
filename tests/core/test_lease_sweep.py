"""Equivalence suite: heap-scheduled expiry sweep vs a full scan.

:class:`LeaseManager` drives the expiry worker off a min-heap of per-job
lease floors so a tick touches only jobs whose earliest deadline has
lapsed. The oracle here (:func:`full_scan`) re-scans every node of every
hierarchy instead. The two must mark the same prefixes expired, in the
same order, under any interleaving of renewals, lease (re)starts, and
clock advances — that is what makes the heap a pure cost optimisation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.hierarchy import AddressHierarchy, AddressNode
from repro.core.lease import LeaseManager
from repro.sim.clock import SimClock

#: A small DAG with a diamond (propagation fan-out) and a stray leaf.
DAG = {
    "src": [],
    "left": ["src"],
    "right": ["src"],
    "sink": ["left", "right"],
    "stray": [],
}

NODES = sorted(DAG)

#: Clock advances from a grid around the lease duration so sweeps land
#: before, exactly at, and after deadlines.
ADVANCES = (0.1, 0.4, 0.5, 0.9, 1.0, 1.1, 2.5)


def full_scan(
    manager: LeaseManager, hierarchies: Iterable[AddressHierarchy]
) -> List[AddressNode]:
    """The oracle: visit every node, no floor bookkeeping."""
    now = manager.clock.now()
    expired: List[AddressNode] = []
    for hierarchy in hierarchies:
        for node in hierarchy.nodes():
            if node.expired:
                continue
            if now > node.last_renewal + manager.lease_duration_of(node):
                node.expired = True
                expired.append(node)
    return expired


def _build(num_jobs: int):
    clock = SimClock()
    manager = LeaseManager(clock, 1.0)
    jobs: Dict[str, AddressHierarchy] = {}
    for j in range(num_jobs):
        hierarchy = AddressHierarchy.from_dag(f"job-{j}", DAG)
        for node in hierarchy.nodes():
            manager.start(node)
        jobs[f"job-{j}"] = hierarchy
    return clock, manager, jobs


@st.composite
def programs(draw):
    num_jobs = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=30))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["advance", "renew", "start", "collect"]))
        if kind == "advance":
            ops.append((kind, draw(st.sampled_from(ADVANCES))))
        elif kind in ("renew", "start"):
            ops.append(
                (
                    kind,
                    draw(st.integers(min_value=0, max_value=num_jobs - 1)),
                    draw(st.sampled_from(NODES)),
                    draw(st.booleans()),
                )
            )
        else:
            ops.append((kind,))
    return num_jobs, ops


@pytest.mark.parametrize("shape", ["mapping", "iterable"])
@given(program=programs())
@settings(max_examples=80, deadline=None)
def test_floor_sweep_matches_full_scan(shape, program) -> None:
    num_jobs, ops = program
    f_clock, floor_mgr, floor_jobs = _build(num_jobs)
    s_clock, full_mgr, full_jobs = _build(num_jobs)

    def run(op, clock, manager, jobs, oracle) -> List[str]:
        kind = op[0]
        if kind == "advance":
            clock.advance(op[1])
            return []
        if kind == "renew":
            _, j, name, propagate = op
            node = jobs[f"job-{j}"].get_node(name)
            manager.renew(node, propagate=propagate)
            return []
        if kind == "start":
            _, j, name, _ = op
            manager.start(jobs[f"job-{j}"].get_node(name))
            return []
        # The sweep takes the controller's mapping shape (the heap
        # path) or a plain iterable of hierarchies (per-job floor check).
        if oracle:
            nodes = full_scan(manager, jobs.values())
        elif shape == "mapping":
            nodes = manager.collect_expired(jobs)
        else:
            nodes = manager.collect_expired(list(jobs.values()))
        return [f"{n.job_id}:{n.name}" for n in nodes]

    expirations = 0
    for op in ops:
        a = run(op, f_clock, floor_mgr, floor_jobs, oracle=False)
        b = run(op, s_clock, full_mgr, full_jobs, oracle=True)
        assert a == b
        expirations += len(b)
        # Expired marks agree node-by-node after every operation.
        for j in floor_jobs:
            for fn, sn in zip(floor_jobs[j].nodes(), full_jobs[j].nodes()):
                assert fn.expired == sn.expired, (j, fn.name)
    assert floor_mgr.expirations == expirations


def test_multi_job_expiry_keeps_job_table_order() -> None:
    """Jobs expiring in one pass come back in mapping order, not
    deadline order — matching a full scan exactly."""
    clock, manager, jobs = _build(3)
    # Give job-2 the *earliest* deadline so heap order != table order.
    for j, extra in (("job-2", 0.0), ("job-0", 0.3), ("job-1", 0.6)):
        clock_now = clock.now()
        for node in jobs[j].nodes():
            node.last_renewal = clock_now  # identical start
        clock.advance(extra)
        for node in jobs[j].nodes():
            manager.renew(node, propagate=False)
    clock.advance(5.0)
    expired = manager.collect_expired(jobs)
    job_order = [e.split(":")[0] for e in dict.fromkeys(
        f"{n.job_id}:{n.name}".split(":")[0] for n in expired
    )]
    assert job_order == ["job-0", "job-1", "job-2"]
    assert len(expired) == 3 * len(NODES)


def test_due_is_a_cheap_gate() -> None:
    clock, manager, jobs = _build(1)
    assert not manager.due(clock.now())
    clock.advance(0.9)
    assert not manager.due(clock.now())  # inside the lease
    clock.advance(0.2)
    assert manager.due(clock.now())  # floor lapsed
    assert manager.collect_expired(jobs)
    assert not manager.due(clock.now())  # everything marked; nothing due


def test_deregistered_job_entry_is_dropped() -> None:
    clock, manager, jobs = _build(2)
    clock.advance(2.0)
    del jobs["job-0"]  # deregistered before its floor lapsed
    expired = manager.collect_expired(jobs)
    assert {n.job_id for n in expired} == {"job-1"}
    # The dangling job's tracking is gone; nothing is due afterwards.
    assert "job-0" not in manager._floors
    assert not manager.due(clock.now())
