"""Simulation substrate: clocks, a discrete-event loop, and latency models.

The functional Jiffy system is written against the :class:`Clock`
protocol so the same control-plane code runs under a deterministic
:class:`SimClock` (trace-driven experiments, unit tests) and a
:class:`WallClock` (live use, micro-benchmarks).
"""

from repro.sim.background import (
    LOW,
    NORMAL,
    URGENT,
    BackgroundScheduler,
    BackgroundTask,
)
from repro.sim.clock import Clock, SimClock, WallClock
from repro.sim.events import Event, EventLoop
from repro.sim.latency import LatencyModel, ConstantLatency, LogNormalLatency
from repro.sim.network import NetworkModel

__all__ = [
    "Clock",
    "SimClock",
    "WallClock",
    "EventLoop",
    "Event",
    "BackgroundScheduler",
    "BackgroundTask",
    "URGENT",
    "NORMAL",
    "LOW",
    "LatencyModel",
    "ConstantLatency",
    "LogNormalLatency",
    "NetworkModel",
]
