"""Telemetry: metrics registry, latency histograms, and trace spans.

Two scopes of instrumentation live here:

* **Process-wide** — :func:`get_registry` / :func:`get_tracer` return the
  default :class:`MetricsRegistry` and :class:`Tracer` shared by
  subsystems that have no deployment handle (the RPC layer, module-level
  ``trace.span(...)`` sites). Swap them with :func:`set_registry` /
  :func:`set_tracer`, or silence everything with :func:`disable`.
* **Deployment-scoped** — a :class:`~repro.core.controller.JiffyController`
  owns a registry (``controller.telemetry``) that its lease manager,
  allocator, and data structures record into, so two controllers in one
  process never mix their numbers.

See ``docs/architecture.md`` ("Observability") for the metric naming
scheme and span taxonomy.
"""

from __future__ import annotations

from repro.telemetry.histogram import LatencyHistogram
from repro.telemetry.registry import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    MetricsRegistry,
)
from repro.telemetry.timeseries import (
    TimeSeriesSampler,
    attach_to_plane,
    controllers_of,
)
from repro.telemetry.tracer import Span, SpanContext, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "Span",
    "SpanContext",
    "TimeSeriesSampler",
    "Tracer",
    "attach_to_plane",
    "controllers_of",
    "get_registry",
    "set_registry",
    "get_tracer",
    "set_tracer",
    "enable",
    "disable",
]

_registry = MetricsRegistry()
_tracer = Tracer()


def get_registry() -> MetricsRegistry:
    """The process-wide default metrics registry."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide registry; returns the previous one."""
    global _registry
    previous, _registry = _registry, registry
    return previous


def get_tracer() -> Tracer:
    """The process-wide default tracer."""
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the process-wide tracer; returns the previous one."""
    global _tracer
    previous, _tracer = _tracer, tracer
    return previous


def enable() -> None:
    """Enable the process-wide registry and tracer."""
    _registry.enable()
    _tracer.enable()


def disable() -> None:
    """No-op the process-wide registry and tracer (hot paths stay cheap)."""
    _registry.disable()
    _tracer.disable()
