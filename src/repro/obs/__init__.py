"""`repro.obs` — zero-dependency metrics and tracing for the whole stack.

One process-wide :data:`REGISTRY` (plus a :data:`SPANS` recorder)
instruments the serving stack end to end: the asyncio gateway server,
the write-ahead log, ``PricingService.dispatch``, the fleet engine,
and the blocking client. Three read paths expose the same state:

- ``GET /v1/metrics`` — Prometheus text exposition
  (:func:`render_prometheus`);
- the ``MetricsRequest``/``MetricsReply`` envelope pair (since gateway
  API 1.6) carrying :meth:`MetricsRegistry.wire`'s exact-round-trip
  tuples;
- ``python -m repro stats`` — the CLI scrape.

The conventions that keep this layer honest live in DESIGN.md ("Metrics
conventions"): all timing through the injectable clock seam, label
values only from bounded sets, and **no metrics on hot per-bid paths**
— fleet instrumentation is per-slot granularity only, which
is how ``benchmarks/bench_obs.py`` keeps the measured overhead of the
enabled registry under 5%.
"""

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    DEFAULT_MAX_SERIES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_prometheus,
)
from repro.obs.spans import SpanRecorder, read_spans

__all__ = [
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_SERIES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanRecorder",
    "read_spans",
    "render_prometheus",
    "REGISTRY",
    "SPANS",
    "enable",
    "disable",
    "reset",
    "snapshot",
    "wire",
    "render",
]

#: The process-wide registry every instrumented module registers with.
REGISTRY = MetricsRegistry()

#: The process-wide span recorder (checkpoints, recoveries, rotations).
SPANS = SpanRecorder()


def enable() -> None:
    """Turn instrumentation on (metrics and spans; the default)."""
    REGISTRY.enabled = True
    SPANS.enabled = True


def disable() -> None:
    """Turn instrumentation off — mutations become early-return no-ops
    and timers never touch the clock (the bench_obs baseline mode)."""
    REGISTRY.enabled = False
    SPANS.enabled = False


def reset() -> None:
    """Drop every recorded series and span (registrations survive)."""
    REGISTRY.reset()
    SPANS.clear()


def snapshot() -> dict:
    """:meth:`MetricsRegistry.snapshot` of the process registry."""
    return REGISTRY.snapshot()


def wire() -> tuple:
    """:meth:`MetricsRegistry.wire` of the process registry."""
    return REGISTRY.wire()


def render() -> str:
    """Prometheus text exposition of the process registry."""
    return render_prometheus(REGISTRY)
