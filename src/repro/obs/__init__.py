"""Unified observability: metrics, events, spans, resource sampling.

The substrate the ROADMAP's distributed-fleet coordinator consumes, and
a live reproduction check of the paper's efficiency claims: QPA/PDA
iteration counts and approximation-stage hit rates — the very
quantities Albers & Slomka (DATE 2005) measure — and the kernel's walk
and numpy-fallback tallies are first-class series here instead of
scattered ad-hoc counters.

Four pieces, one import::

    from repro import obs

    C = obs.counter("repro_engine_analyses_total", labelnames=("test",))
    C.labels("qpa").inc()                  # pre-bound handles, hot-path safe

    with obs.span("engine.analyze", test="qpa"):
        ...                                # wall time → repro_span_seconds

    obs.emit("service", "job.started", job="j-1")   # ring + JSONL journal
    obs.ResourceSampler(interval=5).start()         # CPU/RSS/fd gauges

    print(obs.registry().exposition())     # Prometheus text format 0.0.4

Spans and events are separate channels: a finished span goes to the
span log (``/v1/traces``, ``--span-journal``, ``repro obs trace``) with
its name, parent, duration and attributes, and never to the event log.

Set ``REPRO_OBS=off`` in the environment to turn every mutation into a
no-op (reads then report zeros); :func:`set_enabled` flips the same
switch at runtime for overhead A/B tests.
"""

from .events import Event, EventLog, RotatingJournal, emit, event_log
from .metrics import (
    DEFAULT_BUCKETS,
    ITERATION_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    is_enabled,
    registry,
    set_enabled,
    state_delta,
)
from .sampler import ResourceSampler, sample_process
from .trace import (
    SpanHandle,
    SpanLog,
    capture_worker_baseline,
    collect_worker_telemetry,
    continue_trace,
    current_span,
    current_traceparent,
    format_traceparent,
    is_export_enabled,
    join_spans,
    merge_worker_telemetry,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    profile_spans,
    remote_parent,
    render_profile,
    render_trace_tree,
    set_span_export,
    span,
    span_log,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "is_enabled",
    "set_enabled",
    "DEFAULT_BUCKETS",
    "ITERATION_BUCKETS",
    "LATENCY_BUCKETS",
    "state_delta",
    "Event",
    "EventLog",
    "RotatingJournal",
    "event_log",
    "emit",
    "span",
    "current_span",
    "current_traceparent",
    "SpanHandle",
    "SpanLog",
    "span_log",
    "set_span_export",
    "is_export_enabled",
    "new_trace_id",
    "new_span_id",
    "format_traceparent",
    "parse_traceparent",
    "continue_trace",
    "remote_parent",
    "capture_worker_baseline",
    "collect_worker_telemetry",
    "merge_worker_telemetry",
    "join_spans",
    "profile_spans",
    "render_profile",
    "render_trace_tree",
    "ResourceSampler",
    "sample_process",
]
