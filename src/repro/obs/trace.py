"""Tracing spans, trace identity, span export, and telemetry merging.

* **Spans** — ``span("engine.analyze", test="qpa")`` opens a
  contextvars-propagated wall-time scope whose duration lands in the
  ``repro_span_seconds{span="engine.analyze"}`` histogram.  Nesting is
  tracked through a :mod:`contextvars` variable, so a span opened inside
  a worker thread or an asyncio task sees the right parent: the
  canonical chain here is ``engine.batch`` → ``engine.analyze`` →
  ``kernel.qpa``/``kernel.pda``.  A span emits no event: its full
  structure — name, parent, duration, attributes — goes to the span log
  (see *Export* below), the one channel for finished spans.

The rest of the module makes those spans *mean* something outside the
process that opened them:

* **Identity** — W3C-traceparent-style hex ids (``trace_id`` 16 bytes,
  ``span_id`` 8 bytes) formatted as ``00-<trace>-<span>-01`` headers, so
  a CLI invocation, an HTTP request, a queued job, and a multiprocessing
  chunk all hang off one trace.
* **Continuation** — :func:`continue_trace` installs a *remote parent*
  in the current context; the next span opened without a local parent
  attaches there instead of starting a fresh trace.  This is how the
  server resumes the client's trace and how a pool worker resumes the
  batch's.
* **Export** — finished spans land in the process-global
  :class:`SpanLog`: a ring buffer (the ``/v1/traces`` backing store)
  plus an optional rotating JSONL journal reusing
  :class:`repro.obs.events.RotatingJournal`.
* **Merge** — :func:`capture_worker_baseline` /
  :func:`collect_worker_telemetry` / :func:`merge_worker_telemetry` are
  the chunk-to-parent merge of multiprocessing ``BatchRunner``, which
  has no HTTP: a metrics-registry *delta*, buffered events, and
  finished spans travel back with the results; the parent adds
  counters, merges histogram cells, and re-tags events/spans with a
  ``worker`` label.  Fleet workers do not use it: the coordinator's
  scraper (:mod:`repro.fleet.telemetry`) is their one channel.
* **Attribution** — :func:`profile_spans` folds a span stream into a
  per-span-name self/cumulative breakdown (the ``analyze --profile``
  report), and :func:`render_trace_tree` reconstructs the parent/child
  tree for ``repro obs trace``.  :func:`join_spans` adds the spans a
  fleet coordinator scraped from its workers to its own, one record per
  span.
"""

from __future__ import annotations

import contextvars
import json
import os
import random
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import (
    Any,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

from .events import RotatingJournal, event_log
from .metrics import DEFAULT_BUCKETS, histogram, is_enabled, registry, state_delta

__all__ = [
    "span",
    "current_span",
    "current_traceparent",
    "SpanHandle",
    "new_trace_id",
    "new_span_id",
    "format_traceparent",
    "parse_traceparent",
    "continue_trace",
    "remote_parent",
    "SpanLog",
    "span_log",
    "set_span_export",
    "is_export_enabled",
    "capture_worker_baseline",
    "collect_worker_telemetry",
    "merge_worker_telemetry",
    "join_spans",
    "profile_spans",
    "render_profile",
    "render_trace_tree",
]


# ----------------------------------------------------------------------
# Identifiers and the traceparent header
# ----------------------------------------------------------------------

#: Per-process RNG for span identifiers.  ``os.urandom`` per span would
#: dominate microsecond kernel spans; a seeded Mersenne Twister is two
#: orders of magnitude cheaper and collision-safe at our scales.  The
#: pid check reseeds after ``fork`` so pool workers do not replay the
#: parent's id stream.
_RNG_LOCK = threading.Lock()
_RNG = random.Random()
_RNG_PID = os.getpid()


def _rng() -> random.Random:
    global _RNG, _RNG_PID
    pid = os.getpid()
    if pid != _RNG_PID:
        with _RNG_LOCK:
            if pid != _RNG_PID:
                _RNG = random.Random()  # reseeds from os.urandom
                _RNG_PID = pid
    return _RNG


def new_trace_id() -> str:
    """A fresh 32-hex-digit (16-byte) trace identifier."""
    return f"{_rng().getrandbits(128) or 1:032x}"


def new_span_id() -> str:
    """A fresh 16-hex-digit (8-byte) span identifier."""
    return f"{_rng().getrandbits(64) or 1:016x}"


def format_traceparent(trace_id: str, span_id: str) -> str:
    """``00-<trace_id>-<span_id>-01`` (version 00, sampled flag set)."""
    return f"00-{trace_id}-{span_id}-01"


def _is_hex(value: str) -> bool:
    try:
        int(value, 16)
    except ValueError:
        return False
    return True


def parse_traceparent(header: Optional[str]) -> Optional[Tuple[str, str]]:
    """``(trace_id, span_id)`` from a traceparent header, else ``None``.

    Malformed headers are *dropped*, never raised: propagation is
    best-effort and a bad header from a foreign client must not fail
    the request it rode in on.
    """
    if not header or not isinstance(header, str):
        return None
    parts = header.strip().lower().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, _flags = parts
    if version != "00":
        return None
    if len(trace_id) != 32 or len(span_id) != 16:
        return None
    if not (_is_hex(trace_id) and _is_hex(span_id)):
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return trace_id, span_id


# ----------------------------------------------------------------------
# Remote-parent continuation
# ----------------------------------------------------------------------

_REMOTE: contextvars.ContextVar[Optional[Tuple[str, str]]] = (
    contextvars.ContextVar("repro_obs_remote_parent", default=None)
)


def remote_parent() -> Optional[Tuple[str, str]]:
    """The ``(trace_id, span_id)`` installed by :func:`continue_trace`."""
    return _REMOTE.get()


@contextmanager
def continue_trace(
    traceparent: Optional[str],
) -> Iterator[Optional[Tuple[str, str]]]:
    """Adopt *traceparent* as the remote parent for this context.

    Spans opened inside the block without a local parent continue the
    remote trace.  ``None`` (or a malformed header) installs *no*
    parent, which also shadows any outer remote parent — a job that
    arrived without a trace starts its own rather than inheriting a
    stale one from the worker thread's previous job.
    """
    parsed = parse_traceparent(traceparent)
    token = _REMOTE.set(parsed)
    try:
        yield parsed
    finally:
        _REMOTE.reset(token)


# ----------------------------------------------------------------------
# Span export
# ----------------------------------------------------------------------

#: Export switch, separate from the master ``REPRO_OBS`` kill switch so
#: the histogram-only mode of PR 7 is still reachable
#: (``set_span_export(False)``).  Defaults on: the ring append is a
#: dict build plus a deque append, which the overhead benchmark gates.
_EXPORT = os.environ.get("REPRO_OBS_SPANS", "").strip().lower() not in (
    "off",
    "0",
    "false",
    "no",
)


def is_export_enabled() -> bool:
    """Whether finished spans are recorded on the span log."""
    return _EXPORT


def set_span_export(flag: bool) -> bool:
    """Toggle span export at runtime; returns the previous state."""
    global _EXPORT
    previous = _EXPORT
    _EXPORT = bool(flag)
    return previous


class SpanLog:
    """Ring buffer of finished-span records + optional JSONL journal.

    Records are plain dicts (``trace_id``/``span_id``/``parent_id``/
    ``name``/``start``/``duration``/``attrs`` plus a log-assigned
    ``seq``) so they serialize to workers and journals without a
    codec.  The same absolute-cursor discipline as
    :class:`repro.obs.events.EventLog` applies: ``since`` survives ring
    eviction and makes delta collection trivial.
    """

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._journal: Optional[RotatingJournal] = None

    # -- journal ------------------------------------------------------

    def attach_journal(
        self,
        path: str,
        max_bytes: int = 4 * 1024 * 1024,
        backups: int = 2,
    ) -> None:
        """Append finished spans to *path* with size-capped rotation."""
        journal = RotatingJournal(path, max_bytes=max_bytes, backups=backups)
        with self._lock:
            if self._journal is not None:
                self._journal.close()
            self._journal = journal

    def detach_journal(self) -> None:
        with self._lock:
            if self._journal is not None:
                self._journal.close()
            self._journal = None

    @property
    def journal_path(self) -> Optional[str]:
        journal = self._journal
        if journal is None or journal.closed:
            return None
        return journal.path

    # -- writes -------------------------------------------------------

    def record(self, record: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Append one finished-span record; assigns the sequence number."""
        if not is_enabled():
            return None
        with self._lock:
            self._seq += 1
            record["seq"] = self._seq
            self._ring.append(record)
            if self._journal is not None:
                self._journal.write_line(
                    json.dumps(record, separators=(",", ":"), default=str)
                )
        return record

    def ingest(
        self, record: Dict[str, Any], worker: str = ""
    ) -> Optional[Dict[str, Any]]:
        """Replay a span recorded by another process (worker merge).

        Identity and timing fields are preserved — only the sequence
        number is re-assigned — so the merged span still slots into its
        original trace tree.  ``worker`` lands in ``attrs``.
        """
        document = dict(record)
        attrs = dict(document.get("attrs") or {})
        if worker:
            attrs.setdefault("worker", worker)
        document["attrs"] = attrs
        return self.record(document)

    # -- reads --------------------------------------------------------

    def since(
        self, cursor: int = 0, limit: int = 500
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Records with ``seq > cursor`` (oldest first) + next cursor."""
        with self._lock:
            records = [r for r in self._ring if r["seq"] > cursor][
                : max(0, limit)
            ]
            next_cursor = records[-1]["seq"] if records else self._seq
        return records, next_cursor

    def for_trace(self, trace_id: str) -> List[Dict[str, Any]]:
        """Every retained span of one trace, oldest first."""
        with self._lock:
            return [r for r in self._ring if r.get("trace_id") == trace_id]

    def trace_summaries(self, limit: int = 50) -> List[Dict[str, Any]]:
        """Newest-first per-trace rollups (the ``/v1/traces`` listing)."""
        with self._lock:
            records = list(self._ring)
        rollups: Dict[str, Dict[str, Any]] = {}
        for record in records:
            trace_id = record.get("trace_id")
            if not trace_id:
                continue
            entry = rollups.get(trace_id)
            if entry is None:
                entry = rollups[trace_id] = {
                    "trace": trace_id,
                    "spans": 0,
                    "root": None,
                    "start": record.get("start"),
                    "duration": 0.0,
                    "last_seq": 0,
                }
            entry["spans"] += 1
            entry["last_seq"] = max(entry["last_seq"], record.get("seq", 0))
            start = record.get("start")
            # "Root" is the earliest-starting retained span: a trace
            # originated by a remote client has no parentless span on
            # this side, so parent_id alone cannot identify it.
            if entry["root"] is None or (
                start is not None
                and (entry["start"] is None or start < entry["start"])
            ):
                entry["start"] = start if start is not None else entry["start"]
                entry["root"] = record.get("name")
            entry["duration"] = max(
                entry["duration"], float(record.get("duration") or 0.0)
            )
        ordered = sorted(
            rollups.values(), key=lambda e: e["last_seq"], reverse=True
        )
        return ordered[: max(0, limit)]

    @property
    def last_seq(self) -> int:
        return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def clear(self) -> None:
        """Drop buffered spans (the cursor keeps advancing; tests)."""
        with self._lock:
            self._ring.clear()


_LOG = SpanLog()


def span_log() -> SpanLog:
    """The process-global span log."""
    return _LOG


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

_SPAN_SECONDS = histogram(
    "repro_span_seconds",
    "Wall time spent inside traced scopes, by span name.",
    labelnames=("span",),
    buckets=DEFAULT_BUCKETS,
)

_CURRENT: contextvars.ContextVar[Optional["SpanHandle"]] = contextvars.ContextVar(
    "repro_obs_span", default=None
)

class SpanHandle:
    """The live scope a ``with span(...)`` block exposes.

    Every handle carries trace identity: the ``trace_id`` is inherited
    from the local parent span, else from a remote parent installed by
    :func:`continue_trace`, else freshly originated — one trace per CLI
    invocation / HTTP request / detached job.
    """

    __slots__ = (
        "name",
        "attrs",
        "parent",
        "depth",
        "duration",
        "trace_id",
        "span_id",
        "parent_id",
        "start_ts",
    )

    def __init__(
        self,
        name: str,
        attrs: Dict[str, Any],
        parent: Optional["SpanHandle"],
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.duration: Optional[float] = None
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_id: Optional[str] = parent.span_id
        else:
            remote = remote_parent()
            if remote is not None:
                self.trace_id, self.parent_id = remote
            else:
                self.trace_id = new_trace_id()
                self.parent_id = None
        self.span_id = new_span_id()
        self.start_ts = time.time()

    @property
    def traceparent(self) -> str:
        """The header value that continues this span's trace elsewhere."""
        return format_traceparent(self.trace_id, self.span_id)


def current_span() -> Optional[SpanHandle]:
    """The innermost open span of the calling context, if any."""
    return _CURRENT.get()


def current_traceparent() -> Optional[str]:
    """The traceparent header for the calling context, if any.

    Prefers the innermost open span; falls back to a remote parent
    installed by :func:`continue_trace`.  ``None`` means no trace is
    active — callers originate one if they need it.
    """
    handle = _CURRENT.get()
    if handle is not None:
        return handle.traceparent
    remote = remote_parent()
    if remote is not None:
        return format_traceparent(*remote)
    return None


# Cache the histogram children: span names are a small closed set and
# the labels() dict hit is the only per-span lookup we allow.
_CHILDREN: Dict[str, Any] = {}


def _child(name: str):
    child = _CHILDREN.get(name)
    if child is None:
        child = _SPAN_SECONDS.labels(name)
        _CHILDREN[name] = child
    return child


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Optional[SpanHandle]]:
    """Time a scope into ``repro_span_seconds`` and propagate nesting.

    Yields the open :class:`SpanHandle` (or ``None`` when observability
    is disabled — callers must not rely on the handle).  Duration is
    recorded on *every* exit, exceptional or not: a crashing analysis
    still spends the time.
    """
    if not is_enabled():
        yield None
        return
    handle = SpanHandle(name, attrs, _CURRENT.get())
    token = _CURRENT.set(handle)
    start = time.perf_counter()
    try:
        yield handle
    finally:
        duration = time.perf_counter() - start
        handle.duration = duration
        _CURRENT.reset(token)
        _child(name).observe(duration)
        if is_export_enabled():
            span_log().record(
                {
                    "trace_id": handle.trace_id,
                    "span_id": handle.span_id,
                    "parent_id": handle.parent_id,
                    "name": name,
                    "start": handle.start_ts,
                    "duration": duration,
                    "attrs": attrs,
                }
            )


# ----------------------------------------------------------------------
# Worker telemetry: capture → collect → merge
# ----------------------------------------------------------------------


def capture_worker_baseline() -> Dict[str, Any]:
    """Snapshot the telemetry cursors at the start of a work unit.

    Called *inside* the worker before it computes anything; the
    matching :func:`collect_worker_telemetry` turns everything recorded
    after this point into a mergeable delta document.
    """
    return {
        "metrics": registry().export_state(),
        "events_seq": event_log().last_seq,
        "spans_seq": span_log().last_seq,
    }


def collect_worker_telemetry(
    baseline: Dict[str, Any], worker: Optional[str] = None
) -> Dict[str, Any]:
    """Everything recorded since *baseline*, as one picklable document."""
    events, _ = event_log().since(baseline.get("events_seq", 0), limit=1 << 30)
    spans, _ = span_log().since(baseline.get("spans_seq", 0), limit=1 << 30)
    return {
        "worker": worker if worker is not None else str(os.getpid()),
        "metrics": state_delta(
            baseline.get("metrics") or {}, registry().export_state()
        ),
        "events": [event.to_dict() for event in events],
        "spans": spans,
    }


def merge_worker_telemetry(telemetry: Optional[Dict[str, Any]]) -> None:
    """Fold a worker's telemetry document into this process's stores.

    Counters add, histogram cells merge, events and spans are replayed
    with a ``worker`` provenance tag.  Defensive by design: a malformed
    document degrades to a partial merge, never an exception on the
    result path.
    """
    if not telemetry or not is_enabled():
        return
    worker = str(telemetry.get("worker", ""))
    metrics_state = telemetry.get("metrics")
    if isinstance(metrics_state, dict):
        registry().merge_state(metrics_state)
    log = event_log()
    events = telemetry.get("events")
    for document in events if isinstance(events, (list, tuple)) else ():
        if isinstance(document, dict):
            log.ingest(document, worker=worker)
    spans = span_log()
    records = telemetry.get("spans")
    for record in records if isinstance(records, (list, tuple)) else ():
        if isinstance(record, dict):
            spans.ingest(record, worker=worker)


# ----------------------------------------------------------------------
# Profiler and tree reconstruction
# ----------------------------------------------------------------------


def join_spans(
    own: List[Dict[str, Any]], scraped: List[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """*own* plus the *scraped* records whose ``span_id`` it lacks.

    A worker in the coordinator's process records into the coordinator's
    own log, and the scraper brings back copies of those records: the
    own record wins, so every span comes back once.
    """
    seen = {record.get("span_id") for record in own}
    joined = list(own)
    for record in scraped:
        if record.get("span_id") not in seen:
            seen.add(record.get("span_id"))
            joined.append(record)
    return joined


def profile_spans(spans: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate a span stream into per-name self/cumulative rows.

    *Self* time is a span's duration minus its **direct** children's
    durations (floored at zero — clock jitter across processes can make
    children sum past the parent), which is what makes the report an
    attribution rather than a double-counted call tree.
    """
    by_id: Dict[str, Dict[str, Any]] = {
        record["span_id"]: record
        for record in spans
        if record.get("span_id")
    }
    child_time: Dict[str, float] = {}
    for record in spans:
        parent = record.get("parent_id")
        if parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + float(
                record.get("duration") or 0.0
            )
    rows: Dict[str, Dict[str, Any]] = {}
    wall = 0.0
    traces = set()
    for record in spans:
        name = str(record.get("name", ""))
        duration = float(record.get("duration") or 0.0)
        traces.add(record.get("trace_id"))
        row = rows.get(name)
        if row is None:
            row = rows[name] = {
                "span": name,
                "count": 0,
                "total_seconds": 0.0,
                "self_seconds": 0.0,
                "min_seconds": duration,
                "max_seconds": duration,
            }
        row["count"] += 1
        row["total_seconds"] += duration
        row["self_seconds"] += max(
            0.0, duration - child_time.get(record.get("span_id"), 0.0)
        )
        row["min_seconds"] = min(row["min_seconds"], duration)
        row["max_seconds"] = max(row["max_seconds"], duration)
        if record.get("parent_id") not in by_id:
            wall += duration
    ordered = sorted(
        rows.values(), key=lambda r: r["self_seconds"], reverse=True
    )
    return {
        "traces": len(traces - {None}),
        "spans": len(spans),
        "wall_seconds": wall,
        "rows": ordered,
    }


def render_profile(report: Dict[str, Any]) -> str:
    """The sorted text table for one :func:`profile_spans` report."""
    rows = report.get("rows") or []
    if not rows:
        return "no spans recorded (observability disabled or no work done)"
    wall = float(report.get("wall_seconds") or 0.0)
    header = (
        f"{'span':<28} {'count':>7} {'self(s)':>10} {'total(s)':>10} "
        f"{'avg(ms)':>9} {'self%':>6}"
    )
    lines = [
        f"profile: {report.get('spans', 0)} spans, "
        f"{report.get('traces', 0)} trace(s), "
        f"wall {wall:.6f}s",
        header,
        "-" * len(header),
    ]
    for row in rows:
        count = row["count"]
        avg_ms = (row["total_seconds"] / count) * 1e3 if count else 0.0
        share = (row["self_seconds"] / wall * 100.0) if wall > 0 else 0.0
        lines.append(
            f"{row['span']:<28} {count:>7} {row['self_seconds']:>10.6f} "
            f"{row['total_seconds']:>10.6f} {avg_ms:>9.3f} {share:>5.1f}%"
        )
    return "\n".join(lines)


def render_trace_tree(spans: List[Dict[str, Any]]) -> str:
    """Indented parent/child tree with self/cumulative durations.

    Spans whose parent is missing from the set (e.g. a client-side root
    the server never saw) render as roots — cross-process trees are
    routinely partial and must still be readable.
    """
    if not spans:
        return "no spans"
    by_id = {
        record["span_id"]: record
        for record in spans
        if record.get("span_id")
    }
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    roots: List[Dict[str, Any]] = []
    for record in spans:
        parent = record.get("parent_id")
        if parent in by_id:
            children.setdefault(parent, []).append(record)
        else:
            roots.append(record)

    def start_key(record: Dict[str, Any]) -> Tuple[float, int]:
        return (float(record.get("start") or 0.0), record.get("seq", 0))

    lines: List[str] = []

    def walk(record: Dict[str, Any], depth: int) -> None:
        duration = float(record.get("duration") or 0.0)
        kids = sorted(children.get(record.get("span_id"), ()), key=start_key)
        self_seconds = max(
            0.0,
            duration
            - sum(float(k.get("duration") or 0.0) for k in kids),
        )
        attrs = record.get("attrs") or {}
        extras = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        line = (
            f"{'  ' * depth}{record.get('name')}  "
            f"total={duration * 1e3:.3f}ms self={self_seconds * 1e3:.3f}ms"
        )
        if extras:
            line += f"  [{extras}]"
        lines.append(line)
        for kid in kids:
            walk(kid, depth + 1)

    for root in sorted(roots, key=start_key):
        walk(root, 0)
    return "\n".join(lines)
