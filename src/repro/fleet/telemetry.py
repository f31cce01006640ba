"""The fleet telemetry plane: coordinator-side scraping and merging.

This module is the only channel that carries a fleet worker's metrics
registry, event ring, spans and resource gauges to the coordinator
(shard responses carry results only).  It is a *pull* path, following
the event-journal/resource-monitor design of NREL's jade:

* :class:`FleetTelemetry` is the coordinator-side merged store: the
  latest **absolute** metrics state per worker (a
  :meth:`~repro.obs.metrics.MetricsRegistry.export_state` document),
  a fleet-wide :class:`~repro.obs.events.EventLog` and
  :class:`~repro.obs.trace.SpanLog` fed by ``ingest`` with ``worker=``
  provenance, per-worker scrape bookkeeping (counts, failures, ages),
  and the **resume cursors** for event/span pulls.  Cursors live here —
  not on the scraper — so a restarted scraper resumes where the old one
  stopped and never double-ingests an event or a histogram cell.  The
  logs are this store's own, not the process-global ones: a worker in
  the coordinator's process (tests, the in-process benchmark) serves
  the global logs, so scraped records ingested there would come back
  on the next scrape.  The server serves them at ``/v1/fleet/events``
  and ``/v1/fleet/traces`` and joins the scraped spans of a trace into
  ``/v1/traces/{id}``.
* :class:`FleetScraper` is the daemon thread that pulls every *alive*
  worker on a heartbeat-aligned cadence: ``/v1/metrics?format=state``
  (replaced wholesale, so re-scrapes are idempotent by construction),
  then cursor-based ``/v1/events?since=`` and ``/v1/traces?since=``
  pages.  Transient failures ride the
  :class:`~repro.service.client.ServiceClient` GET retry machinery and
  are tolerated — a failed scrape is a counter, never an exception.
* The merged view is rendered by building a **fresh registry** per
  request: every worker family is re-labeled with ``worker=<id>`` and
  folded in through :meth:`~repro.obs.metrics.MetricsRegistry.
  merge_state` — the same cell-exact merge multiprocessing
  ``BatchRunner`` chunks use — so fleet counter totals are
  *bit-identical* to the sum of the workers' own registries.
  Scraper-side rollups (scrape age, failure counters, staleness, shards
  in flight) ride along as ``repro_fleet_scrape_*`` series.

Staleness: a worker that stops being alive (death, graceful leave)
keeps its series — marked ``repro_fleet_series_stale{worker=} 1`` — for
``stale_ttl`` seconds, then expires entirely.  A revived worker's next
successful scrape clears the flag.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import EventLog, SpanLog
from ..obs.metrics import MetricsRegistry
from ..service.client import ServiceClient, ServiceError
from .registry import WorkerRegistry

__all__ = ["FleetTelemetry", "FleetScraper", "WORKER_LABEL"]

#: The provenance label appended to every scraped family.
WORKER_LABEL = "worker"

#: Events/spans per scrape request (the server's page ceiling); one
#: scrape pages until a short page comes back, so a burst between two
#: sweeps is pulled whole while the worker's rings still hold it.
_PAGE_LIMIT = 1000


def _relabel_state(state: Dict[str, Any], worker_id: str) -> Dict[str, Any]:
    """Append ``worker=<id>`` to every series of an export_state doc.

    The relabeled document still merges through ``merge_state``
    unchanged, which is what keeps fleet totals cell-exact.  A family
    that already carries a ``worker`` label (none do today) is skipped
    rather than corrupted.
    """
    out: Dict[str, Any] = {}
    for name, document in state.items():
        labelnames = list(document.get("labelnames") or ())
        if WORKER_LABEL in labelnames:
            continue
        series = [
            [list(key) + [worker_id], value]
            for key, value in document.get("series") or ()
        ]
        out[name] = {
            **document,
            "labelnames": labelnames + [WORKER_LABEL],
            "series": series,
        }
    return out


def _state_value(state: Dict[str, Any], name: str) -> Optional[float]:
    """The single (unlabeled) value of *name* in a state doc, if any."""
    document = state.get(name)
    if not document:
        return None
    for key, value in document.get("series") or ():
        if not key and isinstance(value, (int, float)):
            return float(value)
    return None


def _pull(
    worker_id: str,
    fetch: Callable[..., Dict[str, Any]],
    key: str,
    cursor: int,
    ingest: Callable[[str, List[Dict[str, Any]], int], int],
) -> None:
    """Page ``fetch(since=, limit=)`` into *ingest* from *cursor* until a
    short page, or a ``next`` that does not advance."""
    while True:
        page = fetch(since=cursor, limit=_PAGE_LIMIT)
        records = page.get(key) or []
        next_cursor = int(page.get("next", 0))
        ingest(worker_id, records, next_cursor)
        if len(records) < _PAGE_LIMIT or next_cursor <= cursor:
            return
        cursor = next_cursor


class _WorkerView:
    """Per-worker scrape state: absolute metrics, cursors, bookkeeping."""

    __slots__ = (
        "state",
        "scrapes",
        "failures",
        "last_scrape",
        "last_error",
        "stale",
        "stale_since",
        "events_cursor",
        "spans_cursor",
        "events_ingested",
        "spans_ingested",
    )

    def __init__(self) -> None:
        self.state: Dict[str, Any] = {}
        self.scrapes = 0
        self.failures = 0
        self.last_scrape: Optional[float] = None
        self.last_error = ""
        self.stale = False
        self.stale_since: Optional[float] = None
        self.events_cursor = 0
        self.spans_cursor = 0
        self.events_ingested = 0
        self.spans_ingested = 0


class FleetTelemetry:
    """Coordinator-side merged telemetry (see module docstring).

    Args:
        stale_ttl: seconds a dead/left worker's series survive after
            going stale before they expire from the fleet view.
        event_capacity / span_capacity: ring sizes of the merged
            fleet event and span logs.
    """

    def __init__(
        self,
        stale_ttl: float = 300.0,
        event_capacity: int = 4096,
        span_capacity: int = 8192,
    ) -> None:
        if stale_ttl <= 0:
            raise ValueError(f"stale_ttl must be > 0, got {stale_ttl}")
        self.stale_ttl = stale_ttl
        self.events = EventLog(capacity=event_capacity)
        self.spans = SpanLog(capacity=span_capacity)
        self._views: Dict[str, _WorkerView] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Scrape-side mutations
    # ------------------------------------------------------------------

    def _view(self, worker_id: str) -> _WorkerView:
        view = self._views.get(worker_id)
        if view is None:
            view = self._views[worker_id] = _WorkerView()
        return view

    def record_metrics(self, worker_id: str, state: Dict[str, Any]) -> None:
        """Replace a worker's absolute metrics state (one good scrape).

        Replacement — not accumulation — is what makes re-scrapes
        idempotent: scraping the same worker twice, or again after a
        scraper restart, cannot double a counter or a histogram cell.
        """
        with self._lock:
            view = self._view(worker_id)
            view.state = state
            view.scrapes += 1
            view.last_scrape = time.monotonic()
            view.last_error = ""
            view.stale = False
            view.stale_since = None

    def record_failure(self, worker_id: str, error: str) -> None:
        with self._lock:
            view = self._view(worker_id)
            view.failures += 1
            view.last_error = error

    def ingest_events(
        self, worker_id: str, events: List[Dict[str, Any]], next_cursor: int
    ) -> int:
        """Fold one ``/v1/events`` page in; advances the resume cursor.

        A page at or behind the stored cursor is dropped wholesale —
        the regression guard for a scraper that restarted with stale
        in-thread state.  A *next_cursor* smaller than the stored one
        is adopted: the worker process restarted and its sequence
        space began again.
        """
        ingested = 0
        with self._lock:
            view = self._view(worker_id)
            cursor = view.events_cursor
        for document in events:
            if int(document.get("seq", 0)) <= cursor and next_cursor >= cursor:
                continue
            if self.events.ingest(document, worker=worker_id) is not None:
                ingested += 1
        with self._lock:
            view = self._view(worker_id)
            view.events_cursor = next_cursor
            view.events_ingested += ingested
        return ingested

    def ingest_spans(
        self, worker_id: str, records: List[Dict[str, Any]], next_cursor: int
    ) -> int:
        """Fold one ``/v1/traces?since=`` page in; advances the cursor."""
        ingested = 0
        with self._lock:
            view = self._view(worker_id)
            cursor = view.spans_cursor
        for record in records:
            if int(record.get("seq", 0)) <= cursor and next_cursor >= cursor:
                continue
            if self.spans.ingest(record, worker=worker_id) is not None:
                ingested += 1
        with self._lock:
            view = self._view(worker_id)
            view.spans_cursor = next_cursor
            view.spans_ingested += ingested
        return ingested

    def cursors(self, worker_id: str) -> Tuple[int, int]:
        """The ``(events, spans)`` resume cursors for one worker."""
        with self._lock:
            view = self._views.get(worker_id)
            if view is None:
                return 0, 0
            return view.events_cursor, view.spans_cursor

    # ------------------------------------------------------------------
    # Staleness and expiry
    # ------------------------------------------------------------------

    def mark_stale(self, worker_id: str) -> None:
        """The worker stopped being alive: keep its series, flag them."""
        with self._lock:
            view = self._views.get(worker_id)
            if view is None or view.stale:
                return
            view.stale = True
            view.stale_since = time.monotonic()

    def expire(self) -> List[str]:
        """Drop workers stale for longer than the TTL; returns the ids."""
        now = time.monotonic()
        with self._lock:
            expired = [
                worker_id
                for worker_id, view in self._views.items()
                if view.stale
                and view.stale_since is not None
                and now - view.stale_since > self.stale_ttl
            ]
            for worker_id in expired:
                del self._views[worker_id]
        return expired

    def worker_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._views)

    # ------------------------------------------------------------------
    # The merged view
    # ------------------------------------------------------------------

    def build_registry(
        self, inflight: Optional[Dict[str, int]] = None
    ) -> MetricsRegistry:
        """A fresh registry holding the whole fleet's series.

        Per-worker families are relabeled and cell-merged; scraper
        rollups are layered on top.  Built per request — the fleet view
        is always a pure function of the latest scrapes, never an
        accumulator that could drift.
        """
        now = time.monotonic()
        with self._lock:
            views = [
                (worker_id, view.state, view)
                for worker_id, view in sorted(self._views.items())
            ]
            rollups = [
                (
                    worker_id,
                    view.scrapes,
                    view.failures,
                    None
                    if view.last_scrape is None
                    else now - view.last_scrape,
                    view.stale,
                )
                for worker_id, _, view in views
            ]
        merged = MetricsRegistry()
        for worker_id, state, _ in views:
            merged.merge_state(_relabel_state(state, worker_id))
        age_gauge = merged.gauge(
            "repro_fleet_scrape_age_seconds",
            "Seconds since the last successful scrape of this worker.",
            labelnames=(WORKER_LABEL,),
        )
        scrapes_counter = merged.counter(
            "repro_fleet_scrapes_total",
            "Successful telemetry scrapes of this worker.",
            labelnames=(WORKER_LABEL,),
        )
        failures_counter = merged.counter(
            "repro_fleet_scrape_failures_total",
            "Failed telemetry scrape attempts against this worker.",
            labelnames=(WORKER_LABEL,),
        )
        stale_gauge = merged.gauge(
            "repro_fleet_series_stale",
            "1 when this worker's series are retained but stale "
            "(worker dead or departed; expires after the TTL).",
            labelnames=(WORKER_LABEL,),
        )
        merged.gauge(
            "repro_fleet_scraped_workers",
            "Workers currently present in the fleet telemetry view.",
        ).set(len(views))
        for worker_id, scrapes, failures, age, stale in rollups:
            if age is not None:
                age_gauge.labels(worker_id).set(round(age, 3))
            scrapes_counter.labels(worker_id).inc(scrapes)
            failures_counter.labels(worker_id).inc(failures)
            stale_gauge.labels(worker_id).set(1 if stale else 0)
        if inflight:
            inflight_gauge = merged.gauge(
                "repro_fleet_shards_inflight",
                "Shards currently dispatched to this worker.",
                labelnames=(WORKER_LABEL,),
            )
            for worker_id, count in sorted(inflight.items()):
                inflight_gauge.labels(worker_id).set(count)
        return merged

    def exposition(self, inflight: Optional[Dict[str, int]] = None) -> str:
        """The fleet-aggregated Prometheus text exposition."""
        return self.build_registry(inflight).exposition()

    def metrics_snapshot(
        self, inflight: Optional[Dict[str, int]] = None
    ) -> Dict[str, Any]:
        """The fleet view in the ``?format=json`` shape."""
        return self.build_registry(inflight).snapshot()

    def snapshot(self) -> Dict[str, Any]:
        """The ``telemetry`` section of ``Coordinator.snapshot()``."""
        now = time.monotonic()
        with self._lock:
            workers = {}
            for worker_id, view in sorted(self._views.items()):
                rss = _state_value(view.state, "repro_process_rss_bytes")
                workers[worker_id] = {
                    "scrapes": view.scrapes,
                    "failures": view.failures,
                    "last_scrape_age_seconds": (
                        None
                        if view.last_scrape is None
                        else round(now - view.last_scrape, 3)
                    ),
                    "last_error": view.last_error,
                    "stale": view.stale,
                    "rss_bytes": None if rss is None else int(rss),
                    "events_cursor": view.events_cursor,
                    "spans_cursor": view.spans_cursor,
                    "events_ingested": view.events_ingested,
                    "spans_ingested": view.spans_ingested,
                }
        return {
            "stale_ttl_seconds": self.stale_ttl,
            "events_merged": self.events.last_seq,
            "spans_merged": self.spans.last_seq,
            "workers": workers,
        }


class FleetScraper:
    """Daemon thread pulling telemetry from every alive worker.

    Args:
        workers: the coordinator's :class:`WorkerRegistry` (the source
            of truth for who is alive and where).
        telemetry: the merged store (owns cursors and staleness).
        interval: seconds between sweeps; align this with the fleet's
            heartbeat interval (the coordinator defaults it to
            ``2 * heartbeat_interval``).
        timeout: per-request socket timeout for one scrape GET.
        retries: transient-GET retry attempts per scrape request (rides
            :class:`ServiceClient`'s capped-backoff machinery, so an
            ``http-503`` blip never fails a sweep).
    """

    def __init__(
        self,
        workers: WorkerRegistry,
        telemetry: FleetTelemetry,
        interval: float = 4.0,
        timeout: float = 5.0,
        retries: int = 3,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.workers = workers
        self.telemetry = telemetry
        self.interval = interval
        self.timeout = timeout
        self.retries = retries
        self._clients: Dict[str, ServiceClient] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._pull_lock = threading.Lock()

    # ------------------------------------------------------------------

    def _client(self, worker_id: str, url: str) -> ServiceClient:
        with self._lock:
            client = previous = self._clients.get(worker_id)
            if client is None or client.base_url != url.rstrip("/"):
                client = ServiceClient(
                    url,
                    timeout=self.timeout,
                    retries=max(1, self.retries),
                    retry_base=0.05,
                    retry_cap=0.5,
                )
                self._clients[worker_id] = client
        if previous is not None and previous is not client:
            previous.close()  # the worker came back at another URL
        return client

    def scrape_worker(self, worker_id: str, url: str) -> bool:
        """One full pull of one worker; ``True`` on success.

        Metrics first (the freshest snapshot), then events and spans,
        each paged from its resume cursor until a short page.  Any
        failure counts once against the worker; the pages ingested
        before it moved the cursors, so the next sweep resumes exactly
        where this one stopped.  Pulls are serialized: a profiled job
        may scrape while the sweep thread does, and two pulls from one
        cursor would ingest the same page twice.
        """
        client = self._client(worker_id, url)
        with self._pull_lock:
            try:
                state = client.metrics_state()
                events_cursor, spans_cursor = self.telemetry.cursors(worker_id)
                _pull(
                    worker_id, client.events, "events", events_cursor,
                    self.telemetry.ingest_events,
                )
                _pull(
                    worker_id, client.spans, "spans", spans_cursor,
                    self.telemetry.ingest_spans,
                )
            except ServiceError as err:
                self.telemetry.record_failure(worker_id, str(err))
                return False
            # Recorded last: a scrape only counts once everything landed.
            self.telemetry.record_metrics(worker_id, state)
        return True

    def scrape_all(self) -> Dict[str, bool]:
        """One sweep over the alive fleet; public so tests (and a
        coordinator without the thread) can drive scraping
        deterministically.  Also reconciles staleness: any known worker
        no longer alive goes stale, and expired series are dropped."""
        alive = {info.id: info.url for info in self.workers.alive()}
        results: Dict[str, bool] = {}
        for worker_id, url in sorted(alive.items()):
            results[worker_id] = self.scrape_worker(worker_id, url)
        for worker_id in self.telemetry.worker_ids():
            if worker_id not in alive:
                self.telemetry.mark_stale(worker_id)
        for worker_id in self.telemetry.expire():
            with self._lock:
                client = self._clients.pop(worker_id, None)
            if client is not None:
                client.close()
        return results

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "FleetScraper":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-fleet-scraper", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sweep thread and close the scrape connections."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        with self._lock:
            clients, self._clients = self._clients, {}
        for client in clients.values():
            client.close()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.scrape_all()
            except Exception:  # pragma: no cover - the plane must fly on
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FleetScraper(interval={self.interval:g}s, "
            f"workers={len(self.telemetry.worker_ids())})"
        )
