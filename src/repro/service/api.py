"""HTTP JSON API over the analysis engine (stdlib only).

A thin, threaded front door: ``ThreadingHTTPServer`` handles transport,
the :class:`~repro.service.jobs.JobQueue` owns execution, the
:class:`~repro.service.store.ResultStore` owns persistence.  Documents
on the wire are the repository's existing formats — ``repro/taskset-v1``
and ``repro/system-v1`` in requests, ``repro/result-v1`` in responses —
so a file written by ``repro-edf generate`` is a valid request body
as-is.

Endpoints (all JSON):

========  ==========================  =======================================
Method    Path                        Meaning
========  ==========================  =======================================
GET       /v1/health                  liveness + version
GET       /v1/tests                   registry dump: names, kinds, options
GET       /v1/cache-stats             context LRU + store + queue counters
GET       /v1/metrics                 Prometheus text (``?format=json`` for JSON,
                                      ``?format=state`` for the raw merge doc)
GET       /v1/events                  structured events (``?since=N`` cursor)
GET       /v1/traces                  newest-first per-trace span rollups
                                      (``?since=N`` for a cursor span page)
GET       /v1/traces/{trace_id}       every retained span of one trace (plus
                                      the scraped worker spans, in fleet mode)
POST      /v1/jobs                    submit a single or batch job (202)
GET       /v1/jobs                    list job snapshots
GET       /v1/jobs/{id}               one job's status/progress
GET       /v1/jobs/{id}/result        results of a finished job
DELETE    /v1/jobs/{id}               cancel (immediate if queued)
POST      /v1/fleet/register          register a fleet worker (501 if no fleet)
POST      /v1/fleet/heartbeat         worker heartbeat (404 → re-register)
POST      /v1/fleet/deregister        graceful worker leave
GET       /v1/fleet/workers           membership snapshot + dead letters
GET       /v1/fleet/metrics           fleet-aggregated exposition, one series
                                      per worker (``worker=`` labels) plus
                                      scrape rollups (``?format=json``)
GET       /v1/fleet/events            merged worker events (``?since=N``)
GET       /v1/fleet/traces            merged worker spans (``?since=N``)
POST      /v1/admission               create an admission session (201)
GET       /v1/admission               list admission sessions
GET       /v1/admission/{id}          one session's stats snapshot
POST      /v1/admission/{id}/events   apply trace-v1 events, get decisions
GET       /v1/admission/{id}/decisions  decision log (``?since=N`` cursor)
DELETE    /v1/admission/{id}          close the session
========  ==========================  =======================================

Admission sessions wrap a live
:class:`~repro.online.controller.AdmissionController`: the create body
may seed an initial ``taskset`` and set ``epsilon`` (number or
``"p/q"`` string; ``null`` disables the approximate filter stage), an
events body is ``{"events": [...]}`` in ``repro/trace-v1`` event shape
(a full trace document works as-is), and the decision log doubles as a
poll-based stream via its ``since`` cursor.

A submission body carries the test selection and one source of task
sets::

    {"test": "qpa", "options": {"bound_method": "best"},
     "taskset": {...repro/taskset-v1...}}          # single analysis
    {"test": "all-approx", "tasksets": [{...}, ...]}   # batch campaign
    {"system": {...repro/system-v1...}}            # platform supplies cores
    {"requests": [{"test": ..., "options": {...}, "taskset": {...}}, ...]}

Validation failures (unknown test, bad options, malformed documents)
are 400s with an ``error`` string; unknown jobs and paths are 404s.
The server never runs analyses on the request thread — POST returns a
``202 Accepted`` snapshot and clients poll or use the CLI's ``--wait``.
"""

from __future__ import annotations

import json
import threading
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from ..engine.batch import AnalysisRequest, BatchRunner
from ..engine.context import context_cache_info, set_context_backend
from ..engine.registry import TestRegistry, default_registry
from ..model.serialization import (
    encode_value,
    result_to_dict,
    system_from_dict,
    taskset_from_dict,
)
from ..model.validation import ModelError
from ..obs import EventLog, ResourceSampler, SpanLog, event_log, span_log
from ..obs import join_spans
from ..obs import continue_trace as _obs_continue_trace
from ..obs import counter as _obs_counter
from ..obs import registry as _obs_registry
from ..obs import span as _obs_span
from .jobs import JobQueue
from .sessions import AdmissionSessionManager, events_from_document
from .store import ResultStore

if False:  # pragma: no cover - import cycle guard (typing only)
    from ..fleet.coordinator import Coordinator

__all__ = [
    "AnalysisServer",
    "ApiError",
    "requests_from_document",
    "is_telemetry_path",
    "serve_telemetry",
]

_MAX_BODY = 64 * 1024 * 1024  # a 64 MiB body is an attack, not a campaign
#: Server-side ceiling on events/traces page sizes: a huge ``limit``
#: must not serialize the whole ring into one response.
_MAX_PAGE_LIMIT = 1000
_EXPOSITION = "text/plain; version=0.0.4; charset=utf-8"
_TELEMETRY_PATHS = frozenset({"/v1/metrics", "/v1/events", "/v1/traces"})

_HTTP_REQUESTS = _obs_counter(
    "repro_http_requests_total",
    "API requests handled, by method and (coarse) endpoint.",
    labelnames=("method", "endpoint"),
)


class ApiError(Exception):
    """An error with an HTTP status, raised by request handling."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _source_from_entry(
    entry: Dict[str, Any], test: str, options: Dict[str, Any], registry: TestRegistry
) -> Tuple[Any, Dict[str, Any]]:
    """Extract (source, effective options) from a taskset/system entry."""
    if "taskset" in entry:
        return taskset_from_dict(entry["taskset"]), options
    if "system" in entry:
        system = system_from_dict(entry["system"])
        effective = dict(options)
        definition = registry.get(test)
        if definition.option("cores") is not None and "cores" not in effective:
            # The platform already says how many cores there are.
            effective["cores"] = system.platform.cores
        return system.tasks, effective
    raise ApiError(400, "each request needs a 'taskset' or 'system' document")


def requests_from_document(
    document: Any, registry: Optional[TestRegistry] = None
) -> List[AnalysisRequest]:
    """Turn a POST /v1/jobs body into engine requests (see module docs).

    Raises :class:`ApiError` (400) on malformed documents; test-name and
    option validation happens later, at submit time.
    """
    registry = registry if registry is not None else default_registry()
    if not isinstance(document, dict):
        raise ApiError(400, "the request body must be a JSON object")
    test = document.get("test", "all-approx")
    if not isinstance(test, str):
        raise ApiError(400, "'test' must be a string")
    options = document.get("options", {})
    if not isinstance(options, dict):
        raise ApiError(400, "'options' must be an object")

    entries: List[Dict[str, Any]] = []
    exclusive = [
        key
        for key in ("taskset", "tasksets", "system", "systems", "requests")
        if key in document
    ]
    if len(exclusive) != 1:
        raise ApiError(
            400,
            "the body must carry exactly one of 'taskset', 'tasksets', "
            "'system', 'systems' or 'requests'",
        )
    key = exclusive[0]
    if key == "taskset":
        entries = [{"taskset": document["taskset"], "test": test, "options": options}]
    elif key == "system":
        entries = [{"system": document["system"], "test": test, "options": options}]
    elif key in ("tasksets", "systems"):
        docs = document[key]
        if not isinstance(docs, list) or not docs:
            raise ApiError(400, f"'{key}' must be a non-empty list")
        singular = key[:-1]
        entries = [{singular: d, "test": test, "options": options} for d in docs]
    else:  # requests
        raw = document["requests"]
        if not isinstance(raw, list) or not raw:
            raise ApiError(400, "'requests' must be a non-empty list")
        for item in raw:
            if not isinstance(item, dict):
                raise ApiError(400, "each request must be an object")
            entries.append(
                {
                    **{k: item[k] for k in ("taskset", "system") if k in item},
                    "test": item.get("test", test),
                    "options": item.get("options", options),
                }
            )

    requests: List[AnalysisRequest] = []
    for index, entry in enumerate(entries):
        entry_test = entry["test"]
        entry_options = entry["options"]
        if not isinstance(entry_test, str):
            raise ApiError(400, "'test' must be a string")
        if not isinstance(entry_options, dict):
            raise ApiError(400, "'options' must be an object")
        try:
            source, effective = _source_from_entry(
                entry, entry_test, entry_options, registry
            )
        except ModelError as err:
            raise ApiError(400, f"request {index}: {err}") from None
        except ValueError as err:
            raise ApiError(400, f"request {index}: {err}") from None
        requests.append(
            AnalysisRequest(
                source=source, test=entry_test, options=effective, tag=index
            )
        )
    return requests


# ----------------------------------------------------------------------
# Telemetry GETs (shared by the analysis server and fleet workers)
# ----------------------------------------------------------------------


def _query(handler: "_Handler") -> Dict[str, List[str]]:
    return parse_qs(urlsplit(handler.path).query)


def _query_int(
    query: Dict[str, List[str]], key: str, default: int, minimum: int
) -> int:
    """One integer query parameter; a 400 unless it is ``>= minimum``."""
    if key not in query:
        return default
    try:
        value = int(query[key][0])
    except ValueError:
        value = minimum - 1
    if value < minimum:
        raise ApiError(400, f"'{key}' must be an integer >= {minimum}")
    return value


def _cursor_page(query: Dict[str, List[str]]) -> Tuple[int, int]:
    """``(since, limit)`` of a cursor page.  A huge ``limit`` is clamped
    rather than refused: the cursor protocol keeps the client correct
    either way, the server just pages."""
    since = _query_int(query, "since", 0, 0)
    return since, min(_query_int(query, "limit", 500, 1), _MAX_PAGE_LIMIT)


def _events_page(log: EventLog, since: int, limit: int) -> Dict[str, Any]:
    events, next_cursor = log.since(since, limit=limit)
    return {
        "since": since,
        "next": next_cursor,
        "events": [event.to_dict() for event in events],
    }


def _spans_page(log: SpanLog, since: int, limit: int) -> Dict[str, Any]:
    records, next_cursor = log.since(since, limit=limit)
    return {"since": since, "next": next_cursor, "spans": records}


def is_telemetry_path(path: str) -> bool:
    """Whether :func:`serve_telemetry` answers a GET of *path* (a string
    test: no query is parsed)."""
    return path in _TELEMETRY_PATHS or path.startswith("/v1/traces/")


def serve_telemetry(
    handler: "_Handler", path: str, scraped: Optional[SpanLog] = None
) -> bool:
    """Answer a GET of this process's own telemetry; ``False`` → 404.

    ``/v1/metrics`` (Prometheus text, ``?format=json`` or
    ``?format=state``), the ``/v1/events`` and ``/v1/traces?since=``
    cursor pages, the ``/v1/traces`` listing and ``/v1/traces/{id}``.
    The analysis server and fleet workers both serve these GETs here.
    *scraped* is a coordinator's log of scraped worker spans: a trace
    lookup joins that trace's scraped spans to this process's own
    (:func:`~repro.obs.join_spans`, one record per span).
    """
    query = _query(handler)
    if path == "/v1/metrics":
        fmt = (query.get("format") or ["text"])[0]
        if fmt == "json":
            handler._send_json(200, {"metrics": _obs_registry().snapshot()})
        elif fmt == "state":
            # The raw merge document (export_state): what a scraper
            # pulls to fold this process into a fleet view.
            handler._send_json(200, {"state": _obs_registry().export_state()})
        elif fmt == "text":
            handler._send_text(200, _obs_registry().exposition(), _EXPOSITION)
        else:
            raise ApiError(400, f"unknown metrics format {fmt!r}")
        return True
    if path == "/v1/events":
        handler._send_json(200, _events_page(event_log(), *_cursor_page(query)))
        return True
    if path == "/v1/traces":
        if "since" in query:
            # Cursor mode (what a fleet scraper pulls): raw span records
            # from an absolute sequence cursor, oldest first.
            page = _spans_page(span_log(), *_cursor_page(query))
        else:
            limit = min(_query_int(query, "limit", 50, 1), _MAX_PAGE_LIMIT)
            page = {"traces": span_log().trace_summaries(limit=limit)}
        handler._send_json(200, page)
        return True
    trace_id = path[len("/v1/traces/") :]
    if "/" in trace_id:
        return False
    spans = span_log().for_trace(trace_id)
    if scraped is not None:
        spans = join_spans(spans, scraped.for_trace(trace_id))
    if not spans:
        raise ApiError(404, f"unknown trace {trace_id!r}")
    handler._send_json(200, {"trace": trace_id, "spans": spans})
    return True


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the server's ``service``: an
    :class:`AnalysisServer` or a :class:`~repro.fleet.worker.FleetWorker`,
    whose ``handle(handler, method, path)`` answers the request (raising
    :class:`ApiError` for an error status) or returns ``False`` for a
    404."""

    server_version = f"repro-edf/{__version__}"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        if not getattr(self.server, "quiet", True):  # pragma: no cover
            super().log_message(format, *args)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(
        self, status: int, body: str, content_type: str = "text/plain"
    ) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _read_json(self) -> Any:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        if not 0 < length <= _MAX_BODY:
            # The body stays unread, so the connection cannot be reused.
            self.close_connection = True
            if length > _MAX_BODY:
                raise ApiError(413, "request body too large")
            raise ApiError(
                400, "a JSON request body with a valid Content-Length is required"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as err:
            raise ApiError(400, f"invalid JSON body: {err}") from None

    def _route(self, method: str) -> None:
        service: "AnalysisServer" = self.server.service  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0].rstrip("/")
        try:
            handled = service.handle(self, method, path)
        except ApiError as err:
            self._send_json(err.status, {"error": str(err)})
            return
        except BrokenPipeError:  # pragma: no cover - client went away
            return
        except Exception as err:  # pragma: no cover - defensive
            self._send_json(500, {"error": f"{type(err).__name__}: {err}"})
            return
        if not handled:
            self._send_json(404, {"error": f"no such endpoint: {method} {path}"})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._route("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._route("DELETE")


class AnalysisServer:
    """The composed analysis service: store + queue + HTTP front end.

    Args:
        host/port: bind address; port ``0`` picks an ephemeral port
            (read it back from :attr:`port` / :attr:`url`).
        store: a :class:`ResultStore`, a path to create one at, or
            ``None`` to run without persistence.
        workers: concurrent jobs (queue worker threads).
        shard_size: per-shard request count (progress/cancel granularity).
        runner: optional :class:`BatchRunner` override for shard
            execution (e.g. multi-process fan-out).
        quiet: suppress per-request access logging (default).
        sampler_interval: seconds between resource samples feeding the
            ``repro_process_*`` gauges; ``None`` disables the sampler.
        journal: optional path for the append-only JSONL event journal
            (size-capped rotation); detached again on :meth:`close`.
        span_journal: optional path for the finished-span JSONL journal
            (same rotation machinery); detached again on :meth:`close`.

    The server installs its store as the engine's persistent context
    backend for its lifetime (restored on :meth:`close`), so even
    analyses running outside the queue in this process benefit from
    rehydrated preflight state.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        store: Union[ResultStore, str, Path, None] = None,
        workers: int = 1,
        shard_size: int = 32,
        runner: Optional[BatchRunner] = None,
        registry: Optional[TestRegistry] = None,
        max_rows: Optional[int] = 100_000,
        quiet: bool = True,
        sampler_interval: Optional[float] = 5.0,
        journal: Union[str, Path, None] = None,
        span_journal: Union[str, Path, None] = None,
        coordinator: Optional["Coordinator"] = None,
    ) -> None:
        if isinstance(store, (str, Path)):
            store = ResultStore(store, max_rows=max_rows)
            self._owns_store = True
        else:
            self._owns_store = False
        self.store = store
        self.registry = registry if registry is not None else default_registry()
        # Fleet mode: campaign shards route through the coordinator
        # (which starts its heartbeat monitor here and is closed with
        # the server) unless the caller supplied an explicit runner.
        self.coordinator = coordinator
        if coordinator is not None:
            # Imported here, not at module top: repro.fleet imports
            # repro.service.client, so a top-level import would cycle
            # through the package __init__s.
            from ..fleet.coordinator import FleetRunner

            coordinator.start()
            if runner is None:
                runner = FleetRunner(coordinator)  # type: ignore[assignment]
        self.queue = JobQueue(
            store=store,
            workers=workers,
            shard_size=shard_size,
            runner=runner,
            registry=self.registry,
        )
        self.sessions = AdmissionSessionManager()
        self._previous_backend = (
            set_context_backend(store) if store is not None else None
        )
        self._backend_installed = store is not None
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.service = self  # type: ignore[attr-defined]
        self.httpd.quiet = quiet  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None
        self._closed = False
        self._sampler: Optional[ResourceSampler] = None
        if sampler_interval is not None:
            self._sampler = ResourceSampler(interval=sampler_interval).start()
        self._journal_attached = False
        if journal is not None:
            event_log().attach_journal(str(journal))
            self._journal_attached = True
        self._span_journal_attached = False
        if span_journal is not None:
            span_log().attach_journal(str(span_journal))
            self._span_journal_attached = True

    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`close` (or Ctrl-C)."""
        self.httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "AnalysisServer":
        """Serve on a background thread (tests, examples, embedding)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever, name="repro-http", daemon=True
            )
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving, stop the workers, release the store."""
        if self._closed:
            return
        self._closed = True
        if self._sampler is not None:
            self._sampler.stop()
            self._sampler = None
        if self._journal_attached:
            event_log().detach_journal()
            self._journal_attached = False
        if self._span_journal_attached:
            span_log().detach_journal()
            self._span_journal_attached = False
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.queue.shutdown()
        if self.coordinator is not None:
            self.coordinator.close()
        if self._backend_installed:
            set_context_backend(self._previous_backend)
            self._backend_installed = False
        if self._owns_store and self.store is not None:
            self.store.close()

    def __enter__(self) -> "AnalysisServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Routing (returns False for 404)
    # ------------------------------------------------------------------

    @staticmethod
    def _endpoint_of(path: str) -> str:
        """Coarse endpoint label: the first two path segments, so job
        and session ids never explode the series cardinality."""
        parts = [p for p in path.split("/") if p]
        return "/" + "/".join(parts[:2])

    def handle(self, handler: _Handler, method: str, path: str) -> bool:
        endpoint = self._endpoint_of(path)
        _HTTP_REQUESTS.labels(method, endpoint).inc()
        # Continue the caller's trace (traceparent header) — or originate
        # one — and parent everything this request does, including the
        # queue.job span of any job it submits, under http.request.
        with _obs_continue_trace(handler.headers.get("traceparent")):
            with _obs_span("http.request", method=method, endpoint=endpoint):
                return self._handle_routed(handler, method, path)

    def _handle_routed(
        self, handler: _Handler, method: str, path: str
    ) -> bool:
        if method == "GET" and is_telemetry_path(path):
            scraped = (
                None
                if self.coordinator is None
                else self.coordinator.telemetry.spans
            )
            return serve_telemetry(handler, path, scraped)
        if method == "GET" and path == "/v1/health":
            handler._send_json(
                200,
                {
                    "ok": True,
                    "version": __version__,
                    "store": self.store is not None,
                },
            )
            return True
        if method == "GET" and path == "/v1/tests":
            handler._send_json(200, {"tests": self._describe_tests()})
            return True
        if method == "GET" and path == "/v1/cache-stats":
            handler._send_json(200, self.cache_stats())
            return True
        if path == "/v1/jobs" and method == "POST":
            document = handler._read_json()
            requests = requests_from_document(document, self.registry)
            priority = document.get("priority", 0)
            profile = document.get("profile", False)
            if not isinstance(profile, bool):
                raise ApiError(400, "'profile' must be a boolean")
            try:
                job_id = self.queue.submit(
                    requests, priority=priority, profile=profile
                )
            except ValueError as err:
                raise ApiError(400, str(err)) from None
            handler._send_json(202, self.queue.status(job_id))
            return True
        if path == "/v1/jobs" and method == "GET":
            handler._send_json(200, {"jobs": self.queue.list_jobs()})
            return True
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/") :]
            parts = rest.split("/")
            job_id = parts[0]
            try:
                if len(parts) == 1 and method == "GET":
                    handler._send_json(200, self.queue.status(job_id))
                    return True
                if len(parts) == 1 and method == "DELETE":
                    handler._send_json(200, self.queue.cancel(job_id))
                    return True
                if len(parts) == 2 and parts[1] == "result" and method == "GET":
                    handler._send_json(200, self._job_results(job_id))
                    return True
            except KeyError:
                raise ApiError(404, f"unknown job {job_id!r}") from None
        if path.startswith("/v1/fleet/"):
            return self._handle_fleet(handler, method, path)
        if path == "/v1/admission" and method == "POST":
            handler._send_json(
                201, self._create_session(handler._read_json())
            )
            return True
        if path == "/v1/admission" and method == "GET":
            handler._send_json(200, {"sessions": self.sessions.list_sessions()})
            return True
        if path.startswith("/v1/admission/"):
            rest = path[len("/v1/admission/") :]
            parts = rest.split("/")
            session_id = parts[0]
            try:
                if len(parts) == 1 and method == "GET":
                    handler._send_json(
                        200, self.sessions.get(session_id).snapshot()
                    )
                    return True
                if len(parts) == 1 and method == "DELETE":
                    handler._send_json(200, self.sessions.close(session_id))
                    return True
                if len(parts) == 2 and parts[1] == "events" and method == "POST":
                    handler._send_json(
                        200,
                        self._apply_events(session_id, handler._read_json()),
                    )
                    return True
                if (
                    len(parts) == 2
                    and parts[1] == "decisions"
                    and method == "GET"
                ):
                    handler._send_json(
                        200, self._decision_log(session_id, handler)
                    )
                    return True
            except KeyError:
                raise ApiError(
                    404, f"unknown session {session_id!r}"
                ) from None
        return False

    # ------------------------------------------------------------------
    # Fleet endpoints
    # ------------------------------------------------------------------

    def _require_fleet(self) -> None:
        if self.coordinator is None:
            raise ApiError(
                501,
                "fleet mode is not enabled on this server "
                "(start it with `repro fleet coordinate`)",
            )

    def _send_fleet_metrics(self, handler: _Handler) -> None:
        inflight = self.coordinator.inflight_counts()
        fmt = (_query(handler).get("format") or ["text"])[0]
        if fmt == "json":
            handler._send_json(
                200,
                {"metrics": self.coordinator.telemetry.metrics_snapshot(inflight)},
            )
            return
        if fmt != "text":
            raise ApiError(400, f"unknown metrics format {fmt!r}")
        handler._send_text(
            200, self.coordinator.telemetry.exposition(inflight), _EXPOSITION
        )

    def _handle_fleet(
        self, handler: _Handler, method: str, path: str
    ) -> bool:
        self._require_fleet()
        telemetry = self.coordinator.telemetry
        if method == "GET" and path == "/v1/fleet/workers":
            handler._send_json(200, self.coordinator.snapshot())
            return True
        if method == "GET" and path == "/v1/fleet/metrics":
            self._send_fleet_metrics(handler)
            return True
        if method == "GET" and path == "/v1/fleet/events":
            page = _cursor_page(_query(handler))
            handler._send_json(200, _events_page(telemetry.events, *page))
            return True
        if method == "GET" and path == "/v1/fleet/traces":
            page = _cursor_page(_query(handler))
            handler._send_json(200, _spans_page(telemetry.spans, *page))
            return True
        if method != "POST":
            return False
        if path == "/v1/fleet/register":
            document = handler._read_json()
            worker_id = document.get("worker")
            url = document.get("url")
            if not isinstance(worker_id, str) or not worker_id:
                raise ApiError(400, "'worker' must be a non-empty string")
            if not isinstance(url, str) or not url.startswith("http"):
                raise ApiError(400, "'url' must be an http(s) URL")
            handler._send_json(200, self.coordinator.register(worker_id, url))
            return True
        if path == "/v1/fleet/heartbeat":
            document = handler._read_json()
            worker_id = document.get("worker")
            if not isinstance(worker_id, str) or not worker_id:
                raise ApiError(400, "'worker' must be a non-empty string")
            if not self.coordinator.heartbeat(worker_id):
                raise ApiError(404, f"unknown worker {worker_id!r}")
            handler._send_json(200, {"ok": True, "worker": worker_id})
            return True
        if path == "/v1/fleet/deregister":
            document = handler._read_json()
            worker_id = document.get("worker")
            if not isinstance(worker_id, str) or not worker_id:
                raise ApiError(400, "'worker' must be a non-empty string")
            left = self.coordinator.deregister(worker_id)
            handler._send_json(200, {"ok": True, "left": left})
            return True
        return False

    # ------------------------------------------------------------------

    def _describe_tests(self) -> List[Dict[str, Any]]:
        described = []
        for definition in self.registry.definitions():
            options = []
            for spec in definition.options:
                options.append(
                    {
                        "name": spec.name,
                        "required": spec.required,
                        "default": None if spec.required else encode_value(spec.default),
                        "choices": list(spec.choices) if spec.choices else None,
                        "help": spec.help,
                    }
                )
            described.append(
                {
                    "name": definition.name,
                    "kind": definition.kind.value,
                    "summary": definition.summary,
                    "options": options,
                }
            )
        return described

    def _job_results(self, job_id: str) -> Dict[str, Any]:
        job = self.queue.get(job_id)
        snapshot = self.queue.status(job_id)
        if job.state != "done":
            raise ApiError(
                409, f"job {job_id!r} has no results yet (state: {job.state})"
            )
        snapshot["results"] = [
            {
                "tag": request.tag,
                "test": request.test,
                **result_to_dict(result),
            }
            for request, result in zip(job.requests, job.results)
            if result is not None
        ]
        if job.profile:
            snapshot["profile"] = job.profile_report
        return snapshot

    def _create_session(self, document: Any) -> Dict[str, Any]:
        if not isinstance(document, dict):
            raise ApiError(400, "the request body must be a JSON object")
        epsilon: Any = document.get("epsilon", "1/10")
        if epsilon is not None:
            try:
                epsilon = Fraction(str(epsilon))
            except (ValueError, ZeroDivisionError):
                raise ApiError(
                    400, f"invalid epsilon {document.get('epsilon')!r}"
                ) from None
        initial: Any = ()
        if "taskset" in document:
            try:
                initial = taskset_from_dict(document["taskset"])
            except ModelError as err:
                raise ApiError(400, str(err)) from None
        name = document.get("name", "")
        if not isinstance(name, str):
            raise ApiError(400, "'name' must be a string")
        try:
            session = self.sessions.create(
                initial=initial, epsilon=epsilon, name=name
            )
        except (ModelError, ValueError) as err:
            raise ApiError(400, str(err)) from None
        return session.snapshot()

    def _apply_events(self, session_id: str, document: Any) -> Dict[str, Any]:
        session = self.sessions.get(session_id)
        try:
            events = events_from_document(document)
        except ModelError as err:
            raise ApiError(400, str(err)) from None
        decisions = []
        for index, event in enumerate(events):
            try:
                decisions.append(session.apply(event))
            except ModelError as err:
                # Events apply one at a time; say how far the batch got
                # so the client knows what state it just mutated.
                raise ApiError(
                    400,
                    f"event {index}: {err} (the {index} earlier event(s) of "
                    "this batch were applied; see the decisions log)",
                ) from None
        return {"session": session.id, "decisions": decisions}

    def _decision_log(self, session_id: str, handler: _Handler) -> Dict[str, Any]:
        session = self.sessions.get(session_id)
        since = _query_int(_query(handler), "since", 0, 0)
        decisions = session.log(since)
        # 'next' is the absolute cursor for the following poll; indices
        # are absolute and survive log pruning, so derive it from the
        # last returned decision rather than from page length.
        next_cursor = decisions[-1]["index"] + 1 if decisions else since
        return {
            "session": session.id,
            "since": since,
            "next": next_cursor,
            "decisions": decisions,
        }

    def cache_stats(self) -> Dict[str, Any]:
        """Context LRU, store, queue, and session counters in one document."""
        return {
            "context": context_cache_info(),
            "store": self.store.stats() if self.store is not None else None,
            "queue": self.queue.stats(),
            "admission": self.sessions.stats(),
            "fleet": (
                None
                if self.coordinator is None
                else {
                    "workers": len(self.coordinator.workers),
                    "alive": self.coordinator.workers.alive_ids(),
                    "dead_letters": len(self.coordinator.dead_letters),
                }
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AnalysisServer(url={self.url!r}, store={self.store!r})"
