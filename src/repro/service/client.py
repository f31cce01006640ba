"""HTTP client for the analysis service.

:class:`ServiceClient` wraps the JSON API in typed helpers so callers
never hand-build request documents: submit a :class:`~repro.model.
taskset.TaskSet` (or many), poll status, fetch decoded
:class:`~repro.result.FeasibilityResult` objects back.  Errors come
back as :class:`ServiceError` carrying the HTTP status and the server's
``error`` string.

The transport is :mod:`http.client` with HTTP/1.1 keep-alive: a client
keeps a few idle connections to its server and sends each request on
one of them, so a fleet coordinator's shards, a scraper's pages and a
CLI's polls do not each pay a TCP handshake and a new server thread.
:meth:`ServiceClient.close` closes them.  Proxy settings in the
environment (``http_proxy`` and friends) are not read: the client
always talks to ``base_url`` directly.
"""

from __future__ import annotations

import http.client
import json
import random
import select
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence
from urllib.parse import urlsplit

from ..model.serialization import result_from_dict, taskset_to_dict
from ..model.taskset import TaskSet
from ..obs import (
    current_traceparent,
    format_traceparent,
    new_span_id,
    new_trace_id,
)
from ..result import FeasibilityResult
from .jobs import JobState

__all__ = ["ServiceClient", "ServiceError", "TransientServiceError"]

# HTTP statuses that signal a momentarily-overloaded or restarting
# server rather than a caller mistake.
_TRANSIENT_STATUSES = frozenset({502, 503})
#: Idle connections a client keeps; more concurrent requests than this
#: still run, and the extra connections close once answered.
_MAX_IDLE = 4


def _readable(sock: socket.socket) -> bool:
    """Whether *sock* has input (or EOF) waiting.  An idle keep-alive
    connection that does was closed by the server, or carries bytes no
    request asked for: either way it cannot carry the next request."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])  # pragma: no cover


class ServiceError(Exception):
    """An HTTP-level or API-level failure talking to the service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"[{status}] {message}")
        self.status = status
        self.message = message


class TransientServiceError(ServiceError):
    """A failure worth retrying: the request may never have reached the
    server (connection refused/reset, timeout) or the server refused it
    momentarily (HTTP 502/503).

    ``reason`` classifies the flavour for callers with different
    policies per failure mode (the fleet coordinator treats
    ``"unreachable"`` as worker death but ``"timeout"``/``"http"`` as a
    retriable shard failure):

    * ``"unreachable"`` — connection-level failure; the peer is gone.
    * ``"timeout"`` — the socket deadline elapsed mid-request.
    * ``"http"`` — the server answered 502/503.
    """

    def __init__(self, status: int, message: str, reason: str = "http") -> None:
        super().__init__(status, message)
        self.reason = reason


class ServiceClient:
    """Talk to a running :class:`~repro.service.api.AnalysisServer`.

    Idempotent GETs retry transient transport failures automatically
    with capped exponential backoff and jitter; non-idempotent methods
    (POST/DELETE) never retry — they surface a typed
    :class:`TransientServiceError` so callers can apply their own
    policy (the request may have executed server-side).

    Requests reuse kept-alive connections (see the module docstring).
    A connection goes back to the pool only after a complete response
    the server did not mark ``Connection: close``; any failure closes
    it, so a response that arrives after its request timed out is
    never read as the answer to a later request.  Redirects are not
    followed: a 3xx is a :class:`ServiceError` like a 4xx.

    Args:
        base_url: e.g. ``http://127.0.0.1:8787`` (trailing slash ok);
            ``https://`` URLs verify the server's certificate.
        timeout: per-request socket timeout in seconds.
        retries: total attempts for idempotent GETs (1 disables retry).
        retry_base / retry_cap: backoff delay for attempt *n* is
            ``min(cap, base * 2^(n-1))`` seconds.
        retry_jitter: each delay is scaled by a uniform ``±jitter``
            fraction so synchronized clients do not stampede.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        retries: int = 3,
        retry_base: float = 0.1,
        retry_cap: float = 2.0,
        retry_jitter: float = 0.25,
    ) -> None:
        if retries < 1:
            raise ValueError(f"retries must be >= 1, got {retries}")
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or not parts.netloc:
            raise ValueError(f"not an http(s) URL: {base_url!r}")
        self._netloc = parts.netloc
        self._path = parts.path
        self._connection_class = (
            http.client.HTTPSConnection
            if parts.scheme == "https"
            else http.client.HTTPConnection
        )
        self.timeout = timeout
        self.retries = retries
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        self.retry_jitter = retry_jitter
        self._rng = random.Random()
        self._lock = threading.Lock()  # guards the two fields below
        self._idle: List[http.client.HTTPConnection] = []
        self._closed = False

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _checkout(self) -> http.client.HTTPConnection:
        """An idle pooled connection the server has not closed, or a new
        (not yet connected) one."""
        while True:
            with self._lock:
                if not self._idle:
                    break
                connection = self._idle.pop()
            if not _readable(connection.sock):
                return connection
            connection.close()
        return self._connection_class(self._netloc, timeout=self.timeout)

    def _release(
        self, connection: http.client.HTTPConnection, reusable: bool
    ) -> None:
        with self._lock:
            if reusable and not self._closed and len(self._idle) < _MAX_IDLE:
                self._idle.append(connection)
                return
        connection.close()

    def close(self) -> None:
        """Close the idle connections.  A request in flight on another
        thread closes its connection once answered; requests made after
        this open a connection each and close it again."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _request_once(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> str:
        url = f"{self.base_url}{path}"
        body = None
        headers = {"Accept": "application/json"}
        # Propagate the caller's trace — or originate one per request —
        # so the server's spans (HTTP → queue → engine → kernel) hang
        # off the invoking CLI/application context.
        traceparent = current_traceparent()
        if traceparent is None:
            traceparent = format_traceparent(new_trace_id(), new_span_id())
        headers["traceparent"] = traceparent
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._checkout()
        reusable = False
        try:
            connection.request(method, self._path + path, body, headers)
            response = connection.getresponse()
            data = response.read()
            reusable = not response.will_close
        except (TimeoutError, socket.timeout):
            raise TransientServiceError(
                0, f"timed out talking to {url}", reason="timeout"
            ) from None
        except http.client.InvalidURL as err:  # e.g. a space in a path id
            raise ValueError(str(err)) from None
        except (OSError, http.client.HTTPException) as err:
            # Refused, reset, or closed before a whole response arrived.
            raise TransientServiceError(
                0, f"cannot reach {url}: {err}", reason="unreachable"
            ) from None
        finally:
            self._release(connection, reusable)
        if response.status < 300:
            return data.decode("utf-8")
        detail = data.decode("utf-8", errors="replace")
        try:
            message = json.loads(detail).get("error", detail)
        except ValueError:
            message = detail or response.reason
        if response.status in _TRANSIENT_STATUSES:
            raise TransientServiceError(response.status, message, reason="http")
        raise ServiceError(response.status, message)

    def _request_text(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> str:
        # Only GETs are idempotent by construction in this API; a
        # retried POST could double-submit a job, so non-GETs make
        # exactly one attempt and surface TransientServiceError.
        attempts = self.retries if method == "GET" else 1
        for attempt in range(1, attempts + 1):
            try:
                return self._request_once(method, path, payload)
            except TransientServiceError:
                if attempt == attempts:
                    raise
                delay = min(
                    self.retry_cap, self.retry_base * (2 ** (attempt - 1))
                )
                delay *= 1.0 + self.retry_jitter * self._rng.uniform(-1.0, 1.0)
                time.sleep(max(delay, 0.0))
        raise AssertionError("unreachable")  # pragma: no cover

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        body = self._request_text(method, path, payload)
        try:
            return json.loads(body)
        except ValueError as err:
            raise ServiceError(
                0, f"non-JSON response from {self.base_url}{path}: {err}"
            ) from None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/health")

    def tests(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/tests")["tests"]

    def cache_stats(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/cache-stats")

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        """The server's metrics registry as a JSON snapshot
        (``{"metrics": {name: {type, help, series}}}``)."""
        return self._request("GET", "/v1/metrics?format=json")

    def metrics_text(self) -> str:
        """The raw Prometheus text exposition (format 0.0.4)."""
        return self._request_text("GET", "/v1/metrics")

    def metrics_state(self) -> Dict[str, Any]:
        """The raw ``export_state`` merge document of the peer's
        registry — what a fleet scraper pulls to fold one process into
        the aggregated view."""
        return self._request("GET", "/v1/metrics?format=state")["state"]

    def events(self, since: int = 0, limit: int = 500) -> Dict[str, Any]:
        """Structured events from ring-buffer cursor *since* — poll
        with the returned ``next`` cursor to stream events."""
        return self._request(
            "GET", f"/v1/events?since={since}&limit={limit}"
        )

    def spans(self, since: int = 0, limit: int = 500) -> Dict[str, Any]:
        """Raw span records from absolute cursor *since* (oldest first)
        — the scraper-side counterpart of :meth:`events`."""
        return self._request(
            "GET", f"/v1/traces?since={since}&limit={limit}"
        )

    def traces(self, limit: int = 50) -> List[Dict[str, Any]]:
        """Newest-first per-trace span rollups retained by the server."""
        return self._request("GET", f"/v1/traces?limit={limit}")["traces"]

    def trace(self, trace_id: str) -> List[Dict[str, Any]]:
        """Every retained span of one trace (404 → :class:`ServiceError`)."""
        return self._request("GET", f"/v1/traces/{trace_id}")["spans"]

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------

    def submit_document(self, document: Dict[str, Any]) -> Dict[str, Any]:
        """Submit a raw POST /v1/jobs body; returns the job snapshot."""
        return self._request("POST", "/v1/jobs", document)

    def submit(
        self,
        tasksets: Sequence[TaskSet],
        test: str = "all-approx",
        priority: int = 0,
        profile: bool = False,
        **options: Any,
    ) -> str:
        """Submit one job over *tasksets*; returns the job id.

        *profile* opts the job into the server-side span profiler: the
        result document gains a per-stage ``profile`` breakdown.
        """
        return self._submit(tasksets, test, priority, profile, **options)["job"]

    def _submit(
        self,
        tasksets: Sequence[TaskSet],
        test: str = "all-approx",
        priority: int = 0,
        profile: bool = False,
        **options: Any,
    ) -> Dict[str, Any]:
        """:meth:`submit`, returning the POST's job snapshot."""
        sets = list(tasksets)
        if not sets:
            raise ValueError("submit needs at least one task set")
        document: Dict[str, Any] = {"test": test, "options": options}
        if priority:
            document["priority"] = priority
        if profile:
            document["profile"] = True
        if len(sets) == 1:
            document["taskset"] = taskset_to_dict(sets[0])
        else:
            document["tasksets"] = [taskset_to_dict(ts) for ts in sets]
        return self.submit_document(document)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/v1/jobs/{job_id}")

    def raw_results(self, job_id: str) -> Dict[str, Any]:
        """The full result document (snapshot + per-request results)."""
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def results(self, job_id: str) -> List[FeasibilityResult]:
        """Decoded results of a finished job, in request order."""
        return [
            result_from_dict(entry)
            for entry in self.raw_results(job_id)["results"]
        ]

    def wait(
        self,
        job_id: str,
        timeout: float = 60.0,
        poll: float = 0.05,
        max_poll: float = 2.0,
        backoff: float = 1.6,
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state.

        Polling uses capped exponential backoff: the first sleep is
        *poll* seconds, each subsequent one *backoff* times longer, up
        to *max_poll* — short jobs return promptly while long campaigns
        stop hammering the server.  The final sleep is clipped so the
        *timeout* deadline is observed exactly.

        Returns the final snapshot; raises :class:`TimeoutError` if the
        job is still queued/running after *timeout* seconds.
        """
        if backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {backoff}")
        deadline = time.monotonic() + timeout
        delay = poll
        while True:
            snapshot = self.status(job_id)
            if snapshot["state"] in JobState.TERMINAL:
                return snapshot
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still {snapshot['state']} after {timeout}s"
                )
            time.sleep(min(delay, remaining))
            delay = min(delay * backoff, max_poll)

    def run(
        self,
        tasksets: Sequence[TaskSet],
        test: str = "all-approx",
        timeout: float = 60.0,
        **options: Any,
    ) -> List[FeasibilityResult]:
        """Submit, wait, fetch — the synchronous convenience path.  A
        job the server finished within its POST is fetched at once."""
        snapshot = self._submit(tasksets, test, **options)
        job_id = snapshot["job"]
        if snapshot["state"] not in JobState.TERMINAL:
            snapshot = self.wait(job_id, timeout=timeout)
        if snapshot["state"] != "done":
            raise ServiceError(
                0,
                f"job {job_id} ended {snapshot['state']}: "
                f"{snapshot.get('error') or 'no detail'}",
            )
        return self.results(job_id)

    # ------------------------------------------------------------------
    # Fleet
    # ------------------------------------------------------------------

    def fleet_register(self, worker_id: str, url: str) -> Dict[str, Any]:
        """Register a fleet worker with its coordinator."""
        return self._request(
            "POST", "/v1/fleet/register", {"worker": worker_id, "url": url}
        )

    def fleet_heartbeat(self, worker_id: str) -> bool:
        """Send one heartbeat; ``False`` means the coordinator does not
        know this worker (it should re-register)."""
        try:
            self._request("POST", "/v1/fleet/heartbeat", {"worker": worker_id})
        except ServiceError as err:
            if err.status == 404:
                return False
            raise
        return True

    def fleet_deregister(self, worker_id: str) -> Dict[str, Any]:
        """Gracefully remove a worker from the fleet."""
        return self._request(
            "POST", "/v1/fleet/deregister", {"worker": worker_id}
        )

    def fleet_workers(self) -> Dict[str, Any]:
        """The coordinator's membership snapshot (workers, config,
        dead-letter records)."""
        return self._request("GET", "/v1/fleet/workers")

    def fleet_metrics(self) -> Dict[str, Any]:
        """The fleet-aggregated metrics view as a JSON snapshot
        (per-worker ``worker=`` labeled series plus scrape rollups)."""
        return self._request("GET", "/v1/fleet/metrics?format=json")["metrics"]

    def fleet_metrics_text(self) -> str:
        """The fleet-aggregated Prometheus text exposition."""
        return self._request_text("GET", "/v1/fleet/metrics")

    def fleet_events(self, since: int = 0, limit: int = 500) -> Dict[str, Any]:
        """Merged worker events (``worker=`` provenance) from cursor
        *since* — poll with the returned ``next`` cursor to follow."""
        return self._request(
            "GET", f"/v1/fleet/events?since={since}&limit={limit}"
        )

    def fleet_shard(self, document: Dict[str, Any]) -> Dict[str, Any]:
        """Execute one shard on a *worker* (``base_url`` must point at
        the worker, not the coordinator).  Never retried here — the
        coordinator owns shard retry policy."""
        return self._request("POST", "/v1/fleet/shard", document)

    # ------------------------------------------------------------------
    # Admission sessions
    # ------------------------------------------------------------------

    def create_admission_session(
        self, taskset: Optional[TaskSet] = None, name: str = ""
    ) -> str:
        """Create an admission session; returns its id."""
        document: Dict[str, Any] = {"name": name}
        if taskset is not None:
            document["taskset"] = taskset_to_dict(taskset)
        return self._request("POST", "/v1/admission", document)["session"]

    def admission_sessions(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/admission")["sessions"]

    def admission_stats(self, session_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/admission/{session_id}")

    def admission_events(
        self, session_id: str, events: Sequence[Any]
    ) -> List[Dict[str, Any]]:
        """POST trace events (``ArrivalEvent`` or ready-made trace-v1
        dicts); returns the per-event decision documents."""
        from ..model.serialization import event_to_dict

        encoded = [
            entry if isinstance(entry, dict) else event_to_dict(entry)
            for entry in events
        ]
        return self._request(
            "POST", f"/v1/admission/{session_id}/events", {"events": encoded}
        )["decisions"]

    def admission_decisions(
        self, session_id: str, since: int = 0
    ) -> Dict[str, Any]:
        """Decision log from *since* — poll with the returned ``next``
        cursor to stream decisions."""
        return self._request(
            "GET", f"/v1/admission/{session_id}/decisions?since={since}"
        )

    def close_admission_session(self, session_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/v1/admission/{session_id}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServiceClient(base_url={self.base_url!r})"
