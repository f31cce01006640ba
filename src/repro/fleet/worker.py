"""The fleet worker: a shard-execution HTTP server that heartbeats.

A :class:`FleetWorker` is one process of the analysis fleet.  It serves
through the analysis server's HTTP layer (:mod:`repro.service.api`'s
server class and handler, with the worker as its ``service``: kept-alive
connections, compact JSON, all connections cut on :meth:`close`) a
small surface —

* ``GET  /v1/health`` — liveness, identity, shard counters;
* ``GET  /v1/metrics|events|traces`` — this process's telemetry,
  answered by the same :func:`~repro.service.api.serve_telemetry` as
  on an analysis server.  The coordinator's
  :class:`~repro.fleet.telemetry.FleetScraper` pulls these on a cadence;
  it is the only channel carrying a worker's metrics, events and spans
  to the coordinator;
* ``POST /v1/fleet/shard`` — execute one shard synchronously and return
  its results —

With ``sampler_interval`` set, a :class:`~repro.obs.ResourceSampler`
thread keeps RSS/fd/CPU gauges fresh between shards so the fleet health
view sees an *idle* worker's footprint too.

The worker also runs two client loops against its coordinator:
registration (with retry, so workers may start before the coordinator)
and heartbeats on the configured interval.  A heartbeat answered with
404 means the coordinator forgot us (restart, eviction): the worker
silently re-registers and carries on.

Execution is deliberately boring: shards run through a fresh
``BatchRunner(jobs=1)`` in-process, so the worker's context/kernel LRUs
— the reason the coordinator routes same-fingerprint work here — warm
up exactly as a local engine's would.  Failure injection (see
:mod:`repro.fleet.faults`) wraps the execution path: crash, stall,
blackhole, and 503 faults all trigger *before* any result is produced,
which is what makes replays bit-identical.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from typing import Any, Dict, Optional

from .. import __version__
from ..engine.batch import AnalysisRequest, BatchRunner
from ..engine.registry import TestRegistry, default_registry
from ..model.serialization import result_to_dict
from ..obs import ResourceSampler
from ..obs import continue_trace as _obs_continue_trace
from ..obs import counter as _obs_counter
from ..obs import span as _obs_span
from ..service.api import (
    ApiError,
    _Handler,
    _HTTPServer,
    is_telemetry_path,
    serve_telemetry,
)
from ..service.client import ServiceClient, ServiceError
from .faults import FaultPlan
from .shards import entries_from_wire

__all__ = ["FleetWorker"]

_SHARDS_EXECUTED = _obs_counter(
    "repro_fleet_worker_shards_total",
    "Shards this worker settled, by outcome.",
    labelnames=("outcome",),
)


class FleetWorker:
    """One shard-executing member of the fleet (see module docstring).

    Args:
        coordinator_url: base URL of the coordinating
            :class:`~repro.service.api.AnalysisServer`.
        host/port: bind address of the worker's own HTTP server
            (port ``0`` picks an ephemeral port).
        worker_id: stable identity; defaults to ``w-<pid>-<random>``.
        heartbeat_interval: seconds between heartbeats; workers should
            use the interval the coordinator was configured with.
        faults: a :class:`FaultPlan` (defaults to the environment's
            ``REPRO_FLEET_FAULTS``, so subprocess chaos needs no flags).
        crash: what a ``crash-on-shard`` fault calls; ``os._exit`` by
            default (a *hard* death: no cleanup, no deregistration —
            exactly what the coordinator must survive).  In-process
            tests substitute something less terminal.
        registry: test registry for shard execution.
        advertise_host: hostname workers hand the coordinator in their
            registration URL (defaults to *host*; useful when binding
            ``0.0.0.0``).
        sampler_interval: when set, run a :class:`ResourceSampler`
            thread on this period so RSS/fd/CPU gauges stay fresh for
            the coordinator's scraper even between shards.
    """

    def __init__(
        self,
        coordinator_url: str,
        host: str = "127.0.0.1",
        port: int = 0,
        worker_id: Optional[str] = None,
        heartbeat_interval: float = 2.0,
        faults: Optional[FaultPlan] = None,
        crash: Any = None,
        registry: Optional[TestRegistry] = None,
        advertise_host: Optional[str] = None,
        quiet: bool = True,
        sampler_interval: Optional[float] = None,
    ) -> None:
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval}"
            )
        if sampler_interval is not None and sampler_interval <= 0:
            raise ValueError(
                f"sampler_interval must be > 0, got {sampler_interval}"
            )
        self.id = worker_id or f"w-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.coordinator_url = coordinator_url.rstrip("/")
        self.heartbeat_interval = heartbeat_interval
        self.faults = faults if faults is not None else FaultPlan.from_env()
        self._crash = crash if crash is not None else (lambda: os._exit(17))
        self._registry = registry if registry is not None else default_registry()
        self._runner = BatchRunner(jobs=1, registry=registry)
        self._client = ServiceClient(self.coordinator_url, timeout=10.0)
        self.httpd = _HTTPServer((host, port), self, quiet)
        self._advertise_host = advertise_host or self.httpd.server_address[0]
        self._thread: Optional[threading.Thread] = None
        self._beat_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._closed = False
        self._lock = threading.Lock()
        self._shard_counter = 0
        self._shards_done = 0
        self._beats_sent = 0
        self._registered = False
        self._scrape_counter = 0
        self._sampler: Optional[ResourceSampler] = None
        if sampler_interval is not None:
            self._sampler = ResourceSampler(interval=sampler_interval)

    # ------------------------------------------------------------------

    @property
    def url(self) -> str:
        return f"http://{self._advertise_host}:{self.httpd.server_address[1]}"

    def health(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "ok": True,
                "worker": self.id,
                "version": __version__,
                "shards_seen": self._shard_counter,
                "shards_done": self._shards_done,
                "faults": str(self.faults),
            }

    # ------------------------------------------------------------------
    # Routing (the service side of the shared HTTP handler)
    # ------------------------------------------------------------------

    def handle(self, handler: _Handler, method: str, path: str) -> bool:
        """Answer one request; ``False`` → 404, :class:`ApiError` → its
        status.

        The ``scrape-503`` fault counts telemetry GETs (all of them
        share one counter, so ``scrape-503=2`` rejects every other
        telemetry GET regardless of which endpoint it hits).
        """
        if method == "GET" and path == "/v1/health":
            handler._send_json(200, self.health())
            return True
        if method == "GET" and is_telemetry_path(path):
            with self._lock:
                self._scrape_counter += 1
                number = self._scrape_counter
            if self.faults.should_reject_scrape(number):
                raise ApiError(
                    503, f"injected scrape 503 (telemetry request {number})"
                )
            return serve_telemetry(handler, path)
        if method == "POST" and path == "/v1/fleet/shard":
            document = handler._read_json()
            try:
                payload = self.execute_shard(document)
            except ValueError as err:
                raise ApiError(400, str(err)) from None
            handler._send_json(200, payload)
            return True
        return False

    # ------------------------------------------------------------------
    # Shard execution
    # ------------------------------------------------------------------

    def execute_shard(self, document: Any) -> Dict[str, Any]:
        """Run one shard body; returns the response document.

        Fault hooks fire in severity order — 503 (cheap, retriable)
        before stall (expensive, retriable) before crash (terminal) —
        and always *before* execution, so a coordinator-side replay of
        this shard cannot observe partial work.  An injected fault
        raises :class:`ApiError` (503); a malformed body raises
        ``ValueError``.
        """
        if not isinstance(document, dict):
            raise ValueError("a shard body must be a JSON object")
        shard_id = str(document.get("shard", ""))
        with self._lock:
            self._shard_counter += 1
            number = self._shard_counter
        if self.faults.should_reject(number):
            _SHARDS_EXECUTED.labels("rejected_503").inc()
            raise ApiError(503, f"injected 503 (shard request {number})")
        stall = self.faults.stall_for(number)
        if stall > 0:
            time.sleep(stall)
        if self.faults.should_crash(number):
            self._crash()
            # An in-process crash handler (tests) returns; answer like a
            # dying process would: not at all, approximated by a 503.
            raise ApiError(503, "crashed")
        entries = entries_from_wire(document)
        requests = [
            AnalysisRequest(
                source=entry["source"],
                test=entry["test"],
                options=entry["options"],
                tag=entry["tag"],
            )
            for entry in entries
        ]
        with _obs_continue_trace(document.get("traceparent")):
            with _obs_span(
                "fleet.shard",
                shard=shard_id,
                worker=self.id,
                requests=len(requests),
            ):
                results = self._runner.run(requests)
        with self._lock:
            self._shards_done += 1
        _SHARDS_EXECUTED.labels("completed").inc()
        return {
            "shard": shard_id,
            "worker": self.id,
            "results": [
                {"index": entry["index"], **result_to_dict(result)}
                for entry, result in zip(entries, results)
            ],
        }

    # ------------------------------------------------------------------
    # Coordinator client loops
    # ------------------------------------------------------------------

    def register(self, retries: int = 20, delay: float = 0.25) -> bool:
        """Register with the coordinator, retrying while it boots."""
        for attempt in range(retries):
            try:
                self._client.fleet_register(self.id, self.url)
            except ServiceError:
                if attempt == retries - 1:
                    return False
                time.sleep(delay)
                continue
            self._registered = True
            return True
        return False

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            with self._lock:
                beats = self._beats_sent
            if not self.faults.heartbeat_allowed(beats):
                continue  # blackholed: alive, executing, silent
            try:
                acknowledged = self._client.fleet_heartbeat(self.id)
            except ServiceError:
                continue  # coordinator unreachable: keep trying
            with self._lock:
                self._beats_sent += 1
            if not acknowledged:
                # The coordinator forgot us (restart): re-register.
                try:
                    self._client.fleet_register(self.id, self.url)
                except ServiceError:
                    pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "FleetWorker":
        """Serve, register, and heartbeat on background threads."""
        if self._sampler is not None:
            self._sampler.start()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.httpd.serve_forever,
                kwargs={"poll_interval": 0.1},
                name=f"repro-fleet-{self.id}",
                daemon=True,
            )
            self._thread.start()
        if not self._registered:
            self.register()
        if self._beat_thread is None:
            self._beat_thread = threading.Thread(
                target=self._heartbeat_loop,
                name=f"repro-fleet-{self.id}-beat",
                daemon=True,
            )
            self._beat_thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant for the CLI: start loops, serve until killed."""
        self.start()
        try:
            while not self._stop.wait(3600):  # pragma: no cover - signal-driven
                pass
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._sampler is not None:
            self._sampler.stop()
        if self._registered:
            try:
                self._client.fleet_deregister(self.id)
            except ServiceError:
                pass
        if self._thread is not None:
            # shutdown() blocks on the serve loop's acknowledgement, so
            # only issue it when start() actually began serving.
            self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        if self._beat_thread is not None:
            self._beat_thread.join(timeout=5)
            self._beat_thread = None
        self._client.close()

    def __enter__(self) -> "FleetWorker":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FleetWorker(id={self.id!r}, url={self.url!r})"
