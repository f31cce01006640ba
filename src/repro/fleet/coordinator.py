"""The fleet coordinator: placement, dispatch, retry, and recovery.

The :class:`Coordinator` owns the cluster side of a campaign.  It turns
a request list into fingerprint-affine shards (:mod:`repro.fleet.
shards`), places each request *group* on a worker by rendezvous
hashing with bounded loads (the favorite worker wins unless it is
already over ``balance_factor`` times its fair share of the pass,
in which case the group spills to its next-ranked choice), and pushes
shards through per-worker dispatch threads — one
thread and one FIFO per worker, so a stalled worker never blocks
traffic bound for healthy ones.

Failure handling is layered, cheapest first:

* **Transient dispatch failures** (HTTP 502/503, per-shard timeout)
  retry with capped exponential backoff and jitter; each retry
  re-places the group among the workers alive *at that moment*.
* **Worker death** — detected by the heartbeat monitor
  (:class:`~repro.fleet.registry.WorkerRegistry`) or inferred from a
  connection-level dispatch failure — requeues the worker's queued
  *and* in-flight shards onto survivors without charging a retry
  attempt (death is the fleet's problem, not the shard's).
* **Retry exhaustion** writes a dead-letter record, then executes the
  shard locally so the campaign still completes.
* **Zero workers** degrades to local in-process execution entirely.
* **Sources that cannot travel** (anything but a
  :class:`~repro.model.taskset.TaskSet`, e.g. the plain task list a
  ``BatchRunner`` also accepts) run on the same local backstop.

Correctness under all of this rests on idempotent re-execution: tests
are deterministic and settlement is first-writer-wins per campaign
index, so a late response from a stalled worker racing its own retry
is simply dropped.  Shard responses carry results only: worker
telemetry reaches the coordinator through the scraper (below), whose
absolute state documents and resume cursors cannot double-count.

:class:`FleetRunner` adapts the coordinator to the
:class:`~repro.service.jobs.JobQueue` ``runner`` seam, which is how
campaign jobs submitted over the HTTP API reach the fleet while
keeping the queue's store consult/write-through (write-once results
keyed by fingerprint+test+options) for free.

The coordinator also owns the fleet telemetry plane
(:mod:`repro.fleet.telemetry`), the one channel for worker telemetry:
a :class:`FleetScraper` thread pulls every alive worker's
``/v1/metrics``/``/v1/events``/``/v1/traces`` on a heartbeat-aligned
cadence into a :class:`FleetTelemetry` merged store, which backs
``/v1/fleet/*``, the worker spans joined into ``/v1/traces/{id}``, and
the ``telemetry`` section of :meth:`Coordinator.snapshot`.
"""

from __future__ import annotations

import math
import queue as queue_module
import random
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..engine.batch import AnalysisRequest, BatchRunner
from ..engine.registry import TestRegistry, default_registry
from ..model.serialization import result_from_dict
from ..obs import (
    counter as _obs_counter,
    current_traceparent,
    emit as _obs_emit,
    gauge as _obs_gauge,
)
from ..obs import continue_trace as _obs_continue_trace
from ..obs import span as _obs_span
from ..result import FeasibilityResult
from ..service.client import ServiceClient, ServiceError, TransientServiceError
from .registry import ALIVE, WorkerRegistry
from .telemetry import FleetScraper, FleetTelemetry
from .shards import (
    RequestGroup,
    Shard,
    group_requests,
    next_shard_id,
    pack_groups,
    rendezvous_ranking,
    shard_to_wire,
)

__all__ = ["Coordinator", "FleetRunner", "DeadLetter"]

_SHARD_EVENTS = _obs_counter(
    "repro_fleet_shards_total",
    "Coordinator shard lifecycle transitions, by outcome.",
    labelnames=("outcome",),
)
_QUEUE_DEPTH = _obs_gauge(
    "repro_fleet_dispatch_depth",
    "Shards queued for dispatch across all workers.",
)

MAX_DEAD_LETTERS = 200


@dataclass
class DeadLetter:
    """A shard that exhausted its retries (and why)."""

    shard: str
    indices: List[int]
    attempts: int
    reason: str
    worker: str = ""

    def snapshot(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "indices": list(self.indices),
            "attempts": self.attempts,
            "reason": self.reason,
            "worker": self.worker,
        }


class CampaignRun:
    """Mutable state of one in-flight campaign: first-writer-wins
    settlement per request index and completion signalling."""

    def __init__(self, size: int, traceparent: Optional[str]) -> None:
        self.size = size
        self.traceparent = traceparent
        self._results: List[Optional[FeasibilityResult]] = [None] * size
        self._pending = size
        self._lock = threading.Lock()
        self._done = threading.Event()
        self.replays_dropped = 0

    # -- settlement ----------------------------------------------------

    def is_settled(self, index: int) -> bool:
        with self._lock:
            return self._results[index] is not None

    def unsettled_groups(
        self, groups: Sequence[RequestGroup]
    ) -> List[RequestGroup]:
        """Copy *groups* keeping only still-unsettled entries."""
        live: List[RequestGroup] = []
        with self._lock:
            for group in groups:
                entries = [
                    entry
                    for entry in group.entries
                    if self._results[entry.index] is None
                ]
                if entries:
                    live.append(RequestGroup(key=group.key, entries=entries))
        return live

    def settle_wire(self, payload: Dict[str, Any]) -> int:
        """Settle a worker's shard response; returns how many indices
        were *newly* settled."""
        newly = 0
        with self._lock:
            for item in payload.get("results", []):
                index = int(item["index"])
                if not 0 <= index < self.size:
                    continue
                if self._results[index] is None:
                    self._results[index] = result_from_dict(item)
                    newly += 1
                else:
                    self.replays_dropped += 1
            self._pending -= newly
            done = self._pending == 0
        if done:
            self._done.set()
        return newly

    def settle_local(
        self,
        entries: Sequence[Any],
        results: Sequence[FeasibilityResult],
    ) -> int:
        """Settle locally-executed results."""
        newly = 0
        with self._lock:
            for entry, result in zip(entries, results):
                if self._results[entry.index] is None:
                    self._results[entry.index] = result
                    newly += 1
                else:
                    self.replays_dropped += 1
            self._pending -= newly
            done = self._pending == 0
        if done:
            self._done.set()
        return newly

    # -- completion ----------------------------------------------------

    def wait(self, timeout: float) -> None:
        if not self._done.wait(timeout):
            with self._lock:
                pending = self._pending
            raise TimeoutError(
                f"campaign incomplete after {timeout}s: "
                f"{pending}/{self.size} requests unsettled"
            )

    @property
    def results(self) -> List[FeasibilityResult]:
        with self._lock:
            if self._pending:
                raise RuntimeError(
                    f"campaign still has {self._pending} pending requests"
                )
            return list(self._results)  # type: ignore[arg-type]


class Coordinator:
    """Shard campaigns across registered workers; survive their deaths.

    Args:
        registry: test registry used to resolve request options (and by
            the local-execution fallback).
        heartbeat_interval / miss_budget: death detection knobs — a
            worker is dead after ``interval * miss_budget`` seconds of
            silence (see :class:`WorkerRegistry`).
        shard_size: target requests per shard (whole fingerprint groups
            only, so a hot fingerprint may exceed it).
        shard_timeout: per-shard dispatch timeout in seconds; a shard
            that answers slower is treated as a transient failure and
            retried (its late response, if any, is dropped by
            first-writer-wins settlement).
        retries: transient-failure retry budget per shard lineage
            (death-driven requeues are free).
        backoff_base / backoff_cap / backoff_jitter: retry delay is
            ``min(cap, base * 2^(attempt-1))`` scaled by a uniform
            ``±jitter`` fraction.
        balance_factor: load cap for placement (rendezvous with bounded
            loads).  Within one placement pass no worker is assigned
            more than ``factor * total/alive`` requests; a group
            spilled off its rendezvous favorite lands on its
            next-ranked worker, so hot hash regions cannot serialize a
            campaign behind one worker.  ``1.0`` balances hardest,
            larger values favor cache affinity.
        campaign_timeout: hard deadline for one :meth:`run_campaign`.
        rng: jitter source (tests inject a seeded instance).
        scrape_interval: cadence of the telemetry scraper; defaults to
            ``2 * heartbeat_interval`` (heartbeat-aligned — fresh
            enough for a health view without doubling beat traffic).
        scrape_timeout: per-request socket timeout for one scrape GET.
        stale_ttl: how long a dead/departed worker's series stay in
            the fleet view (marked stale) before expiring.
    """

    def __init__(
        self,
        registry: Optional[TestRegistry] = None,
        heartbeat_interval: float = 2.0,
        miss_budget: int = 3,
        shard_size: int = 8,
        shard_timeout: float = 60.0,
        retries: int = 3,
        backoff_base: float = 0.2,
        backoff_cap: float = 5.0,
        backoff_jitter: float = 0.2,
        balance_factor: float = 1.25,
        campaign_timeout: float = 600.0,
        rng: Optional[random.Random] = None,
        scrape_interval: Optional[float] = None,
        scrape_timeout: float = 5.0,
        stale_ttl: float = 300.0,
    ) -> None:
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if shard_timeout <= 0:
            raise ValueError(f"shard_timeout must be > 0, got {shard_timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if balance_factor < 1.0:
            raise ValueError(
                f"balance_factor must be >= 1.0, got {balance_factor}"
            )
        self.registry = registry if registry is not None else default_registry()
        self.shard_size = shard_size
        self.shard_timeout = shard_timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.backoff_jitter = backoff_jitter
        self.balance_factor = balance_factor
        self.campaign_timeout = campaign_timeout
        self.workers = WorkerRegistry(
            heartbeat_interval=heartbeat_interval,
            miss_budget=miss_budget,
            on_death=self._recover_worker,
        )
        self._rng = rng if rng is not None else random.Random()
        self.telemetry = FleetTelemetry(stale_ttl=stale_ttl)
        self.scraper = FleetScraper(
            self.workers,
            self.telemetry,
            interval=(
                scrape_interval
                if scrape_interval is not None
                else 2 * heartbeat_interval
            ),
            timeout=scrape_timeout,
        )
        self._local_runner = BatchRunner(jobs=1, registry=registry)
        self._lock = threading.Lock()  # guards the dispatch maps below
        self._queues: Dict[str, "queue_module.Queue[Any]"] = {}
        self._threads: Dict[str, threading.Thread] = {}
        self._clients: Dict[str, ServiceClient] = {}
        self._inflight: Dict[str, Dict[str, Any]] = {}
        self._timers: List[threading.Timer] = []
        self.dead_letters: List[DeadLetter] = []
        self._closed = False

    # ------------------------------------------------------------------
    # Membership (called by the /v1/fleet/* endpoints)
    # ------------------------------------------------------------------

    def register(self, worker_id: str, url: str) -> Dict[str, Any]:
        """Register (or revive) a worker and ensure its dispatch lane."""
        info = self.workers.register(worker_id, url)
        with self._lock:
            if self._closed:
                raise RuntimeError("coordinator is closed")
            self._clients[worker_id] = ServiceClient(
                url, timeout=self.shard_timeout
            )
            if worker_id not in self._queues:
                self._queues[worker_id] = queue_module.Queue()
                self._inflight[worker_id] = {}
                thread = threading.Thread(
                    target=self._dispatch_loop,
                    args=(worker_id, self._queues[worker_id]),
                    name=f"repro-fleet-dispatch-{worker_id}",
                    daemon=True,
                )
                self._threads[worker_id] = thread
                thread.start()
        return {
            "worker": info.id,
            "state": info.state,
            "heartbeat_interval": self.workers.heartbeat_interval,
            "miss_budget": self.workers.miss_budget,
        }

    def heartbeat(self, worker_id: str) -> bool:
        return self.workers.heartbeat(worker_id)

    def deregister(self, worker_id: str) -> bool:
        """Graceful leave: requeue anything bound for the worker."""
        left = self.workers.deregister(worker_id)
        self._recover_worker(worker_id)
        return left

    def snapshot(self) -> Dict[str, Any]:
        """The /v1/fleet/workers document."""
        with self._lock:
            letters = [letter.snapshot() for letter in self.dead_letters]
        return {
            "workers": self.workers.snapshot(),
            "alive": self.workers.alive_ids(),
            "heartbeat_interval": self.workers.heartbeat_interval,
            "miss_budget": self.workers.miss_budget,
            "death_timeout_seconds": self.workers.death_timeout,
            "shard_size": self.shard_size,
            "retries": self.retries,
            "dead_letters": letters,
            "telemetry": {
                **self.telemetry.snapshot(),
                "scrape_interval_seconds": self.scraper.interval,
                "inflight": self.inflight_counts(),
            },
        }

    def inflight_counts(self) -> Dict[str, int]:
        """Shards currently dispatched, per worker (health-view feed)."""
        with self._lock:
            return {
                worker_id: len(shards)
                for worker_id, shards in self._inflight.items()
            }

    # ------------------------------------------------------------------
    # Campaign execution
    # ------------------------------------------------------------------

    def run_campaign(
        self, requests: Sequence[AnalysisRequest]
    ) -> List[FeasibilityResult]:
        """Execute *requests* across the fleet; returns results in
        request order.  Always completes (or raises ``TimeoutError``):
        every failure path ends in either a retry, a requeue, or
        local-fallback execution."""
        batch = list(requests)
        if not batch:
            return []
        groups = group_requests(batch, self.registry)
        run = CampaignRun(len(batch), traceparent=current_traceparent())
        with _obs_span(
            "fleet.campaign",
            requests=len(batch),
            groups=len(groups),
            workers=len(self.workers.alive_ids()),
        ):
            self._place(run, groups, attempts=0)
            run.wait(self.campaign_timeout)
        _obs_emit(
            "fleet",
            "campaign.done",
            requests=len(batch),
            replays_dropped=run.replays_dropped,
        )
        return run.results

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def _place(
        self,
        run: CampaignRun,
        groups: Sequence[RequestGroup],
        attempts: int,
    ) -> None:
        """Place *groups* on whoever is alive right now.

        Rendezvous with bounded loads: each group goes to the highest-
        ranked alive worker for its fingerprint key whose assigned load
        (this pass) is still under ``balance_factor * total / alive``.
        The favorite wins almost always — cache affinity — but a hash
        hot-spot spills to the next-ranked worker instead of
        serializing the campaign.  With no workers alive, execute
        locally on the calling thread — the zero-worker degradation
        path and the end of every failure cascade.
        """
        live = run.unsettled_groups(groups)
        if not live:
            return
        alive = self.workers.alive_ids()
        if not alive:
            self._run_local(run, live)
            return
        total = sum(len(group.entries) for group in live)
        cap = max(1, math.ceil(self.balance_factor * total / len(alive)))
        load: Dict[str, int] = {worker_id: 0 for worker_id in alive}
        by_worker: Dict[str, List[RequestGroup]] = {}
        for group in live:
            ranking = rendezvous_ranking(group.key, alive)
            target = next(
                (
                    worker_id
                    for worker_id in ranking
                    if load[worker_id] + len(group.entries) <= cap
                ),
                # A group bigger than the cap still needs a home: the
                # least-loaded worker (ties broken by id, deterministic).
                min(alive, key=lambda worker_id: (load[worker_id], worker_id)),
            )
            load[target] += len(group.entries)
            by_worker.setdefault(target, []).append(group)
        for worker_id, bundle in by_worker.items():
            for packed in pack_groups(bundle, self.shard_size):
                shard = Shard(
                    id=next_shard_id(),
                    groups=packed,
                    attempts=attempts,
                    traceparent=run.traceparent,
                )
                self._enqueue(worker_id, run, shard)

    def _enqueue(self, worker_id: str, run: CampaignRun, shard: Shard) -> None:
        with self._lock:
            lane = self._queues.get(worker_id)
        if lane is None:
            # The worker vanished between the alive() check and here.
            self._place(run, shard.groups, shard.attempts)
            return
        lane.put((run, shard))
        _QUEUE_DEPTH.inc()
        _SHARD_EVENTS.labels("dispatched").inc()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _dispatch_loop(
        self, worker_id: str, lane: "queue_module.Queue[Any]"
    ) -> None:
        while True:
            item = lane.get()
            if item is None:
                return
            _QUEUE_DEPTH.dec()
            run, shard = item
            live = run.unsettled_groups(shard.groups)
            if not live:
                continue  # a retry or another worker already settled it
            info = self.workers.get(worker_id)
            with self._lock:
                client = self._clients.get(worker_id)
            if info is None or info.state != ALIVE or client is None:
                # Declared dead while queued: place elsewhere, free.
                self._place(run, live, shard.attempts)
                continue
            try:
                body = shard_to_wire(shard)
            except TypeError:
                # A source only this process can read: run it here.
                self._run_local(run, live)
                continue
            with self._lock:
                inflight = self._inflight.get(worker_id)
                if inflight is not None:
                    inflight[shard.id] = (run, shard)
            try:
                payload = client.fleet_shard(body)
            except TransientServiceError as err:
                self._clear_inflight(worker_id, shard.id)
                self._note_failure(worker_id)
                if err.reason == "unreachable":
                    # Connection refused/reset: the worker is gone.
                    # Fail it over now instead of waiting out the
                    # heartbeat budget; this shard requeues for free.
                    self._worker_died(worker_id, reason=err.message)
                    self._place(run, live, shard.attempts)
                else:  # per-shard timeout or HTTP 502/503
                    self._retry(run, shard, live, worker_id, err)
                continue
            except ServiceError as err:
                self._clear_inflight(worker_id, shard.id)
                self._note_failure(worker_id)
                self._retry(run, shard, live, worker_id, err)
                continue
            self._clear_inflight(worker_id, shard.id)
            newly = run.settle_wire(payload)
            self.workers.note_shard(worker_id, ok=True)
            _SHARD_EVENTS.labels("completed" if newly else "stale").inc()

    def _clear_inflight(self, worker_id: str, shard_id: str) -> None:
        with self._lock:
            inflight = self._inflight.get(worker_id)
            if inflight is not None:
                inflight.pop(shard_id, None)

    def _note_failure(self, worker_id: str) -> None:
        self.workers.note_shard(worker_id, ok=False)

    # ------------------------------------------------------------------
    # Failure paths
    # ------------------------------------------------------------------

    def _worker_died(self, worker_id: str, reason: str) -> None:
        """Dispatch-observed death: mark dead (if the monitor has not
        already) and recover the worker's backlog."""
        if self.workers.mark_dead(worker_id, reason=reason):
            self._recover_worker(worker_id)

    def _recover_worker(self, worker_id: str) -> None:
        """Requeue everything queued on or in flight to *worker_id*.

        Runs on the monitor thread (heartbeat death), a dispatch thread
        (connection failure), or the API thread (deregister).  Requeued
        shards keep their attempt count — dying is not the shard's
        fault.
        """
        # Its series go stale immediately (the scraper would notice on
        # its next sweep anyway; this just makes the view prompt).
        self.telemetry.mark_stale(worker_id)
        recovered: List[Any] = []
        with self._lock:
            lane = self._queues.pop(worker_id, None)
            self._threads.pop(worker_id, None)
            self._clients.pop(worker_id, None)
            inflight = self._inflight.pop(worker_id, {})
        recovered.extend(inflight.values())
        if lane is not None:
            while True:
                try:
                    item = lane.get_nowait()
                except queue_module.Empty:
                    break
                if item is not None:
                    _QUEUE_DEPTH.dec()
                    recovered.append(item)
            lane.put(None)  # retire the dispatch thread
        for run, shard in recovered:
            _SHARD_EVENTS.labels("requeued").inc()
            _obs_emit(
                "fleet",
                "shard.requeued",
                shard=shard.id,
                worker=worker_id,
                requests=len(shard),
            )
            self._place(run, shard.groups, shard.attempts)

    def _retry(
        self,
        run: CampaignRun,
        shard: Shard,
        groups: Sequence[RequestGroup],
        worker_id: str,
        err: Exception,
    ) -> None:
        """Transient failure: back off (capped exponential + jitter)
        and re-place, or dead-letter when the budget is spent."""
        attempts = shard.attempts + 1
        if attempts > self.retries:
            self._dead_letter(run, shard, groups, worker_id, err)
            return
        delay = min(self.backoff_cap, self.backoff_base * (2 ** (attempts - 1)))
        delay *= 1.0 + self.backoff_jitter * self._rng.uniform(-1.0, 1.0)
        _SHARD_EVENTS.labels("retried").inc()
        _obs_emit(
            "fleet",
            "shard.retry",
            shard=shard.id,
            worker=worker_id,
            attempt=attempts,
            delay_seconds=round(max(delay, 0.0), 3),
            error=str(err),
        )
        timer = threading.Timer(
            max(delay, 0.0),
            self._place,
            args=(run, list(groups), attempts),
        )
        timer.daemon = True
        with self._lock:
            if self._closed:
                return
            self._timers = [t for t in self._timers if t.is_alive()]
            self._timers.append(timer)
        timer.start()

    def _dead_letter(
        self,
        run: CampaignRun,
        shard: Shard,
        groups: Sequence[RequestGroup],
        worker_id: str,
        err: Exception,
    ) -> None:
        """Retry budget exhausted: record the corpse, then execute the
        remaining work locally so the campaign still completes."""
        indices = [e.index for g in groups for e in g.entries]
        letter = DeadLetter(
            shard=shard.id,
            indices=indices,
            attempts=shard.attempts + 1,
            reason=str(err),
            worker=worker_id,
        )
        with self._lock:
            self.dead_letters.append(letter)
            del self.dead_letters[:-MAX_DEAD_LETTERS]
        _SHARD_EVENTS.labels("dead_letter").inc()
        _obs_emit(
            "fleet",
            "shard.dead_letter",
            shard=shard.id,
            worker=worker_id,
            requests=len(indices),
            reason=str(err),
        )
        self._run_local(run, groups)

    def _run_local(
        self, run: CampaignRun, groups: Sequence[RequestGroup]
    ) -> None:
        """Execute *groups* in-process (zero-worker degradation, the
        dead-letter backstop, and sources no worker can receive).  Runs
        under the campaign's trace with ``worker="local"`` so span trees
        look the same either way."""
        live = run.unsettled_groups(groups)
        if not live:
            return
        entries = [entry for group in live for entry in group.entries]
        requests = [
            AnalysisRequest(
                source=entry.source,
                test=entry.test,
                options=entry.options,
                tag=entry.tag,
            )
            for entry in entries
        ]
        with _obs_continue_trace(run.traceparent):
            with _obs_span(
                "fleet.shard", worker="local", requests=len(requests)
            ):
                results = self._local_runner.run(requests)
        run.settle_local(entries, results)
        _SHARD_EVENTS.labels("local").inc()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "Coordinator":
        """Start the heartbeat monitor and scraper (idempotent)."""
        self.workers.start()
        self.scraper.start()
        return self

    def close(self) -> None:
        self.scraper.stop()
        with self._lock:
            if self._closed:
                return
            self._closed = True
            timers = list(self._timers)
            self._timers.clear()
            lanes = list(self._queues.values())
            threads = list(self._threads.values())
            self._queues.clear()
            self._threads.clear()
            self._clients.clear()
            self._inflight.clear()
        for timer in timers:
            timer.cancel()
        self.workers.stop()
        for lane in lanes:
            lane.put(None)
        for thread in threads:
            thread.join(timeout=2)

    def __enter__(self) -> "Coordinator":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Coordinator(workers={len(self.workers)}, "
            f"shard_size={self.shard_size}, retries={self.retries})"
        )


class FleetRunner:
    """Adapts a :class:`Coordinator` to the ``JobQueue`` runner seam.

    ``jobs`` reads as 2 so the queue treats fleet execution like any
    parallel backend (no per-request context-state flush — workers own
    their contexts).
    """

    jobs = 2

    def __init__(self, coordinator: Coordinator) -> None:
        self.coordinator = coordinator

    def run(
        self, requests: Sequence[AnalysisRequest]
    ) -> List[FeasibilityResult]:
        return self.coordinator.run_campaign(requests)

    def trace_spans(self, trace_id: str) -> List[Dict[str, Any]]:
        """The workers' spans of one trace, as of a scrape made now:
        the scraper is their only way into this process, so a profiled
        job's report reaches its workers' ``engine``/``kernel`` spans
        through here."""
        self.coordinator.scraper.scrape_all()
        return self.coordinator.telemetry.spans.for_trace(trace_id)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FleetRunner({self.coordinator!r})"
