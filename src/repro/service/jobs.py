"""Asynchronous analysis jobs: queue, workers, progress, cancellation.

A job is an ordered list of engine requests — one for a single
analysis, hundreds for a batch campaign — executed shard by shard on a
pool of worker threads.  Sharding serves three purposes: progress is
observable between shards, cancellation takes effect between shards,
and each shard goes through :class:`~repro.engine.batch.BatchRunner`
(so a multi-worker runner fans a shard out over processes while the
queue stays responsive).

The queue is store-aware.  Before running a shard it looks the whole
shard up in the :class:`~repro.service.store.ResultStore` under each
request's ``(fingerprint, test, resolved options)`` key; hits are
answered without execution, and the misses run and are written back in
one batch.  Tests are deterministic, so served and computed results are
indistinguishable — the job records ``from_store`` / ``computed``
counts to make the split auditable.

Option validation happens at :meth:`JobQueue.submit` time against the
registry schema: a bad request fails fast in the caller (the HTTP layer
turns it into a 400) instead of surfacing later inside a worker.

Jobs carry a *priority* (default 0): workers pop the highest-priority
queued job first, FIFO within a priority level.  Priorities only
reorder the backlog — a running job is never preempted — so a saturated
queue serves an urgent single analysis ahead of a bulk campaign
submitted earlier.
"""

from __future__ import annotations

import queue
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..engine.batch import AnalysisRequest, BatchRunner
from ..engine.context import fingerprint_of
from ..engine.registry import TestRegistry, default_registry
from ..obs import LATENCY_BUCKETS
from ..obs import continue_trace as _obs_continue_trace
from ..obs import counter as _obs_counter
from ..obs import current_span as _obs_current_span
from ..obs import current_traceparent as _obs_current_traceparent
from ..obs import emit as _obs_emit
from ..obs import format_traceparent as _obs_format_traceparent
from ..obs import gauge as _obs_gauge
from ..obs import histogram as _obs_histogram
from ..obs import join_spans as _obs_join_spans
from ..obs import new_span_id as _obs_new_span_id
from ..obs import new_trace_id as _obs_new_trace_id
from ..obs import parse_traceparent as _obs_parse_traceparent
from ..obs import profile_spans as _obs_profile_spans
from ..obs import span as _obs_span
from ..obs import span_log as _obs_span_log
from .store import ResultStore, StoreKey, store_key

__all__ = ["JobState", "Job", "JobQueue"]

# Queue metrics are per-process (every JobQueue in the process feeds
# the same series — a server runs exactly one).  Transitions are
# counted where the state changes, so gauges never drift from the
# authoritative per-job state.
_JOB_TRANSITIONS = _obs_counter(
    "repro_queue_jobs_total",
    "Job state transitions, by state entered.",
    labelnames=("state",),
)
_QUEUE_DEPTH = _obs_gauge(
    "repro_queue_depth",
    "Jobs currently waiting in the backlog.",
)
_QUEUE_RUNNING = _obs_gauge(
    "repro_queue_running",
    "Jobs currently executing on a worker.",
)
_QUEUE_LATENCY = _obs_histogram(
    "repro_queue_latency_seconds",
    "Wait between job submission and first execution.",
    buckets=LATENCY_BUCKETS,
)
_SHARDS_TOTAL = _obs_counter(
    "repro_queue_shards_total",
    "Execution shards completed.",
)
_REQUESTS_TOTAL = _obs_counter(
    "repro_queue_requests_total",
    "Analysis requests settled by the queue, by outcome.",
    labelnames=("outcome",),
)
_REQUESTS_FROM_STORE = _REQUESTS_TOTAL.labels("from_store")
_REQUESTS_COMPUTED = _REQUESTS_TOTAL.labels("computed")


class JobState:
    """Lifecycle states of a job (plain strings — they go on the wire)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States from which a job can no longer change.
    TERMINAL = (DONE, FAILED, CANCELLED)


@dataclass
class _JobRequest:
    """One resolved unit of work inside a job."""

    source: Any
    test: str
    options: Dict[str, Any]
    fingerprint: Any
    tag: Any = None


@dataclass
class Job:
    """Mutable job record; read through :meth:`snapshot` for a stable view."""

    id: str
    kind: str
    requests: List[_JobRequest]
    state: str = JobState.QUEUED
    priority: int = 0
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    done: int = 0
    from_store: int = 0
    computed: int = 0
    error: Optional[str] = None
    results: List[Optional[FeasibilityResult]] = field(default_factory=list)
    cancel_event: threading.Event = field(default_factory=threading.Event)
    completion: threading.Event = field(default_factory=threading.Event)
    #: Recorded in ``error`` when the cancel lands; lets a shutdown-
    #: driven cancellation surface as ``cancelled_by_shutdown`` in
    #: snapshots instead of looking user-initiated.
    cancel_reason: Optional[str] = None
    #: Trace context stamped at submission: the submitter's traceparent
    #: when one was active, else a trace originated for this job.  The
    #: worker thread restores it before executing, so engine/kernel
    #: spans (local or in pool workers) join the submitter's trace.
    traceparent: Optional[str] = None
    #: Opt-in deterministic profiler: aggregate this job's span stream
    #: into a per-stage report served alongside the results.
    profile: bool = False
    profile_report: Optional[Dict[str, Any]] = None

    @property
    def total(self) -> int:
        return len(self.requests)

    @property
    def trace_id(self) -> Optional[str]:
        parsed = _obs_parse_traceparent(self.traceparent)
        return parsed[0] if parsed else None

    @property
    def queued_at(self) -> float:
        """Submission instant (alias of ``created_at`` — the job enters
        the backlog atomically with its creation)."""
        return self.created_at

    @property
    def queue_latency_seconds(self) -> Optional[float]:
        """Wait between submission and first execution; ``None`` while
        still queued (a job cancelled before starting never has one)."""
        if self.started_at is None:
            return None
        return max(0.0, self.started_at - self.created_at)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready status view (no results payload)."""
        return {
            "job": self.id,
            "kind": self.kind,
            "state": self.state,
            "priority": self.priority,
            "total": self.total,
            "done": self.done,
            "from_store": self.from_store,
            "computed": self.computed,
            "tests": sorted({r.test for r in self.requests}),
            "created_at": self.created_at,
            "queued_at": self.queued_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "queue_latency_seconds": self.queue_latency_seconds,
            "trace_id": self.trace_id,
            "error": self.error,
        }


class JobQueue:
    """FIFO job execution on daemon worker threads.

    Args:
        store: optional persistent result store, read once before and
            written once after each shard.
        workers: concurrent jobs (threads pulling from the queue).
        shard_size: requests per execution shard — the granularity of
            progress updates and cancellation.
        runner: batch runner executing the shards; defaults to an
            in-process runner (``jobs=1``), which keeps every analysis
            inside this process where the context LRU sees it.  Pass a
            multi-worker runner to fan each shard out over processes
            instead.  A runner whose workers' spans live elsewhere
            (``FleetRunner``) also has ``trace_spans(trace_id)``, which
            profiled jobs join in.
        registry: test registry for validation; defaults to the shipped
            one.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: int = 1,
        shard_size: int = 32,
        runner: Optional[BatchRunner] = None,
        registry: Optional[TestRegistry] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        self.store = store
        self.shard_size = shard_size
        self.runner = runner if runner is not None else BatchRunner(jobs=1)
        self._registry = registry if registry is not None else default_registry()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        # Entries are (-priority, sequence, job id): the highest
        # priority pops first, FIFO within a level.  Shutdown sentinels
        # use -inf (cancelling stop: preempt the backlog) or +inf
        # (draining stop: sort after every queued job).
        self._queue: "queue.PriorityQueue[Tuple[float, int, Optional[str]]]" = (
            queue.PriorityQueue()
        )
        self._sequence = 0
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-job-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    # Submission / inspection
    # ------------------------------------------------------------------

    def submit(
        self,
        requests: Sequence[AnalysisRequest],
        kind: Optional[str] = None,
        priority: int = 0,
        profile: bool = False,
    ) -> str:
        """Validate and enqueue *requests* as one job; returns the job id.

        *priority* orders the backlog: higher pops first, FIFO within a
        level (default 0).  *profile* opts the job into the span-stream
        profiler: its result document gains a per-stage breakdown.
        Raises ``ValueError`` on an empty submission, an unknown test
        name, an invalid priority, or options failing the test's schema
        — nothing is queued in that case.
        """
        batch = list(requests)
        if not batch:
            raise ValueError("a job needs at least one analysis request")
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ValueError(f"priority must be an int, got {priority!r}")
        if self._closed:
            raise RuntimeError("the job queue is shut down")
        resolved: List[_JobRequest] = []
        for request in batch:
            definition = self._registry.get(request.test)
            options = definition.resolve_options(request.options)
            # fingerprint_of, not AnalysisContext.of: submission must not
            # churn the context LRU or do backend I/O for work that may
            # be answered straight from the result store.
            fingerprint = fingerprint_of(request.source)
            resolved.append(
                _JobRequest(
                    source=request.source,
                    test=request.test,
                    options=options,
                    fingerprint=fingerprint,
                    tag=request.tag,
                )
            )
        # Stamp the submitter's trace on the job document; a detached
        # submission (no active span or incoming header) originates its
        # own trace so the job is traceable either way.
        traceparent = _obs_current_traceparent()
        if traceparent is None:
            traceparent = _obs_format_traceparent(
                _obs_new_trace_id(), _obs_new_span_id()
            )
        job = Job(
            id=uuid.uuid4().hex[:12],
            kind=kind or ("single" if len(resolved) == 1 else "batch"),
            requests=resolved,
            priority=priority,
            traceparent=traceparent,
            profile=bool(profile),
        )
        job.results = [None] * job.total
        with self._lock:
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._sequence += 1
            entry = (-float(priority), self._sequence, job.id)
        self._queue.put(entry)
        _JOB_TRANSITIONS.labels(JobState.QUEUED).inc()
        _QUEUE_DEPTH.inc()
        _obs_emit(
            "service",
            "job.submitted",
            job=job.id,
            kind=job.kind,
            total=job.total,
            priority=priority,
        )
        return job.id

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None

    def status(self, job_id: str) -> Dict[str, Any]:
        """Status snapshot of one job (raises ``KeyError`` if unknown)."""
        with self._lock:
            try:
                job = self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None
            return job.snapshot()

    def results(self, job_id: str) -> List[FeasibilityResult]:
        """Results of a DONE job, in request order."""
        job = self.get(job_id)
        if job.state != JobState.DONE:
            raise ValueError(
                f"job {job_id!r} has no results (state: {job.state})"
            )
        return [r for r in job.results if r is not None]

    def list_jobs(self) -> List[Dict[str, Any]]:
        """Snapshots of every known job, oldest first."""
        with self._lock:
            return [self._jobs[i].snapshot() for i in self._order]

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Request cancellation; queued jobs cancel immediately, running
        jobs stop at the next shard boundary."""
        with self._lock:
            try:
                job = self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job {job_id!r}") from None
            job.cancel_event.set()
        if self._finish(job, JobState.CANCELLED, only_from=JobState.QUEUED):
            _obs_emit("service", "job.cancelled", job=job_id, queued=True)
        with self._lock:
            return job.snapshot()

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until the job reaches a terminal state (or *timeout*)."""
        job = self.get(job_id)
        job.completion.wait(timeout)
        return self.status(job_id)

    def stats(self) -> Dict[str, Any]:
        """Aggregate queue counters for the cache-stats endpoint."""
        with self._lock:
            states = [self._jobs[i].state for i in self._order]
        counts = {
            state: sum(1 for s in states if s == state)
            for state in (
                JobState.QUEUED,
                JobState.RUNNING,
                JobState.DONE,
                JobState.FAILED,
                JobState.CANCELLED,
            )
        }
        counts["total"] = len(states)
        counts["workers"] = len(self._workers)
        counts["shard_size"] = self.shard_size
        return counts

    def _finish(
        self,
        job: Job,
        state: str,
        error: Optional[str] = None,
        only_from: Optional[str] = None,
    ) -> bool:
        """Atomically move *job* to a terminal state.

        Returns ``False`` if the job is already terminal (or not in
        *only_from* when given): the first finisher wins, and only the
        winner touches gauges/counters — a worker thread outliving a
        shutdown sweep can no longer resurrect a cancelled job.
        """
        with self._lock:
            if job.state in JobState.TERMINAL:
                return False
            if only_from is not None and job.state != only_from:
                return False
            was_running = job.state == JobState.RUNNING
            was_queued = job.state == JobState.QUEUED
            job.state = state
            if error is not None:
                job.error = error
            job.finished_at = time.time()
        job.completion.set()
        if was_running:
            _QUEUE_RUNNING.dec()
        if was_queued:
            _QUEUE_DEPTH.dec()
        _JOB_TRANSITIONS.labels(state).inc()
        return True

    def shutdown(self, timeout: float = 5.0, drain: bool = False) -> None:
        """Stop the workers without abandoning jobs.

        With ``drain=False`` (default) in-flight jobs are cancelled:
        running jobs stop at their next shard boundary, queued jobs
        never start, and both record the terminal state ``cancelled``
        with ``error="cancelled_by_shutdown"``.  With ``drain=True``
        the backlog is executed first (sentinels sort *after* queued
        work) and cancellation only applies to whatever is still
        unfinished when the deadline expires.

        Either way, once *timeout* seconds have elapsed every
        non-terminal job is swept to ``cancelled_by_shutdown`` — no job
        is ever left ``running`` forever by a server stop.
        """
        if self._closed:
            return
        self._closed = True
        sentinel_rank = float("inf") if drain else float("-inf")
        if not drain:
            with self._lock:
                jobs = [self._jobs[i] for i in self._order]
            for job in jobs:
                if job.state not in JobState.TERMINAL:
                    job.cancel_reason = "cancelled_by_shutdown"
                    job.cancel_event.set()
        for _ in self._workers:
            self._queue.put((sentinel_rank, 0, None))
        deadline = time.monotonic() + timeout
        for thread in self._workers:
            thread.join(max(0.0, deadline - time.monotonic()))
        # Deadline sweep: anything still non-terminal (a worker stuck in
        # a long shard, or queued jobs under drain that never ran) is
        # explicitly cancelled so snapshots reach a terminal state.
        with self._lock:
            jobs = [self._jobs[i] for i in self._order]
        for job in jobs:
            job.cancel_event.set()
            if self._finish(
                job, JobState.CANCELLED, error="cancelled_by_shutdown"
            ):
                _obs_emit(
                    "service",
                    "job.cancelled",
                    job=job.id,
                    by_shutdown=True,
                )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            _, _, job_id = self._queue.get()
            if job_id is None:
                return
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None or job.state != JobState.QUEUED:
                    continue  # cancelled while queued
                job.state = JobState.RUNNING
                job.started_at = time.time()
            _QUEUE_DEPTH.dec()
            _QUEUE_RUNNING.inc()
            _JOB_TRANSITIONS.labels(JobState.RUNNING).inc()
            _QUEUE_LATENCY.observe(job.queue_latency_seconds or 0.0)
            _obs_emit(
                "service",
                "job.started",
                job=job.id,
                latency_seconds=job.queue_latency_seconds,
            )
            try:
                # Restore the submitter's trace context on this worker
                # thread: the queue.job span (wait time is an attribute,
                # execution is the duration) parents every engine and
                # kernel span the job produces, including ones merged
                # back from multiprocessing chunks.
                with _obs_continue_trace(job.traceparent):
                    with _obs_span(
                        "queue.job",
                        job=job.id,
                        kind=job.kind,
                        wait_seconds=round(
                            job.queue_latency_seconds or 0.0, 6
                        ),
                    ):
                        self._execute(job)
            except Exception as err:  # pragma: no cover - defensive
                if self._finish(
                    job, JobState.FAILED, error=f"{type(err).__name__}: {err}"
                ):
                    _obs_emit(
                        "service", "job.failed", job=job.id, error=job.error
                    )

    def _execute(self, job: Job) -> None:
        profile_cursor = _obs_span_log().last_seq if job.profile else 0
        for start in range(0, job.total, self.shard_size):
            if job.cancel_event.is_set():
                if self._finish(
                    job, JobState.CANCELLED, error=job.cancel_reason
                ):
                    _obs_emit(
                        "service", "job.cancelled", job=job.id, queued=False
                    )
                return
            shard = list(
                enumerate(
                    job.requests[start : start + self.shard_size], start=start
                )
            )
            self._run_shard(job, shard)
            _SHARDS_TOTAL.inc()
            with self._lock:
                job.done = min(start + self.shard_size, job.total)
        if job.profile:
            # Aggregate before flipping to DONE so a waiter that races
            # the completion event still sees the finished report.
            job.profile_report = self._collect_profile(job, profile_cursor)
        if self._finish(job, JobState.DONE):
            _obs_emit(
                "service",
                "job.done",
                job=job.id,
                total=job.total,
                from_store=job.from_store,
                computed=job.computed,
            )

    def _collect_profile(
        self, job: Job, cursor: int
    ) -> Dict[str, Any]:
        """Aggregate the spans this job produced into a stage report.

        Runs inside the job's ``queue.job`` span, so its descendants —
        engine/kernel/worker spans, local, merged from pool workers, or
        scraped from fleet workers by a runner with ``trace_spans`` —
        are exactly this job's work; concurrent status polls sharing
        the trace are excluded.  Falls back to a whole-trace filter
        when no span is open (observability disabled mid-job).
        """
        spans, _ = _obs_span_log().since(cursor, limit=1 << 30)
        trace_spans = getattr(self.runner, "trace_spans", None)
        if trace_spans is not None:
            spans = _obs_join_spans(spans, trace_spans(job.trace_id))
        handle = _obs_current_span()
        if handle is None:
            mine = [s for s in spans if s.get("trace_id") == job.trace_id]
            return _obs_profile_spans(mine)
        root_id = handle.span_id
        by_id = {s["span_id"]: s for s in spans if s.get("span_id")}

        def under_root(record: Dict[str, Any]) -> bool:
            seen = set()
            while record is not None:
                parent = record.get("parent_id")
                if parent == root_id:
                    return True
                if parent is None or parent in seen:
                    return False
                seen.add(parent)
                record = by_id.get(parent)
            return False

        return _obs_profile_spans([s for s in spans if under_root(s)])

    def _run_shard(
        self, job: Job, shard: Sequence[Tuple[int, _JobRequest]]
    ) -> None:
        """Answer *shard* from the store, run the misses, store them:
        one store read and at most one store write per shard, on row
        keys computed once."""
        cached: List[Optional[FeasibilityResult]] = [None] * len(shard)
        keys: List[Optional[StoreKey]] = [None] * len(shard)
        if self.store is not None:
            keys = [store_key(r.fingerprint, r.test, r.options) for _, r in shard]
            cached = self.store.get_keyed(keys)
        pending: List[Tuple[int, _JobRequest]] = []
        pending_keys: List[Optional[StoreKey]] = []
        for (index, request), key, result in zip(shard, keys, cached):
            if result is None:
                pending.append((index, request))
                pending_keys.append(key)
            else:
                job.results[index] = result
        hits = len(shard) - len(pending)
        if hits:
            with self._lock:
                job.from_store += hits
            _REQUESTS_FROM_STORE.inc(hits)
        if not pending:
            return
        outcomes = self.runner.run(
            AnalysisRequest(
                source=request.source,
                test=request.test,
                options=request.options,
                tag=request.tag,
            )
            for _, request in pending
        )
        for (index, _), outcome in zip(pending, outcomes):
            job.results[index] = outcome
        if self.store is not None:
            self.store.put_keyed(list(zip(pending_keys, outcomes)))
        with self._lock:
            job.computed += len(pending)
        _REQUESTS_COMPUTED.inc(len(pending))
