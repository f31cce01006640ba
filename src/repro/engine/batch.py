"""Batched analysis execution with optional multiprocessing.

:class:`BatchRunner` is the engine's throughput layer: it takes a flat
sequence of :class:`AnalysisRequest` (source, test name, options) and
returns one :class:`~repro.result.FeasibilityResult` per request, in
request order, regardless of how the work was scheduled.  Requests are
expressed in registry vocabulary — names and plain option values — so a
batch pickles cleanly and can be fanned out over a process pool in
chunks.

Guarantees:

* **Deterministic ordering** — results align index-for-index with the
  requests, sequential or parallel.
* **Deterministic values** — every test in the library is deterministic,
  so a parallel run returns bit-identical results to a sequential one.
* **Graceful degradation** — one worker process, an unpicklable source,
  or a sandbox that forbids process pools all fall back to in-process
  execution (which still benefits from the shared
  :class:`~repro.engine.context.AnalysisContext` cache).

``REPRO_JOBS`` sets the default worker count (``0``/``1`` force
sequential); otherwise ``os.cpu_count()`` decides.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..model.components import DemandSource
from ..obs import ITERATION_BUCKETS
from ..obs import capture_worker_baseline as _obs_capture_baseline
from ..obs import collect_worker_telemetry as _obs_collect_telemetry
from ..obs import continue_trace as _obs_continue_trace
from ..obs import counter as _obs_counter
from ..obs import current_traceparent as _obs_current_traceparent
from ..obs import histogram as _obs_histogram
from ..obs import merge_worker_telemetry as _obs_merge_telemetry
from ..obs import span as _obs_span
from ..result import FeasibilityResult
from .registry import TestRegistry, default_registry

__all__ = ["AnalysisRequest", "BatchRunner", "default_jobs"]

# Same families registry.py registers (registration is idempotent):
# batched runs dispatch to test runners directly, bypassing
# TestRegistry.run(), so the parent records every request here after
# results land.  (Workers additionally ship their own registry deltas
# home — kernel counters, spans, events — merged below; these
# two engine-level families stay parent-recorded so sequential and
# parallel runs report bit-identical counts.)
_ANALYSES = _obs_counter(
    "repro_engine_analyses_total",
    "Feasibility analyses run through the engine, by test.",
    ("test",),
)
_TEST_ITERATIONS = _obs_histogram(
    "repro_engine_test_iterations",
    "Kernel iterations reported per analysis, by test.",
    ("test",),
    ITERATION_BUCKETS,
)


@dataclass(frozen=True)
class AnalysisRequest:
    """One unit of batch work: run *test* on *source* with *options*.

    ``tag`` is opaque caller data (e.g. a set index or group label)
    carried alongside the request; the runner never interprets it.
    """

    source: DemandSource
    test: str = "all-approx"
    options: Mapping[str, Any] = field(default_factory=dict)
    tag: Any = None


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set, else ``os.cpu_count()``."""
    raw = os.environ.get("REPRO_JOBS", "")
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {raw!r}") from None
        if value < 0:
            raise ValueError(f"REPRO_JOBS must be >= 0, got {value}")
        return max(1, value)
    return os.cpu_count() or 1


def _execute_chunk(
    payload: Tuple[
        Sequence[Tuple[int, DemandSource, str, Mapping[str, Any]]],
        Optional[str],
    ],
) -> Tuple[List[Tuple[int, FeasibilityResult]], Dict[str, Any]]:
    """Worker entry point: run one chunk, return results + telemetry.

    Options arrive already resolved (validated, defaults applied) by the
    parent process, so the worker dispatches straight to the runner
    without re-validating per request.  The chunk carries the parent's
    traceparent, so spans opened here belong to the submitting trace;
    everything the chunk records (metrics delta, events, spans) rides
    back with the results for the parent to merge — worker registries
    are no longer discarded.
    """
    entries, traceparent = payload
    registry = default_registry()
    baseline = _obs_capture_baseline()
    with _obs_continue_trace(traceparent):
        with _obs_span("worker.chunk", requests=len(entries)):
            results = []
            for index, source, test, options in entries:
                with _obs_span("engine.analyze", test=test):
                    results.append(
                        (index, registry.get(test).runner(source, **options))
                    )
    return results, _obs_collect_telemetry(baseline)


class BatchRunner:
    """Run many analysis requests, optionally across worker processes.

    Args:
        jobs: worker processes; ``None`` uses :func:`default_jobs`,
            ``1`` (or a single-core machine) executes in-process.
        chunk_size: requests per work unit in parallel mode; ``None``
            picks ``ceil(n / (4 * jobs))`` so the pool load-balances
            while keeping per-chunk pickling overhead amortized.
        registry: registry resolving test names.  Parallel execution is
            only used with the default registry (a custom registry does
            not exist in the worker processes); custom registries run
            sequentially.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        chunk_size: Optional[int] = None,
        registry: Optional[TestRegistry] = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.jobs = jobs if jobs is not None else default_jobs()
        self.chunk_size = chunk_size
        self._registry = registry
        self._custom_registry = registry is not None

    # ------------------------------------------------------------------

    @property
    def registry(self) -> TestRegistry:
        return self._registry if self._registry is not None else default_registry()

    def run(self, requests: Iterable[AnalysisRequest]) -> List[FeasibilityResult]:
        """Execute *requests*; results align with request order."""
        batch = list(requests)
        if not batch:
            return []
        with _obs_span("engine.batch", requests=len(batch), jobs=self.jobs):
            if self.jobs <= 1 or len(batch) < 2 or self._custom_registry:
                results = self._run_sequential(batch)
            else:
                try:
                    results = self._run_parallel(batch)
                except Exception:
                    # No process pool available (restricted sandbox,
                    # missing semaphores, daemonic caller) or an
                    # unpicklable source: analysis must still land.
                    # Tests are pure, so re-running sequentially is
                    # safe, and a genuine per-test error will reproduce
                    # here with a cleaner traceback.
                    results = self._run_sequential(batch)
        for request, result in zip(batch, results):
            _ANALYSES.labels(request.test).inc()
            _TEST_ITERATIONS.labels(request.test).observe(result.iterations or 0)
        return results

    def map(
        self,
        sources: Iterable[DemandSource],
        test: str = "all-approx",
        **options: Any,
    ) -> List[FeasibilityResult]:
        """Run one *test* over many *sources* (convenience wrapper)."""
        return self.run(
            AnalysisRequest(source=s, test=test, options=options) for s in sources
        )

    # ------------------------------------------------------------------

    def _resolve_batch(
        self, batch: Sequence[AnalysisRequest]
    ) -> List[Tuple[Any, Dict[str, Any]]]:
        """Per-request ``(runner, resolved options)``, validated once.

        A battery repeats few unique (test, options) signatures over
        many sets: resolve and validate each signature once so the per-
        request cost is one dict lookup plus the test itself.  Shared by
        both execution paths — the parallel path ships the *resolved*
        options to its workers, which dispatch without re-validating.
        """
        registry = self.registry
        resolved: Dict[Any, Tuple[Any, Dict[str, Any]]] = {}
        entries: List[Tuple[Any, Dict[str, Any]]] = []
        for request in batch:
            try:
                key: Any = (request.test, tuple(sorted(request.options.items())))
                hash(key)
            except TypeError:  # unhashable option value
                key = None
            entry = resolved.get(key) if key is not None else None
            if entry is None:
                definition = registry.get(request.test)
                entry = (definition.runner, definition.resolve_options(request.options))
                if key is not None:
                    resolved[key] = entry
            entries.append(entry)
        return entries

    def _run_sequential(
        self, batch: Sequence[AnalysisRequest]
    ) -> List[FeasibilityResult]:
        results = []
        for request, (runner, options) in zip(batch, self._resolve_batch(batch)):
            with _obs_span("engine.analyze", test=request.test):
                results.append(runner(request.source, **options))
        return results

    def _run_parallel(
        self, batch: Sequence[AnalysisRequest]
    ) -> List[FeasibilityResult]:
        import multiprocessing

        # Resolving here also validates up front, so option errors raise
        # in the caller with a clean traceback instead of surfacing from
        # a worker.
        entries = self._resolve_batch(batch)
        payload = [
            (index, r.source, r.test, entries[index][1])
            for index, r in enumerate(batch)
        ]
        size = self.chunk_size
        if size is None:
            size = max(1, -(-len(payload) // (4 * self.jobs)))
        traceparent = _obs_current_traceparent()
        chunks = [
            (payload[i : i + size], traceparent)
            for i in range(0, len(payload), size)
        ]
        workers = min(self.jobs, len(chunks))

        results: List[Optional[FeasibilityResult]] = [None] * len(batch)
        ctx = multiprocessing.get_context()
        with ctx.Pool(processes=workers) as pool:
            for chunk_result, telemetry in pool.imap_unordered(
                _execute_chunk, chunks
            ):
                for index, result in chunk_result:
                    results[index] = result
                _obs_merge_telemetry(telemetry)
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:  # pragma: no cover - defensive
            raise RuntimeError(f"batch lost results for indices {missing}")
        return results  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BatchRunner(jobs={self.jobs}, chunk_size={self.chunk_size})"
