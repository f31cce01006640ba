"""The unified analysis engine.

One subsystem through which every feasibility analysis flows:

* :class:`~repro.engine.context.AnalysisContext` — the shared preflight
  pipeline (normalization, utilization gate, memoized bounds / busy
  period / dbf evaluations) behind every test, cached per task-set
  fingerprint;
* :class:`~repro.engine.registry.TestRegistry` /
  :func:`~repro.engine.registry.analyze` — every test invocable by
  string name with a validated options schema;
* :class:`~repro.engine.batch.BatchRunner` — chunked, optionally
  multiprocess batch execution with deterministic result ordering.

The experiment harness, the sensitivity searches and the CLI are all
thin layers over these three pieces; new backends plug in by
registering a :class:`TestDefinition` — the partitioned multiprocessor
tests of :mod:`repro.partition` are the first to do so.

Note: :mod:`repro.engine.context` is imported *by* the individual test
modules, so this package keeps its own imports acyclic — context first,
then registry and batch, which only depend on context lazily.
"""

from .batch import AnalysisRequest, BatchRunner, default_jobs
from .context import (
    AnalysisContext,
    clear_context_cache,
    context_cache_info,
    fingerprint_of,
    preflight,
)
from .registry import (
    OptionSpec,
    TestDefinition,
    TestKind,
    TestRegistry,
    analyze,
    default_registry,
)

__all__ = [
    "AnalysisContext",
    "preflight",
    "fingerprint_of",
    "context_cache_info",
    "clear_context_cache",
    "TestKind",
    "OptionSpec",
    "TestDefinition",
    "TestRegistry",
    "default_registry",
    "analyze",
    "AnalysisRequest",
    "BatchRunner",
    "default_jobs",
]
