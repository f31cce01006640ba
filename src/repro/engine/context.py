"""Shared analysis preflight: one normalized, memoized view per system.

Every feasibility test used to open with the same copy-pasted preamble —
normalize the source via :func:`~repro.model.components.as_components`,
sum the utilization, short-circuit on overload, resolve a feasibility
bound.  :class:`AnalysisContext` performs that pipeline once and caches
the expensive intermediates (feasibility bounds, busy period, the
compiled demand kernel, whose :meth:`~repro.kernel.DemandKernel.dbf`
evaluates the demand) keyed on a canonical fingerprint of the task set,
so that

* running several tests on the same system (the experiment batteries,
  ``analyze --all``) shares the normalization and bound work;
* re-analysing a system within one process (sensitivity loops probing
  the same candidate twice, repeated CLI calls on a cached set) hits the
  module-level context cache instead of recomputing.

The fingerprint is the normal form.  :func:`fingerprint_of` reads its
``(wcet, first_deadline, period, source)`` rows straight off a
`TaskSet`'s ``(C, D, T, phase, name)`` rows, or off the source's task
and component entries, and the cache is looked up with
it, so a hit (every test of a battery after the first, each handed its
own equal `TaskSet`) builds nothing.  A miss builds the context from the
same rows: the utilization is a :func:`~repro.model.numeric.rate_sum`
over their ``(wcet, period)`` pairs, on integers, and the kernel
compiles from them (:meth:`~repro.kernel.DemandKernel.from_rows`).
:attr:`AnalysisContext.components` builds the equal `DemandComponent`
tuple on first read, for the few readers that need objects, so the
tests that run on the kernel — the paper's battery among them — never
build a component, nor, on an integer set, a task.

The cache is a small LRU — analysis sweeps over millions of *distinct*
sets stay O(cache size) in memory.  It lives and dies with the process:
across processes, the analysis service's result store keeps verdicts,
and a new process recomputes the preflight quantities (the closed-form
bounds are one integer pass over the compiled kernel).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from typing import TYPE_CHECKING

from ..model.components import (
    DemandComponent,
    DemandSource,
    as_components,
    component_rows,
)
from ..model.numeric import ExactTime, rate_sum
from ..model.task import SporadicTask
from ..model.taskset import TaskSet
from ..obs import counter as _obs_counter
from ..obs import span as _obs_span
from ..result import FeasibilityResult, Verdict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..analysis.bounds import BoundMethod

# The bound implementations live in repro.analysis, whose package init
# imports the test modules, which import this module: resolve the
# analysis symbols lazily at call time to keep the import graph acyclic.

__all__ = [
    "AnalysisContext",
    "preflight",
    "fingerprint_of",
    "context_cache_info",
    "clear_context_cache",
]

#: Canonical per-component key: everything a feasibility test can observe.
Fingerprint = Tuple[Tuple[ExactTime, ExactTime, Optional[ExactTime], str], ...]

_CACHE_MAX = 256
_CONTEXTS: "OrderedDict[Fingerprint, AnalysisContext]" = OrderedDict()
#: Guards the compound LRU operations (get+move_to_end, insert+evict):
#: the service layer calls :meth:`AnalysisContext.of` from HTTP handler
#: and job worker threads concurrently.
_CACHE_LOCK = threading.Lock()
# The hit/miss tallies live on the process-global metrics registry so
# `--cache-stats`, `/v1/cache-stats` and the Prometheus exposition read
# the same cells; the handles are pre-bound so the hot path pays one
# method call per event.
_CACHE_HITS = _obs_counter(
    "repro_engine_context_cache_hits_total",
    "AnalysisContext LRU cache hits.",
)
_CACHE_MISSES = _obs_counter(
    "repro_engine_context_cache_misses_total",
    "AnalysisContext LRU cache misses.",
)


class AnalysisContext:
    """One system's normal form plus memoized per-system quantities.

    Instances are obtained through :meth:`AnalysisContext.of`, never
    constructed directly by tests; identity of the underlying system is
    its :attr:`fingerprint` (component parameters in source order), and
    everything else is computed from those rows.
    """

    __slots__ = (
        "fingerprint",
        "utilization",
        "_components",
        "_bounds",
        "_busy_period",
        "_kernel",
    )

    def __init__(self, fingerprint: Fingerprint) -> None:
        self.fingerprint = fingerprint
        self.utilization = rate_sum(
            (c, t) for c, _, t, _ in fingerprint if t is not None
        )
        self._components: Optional[Tuple[DemandComponent, ...]] = None
        self._bounds: Dict["BoundMethod", Optional[ExactTime]] = {}
        self._busy_period: Optional[ExactTime] = None
        self._kernel: Optional[Any] = None

    # ------------------------------------------------------------------
    # Construction / cache
    # ------------------------------------------------------------------

    @classmethod
    def of(cls, source: DemandSource) -> "AnalysisContext":
        """The cached context of *source*, found by its fingerprint;
        a miss builds the context from that fingerprint."""
        if isinstance(source, AnalysisContext):
            return source
        # (A TaskSet is no iterator, and iter() would build its tasks.)
        if not isinstance(source, TaskSet) and iter(source) is source:
            source = tuple(source)  # an iterator: read it once
        key = fingerprint_of(source)
        with _CACHE_LOCK:
            cached = _CONTEXTS.get(key)
            if cached is not None:
                _CONTEXTS.move_to_end(key)
                _CACHE_HITS.inc()
                return cached
            _CACHE_MISSES.inc()
        # Built outside the lock; a concurrent miss on the same key at
        # worst builds a second context, and the first one stored wins.
        ctx = cls(key)
        with _CACHE_LOCK:
            existing = _CONTEXTS.get(key)
            if existing is not None:
                # Another thread populated the key meanwhile; keep its
                # instance so concurrent callers share one context.
                _CONTEXTS.move_to_end(key)
                return existing
            _CONTEXTS[key] = ctx
            while len(_CONTEXTS) > _CACHE_MAX:
                _CONTEXTS.popitem(last=False)
        return ctx

    @property
    def components(self) -> Tuple[DemandComponent, ...]:
        """The system as `DemandComponent`s, equal to
        ``tuple(as_components(source))``: built from the fingerprint rows
        on first read, for the readers that need objects (the busy
        period, the utilization and RTC tests)."""
        components = self._components
        if components is None:
            components = tuple(
                DemandComponent(c, d, t, name) for c, d, t, name in self.fingerprint
            )
            self._components = components
        return components

    # ------------------------------------------------------------------
    # Preflight gates
    # ------------------------------------------------------------------

    @property
    def is_overloaded(self) -> bool:
        """``U > 1`` — no finite bound, every test rejects outright."""
        return self.utilization > 1

    def overload_result(
        self,
        test_name: str,
        *,
        iterations: int = 0,
        max_level: Optional[int] = None,
        reason: Optional[str] = "U > 1",
    ) -> FeasibilityResult:
        """The INFEASIBLE result every test returns when ``U > 1``."""
        details: Dict[str, Any] = {"utilization": self.utilization}
        if reason is not None:
            details["reason"] = reason
        return FeasibilityResult(
            verdict=Verdict.INFEASIBLE,
            test_name=test_name,
            iterations=iterations,
            max_level=max_level,
            details=details,
        )

    # ------------------------------------------------------------------
    # Memoized quantities
    # ------------------------------------------------------------------

    def bound(self, method: "Optional[BoundMethod]" = None) -> Optional[ExactTime]:
        """Feasibility bound under *method*, memoized per method.

        Mirrors :func:`repro.analysis.bounds.feasibility_bound`: ``None``
        only when ``U > 1``; closed forms fall back to the busy period at
        ``U = 1``.  *method* defaults to ``BoundMethod.BEST``.  The three
        closed forms come from one pass over the compiled kernel and are
        memoized together.
        """
        from ..analysis.bounds import BoundMethod, closed_form_bounds

        if method is None:
            method = BoundMethod.BEST
        if method in self._bounds:
            return self._bounds[method]
        if self.utilization > 1:
            value: Optional[ExactTime] = None
        elif method is BoundMethod.BUSY_PERIOD or self.utilization == 1:
            # Closed-form bounds are inapplicable at U == 1: busy period.
            value = self.busy_period()
        else:
            closed = closed_form_bounds(self.kernel())
            self._bounds.update(closed)
            value = (
                min(closed.values())
                if method is BoundMethod.BEST
                else closed[method]
            )
        self._bounds[method] = value
        return value

    def busy_period(self) -> Optional[ExactTime]:
        """First synchronous busy period (memoized; ``None`` at ``U > 1``)."""
        if self._busy_period is None:
            from ..analysis.busy_period import busy_period_of_components

            self._busy_period = busy_period_of_components(self.components)
        return self._busy_period

    def kernel(self):
        """The compiled :class:`~repro.kernel.DemandKernel` of this system.

        Compiled lazily, once per context — and therefore once per
        distinct task set per process, since contexts are cached under
        their fingerprint.  Every rewired hot loop (processor demand,
        QPA, the superposition family, load scans) starts here.
        """
        kernel = self._kernel
        if kernel is None:
            from ..kernel import DemandKernel

            kernel = DemandKernel.from_rows(self.fingerprint)
            self._kernel = kernel
        return kernel

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AnalysisContext(n={len(self.fingerprint)}, "
            f"U={float(self.utilization):.4f})"
        )


def fingerprint_of(source: DemandSource) -> Fingerprint:
    """Canonical fingerprint of *source* without touching any cache.

    The key ``as_components(source)`` would give, read in one pass
    straight off a `TaskSet`'s rows or off task and component entries:
    no task or `DemandComponent` is built, no LRU churn, no context.
    Only ``to_components()`` entries go through :func:`as_components`,
    and so do unsupported entries, which it rejects with its usual
    `ModelError`.  The service layer keys store lookups with this for
    requests it has not decided to execute yet; a context built later
    for the same system reports an identical
    :attr:`AnalysisContext.fingerprint`.
    """
    if isinstance(source, AnalysisContext):
        return source.fingerprint
    if isinstance(source, TaskSet):
        return component_rows(source)
    key = []
    for index, entry in enumerate(source):
        if isinstance(entry, DemandComponent):
            if entry.wcet > 0:
                key.append(
                    (entry.wcet, entry.first_deadline, entry.period, entry.source)
                )
        elif isinstance(entry, SporadicTask):
            if entry.wcet > 0:
                name = entry.name or f"tau{index + 1}"
                key.append((entry.wcet, entry.deadline, entry.period, name))
        else:
            key.extend(
                (c.wcet, c.first_deadline, c.period, c.source)
                for c in as_components((entry,))
            )
    return tuple(key)


def preflight(
    source: DemandSource,
    test_name: str,
    *,
    overload_iterations: int = 0,
    overload_reason: Optional[str] = "U > 1",
    overload_max_level: Optional[int] = None,
) -> Tuple[AnalysisContext, Optional[FeasibilityResult]]:
    """Shared test preamble: normalize, then gate on utilization.

    Returns the (cached) context and, when ``U > 1``, the early
    INFEASIBLE result the caller must return unchanged.  The keyword
    knobs reproduce the small per-test differences in how the overload
    verdict is reported (Devi and Liu & Layland count it as one
    comparison and omit the reason string).
    """
    with _obs_span("engine.preflight", test=test_name):
        ctx = AnalysisContext.of(source)
    if ctx.is_overloaded:
        return ctx, ctx.overload_result(
            test_name,
            iterations=overload_iterations,
            reason=overload_reason,
            max_level=overload_max_level,
        )
    return ctx, None


def context_cache_info() -> Dict[str, int]:
    """Diagnostics for the module-level context cache."""
    with _CACHE_LOCK:
        return {
            "size": len(_CONTEXTS),
            "max_size": _CACHE_MAX,
            "hits": _CACHE_HITS.value,
            "misses": _CACHE_MISSES.value,
        }


def clear_context_cache() -> None:
    """Drop all cached contexts (tests and long-lived processes)."""
    with _CACHE_LOCK:
        _CONTEXTS.clear()
    _CACHE_HITS.reset()
    _CACHE_MISSES.reset()
