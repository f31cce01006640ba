"""repro — Efficient feasibility analysis for EDF-scheduled real-time systems.

A from-scratch reproduction of *Albers & Slomka, "Efficient Feasibility
Analysis for Real-Time Systems with EDF Scheduling", DATE 2005*: the
Dynamic Error and All-Approximated exact feasibility tests, the
``SuperPos(x)`` approximation family they refine, every baseline the
paper compares against (Liu & Layland, Devi, the processor demand test),
the feasibility-bound theory of Section 4.3, plus the substrates the
evaluation needs — random task-set generation after Bini, literature
example sets, an EDF simulation oracle, and the experiment harness that
regenerates every figure and table.

Every analysis flows through the **engine** (:mod:`repro.engine`): a
registry of feasibility tests invocable by name, a shared preflight
pipeline that normalizes and caches per-system work, and a batch runner
that fans analysis out over worker processes.

Quickstart::

    from repro import TaskSet, analyze

    gamma = TaskSet.of((2, 6, 10), (3, 11, 16), (5, 25, 25))
    result = analyze(gamma)                      # All-Approximated exact test
    print(result.verdict, result.iterations)

    analyze(gamma, "dynamic")                    # any registered test by name
    analyze(gamma, "superpos", level=3)          # with validated options
    analyze(gamma, "processor-demand", bound_method="best")

    from repro import BatchRunner                # many sets at once
    results = BatchRunner().map(thousands_of_sets, test="dynamic")

See ``examples/`` for richer scenarios, ``README.md`` for the engine
API, and ``EXPERIMENTS.md`` for the paper-versus-measured record.

Lazy exports: ``import repro`` loads no analysis layer.  The package
maps each exported name to the submodule defining it, and a
module-level ``__getattr__`` (PEP 562) imports that submodule when the
name is first read and binds the name, so a process loads only the
layers it uses (``TESTS`` too is built on first access).  A submodule
read as an attribute (``repro.engine``, ``repro.partition.packing``)
is imported the same way, so it resolves without its own import.
:mod:`repro.partition`, :mod:`repro.generation`, :mod:`repro.online`
and :mod:`repro.sim` export their names the same way, through
:func:`repro._lazy.lazy_exports`.  Where an exported name equals its
own submodule's name (``repro.generation.uunifast``,
``repro.online.replay``), the name stays the function after that
submodule is imported: the import system binds each submodule it loads
on its package, and such a package keeps the function instead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .model.components import DemandSource
    from .result import FeasibilityResult

__version__ = "1.2.0"

#: Exported name -> the submodule defining it, imported on first access.
_EXPORTS = {
    # engine
    "AnalysisContext": "engine",
    "AnalysisRequest": "engine",
    "BatchRunner": "engine",
    "TestDefinition": "engine",
    "TestKind": "engine",
    "TestRegistry": "engine",
    "default_registry": "engine",
    # models
    "SporadicTask": "model",
    "task": "model",
    "TaskSet": "model",
    "EventStream": "model",
    "EventStreamElement": "model",
    "EventStreamTask": "model",
    "DemandComponent": "model",
    "as_components": "model",
    "dump_taskset": "model",
    "load_taskset": "model",
    "dump_system": "model",
    "load_system": "model",
    "load_any": "model",
    # partitioned multiprocessor
    "Platform": "partition",
    "PartitionedSystem": "partition",
    "pack": "partition",
    "minimum_cores": "partition",
    "verify_partition": "partition",
    "partitioned_edf_test": "partition",
    # results
    "FeasibilityResult": "result",
    "FailureWitness": "result",
    "Verdict": "result",
    # paper contribution
    "all_approx_test": "core",
    "dynamic_test": "core",
    "superposition_test": "core",
    "approximated_dbf": "core",
    "max_test_interval": "core",
    "superposition_bound": "core",
    "compare_bounds": "core",
    "LevelSchedule": "core",
    "RevisionPolicy": "core",
    # baselines and substrate
    "processor_demand_test": "analysis",
    "qpa_test": "analysis",
    "devi_test": "analysis",
    "liu_layland_test": "analysis",
    "utilization_of": "analysis",
    "dbf": "analysis",
    "first_overflow": "analysis",
    "feasibility_bound": "analysis",
    "BoundMethod": "analysis",
    "baruah_bound": "analysis",
    "george_bound": "analysis",
    "synchronous_busy_period": "analysis",
    "busy_period_of_components": "analysis",
    # sensitivity and load
    "system_load": "analysis",
    "minimum_processor_speed": "analysis",
    "critical_scaling_factor": "analysis",
    "wcet_slack": "analysis",
    "minimum_feasible_deadline": "analysis",
    "approx_test_with_error": "core",
}

__all__ = ["analyze", "TESTS", "__version__", *_EXPORTS]
_export, __dir__ = lazy_exports(__name__, _EXPORTS)


def __getattr__(name: str) -> Any:
    if name != "TESTS":
        return _export(name)
    global TESTS
    # Legacy mapping of test names to their direct entry points.  New
    # code should go through :func:`analyze` / :func:`repro.engine.analyze`,
    # which resolve the same tests (plus ``superpos`` and ``rtc``) from
    # the engine registry with option validation.
    TESTS = {
        "all-approx": _export("all_approx_test"),
        "dynamic": _export("dynamic_test"),
        "processor-demand": _export("processor_demand_test"),
        "qpa": _export("qpa_test"),
        "devi": _export("devi_test"),
        "liu-layland": _export("liu_layland_test"),
    }
    return TESTS


def analyze(
    source: DemandSource,
    method: str = "all-approx",
    level: Optional[int] = None,
    **options,
) -> FeasibilityResult:
    """Run a feasibility test by name — the one-call entry point.

    Dispatches through the engine registry
    (:func:`repro.engine.analyze`), so every registered test — including
    extensions registered at runtime — is reachable and its options are
    validated against the test's schema.

    Args:
        source: a :class:`TaskSet`, a sequence of tasks or event-stream
            tasks, or raw demand components.
        method: a registered test name: ``"all-approx"`` (default; the
            paper's strongest test), ``"dynamic"``,
            ``"processor-demand"``, ``"qpa"``, ``"devi"``,
            ``"liu-layland"``, ``"superpos"``, ``"rtc"``, ...
        level: approximation level, required for ``method="superpos"``.
        **options: further test options (e.g. ``bound_method=``,
            ``revision_policy=``), validated by the registry.

    Returns:
        The test's :class:`FeasibilityResult`.

    Raises:
        ValueError: for an unknown method name, an unknown or invalid
            option, or a missing/extra ``level`` argument.
    """
    from .engine import analyze as run

    if method == "superpos":
        if level is None:
            raise ValueError('method "superpos" requires a level')
        return run(source, method, level=level, **options)
    if level is not None:
        raise ValueError(
            f'level is only meaningful for method "superpos", not {method!r}'
        )
    return run(source, method, **options)
