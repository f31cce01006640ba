"""Test registry: every feasibility test invocable by string name.

The paper's contribution is a *family* of tests measured head-to-head;
the registry is the single seam through which all of them — the paper's
algorithms, the baselines, and the later comparators — are reached.  A
registered test carries a :class:`TestDefinition`: its name, whether it
is exact or sufficient, and a declarative options schema that
:func:`analyze` validates before dispatch.  Everything above this layer
(the experiment batteries, the batch runner, the CLI) speaks in
``(test name, options)`` pairs, which is what makes batched and
multiprocess execution possible: names and option dictionaries pickle,
closures do not.

Registering a new backend is one :meth:`TestRegistry.register` call;
batching, caching, the CLI and the harness pick it up without
modification.  The partitioned multiprocessor tests of
:mod:`repro.partition` (``partitioned-edf`` and the global-EDF bounds,
in the Bonifaci & Marchetti-Spaccamela line) enter the engine exactly
this way.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple

from ..model.components import DemandSource
from ..obs import ITERATION_BUCKETS
from ..obs import counter as _obs_counter
from ..obs import histogram as _obs_histogram
from ..obs import span as _obs_span
from ..result import FeasibilityResult

__all__ = [
    "TestKind",
    "OptionSpec",
    "TestDefinition",
    "TestRegistry",
    "default_registry",
    "analyze",
    "HEURISTICS",
]

#: The bin-packing heuristics of the ``partitioned-edf`` test (see
#: :mod:`repro.partition.packing`); the ``*d`` variants sort by
#: decreasing utilization first.
HEURISTICS: Tuple[str, ...] = ("ff", "bf", "wf", "nf", "ffd", "bfd", "wfd", "nfd")


# Every analysis — CLI, batch runner, service jobs, experiment
# batteries — funnels through TestRegistry.run, so this is where the
# per-test tallies and the iteration-count distributions (the paper's
# reported unit of work) are recorded, under the engine.analyze span.
_ANALYSES = _obs_counter(
    "repro_engine_analyses_total",
    "Feasibility analyses run through the engine, by test.",
    labelnames=("test",),
)
_TEST_ITERATIONS = _obs_histogram(
    "repro_engine_test_iterations",
    "Iterations reported per analysis, by test.",
    labelnames=("test",),
    buckets=ITERATION_BUCKETS,
)


class TestKind(enum.Enum):
    """What a test's verdicts mean."""

    #: FEASIBLE and INFEASIBLE are both proofs.
    EXACT = "exact"
    #: FEASIBLE is a proof; rejection yields UNKNOWN (except ``U > 1``).
    SUFFICIENT = "sufficient"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Tell pytest these are not test classes despite the names (set outside
#: the Enum body, where a plain assignment would become a member).
TestKind.__test__ = False

_UNSET = object()


@dataclass(frozen=True)
class OptionSpec:
    """One declarative option of a registered test.

    Attributes:
        name: keyword argument name the runner accepts.
        types: accepted value types (after coercion).
        default: value used when the caller omits the option; leave unset
            for required options.
        choices: closed set of allowed values, when applicable.
        coerce: optional pre-validation converter (e.g. ``"baruah"`` →
            :class:`~repro.analysis.bounds.BoundMethod`).
        help: one-line description for the CLI and docs.
    """

    name: str
    types: Tuple[type, ...]
    default: Any = _UNSET
    choices: Optional[Tuple[Any, ...]] = None
    coerce: Optional[Callable[[Any], Any]] = None
    help: str = ""

    @property
    def required(self) -> bool:
        return self.default is _UNSET

    def validate(self, value: Any, test: str) -> Any:
        if self.coerce is not None:
            try:
                value = self.coerce(value)
            except (TypeError, ValueError) as err:
                raise ValueError(
                    f"invalid value {value!r} for option {self.name!r} "
                    f"of test {test!r}: {err}"
                ) from None
        # bool subclasses int: JSON ``true`` is no level or interval.
        if not isinstance(value, self.types) or (
            isinstance(value, bool) and bool not in self.types
        ):
            expected = "/".join(t.__name__ for t in self.types)
            raise ValueError(
                f"option {self.name!r} of test {test!r} expects {expected}, "
                f"got {type(value).__name__}"
            )
        if self.choices is not None and value not in self.choices:
            allowed = ", ".join(repr(c) for c in self.choices)
            raise ValueError(
                f"option {self.name!r} of test {test!r} must be one of "
                f"{allowed}; got {value!r}"
            )
        return value


@dataclass(frozen=True)
class TestDefinition:
    """A feasibility test as the engine sees it."""

    #: Tell pytest this is not a test class despite the name.
    __test__ = False

    name: str
    kind: TestKind
    runner: Callable[..., FeasibilityResult]
    options: Tuple[OptionSpec, ...] = ()
    summary: str = ""

    def option(self, name: str) -> Optional[OptionSpec]:
        for spec in self.options:
            if spec.name == name:
                return spec
        return None

    @property
    def runnable_without_options(self) -> bool:
        """``True`` when every option has a default (``analyze --all``)."""
        return all(not spec.required for spec in self.options)

    def resolve_options(self, options: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate *options* against the schema and apply defaults."""
        known = {spec.name for spec in self.options}
        unknown = sorted(set(options) - known)
        if unknown:
            allowed = ", ".join(sorted(known)) or "<none>"
            raise ValueError(
                f"unknown option(s) {', '.join(map(repr, unknown))} for test "
                f"{self.name!r}; allowed: {allowed}"
            )
        resolved: Dict[str, Any] = {}
        for spec in self.options:
            if spec.name in options:
                resolved[spec.name] = spec.validate(options[spec.name], self.name)
            elif spec.required:
                raise ValueError(
                    f"test {self.name!r} requires option {spec.name!r}"
                )
            else:
                resolved[spec.name] = spec.default
        return resolved


class TestRegistry:
    """Name → :class:`TestDefinition` mapping with validated dispatch."""

    #: Tell pytest this is not a test class despite the name.
    __test__ = False

    def __init__(self) -> None:
        self._definitions: Dict[str, TestDefinition] = {}

    def register(self, definition: TestDefinition) -> TestDefinition:
        if definition.name in self._definitions:
            raise ValueError(f"test {definition.name!r} is already registered")
        self._definitions[definition.name] = definition
        return definition

    def get(self, name: str) -> TestDefinition:
        try:
            return self._definitions[name]
        except KeyError:
            known = ", ".join(sorted(self._definitions))
            raise ValueError(
                f"unknown test {name!r}; available: {known}"
            ) from None

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._definitions))

    def definitions(self) -> Tuple[TestDefinition, ...]:
        return tuple(self._definitions[n] for n in self.names())

    def __contains__(self, name: object) -> bool:
        return name in self._definitions

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._definitions)

    def run(
        self, source: DemandSource, name: str, **options: Any
    ) -> FeasibilityResult:
        """Resolve *name*, validate *options*, run the test."""
        definition = self.get(name)
        resolved = definition.resolve_options(options)
        with _obs_span("engine.analyze", test=name):
            result = definition.runner(source, **resolved)
        _ANALYSES.labels(name).inc()
        _TEST_ITERATIONS.labels(name).observe(result.iterations or 0)
        return result


# ---------------------------------------------------------------------------
# The default registry
# ---------------------------------------------------------------------------

_DEFAULT: Optional[TestRegistry] = None


def _coerce_bound_method(value: Any) -> Any:
    from ..analysis.bounds import BoundMethod

    if isinstance(value, str):
        return BoundMethod(value)
    return value


def _on_first_run(module: str, name: str) -> Callable[..., FeasibilityResult]:
    """A runner that imports *name* from *module* (relative to this
    package) when it first runs, so building the registry loads no
    layer of a test the process never runs."""

    def run(source: DemandSource, **options: Any) -> FeasibilityResult:
        return getattr(import_module(module, __package__), name)(source, **options)

    return run


def _build_default_registry() -> TestRegistry:
    # Imports are local: the analysis/core test modules themselves import
    # the engine preflight, so the registry must not be a module-level
    # dependency of theirs.
    from fractions import Fraction

    from ..analysis.bounds import BoundMethod
    from ..analysis.devi import devi_test
    from ..analysis.processor_demand import processor_demand_test
    from ..analysis.qpa import qpa_test
    from ..analysis.utilization import liu_layland_test
    from ..core.all_approx import RevisionPolicy, all_approx_test
    from ..core.dynamic import LevelSchedule, dynamic_test
    from ..core.superposition import superposition_test

    bound_option = lambda default, help_text: OptionSpec(  # noqa: E731
        name="bound_method",
        types=(BoundMethod,),
        default=default,
        coerce=_coerce_bound_method,
        help=help_text,
    )
    time_types = (int, float, Fraction)

    registry = TestRegistry()
    registry.register(
        TestDefinition(
            name="devi",
            kind=TestKind.SUFFICIENT,
            runner=devi_test,
            summary="Devi's linear sufficient test (paper Def. 1)",
        )
    )
    registry.register(
        TestDefinition(
            name="liu-layland",
            kind=TestKind.SUFFICIENT,
            runner=liu_layland_test,
            summary="Utilization bound test (exact for D >= T)",
        )
    )
    registry.register(
        TestDefinition(
            name="processor-demand",
            kind=TestKind.EXACT,
            runner=processor_demand_test,
            options=(
                bound_option(
                    BoundMethod.BARUAH, "search bound (paper Def. 3: baruah)"
                ),
                OptionSpec(
                    name="max_interval",
                    types=time_types + (type(None),),
                    default=None,
                    help="hard cap overriding the computed bound",
                ),
            ),
            summary="Exact processor demand criterion (Baruah et al.)",
        )
    )
    registry.register(
        TestDefinition(
            name="qpa",
            kind=TestKind.EXACT,
            runner=qpa_test,
            options=(
                bound_option(BoundMethod.BEST, "search bound for the backward walk"),
            ),
            summary="Quick Processor-demand Analysis (Zhang & Burns 2009)",
        )
    )
    registry.register(
        TestDefinition(
            name="superpos",
            kind=TestKind.SUFFICIENT,
            runner=superposition_test,
            options=(
                OptionSpec(
                    name="level",
                    types=(int,),
                    help="approximation level x >= 1 (exact jobs per component)",
                ),
                bound_option(
                    BoundMethod.SUPERPOSITION, "search bound (paper Section 4.3)"
                ),
            ),
            summary="SuperPos(x) sufficient approximation (paper Def. 6)",
        )
    )
    registry.register(
        TestDefinition(
            name="dynamic",
            kind=TestKind.EXACT,
            runner=dynamic_test,
            options=(
                bound_option(
                    BoundMethod.SUPERPOSITION, "search bound (paper Section 4.3)"
                ),
                OptionSpec(
                    name="max_level",
                    types=(int, type(None)),
                    default=None,
                    help="level cap (verdict may degrade to UNKNOWN)",
                ),
                OptionSpec(
                    name="level_schedule",
                    types=(str,),
                    default=LevelSchedule.DOUBLE,
                    choices=(LevelSchedule.DOUBLE, LevelSchedule.INCREMENT),
                    help="how failures raise the level",
                ),
            ),
            summary="Dynamic Error exact test (paper Section 4.1)",
        )
    )
    registry.register(
        TestDefinition(
            name="all-approx",
            kind=TestKind.EXACT,
            runner=all_approx_test,
            options=(
                OptionSpec(
                    name="revision_policy",
                    types=(str,),
                    default=RevisionPolicy.LARGEST_ERROR,
                    choices=RevisionPolicy._ALL,
                    help="which approximation a failed check revokes first",
                ),
            ),
            summary="All-Approximated exact test (paper Section 4.2)",
        )
    )
    registry.register(
        TestDefinition(
            name="rtc",
            kind=TestKind.SUFFICIENT,
            runner=_on_first_run("..rtc.analysis", "rtc_feasibility_test"),
            options=(
                OptionSpec(
                    name="segments",
                    types=(int,),
                    default=3,
                    help="segment budget of the concave demand curve",
                ),
            ),
            summary="Segment-limited real-time-calculus test (paper Section 3.6)",
        )
    )
    cores_option = OptionSpec(
        name="cores",
        types=(int,),
        help="number of identical cores m >= 1",
    )
    registry.register(
        TestDefinition(
            name="partitioned-edf",
            kind=TestKind.SUFFICIENT,
            runner=_on_first_run("..partition.feasibility", "partitioned_edf_test"),
            options=(
                cores_option,
                OptionSpec(
                    name="heuristic",
                    types=(str,),
                    default="ffd",
                    choices=HEURISTICS,
                    help="bin-packing heuristic (ffd = first-fit decreasing)",
                ),
                OptionSpec(
                    name="admission",
                    types=(str,),
                    default="approx-dbf",
                    help="per-core admission predicate (built-in or any test name)",
                ),
                OptionSpec(
                    name="epsilon",
                    types=time_types + (type(None),),
                    default=None,
                    help="error bound of the approx-dbf admission (default 1/10)",
                ),
            ),
            summary="Partitioned EDF via demand-based bin packing",
        )
    )
    registry.register(
        TestDefinition(
            name="global-edf-density",
            kind=TestKind.SUFFICIENT,
            runner=_on_first_run("..partition.feasibility", "global_density_test"),
            options=(cores_option,),
            summary="Global EDF density bound (Bertogna et al. 2005)",
        )
    )
    registry.register(
        TestDefinition(
            name="global-edf-gfb",
            kind=TestKind.SUFFICIENT,
            runner=_on_first_run("..partition.feasibility", "global_gfb_test"),
            options=(cores_option,),
            summary="Goossens-Funk-Baruah global EDF bound (implicit deadlines)",
        )
    )
    return registry


def default_registry() -> TestRegistry:
    """The process-wide registry holding every shipped feasibility test."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = _build_default_registry()
    return _DEFAULT


def analyze(
    source: DemandSource,
    test: str = "all-approx",
    *,
    registry: Optional[TestRegistry] = None,
    **options: Any,
) -> FeasibilityResult:
    """Run any registered feasibility test by name.

    The single entry point of the analysis engine::

        analyze(taskset)                              # All-Approximated
        analyze(taskset, test="dynamic")
        analyze(taskset, test="superpos", level=3)
        analyze(taskset, test="processor-demand", bound_method="best")

    Args:
        source: task set, event-stream tasks, or demand components.
        test: registered test name (see
            :meth:`TestRegistry.names`).
        registry: registry to resolve against; defaults to the shipped
            :func:`default_registry`.
        **options: test options, validated against the test's schema.

    Raises:
        ValueError: unknown test name, unknown option, missing required
            option, or an option value failing validation.
    """
    reg = registry if registry is not None else default_registry()
    return reg.run(source, test, **options)
