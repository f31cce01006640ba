"""Unit tests for the engine test registry and analyze() dispatch."""

import pytest

from repro.analysis.bounds import BoundMethod
from repro.engine import (
    OptionSpec,
    TestDefinition,
    TestKind,
    TestRegistry,
    analyze,
    default_registry,
)
from repro.result import FeasibilityResult, Verdict


EXPECTED_TESTS = {
    "all-approx",
    "devi",
    "dynamic",
    "global-edf-density",
    "global-edf-gfb",
    "liu-layland",
    "partitioned-edf",
    "processor-demand",
    "qpa",
    "rtc",
    "superpos",
}

#: Required options per test, for the run-everything sweep.
REQUIRED_OPTIONS = {
    "superpos": {"level": 2},
    "partitioned-edf": {"cores": 2},
    "global-edf-density": {"cores": 2},
    "global-edf-gfb": {"cores": 2},
}


class TestDefaultRegistry:
    def test_every_test_registered(self):
        assert set(default_registry().names()) == EXPECTED_TESTS

    def test_kinds(self):
        registry = default_registry()
        exact = {n for n in registry if registry.get(n).kind is TestKind.EXACT}
        assert exact == {"all-approx", "dynamic", "processor-demand", "qpa"}

    def test_every_test_runs_by_name(self, simple_taskset):
        registry = default_registry()
        for definition in registry.definitions():
            options = REQUIRED_OPTIONS.get(definition.name, {})
            result = analyze(simple_taskset, definition.name, **options)
            assert isinstance(result, FeasibilityResult)
            assert result.verdict in (Verdict.FEASIBLE, Verdict.UNKNOWN)

    def test_default_is_all_approx(self, simple_taskset):
        assert analyze(simple_taskset).test_name == "all-approx"


class TestLookupErrors:
    def test_unknown_name_lists_available(self, simple_taskset):
        with pytest.raises(ValueError, match="available.*all-approx"):
            analyze(simple_taskset, "nonesuch")

    def test_unknown_option_rejected(self, simple_taskset):
        with pytest.raises(ValueError, match="unknown option.*frobnicate"):
            analyze(simple_taskset, "dynamic", frobnicate=3)

    def test_missing_required_option(self, simple_taskset):
        with pytest.raises(ValueError, match="requires option 'level'"):
            analyze(simple_taskset, "superpos")

    def test_option_type_checked(self, simple_taskset):
        with pytest.raises(ValueError, match="expects int"):
            analyze(simple_taskset, "superpos", level="three")

    @pytest.mark.parametrize(
        "test, option",
        [
            ("superpos", "level"),
            ("dynamic", "max_level"),
            ("processor-demand", "max_interval"),
        ],
    )
    def test_bool_is_not_an_int_option(self, simple_taskset, test, option):
        options = {"level": 2} if test == "superpos" else {}
        options[option] = True
        with pytest.raises(ValueError, match=f"option '{option}'.*got bool"):
            analyze(simple_taskset, test, **options)

    def test_option_choices_checked(self, simple_taskset):
        with pytest.raises(ValueError, match="must be one of"):
            analyze(simple_taskset, "all-approx", revision_policy="random")

    def test_bad_bound_method_string(self, simple_taskset):
        with pytest.raises(ValueError, match="bound_method"):
            analyze(simple_taskset, "qpa", bound_method="tightest")


class TestOptionResolution:
    def test_bound_method_accepts_string(self, simple_taskset):
        by_enum = analyze(
            simple_taskset, "processor-demand", bound_method=BoundMethod.BEST
        )
        by_name = analyze(simple_taskset, "processor-demand", bound_method="best")
        assert by_enum == by_name

    def test_defaults_applied(self):
        definition = default_registry().get("processor-demand")
        resolved = definition.resolve_options({})
        assert resolved["bound_method"] is BoundMethod.BARUAH
        assert resolved["max_interval"] is None

    def test_runnable_without_options(self):
        registry = default_registry()
        needs_options = {
            d.name for d in registry.definitions() if not d.runnable_without_options
        }
        assert needs_options == set(REQUIRED_OPTIONS)


class TestCustomRegistry:
    def _toy_definition(self, name="toy"):
        def runner(source, margin=0):
            return FeasibilityResult(verdict=Verdict.FEASIBLE, test_name=name)

        return TestDefinition(
            name=name,
            kind=TestKind.SUFFICIENT,
            runner=runner,
            options=(OptionSpec(name="margin", types=(int,), default=0),),
        )

    def test_register_and_dispatch(self, simple_taskset):
        registry = TestRegistry()
        registry.register(self._toy_definition())
        result = analyze(simple_taskset, "toy", registry=registry, margin=2)
        assert result.test_name == "toy"

    def test_duplicate_registration_rejected(self):
        registry = TestRegistry()
        registry.register(self._toy_definition())
        with pytest.raises(ValueError, match="already registered"):
            registry.register(self._toy_definition())

    def test_membership_and_len(self):
        registry = TestRegistry()
        assert "toy" not in registry and len(registry) == 0
        registry.register(self._toy_definition())
        assert "toy" in registry and len(registry) == 1
