"""Unit tests for the shared preflight pipeline (AnalysisContext)."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import dbf, feasibility_bound
from repro.analysis.bounds import BoundMethod
from repro.analysis.busy_period import busy_period_of_components
from repro.engine import (
    AnalysisContext,
    analyze,
    clear_context_cache,
    context_cache_info,
    fingerprint_of,
    preflight,
)
from repro.kernel import SCALE_CAP, DemandKernel
from repro.model import (
    DemandComponent,
    EventStream,
    EventStreamTask,
    ModelError,
    SporadicTask,
    TaskSet,
    as_components,
    task,
    total_utilization,
)
from repro.result import Verdict


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_context_cache()
    yield
    clear_context_cache()


class TestContextCache:
    def test_same_system_reuses_context(self, simple_taskset):
        first = AnalysisContext.of(simple_taskset)
        second = AnalysisContext.of(simple_taskset)
        assert first is second
        info = context_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_equal_parameters_share_context(self):
        a = TaskSet.of((2, 6, 10), (3, 11, 16))
        b = TaskSet.of((2, 6, 10), (3, 11, 16))
        assert AnalysisContext.of(a) is AnalysisContext.of(b)

    def test_different_systems_do_not_collide(self, simple_taskset):
        other = TaskSet.of((1, 1, 2), (1, 1, 2))
        assert AnalysisContext.of(simple_taskset) is not AnalysisContext.of(other)

    def test_context_passthrough(self, simple_taskset):
        ctx = AnalysisContext.of(simple_taskset)
        assert AnalysisContext.of(ctx) is ctx

    def test_eviction_keeps_cache_bounded(self):
        from repro.engine import context as context_module

        for i in range(context_module._CACHE_MAX + 10):
            AnalysisContext.of(TaskSet.of((1, i + 5, i + 10)))
        assert context_cache_info()["size"] <= context_cache_info()["max_size"]

    def test_concurrent_access_is_safe(self, monkeypatch):
        """The service layer hits the LRU from many threads; with a tiny
        cache forcing constant eviction, hits racing evictions must not
        raise (the historical failure was KeyError from move_to_end)."""
        import threading

        from repro.engine import context as context_module

        monkeypatch.setattr(context_module, "_CACHE_MAX", 4)
        errors = []

        def hammer(seed: int) -> None:
            try:
                for i in range(300):
                    value = (seed * 7 + i) % 12
                    AnalysisContext.of(TaskSet.of((1, value + 5, value + 10)))
            except Exception as err:  # pragma: no cover - the regression
                errors.append(err)

        threads = [
            threading.Thread(target=hammer, args=(s,)) for s in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert context_cache_info()["size"] <= 4

    def test_fingerprint_of_matches_context_without_caching(
        self, simple_taskset
    ):
        from repro.engine import fingerprint_of

        before = context_cache_info()["misses"]
        fingerprint = fingerprint_of(simple_taskset)
        assert context_cache_info()["misses"] == before  # no cache traffic
        ctx = AnalysisContext.of(simple_taskset)
        assert fingerprint == ctx.fingerprint
        assert fingerprint_of(ctx) == ctx.fingerprint


def _as_component_keys(source):
    return tuple(
        (c.wcet, c.first_deadline, c.period, c.source) for c in as_components(source)
    )


_positive = st.one_of(
    st.integers(1, 60),
    st.fractions(min_value=Fraction(1, 8), max_value=60, max_denominator=12),
    st.sampled_from([0.5, 2.25, 7.75]),
)
_wcet = st.one_of(st.just(0), _positive)
_names = st.sampled_from(["", "", "a", "b", "c"])
_tasks = st.builds(
    SporadicTask, wcet=_wcet, deadline=_positive, period=_positive, name=_names
)
_components = st.builds(
    DemandComponent,
    wcet=_wcet,
    first_deadline=_positive,
    period=st.one_of(st.none(), _positive),
    source=_names,
)
_stream_tasks = st.builds(
    EventStreamTask,
    stream=st.builds(
        EventStream.burst,
        count=st.integers(1, 3),
        spacing=st.integers(1, 3),
        period=st.integers(10, 40),
    ),
    wcet=_wcet,
    deadline=_positive,
    name=_names,
)
_tasksets = st.lists(
    st.tuples(_wcet, _positive, _positive, st.booleans()), max_size=8
).map(
    lambda rows: TaskSet(
        SporadicTask(c, d, t, name=f"n{i}" if named else "")
        for i, (c, d, t, named) in enumerate(rows)
    )
)
_sources = st.one_of(
    _tasksets,
    st.lists(_tasks, max_size=8),
    st.lists(_components, max_size=8),
    st.lists(_stream_tasks, max_size=3),
    st.lists(st.one_of(_tasks, _components, _stream_tasks), max_size=8),
)


class TestFingerprint:
    @given(_sources)
    def test_fingerprint_is_the_component_key(self, source):
        assert fingerprint_of(source) == _as_component_keys(source)

    @pytest.mark.parametrize("bad", [42, "task", (1, 2, 3)])
    def test_bad_entries_raise_the_same_model_error(self, bad):
        source = [SporadicTask(1, 5, 10), bad]
        with pytest.raises(ModelError) as expected:
            as_components(source)
        with pytest.raises(ModelError) as got:
            fingerprint_of(source)
        assert str(got.value) == str(expected.value)
        with pytest.raises(ModelError) as via_context:
            AnalysisContext.of(source)
        assert str(via_context.value) == str(expected.value)

    def test_cache_hits_build_no_components(self, monkeypatch):
        """Equal but distinct task sets (one per test of a battery) find
        the first one's context by its fingerprint alone."""
        tasks = [(2, 6, 10), (3, 11, 16), (5, 25, 25), (0, 4, 8)]
        first = AnalysisContext.of(TaskSet.of(*tasks))
        built = []
        original = DemandComponent.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(DemandComponent, "__post_init__", counting)
        for _ in range(3):
            assert AnalysisContext.of(TaskSet.of(*tasks)) is first
        assert built == []
        assert context_cache_info()["hits"] == 3

    def test_cold_battery_builds_no_components(self, monkeypatch):
        """A miss builds the context from the fingerprint rows and the
        kernel from the same rows: the battery's tests never need the
        `DemandComponent` objects."""
        built = []
        original = DemandComponent.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(DemandComponent, "__post_init__", counting)
        rows = [(2, 6, 10), (3, 11, 16), (5, 25, 25), (0, 4, 8), (1, 30, 70)]
        for test, options in [
            ("devi", {}),
            ("dynamic", {}),
            ("all-approx", {}),
            ("processor-demand", {"bound_method": "baruah"}),
            ("processor-demand", {"bound_method": "best"}),
            ("qpa", {}),
        ]:
            clear_context_cache()
            analyze(TaskSet.of(*rows), test=test, **options)
            assert context_cache_info()["misses"] == 1
        assert built == []

    def test_generator_source_is_read_once(self):
        tasks = [SporadicTask(2, 6, 10), SporadicTask(3, 11, 16, name="x")]
        ctx = AnalysisContext.of(t for t in tasks)
        assert ctx.components == tuple(as_components(tasks))
        assert ctx.fingerprint == fingerprint_of(tasks)
        assert AnalysisContext.of(iter(tasks)) is ctx
        clear_context_cache()
        assert AnalysisContext.of(t for t in tasks).fingerprint == ctx.fingerprint


def _reference_compile(components):
    """The kernel's grid as the per-component compile computed it: the
    lcm of every denominator, each value times it (or the values as
    given past ``SCALE_CAP``), ``0`` for a one-shot's period."""
    scale = 1
    for c in components:
        scale = lcm(scale, c.wcet.denominator, c.first_deadline.denominator)
        if c.period is not None:
            scale = lcm(scale, c.period.denominator)
    exact = scale > SCALE_CAP

    def grid(value):
        return value if exact else int(value * scale)

    return (
        None if exact else scale,
        tuple(grid(c.first_deadline) for c in components),
        tuple(0 if c.period is None else grid(c.period) for c in components),
        tuple(grid(c.wcet) for c in components),
    )


_KERNEL_VIEWS = ("n", "scale", "d0s", "periods", "wcets")
_SORTED_VIEWS = ("_by_deadline",)


class TestNormalForm:
    """The context's components and kernel come from its fingerprint
    rows, and equal what the components themselves give."""

    def _check(self, source):
        ctx = AnalysisContext.of(source)
        components = tuple(as_components(source))
        assert ctx.components == components
        assert ctx.utilization == total_utilization(components)
        kernel, expected = ctx.kernel(), DemandKernel(components)
        for view in _KERNEL_VIEWS + _SORTED_VIEWS:
            assert getattr(kernel, view) == getattr(expected, view), view
        grid = (kernel.scale, kernel.d0s, kernel.periods, kernel.wcets)
        reference = _reference_compile(components)
        assert grid == reference
        assert [list(map(type, v)) for v in grid[1:]] == [
            list(map(type, v)) for v in reference[1:]
        ]
        return kernel

    @given(_sources)
    def test_rows_give_the_components_and_the_kernel(self, source):
        clear_context_cache()
        self._check(source)

    @pytest.mark.parametrize(
        "source, scale",
        [
            (TaskSet.of((2, 6, 10), (3, 11, 16), (5, 25, 25)), 1),
            ([DemandComponent(2, 6, 10), DemandComponent(1, 5, None, "shot")], 1),
            ([EventStreamTask(EventStream.burst(3, 2, 40), wcet=2, deadline=9)], 1),
            ([SporadicTask(Fraction(1, 3), Fraction(5, 2), 7), task(0.5, 3, 4)], 6),
            # Denominators whose lcm is past SCALE_CAP: the exact grid.
            ([task(Fraction(1, (1 << p) - 1), 1, 2) for p in (61, 89, 107)], None),
            ([], 1),
        ],
        ids=["tasks", "one-shot", "event-stream", "rational", "past-cap", "empty"],
    )
    def test_fixed_sources(self, source, scale):
        assert self._check(source).scale == scale


class TestMemoizedQuantities:
    def test_bounds_match_feasibility_bound(self, simple_taskset):
        ctx = AnalysisContext.of(simple_taskset)
        components = as_components(simple_taskset)
        for method in BoundMethod:
            assert ctx.bound(method) == feasibility_bound(components, method)

    def test_default_bound_is_best(self, simple_taskset):
        ctx = AnalysisContext.of(simple_taskset)
        assert ctx.bound() == ctx.bound(BoundMethod.BEST)

    def test_dbf_matches_exact(self, simple_taskset):
        kernel = AnalysisContext.of(simple_taskset).kernel()
        components = as_components(simple_taskset)
        for interval in (1, 6, 10, 11, 16, 25, 100, 1000):
            assert kernel.dbf(interval) == dbf(components, interval)

    def test_busy_period_matches(self, simple_taskset):
        ctx = AnalysisContext.of(simple_taskset)
        assert ctx.busy_period() == busy_period_of_components(
            as_components(simple_taskset)
        )

    def test_utilization_is_exact_total(self, simple_taskset):
        ctx = AnalysisContext.of(simple_taskset)
        assert ctx.utilization == simple_taskset.utilization


class TestPreflight:
    def test_accepts_feasible_candidate(self, simple_taskset):
        ctx, early = preflight(simple_taskset, "any")
        assert early is None
        assert not ctx.is_overloaded

    def test_overload_short_circuits(self):
        overloaded = TaskSet.of((3, 2, 2), (3, 2, 2))
        ctx, early = preflight(overloaded, "mytest")
        assert ctx.is_overloaded
        assert early is not None
        assert early.verdict is Verdict.INFEASIBLE
        assert early.test_name == "mytest"
        assert early.details["reason"] == "U > 1"

    def test_overload_report_knobs(self):
        overloaded = TaskSet.of((3, 2, 2), (3, 2, 2))
        _, early = preflight(
            overloaded,
            "devi-like",
            overload_iterations=1,
            overload_reason=None,
            overload_max_level=4,
        )
        assert early.iterations == 1
        assert early.max_level == 4
        assert "reason" not in early.details
