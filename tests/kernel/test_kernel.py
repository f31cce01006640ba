"""Unit tests for the compiled demand kernel (repro.kernel)."""

from fractions import Fraction

import pytest

from repro.analysis.dbf import (
    dbf as reference_dbf,
    demand_profile as reference_profile,
    first_overflow as reference_first_overflow,
)
from repro.engine.context import AnalysisContext, clear_context_cache
from repro.kernel import SCALE_CAP, DemandKernel
from repro.model.components import DemandComponent, as_components
from repro.model.numeric import to_exact


def _mixed_components():
    return as_components(
        [
            DemandComponent(wcet=Fraction(1, 3), first_deadline=Fraction(5, 2), period=Fraction(7, 3)),
            DemandComponent(wcet=2, first_deadline=4, period=7),
            DemandComponent(wcet=1, first_deadline=3),  # one-shot
            DemandComponent(wcet=0.25, first_deadline=1.5, period=6.5),
            DemandComponent(wcet=1, first_deadline=4, period=9),  # coincident d0
        ]
    )


def _huge_scale_components():
    # Pairwise-coprime large denominators force the LCM past SCALE_CAP.
    primes = [(1 << 89) - 1, (1 << 107) - 1, (1 << 127) - 1]
    return as_components(
        [
            DemandComponent(
                wcet=Fraction(1, p), first_deadline=Fraction(4, p) + i, period=3 + i
            )
            for i, p in enumerate(primes)
        ]
        + [DemandComponent(wcet=1, first_deadline=5, period=8)]
    )


class TestCompilation:
    def test_integer_system_scale_one(self):
        kernel = DemandKernel(as_components([DemandComponent(1, 4, 9)]))
        assert kernel.scale == 1
        assert kernel.d0s == (4,) and kernel.periods == (9,) and kernel.wcets == (1,)

    def test_rational_system_integerizes(self):
        kernel = DemandKernel(_mixed_components())
        assert kernel.scale == 12
        assert all(isinstance(v, int) for v in kernel.d0s + kernel.periods + kernel.wcets)

    def test_one_shot_period_sentinel(self):
        kernel = DemandKernel(as_components([DemandComponent(1, 3)]))
        assert kernel.periods == (0,)
        assert kernel.rates == (Fraction(0),)

    def test_scale_cap_falls_back_to_exact_path(self):
        kernel = DemandKernel(_huge_scale_components())
        assert kernel.scale is None

    def test_empty_system(self):
        kernel = DemandKernel(())
        assert kernel.n == 0
        assert kernel.dbf(100) == 0
        assert kernel.first_overflow(100) == (None, None, 0)
        assert kernel.prev_deadline(100) is None
        assert kernel.min_d0_scaled is None

    def test_rates_match_component_utilizations(self):
        comps = _mixed_components()
        kernel = DemandKernel(comps)
        assert kernel.rates == tuple(Fraction(c.utilization) for c in comps)


@pytest.mark.parametrize("factory", [_mixed_components, _huge_scale_components])
class TestPrimitivesMatchReference:
    def test_dbf(self, factory):
        comps = factory()
        kernel = DemandKernel(comps)
        probes = [1, Fraction(5, 2), 3, Fraction(10, 3), 7.25, 40, 1000]
        for t in probes:
            assert kernel.dbf(t) == reference_dbf(comps, t)
        assert [kernel.dbf(t) for t in probes] == [
            reference_dbf(comps, t) for t in probes
        ]

    def test_demand_profile(self, factory):
        comps = factory()
        kernel = DemandKernel(comps)
        for bound in (10, Fraction(77, 2), 100):
            assert kernel.demand_profile(bound) == reference_profile(comps, bound)

    def test_first_overflow(self, factory):
        comps = factory()
        kernel = DemandKernel(comps)
        for bound in (10, Fraction(77, 2), 100):
            interval, demand, iterations = kernel.first_overflow(bound)
            reference = reference_first_overflow(comps, bound)
            if reference is None:
                assert interval is None and demand is None
                assert iterations == len(reference_profile(comps, bound))
            else:
                assert (interval, demand) == reference

    def test_prev_deadline(self, factory):
        comps = factory()
        kernel = DemandKernel(comps)
        limit = to_exact(120)
        while True:
            expected = _brute_prev(comps, limit)
            assert kernel.prev_deadline(limit) == expected
            if expected is None:
                break
            limit = expected

    def test_best_ratio(self, factory):
        comps = factory()
        kernel = DemandKernel(comps)
        horizon = 60
        expected = Fraction(1, 1000)
        for interval, demand in reference_profile(comps, horizon):
            ratio = Fraction(demand) / Fraction(interval)
            if ratio > expected:
                expected = ratio
        assert kernel.best_ratio(horizon, Fraction(1, 1000)) == expected

    def test_count_steps(self, factory):
        comps = factory()
        kernel = DemandKernel(comps)
        for bound in (10, Fraction(77, 2), 100):
            expected = sum(c.jobs_up_to(bound) for c in comps)
            assert kernel.count_steps(bound) == expected


def _brute_prev(comps, limit):
    best = None
    for c in comps:
        if c.first_deadline >= limit:
            continue
        if c.period is None:
            candidate = c.first_deadline
        else:
            steps = (limit - c.first_deadline) // c.period
            candidate = c.first_deadline + int(steps) * c.period
            if candidate >= limit:
                candidate -= c.period
        if best is None or candidate > best:
            best = candidate
    return best


class TestBackwardStep:
    def test_descending_limits_including_off_grid(self):
        comps = _mixed_components()
        kernel = DemandKernel(comps)
        # A QPA-like descent: deadline hops interleaved with off-grid
        # jumps (what `t = dbf(t)` produces).
        limits = [Fraction(199, 2), 80, Fraction(201, 4), 33, 32.75, 7, Fraction(5, 2)]
        for limit in limits:
            assert kernel.prev_deadline(limit) == _brute_prev(comps, to_exact(limit))

    def test_any_limit_order_and_limits_on_deadlines(self):
        # No state is kept between queries, so a limit may rise again;
        # a limit on a deadline (the one-shot's 3, the coincident 4)
        # gives the deadline below it.
        comps = _mixed_components()
        kernel = DemandKernel(comps)
        for limit in [4, 3, 50, Fraction(5, 2), 120, 4]:
            assert kernel.prev_deadline(limit) == _brute_prev(comps, to_exact(limit))

    def test_exhausts_to_none(self):
        comps = as_components([DemandComponent(1, 2, 5), DemandComponent(1, 3)])
        kernel = DemandKernel(comps)
        seen = []
        limit = to_exact(20)
        while True:
            limit = kernel.prev_deadline(limit)
            if limit is None:
                break
            seen.append(limit)
        assert seen == [17, 12, 7, 3, 2]


class TestQpaFloor:
    def test_walk_stops_feasible_once_below_the_floor(self):
        # dbf(1) = 2 overflows; the walk from 12 visits 10, 3, 2, 1.
        kernel = DemandKernel(
            as_components([DemandComponent(2, 1), DemandComponent(1, 10, 10)])
        )
        assert kernel.qpa(12) == ("infeasible", 1, 2, 4)
        assert kernel.qpa(12, floor=1) == ("infeasible", 1, 2, 4)
        assert kernel.qpa(12, floor=2) == ("feasible", None, None, 3)
        assert kernel.qpa(12, floor=Fraction(7, 2)) == ("feasible", None, None, 1)
        assert kernel.qpa(12, floor=11) == ("feasible", None, None, 0)
        assert DemandKernel(()).qpa(5, floor=2) == ("empty", None, None, 0)


class TestSuperposScan:
    def test_demand_too_wide_for_floats_walks_exactly(self):
        # After the first job switches to its envelope, the one-shot's
        # 2**1100 demand cannot enter the float screen.
        huge = 1 << 1100
        kernel = DemandKernel(
            as_components(
                [DemandComponent(1, 1, 2), DemandComponent(wcet=huge, first_deadline=2)]
            )
        )
        assert kernel.superpos_scan(1, 10) == (2, huge + Fraction(3, 2), 2, 2)

    def test_rejects_level_zero_and_accepts_empty_systems(self):
        with pytest.raises(ValueError, match="level"):
            DemandKernel(_mixed_components()).superpos_scan(0, 10)
        assert DemandKernel(()).superpos_scan(3, 10) == (None, None, 0, 0)


class TestContextIntegration:
    def test_kernel_cached_on_context(self):
        clear_context_cache()
        ctx = AnalysisContext.of([DemandComponent(1, 4, 9)])
        assert ctx.kernel() is ctx.kernel()
        # Same fingerprint -> same context -> same compiled kernel.
        again = AnalysisContext.of([DemandComponent(1, 4, 9)])
        assert again is ctx and again.kernel() is ctx.kernel()

    def test_context_kernel_dbf_matches_reference(self):
        clear_context_cache()
        comps = _mixed_components()
        ctx = AnalysisContext.of(comps)
        probes = [1, 3, Fraction(10, 3), 50]
        assert [ctx.kernel().dbf(t) for t in probes] == [
            reference_dbf(comps, t) for t in probes
        ]
