"""Incremental kernel: add/remove must match a fresh compile exactly."""

import random
from fractions import Fraction

import pytest

from repro.kernel import DemandKernel, IncrementalKernel
from repro.model.components import DemandComponent


def _random_component(rng: random.Random) -> DemandComponent:
    flavour = rng.randrange(4)
    if flavour == 0:
        period = rng.randint(2, 40)
        return DemandComponent(
            wcet=rng.randint(1, period),
            first_deadline=rng.randint(1, period + 5),
            period=period,
        )
    if flavour == 1:
        period = rng.uniform(2, 40)
        return DemandComponent(
            wcet=rng.uniform(0.1, period),
            first_deadline=rng.uniform(0.5, period + 5),
            period=period,
        )
    if flavour == 2:
        period = Fraction(rng.randint(4, 200), rng.randint(1, 9))
        return DemandComponent(
            wcet=period * Fraction(rng.randint(1, 80), 100),
            first_deadline=period * Fraction(rng.randint(40, 130), 100),
            period=period,
        )
    return DemandComponent(  # one-shot
        wcet=rng.randint(1, 9), first_deadline=rng.randint(1, 30)
    )


def _coincident_components(d0: int = 6):
    """Three components sharing their first deadline, each with its own
    period and wcet, so a removal that picks the wrong one of them shows
    in the by-deadline views."""
    return [
        DemandComponent(wcet=1, first_deadline=d0, period=7),
        DemandComponent(wcet=2, first_deadline=d0, period=11),
        DemandComponent(wcet=Fraction(1, 3), first_deadline=d0, period=13),
    ]


def _views(kernel: DemandKernel):
    """The by-deadline rows in original units."""
    u = kernel.unscale
    return [(u(d), i, u(p), u(c)) for d, i, p, c in kernel._by_deadline]


def _assert_equivalent(incremental: IncrementalKernel, components) -> None:
    """Every observable primitive must match a freshly compiled kernel.

    The incremental kernel may sit on a *larger* grid (the scale never
    shrinks on removal), so raw arrays and the by-deadline views are
    compared after unscaling and the primitives through their
    original-unit interfaces.
    """
    fresh = DemandKernel(components)
    assert incremental.n == fresh.n
    assert [incremental.unscale(v) for v in incremental.d0s] == [
        fresh.unscale(v) for v in fresh.d0s
    ]
    assert [incremental.unscale(v) for v in incremental.wcets] == [
        fresh.unscale(v) for v in fresh.wcets
    ]
    assert [incremental.unscale(v) for v in incremental.periods] == [
        fresh.unscale(v) for v in fresh.periods
    ]
    assert list(incremental.rates) == list(fresh.rates)
    horizon = 200
    assert [incremental.dbf(t) for t in range(1, 40)] == [
        fresh.dbf(t) for t in range(1, 40)
    ]
    assert incremental.demand_profile(horizon) == fresh.demand_profile(horizon)
    assert incremental.first_overflow(horizon) == fresh.first_overflow(horizon)
    assert incremental.prev_deadline(horizon) == fresh.prev_deadline(horizon)
    assert incremental.count_steps(horizon) == fresh.count_steps(horizon)
    assert _views(incremental) == _views(fresh)
    for level in (1, 2, 5):
        assert incremental.superpos_scan(level, horizon) == (
            fresh.superpos_scan(level, horizon)
        ), level
    for floor in (0, 12, 45):
        assert incremental.qpa(horizon, floor=floor) == fresh.qpa(
            horizon, floor=floor
        ), floor


class TestIncrementalKernel:
    def test_add_matches_fresh_compile(self, rng):
        components = []
        kernel = IncrementalKernel(())
        for _ in range(25):
            component = _random_component(rng)
            components.append(component)
            index = kernel.add(component)
            assert index == len(components) - 1
        _assert_equivalent(kernel, components)

    def test_remove_span_matches_fresh_compile(self, rng):
        components = [_random_component(rng) for _ in range(20)]
        components[4:4] = _coincident_components()
        kernel = IncrementalKernel(components)
        # A span of coincident first deadlines, with components after it.
        kernel.remove_span(5, 2)
        del components[5:7]
        _assert_equivalent(kernel, components)
        # The newest component leaves right after its add (a departure
        # after its arrival, a rejected candidate).
        for component in (_random_component(rng), _coincident_components(2)[1]):
            kernel.add(component)
            kernel.remove_span(kernel.n - 1)
            _assert_equivalent(kernel, components)
        # Spans followed by fewer components than they hold.
        kernel.remove_span(len(components) - 4, 3)
        del components[-4:-1]
        _assert_equivalent(kernel, components)
        while components:
            start = rng.randrange(len(components))
            count = rng.randint(1, min(3, len(components) - start))
            kernel.remove_span(start, count)
            del components[start : start + count]
            _assert_equivalent(kernel, components)

    def test_interleaved_churn(self, rng):
        components = []
        kernel = IncrementalKernel(())
        for step in range(60):
            if components and rng.random() < 0.45:
                start = rng.randrange(len(components))
                kernel.remove_span(start, 1)
                del components[start]
            elif step % 7 == 3:
                # An arrival that leaves again at once: a tail removal
                # right after the add, between coincident deadlines.
                kernel.add(_coincident_components(9)[step % 3])
                kernel.remove_span(kernel.n - 1)
            else:
                component = _random_component(rng)
                if step % 5 == 0:
                    component = _coincident_components(9)[step % 3]
                components.append(component)
                kernel.add(component)
            if step % 10 == 9:
                _assert_equivalent(kernel, components)
        _assert_equivalent(kernel, components)

    def test_scale_grows_on_new_denominator(self):
        kernel = IncrementalKernel(
            [DemandComponent(wcet=1, first_deadline=2, period=4)]
        )
        assert kernel.scale == 1
        kernel.add(
            DemandComponent(
                wcet=Fraction(1, 3), first_deadline=Fraction(5, 2), period=3
            )
        )
        assert kernel.scale == 6
        # Existing entries were rescaled in place.
        assert kernel.d0s[0] == 12 and kernel.wcets[0] == 6

    def test_scale_does_not_shrink_on_removal(self):
        kernel = IncrementalKernel(
            [
                DemandComponent(wcet=1, first_deadline=2, period=4),
                DemandComponent(
                    wcet=Fraction(1, 3), first_deadline=Fraction(5, 2), period=3
                ),
            ]
        )
        assert kernel.scale == 6
        kernel.remove_span(1, 1)
        assert kernel.scale == 6  # still a valid (common-multiple) grid
        _assert_equivalent(
            kernel, [DemandComponent(wcet=1, first_deadline=2, period=4)]
        )

    def test_degrades_to_exact_fallback_past_scale_cap(self):
        primes = [(1 << 89) - 1, (1 << 107) - 1, (1 << 127) - 1]
        kernel = IncrementalKernel(
            [DemandComponent(wcet=1, first_deadline=5, period=8)]
        )
        components = [DemandComponent(wcet=1, first_deadline=5, period=8)]
        for i, p in enumerate(primes):
            component = DemandComponent(
                wcet=Fraction(1, p), first_deadline=Fraction(4, p) + i, period=3 + i
            )
            components.append(component)
            kernel.add(component)
        assert kernel.scale is None
        _assert_equivalent(kernel, components)
        # Mutations keep working on the exact path.
        kernel.remove_span(1, 2)
        del components[1:3]
        _assert_equivalent(kernel, components)

    def test_invalid_span_rejected(self):
        kernel = IncrementalKernel(
            [DemandComponent(wcet=1, first_deadline=2, period=4)]
        )
        with pytest.raises(ValueError):
            kernel.remove_span(0, 2)
        with pytest.raises(ValueError):
            kernel.remove_span(-1, 1)
        with pytest.raises(ValueError):
            kernel.remove_span(0, 0)
