"""Randomized kernel ↔ component-path parity (the PR's acceptance net).

Over 200+ generated systems — mixed ``int`` / ``float`` / ``Fraction``
parameters, one-shot components, deliberately coincident deadlines —
the compiled kernel must reproduce the component-based reference
*bit-exactly*:

* ``dbf`` / ``first_overflow`` / ``prev_deadline`` against the
  reference oracles in :mod:`repro.analysis.dbf` and a brute-force
  backward scan;
* full ``FeasibilityResult`` equality (verdict, witness, iteration and
  interval counts, bound) for ``processor-demand`` and ``qpa`` invoked
  through the engine registry, against reference re-implementations of
  the pre-kernel walks kept verbatim in this file;
* verdict / iteration / interval / revision / witness equality for the
  rewired superposition and All-Approximated walks against their
  pre-kernel component-based loops (also kept verbatim below);
* full ``FeasibilityResult`` equality for the Dynamic test against its
  ``IntervalQueue``/``Fraction`` loop, and equal values and types for
  the closed-form bounds against their ``Fraction`` loops (both in
  ``reference_walks.py``), also on exact-grid systems and one-shot sets;
* equal results and types for ``superpos_scan`` over the two envelope
  representations the walk serves (integer weights over the lcm ``H``,
  and `Fraction` rates over ``H = 1`` as on the exact fallback grid);
* full ``FeasibilityResult`` equality for Devi's test on the kernel grid
  against its ``Fraction`` prefix loop (``reference_walks.py``), with
  the witness interval's and demand's types, on the random population,
  exact-grid systems, one-shot sets and tie-order sets.
"""

import random
from collections import deque
from fractions import Fraction

import pytest

from repro.analysis.bounds import (
    BoundMethod,
    baruah_bound,
    compare_bounds,
    feasibility_bound,
    george_bound,
    superposition_bound,
)
from repro.analysis.dbf import dbf as reference_dbf, dbf_points
from repro.analysis.devi import devi_test
from repro.core import all_approx_test, dynamic_test, superposition_test
from repro.engine import analyze
from repro.engine.context import AnalysisContext, clear_context_cache
from repro.generation import example_systems
from repro.core.superposition import approximated_dbf
from repro.kernel import DemandKernel, EnvelopeWalk
from repro.model.components import DemandComponent, as_components

from .reference_walks import (
    IntervalQueue,
    component_dbf,
    largest_deadline_below,
    reference_baruah_bound,
    reference_devi,
    reference_dynamic,
    reference_george_bound,
    reference_processor_demand,
    reference_qpa,
    reference_superposition_bound,
)

SET_COUNT = 220


def _random_value(rng: random.Random, lo: int, hi: int):
    """A value in [lo, hi] as int, dyadic float, or small Fraction."""
    kind = rng.randrange(3)
    base = rng.randint(lo, hi)
    if kind == 0:
        return base
    if kind == 1:
        return base + rng.choice([0.0, 0.25, 0.5, 0.75])
    return base + Fraction(rng.randint(0, 11), rng.choice([2, 3, 4, 5, 6, 7, 12]))


def _random_components(rng: random.Random):
    n = rng.randint(1, 12)
    comps = []
    for _ in range(n):
        period = _random_value(rng, 6, 60)
        wcet = _random_value(rng, 1, 4)
        deadline = _random_value(rng, 2, 50)
        if rng.random() < 0.2:
            comps.append(DemandComponent(wcet=wcet, first_deadline=deadline))
        else:
            comps.append(
                DemandComponent(wcet=wcet, first_deadline=deadline, period=period)
            )
    # Force coincident deadlines in roughly half the sets.
    if len(comps) >= 2 and rng.random() < 0.5:
        first = comps[0]
        comps.append(
            DemandComponent(
                wcet=1,
                first_deadline=first.first_deadline,
                period=comps[-1].period,
            )
        )
    return as_components(comps)


def _population():
    rng = random.Random(20050815)
    return [_random_components(rng) for _ in range(SET_COUNT)]


_POPULATION = _population()


# ----------------------------------------------------------------------
# Reference implementations of the superposition-family walks (the
# processor-demand / QPA references live in reference_walks.py, shared
# with the speedup benchmark).
# ----------------------------------------------------------------------


def reference_superposition(ctx, level, bound):
    """(verdict, witness interval, witness demand, iterations, intervals)."""
    components = ctx.components
    queue = IntervalQueue()
    jobs_queued = [0] * len(components)
    for idx, comp in enumerate(components):
        if comp.first_deadline <= bound:
            queue.push(comp.first_deadline, idx)
            jobs_queued[idx] = 1
    exact_demand = 0
    u_ready = Fraction(0)
    approx_base = Fraction(0)
    iterations = 0
    intervals = 0
    last_interval = None
    while queue:
        interval, idx = queue.pop()
        comp = components[idx]
        exact_demand += comp.wcet
        if jobs_queued[idx] < level:
            nxt = comp.next_deadline_after(interval)
            if nxt is not None and nxt <= bound:
                queue.push(nxt, idx)
                jobs_queued[idx] += 1
        else:
            rate = Fraction(comp.utilization)
            if rate:
                u_ready += rate
                approx_base += rate * Fraction(interval)
        iterations += 1
        if last_interval != interval:
            intervals += 1
            last_interval = interval
        value = exact_demand + u_ready * Fraction(interval) - approx_base
        if value > interval:
            return ("unknown", interval, value, iterations, intervals)
    return ("feasible", None, None, iterations, intervals)


def reference_all_approx(ctx, policy):
    """(verdict, witness interval, witness demand, iterations, intervals,
    revisions)."""
    components = ctx.components
    u = ctx.utilization
    backstop = ctx.busy_period() if u == 1 else None
    n = len(components)
    queue = IntervalQueue()
    jobs_counted = [0] * n
    approx_at = [None] * n
    approx_fifo = deque()
    for idx, comp in enumerate(components):
        queue.push(comp.first_deadline, idx)
    exact_demand = 0
    u_ready = Fraction(0)
    approx_base = Fraction(0)
    iterations = 0
    intervals = 0
    revisions = 0
    last_interval = None

    def pick(interval):
        if policy == "fifo":
            return approx_fifo.popleft()
        if policy == "largest_error":
            best = max(
                approx_fifo,
                key=lambda j: components[j].linear_envelope(interval)
                - components[j].dbf(interval),
            )
        else:
            best = max(approx_fifo, key=lambda j: Fraction(components[j].utilization))
        approx_fifo.remove(best)
        return best

    while queue:
        interval, idx = queue.pop()
        if backstop is not None and interval > backstop:
            break
        comp = components[idx]
        exact_demand += comp.wcet
        jobs_counted[idx] += 1
        iterations += 1
        if last_interval != interval:
            intervals += 1
            last_interval = interval
        value = exact_demand + u_ready * Fraction(interval) - approx_base
        while value > interval:
            if not approx_fifo:
                return (
                    "infeasible",
                    interval,
                    component_dbf(components, interval),
                    iterations,
                    intervals,
                    revisions,
                )
            j = pick(interval)
            comp_j = components[j]
            rate = Fraction(comp_j.utilization)
            u_ready -= rate
            approx_base -= rate * Fraction(approx_at[j])
            approx_at[j] = None
            jobs_now = comp_j.jobs_up_to(interval)
            exact_demand += (jobs_now - jobs_counted[j]) * comp_j.wcet
            jobs_counted[j] = jobs_now
            nxt = comp_j.next_deadline_after(interval)
            if nxt is not None:
                queue.push(nxt, j)
            revisions += 1
            iterations += 1
            value = exact_demand + u_ready * Fraction(interval) - approx_base
        if comp.period is not None:
            rate = Fraction(comp.utilization)
            u_ready += rate
            approx_base += rate * Fraction(interval)
            approx_at[idx] = interval
            approx_fifo.append(idx)
    return ("feasible", None, None, iterations, intervals, revisions)


def _sample_probes(rng, comps, bound):
    probes = [bound, bound + 1]
    for c in comps[:4]:
        probes.append(c.first_deadline)
        if c.period is not None:
            probes.append(c.first_deadline + 2 * c.period)
    probes.extend(_random_value(rng, 1, 80) for _ in range(4))
    return probes


def test_population_is_diverse():
    assert len(_POPULATION) >= 200
    assert any(any(c.period is None for c in comps) for comps in _POPULATION)
    assert any(
        len({c.first_deadline for c in comps}) < len(comps) for comps in _POPULATION
    )
    scales = {DemandKernel(comps).scale for comps in _POPULATION}
    assert 1 in scales and len(scales) > 3


@pytest.mark.parametrize("index", range(SET_COUNT))
def test_primitives_and_registry_parity(index):
    comps = _POPULATION[index]
    rng = random.Random(index)
    clear_context_cache()
    ctx = AnalysisContext.of(comps)
    kernel = ctx.kernel()

    bound = ctx.bound(BoundMethod.BEST) if ctx.utilization <= 1 else 120

    # Point primitives against the component oracles.
    probes = _sample_probes(rng, comps, bound)
    assert [kernel.dbf(t) for t in probes] == [reference_dbf(comps, t) for t in probes]
    for t in probes[:5]:
        assert kernel.dbf(t) == reference_dbf(comps, t)

    # Forward walk: first_overflow against the incremental point stream.
    expected_overflow = None
    expected_steps = 0
    for interval, demand in dbf_points(comps, bound):
        expected_steps += 1
        if demand > interval:
            expected_overflow = (interval, demand)
            break
    interval, demand, iterations = kernel.first_overflow(bound)
    assert iterations == expected_steps
    if expected_overflow is None:
        assert interval is None and demand is None
    else:
        assert (interval, demand) == expected_overflow

    # Backward walk: QPA's backward step against the full rescan.
    limit = bound + 1
    for _ in range(30):
        expected = largest_deadline_below(comps, limit)
        assert kernel.prev_deadline(limit) == expected
        if expected is None:
            break
        limit = expected

    if ctx.utilization > 1:
        return  # both tests short-circuit in preflight; nothing to compare

    # Registry-level parity: verdict, witness, iterations, bounds.
    pda = analyze(ctx, test="processor-demand")
    verdict, w_interval, w_demand, its = reference_processor_demand(
        ctx, ctx.bound(BoundMethod.BARUAH)
    )
    assert pda.verdict.value == verdict
    assert pda.iterations == its and pda.intervals_checked == its
    if w_interval is not None:
        assert pda.witness is not None
        assert pda.witness.interval == w_interval
        assert pda.witness.demand == w_demand
        assert pda.witness.exact
    else:
        assert pda.witness is None

    qpa = analyze(ctx, test="qpa")
    verdict, w_interval, w_demand, its = reference_qpa(
        ctx, ctx.bound(BoundMethod.BEST)
    )
    assert qpa.verdict.value == verdict
    assert qpa.iterations == its
    if w_interval is not None:
        assert qpa.witness is not None
        assert qpa.witness.interval == w_interval
        assert qpa.witness.demand == w_demand
    else:
        assert qpa.witness is None


@pytest.mark.parametrize("index", range(0, SET_COUNT, 2))
def test_superposition_family_parity(index):
    """The rewired superposition / All-Approximated walks vs their
    pre-kernel component loops: verdicts, counts, witnesses."""
    comps = _POPULATION[index]
    clear_context_cache()
    ctx = AnalysisContext.of(comps)
    if ctx.utilization > 1:
        return  # preflight short-circuits before any walk

    for level in (1, 3):
        result = superposition_test(ctx, level)
        verdict, w_interval, w_demand, its, ivs = reference_superposition(
            ctx, level, ctx.bound(BoundMethod.SUPERPOSITION)
        )
        assert result.verdict.value == verdict, (index, level)
        assert (result.iterations, result.intervals_checked) == (its, ivs)
        if w_interval is not None:
            assert result.witness.interval == w_interval
            assert result.witness.demand == w_demand
        else:
            assert result.witness is None

    for policy in ("largest_error", "fifo", "largest_utilization"):
        result = all_approx_test(ctx, revision_policy=policy)
        verdict, w_interval, w_demand, its, ivs, revs = reference_all_approx(
            ctx, policy
        )
        assert result.verdict.value == verdict, (index, policy)
        assert (result.iterations, result.intervals_checked, result.revisions) == (
            its,
            ivs,
            revs,
        )
        if w_interval is not None:
            assert result.witness.interval == w_interval
            assert result.witness.demand == w_demand
        else:
            assert result.witness is None


#: Sets (tasks as (C, D, T), T None for one-shots) where popping
#: coincident deadlines in index order instead of push order would
#: change the failing iteration and the witness demand — 3 of 13,493
#: random small sets at U < 1; the random population holds none.
_TIE_ORDER_SETS = [
    ([(2, 6, None), (2, 6, 7), (1, 4, 3), (2, 10, None), (3, 10, 15)], 3),
    ([(3, 3, None), (3, 9, None), (1, 6, 3), (2, 5, 13), (3, 9, 6)], 2),
    ([(3, 3, 5), (1, 4, 4), (2, 8, None)], 2),
]


@pytest.mark.parametrize("spec, level", _TIE_ORDER_SETS)
def test_superposition_ties_pop_in_push_order(spec, level):
    comps = as_components(
        [DemandComponent(wcet=c, first_deadline=d, period=t) for c, d, t in spec]
    )
    clear_context_cache()
    ctx = AnalysisContext.of(comps)
    bound = ctx.bound(BoundMethod.SUPERPOSITION)
    result = superposition_test(ctx, level)
    verdict, w_interval, w_demand, its, ivs = reference_superposition(ctx, level, bound)
    assert verdict == "unknown"
    assert (result.verdict.value, result.iterations, result.intervals_checked) == (
        verdict,
        its,
        ivs,
    )
    assert (result.witness.interval, result.witness.demand) == (w_interval, w_demand)
    _assert_same_superpos_scans(comps, level, bound)


def test_superposition_parity_on_the_exact_grid():
    """Systems whose denominators push the scale past SCALE_CAP walk the
    exact path; it must match the component-based reference too."""
    primes = [(1 << 89) - 1, (1 << 107) - 1, (1 << 127) - 1]
    base = [
        DemandComponent(wcet=Fraction(1, p), first_deadline=Fraction(4, p) + i, period=3 + i)
        for i, p in enumerate(primes)
    ] + [
        DemandComponent(wcet=1, first_deadline=5, period=8),
        DemandComponent(wcet=1, first_deadline=5, period=6),
        DemandComponent(wcet=Fraction(1, 2), first_deadline=5),
    ]
    extras = [
        [],
        [DemandComponent(wcet=3, first_deadline=4, period=10)],
        [  # SuperPos(1) fails, SuperPos(3) accepts
            DemandComponent(wcet=2, first_deadline=6, period=9),
            DemandComponent(wcet=2, first_deadline=7, period=7),
        ],
    ]
    outcomes = set()
    for extra in extras:
        clear_context_cache()
        ctx = AnalysisContext.of(as_components(base + extra))
        assert ctx.kernel().scale is None
        for level in (1, 3):
            result = superposition_test(ctx, level)
            verdict, w_interval, w_demand, its, ivs = reference_superposition(
                ctx, level, ctx.bound(BoundMethod.SUPERPOSITION)
            )
            outcomes.add(verdict)
            assert result.verdict.value == verdict
            assert (result.iterations, result.intervals_checked) == (its, ivs)
            if w_interval is not None:
                assert result.witness.interval == w_interval
                assert result.witness.demand == w_demand
    assert outcomes == {"feasible", "unknown"}


# ----------------------------------------------------------------------
# Integer envelope sums: Dynamic, All-Approximated and the closed-form
# bounds against their Fraction references, on the random population,
# exact-grid systems and one-shot sets (some at exactly U = 1).
# ----------------------------------------------------------------------

_SCHEDULES = ("double", "increment")
_MAX_LEVELS = (None, 1, 2)
_DYNAMIC_BOUNDS = (BoundMethod.SUPERPOSITION, BoundMethod.BEST, BoundMethod.BARUAH)


def _exact_grid_sets():
    """Systems whose denominators push the kernel past SCALE_CAP."""
    rng = random.Random(19790312)
    primes = [(1 << 89) - 1, (1 << 107) - 1, (1 << 127) - 1]
    sets = []
    for _ in range(12):
        comps = [
            DemandComponent(
                wcet=Fraction(rng.randint(1, 3), p),
                first_deadline=Fraction(rng.randint(1, 9), p) + rng.randint(2, 12),
                period=rng.randint(3, 14),
            )
            for p in primes
        ]
        comps.extend(_random_components(rng))
        sets.append(as_components(comps))
    # Far one-shots put this one on the exact grid while its walk stays
    # integral: the level-capped UNKNOWN witness demand is the int 4.
    sets.append(
        as_components(
            [
                DemandComponent(wcet=c, first_deadline=d, period=t)
                for c, d, t in [(1, 13, 9), (2, 3, 15), (2, 10, 5), (2, 3, 7)]
            ]
            + [DemandComponent(wcet=Fraction(1, p), first_deadline=400) for p in primes]
        )
    )
    return sets


def _one_shot_sets():
    """Sets with one-shot components; every third sits at exactly U = 1."""
    rng = random.Random(20070104)
    sets = []
    for index in range(60):
        if index % 3:
            comps = list(_random_components(rng))
        else:
            comps = []
            cuts = sorted(Fraction(rng.randint(1, 23), 24) for _ in range(rng.randint(0, 3)))
            for low, high in zip([Fraction(0)] + cuts, cuts + [Fraction(1)]):
                if high == low:
                    continue
                period = rng.choice([2, 3, 4, 6, 8, 12])
                comps.append(
                    DemandComponent(
                        wcet=(high - low) * period,
                        first_deadline=rng.randint(1, 2 * period),
                        period=period,
                    )
                )
        for _ in range(rng.randint(1, 3)):
            comps.append(
                DemandComponent(
                    wcet=_random_value(rng, 1, 3),
                    first_deadline=_random_value(rng, 1, 30),
                )
            )
        sets.append(as_components(comps))
    return sets


_EXACT_GRID_SETS = _exact_grid_sets()
_ONE_SHOT_SETS = _one_shot_sets()

#: Sets (tasks as (C, D, T), T None for one-shots) where index-order ties
#: in the Dynamic walk's later pushes change the result under the given
#: level schedule; the last one sits at U = 1 with a one-shot component.
_DYNAMIC_TIE_ORDER_SETS = [
    ([(3, 5, 7), (3, 7, 10), (3, 13, 14)], "increment"),
    ([(2, 5, 7), (3, 12, None), (3, 3, 8)], "double"),
    ([(1, 12, 4), (2, 4, 6), (3, 11, None), (3, 6, 9), (1, 7, 12)], "double"),
]


class _RateKernel(DemandKernel):
    """A compiled kernel whose envelope weights are its `Fraction` rates
    over ``H = 1``: the exact fallback grid's representation, on any
    grid."""

    __slots__ = ()

    def envelope_weights(self):
        return 1, self.rates


def _assert_same_superpos_scans(comps, level, hi):
    """``superpos_scan`` over the integer ``(H, w)`` and over the
    `Fraction` rates: equal results, equal types."""
    expected = DemandKernel(comps).superpos_scan(level, hi)
    got = _RateKernel(comps).superpos_scan(level, hi)
    assert got == expected, level
    assert [type(v) for v in got] == [type(v) for v in expected], level


_WALK_SYSTEMS = (
    [pytest.param(_POPULATION[i], id=str(i)) for i in range(0, SET_COUNT, 4)]
    + [pytest.param(s, id=f"exact-grid-{i}") for i, s in enumerate(_EXACT_GRID_SETS)]
    + [pytest.param(s, id=f"one-shot-{i}") for i, s in enumerate(_ONE_SHOT_SETS)]
)


@pytest.mark.parametrize("comps", _WALK_SYSTEMS)
def test_superpos_scan_agrees_across_envelope_representations(comps):
    """Both envelope representations pop in the same FIFO order and
    decide every check alike: identical results at every level."""
    for level in (1, 2, 3, 5):
        _assert_same_superpos_scans(comps, level, 80)


def test_accepted_walk_demand_is_the_approximated_dbf():
    """After a walk accepts up to its bound ``hi``, ``demand(hi)`` is
    ``dbf'(hi)`` of paper Def. 5: the switched components' envelopes,
    which the walk adds to its exact sums only when it needs them, plus
    the exact demand of the others, on both envelope representations."""
    accepted = 0
    for param in _WALK_SYSTEMS:
        comps = param.values[0]
        for kernel in (DemandKernel(comps), _RateKernel(comps)):
            hi = kernel.inclusive_scaled(80)
            for level in (1, 2, 3, 5):
                walk = EnvelopeWalk(kernel, level, hi)
                if walk.run(lambda walk, interval: interval) is not None:
                    continue
                accepted += 1
                expected = approximated_dbf(comps, kernel.unscale(hi), level)
                assert walk.demand(hi) == expected, (param.id, level)
    assert accepted >= 400, accepted


def _assert_same_result(result, expected, label=None):
    """Full ``FeasibilityResult`` equality, plus equal types (``int`` vs
    ``Fraction``) for the bound and the witness demand."""
    assert result == expected, label
    assert type(result.bound) is type(expected.bound), label
    if expected.witness is not None:
        assert type(result.witness.demand) is type(expected.witness.demand), label


def _assert_dynamic_parity(ctx, case):
    for schedule in _SCHEDULES:
        for max_level in _MAX_LEVELS:
            for method in _DYNAMIC_BOUNDS:
                options = dict(
                    bound_method=method, max_level=max_level, level_schedule=schedule
                )
                _assert_same_result(
                    dynamic_test(ctx, **options),
                    reference_dynamic(ctx, **options),
                    (case, options),
                )


def _assert_all_approx_parity(ctx):
    for policy in ("largest_error", "fifo", "largest_utilization"):
        result = all_approx_test(ctx, revision_policy=policy)
        verdict, w_interval, w_demand, its, ivs, revs = reference_all_approx(
            ctx, policy
        )
        assert result.verdict.value == verdict, policy
        assert (result.iterations, result.intervals_checked, result.revisions) == (
            its,
            ivs,
            revs,
        )
        if w_interval is not None:
            assert (result.witness.interval, result.witness.demand) == (
                w_interval,
                w_demand,
            )


@pytest.mark.parametrize("index", range(SET_COUNT))
def test_dynamic_parity(index):
    """Dynamic on the kernel grid vs its IntervalQueue/Fraction loop:
    full results across level schedules, level caps and bounds."""
    clear_context_cache()
    _assert_dynamic_parity(AnalysisContext.of(_POPULATION[index]), index)


@pytest.mark.parametrize("population", ["exact_grid", "one_shot"])
def test_envelope_walk_parity_on_exact_grid_and_one_shot_sets(population):
    sets = _EXACT_GRID_SETS if population == "exact_grid" else _ONE_SHOT_SETS
    for index, comps in enumerate(sets):
        clear_context_cache()
        ctx = AnalysisContext.of(comps)
        assert (ctx.kernel().scale is None) == (population == "exact_grid")
        _assert_dynamic_parity(ctx, (population, index))
        if ctx.utilization <= 1:
            _assert_all_approx_parity(ctx)


def test_one_shot_sets_include_full_utilization():
    full = [c for c in _ONE_SHOT_SETS if AnalysisContext.of(c).utilization == 1]
    assert len(full) >= 15
    assert all(any(comp.period is None for comp in comps) for comps in full)


@pytest.mark.parametrize("spec, schedule", _DYNAMIC_TIE_ORDER_SETS)
def test_dynamic_ties_pop_in_push_order(spec, schedule):
    comps = as_components(
        [DemandComponent(wcet=c, first_deadline=d, period=t) for c, d, t in spec]
    )
    clear_context_cache()
    ctx = AnalysisContext.of(comps)
    _assert_same_result(
        dynamic_test(ctx, level_schedule=schedule),
        reference_dynamic(ctx, level_schedule=schedule),
    )


def _bound_systems():
    yield from _POPULATION
    yield from _EXACT_GRID_SETS
    yield from _ONE_SHOT_SETS
    for system in example_systems().values():
        yield as_components(system)


_REFERENCE_BOUNDS = {
    BoundMethod.BARUAH: (baruah_bound, reference_baruah_bound),
    BoundMethod.GEORGE: (george_bound, reference_george_bound),
    BoundMethod.SUPERPOSITION: (superposition_bound, reference_superposition_bound),
}


def test_closed_form_bounds_match_the_fraction_loops():
    """One integer pass per system: equal values *and* equal types (``int``
    when integral, else ``Fraction``) through every entry point."""
    types = set()
    for comps in _bound_systems():
        clear_context_cache()
        ctx = AnalysisContext.of(comps)
        expected = {m: ref(comps) for m, (_, ref) in _REFERENCE_BOUNDS.items()}
        compared = compare_bounds(comps)
        for method, (public, _) in _REFERENCE_BOUNDS.items():
            want = expected[method]
            for got in (public(comps), compared[method.value]):
                assert got == want and type(got) is type(want), (method, comps)
            if want is not None:
                types.add(type(want))
                for got in (ctx.bound(method), feasibility_bound(comps, method)):
                    assert got == want and type(got) is type(want), (method, comps)
        if expected[BoundMethod.BARUAH] is not None:
            best = min(expected.values())
            for got in (ctx.bound(BoundMethod.BEST), feasibility_bound(comps)):
                assert got == best and type(got) is type(best)
    assert types == {int, Fraction}


# ----------------------------------------------------------------------
# Devi on the kernel grid: integer prefix sums scaled by D_k·H against
# the Fraction prefix loop it replaced.
# ----------------------------------------------------------------------

#: Sets (tasks as (C, D, T), T None for one-shots) whose tied first
#: deadlines fail mid-group: the ``(D, T or 0, C)`` order decides the
#: failing iteration (source order would stop one comparison earlier or
#: later).  Ties on ``T``, on ``C`` and against a one-shot, with ``D > T``
#: tasks among them.
_DEVI_TIE_ORDER_SETS = [
    ([(2, 10, 200), (19, 20, 40), (2, 20, 10)], 3),
    ([(2, 10, 200), (19, 20, 40), (1, 20, 40)], 3),
    ([(2, 10, 200), (2, 20, 10), (19, 20, None)], 2),
]

_DEVI_SYSTEMS = (
    [pytest.param(comps, id=str(i)) for i, comps in enumerate(_POPULATION)]
    + [pytest.param(s, id=f"exact-grid-{i}") for i, s in enumerate(_EXACT_GRID_SETS)]
    + [pytest.param(s, id=f"one-shot-{i}") for i, s in enumerate(_ONE_SHOT_SETS)]
)


def _assert_devi_parity(comps):
    clear_context_cache()
    ctx = AnalysisContext.of(comps)
    result, expected = devi_test(ctx), reference_devi(ctx)
    _assert_same_result(result, expected)
    if expected.witness is not None:
        assert type(result.witness.interval) is type(expected.witness.interval)
        assert type(result.witness.demand) is Fraction
    return result


@pytest.mark.parametrize("comps", _DEVI_SYSTEMS)
def test_devi_parity(comps):
    _assert_devi_parity(comps)


@pytest.mark.parametrize("spec, iterations", _DEVI_TIE_ORDER_SETS)
def test_devi_tied_deadlines_keep_the_sorted_order(spec, iterations):
    comps = as_components(
        [DemandComponent(wcet=c, first_deadline=d, period=t) for c, d, t in spec]
    )
    result = _assert_devi_parity(comps)
    assert result.verdict.value == "unknown"
    assert result.iterations == iterations


def test_devi_rows_cover_ties_late_deadlines_and_both_verdicts():
    systems = [p.values[0] for p in _DEVI_SYSTEMS]
    assert any(
        len({c.first_deadline for c in comps}) < len(comps) for comps in systems
    )
    assert any(
        c.period is not None and c.first_deadline > c.period
        for comps in systems
        for c in comps
    )
    verdicts = set()
    for comps in systems:
        clear_context_cache()
        verdicts.add(devi_test(comps).verdict.value)
    assert verdicts == {"feasible", "unknown", "infeasible"}  # U > 1 too
