"""Randomized parity of the kernel's two loops: numpy vs python vs
pre-kernel walks.

The kernel runs each walk (``first_overflow``, ``qpa``, ``best_ratio``,
``count_steps``) on numpy's loop when numpy is installed and the walk
is long enough, and on its python loop otherwise.  Which loop runs must
be unobservable in results: verdicts, witnesses, iteration counts and
ratio scans must be bit-identical across

* numpy's loops (:mod:`repro.kernel.vectorized`, called directly here,
  with no size rule, when numpy is importable),
* the kernel's pure-python loops, and
* the pre-kernel component-based walks kept verbatim in
  ``reference_walks.py``.

The population mixes ``int`` / ``float`` / ``Fraction`` parameters,
one-shot components and forced-coincident deadlines, plus adversarial
sets numpy's loops must *decline* while the kernel's answer stays
bit-exact: near-``SCALE_CAP`` rationals (no integer grid, exact-
`Fraction` path) and near-int64-overflow magnitudes (inside the integer
grid but past the int64 headroom cap).

Tests pin the kernel to its python loops by patching the size rule's
threshold to infinity, or send every walk to numpy's loops by patching
it to zero.  Without numpy the module still runs: the python-vs-
reference half executes and every numpy-specific assertion skips.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest

from repro.analysis.bounds import BoundMethod
from repro.analysis.processor_demand import processor_demand_test
from repro.engine import BatchRunner, analyze
from repro.engine.context import AnalysisContext, clear_context_cache
from repro.kernel import (
    DemandKernel,
    IncrementalKernel,
    backend_info,
    reset_walk_counters,
    vectorized,
)
from repro.kernel import kernel as kernel_module
from repro.model.components import DemandComponent, as_components

from .reference_walks import reference_processor_demand, reference_qpa

SET_COUNT = 60

#: Walk bounds for the direct numpy-vs-python comparisons.
BOUNDS = (9, 30, 90, 200, 600)

HAS_NUMPY = backend_info()["numpy"]
needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")


@contextmanager
def _min_vector_jobs(value):
    """Set the size rule's threshold: ``math.inf`` pins every walk to the
    python loop, ``0`` sends every walk to numpy's loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_module, "_MIN_VECTOR_JOBS", value)
        yield


@pytest.fixture(autouse=True)
def _reset_stats():
    yield
    reset_walk_counters()


# ----------------------------------------------------------------------
# Population
# ----------------------------------------------------------------------


def _random_value(rng: random.Random, lo: int, hi: int):
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
    rng = random.Random(20260808)
    return [_random_components(rng) for _ in range(SET_COUNT)]


_POPULATION = _population()


def _near_scale_cap_components():
    """Denominator LCM past SCALE_CAP: the kernel itself runs exact."""
    primes = [10**9 + 7, 10**9 + 9, 10**9 + 21, 10**9 + 33, 10**9 + 87]
    comps = [
        DemandComponent(
            wcet=Fraction(1, p), first_deadline=3 + Fraction(1, p), period=7
        )
        for p in primes
    ]
    kernel = DemandKernel(as_components(comps))
    assert kernel.scale is None, "population must exercise the exact path"
    return as_components(comps)


def _near_int64_components():
    """Integer grid, but magnitudes past numpy's int64 headroom."""
    big = 1 << 62
    return as_components(
        [
            DemandComponent(wcet=big, first_deadline=5, period=17),
            DemandComponent(wcet=3, first_deadline=big + 1, period=big),
            DemandComponent(wcet=2, first_deadline=4, period=9),
        ]
    )


def _vectorized_qpa_components(seed, slack):
    """300 integer tasks at U ~ 0.99, deadlines down to *slack* percent
    of the period: every walk clears the size rule."""
    rng = random.Random(seed)
    comps = []
    for _ in range(300):
        period = rng.randint(1_000, 20_000)
        wcet = max(1, period * rng.randint(31, 35) // 10_000)
        deadline = max(wcet, period * rng.randint(slack, 100) // 100)
        comps.append(DemandComponent(wcet=wcet, first_deadline=deadline, period=period))
    return as_components(comps)


def _snapshot(kernel, bound):
    """Every walk the kernel chooses a loop for, at one bound."""
    return (
        kernel.first_overflow(bound),
        kernel.qpa(bound),
        kernel.best_ratio(bound, Fraction(1, 7)),
        kernel.count_steps(bound),
    )


# ----------------------------------------------------------------------
# Loop choice and its counters
# ----------------------------------------------------------------------


def test_dispatch_counters_track_calls_and_fallbacks():
    # A short walk stays on the python loop: counted, not a fallback,
    # and no numpy array is built.
    reset_walk_counters()
    kernel = DemandKernel(_POPULATION[0])
    kernel.first_overflow(50)
    kernel.qpa(50)
    info = backend_info()
    assert (info["calls"], info["fallbacks"]) == (2, 0)
    assert kernel._vec_cache is None

    # A long walk on the exact grid passes the size rule, and numpy's
    # loop declines it: one fallback when numpy is installed.
    reset_walk_counters()
    exact = DemandKernel(_near_scale_cap_components())
    exact.first_overflow(1_000)
    info = backend_info()
    assert (info["calls"], info["fallbacks"]) == (1, int(HAS_NUMPY))


def _uniform_components(count, period=64):
    """*count* unit tasks of period *period* (``Σ 1/T = count/period``),
    integer parameters, so the kernel's grid is the original time line."""
    return as_components(
        [
            DemandComponent(wcet=1, first_deadline=4 * i + 3, period=period)
            for i in range(count)
        ]
    )


#: Each walk, called so that the grid bound the size rule reads is *b*:
#: ``qpa`` reads its exclusive limit, ``bound + 1`` on a scale-1 grid.
_WALKS = {
    "first_overflow": lambda kernel, b: kernel.first_overflow(b),
    "qpa": lambda kernel, b: kernel.qpa(b - 1),
    "best_ratio": lambda kernel, b: kernel.best_ratio(b, Fraction(1, 7)),
    "count_steps": lambda kernel, b: kernel.count_steps(b),
}


def _threshold_cases(walk):
    """``(components, b)`` just below and at the size rule's threshold.

    The forward walks are sized ``n + b · Σ 1/T``: for 16 tasks of
    period 64, ``16 + b/4`` reaches the threshold one grid step after
    the last bound kept in python.  QPA is sized by its component count
    whatever the bound: one task short of the threshold stays in python
    over a long bound, and the threshold's count reaches numpy over a
    short one."""
    if walk == "qpa":
        n = kernel_module._MIN_VECTOR_JOBS // kernel_module._QPA_JOBS_PER_COMPONENT
        return (
            (_uniform_components(n - 1, period=1024), 10**6),
            (_uniform_components(n, period=1024), 600),
        )
    comps = _uniform_components(16)
    threshold = (kernel_module._MIN_VECTOR_JOBS - 16) * 4
    return ((comps, threshold - 1), (comps, threshold))


@pytest.mark.parametrize("walk", sorted(_WALKS))
def test_size_rule_picks_the_loop_at_its_threshold(walk):
    """Below the threshold the python loop runs and builds no array; at
    it numpy's loop serves the walk when numpy is installed.  Neither is
    a fallback, and both answer as the pinned python loop does."""
    call = _WALKS[walk]
    below, at = _threshold_cases(walk)
    for (comps, b), runs_numpy in ((below, False), (at, HAS_NUMPY)):
        kernel = DemandKernel(comps)
        assert kernel.scale == 1
        with _min_vector_jobs(math.inf):
            expected = call(kernel, b)
        assert kernel._vec_cache is None
        reset_walk_counters()
        assert call(kernel, b) == expected, b
        assert (kernel._vec_cache is not None) == runs_numpy, b
        info = backend_info()
        assert (info["calls"], info["fallbacks"]) == (1, 0), b


def test_short_qpa_walk_over_a_long_bound_stays_in_python():
    """16 tasks to the bound 10⁶: ``n + b · Σ 1/T`` counts ~250,000
    jobs, but QPA takes a few ``dbf`` steps over 16 components, which
    the python loop runs faster than numpy's, so QPA is sized by its
    component count and this walk builds no array."""
    kernel = DemandKernel(_uniform_components(16))
    with _min_vector_jobs(math.inf):
        expected = kernel.qpa(10**6)
    reset_walk_counters()
    assert kernel.qpa(10**6) == expected
    assert kernel._vec_cache is None
    info = backend_info()
    assert (info["calls"], info["fallbacks"]) == (1, 0)


# ----------------------------------------------------------------------
# The python loops against the pre-kernel references, and numpy's
# loops, called directly, against the python loops
# ----------------------------------------------------------------------


def _unscaled(kernel, value):
    return None if value is None else kernel.unscale(value)


@pytest.mark.parametrize("index", range(SET_COUNT))
def test_backend_primitive_parity(index):
    comps = _POPULATION[index]
    clear_context_cache()
    ctx = AnalysisContext.of(comps)
    kernel = DemandKernel(comps)
    d0s = sorted(kernel.d0s)
    floors = (0, d0s[len(d0s) // 2], d0s[-1])
    ratio_floors = (Fraction(0), Fraction(1, 7), Fraction(3, 2))
    for bound in BOUNDS:
        b = kernel.inclusive_scaled(bound)
        limit = kernel.exclusive_scaled(bound + 1)
        python = (
            kernel._first_overflow_scaled_py(b),
            [kernel._qpa_scaled_py(limit, f) for f in floors],
            [kernel._best_ratio_scaled_py(b, f) for f in ratio_floors],
            kernel._count_steps_scaled_py(b),
        )

        interval, demand, iterations = python[0]
        assert (
            _unscaled(kernel, interval), _unscaled(kernel, demand), iterations
        ) == reference_processor_demand(ctx, bound)[1:], (index, bound)
        status, t, demand, iterations = python[1][0]
        assert (
            "feasible" if status == "empty" else status,
            _unscaled(kernel, t),
            _unscaled(kernel, demand),
            iterations,
        ) == reference_qpa(ctx, bound), (index, bound)

        if HAS_NUMPY:
            numpy = (
                vectorized.first_overflow(kernel, b),
                [vectorized.qpa(kernel, limit, f) for f in floors],
                [vectorized.best_ratio(kernel, b, f) for f in ratio_floors],
                vectorized.count_steps(kernel, b),
            )
            assert numpy == python, (index, bound)


@needs_numpy
@pytest.mark.parametrize("index", range(0, SET_COUNT, 3))
def test_numpy_registry_results_match_prekernel_references(index):
    """The engine's processor-demand and qpa results with every walk sent
    to numpy's loops, against the pre-kernel walks."""
    comps = _POPULATION[index]
    clear_context_cache()
    ctx = AnalysisContext.of(comps)
    if ctx.utilization > 1:
        return  # preflight short-circuits before any walk

    reset_walk_counters()
    with _min_vector_jobs(0):
        pda = analyze(ctx, test="processor-demand")
        qpa = analyze(ctx, test="qpa")
    assert backend_info()["fallbacks"] == 0

    verdict, w_interval, w_demand, its = reference_processor_demand(
        ctx, ctx.bound(BoundMethod.BARUAH)
    )
    assert pda.verdict.value == verdict
    assert pda.iterations == its and pda.intervals_checked == its
    if w_interval is not None:
        assert pda.witness.interval == w_interval
        assert pda.witness.demand == w_demand
        assert pda.witness.exact
    else:
        assert pda.witness is None

    verdict, w_interval, w_demand, its = reference_qpa(
        ctx, ctx.bound(BoundMethod.BEST)
    )
    assert qpa.verdict.value == verdict
    assert qpa.iterations == its
    if w_interval is not None:
        assert qpa.witness.interval == w_interval
        assert qpa.witness.demand == w_demand
    else:
        assert qpa.witness is None


@needs_numpy
def test_qpa_floor_parity_on_vectorized_walks():
    """``qpa(bound, floor=f)``: identical status, witness and iterations
    on the python loop and on numpy's, which serves every call (no
    fallback)."""
    statuses = set()
    cut_short = 0
    for seed, slack in ((0, 5), (1, 5), (2, 15), (3, 25)):
        comps = _vectorized_qpa_components(seed, slack)
        bound = AnalysisContext.of(comps).bound(BoundMethod.BEST)
        kernel = DemandKernel(comps)
        d0s = sorted(kernel.d0s)
        floors = [0, d0s[len(d0s) // 2], d0s[-1], bound // 2, bound + 1]
        with _min_vector_jobs(math.inf):
            expected = [kernel.qpa(bound, floor=f) for f in floors]
        reset_walk_counters()
        assert [kernel.qpa(bound, floor=f) for f in floors] == expected, seed
        assert backend_info()["fallbacks"] == 0
        assert kernel._vec_cache is not None  # numpy's loop ran
        statuses.update(status for status, _, _, _ in expected)
        cut_short += sum(result[3] < expected[0][3] for result in expected)
    assert statuses == {"infeasible", "feasible"}
    assert cut_short > 0  # some floors stopped the walk early


# ----------------------------------------------------------------------
# Fallback envelopes: exact-path and near-int64 sets
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "comps_factory, bound",
    [(_near_scale_cap_components, 1_000), (_near_int64_components, 2_000)],
    ids=["near-scale-cap", "near-int64"],
)
def test_fallback_sets_stay_bit_exact(comps_factory, bound):
    kernel = DemandKernel(comps_factory())
    with _min_vector_jobs(math.inf):
        expected = _snapshot(kernel, bound)
    reset_walk_counters()
    with _min_vector_jobs(0):  # QPA on these few components too
        assert _snapshot(kernel, bound) == expected
    info = backend_info()
    # Each walk clears the size rule and numpy's loop declines it.
    assert info["calls"] == 4
    assert info["fallbacks"] == (4 if HAS_NUMPY else 0)
    if not HAS_NUMPY:
        return
    b = kernel.inclusive_scaled(bound)
    for call in (
        lambda: vectorized.first_overflow(kernel, b),
        lambda: vectorized.qpa(kernel, kernel.exclusive_scaled(bound + 1)),
        lambda: vectorized.best_ratio(kernel, b, Fraction(1, 7)),
        lambda: vectorized.count_steps(kernel, b),
    ):
        with pytest.raises(vectorized.Declined):
            call()


def _near_int64_walkable_components():
    """A near-int64 set at ``U <= 1``: the preflight lets it reach the
    walk, which numpy's loop must decline."""
    big = 1 << 62
    return as_components(
        [
            DemandComponent(wcet=3, first_deadline=5, period=17),
            DemandComponent(wcet=3, first_deadline=big + 1, period=big),
            DemandComponent(wcet=2, first_deadline=4, period=9),
        ]
    )


@needs_numpy
def test_mixed_batch_partially_vectorizes():
    """A processor-demand batch interleaving systems numpy's loop sweeps
    with systems it declines returns the same results as the python
    loop."""
    small = [c for c in _POPULATION if AnalysisContext.of(c).utilization <= 1]
    systems = [
        small[0],
        _near_int64_walkable_components(),
        small[1],
        _vectorized_qpa_components(0, 5),
    ]
    runner = BatchRunner(jobs=1)
    clear_context_cache()
    with _min_vector_jobs(math.inf):
        expected = runner.map(systems, "processor-demand", max_interval=2_000)
    clear_context_cache()
    reset_walk_counters()
    assert runner.map(systems, "processor-demand", max_interval=2_000) == expected
    info = backend_info()
    assert 0 < info["fallbacks"] < info["calls"]


# ----------------------------------------------------------------------
# Batches: every processor-demand request runs its own kernel walk
# ----------------------------------------------------------------------


def test_processor_demand_batch_matches_sequential():
    sources = [_POPULATION[i] for i in range(0, 24, 2)]
    expected = [processor_demand_test(s) for s in sources]
    clear_context_cache()
    assert BatchRunner(jobs=1).map(sources, "processor-demand") == expected


# ----------------------------------------------------------------------
# Incremental kernels: every walk on the python loop
# ----------------------------------------------------------------------


def test_incremental_kernel_walks_stay_on_the_python_loop():
    """A 300-task live kernel runs every walk on the python loop, even
    with the size rule sending every walk to numpy's loops: it builds no
    numpy array, counts each walk and no fallback, and answers like a
    fresh compile on the python loop after a heavy arrival and after
    its departure."""
    base = list(_vectorized_qpa_components(1, 5))
    bound = AnalysisContext.of(base).bound(BoundMethod.BEST)
    heavy = DemandComponent(wcet=3_000, first_deadline=3_000, period=40_000)

    def walks(kernel):
        return (
            kernel.qpa(bound),
            kernel.qpa(bound, floor=3_000),
            kernel.first_overflow(bound),
            kernel.best_ratio(bound, Fraction(1, 2)),
            kernel.count_steps(bound),
        )

    def check(live, components, status):
        with _min_vector_jobs(math.inf):
            expected = walks(DemandKernel(as_components(components)))
        assert expected[0][0] == status
        reset_walk_counters()
        with _min_vector_jobs(0):
            assert walks(live) == expected
        assert live._vec_cache is None
        info = backend_info()
        assert (info["calls"], info["fallbacks"]) == (5, 0)

    live = IncrementalKernel(base)
    check(live, base, "feasible")
    live.add(heavy)
    check(live, base + [heavy], "infeasible")
    live.remove_span(live.n - 1)
    check(live, base, "feasible")
