"""Randomized backend parity: numpy vs pure-python vs pre-kernel loops.

The execution-backend seam (PR 6) promises that *which backend runs* is
unobservable in results: verdicts, witnesses, iteration counts, bulk
probes and ratio scans must be bit-identical across

* the numpy vectorized backend (when numpy is importable),
* the pure-python reference backend, and
* the pre-kernel component-based walks kept verbatim in
  ``reference_walks.py``.

The population mixes ``int`` / ``float`` / ``Fraction`` parameters,
one-shot components and forced-coincident deadlines, plus adversarial
sets that must *decline* vectorization and fall back bit-exactly:
near-``SCALE_CAP`` rationals (no integer grid, exact-`Fraction` path)
and near-int64-overflow magnitudes (inside the integer grid but past
the backend's headroom cap).

Without numpy the module still runs: the python-vs-reference half
executes and every numpy-specific assertion skips.
"""

import random
from fractions import Fraction

import pytest

from repro.analysis.bounds import BoundMethod
from repro.analysis.processor_demand import processor_demand_test
from repro.engine import BatchRunner, analyze
from repro.engine.context import AnalysisContext, clear_context_cache
from repro.kernel import (
    SCALE_CAP,
    BackendUnsupported,
    DemandKernel,
    IncrementalKernel,
    KernelBackend,
    PurePythonBackend,
    available_backends,
    backend_info,
    get_backend,
    reset_backend_stats,
    set_backend,
)
from repro.model.components import DemandComponent, as_components

from .reference_walks import reference_processor_demand, reference_qpa

SET_COUNT = 60

HAS_NUMPY = "numpy" in available_backends()
needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")

BACKENDS = ("python", "numpy") if HAS_NUMPY else ("python",)


@pytest.fixture(autouse=True)
def _restore_backend():
    """Leave the process-global backend selection as we found it."""
    yield
    set_backend("auto")
    reset_backend_stats()


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
    """Integer grid, but magnitudes past the numpy backend's headroom."""
    big = 1 << 62
    return as_components(
        [
            DemandComponent(wcet=big, first_deadline=5, period=17),
            DemandComponent(wcet=3, first_deadline=big + 1, period=big),
            DemandComponent(wcet=2, first_deadline=4, period=9),
        ]
    )


# ----------------------------------------------------------------------
# Selection API
# ----------------------------------------------------------------------


def test_backend_selection_api():
    python = set_backend("python")
    assert python.name == "python" and get_backend() is python
    auto = set_backend("auto")
    assert auto.name in ("python", "numpy")
    assert set_backend(None).name == auto.name
    instance = PurePythonBackend()
    assert set_backend(instance) is instance
    with pytest.raises(ValueError, match="unknown kernel backend"):
        set_backend("cython")
    info = backend_info()
    assert set(info) == {"active", "available", "calls", "fallbacks"}
    assert "python" in info["available"]


def test_auto_selection_prefers_numpy_when_available():
    selected = set_backend("auto")
    if HAS_NUMPY:
        assert selected.name == "numpy"
    else:
        assert selected.name == "python"
        with pytest.raises(ValueError, match="fast"):
            set_backend("numpy")


def test_abstract_backend_declines_everything():
    kernel = DemandKernel(_POPULATION[0])
    backend = KernelBackend()
    with pytest.raises(BackendUnsupported):
        backend.dbf_batch_scaled(kernel, [0])
    with pytest.raises(BackendUnsupported):
        backend.first_overflow_scaled(kernel, 10)
    with pytest.raises(BackendUnsupported):
        backend.qpa_scaled(kernel, 10)


def test_dispatch_counters_track_calls_and_fallbacks():
    set_backend("python")
    reset_backend_stats()
    kernel = DemandKernel(_POPULATION[0])
    kernel.dbf_batch([5, 10])
    kernel.first_overflow(50)
    info = backend_info()
    assert info["calls"] == 2 and info["fallbacks"] == 0

    class _Refusing(KernelBackend):
        name = "refusing"

    set_backend(_Refusing())
    reset_backend_stats()
    kernel.dbf_batch([5, 10])
    info = backend_info()
    assert info["calls"] == 1 and info["fallbacks"] == 1


# ----------------------------------------------------------------------
# Primitive + registry parity across backends
# ----------------------------------------------------------------------


def _primitive_snapshot(comps, bound, probes):
    kernel = DemandKernel(comps)
    return (
        kernel.dbf_batch(probes),
        kernel.first_overflow(bound),
        kernel.qpa(bound),
        kernel.best_ratio(bound, Fraction(1, 7)),
        kernel.count_steps(bound),
    )


@pytest.mark.parametrize("index", range(SET_COUNT))
def test_backend_primitive_parity(index):
    comps = _POPULATION[index]
    rng = random.Random(index)
    bound = 90
    probes = [rng.randint(0, 120) for _ in range(12)]
    probes += [_random_value(rng, 1, 120) for _ in range(4)]
    set_backend("python")
    expected = _primitive_snapshot(comps, bound, probes)
    for name in BACKENDS[1:]:
        set_backend(name)
        assert _primitive_snapshot(comps, bound, probes) == expected, (index, name)


@needs_numpy
@pytest.mark.parametrize("index", range(0, SET_COUNT, 3))
def test_numpy_registry_results_match_prekernel_references(index):
    comps = _POPULATION[index]
    set_backend("numpy")
    clear_context_cache()
    ctx = AnalysisContext.of(comps)
    if ctx.utilization > 1:
        return  # preflight short-circuits before any walk

    pda = analyze(ctx, test="processor-demand")
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

    qpa = analyze(ctx, test="qpa")
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


def _vectorized_qpa_components(seed, slack):
    """300 integer tasks at U ~ 0.99, deadlines down to *slack* percent
    of the period: enough jobs per walk to clear ``_MIN_VECTOR_JOBS``."""
    rng = random.Random(seed)
    comps = []
    for _ in range(300):
        period = rng.randint(1_000, 20_000)
        wcet = max(1, period * rng.randint(31, 35) // 10_000)
        deadline = max(wcet, period * rng.randint(slack, 100) // 100)
        comps.append(DemandComponent(wcet=wcet, first_deadline=deadline, period=period))
    return as_components(comps)


@needs_numpy
def test_qpa_floor_parity_on_vectorized_walks():
    """``qpa(bound, floor=f)``: identical status, witness and iterations
    on python and numpy, with numpy serving every call (no fallback)."""
    statuses = set()
    cut_short = 0
    for seed, slack in ((0, 5), (1, 5), (2, 15), (3, 25)):
        comps = _vectorized_qpa_components(seed, slack)
        bound = AnalysisContext.of(comps).bound(BoundMethod.BEST)
        kernel = DemandKernel(comps)
        d0s = sorted(kernel.d0s)
        floors = [0, d0s[len(d0s) // 2], d0s[-1], bound // 2, bound + 1]
        set_backend("python")
        expected = [kernel.qpa(bound, floor=f) for f in floors]
        set_backend("numpy")
        reset_backend_stats()
        assert [kernel.qpa(bound, floor=f) for f in floors] == expected, seed
        assert backend_info()["fallbacks"] == 0
        statuses.update(status for status, _, _, _ in expected)
        cut_short += sum(result[3] < expected[0][3] for result in expected)
    assert statuses == {"infeasible", "feasible"}
    assert cut_short > 0  # some floors stopped the walk early


# ----------------------------------------------------------------------
# Fallback envelopes: exact-path and near-int64 sets
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "comps_factory, bound",
    [(_near_scale_cap_components, 40), (_near_int64_components, 200)],
    ids=["near-scale-cap", "near-int64"],
)
def test_fallback_sets_stay_bit_exact(comps_factory, bound):
    comps = comps_factory()
    probes = [1, bound // 2, bound, bound + 1]
    set_backend("python")
    expected = _primitive_snapshot(comps, bound, probes)
    if not HAS_NUMPY:
        return
    set_backend("numpy")
    reset_backend_stats()
    assert _primitive_snapshot(comps, bound, probes) == expected
    info = backend_info()
    assert info["fallbacks"] > 0, "these sets must decline vectorization"
    assert info["fallbacks"] == info["calls"]


def _near_int64_walkable_components():
    """A near-int64 set at ``U <= 1``: the preflight lets it reach the
    walk, which the numpy backend must decline."""
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
    """A processor-demand batch interleaving systems numpy sweeps with
    systems it declines returns the same results on both backends."""
    small = [c for c in _POPULATION if AnalysisContext.of(c).utilization <= 1]
    systems = [
        small[0],
        _near_int64_walkable_components(),
        small[1],
        _vectorized_qpa_components(0, 5),
    ]
    runner = BatchRunner(jobs=1)
    set_backend("python")
    clear_context_cache()
    expected = runner.map(systems, "processor-demand", max_interval=200)
    set_backend("numpy")
    clear_context_cache()
    reset_backend_stats()
    assert runner.map(systems, "processor-demand", max_interval=200) == expected
    info = backend_info()
    assert 0 < info["fallbacks"] < info["calls"]


# ----------------------------------------------------------------------
# Batches: every processor-demand request runs its own kernel walk
# ----------------------------------------------------------------------


def test_processor_demand_batch_matches_sequential():
    sources = [_POPULATION[i] for i in range(0, 24, 2)]
    expected = [processor_demand_test(s) for s in sources]
    for name in BACKENDS:
        set_backend(name)
        clear_context_cache()
        got = BatchRunner(jobs=1).map(sources, "processor-demand")
        assert got == expected, name


# ----------------------------------------------------------------------
# Incremental kernels: the per-kernel array cache must invalidate
# ----------------------------------------------------------------------


@needs_numpy
def test_incremental_mutation_invalidates_vectorized_cache():
    set_backend("numpy")
    live = IncrementalKernel(_POPULATION[4])
    probes = list(range(0, 80, 7))
    live.dbf_batch(probes)  # builds the numpy array cache

    extra = DemandComponent(wcet=2, first_deadline=9, period=13)
    live.add(extra)
    fresh = DemandKernel(as_components(list(_POPULATION[4]) + [extra]))
    set_backend("python")
    expected = (fresh.dbf_batch(probes), fresh.first_overflow(80), fresh.qpa(80))
    set_backend("numpy")
    assert (live.dbf_batch(probes), live.first_overflow(80), live.qpa(80)) == expected

    live.remove_span(live.n - 1)
    fresh = DemandKernel(_POPULATION[4])
    set_backend("python")
    expected = (fresh.dbf_batch(probes), fresh.first_overflow(80), fresh.qpa(80))
    set_backend("numpy")
    assert (live.dbf_batch(probes), live.first_overflow(80), live.qpa(80)) == expected
