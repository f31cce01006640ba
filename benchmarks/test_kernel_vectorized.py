"""Vectorized backend benchmark: numpy primitives vs the pure-python kernel.

The acceptance bar for the execution-backend seam: with numpy installed,
on warm kernels

* ``dbf_batch`` over a 1000-task set must run **≥ 3×** faster than the
  pure-python backend,
* the QPA walk on the 1000-task *near-infeasible* sets (where the walk
  is thousands of dense iterations — the regime the windowed sweep
  exists for) must run **≥ 3×** faster, and
* 100 ``processor_demand_test`` calls over 100 systems (the
  ``campaign_100`` row, one kernel walk per system) must run **≥ 3×**
  faster than the same loop on the pure-python backend,

with bit-exact parity asserted between the two backends in the same
run.  Both backends dispatch through the same public kernel methods —
only :func:`repro.kernel.set_backend` differs between timings — so the
ratios measure the backend seam, not two divergent code paths.

Timings follow ``test_kernel_micro.py``: best-of-N on warm contexts and
pre-compiled kernels (compile cost is per distinct system and was
benchmarked there).  Results land in ``BENCH_vectorized.json``; the
committed copy is the baseline ``bench_diff.py`` gates against.  The
whole module skips without numpy — the no-numpy CI leg measures nothing
here by design.
"""

import time

import pytest

from repro.analysis import processor_demand_test, qpa_test
from repro.analysis.bounds import BoundMethod
from repro.engine.context import AnalysisContext
from repro.experiments import ascii_table
from repro.generation import GeneratorConfig, TaskSetGenerator
from repro.kernel import available_backends, backend_info, set_backend

pytestmark = pytest.mark.skipif(
    "numpy" not in available_backends(), reason="numpy not installed"
)

SIZE = 1_000
PROBES = 2_048
CAMPAIGN_SYSTEMS = 100
CAMPAIGN_SIZE = 150
ROUNDS = 3


def _taskset(size, utilization, seed):
    gen = TaskSetGenerator(
        GeneratorConfig(
            tasks=(size, size),
            utilization=(utilization, utilization),
            period_range=(1_000, 100_000),
            gap=(0.1, 0.4),
        ),
        seed=seed,
    )
    return gen.one()


def _best_of(fn, rounds=ROUNDS):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _timed_pair(fn):
    """Time *fn* under each backend; assert identical results."""
    set_backend("python")
    python_seconds, expected = _best_of(fn)
    set_backend("numpy")
    numpy_seconds, got = _best_of(fn)
    set_backend("auto")
    assert got == expected, "backends must be bit-identical"
    return python_seconds, numpy_seconds


def test_vectorized_speedup_and_parity(benchmark, bench_record):
    payload = {
        "benchmark": "kernel_vectorized",
        "rounds": ROUNDS,
        "backends": backend_info()["available"],
    }
    rows = []

    def record(name, python_seconds, numpy_seconds):
        speedup = python_seconds / numpy_seconds if numpy_seconds > 0 else float("inf")
        payload[f"{name}_python_seconds"] = round(python_seconds, 6)
        payload[f"{name}_numpy_seconds"] = round(numpy_seconds, 6)
        payload[f"{name}_speedup"] = round(speedup, 2)
        rows.append(
            [name, f"{python_seconds:.4f}", f"{numpy_seconds:.4f}", f"{speedup:.2f}x"]
        )

    def run_all():
        # --- dbf_batch: one bulk demand sweep over a 1000-task set ----
        ts = _taskset(SIZE, 0.97, seed=2005 + SIZE)
        ctx = AnalysisContext.of(ts)
        kernel = ctx.kernel()
        horizon = ctx.bound(BoundMethod.BARUAH)
        step = max(1, int(horizon) // PROBES)
        probes = list(range(step, PROBES * step + 1, step))
        record(f"dbf_batch_{SIZE}", *_timed_pair(lambda: kernel.dbf_batch(probes)))

        # --- QPA: dense walk on the near-infeasible regime ------------
        ts = _taskset(SIZE, 0.995, seed=2005 + SIZE)
        ctx = AnalysisContext.of(ts)
        ctx.kernel()
        ctx.bound(BoundMethod.BEST)
        record(
            f"qpa_{SIZE}_near_infeasible", *_timed_pair(lambda: qpa_test(ctx))
        )

        # --- campaign: 100 systems, one processor-demand walk each ----
        sources = [
            _taskset(CAMPAIGN_SIZE, 0.99, seed=7_000 + i)
            for i in range(CAMPAIGN_SYSTEMS)
        ]
        for source in sources:  # warm contexts + compiled kernels
            AnalysisContext.of(source).kernel()

        def campaign():
            return [processor_demand_test(s) for s in sources]

        payload[f"campaign_{CAMPAIGN_SYSTEMS}_infeasible"] = sum(
            1 for r in campaign() if not r.is_feasible
        )
        record(f"campaign_{CAMPAIGN_SYSTEMS}", *_timed_pair(campaign))

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    print(
        "\n"
        + ascii_table(
            headers=["workload", "python s", "numpy s", "speedup"],
            rows=rows,
            title=f"Numpy backend vs pure-python (warm kernels, best of {ROUNDS})",
        )
    )
    bench_record("BENCH_vectorized.json", payload)

    # The PR's acceptance criteria.
    assert payload[f"dbf_batch_{SIZE}_speedup"] >= 3.0
    assert payload[f"qpa_{SIZE}_near_infeasible_speedup"] >= 3.0
    assert payload[f"campaign_{CAMPAIGN_SYSTEMS}_speedup"] >= 3.0
