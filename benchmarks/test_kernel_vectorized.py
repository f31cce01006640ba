"""Vectorized benchmark: the kernel's numpy loops vs its python loops.

The acceptance bar for numpy's loops: with numpy installed, on warm
kernels

* the QPA walk on the 1000-task *near-infeasible* sets (where the walk
  is thousands of dense iterations — the regime the windowed sweep
  exists for) must run **≥ 3×** faster than the python loop, and
* 100 ``processor_demand_test`` calls over 100 systems (the
  ``campaign_100`` row, one kernel walk per system) must run **≥ 3×**
  faster than the same loop pinned to the python loops,

with bit-exact parity asserted between the two loops in the same run.
Both timings call the same public functions: every walk here clears
the kernel's size rule, so it runs numpy's loop, and the python timings
pin every walk to the python loop by patching the size rule's threshold
to infinity.  The ratios measure the two loops, not two divergent code
paths.

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
from repro.kernel import backend_info
from repro.kernel import kernel as kernel_module

pytestmark = pytest.mark.skipif(
    not backend_info()["numpy"], reason="numpy not installed"
)

SIZE = 1_000
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
    """Time *fn* on the python loops, then on numpy's; assert identical
    results."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_module, "_MIN_VECTOR_JOBS", float("inf"))
        python_seconds, expected = _best_of(fn)
    numpy_seconds, got = _best_of(fn)
    assert got == expected, "the two loops must be bit-identical"
    return python_seconds, numpy_seconds


def test_vectorized_speedup_and_parity(benchmark, bench_record):
    payload = {
        "benchmark": "kernel_vectorized",
        "rounds": ROUNDS,
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
            title=f"numpy loops vs pure-python (warm kernels, best of {ROUNDS})",
        )
    )
    bench_record("BENCH_vectorized.json", payload)

    # The acceptance criteria.
    assert payload[f"qpa_{SIZE}_near_infeasible_speedup"] >= 3.0
    assert payload[f"campaign_{CAMPAIGN_SYSTEMS}_speedup"] >= 3.0
