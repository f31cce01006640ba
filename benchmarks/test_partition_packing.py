"""Partition benchmark: packing throughput per admission predicate.

Tracks the cost of the partition subsystem's hot path — hundreds of
admission calls per packing run — across the three admission tiers
(utilization gate, the paper's approximate demand test, the exact
criterion), plus the minimum-core search.  Results land in
``BENCH_partition.json`` (wall-times + speedup ratios) so the perf
trajectory is comparable across PRs.

Functional guarantees asserted here, beyond timing:

* the ε-approximate admission never packs an assignment the exact
  processor-demand criterion rejects (acceptance is a proof);
* packing is deterministic between repeated timed runs.
"""

import random
import time

from repro.engine import clear_context_cache
from repro.experiments import ascii_table
from repro.generation import GeneratorConfig, TaskSetGenerator
from repro.partition import minimum_cores, pack, verify_partition

SET_COUNT = 40
CORES = 3


def _population(count=SET_COUNT, seed=20050310):
    """Multicore workloads: U in (1.6, 2.4), few heavy-ish tasks."""
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        gen = TaskSetGenerator(
            GeneratorConfig(
                tasks=(8, 16),
                utilization=(1.6, 2.4),
                period_range=(1_000, 50_000),
                gap=(0.0, 0.3),
            ),
            seed=rng.randrange(2**32),
        )
        sets.append(gen.one())
    return sets


def _timed_pack_all(sets, admission):
    clear_context_cache()
    start = time.perf_counter()
    results = [pack(ts, CORES, "ffd", admission) for ts in sets]
    return time.perf_counter() - start, results


def test_packing_admission_tiers(benchmark, bench_record):
    sets = _population()

    # Warm-up pass outside the measurement (imports, allocator).
    _timed_pack_all(sets[:3], "approx-dbf")

    gate_time, gate_results = _timed_pack_all(sets, "utilization")
    approx_time, approx_results = benchmark.pedantic(
        lambda: _timed_pack_all(sets, "approx-dbf"), rounds=1, iterations=1
    )
    # The exact path's first walk long enough for numpy's loops imports
    # numpy (~0.15 s), which exact_dbf_seconds would otherwise time
    # whenever no earlier benchmark in the process loaded it.
    _timed_pack_all(sets[:3], "exact-dbf")
    exact_time, exact_results = _timed_pack_all(sets, "exact-dbf")

    # Determinism: a second approx pass reproduces bit-for-bit.
    _, approx_again = _timed_pack_all(sets, "approx-dbf")
    assert [r.system for r in approx_again] == [r.system for r in approx_results]

    # Soundness: every complete approx packing passes the exact test
    # per core (SuperPos acceptance is a feasibility proof).
    packed = [r for r in approx_results if r.success]
    assert packed, "population produced no packable set"
    for result in packed:
        assert verify_partition(result.system, method="exact").ok

    calls = sum(r.admission_calls for r in approx_results)
    rows = [
        ["utilization gate", f"{gate_time:.3f}",
         f"{sum(r.success for r in gate_results)}/{len(sets)}"],
        ["approx-dbf (eps=1/10)", f"{approx_time:.3f}",
         f"{len(packed)}/{len(sets)}"],
        ["exact-dbf", f"{exact_time:.3f}",
         f"{sum(r.success for r in exact_results)}/{len(sets)}"],
    ]
    print(
        "\n"
        + ascii_table(
            headers=["admission", "seconds", "packed"],
            rows=rows,
            title=f"FFD packing of {len(sets)} sets onto {CORES} cores "
            f"({calls} admission calls on the approx tier)",
        )
    )

    search_start = time.perf_counter()
    found = [minimum_cores(ts, "ffd", "approx-dbf") for ts in sets[:10]]
    search_time = time.perf_counter() - search_start
    assert all(f.found for f in found)

    bench_record(
        "BENCH_partition.json",
        {
            "benchmark": "partition_packing",
            "sets": len(sets),
            "cores": CORES,
            "heuristic": "ffd",
            "admission_calls_approx": calls,
            "utilization_seconds": round(gate_time, 6),
            "approx_dbf_seconds": round(approx_time, 6),
            "exact_dbf_seconds": round(exact_time, 6),
            "speedup_approx_over_exact": round(exact_time / approx_time, 4),
            "speedup_gate_over_approx": round(approx_time / gate_time, 4),
            "packs_per_second_approx": round(len(sets) / approx_time, 2),
            "min_cores_sets": len(found),
            "min_cores_seconds": round(search_time, 6),
        },
    )
