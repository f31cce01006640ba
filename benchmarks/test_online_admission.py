"""Online admission micro-benchmark: per-event cost vs from-scratch.

The acceptance bar for the online admission subsystem: on a warm
1000-task controller, the mean per-event admission decision must be
**≥ 5× faster** than re-analyzing the same system from scratch through
the engine (cold context: normalization, bounds, kernel compile, full
exact walk).  The from-scratch baselines are the two exact engine
tests — ``processor-demand`` with its default Baruah bound (the
stricter comparator: it is the cheaper of the two from scratch here)
and ``qpa`` with its BEST bound — each timed with the context cache
cleared, exactly what a stateless service pays per event.

The event workload is admit/remove churn of small tasks against a
U ≈ 0.85 resident system: every arrival passes the utilization gate
and is decided by the windowed exact QPA walk, and per-event verdicts
are spot-checked against fresh engine analysis.

Each size repeats its churn and its from-scratch analyses often enough
(``PASSES``, in ``ROUNDS`` interleaved rounds) that every gated
``*_seconds`` row — a total — takes about 0.2 s or more, well above
``bench_diff.py``'s 0.05 s noise floor.  Next to each total the record
carries its operation count and the per-operation time the speedups
use: the mean per event and the best single from-scratch run.

Results land in ``BENCH_online.json``; the committed copy is the
baseline ``bench_diff.py`` gates against.
"""

import random
import time

from repro.engine import analyze
from repro.engine.context import clear_context_cache
from repro.experiments import ascii_table
from repro.generation import GeneratorConfig, TaskSetGenerator
from repro.model.task import SporadicTask
from repro.online import AdmissionController

EVENTS = 30
#: Interleaved rounds of churn passes and from-scratch runs, so host
#: contention in any one phase reaches both sides of the speedups.
ROUNDS = 3
#: Per size and round: passes over the churn's events, and from-scratch
#: runs of each exact test.
PASSES = {100: (15, 180), 500: (10, 24), 1000: (7, 9)}
BASE_UTILIZATION = 0.85


def _base_taskset(size):
    gen = TaskSetGenerator(
        GeneratorConfig(
            tasks=(size, size),
            utilization=(BASE_UTILIZATION, BASE_UTILIZATION),
            period_range=(1_000, 100_000),
            gap=(0.1, 0.4),
        ),
        seed=2005 + size,
    )
    return gen.one()


def _churn_events(count, seed):
    rng = random.Random(seed)
    tasks = []
    for _ in range(count):
        period = rng.randint(1_000, 100_000)
        wcet = max(1, int(period * 0.002))
        deadline = max(wcet, int(period * rng.uniform(0.7, 1.0)))
        tasks.append(SporadicTask(wcet=wcet, deadline=deadline, period=period))
    return tasks


def _scratch_seconds(snapshot, test):
    """One from-scratch analysis of *snapshot*, cold context."""
    clear_context_cache()
    start = time.perf_counter()
    result = analyze(snapshot, test=test)
    seconds = time.perf_counter() - start
    assert result.is_feasible
    return seconds


def test_online_event_speedup(benchmark, bench_record):
    payload = {
        "benchmark": "online_admission",
        "events": EVENTS,
        "base_utilization": BASE_UTILIZATION,
    }
    rows = []

    def run_all():
        for size, (passes, runs) in PASSES.items():
            controller = AdmissionController(_base_taskset(size))
            churn = _churn_events(EVENTS, seed=97 + size)
            # Warm-up: the first arrival touches every code path once.
            controller.admit(churn[0], name="warmup")
            controller.remove("warmup")
            # Every event is removed again, so this is the system each
            # event meets and the one analysed from scratch.
            snapshot = list(controller.snapshot())
            total = 0.0
            scratch = {"processor-demand": [], "qpa": []}
            for test in scratch:  # untimed: the first walk may import numpy
                _scratch_seconds(snapshot, test)
            for _ in range(ROUNDS):
                for _ in range(passes):
                    for index, task in enumerate(churn):
                        name = f"event{index}"
                        start = time.perf_counter()
                        decision = controller.admit(task, name=name)
                        total += time.perf_counter() - start
                        assert decision.admitted  # tiny tasks against U=0.85 fit
                        controller.remove(name)
                for _ in range(runs):
                    for test, samples in scratch.items():
                        samples.append(_scratch_seconds(snapshot, test))
            events = ROUNDS * passes * EVENTS
            event_seconds = total / events
            pda_seconds = min(scratch["processor-demand"])
            qpa_seconds = min(scratch["qpa"])
            # Spot-check: the warm controller and the cold engine agree.
            assert analyze(snapshot, test="qpa").is_feasible
            speedup_pda = pda_seconds / event_seconds
            speedup_qpa = qpa_seconds / event_seconds
            # Gated totals, then their counts and per-operation times.
            payload[f"online_event_{size}_seconds"] = round(total, 6)
            payload[f"fromscratch_pda_{size}_seconds"] = round(
                sum(scratch["processor-demand"]), 6
            )
            payload[f"fromscratch_qpa_{size}_seconds"] = round(
                sum(scratch["qpa"]), 6
            )
            payload[f"online_events_{size}"] = events
            payload[f"online_event_{size}_mean_s"] = round(event_seconds, 7)
            payload[f"fromscratch_runs_{size}"] = ROUNDS * runs
            payload[f"fromscratch_pda_{size}_best_s"] = round(pda_seconds, 7)
            payload[f"fromscratch_qpa_{size}_best_s"] = round(qpa_seconds, 7)
            # Ratios anchor the trajectory but never gate (no *_seconds).
            payload[f"online_speedup_vs_pda_{size}"] = round(speedup_pda, 2)
            payload[f"online_speedup_vs_qpa_{size}"] = round(speedup_qpa, 2)
            payload[f"online_exact_decisions_{size}"] = controller.stats()["exact"]
            rows.append(
                [
                    str(size),
                    f"{event_seconds * 1e3:.3f}",
                    f"{pda_seconds * 1e3:.3f}",
                    f"{qpa_seconds * 1e3:.3f}",
                    f"{speedup_pda:.2f}x / {speedup_qpa:.2f}x",
                ]
            )

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    print(
        "\n"
        + ascii_table(
            headers=[
                "tasks",
                "event ms",
                "scratch pda ms",
                "scratch qpa ms",
                "speedup (pda/qpa)",
            ],
            rows=rows,
            title="Warm per-event admission vs from-scratch re-analysis",
        )
    )
    bench_record("BENCH_online.json", payload)

    # The PR's acceptance criterion: ≥5× warm per-event speedup over
    # from-scratch re-analysis at 1000 tasks (on the stricter of the
    # two exact baselines).
    assert payload["online_speedup_vs_pda_1000"] >= 5.0
    assert payload["online_speedup_vs_qpa_1000"] >= 5.0
