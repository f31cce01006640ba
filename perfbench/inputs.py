"""Seeded workload inputs, independent of the program under test.

Everything here is plain integers drawn from :class:`random.Random`, so
the same seed yields the same inputs no matter how the program's own
generators change.  A task is a ``(wcet, deadline, period)`` triple
(constrained deadlines, synchronous release).

Each population copies the parameters of a population the repository
already documents, and draws task sets the way the program's
``TaskSetGenerator.one`` does (task count and utilization uniform in
their ranges, integer periods uniform in theirs, UUniFast shares,
``wcet = round(u * period)``, ``deadline = round(period * (1 - gap))``
with a per-task gap uniform in the set's gap range).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Tuple

Task = Tuple[int, int, int]


@dataclass(frozen=True)
class Population:
    tasks: Tuple[int, int]
    utilization: Tuple[float, float]
    periods: Tuple[int, int]
    #: Gap ranges ``(T - D) / T``; each set draws one of them.
    gaps: Tuple[Tuple[float, float], ...]


#: ``experiments/fig8.py`` ``Fig8Config``: the paper's Figure 8 sweep,
#: gap centres 20/30/40% pooled with half-width 10%.
FIG8 = Population((5, 100), (0.90, 0.99), (1_000, 100_000),
                  ((0.1, 0.3), (0.2, 0.4), (0.3, 0.5)))
#: ``benchmarks/test_service_store.py`` ``_population``.
SERVICE = Population((5, 25), (0.85, 0.97), (1_000, 100_000), ((0.1, 0.4),))
#: The CI fleet-smoke campaign: ``generate --tasks 40 --utilization
#: 0.97`` with ``generate``'s default ``--periods`` and ``--gap``.
FLEET = Population((40, 40), (0.97, 0.97), (1_000, 100_000), ((0.0, 0.4),))
#: README "Command line": ``generate --tasks 30 --utilization 0.95`` with
#: ``generate``'s default ``--periods`` and ``--gap``.
CLI = Population((30, 30), (0.95, 0.95), (1_000, 100_000), ((0.0, 0.4),))
#: ``benchmarks/test_online_admission.py`` ``_base_taskset``: resident
#: systems of 100, 500 and 1000 tasks at U = 0.85.
ADMISSION_SIZES = (100, 500, 1000)
ADMISSION_BASE = Population((100, 1000), (0.85, 0.85), (1_000, 100_000), ((0.1, 0.4),))


def _uunifast(rng: random.Random, n: int, total: float) -> List[float]:
    shares = []
    remaining = total
    for i in range(1, n):
        following = remaining * rng.random() ** (1.0 / (n - i))
        shares.append(remaining - following)
        remaining = following
    shares.append(remaining)
    return shares


def utilization(tasks: List[Task]) -> Fraction:
    return sum((Fraction(c, t) for c, _, t in tasks), Fraction(0))


def _draw(
    rng: random.Random, n: int, target: float, gap: Tuple[float, float],
    periods: Tuple[int, int],
) -> List[Task]:
    """*n* tasks near utilization *target*.  A set at exactly ``U = 1``,
    which the oracle cannot decide, is drawn again."""
    while True:
        tasks = []
        for share in _uunifast(rng, n, target):
            period = rng.randint(*periods)
            wcet = min(period, max(1, round(share * period)))
            deadline = max(wcet, round(period * (1.0 - rng.uniform(*gap))))
            tasks.append((wcet, deadline, period))
        if utilization(tasks) != 1:
            return tasks


def taskset(rng: random.Random, population: Population, n: int) -> List[Task]:
    """One task set of *n* tasks from *population*."""
    target = rng.uniform(*population.utilization)
    return _draw(rng, n, target, rng.choice(population.gaps), population.periods)


#: Steps of the two Weyl sequences that spread task counts and
#: utilizations over a stream (irrational and independent, so the pairs
#: fill the square evenly).
_STEPS = ((5 ** 0.5 - 1) / 2, 2 ** 0.5 - 1)


def taskset_stream(seed: str, population: Population) -> Iterator[List[Task]]:
    """An endless stream of distinct task sets; set *i* depends only on
    ``(seed, i)``, so a consumer may stop anywhere.

    The stream is stratified: set *i*'s task count and utilization sit on
    two low-discrepancy sequences with seeded offsets, and its gap range
    cycles.  Any prefix then holds the population's mix of sizes, loads
    and gaps in close to their exact shares, so runs on different seeds
    differ in their sets but not in their mix (a set's cost grows
    steeply with its size and load, and a run analyses only about a
    thousand sets).
    """
    offsets = random.Random(f"{seed}/mix")
    size_at, load_at = offsets.random(), offsets.random()
    (n_lo, n_hi), (u_lo, u_hi) = population.tasks, population.utilization
    index = 0
    while True:
        n = n_lo + int((size_at + index * _STEPS[0]) % 1 * (n_hi - n_lo + 1))
        target = u_lo + (load_at + index * _STEPS[1]) % 1 * (u_hi - u_lo)
        gap = population.gaps[index % len(population.gaps)]
        rng = random.Random(f"{seed}/set/{index}")
        yield _draw(rng, n, target, gap, population.periods)
        index += 1


def churn_task(rng: random.Random) -> Task:
    """One arrival of ``benchmarks/test_online_admission.py``
    ``_churn_events``: a small task (U = 0.002) with a deadline at 70 to
    100% of its period."""
    period = rng.randint(1_000, 100_000)
    wcet = max(1, int(period * 0.002))
    return (wcet, max(wcet, int(period * rng.uniform(0.7, 1.0))), period)


def taskset_document(tasks: List[Task], name: str) -> dict:
    """The ``repro/taskset-v1`` wire form of *tasks*."""
    return {
        "format": "repro/taskset-v1",
        "name": name,
        "tasks": [task_document(task, f"t{i}") for i, task in enumerate(tasks)],
    }


def task_document(task: Task, name: str = "") -> dict:
    wcet, deadline, period = task
    return {"name": name, "wcet": wcet, "deadline": deadline, "period": period}
