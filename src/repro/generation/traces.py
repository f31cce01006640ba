"""Arrival-trace scenarios for the online admission layer.

Four seeded, reproducible generators covering the workload shapes a
live admission controller faces:

* :func:`poisson_trace` — memoryless arrivals with exponential
  lifetimes, the classic open-system model;
* :func:`bursty_trace` — arrival clusters (bursts) separated by quiet
  gaps, each burst's tasks departing together later;
* :func:`ramp_trace` — pure arrivals driving utilization through a
  target, exercising the rejection onset;
* :func:`churn_trace` — steady-state admit/depart churn around a target
  utilization, with optionally *mixed* ``int`` / ``float`` /
  `Fraction` task parameters — the workload of the online/from-scratch
  parity suite.

Every generator returns a validated :class:`~repro.online.trace.Trace`
(times non-decreasing, departures only of tasks that arrived), so its
output serializes through ``repro/trace-v1`` unchanged.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional, Tuple

from ..model.task import SporadicTask
from ..online.trace import ArrivalEvent, Trace

__all__ = [
    "TRACE_SCENARIOS",
    "generate_trace",
    "poisson_trace",
    "bursty_trace",
    "ramp_trace",
    "churn_trace",
]

#: Scenario names understood by :func:`generate_trace` (and the CLI).
TRACE_SCENARIOS: Tuple[str, ...] = ("poisson", "bursty", "ramp", "churn")


def _random_task(
    rng: random.Random,
    period_range: Tuple[int, int],
    utilization_range: Tuple[float, float],
    mixed_types: bool,
) -> SporadicTask:
    """One random task; with *mixed_types*, parameters rotate through
    ``int``, ``float`` and `Fraction` so traces exercise every numeric
    path of the analysis (and of trace-v1 round-trips)."""
    lo, hi = period_range
    u = rng.uniform(*utilization_range)
    flavour = rng.randrange(3) if mixed_types else 0
    if flavour == 0:  # integers (the common case)
        period: object = rng.randint(lo, hi)
        wcet: object = max(1, round(u * period))
        wcet = min(wcet, period)
        deadline: object = max(wcet, round(period * rng.uniform(0.6, 1.0)))
    elif flavour == 1:  # floats (exact binary rationals after to_exact)
        period = rng.uniform(lo, hi)
        wcet = u * period
        deadline = max(wcet, period * rng.uniform(0.6, 1.0))
    else:  # general rationals
        period = Fraction(rng.randint(lo, hi), rng.randint(1, 9))
        wcet = period * Fraction(max(1, round(u * 1000)), 1000)
        deadline = period * Fraction(rng.randint(60, 100), 100)
        if deadline < wcet:
            deadline = wcet
    return SporadicTask(wcet=wcet, deadline=deadline, period=period)


def poisson_trace(
    events: int,
    *,
    rate: float = 1.0,
    mean_lifetime: float = 20.0,
    per_task_utilization: Tuple[float, float] = (0.01, 0.08),
    period_range: Tuple[int, int] = (1_000, 100_000),
    mixed_types: bool = False,
    seed: Optional[int] = None,
    name: str = "poisson",
) -> Trace:
    """Poisson arrivals with exponential lifetimes.

    Inter-arrival gaps are ``Exp(rate)``; each arriving task draws an
    ``Exp(1/mean_lifetime)`` lifetime and departs that much later.  The
    merged arrive/depart stream is cut after *events* events.
    """
    rng = random.Random(seed)
    clock = 0.0
    pending: List[ArrivalEvent] = []
    arrivals: List[ArrivalEvent] = []
    serial = 0
    # Generate enough arrivals that the merged cut has *events* entries.
    while len(arrivals) < events:
        clock += rng.expovariate(rate)
        serial += 1
        task = _random_task(rng, period_range, per_task_utilization, mixed_types)
        task_name = f"p{serial}"
        arrivals.append(ArrivalEvent.arrive(task_name, task, time=clock))
        departure = clock + rng.expovariate(1.0 / mean_lifetime)
        pending.append(ArrivalEvent.depart(task_name, time=departure))
    merged = sorted(
        arrivals + pending, key=lambda e: (e.time, e.kind == "depart")
    )
    return Trace(_cut_consistent(merged, events), name=name)


def bursty_trace(
    events: int,
    *,
    burst_size: int = 5,
    burst_gap: float = 50.0,
    dwell: float = 120.0,
    per_task_utilization: Tuple[float, float] = (0.01, 0.06),
    period_range: Tuple[int, int] = (1_000, 100_000),
    mixed_types: bool = False,
    seed: Optional[int] = None,
    name: str = "bursty",
) -> Trace:
    """Clustered arrivals: bursts of *burst_size* tasks every
    *burst_gap* time units, each burst departing together *dwell*
    later."""
    rng = random.Random(seed)
    stream: List[ArrivalEvent] = []
    clock = 0.0
    serial = 0
    burst = 0
    while len(stream) < 4 * events:
        burst += 1
        clock += burst_gap * rng.uniform(0.5, 1.5)
        members: List[str] = []
        for _ in range(burst_size):
            serial += 1
            task = _random_task(
                rng, period_range, per_task_utilization, mixed_types
            )
            task_name = f"b{burst}.{serial}"
            members.append(task_name)
            stream.append(ArrivalEvent.arrive(task_name, task, time=clock))
        leave = clock + dwell * rng.uniform(0.5, 1.5)
        for task_name in members:
            stream.append(ArrivalEvent.depart(task_name, time=leave))
    merged = sorted(stream, key=lambda e: (e.time, e.kind == "depart"))
    return Trace(_cut_consistent(merged, events), name=name)


def ramp_trace(
    events: int,
    *,
    per_task_utilization: Tuple[float, float] = (0.01, 0.05),
    period_range: Tuple[int, int] = (1_000, 100_000),
    mixed_types: bool = False,
    seed: Optional[int] = None,
    name: str = "ramp",
) -> Trace:
    """Pure arrivals — utilization ramps monotonically through 1, so a
    replay exercises the full accept → reject transition near U = 1."""
    rng = random.Random(seed)
    stream = []
    for index in range(events):
        task = _random_task(rng, period_range, per_task_utilization, mixed_types)
        stream.append(ArrivalEvent.arrive(f"r{index + 1}", task, time=index))
    return Trace(stream, name=name)


def churn_trace(
    events: int,
    *,
    target_utilization: float = 0.85,
    per_task_utilization: Tuple[float, float] = (0.01, 0.08),
    period_range: Tuple[int, int] = (1_000, 100_000),
    mixed_types: bool = False,
    seed: Optional[int] = None,
    name: str = "churn",
) -> Trace:
    """Steady-state admit/depart churn around *target_utilization*.

    While the running utilization estimate is below target, arrivals
    dominate; above it, departures of a random resident task dominate —
    so the system hovers at the regime where admission decisions are
    genuinely contested.
    """
    rng = random.Random(seed)
    stream: List[ArrivalEvent] = []
    resident: List[Tuple[str, float]] = []  # (name, utilization estimate)
    load = 0.0
    serial = 0
    clock = 0.0
    for _ in range(events):
        clock += rng.uniform(0.1, 2.0)
        depart = resident and (
            load >= target_utilization or rng.random() < 0.35
        )
        if depart:
            victim, u = resident.pop(rng.randrange(len(resident)))
            load -= u
            stream.append(ArrivalEvent.depart(victim, time=clock))
        else:
            serial += 1
            task = _random_task(
                rng, period_range, per_task_utilization, mixed_types
            )
            task_name = f"c{serial}"
            resident.append((task_name, float(task.utilization)))
            load += float(task.utilization)
            stream.append(ArrivalEvent.arrive(task_name, task, time=clock))
    return Trace(stream, name=name)


def generate_trace(
    scenario: str,
    events: int,
    *,
    seed: Optional[int] = None,
    mixed_types: bool = False,
    **options: object,
) -> Trace:
    """Build a trace by scenario name (the CLI's entry point)."""
    generators = {
        "poisson": poisson_trace,
        "bursty": bursty_trace,
        "ramp": ramp_trace,
        "churn": churn_trace,
    }
    if scenario not in generators:
        raise ValueError(
            f"unknown trace scenario {scenario!r}; "
            f"available: {', '.join(TRACE_SCENARIOS)}"
        )
    return generators[scenario](
        events, seed=seed, mixed_types=mixed_types, **options  # type: ignore[arg-type]
    )


def _cut_consistent(
    merged: List[ArrivalEvent], events: int
) -> List[ArrivalEvent]:
    """First *events* consistent entries: departures whose arrival fell
    outside the cut are skipped (not merely truncated), so the result
    has exactly *events* entries whenever the stream is long enough."""
    out: List[ArrivalEvent] = []
    arrived = set()
    for event in merged:
        if len(out) >= events:
            break
        if event.kind == "arrive":
            arrived.add(event.name)
            out.append(event)
        elif event.name in arrived:
            out.append(event)
    return out
