"""Independent verification of a partitioned assignment.

A packing heuristic's claim — *this assignment is schedulable* — is
checked here with machinery that shares nothing with the packer: the
exact processor-demand criterion per core, and/or the discrete-event
EDF simulation oracle from :mod:`repro.sim` replaying each core's
synchronous busy window.  For sporadic systems with per-core ``U <= 1``
the two must agree; the partition test suite holds every heuristic and
admission predicate against this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..analysis.processor_demand import processor_demand_test
from ..result import FeasibilityResult
from ..sim.oracle import simulate_feasibility
from .platform import PartitionedSystem

__all__ = ["CoreVerdict", "PartitionVerification", "verify_partition", "agreement"]

#: Verification methods, by name.
METHODS: Tuple[str, ...] = ("exact", "simulation", "both")


@dataclass(frozen=True)
class CoreVerdict:
    """Verification outcome for a single core.

    ``exact`` is the processor-demand result, ``simulation`` the EDF
    oracle result; either may be ``None`` when that method was not
    requested.  An empty core is vacuously schedulable and carries two
    ``None`` results.
    """

    core: int
    tasks: int
    exact: Optional[FeasibilityResult]
    simulation: Optional[FeasibilityResult]

    @property
    def ok(self) -> bool:
        for result in (self.exact, self.simulation):
            if result is not None and not result.is_feasible:
                return False
        return True


@dataclass(frozen=True)
class PartitionVerification:
    """Per-core verdicts plus the aggregate answer.

    Attributes:
        cores: one :class:`CoreVerdict` per core, core 0 first.
        complete: whether the assignment covered every task — an
            incomplete assignment never verifies.
        method: the method that ran (``"exact"``, ``"simulation"``,
            ``"both"``).
    """

    cores: Tuple[CoreVerdict, ...]
    complete: bool
    method: str

    @property
    def ok(self) -> bool:
        """Schedulable: complete assignment and every core passes."""
        return self.complete and all(v.ok for v in self.cores)

    @property
    def failing_cores(self) -> Tuple[int, ...]:
        return tuple(v.core for v in self.cores if not v.ok)


def verify_partition(
    system: PartitionedSystem, method: str = "both"
) -> PartitionVerification:
    """Verify *system* core by core.

    Args:
        system: the assignment to check.
        method: ``"exact"`` (processor-demand test), ``"simulation"``
            (EDF oracle over each core's busy window), or ``"both"``.

    Returns:
        A :class:`PartitionVerification`.  Methods disagree only on a
        broken implementation, which the integration tests would flag.
    """
    if method not in METHODS:
        raise ValueError(
            f"unknown verification method {method!r}; "
            f"available: {', '.join(METHODS)}"
        )
    run_exact = method in ("exact", "both")
    run_sim = method in ("simulation", "both")
    verdicts = []
    for core in range(system.cores):
        subset = system.core_tasks(core)
        exact = sim = None
        if len(subset) and run_exact:
            exact = processor_demand_test(subset)
        if len(subset) and run_sim:
            sim = simulate_feasibility(subset)
        verdicts.append(
            CoreVerdict(core=core, tasks=len(subset), exact=exact, simulation=sim)
        )
    return PartitionVerification(
        cores=tuple(verdicts), complete=system.is_complete, method=method
    )


def agreement(verification: PartitionVerification) -> Dict[int, bool]:
    """Per-core agreement between the exact test and the simulation.

    Only meaningful for ``method="both"``; cores where a method did not
    run count as agreeing.
    """
    out: Dict[int, bool] = {}
    for v in verification.cores:
        if v.exact is None or v.simulation is None:
            out[v.core] = True
        else:
            out[v.core] = v.exact.is_feasible == v.simulation.is_feasible
    return out
