"""Online multiprocessor placement: route arrivals onto platform cores.

The partitioned-EDF reduction (one uniprocessor feasibility problem per
core) carries over to the online setting: an :class:`OnlinePlacer`
keeps one :class:`~repro.online.controller.AdmissionController` per
core of a :class:`~repro.partition.platform.Platform` and routes each
arriving task through the packing heuristics' probe orders — first-fit
by index, best-fit fullest-first, worst-fit emptiest-first, with the
partition layer's lowest-index tie-break.  A core's controller decides
admission exactly, so a completed placement is a per-core feasibility
*proof*, exactly like an offline packing under the ``exact-dbf``
admission predicate.

Besides per-core stats the placer tracks *diversions* — tasks that were
admitted, but not by the first core their heuristic probed (the online
analogue of a migration forced by a loaded preferred core).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from ..model.task import SporadicTask
from ..model.taskset import TaskSet
from ..model.validation import ModelError
from ..partition.packing import _probe_order
from ..partition.platform import PartitionedSystem, Platform
from .controller import AdmissionController, AdmissionDecision

__all__ = ["OnlinePlacer", "PlacementDecision", "PLACEMENT_HEURISTICS"]

#: Probe-order heuristics the placer understands.
PLACEMENT_HEURISTICS: Tuple[str, ...] = ("ff", "bf", "wf")


@dataclass(frozen=True)
class PlacementDecision:
    """Outcome of routing one arrival across the platform.

    Attributes:
        name: the task's handle.
        core: index of the admitting core, or ``None`` when every probed
            core rejected.
        probed: core indices in probe order, up to and including the
            admitting one.
        decision: the admitting core's decision (or the last rejecting
            core's, when the task did not fit anywhere).
        diverted: admitted, but not on the first core probed.
    """

    name: str
    core: Optional[int]
    probed: Tuple[int, ...]
    decision: AdmissionDecision
    diverted: bool

    @property
    def placed(self) -> bool:
        return self.core is not None


class OnlinePlacer:
    """One admission controller per core, plus heuristic routing."""

    def __init__(
        self,
        platform: Union[int, Platform],
        *,
        heuristic: str = "ff",
    ) -> None:
        if heuristic not in PLACEMENT_HEURISTICS:
            raise ValueError(
                f"unknown placement heuristic {heuristic!r}; "
                f"available: {', '.join(PLACEMENT_HEURISTICS)}"
            )
        self.platform = (
            platform if isinstance(platform, Platform) else Platform(cores=platform)
        )
        self.heuristic = heuristic
        self.controllers: Tuple[AdmissionController, ...] = tuple(
            AdmissionController(name=f"core{k}")
            for k in range(self.platform.cores)
        )
        self._owner: Dict[str, int] = {}
        self._tasks: Dict[str, SporadicTask] = {}
        self._order: List[str] = []
        self._serial = 0
        self.rejections = 0
        self.diversions = 0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._owner)

    def __contains__(self, name: object) -> bool:
        return name in self._owner

    def core_of(self, name: str) -> Optional[int]:
        return self._owner.get(name)

    def utilizations(self) -> Tuple[Fraction, ...]:
        """Exact per-core utilizations, core 0 first."""
        return tuple(Fraction(c.utilization) for c in self.controllers)

    def probe_order(self) -> List[int]:
        """Core probe order of the configured heuristic, right now.

        Delegates to the partition layer's probe-order helper, so the
        online routing and the offline packing heuristics stay
        tie-break-identical by construction.
        """
        return _probe_order(
            self.heuristic, list(self.utilizations()), self.platform.cores
        )

    # ------------------------------------------------------------------

    def admit(
        self, task: SporadicTask, name: Optional[str] = None
    ) -> PlacementDecision:
        """Route one arriving task; returns where (and whether) it landed."""
        if not isinstance(task, SporadicTask):
            raise ModelError(
                "online placement assigns whole tasks; got "
                f"{type(task).__name__}"
            )
        if name is None:
            name = task.name
        if name is None or not name:
            self._serial += 1
            name = f"task{self._serial}"
            while name in self._owner:
                self._serial += 1
                name = f"task{self._serial}"
        if name in self._owner:
            raise ModelError(f"a task named {name!r} is already placed")
        probed: List[int] = []
        last: Optional[AdmissionDecision] = None
        for core in self.probe_order():
            probed.append(core)
            decision = self.controllers[core].admit(task, name=name)
            last = decision
            if decision.admitted:
                diverted = len(probed) > 1
                if diverted:
                    self.diversions += 1
                self._owner[name] = core
                self._tasks[name] = task
                self._order.append(name)
                return PlacementDecision(
                    name=name,
                    core=core,
                    probed=tuple(probed),
                    decision=decision,
                    diverted=diverted,
                )
        self.rejections += 1
        assert last is not None  # platforms have >= 1 core
        return PlacementDecision(
            name=name, core=None, probed=tuple(probed), decision=last,
            diverted=False,
        )

    def remove(self, name: str) -> AdmissionDecision:
        """Depart a placed task from its owning core."""
        core = self._owner.pop(name, None)
        if core is None:
            raise KeyError(f"no placed task named {name!r}")
        del self._tasks[name]
        self._order.remove(name)
        return self.controllers[core].remove(name)

    # ------------------------------------------------------------------

    def system(self) -> PartitionedSystem:
        """The current placement as a :class:`PartitionedSystem`.

        Task order is placement order, so the result serializes through
        ``repro/system-v1`` and re-verifies with the partition layer's
        offline tools.
        """
        tasks = TaskSet(
            (self._tasks[n] for n in self._order), name=f"online-{self.heuristic}"
        )
        assignment = [self._owner[n] for n in self._order]
        return PartitionedSystem(tasks, self.platform, assignment)

    def stats(self) -> Dict[str, object]:
        """Aggregate placement counters (JSON-ready)."""
        return {
            "cores": self.platform.cores,
            "heuristic": self.heuristic,
            "placed": len(self._owner),
            "rejections": self.rejections,
            "diversions": self.diversions,
            "core_utilizations": [float(u) for u in self.utilizations()],
            "per_core": [c.stats() for c in self.controllers],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OnlinePlacer(m={self.platform.cores}, {self.heuristic}, "
            f"placed={len(self._owner)})"
        )
