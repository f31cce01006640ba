"""Trace replay: drive a controller through a trace, record, verify.

:func:`replay` runs every event of a :class:`~repro.online.trace.Trace`
through an :class:`~repro.online.controller.AdmissionController`,
recording the per-event decision and latency.  In *oracle* mode it
additionally re-analyzes the system from scratch through the engine
after every event and asserts that the controller's verdict is
bit-exact with the fresh analysis — the correctness harness of the
whole incremental pipeline:

* an **admitted** arrival's snapshot must be FEASIBLE from scratch;
* a **rejected** arrival's would-be system (snapshot plus candidate)
  must be INFEASIBLE from scratch;
* after a **departure** the snapshot must be FEASIBLE from scratch.

Under the ``qpa`` oracle, an exact-stage rejection's witness
``(interval, demand)`` must also equal the from-scratch run's: the
controller's windowed walk from its grid-rounded bound is step-for-step
the engine's walk.

A violation raises :class:`ParityError` naming the event, so randomized
churn suites get a precise failure location for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..model.components import DemandComponent, as_components
from .controller import AdmissionController, AdmissionDecision, Stage
from .trace import ARRIVE, ArrivalEvent, Trace

__all__ = ["ParityError", "ReplayRecord", "ReplayReport", "replay"]


class ParityError(AssertionError):
    """A controller verdict disagreed with a from-scratch analysis."""


@dataclass(frozen=True)
class ReplayRecord:
    """One replayed event and the decision it produced."""

    index: int
    event: ArrivalEvent
    decision: AdmissionDecision


@dataclass(frozen=True)
class ReplayReport:
    """Everything a replay run observed."""

    trace_name: str
    records: Tuple[ReplayRecord, ...]
    oracle: Optional[str]

    @property
    def events(self) -> int:
        return len(self.records)

    @property
    def admitted(self) -> int:
        return sum(
            1
            for r in self.records
            if r.event.kind == ARRIVE and r.decision.admitted
        )

    @property
    def rejected(self) -> int:
        return sum(
            1
            for r in self.records
            if r.event.kind == ARRIVE and not r.decision.admitted
        )

    @property
    def mean_latency_seconds(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.decision.latency_seconds for r in self.records) / len(
            self.records
        )

    @property
    def max_latency_seconds(self) -> float:
        return max(
            (r.decision.latency_seconds for r in self.records), default=0.0
        )

    def stage_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for record in self.records:
            stage = record.decision.stage
            counts[stage] = counts.get(stage, 0) + 1
        return counts

    def summary(self) -> str:
        """Multi-line human-readable report (CLI output shape)."""
        lines = [
            f"replayed {self.events} events"
            + (f" of {self.trace_name!r}" if self.trace_name else "")
            + (f" (oracle: {self.oracle})" if self.oracle else ""),
            f"  admitted : {self.admitted}",
            f"  rejected : {self.rejected}",
            f"  latency  : mean {self.mean_latency_seconds * 1e3:.3f} ms, "
            f"max {self.max_latency_seconds * 1e3:.3f} ms",
        ]
        for stage, count in sorted(self.stage_counts().items()):
            lines.append(f"  stage {stage:<16s}: {count}")
        return "\n".join(lines)


def replay(
    trace: Trace,
    *,
    controller: Optional[AdmissionController] = None,
    oracle: bool = False,
    oracle_test: str = "qpa",
) -> ReplayReport:
    """Replay *trace* through a controller, optionally oracle-checked.

    Args:
        trace: the event sequence to drive.
        controller: a live controller to continue from; a fresh empty
            one is created when omitted.
        oracle: re-analyze from scratch after every event and raise
            :class:`ParityError` on any verdict mismatch (and, under
            ``qpa``, any exact-stage witness mismatch).
        oracle_test: exact engine test the oracle runs (``qpa`` or
            ``processor-demand``).

    Returns:
        A :class:`ReplayReport` with one record per event.
    """
    ctl = controller if controller is not None else AdmissionController()
    records: List[ReplayRecord] = []
    for index, event in enumerate(trace):
        before: Tuple[DemandComponent, ...] = ()
        candidate: Tuple[DemandComponent, ...] = ()
        if event.kind == ARRIVE:
            if oracle:
                # The would-be system of a rejection is pre-admit state
                # plus the candidate; only the oracle reads these.
                candidate = tuple(as_components([event.task]))
                before = ctl.snapshot()
            decision = ctl.admit(event.task, name=event.name)
        else:
            decision = ctl.remove(event.name, strict=False)
        records.append(ReplayRecord(index=index, event=event, decision=decision))
        if oracle:
            _check_event(
                ctl, event, decision, before, candidate, index, oracle_test
            )
    return ReplayReport(
        trace_name=trace.name,
        records=tuple(records),
        oracle=oracle_test if oracle else None,
    )


def _check_event(
    ctl: AdmissionController,
    event: ArrivalEvent,
    decision: AdmissionDecision,
    before: Tuple[DemandComponent, ...],
    candidate: Tuple[DemandComponent, ...],
    index: int,
    oracle_test: str,
) -> None:
    from ..engine import analyze

    if event.kind == ARRIVE and not decision.admitted:
        would_be: Any = list(before) + list(candidate)
        fresh = analyze(would_be, test=oracle_test)
        if not fresh.is_infeasible:
            raise ParityError(
                f"event {index}: controller rejected {event.name!r} "
                f"({decision.stage}) but from-scratch {oracle_test} says "
                f"{fresh.verdict}"
            )
        if oracle_test == "qpa" and decision.stage == Stage.EXACT:
            got = (decision.witness.interval, decision.witness.demand)
            expected = (fresh.witness.interval, fresh.witness.demand)
            if got != expected:
                raise ParityError(
                    f"event {index}: controller rejected {event.name!r} "
                    f"with witness dbf({got[0]}) = {got[1]} but "
                    f"from-scratch qpa finds dbf({expected[0]}) = {expected[1]}"
                )
        return
    fresh = analyze(list(ctl.snapshot()), test=oracle_test)
    if not fresh.is_feasible:
        raise ParityError(
            f"event {index}: controller kept the system after "
            f"{event.kind} of {event.name!r} ({decision.stage}) but "
            f"from-scratch {oracle_test} says {fresh.verdict}"
        )
