"""Discrete-event EDF simulation — the ground-truth oracle.

The analysis packages decide feasibility symbolically; this package
decides it operationally, by scheduling the synchronous release pattern
with a preemptive EDF dispatcher and watching for deadline misses.  On
sporadic/periodic systems with ``U <= 1`` the two must agree (EDF
optimality plus the synchronous worst case), which the integration tests
exploit.
"""

from .._lazy import lazy_exports

#: Exported name -> the submodule defining it, imported on first access.
_EXPORTS = {
    "simulate_edf": "edf",
    "EdfScheduler": "edf",
    "simulate_feasibility": "oracle",
    "simulate_fixed_priority": "fixed_priority",
    "deadline_monotonic_priorities": "fixed_priority",
    "render_gantt": "gantt",
    "ReleasePlan": "engine",
    "releases_for_taskset": "engine",
    "releases_for_system": "engine",
    "SimulationTrace": "trace",
    "ExecutionSegment": "trace",
    "DeadlineMiss": "trace",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
