"""Online admission control: streaming feasibility for dynamic systems.

The paper's point is that its exact tests cost about as much as a
sufficient test on the sets the sufficient test accepts, which makes an
exact test cheap enough to run online; this package is that setting
made concrete.  A live system mutates as tasks arrive and depart, and
every event gets an exact feasibility verdict without re-analyzing the
world:

* :class:`~repro.online.controller.AdmissionController` — the live
  system plus its decision (an exact utilization gate, then QPA
  windowed to the demand the arrival perturbs) over an incrementally
  maintained :class:`~repro.kernel.incremental.IncrementalKernel`;
* :class:`~repro.online.trace.ArrivalEvent` /
  :class:`~repro.online.trace.Trace` — the arrival-trace workload
  model, serialized as ``repro/trace-v1`` (see
  :mod:`repro.model.serialization`) and generated by the scenarios in
  :mod:`repro.generation.traces`;
* :func:`~repro.online.replay.replay` — the replay harness, with an
  oracle mode asserting bit-exact verdict (and ``qpa`` witness) parity
  against from-scratch engine analysis after every event;
* :class:`~repro.online.placement.OnlinePlacer` — online partitioned
  multiprocessor placement: arrivals routed onto platform cores through
  the packing heuristics' probe orders, one controller per core.
"""

from .._lazy import lazy_exports

#: Exported name -> the submodule defining it, imported on first access.
_EXPORTS = {
    "AdmissionController": "controller",
    "AdmissionDecision": "controller",
    "Stage": "controller",
    "OnlinePlacer": "placement",
    "PlacementDecision": "placement",
    "PLACEMENT_HEURISTICS": "placement",
    "ParityError": "replay",
    "ReplayRecord": "replay",
    "ReplayReport": "replay",
    "replay": "replay",
    "ArrivalEvent": "trace",
    "Trace": "trace",
    "ARRIVE": "trace",
    "DEPART": "trace",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
