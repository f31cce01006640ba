"""Workload generation: random task sets (Bini-style) and literature examples."""

from .._lazy import lazy_exports

#: Exported name -> the submodule defining it, imported on first access.
_EXPORTS = {
    "TRACE_SCENARIOS": "traces",
    "generate_trace": "traces",
    "poisson_trace": "traces",
    "bursty_trace": "traces",
    "ramp_trace": "traces",
    "churn_trace": "traces",
    "uunifast": "uunifast",
    "uunifast_discard": "uunifast",
    "uniform_periods": "periods",
    "loguniform_periods": "periods",
    "ratio_constrained_periods": "periods",
    "GeneratorConfig": "taskset_gen",
    "TaskSetGenerator": "taskset_gen",
    "generate_taskset": "taskset_gen",
    "burns_taskset": "examples",
    "gap_taskset": "examples",
    "ma_shin_taskset": "examples",
    "gresser1_system": "examples",
    "gresser2_system": "examples",
    "example_systems": "examples",
    "ExampleSystem": "examples",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
