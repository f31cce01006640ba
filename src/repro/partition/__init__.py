"""Partitioned multiprocessor EDF analysis.

The subsystem that takes the library multiprocessor: a platform/system
model (:class:`Platform`, :class:`PartitionedSystem`), bin-packing
heuristics parameterized by pluggable admission predicates
(:func:`pack`), a minimum-core search (:func:`minimum_cores`),
global-EDF comparison bounds, and independent per-core verification
(:func:`verify_partition`) through the exact processor-demand test and
the EDF simulation oracle.

The engine-facing tests — ``"partitioned-edf"``,
``"global-edf-density"``, ``"global-edf-gfb"`` — are registered in the
default :class:`~repro.engine.registry.TestRegistry`, so they batch,
pickle and parallelise like every uniprocessor test::

    from repro import TaskSet, analyze

    result = analyze(big_set, "partitioned-edf", cores=4, heuristic="ffd")
    result.details["assignment"]   # task index -> core

    from repro.partition import minimum_cores, verify_partition
    found = minimum_cores(big_set, heuristic="ffd", admission="approx-dbf")
    verify_partition(found.packing.system).ok
"""

from .._lazy import lazy_exports

#: Exported name -> the submodule defining it, imported on first access.
_EXPORTS = {
    "Platform": "platform",
    "PartitionedSystem": "platform",
    "AdmissionPredicate": "admission",
    "admission_predicate": "admission",
    "admission_names": "admission",
    "BUILTIN_ADMISSIONS": "admission",
    "pack": "packing",
    "packing_order": "packing",
    "PackingResult": "packing",
    "HEURISTICS": "packing",
    "minimum_cores": "search",
    "MinCoresResult": "search",
    "partitioned_lower_bound": "search",
    "min_cores_global_density": "search",
    "partitioned_edf_test": "feasibility",
    "global_density_test": "feasibility",
    "global_gfb_test": "feasibility",
    "verify_partition": "verify",
    "PartitionVerification": "verify",
    "CoreVerdict": "verify",
    "agreement": "verify",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
