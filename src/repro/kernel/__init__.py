"""Compiled demand kernels — the flat-array hot-loop layer.

See :mod:`repro.kernel.kernel` for the design; obtain a cached instance
for a system via :meth:`repro.engine.context.AnalysisContext.kernel`,
or compile directly from components with ``DemandKernel(components)``.

Each walk has two loops: the pure-python loop, always available and the
reference, and numpy's int64 loop in :mod:`repro.kernel.vectorized`.
The kernel runs numpy's loop when numpy is installed and the walk is
long enough to pay for it, and the python loop otherwise (an
:class:`IncrementalKernel`, whose arrays change at every event, always
runs the python loop); there is nothing to select.
:func:`backend_info` reports whether numpy is installed and how many
walks ran and fell back.
"""

from .incremental import IncrementalKernel
from .kernel import (
    SCALE_CAP,
    DemandKernel,
    EnvelopeWalk,
    backend_info,
    reset_walk_counters,
)

__all__ = [
    "DemandKernel",
    "EnvelopeWalk",
    "IncrementalKernel",
    "SCALE_CAP",
    "backend_info",
    "reset_walk_counters",
]
