"""Compiled demand kernels — the flat-array hot-loop layer.

See :mod:`repro.kernel.kernel` for the design; obtain a cached instance
for a system via :meth:`repro.engine.context.AnalysisContext.kernel`,
or compile directly from components with ``DemandKernel(components)``.

Execution of the hot primitives is pluggable (see
:mod:`repro.kernel.backend`): the pure-python loops are the always-on
reference, and :mod:`repro.kernel.vectorized` provides a numpy backend
auto-selected when numpy is installed.  Select explicitly with
:func:`set_backend`; inspect with :func:`backend_info`.
"""

from .backend import (
    BackendUnsupported,
    KernelBackend,
    PurePythonBackend,
    available_backends,
    backend_info,
    get_backend,
    reset_backend_stats,
    set_backend,
)
from .incremental import IncrementalKernel
from .kernel import BackwardDeadlineWalker, DemandKernel, EnvelopeWalk, SCALE_CAP

__all__ = [
    "DemandKernel",
    "EnvelopeWalk",
    "IncrementalKernel",
    "BackwardDeadlineWalker",
    "SCALE_CAP",
    "BackendUnsupported",
    "KernelBackend",
    "PurePythonBackend",
    "available_backends",
    "backend_info",
    "get_backend",
    "reset_backend_stats",
    "set_backend",
]
