"""Pluggable execution backends for the compiled demand kernels.

A :class:`~repro.kernel.DemandKernel` compiles a system to flat
integerized arrays; *how* the hot primitives sweep those arrays is a
separate concern.  This module is the seam: a
:class:`KernelBackend` receives the compiled kernel plus grid-scaled
arguments and returns grid-scaled results, and the kernel's public
methods dispatch every hot primitive (``dbf_batch``,
``first_overflow``, ``best_ratio``, ``count_steps``, the QPA walk)
through the active backend, one system per call.  The kernel methods
own the telemetry (the primitive counters; for the PDA and QPA walks
also the ``kernel.pda``/``kernel.qpa`` spans and iteration histograms),
so a walk is traced and counted the same way whichever backend runs it
and whichever entry point asked for it.

Two backends ship:

* :class:`PurePythonBackend` — delegates to the kernel's own
  interpreted loops (the reference semantics; always available).
* ``repro.kernel.vectorized.NumpyBackend`` — numpy int64 sweeps,
  auto-selected when numpy is installed.  It accelerates only calls
  whose scaled values fit ``int64`` with overflow headroom; anything
  else raises :class:`BackendUnsupported` and the kernel transparently
  re-runs the pure-python loop, mirroring the exact-`Fraction`
  ``SCALE_CAP`` degrade.  Verdicts, witnesses and iteration counts are
  bit-exact across backends (see ``tests/kernel/test_backend_parity.py``).

Selection is process-global: :func:`set_backend` with ``"auto"``
(default), ``"python"``, ``"numpy"``, or a ready-made instance;
:func:`backend_info` reports the active backend plus dispatch/fallback
counters (surfaced by the CLI's ``--cache-stats``).  Neither imports
numpy: availability is a ``find_spec`` lookup, and the numpy backend
imports it at its first dispatch of a kernel inside the int64
envelope, so a process whose analyses never dispatch (the paper's
``devi``, ``dynamic``, ``superpos`` and ``all-approx`` tests) never
loads it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..obs import counter as _obs_counter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from fractions import Fraction

    from ..model.numeric import ExactTime
    from .kernel import DemandKernel

__all__ = [
    "BackendUnsupported",
    "KernelBackend",
    "PurePythonBackend",
    "available_backends",
    "backend_info",
    "get_backend",
    "set_backend",
]


class BackendUnsupported(Exception):
    """The active backend cannot serve this call exactly.

    Raised by backend primitives when the inputs exceed what the
    backend can compute without rounding (e.g. scaled values past the
    numpy backend's int64 headroom, or a kernel already on the exact
    `Fraction` path).  The kernel catches it and re-runs the
    pure-python loop — a per-call degrade, never an error.
    """


class KernelBackend:
    """Execution strategy for the kernel's hot primitives.

    Every method receives the compiled kernel and grid-scaled
    arguments, and must return grid-scaled results *bit-identical* to
    the kernel's pure-python loops (including iteration counts — the
    paper's reported metric).  A backend unable to honour that for a
    particular call raises :class:`BackendUnsupported`; the base-class
    implementations always do, so a partial backend accelerates what it
    can and inherits the refusal for the rest.
    """

    name = "abstract"

    def dbf_batch_scaled(
        self, kernel: "DemandKernel", points: Sequence["ExactTime"]
    ) -> List["ExactTime"]:
        """Demand at every grid instant in *points* (grid units)."""
        raise BackendUnsupported(self.name)

    def first_overflow_scaled(
        self, kernel: "DemandKernel", bound_scaled: "ExactTime"
    ) -> Tuple[Optional["ExactTime"], Optional["ExactTime"], int]:
        """First staircase overflow up to the grid bound (PDA walk)."""
        raise BackendUnsupported(self.name)

    def qpa_scaled(
        self,
        kernel: "DemandKernel",
        limit_scaled: "ExactTime",
        floor_scaled: "ExactTime" = 0,
    ) -> Tuple[str, Optional["ExactTime"], Optional["ExactTime"], int]:
        """Zhang & Burns backward walk from the largest deadline below
        *limit_scaled*, stopping FEASIBLE once it steps below
        *floor_scaled*; returns ``(status, t, demand, iterations)`` with
        status in ``("empty", "infeasible", "feasible")``."""
        raise BackendUnsupported(self.name)

    def best_ratio_scaled(
        self, kernel: "DemandKernel", horizon_scaled: "ExactTime", floor: "Fraction"
    ) -> "Fraction":
        """Max ``demand/interval`` over staircase jumps, floored."""
        raise BackendUnsupported(self.name)

    def count_steps_scaled(
        self, kernel: "DemandKernel", bound_scaled: "ExactTime"
    ) -> int:
        """Unfolded job count with deadline at or below the bound."""
        raise BackendUnsupported(self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class PurePythonBackend(KernelBackend):
    """The reference backend: the kernel's own interpreted loops.

    Exists so "which code ran?" is always answerable — selecting
    ``"python"`` pins every primitive to the loops the parity suite
    treats as ground truth, with zero per-call fallback bookkeeping.
    """

    name = "python"

    def dbf_batch_scaled(self, kernel, points):
        return kernel._dbf_batch_scaled_py(points)

    def first_overflow_scaled(self, kernel, bound_scaled):
        return kernel._first_overflow_scaled_py(bound_scaled)

    def qpa_scaled(self, kernel, limit_scaled, floor_scaled=0):
        return kernel._qpa_scaled_py(limit_scaled, floor_scaled)

    def best_ratio_scaled(self, kernel, horizon_scaled, floor):
        return kernel._best_ratio_scaled_py(horizon_scaled, floor)

    def count_steps_scaled(self, kernel, bound_scaled):
        return kernel._count_steps_scaled_py(bound_scaled)


# ----------------------------------------------------------------------
# Selection registry
# ----------------------------------------------------------------------

_PYTHON = PurePythonBackend()
_ACTIVE: Optional[KernelBackend] = None  # None = auto-select on first use

# The dispatch tallies live on the process-global metrics registry
# (repro.obs) — one source of truth for backend_info(), --cache-stats
# and the /v1/metrics exposition alike.  Handles are pre-bound module
# constants so record_call() stays a single method call on the hot path.
_CALLS = _obs_counter(
    "repro_kernel_backend_calls_total",
    "Kernel primitive dispatches through the backend seam.",
)
_FALLBACKS = _obs_counter(
    "repro_kernel_backend_fallbacks_total",
    "Dispatches the active backend declined (BackendUnsupported) and "
    "the pure-python loop re-ran.",
)


def _numpy_backend() -> Optional[KernelBackend]:
    """A :class:`NumpyBackend` instance, or ``None`` if numpy is absent."""
    from .vectorized import NumpyBackend

    if not NumpyBackend.is_available():
        return None
    return NumpyBackend()


def available_backends() -> Tuple[str, ...]:
    """Backend names selectable on this interpreter."""
    names = ["python"]
    if _numpy_backend() is not None:
        names.append("numpy")
    return tuple(names)


def get_backend() -> KernelBackend:
    """The active backend, auto-selecting numpy on first use."""
    global _ACTIVE
    backend = _ACTIVE
    if backend is None:
        backend = _numpy_backend() or _PYTHON
        _ACTIVE = backend
    return backend


def set_backend(backend: Union[str, KernelBackend, None]) -> KernelBackend:
    """Select the kernel execution backend.

    Accepts ``"auto"`` (or ``None``) to re-run auto-selection,
    ``"python"``, ``"numpy"``, or a ready-made :class:`KernelBackend`.
    Returns the backend now active.  Raises :class:`ValueError` for an
    unknown name or for ``"numpy"`` when numpy is not installed.
    """
    global _ACTIVE
    if backend is None or backend == "auto":
        _ACTIVE = None
        return get_backend()
    if isinstance(backend, KernelBackend):
        _ACTIVE = backend
        return backend
    if backend == "python":
        _ACTIVE = _PYTHON
        return _PYTHON
    if backend == "numpy":
        vectorized = _numpy_backend()
        if vectorized is None:
            raise ValueError(
                "the numpy kernel backend requires numpy; install the "
                "'fast' extra (pip install repro-edf[fast])"
            )
        _ACTIVE = vectorized
        return vectorized
    raise ValueError(
        f"unknown kernel backend {backend!r}; "
        f"available: auto, {', '.join(available_backends())}"
    )


def backend_info() -> Dict[str, object]:
    """Diagnostics: active backend, availability, dispatch counters.

    ``calls`` counts primitive dispatches through the backend seam;
    ``fallbacks`` counts the subset the active backend declined
    (:class:`BackendUnsupported`) and the pure-python loop re-ran.
    """
    return {
        "active": get_backend().name,
        "available": available_backends(),
        "calls": _CALLS.value,
        "fallbacks": _FALLBACKS.value,
    }


def reset_backend_stats() -> None:
    """Zero the dispatch counters (tests and long-lived processes)."""
    _CALLS.reset()
    _FALLBACKS.reset()


def record_call() -> None:
    _CALLS.inc()


def record_fallback() -> None:
    _FALLBACKS.inc()
