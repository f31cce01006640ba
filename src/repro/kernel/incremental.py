"""Mutable demand kernels: merge components in and out without recompiling.

The online admission controller (:mod:`repro.online`) keeps one *live*
system that mutates on every arrival and departure.  Recompiling a
:class:`~repro.kernel.DemandKernel` per event would repeat the expensive
part of compilation — per-component `Fraction` denominator LCMs and
rescaling — for components that did not change.  An
:class:`IncrementalKernel` is a `DemandKernel` whose flat arrays are
mutable:

* :meth:`add` merges one component's scaled stride triple into the
  arrays.  When the component's denominators divide the current scale
  this is an append plus one insertion into the by-deadline rows; when
  the LCM grows, the existing integer arrays are multiplied by the
  growth factor (pure ``int`` multiplications — no `Fraction`
  arithmetic on the unchanged components).  When the LCM overflows
  :data:`~repro.kernel.kernel.SCALE_CAP` the kernel degrades to the
  exact mixed ``int``/`Fraction` fallback path, exactly like a fresh
  compile would.
* :meth:`remove_span` drops a contiguous run of components: each
  leaves the by-deadline rows at the slot a bisection on ``(d0,
  index)`` finds, and the rows' indices are renumbered (one pass) only
  when components follow the span.  Removing the newest components — a
  departure right after its arrival, a rejected candidate — costs
  ``O(log n)`` plus one memmove.  The scale is *not* shrunk back: any
  common multiple of the remaining denominators is a valid grid, and
  scaling by a positive constant preserves every comparison, tie and
  ratio the tests make (see :mod:`repro.kernel.kernel`), so verdicts,
  witnesses and iteration counts stay bit-exact with a freshly
  compiled kernel.

All read primitives are inherited unchanged from `DemandKernel` — the
flat attributes are lists instead of tuples, which every inherited loop
(indexing, ``zip``, ``bisect``, heap setup slices) handles identically.
The one override is the loop choice, :meth:`~IncrementalKernel._walk`:
every walk runs on the python loop, whatever its size, so a live
admission server never loads numpy.  Every mutation changes the arrays,
so numpy's loop would rebuild its int64 arrays for each walk, and the
import alone grows a process by ~12 MB (26 → 38 MB resident after
importing :mod:`repro.online` and :mod:`repro.service`), a third of an
admission server.  On the admission benchmark's churn (U = 0.85, one
arrival and its departure per step) the two loops cost about the same:
python 0.42–0.67 ms against numpy 0.43–0.69 ms per step at 500 tasks,
0.68–1.11 against 0.62–1.04 ms at 1000 (min of 7 interleaved passes of
200 steps, three processes; Intel Xeon, Python 3.11, numpy 2.4).  Since
the size rule's answer is never read, the mutators keep neither numpy's
arrays (never built here) nor the rule's cached ``Σ 1/T`` up to date;
they drop the lazily built ``rates``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from math import lcm
from typing import Any, Callable, Sequence

from ..model.components import DemandComponent
from ..model.numeric import ExactTime
from ..obs import counter as _obs_counter
from ..obs import emit as _obs_emit
from .kernel import _CALLS, SCALE_CAP, DemandKernel

__all__ = ["IncrementalKernel"]

# Rescales and exact-degrades are rare (a handful per admission
# session) but load-bearing for performance diagnosis: a degraded
# kernel abandons the integer fast path for good.  Each one therefore
# gets both a counter bump and a structured event.
_RESCALES = _obs_counter(
    "repro_kernel_rescales_total",
    "Incremental-kernel integer grid growths (LCM grew on add).",
)
_DEGRADES = _obs_counter(
    "repro_kernel_degrades_total",
    "Incremental kernels degraded to the exact Fraction path "
    "(scale past SCALE_CAP).",
)


class IncrementalKernel(DemandKernel):
    """A :class:`DemandKernel` supporting in-place component add/remove.

    The flat parallel arrays (``d0s`` / ``periods`` / ``wcets``) and the
    by-deadline rows are plain lists kept consistent by the mutators;
    component order is insertion order, so index ``i`` always refers to
    the ``i``-th currently-present component.
    """

    __slots__ = ()

    def __init__(self, components: Sequence[DemandComponent] = ()) -> None:
        super().__init__(components)
        self.d0s = list(self.d0s)
        self.periods = list(self.periods)
        self.wcets = list(self.wcets)

    def _walk(
        self, name: str, jobs: float, python_loop: Callable[..., Any], *args: Any
    ) -> Any:
        """Run every walk on *python_loop*, whatever its size (see the
        module docstring)."""
        _CALLS.inc()
        return python_loop(*args)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, component: DemandComponent) -> int:
        """Merge *component* into the kernel; returns its index."""
        d0 = component.first_deadline
        period = component.period if component.period is not None else 0
        wcet = component.wcet
        if self.scale is not None:
            grown = lcm(
                self.scale,
                wcet.denominator if isinstance(wcet, Fraction) else 1,
                d0.denominator if isinstance(d0, Fraction) else 1,
                period.denominator if isinstance(period, Fraction) else 1,
            )
            if grown > SCALE_CAP:
                self._degrade_to_exact()
            elif grown != self.scale:
                self._rescale(grown // self.scale)
                self.scale = grown
        if self.scale is None:
            d0_s: ExactTime = d0
            period_s: ExactTime = period
            wcet_s: ExactTime = wcet
        else:
            d0_s = int(d0 * self.scale)
            period_s = int(period * self.scale)
            wcet_s = int(wcet * self.scale)
        index = self.n
        self.d0s.append(d0_s)
        self.periods.append(period_s)
        self.wcets.append(wcet_s)
        self._rates = None
        self.n += 1
        insort(self._by_deadline, (d0_s, index, period_s, wcet_s))
        return index

    def remove_span(self, start: int, count: int = 1) -> None:
        """Drop components ``start .. start+count-1`` (insertion order).

        Each one leaves the by-deadline rows at the slot a bisection on
        ``(d0, index)`` finds; the rows' indices are renumbered only
        when components follow the span.
        """
        end = start + count
        if count < 1 or start < 0 or end > self.n:
            raise ValueError(
                f"invalid removal span [{start}, {end}) of a "
                f"{self.n}-component kernel"
            )
        rows = self._by_deadline
        for idx in range(start, end):
            del rows[bisect_left(rows, (self.d0s[idx], idx))]
        if end < self.n:
            self._by_deadline = [
                (d0, idx - count, p, c) if idx >= end else (d0, idx, p, c)
                for d0, idx, p, c in rows
            ]
        del self.d0s[start:end], self.periods[start:end], self.wcets[start:end]
        self._rates = None
        self.n -= count

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _rescale(self, factor: int) -> None:
        """Grow the integer grid by *factor* (> 1), in place."""
        _RESCALES.inc()
        _obs_emit(
            "kernel", "kernel.rescale", factor=factor, components=self.n
        )
        self.d0s = [v * factor for v in self.d0s]
        self.periods = [v * factor for v in self.periods]
        self.wcets = [v * factor for v in self.wcets]
        self._by_deadline = [
            (d * factor, i, p * factor, c * factor) for d, i, p, c in self._by_deadline
        ]

    def _degrade_to_exact(self) -> None:
        """Switch to the exact mixed int/Fraction path (scale overflow)."""
        scale = self.scale
        if scale is None:  # pragma: no cover - already exact
            return
        _DEGRADES.inc()
        _obs_emit("kernel", "kernel.degrade", components=self.n)
        unscale = Fraction(1, scale)

        def back(v: ExactTime) -> ExactTime:
            q = v * unscale
            return q.numerator if q.denominator == 1 else q

        self.scale = None
        self.d0s = [back(v) for v in self.d0s]
        self.periods = [back(v) for v in self.periods]
        self.wcets = [back(v) for v in self.wcets]
        self._by_deadline = [
            (back(d), i, back(p), back(c)) for d, i, p, c in self._by_deadline
        ]
