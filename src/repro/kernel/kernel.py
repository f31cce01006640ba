"""Compiled demand kernels: flat-array hot loops for the exact tests.

Every exact test in this library — the processor demand test (paper
Def. 3), the superposition family, and the QPA comparator — is
ultimately a walk over the demand staircase.  Executed over
:class:`~repro.model.components.DemandComponent` objects that walk costs
one attribute lookup plus one method call plus exact-`Fraction`
arithmetic *per deadline*; at thousand-task scale the interpreter, not
the algorithm, dominates.  A :class:`DemandKernel` removes that constant
factor without giving up exactness:

* **Integerization.**  All component parameters are rescaled by the LCM
  of the denominators of every ``wcet`` / ``first_deadline`` /
  ``period``.  On that grid the staircase arithmetic is pure machine
  `int` — floor divisions, additions, comparisons — with no `Fraction`
  objects on any verdict path.  When the LCM exceeds :data:`SCALE_CAP`
  (pathological rationals whose common grid would need huge integers)
  the kernel falls back to the exact mixed `int`/`Fraction` path; the
  loops are identical, only the array element type changes, so verdicts
  are bit-exact in both modes.
* **One compile routine, over rows.**  A kernel compiles from
  ``(wcet, first_deadline, period)`` rows: :meth:`DemandKernel.from_rows`
  takes them straight from an
  :class:`~repro.engine.context.AnalysisContext` fingerprint, and
  ``DemandKernel(components)`` reads them off its components and runs
  the same routine.  When every value is an ``int`` the grid scale is
  1 and the columns of the rows are the arrays as they stand — no
  per-value ``lcm`` or rescaling; rational rows take the scaling above.
* **Flat layout.**  Parameters live in parallel tuples ``(d0s, periods,
  wcets)`` in source order, plus one by-first-deadline sorted list of
  ``(d0, index, period, wcet)`` rows that every walk seeds from and
  bisects with ``(bound, inf)`` probes — no per-step attribute or
  method dispatch.
* **Loop-free-of-lookup primitives.**  The hot operations are provided
  as tight loops over the flat arrays: :meth:`dbf`,
  :meth:`first_overflow` (the merged forward walk of the processor
  demand test), :meth:`prev_deadline` (QPA's backward step: one scan of
  the rows below the limit, one candidate each), and
  :meth:`demand_profile` / :meth:`best_ratio` (load and plotting scans).
* **Two loops per walk, chosen by size.**  :meth:`first_overflow`,
  :meth:`qpa`, :meth:`best_ratio` and :meth:`count_steps` run numpy's
  int64 loops (:mod:`repro.kernel.vectorized`) when numpy is installed
  and the walk is big enough to amortize them (its size, ``n + bound ·
  Σ 1/T`` for a forward walk and ``2n`` for QPA, reaches
  :data:`_MIN_VECTOR_JOBS`), and their python loops otherwise.
  The python loops are the reference: a call numpy's loops decline
  re-runs them, and both return bit-identical results.
* **One walk per question.**  :class:`EnvelopeWalk` is the one
  ``SuperPos`` walk: ``SuperPos(x)`` (:meth:`superpos_scan`), the
  Dynamic Error test and the All-Approximated test are failure policies
  over its single loop (stop; raise the level and revise; revise one
  component).  :meth:`qpa` with ``floor=`` is the backward walk,
  stopping FEASIBLE below the floor.  The engine tests run these walks
  on the whole staircase; the online
  :class:`~repro.online.AdmissionController` runs :meth:`qpa` on the
  window an arrival can perturb.
* **Integer envelopes.**  :meth:`envelope_weights` returns ``(H, w)``
  with ``H`` the lcm of the grid periods and ``w_i = C_i · H / T_i``,
  so ``w_i / H`` is the rate ``C_i / T_i`` exactly.  The envelope walk
  and the closed-form bounds keep their envelope sums as integers
  scaled by ``H`` instead of `Fraction` sums of rates.  The exact
  fallback grid returns ``(1, rates)`` instead; the walk's loop serves
  both.
* **Lazy exact sums.**  The :class:`EnvelopeWalk` state is the heap,
  the counted jobs and their exact demand, and the envelope sums
  ``slope = Σ w`` and ``base = Σ w·anchor``.  A float screen decides
  every check that clears the capacity line by a margin; an envelope
  switch updates the screen's float sums and queues ``(w, anchor)``,
  and the queue is folded into the exact sums only for a check too
  close for the screen (or with the screen off, as for an ``H`` past
  float range), which includes every failed check, and in
  :meth:`EnvelopeWalk.demand`.  A walk whose checks all clear the
  screen never adds up its exact sums.

Scaling by a positive constant preserves every comparison the tests
make (``dbf(I) <= I`` ⇔ ``dbf_s(I_s) <= I_s``), every tie between
coincident deadlines, and every ratio (``dbf(I)/I = dbf_s(I_s)/I_s``),
which is why the rewired tests reproduce verdicts, witnesses and
iteration counts of the component-based reference implementations
exactly (see ``tests/kernel/test_parity_random.py``).

Kernels are compiled once per distinct system: they are cached on
:class:`~repro.engine.context.AnalysisContext` under the context
fingerprint, so warm service/batch traffic pays the compile cost once
per task set per process.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush, heapreplace
from importlib.util import find_spec
from math import inf, lcm
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..model.components import DemandComponent
from ..model.numeric import ExactTime, Time, to_exact
from ..obs import ITERATION_BUCKETS
from ..obs import counter as _obs_counter
from ..obs import histogram as _obs_histogram
from ..obs import span as _obs_span

__all__ = [
    "DemandKernel",
    "EnvelopeWalk",
    "SCALE_CAP",
    "backend_info",
    "reset_walk_counters",
]

# Pre-bound per-primitive handles: the walk methods below are the hot
# seam every feasibility test funnels through, so each records one
# counter bump (and, for the PDA and QPA walks, one iteration-count
# observation — the paper's own efficiency metric) with no label
# resolution or formatting per call.
_PRIMITIVE_CALLS = _obs_counter(
    "repro_kernel_primitive_calls_total",
    "Kernel primitive invocations, by primitive.",
    labelnames=("primitive",),
)
_FIRST_OVERFLOW_CALLS = _PRIMITIVE_CALLS.labels("first_overflow")
_QPA_CALLS = _PRIMITIVE_CALLS.labels("qpa")
_BEST_RATIO_CALLS = _PRIMITIVE_CALLS.labels("best_ratio")
_COUNT_STEPS_CALLS = _PRIMITIVE_CALLS.labels("count_steps")
_QPA_ITERATIONS = _obs_histogram(
    "repro_kernel_qpa_iterations",
    "dbf evaluations per QPA backward walk.",
    buckets=ITERATION_BUCKETS,
)
_PDA_ITERATIONS = _obs_histogram(
    "repro_kernel_pda_iterations",
    "Distinct intervals checked per processor-demand forward walk.",
    buckets=ITERATION_BUCKETS,
)
# The loop-choice tallies, read by backend_info(), --cache-stats and
# the /v1/metrics exposition alike.
_CALLS = _obs_counter(
    "repro_kernel_backend_calls_total",
    "Kernel walks run (first_overflow, qpa, best_ratio, count_steps).",
)
_FALLBACKS = _obs_counter(
    "repro_kernel_backend_fallbacks_total",
    "Walks numpy's loops took up and declined (exact grid, int64 "
    "headroom, failed import), so the pure-python loop re-ran.",
)

#: The size rule: a walk runs on numpy's loops only when its size in
#: jobs reaches this.  A forward walk's size is ``n + bound · Σ 1/T``,
#: which over-counts the jobs a walk up to *bound* can touch (it ignores
#: release offsets).  Below it the python loop wins: numpy's loops pay
#: ~40 µs of fixed array-dispatch cost (measured) while the interpreter
#: walk costs well under a microsecond per job, so small systems and
#: short bounds — partition admission probes, per-core verification
#: subsets, the Burns example's QPA walk — keep their microsecond
#: latency and never import numpy.
_MIN_VECTOR_JOBS = 256

#: A QPA walk's size is its component count, at this many jobs each
#: (numpy from n = 128).  Every backward step evaluates ``dbf(t)`` over
#: the n components, so n, not the bound, decides which loop wins each
#: step.  Per-set QPA time on the python loop against numpy's (array
#: build included), median of the per-set min of 5, over 16 sets at
#: U = 0.85–0.97 (short walks) and 12 at U = 0.985–0.998 (long walks),
#: periods 1,000–100,000 (Python 3.11, numpy 2.4, 2-core Xeon box):
#:
#:    n   short walk µs  (steps)   long walk µs  (steps)
#:   25     29 /  109     (6)        292 /  790   (74)
#:   64     82 /  145     (8)       1110 / 1268  (114)
#:   96    120 /  159     (8)       1796 / 1401  (122)
#:  128    143 /  166     (7)       1355 /  918   (68)
#:  160    213 /  208     (9)       2033 / 1123   (81)
#:  256    265 /  235     (7)       1750 /  781   (68)
#:  400    472 /  319     (8)       4485 / 1351  (105)
#:
#: numpy breaks even near n = 160 on short walks and below n = 96 on
#: long ones; 128 sits between, where either loop loses little.
_QPA_JOBS_PER_COMPONENT = 2

#: Largest accepted integerization scale.  Beyond this the common grid
#: needs integers so wide that `int` arithmetic loses its edge over the
#: exact mixed path, so compilation falls back to it.  (`Fraction`
#: denominators are always finite, but the LCM across many unrelated
#: denominators can explode combinatorially.)
SCALE_CAP = 1 << 128


@lru_cache(maxsize=None)
def _numpy_loops():
    """:mod:`repro.kernel.vectorized` when numpy is installed, else
    ``None``.  Found without importing numpy, which loads at the first
    array build."""
    if find_spec("numpy") is None:
        return None
    from . import vectorized

    return vectorized


def backend_info() -> Dict[str, object]:
    """Diagnostics: whether numpy is installed, and the walk counters.

    ``calls`` counts the kernel walks run (:meth:`~DemandKernel.qpa`,
    :meth:`~DemandKernel.first_overflow_scaled`,
    :meth:`~DemandKernel.best_ratio`, :meth:`~DemandKernel.count_steps`),
    on either loop.  ``fallbacks`` counts the walks that passed the size
    rule (:data:`_MIN_VECTOR_JOBS`) and that numpy's loops then declined
    — exact `Fraction` grid, int64 headroom, or a failed numpy import —
    so the pure-python loop re-ran.  A walk the size rule keeps in
    python is not a fallback.
    """
    return {
        "numpy": _numpy_loops() is not None,
        "calls": _CALLS.value,
        "fallbacks": _FALLBACKS.value,
    }


def reset_walk_counters() -> None:
    """Zero the walk counters (tests and long-lived processes)."""
    _CALLS.reset()
    _FALLBACKS.reset()


class DemandKernel:
    """A per-system compiled view of the demand components.

    Attributes:
        n: component count.
        scale: positive integerization factor, or ``None`` when the
            kernel runs on the exact fallback path.  With a scale, the
            flat arrays hold ``value * scale`` as machine integers;
            without one they hold the original exact values.
        d0s / periods / wcets: parallel tuples in source order.  A
            one-shot component stores period ``0`` (periods are
            strictly positive, so ``0`` is an unambiguous sentinel that
            keeps the hot loops branching on truthiness only).
        rates: per-component utilization ``C/T`` as `Fraction` (``0``
            for one-shot components) — scale-invariant; the envelope
            weights on the exact grid.
        _by_deadline: the ``(d0, index, period, wcet)`` rows sorted by
            first deadline, then index — the one by-deadline view.

    All public methods accept and return values in *original* time
    units; the ``*_scaled`` variants expose the internal grid for the
    rewired tests that keep whole loops inside it.
    """

    __slots__ = (
        "n",
        "scale",
        "d0s",
        "periods",
        "wcets",
        "_rates",
        "_by_deadline",
        "_job_rate",
        "_vec_cache",
    )

    def __init__(self, components: Sequence[DemandComponent]) -> None:
        self._compile([(c.wcet, c.first_deadline, c.period) for c in components])

    @classmethod
    def from_rows(cls, rows: Sequence[Tuple[Any, ...]]) -> "DemandKernel":
        """Compile straight from ``(wcet, first_deadline, period, ...)``
        rows of normalised component parameters (``period`` ``None`` for
        a one-shot; later fields, such as a fingerprint row's source
        label, are ignored) — no `DemandComponent` is needed."""
        kernel = cls.__new__(cls)
        kernel._compile(rows)
        return kernel

    def _compile(self, rows: Sequence[Tuple[Any, ...]]) -> None:
        """The one compile routine: rows to the flat grid arrays."""
        self.n = len(rows)
        wcets, d0s, periods = tuple(zip(*rows))[:3] if rows else ((), (), ())
        types = {*map(type, wcets), *map(type, d0s), *map(type, periods)}
        if type(None) in types:  # one-shots store the period-0 sentinel
            periods = tuple(0 if p is None else p for p in periods)
            types.discard(type(None))
        if types <= {int}:
            # An integer system is its own grid: scale 1, columns as given.
            self.scale: Optional[int] = 1
        else:
            scale = 1
            for value in (*wcets, *d0s, *periods):
                scale = lcm(scale, value.denominator)
                if scale > SCALE_CAP:
                    break
            if scale > SCALE_CAP:
                self.scale = None
            else:
                self.scale = scale
                d0s = tuple(int(x * scale) for x in d0s)
                periods = tuple(int(x * scale) for x in periods)
                wcets = tuple(int(x * scale) for x in wcets)
        self.d0s: Tuple[ExactTime, ...] = d0s
        self.periods: Tuple[ExactTime, ...] = periods
        self.wcets: Tuple[ExactTime, ...] = wcets
        self._rates: Optional[Tuple[Fraction, ...]] = None
        # Σ 1/T for the size rule, and the int64 arrays of numpy's
        # loops: built lazily, once per kernel.
        self._job_rate = None
        self._vec_cache = None
        self._by_deadline: List[Tuple[ExactTime, int, ExactTime, ExactTime]] = (
            sorted(zip(d0s, range(self.n), periods, wcets))
        )

    @property
    def rates(self) -> Tuple[Fraction, ...]:
        """Per-component ``C/T`` as `Fraction` (0 for one-shot), built on
        first use — only envelope walks off the integer ``(H, w)`` need
        them, and ``n`` `Fraction` constructions would otherwise tax every
        processor-demand/QPA compile."""
        rates = self._rates
        if rates is None:
            rates = tuple(
                Fraction(c) / Fraction(p) if p else Fraction(0)
                for c, p in zip(self.wcets, self.periods)
            )
            self._rates = rates
        return rates

    def envelope_weights(self) -> Tuple[ExactTime, Sequence[ExactTime]]:
        """``(L, w)`` with ``w[i] / L == rates[i]`` exactly.

        On the integer grid ``L`` is the lcm of the periods and ``w[i] =
        wcets[i] * (L // periods[i])`` (``0`` for one-shots), so envelope
        sums and slopes stay machine integers scaled by the common ``L``.
        On the exact fallback grid it is ``(1, rates)``, letting one loop
        serve both grids.  Built per call, not cached: the weights of a
        many-period system are wide integers, and contexts stay in the
        LRU long after their walk.
        """
        if self.scale is None:
            return 1, self.rates
        periods = self.periods
        hyper = lcm(*[p for p in periods if p])
        return hyper, [
            c * (hyper // p) if p else 0 for c, p in zip(self.wcets, periods)
        ]

    # ------------------------------------------------------------------
    # Grid conversions
    # ------------------------------------------------------------------

    @property
    def min_d0_scaled(self) -> Optional[ExactTime]:
        """Smallest first deadline on the internal grid (``None`` if empty)."""
        return self._by_deadline[0][0] if self.n else None

    def inclusive_scaled(self, value: Time) -> ExactTime:
        """Grid bound ``b`` with ``d_s <= b``  ⇔  ``d <= value``.

        Grid points are integers, so flooring ``value * scale`` is exact
        for inclusive comparisons (and for staircase evaluation, since
        ``floor((floor(x) - a) / b) == floor((x - a) / b)`` for integer
        ``a``, ``b > 0``).
        """
        if self.scale is None:
            return to_exact(value)
        v = Fraction(to_exact(value)) * self.scale
        return v.numerator // v.denominator

    def exclusive_scaled(self, value: Time) -> ExactTime:
        """Grid limit ``l`` with ``d_s < l``  ⇔  ``d < value`` (ceiling)."""
        if self.scale is None:
            return to_exact(value)
        v = Fraction(to_exact(value)) * self.scale
        return -((-v.numerator) // v.denominator)

    def unscale(self, value: ExactTime) -> ExactTime:
        """Map a grid value back to original time units (normalized)."""
        if self.scale is None:
            return value
        q = Fraction(value) / self.scale
        return q.numerator if q.denominator == 1 else q

    # ------------------------------------------------------------------
    # Point evaluation
    # ------------------------------------------------------------------

    def dbf_scaled(self, t: ExactTime) -> ExactTime:
        """System demand at grid instant *t* (grid units).

        Iterates the by-deadline rows and stops at the first ``d0 > t``
        — no per-call slice or bisect, and QPA's backward walk probes
        ever-smaller instants, so the scanned prefix keeps shrinking as
        the test converges.
        """
        total = 0
        for d0, _, p, c in self._by_deadline:
            if d0 > t:
                break
            total += ((t - d0) // p + 1) * c if p else c
        return total

    def dbf(self, interval: Time) -> ExactTime:
        """Exact ``dbf(interval)`` in original units."""
        return self.unscale(self.dbf_scaled(self.inclusive_scaled(interval)))

    # ------------------------------------------------------------------
    # Loop choice
    # ------------------------------------------------------------------

    def _jobs(self, bound_scaled: ExactTime) -> float:
        """``n + bound · Σ 1/T``: the size of a forward walk up to the
        grid bound, in jobs."""
        rate = self._job_rate
        if rate is None:
            rate = self._job_rate = sum(1 / p for p in self.periods if p)
        try:
            return self.n + bound_scaled * rate
        except OverflowError:  # a bound past float range: numpy declines it
            return inf

    def _walk(
        self, name: str, jobs: float, python_loop: Callable[..., Any], *args: Any
    ) -> Any:
        """Run one walk on numpy's loop or on *python_loop*.

        ``vectorized.<name>`` runs when numpy is installed and the
        walk's size, *jobs*, reaches :data:`_MIN_VECTOR_JOBS`.
        Otherwise, or when numpy's loop declines (one fallback),
        *python_loop*, the reference, runs.  Both return bit-identical
        results.
        """
        _CALLS.inc()
        loops = None if jobs < _MIN_VECTOR_JOBS else _numpy_loops()
        if loops is not None:
            try:
                return getattr(loops, name)(self, *args)
            except loops.Declined:
                _FALLBACKS.inc()
        return python_loop(*args)

    # ------------------------------------------------------------------
    # Forward walk
    # ------------------------------------------------------------------

    def points_scaled(
        self, bound_scaled: ExactTime
    ) -> Iterator[Tuple[ExactTime, ExactTime]]:
        """Yield ``(interval, demand)`` at every staircase jump up to the
        grid bound, coincident deadlines folded into one point.

        The merge heap holds ``(deadline, index, period, wcet)`` rows;
        the by-deadline rows up to the bound are already a valid
        min-heap, so setup is a bisect plus one slice copy.
        """
        cut = bisect_right(self._by_deadline, (bound_scaled, inf))
        heap = self._by_deadline[:cut]
        demand: ExactTime = 0
        while heap:
            d, idx, p, c = heap[0]
            demand += c
            if p and d + p <= bound_scaled:
                heapreplace(heap, (d + p, idx, p, c))
            else:
                heappop(heap)
            if heap and heap[0][0] == d:
                continue
            yield d, demand

    def first_overflow_scaled(
        self, bound_scaled: ExactTime
    ) -> Tuple[Optional[ExactTime], Optional[ExactTime], int]:
        """First ``(interval, demand)`` with ``demand > interval`` up to
        the grid bound, plus the count of distinct intervals checked.

        ``(None, None, count)`` when the staircase stays at or below
        capacity — the merged forward walk of the processor demand test.
        A walk that clears the size rule runs on numpy's loops (deadline
        windows with early exit, see :meth:`_walk`); the sequential heap
        walk is the reference for witnesses and iteration counts.
        """
        _FIRST_OVERFLOW_CALLS.inc()
        with _obs_span("kernel.pda", n=self.n):
            result = self._walk(
                "first_overflow",
                self._jobs(bound_scaled),
                self._first_overflow_scaled_py,
                bound_scaled,
            )
        _PDA_ITERATIONS.observe(result[2])
        return result

    def _first_overflow_scaled_py(
        self, bound_scaled: ExactTime
    ) -> Tuple[Optional[ExactTime], Optional[ExactTime], int]:
        """Reference forward walk, inlined for speed.

        On the integerized path heap entries are single machine integers
        ``deadline * K + index`` (``K`` > any index): heap sifts compare
        plain ints instead of tuples, the per-component stride becomes
        one addition (``period * K`` preserves the index), and the
        coincident-deadline fold is a subtraction-free range check.  The
        exact fallback path merges the by-deadline rows themselves
        (:meth:`points_scaled`).
        """
        cut = bisect_right(self._by_deadline, (bound_scaled, inf))
        periods = self.periods
        wcets = self.wcets
        demand: ExactTime = 0
        iterations = 0
        if self.scale is not None:
            k = self.n
            strides = [p * k for p in periods]
            # The by-deadline rows up to the bound map to a sorted (hence
            # heap-ordered) list of encoded entries.
            heap = [d * k + i for d, i, _, _ in self._by_deadline[:cut]]
            limit = (bound_scaled + 1) * k  # e + stride < limit ⟺ d + p <= bound
            while heap:
                entry = heap[0]
                idx = entry % k
                demand += wcets[idx]
                stride = strides[idx]
                if stride and entry + stride < limit:
                    heapreplace(heap, entry + stride)
                else:
                    heappop(heap)
                # Coincident fold: the next entry shares this deadline
                # iff it still lies below the next deadline slot.
                if heap and heap[0] < entry - idx + k:
                    continue
                iterations += 1
                d = entry // k
                if demand > d:
                    return d, demand, iterations
            return None, None, iterations
        # Exact fallback: same walk, via the shared tuple-merge generator.
        for d, demand in self.points_scaled(bound_scaled):
            iterations += 1
            if demand > d:
                return d, demand, iterations
        return None, None, iterations

    def first_overflow(
        self, bound: Time
    ) -> Tuple[Optional[ExactTime], Optional[ExactTime], int]:
        """:meth:`first_overflow_scaled` in original units."""
        interval, demand, iterations = self.first_overflow_scaled(
            self.inclusive_scaled(bound)
        )
        if interval is None:
            return None, None, iterations
        return self.unscale(interval), self.unscale(demand), iterations

    def demand_profile(self, bound: Time) -> List[Tuple[ExactTime, ExactTime]]:
        """Materialised staircase up to *bound*, in original units."""
        b = self.inclusive_scaled(bound)
        return [
            (self.unscale(i), self.unscale(d)) for i, d in self.points_scaled(b)
        ]

    def best_ratio(self, horizon: Time, floor: Fraction) -> Fraction:
        """Max of ``dbf(I)/I`` over staircase jumps ``I <= horizon``,
        floored at *floor* — comparisons stay exact on both loops
        (cross-multiplied integer compares; no float on a verdict path),
        one `Fraction` built only for the final result."""
        _BEST_RATIO_CALLS.inc()
        horizon_scaled = self.inclusive_scaled(horizon)
        return self._walk(
            "best_ratio",
            self._jobs(horizon_scaled),
            self._best_ratio_scaled_py,
            horizon_scaled,
            floor,
        )

    def _best_ratio_scaled_py(
        self, horizon_scaled: ExactTime, floor: Fraction
    ) -> Fraction:
        """Reference ratio scan over the sequential point stream."""
        num, den = floor.numerator, floor.denominator
        for i_s, d_s in self.points_scaled(horizon_scaled):
            if d_s * den > num * i_s:
                num, den = d_s, i_s
        return Fraction(num) / Fraction(den)

    def count_steps(self, bound: Time) -> int:
        """Number of staircase jobs (not folded) with deadline ≤ *bound*."""
        _COUNT_STEPS_CALLS.inc()
        b = self.inclusive_scaled(bound)
        return self._walk(
            "count_steps", self._jobs(b), self._count_steps_scaled_py, b
        )

    def _count_steps_scaled_py(self, bound_scaled: ExactTime) -> int:
        b = bound_scaled
        total = 0
        for d0, p in zip(self.d0s, self.periods):
            if d0 <= b:
                total += int((b - d0) // p) + 1 if p else 1
        return total

    # ------------------------------------------------------------------
    # Backward walk
    # ------------------------------------------------------------------

    def prev_deadline(self, limit: Time) -> Optional[ExactTime]:
        """Largest deadline strictly below *limit*, in original units."""
        found = self._prev_scaled(self.exclusive_scaled(limit))
        return None if found is None else self.unscale(found)

    def _prev_scaled(self, limit: ExactTime) -> Optional[ExactTime]:
        """Largest grid deadline strictly below the grid *limit*.

        One scan of the rows whose first deadline lies below the limit:
        each component's last deadline below it is ``d0 + k·p`` with
        ``k = ceil((limit − d0) / p) − 1``, written with floor division
        so it is exact on the integer and the `Fraction` grid alike
        (``d0`` itself for a one-shot).  QPA takes this step only when
        ``dbf(t) = t``; every other step jumps to ``dbf(t)``.
        """
        best: Optional[ExactTime] = None
        for d0, _, p, _ in self._by_deadline:
            if d0 >= limit:
                break
            last = d0 + (-((d0 - limit) // p) - 1) * p if p else d0
            if best is None or last > best:
                best = last
        return best

    def qpa(
        self, bound: Time, floor: Time = 0
    ) -> Tuple[str, Optional[ExactTime], Optional[ExactTime], int]:
        """The Zhang & Burns backward walk from *bound* down to *floor*.

        Returns ``(status, interval, demand, iterations)`` with status
        ``"empty"`` (no deadline at or below the bound — trivially
        feasible), ``"infeasible"`` (witness interval/demand in original
        units, exact), or ``"feasible"``.  A walk that steps below
        *floor* stops FEASIBLE: the caller vouches that no deadline
        under the floor overflows (the admission controller's window —
        demand below an arrival's first deadline is the old, feasible
        system's).  Up to that stop the walk is step-for-step the full
        one.  A walk that clears the size rule runs on numpy's loops
        (see :meth:`_walk`): the walk's ``t``-sequence — hence verdicts,
        witnesses and iteration counts — is identical on both loops;
        only the per-step evaluation strategy differs.
        """
        limit = self.exclusive_scaled(bound + 1)
        floor_s = self.exclusive_scaled(floor) if floor else 0
        _QPA_CALLS.inc()
        with _obs_span("kernel.qpa", n=self.n):
            status, t, demand, iterations = self._walk(
                "qpa",
                self.n * _QPA_JOBS_PER_COMPONENT,
                self._qpa_scaled_py,
                limit,
                floor_s,
            )
        _QPA_ITERATIONS.observe(iterations)
        if status == "infeasible":
            return status, self.unscale(t), self.unscale(demand), iterations
        return status, None, None, iterations

    def _qpa_scaled_py(
        self, limit_scaled: ExactTime, floor_scaled: ExactTime
    ) -> Tuple[str, Optional[ExactTime], Optional[ExactTime], int]:
        """Reference backward walk on the grid."""
        t = self._prev_scaled(limit_scaled)
        if t is None:
            return ("empty", None, None, 0)
        min_deadline = self.min_d0_scaled
        iterations = 0
        while t >= floor_scaled:
            demand = self.dbf_scaled(t)
            iterations += 1
            if demand > t:
                return ("infeasible", t, demand, iterations)
            if demand <= min_deadline:
                return ("feasible", None, None, iterations)
            if demand < t:
                t = demand
            else:
                previous = self._prev_scaled(t)
                if previous is None:
                    return ("feasible", None, None, iterations)
                t = previous
        return ("feasible", None, None, iterations)

    # ------------------------------------------------------------------
    # Superposition walk
    # ------------------------------------------------------------------

    def superpos_scan(
        self, level: int, hi: Time
    ) -> Tuple[Optional[ExactTime], Optional[ExactTime], int, int]:
        """``SuperPos(level)`` over the change points up to *hi*.

        The :class:`EnvelopeWalk` at a fixed *level*, stopping at its
        first failed check: the walk of
        :func:`repro.core.superposition.superposition_test`.

        Returns ``(interval, demand, iterations, intervals)``: the first
        point where the approximated demand exceeds the interval, in
        original units and exact (``(None, None, ...)`` on acceptance),
        the comparisons made, and the distinct intervals checked.
        """
        if level < 1:
            raise ValueError(f"superposition level must be >= 1, got {level}")
        walk = EnvelopeWalk(self, level, self.inclusive_scaled(hi))
        interval = walk.run(_stop)
        if interval is None:
            return None, None, walk.iterations, walk.intervals
        return (
            self.unscale(interval),
            walk.demand(interval),
            walk.iterations,
            walk.intervals,
        )


def _stop(walk: "EnvelopeWalk", interval: ExactTime) -> ExactTime:
    """The ``SuperPos(x)`` failure policy: stop at the first failure."""
    return interval


class EnvelopeWalk:
    """The superposition walk of paper Section 3.4, one state for three
    tests.

    ``SuperPos(x)``, Dynamic Error and All-Approximated are the same
    walk: pop the grid deadlines in ascending order, count each job's
    demand exactly until its component has *level* jobs counted, then
    switch the component to its linear envelope anchored at the deadline
    just checked, and check the approximated demand

    ``exact + Σ w·(I − anchor) / H  <=  I``

    at every popped deadline ``I``.  They differ only in what a failed
    check does, which :meth:`run` leaves to an ``on_fail`` policy.

    State (all on the kernel's grid):

    * ``heap`` of ``(deadline, seq, index)`` entries.  Seeds are keyed
      by their index, later pushes by a running sequence number, so
      coincident deadlines pop in push order (FIFO), the tie order of
      the component-based reference walks.
    * ``counted`` jobs per component and their ``exact`` demand.
    * ``slope = Σ w`` and ``base = Σ w·anchor`` over the approximated
      components, with ``(hyper, weights)`` from
      :meth:`DemandKernel.envelope_weights`: integers on the integer
      grid, `Fraction` rates over ``1`` on the exact fallback grid.
      These exact sums are kept lazily: a switch appends ``(w, anchor)``
      to ``pending`` and updates only the float screen.
    * ``approx``: approximated component → anchor, in insertion order
      (All-Approximated's FIFO order; ``sorted()`` gives Dynamic's index
      order).
    * ``level`` (a policy may raise it), ``iterations``, ``intervals``
      and ``revisions``.

    A float screen passes a check outright only when it clears the
    capacity line by a margin (1e-6 relative) far above the rounding
    error of the float sums; every closer check is decided on the exact
    sums, so acceptance stays a proof and witnesses stay exact.  The
    float sums only grow between failures and are recomputed from the
    exact sums after each one.  A value too wide for a float turns the
    screen off for the rest of the walk.  ``pending`` is folded into
    ``slope``/``base`` when a check is too close for the screen (or the
    screen is off), hence before every ``on_fail`` call, and in
    :meth:`demand`.

    Deadlines above *hi* are never pushed (``math.inf`` bounds nothing).
    """

    def __init__(self, kernel: DemandKernel, level: int, hi: ExactTime) -> None:
        self.kernel = kernel
        self.level = level
        self.hi = hi
        # The by-deadline rows up to hi are sorted, hence a valid heap.
        cut = bisect_right(kernel._by_deadline, (hi, inf))
        self.heap = [(d0, idx, idx) for d0, idx, _, _ in kernel._by_deadline[:cut]]
        self.counted = [0] * kernel.n
        self.exact: ExactTime = 0
        self.hyper, self.weights = kernel.envelope_weights()
        self.slope: ExactTime = 0
        self.base: ExactTime = 0
        self.pending: List[Tuple[ExactTime, ExactTime]] = []
        self.approx = {}
        self.iterations = 0
        self.intervals = 0
        self.revisions = 0
        self._seq = kernel.n

    def demand(self, interval: ExactTime) -> ExactTime:
        """Approximated demand at the grid *interval*, in original units,
        exact (an `int` when integral)."""
        pending, slope, base = self.pending, self.slope, self.base
        for w, anchor in pending:  # the fold of run()
            slope += w
            base += w * anchor
        pending.clear()
        self.slope, self.base = slope, base
        hyper = self.hyper
        value = self.kernel.unscale(
            Fraction(self.exact * hyper + self.slope * interval - self.base, hyper)
        )
        if isinstance(value, Fraction) and value.denominator == 1:
            return value.numerator
        return value

    def run(self, on_fail: Callable[["EnvelopeWalk", ExactTime], Any]) -> Any:
        """Walk until the heap drains (returns ``None``) or *on_fail*
        stops it.

        At a failed check at grid interval ``I`` the walk calls
        ``on_fail(walk, I)`` with its state current.  A list return
        names components to revise: each leaves its envelope, its demand
        becomes exact up to ``I`` (the Lemma 6 correction), its next
        deadline after ``I`` is pushed (``NextInt``, Lemma 5), and each
        counts one iteration and one revision; then the check runs
        again.  Any other return value stops the walk and is returned.
        """
        d0s, periods, wcets = self.kernel.d0s, self.kernel.periods, self.kernel.wcets
        hyper, weights = self.hyper, self.weights
        heap, counted, approx, hi = self.heap, self.counted, self.approx, self.hi
        level = self.level
        exact, slope, base = self.exact, self.slope, self.base
        pending = self.pending
        iterations, intervals = self.iterations, self.intervals
        revisions, seq = self.revisions, self._seq
        # ``pending`` is empty here: a walk starts with no switch, and
        # every stop short of a drained heap follows a fold.
        try:  # hf == 0.0: the screen is off
            hf = float(hyper)
            uf, bf = float(slope) / hf, float(base) / hf
        except OverflowError:
            hf = uf = bf = 0.0
        # A flag, not ``slope`` itself: the truth test of a `Fraction`
        # slope is a method call at every step.
        enveloped = bool(slope)
        last = None
        while heap:
            interval, _, idx = heap[0]
            exact += wcets[idx]
            counted[idx] += 1
            iterations += 1
            if interval != last:
                intervals += 1
                last = interval
            while True:
                if not enveloped:
                    if exact <= interval:
                        break
                else:
                    if hf:
                        try:
                            # base >= 0, so the margin needs no abs().
                            gross = exact + uf * interval
                            if gross - bf + 1e-6 * (gross + bf + 1.0) < interval:
                                break
                        except OverflowError:
                            hf = 0.0
                    if pending:  # fold the switches the screen hid
                        for w, anchor in pending:
                            slope += w
                            base += w * anchor
                        pending.clear()
                    if (exact - interval) * hyper + slope * interval <= base:
                        break
                self.exact, self.slope, self.base = exact, slope, base
                self.iterations, self.intervals = iterations, intervals
                self.revisions, self._seq = revisions, seq
                verdict = on_fail(self, interval)
                if type(verdict) is not list:
                    return verdict
                level = self.level
                for j in verdict:
                    w = weights[j]
                    slope -= w
                    base -= w * approx.pop(j)
                    p = periods[j]
                    jobs = (interval - d0s[j]) // p + 1
                    exact += (jobs - counted[j]) * wcets[j]
                    counted[j] = jobs
                    nxt = d0s[j] + jobs * p
                    if nxt <= hi:
                        heappush(heap, (nxt, seq, j))
                        seq += 1
                    revisions += 1
                    iterations += 1
                enveloped = bool(slope)
                if hf:
                    try:
                        uf, bf = float(slope) / hf, float(base) / hf
                    except OverflowError:
                        hf = 0.0
            # The check passed: count the next job, or switch.
            p = periods[idx]
            if counted[idx] < level:
                if p and interval + p <= hi:
                    heapreplace(heap, (interval + p, seq, idx))
                    seq += 1
                else:
                    heappop(heap)
            else:
                heappop(heap)
                if p:
                    w = weights[idx]
                    pending.append((w, interval))
                    approx[idx] = interval
                    enveloped = True
                    if hf:
                        try:
                            wf = float(w) / hf
                            uf += wf
                            bf += wf * interval
                        except OverflowError:
                            hf = 0.0
        self.exact, self.slope, self.base = exact, slope, base
        self.iterations, self.intervals = iterations, intervals
        self.revisions, self._seq = revisions, seq
        return None

