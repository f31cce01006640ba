"""numpy's loops for the kernel walks: vectorized int64 sweeps.

The pure-python kernel loops already stripped attribute dispatch and
`Fraction` arithmetic from the staircase walks; what remains is the
interpreter's per-job cost.  These loops remove that too, without
giving up exactness:

* :func:`first_overflow` (the PDA forward walk) splits the candidate
  grid into deadline windows sized by the system's job rate; each
  window's jobs are materialized, sorted and folded with array
  primitives, the first overflow is found with a vectorized compare,
  and the accumulated demand carries into the next window — early exit,
  and iteration counts identical to the sequential heap walk;
* :func:`qpa` keeps the backward walk's exact ``t``-sequence (every
  ``t`` is produced by the same recurrence, so witnesses and iteration
  counts match the pure-python walk bit-for-bit) while the per-step
  work is vectorized: point ``dbf`` and predecessor-deadline
  evaluations are whole-array reductions, and when the walk densifies —
  consecutive steps moving deadline-by-deadline, the near-infeasible
  regime where QPA cost concentrates — the deadline window below ``t``
  is materialized once and each step is served by binary search;
* :func:`best_ratio` scans the staircase windows with an exact
  integer-compare tournament (cross-multiplied ``int64`` compares, no
  float rounding on any decision path; floats only *nominate* a
  candidate that integer comparisons then confirm);
* :func:`count_steps` is one vectorized floor-divide per component.

Each call serves one system.  A lockstep many-system sweep (every
system's window jobs stacked, lexsorted and folded by one segmented
cumsum per round) lost to per-system sweeps on every population tried,
5- to 1000-task systems in 100-system batches: its per-round python
bookkeeping outweighed the numpy work it shared.

:class:`~repro.kernel.DemandKernel` chooses between these loops and its
own python loops by walk size (see ``DemandKernel._walk``), so the
functions here apply no size gate: called directly, they serve any
walk they can serve exactly.  Every function guards its inputs: scaled
parameters, search bounds and the peak demand must fit ``int64`` with
headroom (:data:`INT64_CAP`) so no intermediate sum or product can
wrap.  A call outside that envelope raises :class:`Declined` and the
kernel re-runs the pure-python loop — the same degrade contract as the
``SCALE_CAP`` exact-`Fraction` fallback, and the reason task sets near
the int64 boundary stay bit-exact (the parity suite pins this).

Importing this module does not import numpy: numpy loads at the first
array build (:func:`_build_arrays`).  If that import fails, the kernel
is declined like one outside the envelope and the call re-runs the
pure-python loop.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import List

#: The numpy module (the optional 'fast' extra), bound by the first
#: :func:`_build_arrays`; every function enters through :func:`_arrays`.
np = None

__all__ = [
    "Declined",
    "INT64_CAP",
    "RATIO_CAP",
    "best_ratio",
    "count_steps",
    "first_overflow",
    "qpa",
]

#: Magnitude ceiling for scaled deadlines, bounds and demands on the
#: vectorized path.  ``2**61`` leaves one bit of addition headroom below
#: the int64 limit, so ``delta + period`` style intermediates cannot
#: wrap; values at or past the cap fall back to the pure-python loops.
INT64_CAP = 1 << 61

#: Tighter ceiling for the ratio tournament: cross-multiplied compares
#: form ``demand * interval`` products, which stay below ``2**62`` only
#: when both factors are below ``2**31``.
RATIO_CAP = 1 << 31

#: Job budget per sweep window (single-system forward walk).
_SWEEP_BUDGET = 1 << 16

#: Initial job budget of a QPA dense-region window; doubles (×4) per
#: rebuild up to the sweep budget as density persists.
_QPA_BUDGET = 1 << 12

#: Consecutive low-progress QPA steps before a window is built.
_QPA_DENSE_STEPS = 8

_UNSUPPORTED = "unsupported"


class Declined(Exception):
    """numpy's loops cannot serve this call exactly.

    Raised when the kernel runs on the exact `Fraction` grid, a scaled
    value is past the int64 headroom, or numpy fails to import.  The
    kernel catches it and re-runs the pure-python loop — a per-call
    degrade, never an error.
    """


# ----------------------------------------------------------------------
# The walks
# ----------------------------------------------------------------------


def first_overflow(kernel, bound_scaled):
    """First staircase overflow up to the grid bound (PDA walk):
    ``(interval, demand, iterations)`` as
    :meth:`~repro.kernel.DemandKernel.first_overflow_scaled`."""
    arr = _arrays(kernel)
    if bound_scaled >= INT64_CAP:
        raise Declined("bound past int64 headroom")
    if bound_scaled < arr["min_d0"]:
        return None, None, 0
    _demand_cap(kernel, bound_scaled)
    return _sweep(arr, int(bound_scaled))


def qpa(kernel, limit_scaled, floor_scaled=0):
    """Zhang & Burns backward walk from the largest deadline below
    *limit_scaled*, stopping FEASIBLE once it steps below
    *floor_scaled*; returns ``(status, t, demand, iterations)`` with
    status in ``("empty", "infeasible", "feasible")``."""
    arr = _arrays(kernel)
    if limit_scaled >= INT64_CAP:
        raise Declined("limit past int64 headroom")
    t = _prev_deadline(arr, int(limit_scaled))
    if t is None:
        return ("empty", None, None, 0)
    _demand_cap(kernel, t)
    return _qpa_walk(arr, t, int(kernel.min_d0_scaled), int(floor_scaled))


def best_ratio(kernel, horizon_scaled, floor):
    """Max ``demand/interval`` over staircase jumps up to the grid
    horizon, floored at *floor*."""
    arr = _arrays(kernel)
    if horizon_scaled >= RATIO_CAP:
        raise Declined("horizon past the ratio-compare cap")
    if _demand_cap(kernel, horizon_scaled, cap=RATIO_CAP) is None:
        return Fraction(floor)
    best = Fraction(floor)
    for dl, cum in _windows(arr, int(horizon_scaled)):
        j = _ratio_argmax(dl, cum)
        candidate = Fraction(int(cum[j]), int(dl[j]))
        if candidate > best:
            best = candidate
    return best


def count_steps(kernel, bound_scaled):
    """Unfolded job count with deadline at or below the grid bound."""
    arr = _arrays(kernel)
    if bound_scaled >= INT64_CAP:
        raise Declined("bound past int64 headroom")
    if bound_scaled < arr["min_d0"]:
        return 0
    b = int(bound_scaled)
    reach = (b - arr["d0f"]) / arr["safe_pf"]
    estimate = float(np.where(arr["d0f"] <= b, np.where(arr["rec"], reach, 0), -1).sum())
    if estimate >= float(1 << 60):
        raise Declined("step count past int64 headroom")
    counts = np.where(
        arr["d0"] <= b,
        np.where(arr["rec"], (b - arr["d0"]) // arr["safe_p"] + 1, 1),
        0,
    )
    return int(counts.sum())


# ----------------------------------------------------------------------
# Per-kernel array cache
# ----------------------------------------------------------------------


def _arrays(kernel):
    """Cached int64 views of the kernel's flat arrays.

    Built once per kernel (the ``_vec_cache`` slot; an incremental
    kernel, whose arrays change, never runs numpy's loops) and refused —
    permanently for this kernel —
    when it runs on the exact `Fraction` path, any scaled parameter
    exceeds the int64 headroom, or numpy fails to import.
    """
    cache = kernel._vec_cache
    if cache is None:
        cache = _build_arrays(kernel)
        kernel._vec_cache = cache
    if cache is _UNSUPPORTED:
        raise Declined("kernel outside the int64 envelope")
    return cache


def _build_arrays(kernel):
    global np
    if kernel.scale is None or kernel.n == 0:
        return _UNSUPPORTED
    top = max(max(kernel.d0s), max(kernel.periods), max(kernel.wcets))
    low = min(min(kernel.d0s), min(kernel.periods), min(kernel.wcets))
    if top >= INT64_CAP or low < 0:
        return _UNSUPPORTED
    if np is None:
        try:
            import numpy as np
        except ImportError:
            return _UNSUPPORTED
    d0 = np.asarray(kernel.d0s, dtype=np.int64)
    p = np.asarray(kernel.periods, dtype=np.int64)
    c = np.asarray(kernel.wcets, dtype=np.int64)
    rec = p > 0
    safe_p = np.where(rec, p, 1)
    return {
        "d0": d0,
        "p": p,
        "c": c,
        "rec": rec,
        "safe_p": safe_p,
        "d0f": d0.astype(np.float64),
        "safe_pf": safe_p.astype(np.float64),
        "min_d0": int(d0.min()),
        # Long-run job arrival rate: windows are sized so each holds
        # roughly a fixed job budget.
        "rate": float((1.0 / safe_p[rec]).sum()) if bool(rec.any()) else 0.0,
    }


def _demand_cap(kernel, bound, cap=INT64_CAP):
    """Peak demand guard: the staircase total at *bound* must fit.

    One O(n) pure-python evaluation; every vectorized partial sum is a
    prefix of this total, so no intermediate can wrap once it fits.
    Returns ``None`` (without raising) when the bound precedes every
    deadline — demand is identically zero there.
    """
    if bound < 0:
        return None
    peak = kernel.dbf_scaled(bound)
    if peak >= cap:
        raise Declined("peak demand past the headroom cap")
    return peak


# ----------------------------------------------------------------------
# Shared window machinery
# ----------------------------------------------------------------------


def _window_jobs(arr, lo, hi):
    """Per-component first deadline in ``[lo, hi]`` and job count.

    ``starts[i]`` is component *i*'s earliest absolute deadline at or
    after *lo* (one modular step, vectorized); ``counts[i]`` how many of
    its deadlines land in the window (0 when none do).
    """
    d0, ps, rec, sp = arr["d0"], arr["p"], arr["rec"], arr["safe_p"]
    delta = lo - d0
    k = np.where(delta > 0, (delta + sp - 1) // sp, 0)
    starts = d0 + np.where(rec, k, 0) * ps
    valid = (starts <= hi) & (starts >= lo)
    counts = np.where(
        valid, np.where(rec, (hi - starts) // sp + 1, 1), 0
    )
    return starts, counts


def _materialize(arr, starts, counts, carry, comp_c=None):
    """Folded staircase of one window: ``(deadlines, demands)``.

    Expands each component's arithmetic deadline progression, merges by
    sort, accumulates demand on top of *carry* (the demand strictly
    before the window) and folds coincident deadlines to their final
    accumulated value — exactly the sequential heap walk's view.
    """
    active = np.nonzero(counts > 0)[0]
    cnt = counts[active]
    total = int(cnt.sum())
    comp = np.repeat(active, cnt)
    base = np.repeat(starts[active], cnt)
    step = arr["p"][comp]
    offset = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    deadlines = base + offset * step
    weights = arr["c"][comp]
    order = np.argsort(deadlines, kind="stable")
    dl = deadlines[order]
    cum = np.cumsum(weights[order]) + carry
    last = np.empty(total, dtype=bool)
    last[:-1] = dl[1:] != dl[:-1]
    last[-1] = True
    return dl[last], cum[last]


def _next_deadline(arr, lo, bound):
    """Earliest absolute deadline in ``[lo, bound]``, or ``None``."""
    starts, counts = _window_jobs(arr, lo, bound)
    valid = counts > 0
    if not bool(valid.any()):
        return None
    return int(starts[valid].min())


def _windows(arr, bound, budget=_SWEEP_BUDGET, carry=0, lo=0):
    """Yield folded ``(deadlines, demands)`` window by window up to *bound*.

    Windows are sized to hold roughly *budget* jobs by the system's job
    rate and shrunk when deadline clustering overshoots the estimate;
    empty stretches are skipped by jumping straight to the next
    deadline.
    """
    rate = arr["rate"]
    while lo <= bound:
        span = int(budget / rate) if rate > 0 else bound - lo + 1
        hi = min(bound, lo + max(span, 1) - 1)
        while True:
            starts, counts = _window_jobs(arr, lo, hi)
            total = int(counts.sum())
            if total <= (budget << 2) or hi == lo:
                break
            hi = lo + (hi - lo) // 2
        if total == 0:
            nxt = _next_deadline(arr, lo, bound)
            if nxt is None:
                return
            lo = nxt
            continue
        dl, cum = _materialize(arr, starts, counts, carry)
        yield dl, cum
        carry = int(cum[-1])
        lo = hi + 1


def _sweep(arr, bound):
    """Windowed forward walk: first overflow plus folded-interval count."""
    iterations = 0
    for dl, cum in _windows(arr, bound):
        over = cum > dl
        if bool(over.any()):
            at = int(np.argmax(over))
            return int(dl[at]), int(cum[at]), iterations + at + 1
        iterations += len(dl)
    return None, None, iterations


def _dbf_point(arr, t):
    """Exact demand at grid instant *t* as a python int."""
    if t < arr["min_d0"]:
        return 0
    jobs = np.where(
        arr["d0"] <= t,
        np.where(arr["rec"], (t - arr["d0"]) // arr["safe_p"] + 1, 1),
        0,
    )
    return int((jobs * arr["c"]).sum())


def _prev_deadline(arr, limit):
    """Largest absolute deadline strictly below *limit* (python int)."""
    if limit <= arr["min_d0"]:
        return None
    d0, ps, rec, sp = arr["d0"], arr["p"], arr["rec"], arr["safe_p"]
    below = d0 < limit
    k = np.where(below & rec, (limit - 1 - d0) // sp, 0)
    cand = np.where(below, d0 + k * ps, -1)
    best = int(cand.max())
    return best if best >= 0 else None


# ----------------------------------------------------------------------
# QPA backward walk
# ----------------------------------------------------------------------


def _qpa_walk(arr, t, min_deadline, floor):
    """The exact QPA recurrence with vectorized step evaluation.

    The ``t`` sequence — and with it every verdict, witness and the
    iteration count, including the FEASIBLE stop once ``t`` falls below
    *floor* — is identical to the pure-python walk; only the
    evaluation of ``dbf(t)`` and ``max{d : d < t}`` changes.  Sparse
    phases (big ``t = dbf(t)`` jumps) use whole-array point reductions;
    once :data:`_QPA_DENSE_STEPS` consecutive steps advance by fewer
    than a handful of expected jobs, the deadline window below ``t`` is
    materialized once and steps become binary searches until ``t``
    leaves it.
    """
    rate = arr["rate"]
    iterations = 0
    dense = 0
    budget = _QPA_BUDGET
    # Active dense window: deadlines/demands as python lists (bisect on
    # lists beats numpy scalar indexing at this size), plus its range.
    win_lo = None
    win_dl: List[int] = []
    win_cum: List[int] = []
    win_carry = 0

    while t >= floor:
        if win_lo is not None and t >= win_lo:
            at = bisect_right(win_dl, t) - 1
            demand = win_cum[at] if at >= 0 else win_carry
        else:
            win_lo = None
            demand = _dbf_point(arr, t)
        iterations += 1
        if demand > t:
            return ("infeasible", t, demand, iterations)
        if demand <= min_deadline:
            return ("feasible", None, None, iterations)
        if demand < t:
            new_t = demand
        else:
            previous = None
            if win_lo is not None:
                at = bisect_left(win_dl, t) - 1
                if at >= 0:
                    previous = win_dl[at]
                else:
                    win_lo = None
            if previous is None and win_lo is None:
                previous = _prev_deadline(arr, t)
            if previous is None:
                return ("feasible", None, None, iterations)
            new_t = previous

        if win_lo is None and rate > 0:
            # Dense-phase detection: consecutive steps covering almost
            # no expected jobs mean the walk is crawling deadline by
            # deadline — exactly when a materialized window pays off.
            dense = dense + 1 if (t - new_t) * rate < 4.0 else 0
            if dense >= _QPA_DENSE_STEPS:
                win_lo, win_dl, win_cum, win_carry = _qpa_window(
                    arr, new_t, budget
                )
                budget = min(budget << 2, _SWEEP_BUDGET)
                dense = 0
        elif win_lo is not None and new_t < win_lo:
            # Still walking, fell off the window floor: rebuild below.
            win_lo, win_dl, win_cum, win_carry = _qpa_window(
                arr, new_t, budget
            )
            budget = min(budget << 2, _SWEEP_BUDGET)
        t = new_t
    return ("feasible", None, None, iterations)


def _qpa_window(arr, hi, budget):
    """Materialize the folded staircase of ``[lo, hi]`` below a QPA point."""
    rate = arr["rate"]
    span = int(budget / rate) if rate > 0 else hi + 1
    lo = max(0, hi - max(span, 1) + 1)
    while True:
        starts, counts = _window_jobs(arr, lo, hi)
        total = int(counts.sum())
        if total <= (budget << 2) or lo == hi:
            break
        lo = hi - (hi - lo) // 2
    carry = _dbf_point(arr, lo - 1)
    if total == 0:
        return lo, [], [], carry
    dl, cum = _materialize(arr, starts, counts, carry)
    return lo, dl.tolist(), cum.tolist(), carry


# ----------------------------------------------------------------------
# Ratio tournament
# ----------------------------------------------------------------------


def _ratio_argmax(dl, cum):
    """Index of the exact maximum of ``cum/dl`` over one window.

    A float key *nominates* the winner; exact cross-multiplied int64
    compares (both factors below :data:`RATIO_CAP`, so products cannot
    wrap) confirm it or re-nominate among the strictly-better entries.
    Each round strictly improves the exact ratio, so the loop ends after
    a handful of rounds even under heavy float ties.
    """
    key = cum / dl.astype(np.float64)
    j = int(np.argmax(key))
    while True:
        better = cum * int(dl[j]) > int(cum[j]) * dl
        if not bool(better.any()):
            return j
        j = int(np.argmax(np.where(better, key, -np.inf)))
