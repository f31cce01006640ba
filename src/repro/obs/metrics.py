"""Process-global metrics registry: counters, gauges, histograms.

The single place every layer's counts flow through.  Design constraints,
in order:

1. **Hot-path cheapness.**  The kernel primitives and the admission
   controller increment counters on paths the benchmarks gate; an
   increment must cost a method call, a flag check, and a lock — no
   string formatting, no label resolution.  Call sites therefore bind a
   *child* once (``C = counter(...).labels("qpa")``) and call
   ``C.inc()`` afterwards; ``labels()`` itself caches children, so even
   a per-call lookup is one dict hit.
2. **Thread safety.**  The service layer increments from worker
   threads, the HTTP pool, and the resource sampler concurrently.
   Every child carries its own small lock; families share a registry
   lock only on (rare) registration and snapshot.
3. **Bit-compatible reads.**  ``repro.kernel.backend_info()`` (the
   kernel's walk and numpy-fallback counts) and
   ``context_cache_info()`` read their tallies from here, so
   counters expose ``.value`` and a test-visible ``reset()`` — a
   deliberate deviation from Prometheus client conventions, which this
   module otherwise follows (metric/label naming, exposition text
   format 0.0.4).

The global kill switch is the ``REPRO_OBS`` environment variable: when
set to ``off`` / ``0`` / ``false`` / ``no`` every mutation becomes a
flag-check no-op (reads then report zeros).  Tests flip the same flag at
runtime via :func:`set_enabled` for A/B overhead measurements.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "is_enabled",
    "set_enabled",
    "state_delta",
    "DEFAULT_BUCKETS",
    "ITERATION_BUCKETS",
    "LATENCY_BUCKETS",
]


def _env_enabled() -> bool:
    return os.environ.get("REPRO_OBS", "").strip().lower() not in (
        "off",
        "0",
        "false",
        "no",
    )


#: Module-level flag checked by every mutation.  A module-global load
#: plus branch is the cheapest runtime kill switch Python offers short
#: of swapping bound methods, and unlike method swapping it is safe to
#: flip while other threads hold child handles.
_ENABLED = _env_enabled()


def is_enabled() -> bool:
    """Whether observability mutations are currently recorded."""
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Flip recording on/off at runtime; returns the previous state."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


#: Wall-time buckets (seconds): spans range from microsecond kernel
#: primitives to multi-second experiment batteries.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.000_01,
    0.000_1,
    0.001,
    0.01,
    0.1,
    1.0,
    10.0,
    60.0,
)

#: Iteration-count buckets: QPA/PDA iteration counts are the paper's
#: own efficiency metric and span decades, so powers of four.
ITERATION_BUCKETS: Tuple[float, ...] = (
    1,
    4,
    16,
    64,
    256,
    1024,
    4096,
    16384,
    65536,
    262144,
)

#: Queue-latency buckets (seconds): submissions usually start within
#: milliseconds unless the worker pool is saturated.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.01,
    0.05,
    0.25,
    1.0,
    5.0,
    30.0,
    120.0,
)

_VALID_FIRST = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_VALID_REST = _VALID_FIRST | set("0123456789")


def _check_name(name: str, what: str) -> str:
    if not name or name[0] not in _VALID_FIRST or any(
        ch not in _VALID_REST for ch in name
    ):
        raise ValueError(f"invalid {what} name {name!r}")
    return name


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value != value:  # NaN
        return "NaN"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class _Child:
    """One labeled series.  Subclasses hold the actual cells."""

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()


class _CounterChild(_Child):
    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


class _GaugeChild(_Child):
    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0

    def set(self, value: float) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        if not _ENABLED:
            return
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


class _HistogramChild(_Child):
    __slots__ = ("_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        super().__init__()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last cell = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not _ENABLED:
            return
        bounds = self._bounds
        lo, hi = 0, len(bounds)
        while lo < hi:  # bisect over the (short) bound tuple
            mid = (lo + hi) // 2
            if value <= bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            self._counts[lo] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total, summed = self._count, self._sum
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, cell in zip(self._bounds, counts):
            running += cell
            cumulative.append((bound, running))
        cumulative.append((math.inf, total))
        return {"buckets": cumulative, "sum": summed, "count": total}

    def raw(self) -> Tuple[List[int], float, int]:
        """Non-cumulative cells — the mergeable representation."""
        with self._lock:
            return list(self._counts), self._sum, self._count

    def merge(self, counts: Sequence[int], summed: float, count: int) -> None:
        """Add another process's cells into this child (worker merge)."""
        if not _ENABLED:
            return
        with self._lock:
            if len(counts) != len(self._counts):
                return  # bucket layout drifted; refuse rather than corrupt
            for index, cell in enumerate(counts):
                self._counts[index] += cell
            self._sum += summed
            self._count += count

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self._bounds) + 1)
            self._sum = 0.0
            self._count = 0


_CHILD_TYPES = {
    "counter": _CounterChild,
    "gauge": _GaugeChild,
    "histogram": _HistogramChild,
}


class _Family:
    """A named metric plus its labeled children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.name = _check_name(name, "metric")
        self.kind = kind
        self.help = help_text
        self.labelnames = tuple(
            _check_name(label, "label") for label in labelnames
        )
        self.buckets = buckets
        self._children: Dict[Tuple[str, ...], _Child] = {}
        self._lock = threading.Lock()
        if not self.labelnames:
            self._default = self._make_child()
            self._children[()] = self._default
        else:
            self._default = None

    def _make_child(self) -> _Child:
        if self.kind == "histogram":
            return _HistogramChild(self.buckets or DEFAULT_BUCKETS)
        return _CHILD_TYPES[self.kind]()

    def labels(self, *values: Any, **kwargs: Any) -> Any:
        """Resolve (and cache) the child for one label-value tuple."""
        if kwargs:
            if values:
                raise ValueError("pass label values positionally or by name")
            values = tuple(kwargs[name] for name in self.labelnames)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes {len(self.labelnames)} label(s) "
                f"{self.labelnames}, got {len(values)}"
            )
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    # Unlabeled families proxy the mutators straight to their single
    # child so call sites read `C.inc()` either way.
    def inc(self, amount: float = 1) -> None:
        self._default.inc(amount)  # type: ignore[union-attr]

    def dec(self, amount: float = 1.0) -> None:
        self._default.dec(amount)  # type: ignore[union-attr]

    def set(self, value: float) -> None:
        self._default.set(value)  # type: ignore[union-attr]

    def observe(self, value: float) -> None:
        self._default.observe(value)  # type: ignore[union-attr]

    @property
    def value(self) -> float:
        return self._default.value  # type: ignore[union-attr]

    @property
    def count(self) -> int:
        return self._default.count  # type: ignore[union-attr]

    @property
    def sum(self) -> float:
        return self._default.sum  # type: ignore[union-attr]

    def reset(self) -> None:
        with self._lock:
            for child in self._children.values():
                child.reset()

    def children(self) -> List[Tuple[Tuple[str, ...], _Child]]:
        with self._lock:
            return sorted(self._children.items())


#: Public aliases — call sites annotate handles with these.
Counter = _Family
Gauge = _Family
Histogram = _Family


class MetricsRegistry:
    """Thread-safe name → metric family map with snapshot/exposition."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Registration (idempotent: re-registering returns the live family,
    # so module reloads and tests never fight over names).
    # ------------------------------------------------------------------

    def _register(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Sequence[str],
        buckets: Optional[Iterable[float]] = None,
    ) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}{family.labelnames}"
                    )
                return family
            family = _Family(
                name,
                kind,
                help_text,
                tuple(labelnames),
                tuple(sorted(buckets)) if buckets is not None else None,
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register(name, "counter", help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(name, "gauge", help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(name, "histogram", help_text, labelnames, buckets)

    def get(self, name: str) -> Optional[_Family]:
        with self._lock:
            return self._families.get(name)

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._families))

    def reset(self) -> None:
        """Zero every series (tests and ``reset_walk_counters`` shims)."""
        with self._lock:
            families = list(self._families.values())
        for family in families:
            family.reset()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able dump of every series (the ``?format=json`` shape)."""
        out: Dict[str, Any] = {}
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            series = []
            for key, child in family.children():
                labels = dict(zip(family.labelnames, key))
                if family.kind == "histogram":
                    snap = child.snapshot()  # type: ignore[attr-defined]
                    series.append(
                        {
                            "labels": labels,
                            "count": snap["count"],
                            "sum": snap["sum"],
                            "buckets": [
                                {
                                    "le": "+Inf" if b == math.inf else b,
                                    "count": c,
                                }
                                for b, c in snap["buckets"]
                            ],
                        }
                    )
                else:
                    series.append({"labels": labels, "value": child.value})
            out[name] = {
                "type": family.kind,
                "help": family.help,
                "series": series,
            }
        return out

    def export_state(self) -> Dict[str, Any]:
        """Pickle/JSON-able dump of raw cells for cross-process merging.

        Unlike :meth:`snapshot` (cumulative buckets, presentation shape)
        this keeps histograms as *non-cumulative* cells so two states can
        be subtracted (:func:`state_delta`) and added back
        (:meth:`merge_state`) without loss.
        """
        out: Dict[str, Any] = {}
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            series: List[Any] = []
            for key, child in family.children():
                if family.kind == "histogram":
                    counts, summed, count = child.raw()  # type: ignore[attr-defined]
                    series.append(
                        [list(key), {"counts": counts, "sum": summed, "count": count}]
                    )
                else:
                    series.append([list(key), child.value])
            out[name] = {
                "kind": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "buckets": list(family.buckets) if family.buckets else None,
                "series": series,
            }
        return out

    def merge_state(self, state: Dict[str, Any]) -> None:
        """Fold an :meth:`export_state` document (usually a delta) in.

        Counters and gauges add; histograms merge cell-wise.  Families
        unknown to this process are registered on the fly, so a worker
        that touched a metric the parent never did still contributes.
        Shape mismatches skip the offending family instead of raising —
        a telemetry merge must never take the analysis down.
        """
        if not _ENABLED:
            return
        for name, document in state.items():
            kind = document.get("kind")
            if kind not in _CHILD_TYPES:
                continue
            try:
                family = self._register(
                    name,
                    kind,
                    document.get("help", ""),
                    tuple(document.get("labelnames") or ()),
                    document.get("buckets"),
                )
            except ValueError:
                continue
            for key, value in document.get("series") or ():
                try:
                    child = family.labels(*key) if family.labelnames else family._default
                except ValueError:
                    continue
                if kind == "histogram":
                    child.merge(  # type: ignore[attr-defined]
                        value.get("counts") or (),
                        float(value.get("sum", 0.0)),
                        int(value.get("count", 0)),
                    )
                elif kind == "counter":
                    child.inc(int(value))  # type: ignore[attr-defined]
                else:
                    child.inc(float(value))  # type: ignore[attr-defined]

    def exposition(self) -> str:
        """Prometheus text exposition (format 0.0.4)."""
        lines: List[str] = []
        with self._lock:
            families = sorted(self._families.items())
        for name, family in families:
            if family.help:
                lines.append(f"# HELP {name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key, child in family.children():
                pairs = [
                    f'{label}="{_escape_label(value)}"'
                    for label, value in zip(family.labelnames, key)
                ]
                if family.kind == "histogram":
                    snap = child.snapshot()  # type: ignore[attr-defined]
                    for bound, cumulative in snap["buckets"]:
                        bucket_pairs = pairs + [
                            f'le="{_format_value(float(bound))}"'
                        ]
                        lines.append(
                            f"{name}_bucket{{{','.join(bucket_pairs)}}} "
                            f"{cumulative}"
                        )
                    suffix = "{" + ",".join(pairs) + "}" if pairs else ""
                    lines.append(
                        f"{name}_sum{suffix} {_format_value(snap['sum'])}"
                    )
                    lines.append(f"{name}_count{suffix} {snap['count']}")
                else:
                    suffix = "{" + ",".join(pairs) + "}" if pairs else ""
                    lines.append(
                        f"{name}{suffix} {_format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""


def state_delta(
    baseline: Dict[str, Any], current: Dict[str, Any]
) -> Dict[str, Any]:
    """``current - baseline`` over two :meth:`export_state` documents.

    The result is the *increment* a worker produced between two points
    in time — exactly what the parent should :meth:`merge_state`.  Series
    whose delta is zero are dropped, so an idle family costs nothing on
    the wire.
    """
    out: Dict[str, Any] = {}
    for name, document in current.items():
        base_document = baseline.get(name) or {}
        base_series = {
            tuple(key): value for key, value in base_document.get("series") or ()
        }
        series: List[Any] = []
        for key, value in document.get("series") or ():
            base_value = base_series.get(tuple(key))
            if document.get("kind") == "histogram":
                base_counts = (base_value or {}).get("counts") or []
                counts = list(value.get("counts") or ())
                if len(base_counts) == len(counts):
                    counts = [c - b for c, b in zip(counts, base_counts)]
                count = int(value.get("count", 0)) - int(
                    (base_value or {}).get("count", 0)
                )
                summed = float(value.get("sum", 0.0)) - float(
                    (base_value or {}).get("sum", 0.0)
                )
                if count == 0 and not any(counts):
                    continue
                series.append(
                    [list(key), {"counts": counts, "sum": summed, "count": count}]
                )
            else:
                delta = value - (base_value or 0)
                if not delta:
                    continue
                series.append([list(key), delta])
        if series:
            out[name] = {**document, "series": series}
    return out


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry every instrumented layer reports to."""
    return _REGISTRY


def counter(
    name: str, help_text: str = "", labelnames: Sequence[str] = ()
) -> Counter:
    """Register (or fetch) a counter on the global registry."""
    return _REGISTRY.counter(name, help_text, labelnames)


def gauge(
    name: str, help_text: str = "", labelnames: Sequence[str] = ()
) -> Gauge:
    """Register (or fetch) a gauge on the global registry."""
    return _REGISTRY.gauge(name, help_text, labelnames)


def histogram(
    name: str,
    help_text: str = "",
    labelnames: Sequence[str] = (),
    buckets: Iterable[float] = DEFAULT_BUCKETS,
) -> Histogram:
    """Register (or fetch) a histogram on the global registry."""
    return _REGISTRY.histogram(name, help_text, labelnames, buckets)
