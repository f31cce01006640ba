"""JSON (de)serialization for task sets, systems, and analysis results.

Three document formats:

* ``repro/taskset-v1`` — a plain task set (name + tasks);
* ``repro/system-v1`` — a partitioned multiprocessor system: a
  platform (core count), the task set, and an optional task→core
  assignment map (``null`` entries mark unassigned tasks);
* ``repro/result-v1`` — a :class:`~repro.result.FeasibilityResult`
  (verdict, effort counters, bound, witness, details), the wire format
  of the analysis service's result store and HTTP API;
* ``repro/trace-v1`` — an arrival trace for the online admission
  layer: ordered arrive/depart events, arrivals carrying their task's
  parameters.

Time values survive a round trip exactly: integers stay integers and
Fractions are encoded as ``"p/q"`` strings, so an analysis re-run on a
deserialized set reproduces verdicts and iteration counts bit-for-bit.
Task sets are written from their ``(C, D, T, phase, name)`` rows
(:attr:`TaskSet.rows`).  A document whose task times are all plain JSON
integers decodes to rows (:meth:`TaskSet.from_rows`) without building a
task; any other goes through the normalising per-task path, which
raises the same errors for the same documents.
Assignments round-trip verbatim, so a packed system written by the CLI
re-verifies identically when loaded back.
"""

from __future__ import annotations

import enum
import json
import re
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from .numeric import ExactTime
from .task import SporadicTask
from .taskset import Row, TaskSet
from .validation import ModelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..online.trace import ArrivalEvent, Trace
    from ..partition.platform import PartitionedSystem
    from ..result import FeasibilityResult

__all__ = [
    "taskset_to_dict",
    "taskset_from_dict",
    "dump_taskset",
    "load_taskset",
    "dumps_taskset",
    "loads_taskset",
    "system_to_dict",
    "system_from_dict",
    "dump_system",
    "load_system",
    "dumps_system",
    "loads_system",
    "load_any",
    "encode_value",
    "decode_value",
    "result_to_dict",
    "result_from_dict",
    "event_to_dict",
    "event_from_dict",
    "trace_to_dict",
    "trace_from_dict",
    "dump_trace",
    "load_trace",
    "dumps_trace",
    "loads_trace",
]

_FORMAT = "repro/taskset-v1"
_SYSTEM_FORMAT = "repro/system-v1"
_RESULT_FORMAT = "repro/result-v1"
_TRACE_FORMAT = "repro/trace-v1"


def _encode_time(value: ExactTime) -> Union[int, str]:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


def _decode_time(value: Union[int, float, str]) -> ExactTime:
    if isinstance(value, bool):
        raise ModelError(f"invalid time value {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        exact = Fraction(value)
        return exact.numerator if exact.denominator == 1 else exact
    if isinstance(value, str):
        try:
            exact = Fraction(value)
        except (ValueError, ZeroDivisionError) as err:
            raise ModelError(f"invalid time value {value!r}") from err
        return exact.numerator if exact.denominator == 1 else exact
    raise ModelError(f"invalid time value {value!r}")


def _row_to_dict(row: Row) -> Dict[str, Any]:
    wcet, deadline, period, phase, name = row
    if type(wcet) is type(deadline) is type(period) is type(phase) is int:
        # Nearly every task: four plain ints are written as they are,
        # without _encode_time's isinstance check against an ABC.
        return {
            "name": name,
            "wcet": wcet,
            "deadline": deadline,
            "period": period,
            "phase": phase,
        }
    return {
        "name": name,
        "wcet": _encode_time(wcet),
        "deadline": _encode_time(deadline),
        "period": _encode_time(period),
        "phase": _encode_time(phase),
    }


def _task_to_dict(task: SporadicTask) -> Dict[str, Any]:
    return _row_to_dict((task.wcet, task.deadline, task.period, task.phase, task.name))


def taskset_to_dict(tasks: TaskSet) -> Dict[str, Any]:
    """Encode a task set as a plain JSON-serializable dict."""
    return {
        "format": _FORMAT,
        "name": tasks.name,
        "tasks": [_row_to_dict(row) for row in tasks.rows],
    }


def _int_rows(entries: Any) -> Optional[List[Row]]:
    """The ``(C, D, T, phase, name)`` rows of *entries* when every entry
    is an object whose times are plain JSON integers, else ``None``:
    such entries need :func:`_tasks_from_entries`' normalisation and
    errors.  :meth:`TaskSet.from_rows` checks the ranges and names."""
    if type(entries) is not list:
        return None
    rows = []
    for entry in entries:
        if type(entry) is not dict:
            return None
        wcet, deadline = entry.get("wcet"), entry.get("deadline")
        period, phase = entry.get("period"), entry.get("phase", 0)
        if not (type(wcet) is type(deadline) is type(period) is type(phase) is int):
            return None
        rows.append((wcet, deadline, period, phase, entry.get("name", "")))
    return rows


def _tasks_from_entries(entries: Any) -> List[SporadicTask]:
    if not isinstance(entries, list):
        raise ModelError(
            f"'tasks' must be a list of task objects, got {type(entries).__name__}"
        )
    tasks: List[SporadicTask] = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ModelError(
                f"task entry {index} must be an object, got {type(entry).__name__}"
            )
        if not ("wcet" in entry and "deadline" in entry and "period" in entry):
            missing = [k for k in ("wcet", "deadline", "period") if k not in entry]
            raise ModelError(
                f"task entry {index} is missing {', '.join(map(repr, missing))}"
            )
        # JSON integers go to the model as they are (exact already);
        # everything else, bool included, through _decode_time.
        wcet, deadline, period = entry["wcet"], entry["deadline"], entry["period"]
        phase = entry.get("phase", 0)
        tasks.append(
            SporadicTask(
                wcet if type(wcet) is int else _decode_time(wcet),
                deadline if type(deadline) is int else _decode_time(deadline),
                period if type(period) is int else _decode_time(period),
                phase if type(phase) is int else _decode_time(phase),
                entry.get("name", ""),
            )
        )
    return tasks


def _taskset_from_entries(entries: Any, name: Any) -> TaskSet:
    rows = _int_rows(entries)
    if rows is not None:
        return TaskSet.from_rows(rows, name)
    return TaskSet(_tasks_from_entries(entries), name=name)


def taskset_from_dict(data: Dict[str, Any]) -> TaskSet:
    """Decode a task set produced by :func:`taskset_to_dict`."""
    if not isinstance(data, dict) or "tasks" not in data:
        raise ModelError("task set document must be a dict with a 'tasks' key")
    declared = data.get("format", _FORMAT)
    if declared != _FORMAT:
        raise ModelError(f"unsupported task set format {declared!r}")
    return _taskset_from_entries(data["tasks"], data.get("name", ""))


def dumps_taskset(tasks: TaskSet, indent: int = 2) -> str:
    """Serialize a task set to a JSON string."""
    return json.dumps(taskset_to_dict(tasks), indent=indent)


def loads_taskset(text: str) -> TaskSet:
    """Deserialize a task set from a JSON string."""
    return taskset_from_dict(json.loads(text))


def dump_taskset(tasks: TaskSet, path: Union[str, Path]) -> None:
    """Write a task set to *path* as JSON."""
    Path(path).write_text(dumps_taskset(tasks), encoding="utf-8")


def load_taskset(path: Union[str, Path]) -> TaskSet:
    """Read a task set from a JSON file at *path*."""
    return loads_taskset(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# repro/system-v1 — partitioned multiprocessor systems
# ---------------------------------------------------------------------------
# The partition model types live in repro.partition (which imports this
# package), so they are resolved lazily at call time; this module stays
# import-cycle-free while the format definition stays with the other
# JSON formats.


def system_to_dict(system: "PartitionedSystem") -> Dict[str, Any]:
    """Encode a partitioned system as a plain JSON-serializable dict."""
    platform: Dict[str, Any] = {"cores": system.platform.cores}
    if system.platform.name:
        platform["name"] = system.platform.name
    return {
        "format": _SYSTEM_FORMAT,
        "name": system.tasks.name,
        "platform": platform,
        "tasks": taskset_to_dict(system.tasks)["tasks"],
        "assignment": list(system.assignment),
    }


def system_from_dict(data: Dict[str, Any]) -> "PartitionedSystem":
    """Decode a partitioned system produced by :func:`system_to_dict`.

    The ``assignment`` key is optional (a system may be serialized
    before packing); when present its entries must be core indices
    within the platform, or ``null`` for unassigned tasks.
    """
    from ..partition.platform import PartitionedSystem, Platform

    if not isinstance(data, dict):
        raise ModelError(
            f"system document must be a dict, got {type(data).__name__}"
        )
    declared = data.get("format")
    if declared != _SYSTEM_FORMAT:
        raise ModelError(
            f"unsupported system format {declared!r}; expected "
            f"{_SYSTEM_FORMAT!r}"
        )
    platform_doc = data.get("platform")
    if not isinstance(platform_doc, dict) or "cores" not in platform_doc:
        raise ModelError(
            "system document needs a 'platform' object with a 'cores' key"
        )
    platform = Platform(
        cores=platform_doc["cores"], name=platform_doc.get("name", "")
    )
    if "tasks" not in data:
        raise ModelError("system document must carry a 'tasks' list")
    tasks = _taskset_from_entries(data["tasks"], data.get("name", ""))
    assignment = data.get("assignment")
    if assignment is not None and not isinstance(assignment, list):
        raise ModelError(
            f"'assignment' must be a list, got {type(assignment).__name__}"
        )
    return PartitionedSystem(tasks, platform, assignment)


def dumps_system(system: "PartitionedSystem", indent: int = 2) -> str:
    """Serialize a partitioned system to a JSON string."""
    return json.dumps(system_to_dict(system), indent=indent)


def loads_system(text: str) -> "PartitionedSystem":
    """Deserialize a partitioned system from a JSON string."""
    return system_from_dict(json.loads(text))


def dump_system(system: "PartitionedSystem", path: Union[str, Path]) -> None:
    """Write a partitioned system to *path* as JSON."""
    Path(path).write_text(dumps_system(system), encoding="utf-8")


def load_system(path: Union[str, Path]) -> "PartitionedSystem":
    """Read a partitioned system from a JSON file at *path*."""
    return loads_system(Path(path).read_text(encoding="utf-8"))


def load_any(
    path: Union[str, Path]
) -> Union[TaskSet, "PartitionedSystem", "Trace"]:
    """Read any supported JSON document, dispatching on ``format``.

    Returns a :class:`TaskSet` for ``repro/taskset-v1``, a
    :class:`~repro.partition.platform.PartitionedSystem` for
    ``repro/system-v1``, and a :class:`~repro.online.trace.Trace` for
    ``repro/trace-v1`` — what format-agnostic consumers (the CLI's
    ``partition`` and ``replay`` commands) want.
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(data, dict) and data.get("format") == _SYSTEM_FORMAT:
        return system_from_dict(data)
    if isinstance(data, dict) and data.get("format") == _TRACE_FORMAT:
        return trace_from_dict(data)
    return taskset_from_dict(data)


# ---------------------------------------------------------------------------
# repro/result-v1 — feasibility results
# ---------------------------------------------------------------------------
# Results carry free-form diagnostic payloads (``details``) holding
# exact rationals, nested sequences and the occasional enum, so the
# encoding is a small tagged scheme rather than per-field: Fractions
# become ``{"$frac": "p/q"}`` (a bare ``"p/q"`` string must stay a
# string — "U > 1" is a reason, not a rational), tuples become lists,
# and anything unrepresentable degrades to a ``{"$str": ...}`` marker.
# Everything a test actually emits round-trips exactly.
#
# Exact values of large systems outgrow the interpreter's int<->str
# digit limit (``sys.get_int_max_str_digits()``, 4300 by default): the
# utilization of a 3000-task set with periods up to 100,000 has a
# denominator of ~4,700 digits.  Past the limit the digits go through
# `Decimal`, which converts exactly and is exempt from it.  Reading them
# back is quadratic in the digit count (~0.1 s at 50,000 digits), so a
# `$frac` term longer than :data:`_MAX_FRAC_DIGITS` is refused.

_MAX_FRAC_DIGITS = 50_000
_INTEGER = re.compile(r"[+-]?[0-9]+")
#: The interpreter's int<->str digit limit (0 where it has none: then
#: every text takes ``Fraction(text)``).
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _decode_fraction(text: Any) -> Fraction:
    """``Fraction(text)``, also for ``"p/q"`` terms past the digit limit."""
    if type(text) is str and text.isascii():
        # What encode_value writes, "p/q" in plain digits within the
        # limit, parses as two ints, skipping Fraction's regex parse.
        numerator, slash, denominator = text.partition("/")
        limit = _int_max_str_digits()
        if (
            slash
            and numerator.isdigit()
            and denominator.isdigit()
            and len(numerator) <= limit
            and len(denominator) <= limit
        ):
            return Fraction(int(numerator), int(denominator))
    try:
        return Fraction(text)
    except ValueError:
        if not isinstance(text, str):
            raise
        terms = text.strip().split("/")
        if len(terms) > 2 or not all(_INTEGER.fullmatch(t) for t in terms):
            raise
        if max(map(len, terms)) > _MAX_FRAC_DIGITS:
            raise ValueError(
                f"a $frac term has more than {_MAX_FRAC_DIGITS} digits"
            ) from None
        return Fraction(*(int(Decimal(t)) for t in terms))


def encode_value(value: Any) -> Any:
    """Encode an arbitrary diagnostic value as JSON-serializable data."""
    if value is None or isinstance(value, (bool, int, str, float)):
        return value
    if isinstance(value, Fraction):
        try:
            return {"$frac": f"{value.numerator}/{value.denominator}"}
        except ValueError:  # past the int->str digit limit
            return {"$frac": f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"}
    if isinstance(value, enum.Enum):
        return encode_value(value.value)
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    return {"$str": str(value)}


def decode_value(value: Any) -> Any:
    """Decode data produced by :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if isinstance(value, dict):
        if set(value) == {"$frac"}:
            exact = _decode_fraction(value["$frac"])
            return exact.numerator if exact.denominator == 1 else exact
        if set(value) == {"$str"}:
            return value["$str"]
        return {k: decode_value(v) for k, v in value.items()}
    return value


def result_to_dict(result: "FeasibilityResult") -> Dict[str, Any]:
    """Encode a feasibility result as a plain JSON-serializable dict."""
    witness: Any = None
    if result.witness is not None:
        witness = {
            "interval": encode_value(result.witness.interval),
            "demand": encode_value(result.witness.demand),
            "exact": result.witness.exact,
        }
    return {
        "format": _RESULT_FORMAT,
        "verdict": result.verdict.value,
        "test_name": result.test_name,
        "iterations": result.iterations,
        "intervals_checked": result.intervals_checked,
        "revisions": result.revisions,
        "max_level": result.max_level,
        "bound": encode_value(result.bound),
        "witness": witness,
        "details": {str(k): encode_value(v) for k, v in result.details.items()},
    }


def result_from_dict(data: Dict[str, Any]) -> "FeasibilityResult":
    """Decode a feasibility result produced by :func:`result_to_dict`."""
    from ..result import FailureWitness, FeasibilityResult, Verdict

    if not isinstance(data, dict):
        raise ModelError(
            f"result document must be a dict, got {type(data).__name__}"
        )
    declared = data.get("format")
    if declared != _RESULT_FORMAT:
        raise ModelError(
            f"unsupported result format {declared!r}; expected {_RESULT_FORMAT!r}"
        )
    try:
        verdict = Verdict(data["verdict"])
    except (KeyError, ValueError) as err:
        raise ModelError(f"invalid result verdict: {err}") from None
    witness = None
    witness_doc = data.get("witness")
    if witness_doc is not None:
        if not isinstance(witness_doc, dict):
            raise ModelError("result 'witness' must be an object or null")
        try:
            witness = FailureWitness(
                interval=decode_value(witness_doc["interval"]),
                demand=decode_value(witness_doc["demand"]),
                exact=bool(witness_doc["exact"]),
            )
        except KeyError as err:
            raise ModelError(f"result witness is missing {err}") from None
    details_doc = data.get("details", {})
    if not isinstance(details_doc, dict):
        raise ModelError("result 'details' must be an object")
    try:
        return FeasibilityResult(
            verdict=verdict,
            test_name=data.get("test_name", ""),
            iterations=int(data.get("iterations", 0)),
            intervals_checked=int(data.get("intervals_checked", 0)),
            revisions=int(data.get("revisions", 0)),
            max_level=data.get("max_level"),
            bound=decode_value(data.get("bound")),
            witness=witness,
            details={k: decode_value(v) for k, v in details_doc.items()},
        )
    except (TypeError, ValueError) as err:
        raise ModelError(f"invalid result document: {err}") from None


# ---------------------------------------------------------------------------
# repro/trace-v1 — arrival traces for the online admission layer
# ---------------------------------------------------------------------------
# The trace types live in repro.online (which imports this package), so
# they are resolved lazily at call time, like the partition types above.


def event_to_dict(event: "ArrivalEvent") -> Dict[str, Any]:
    """Encode one arrival/departure event as a JSON-serializable dict."""
    document: Dict[str, Any] = {
        "kind": event.kind,
        "name": event.name,
        "time": _encode_time(event.time),
    }
    if event.task is not None:
        document["task"] = _task_to_dict(event.task)
    return document


def event_from_dict(data: Dict[str, Any]) -> "ArrivalEvent":
    """Decode an event produced by :func:`event_to_dict`."""
    from ..online.trace import ArrivalEvent

    if not isinstance(data, dict):
        raise ModelError(
            f"event document must be a dict, got {type(data).__name__}"
        )
    missing = [key for key in ("kind", "name") if key not in data]
    if missing:
        raise ModelError(f"event is missing {', '.join(map(repr, missing))}")
    task = None
    task_doc = data.get("task")
    if task_doc is not None:
        (task,) = _tasks_from_entries([task_doc])
    try:
        return ArrivalEvent(
            kind=data["kind"],
            name=data["name"],
            task=task,
            time=_decode_time(data.get("time", 0)),
        )
    except ModelError:
        raise
    except (TypeError, ValueError) as err:
        raise ModelError(f"invalid event document: {err}") from None


def trace_to_dict(trace: "Trace") -> Dict[str, Any]:
    """Encode an arrival trace as a plain JSON-serializable dict."""
    return {
        "format": _TRACE_FORMAT,
        "name": trace.name,
        "events": [event_to_dict(event) for event in trace],
    }


def trace_from_dict(data: Dict[str, Any]) -> "Trace":
    """Decode a trace produced by :func:`trace_to_dict`."""
    from ..online.trace import Trace

    if not isinstance(data, dict) or "events" not in data:
        raise ModelError("trace document must be a dict with an 'events' key")
    declared = data.get("format", _TRACE_FORMAT)
    if declared != _TRACE_FORMAT:
        raise ModelError(f"unsupported trace format {declared!r}")
    events = data["events"]
    if not isinstance(events, list):
        raise ModelError(
            f"'events' must be a list, got {type(events).__name__}"
        )
    return Trace(
        [event_from_dict(entry) for entry in events],
        name=data.get("name", ""),
    )


def dumps_trace(trace: "Trace", indent: int = 2) -> str:
    """Serialize an arrival trace to a JSON string."""
    return json.dumps(trace_to_dict(trace), indent=indent)


def loads_trace(text: str) -> "Trace":
    """Deserialize an arrival trace from a JSON string."""
    return trace_from_dict(json.loads(text))


def dump_trace(trace: "Trace", path: Union[str, Path]) -> None:
    """Write an arrival trace to *path* as JSON."""
    Path(path).write_text(dumps_trace(trace), encoding="utf-8")


def load_trace(path: Union[str, Path]) -> "Trace":
    """Read an arrival trace from a JSON file at *path*."""
    return loads_trace(Path(path).read_text(encoding="utf-8"))
