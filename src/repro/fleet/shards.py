"""Campaign sharding: fingerprint grouping, packing, worker placement.

The fleet's unit of dispatch is the :class:`Shard` — a bundle of
resolved analysis requests sent to one worker in one HTTP call.  Three
invariants shape how shards are cut:

* **Affinity** — requests whose sources share an
  :class:`~repro.engine.context.AnalysisContext` fingerprint always
  travel together, and placement is decided per *group* by rendezvous
  hashing over the fingerprint key.  The same system therefore lands on
  the same worker call after call (and campaign after campaign while
  the fleet is stable), so the worker's kernel/context LRUs stay hot.
* **Idempotency** — a shard carries the campaign *indices* of its
  requests, never coordinator-private state.  Re-executing a shard on
  another worker after a crash produces bit-identical results (every
  test is deterministic), and settlement is first-writer-wins per
  index, so replays are harmless by construction.
* **Determinism** — grouping and packing preserve first-seen request
  order, so a campaign shreds into the same shards every run.

Rendezvous (highest-random-weight) hashing rather than a modulo ring:
when a worker dies only *its* groups move, everyone else's stay put —
exactly the property that keeps surviving workers' caches warm through
a failure.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..engine.batch import AnalysisRequest
from ..engine.context import fingerprint_of
from ..engine.registry import TestRegistry, default_registry
from ..model.serialization import (
    decode_value,
    encode_value,
    taskset_from_dict,
    taskset_to_dict,
)
from ..model.taskset import TaskSet

__all__ = [
    "FleetRequest",
    "RequestGroup",
    "Shard",
    "group_requests",
    "pack_groups",
    "rendezvous",
    "rendezvous_ranking",
    "shard_to_wire",
    "entries_from_wire",
]


@dataclass
class FleetRequest:
    """One resolved campaign request, addressable by its index."""

    index: int
    source: Any
    test: str
    options: Dict[str, Any]
    key: str  # fingerprint content hash (placement + store identity)
    tag: Any = None


@dataclass
class RequestGroup:
    """Requests sharing one fingerprint — the unit of placement."""

    key: str
    entries: List[FleetRequest] = field(default_factory=list)


@dataclass
class Shard:
    """A bundle of groups dispatched to one worker in one call."""

    id: str
    groups: List[RequestGroup]
    attempts: int = 0
    traceparent: Optional[str] = None

    @property
    def entries(self) -> List[FleetRequest]:
        return [entry for group in self.groups for entry in group.entries]

    @property
    def indices(self) -> List[int]:
        return [entry.index for group in self.groups for entry in group.entries]

    def __len__(self) -> int:
        return sum(len(group.entries) for group in self.groups)


def group_requests(
    requests: Sequence[AnalysisRequest],
    registry: Optional[TestRegistry] = None,
) -> List[RequestGroup]:
    """Resolve *requests* and bucket them by fingerprint, order-preserving.

    Options are resolved against the registry schema here (idempotent if
    the caller already resolved them), so every downstream consumer —
    wire encoding, the store key, the worker — sees the same canonical
    mapping.  Raises ``ValueError`` on an unknown test or bad options,
    exactly like :meth:`JobQueue.submit`.
    """
    from ..service.store import fingerprint_key

    registry = registry if registry is not None else default_registry()
    groups: Dict[str, RequestGroup] = {}
    ordered: List[RequestGroup] = []
    for index, request in enumerate(requests):
        definition = registry.get(request.test)
        options = definition.resolve_options(request.options)
        key = fingerprint_key(fingerprint_of(request.source))
        group = groups.get(key)
        if group is None:
            group = groups[key] = RequestGroup(key=key)
            ordered.append(group)
        group.entries.append(
            FleetRequest(
                index=index,
                source=request.source,
                test=request.test,
                options=options,
                key=key,
                tag=request.tag,
            )
        )
    return ordered


def pack_groups(
    groups: Sequence[RequestGroup], max_size: int
) -> List[List[RequestGroup]]:
    """Chunk whole groups into shard-sized bundles, preserving order.

    A group never splits across bundles (affinity), so one bundle can
    exceed *max_size* when a single fingerprint repeats more often than
    the cap — correctness over symmetry.
    """
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    bundles: List[List[RequestGroup]] = []
    current: List[RequestGroup] = []
    filled = 0
    for group in groups:
        if current and filled + len(group.entries) > max_size:
            bundles.append(current)
            current, filled = [], 0
        current.append(group)
        filled += len(group.entries)
    if current:
        bundles.append(current)
    return bundles


def rendezvous(key: str, worker_ids: Sequence[str]) -> Optional[str]:
    """Highest-random-weight placement of *key* among *worker_ids*.

    Deterministic, minimally disruptive: removing one worker reassigns
    only the keys that pointed at it.  Returns ``None`` for an empty
    fleet (the caller degrades to local execution).
    """
    ranking = rendezvous_ranking(key, worker_ids)
    return ranking[0] if ranking else None


def rendezvous_ranking(key: str, worker_ids: Sequence[str]) -> List[str]:
    """Every worker ordered by its rendezvous score for *key*, best
    first.  The full ranking is what lets placement enforce a load cap
    without losing the hash's stability: a key spilled off its favorite
    lands on its *second* choice, which is itself deterministic and
    minimally disruptive."""
    scored = [
        (
            hashlib.sha256(f"{key}\x00{worker_id}".encode("utf-8")).digest(),
            worker_id,
        )
        for worker_id in worker_ids
    ]
    # Tie-break on the id so equal scores (impossible in practice)
    # stay deterministic.
    scored.sort(reverse=True)
    return [worker_id for _, worker_id in scored]


_SHARD_SEQ = itertools.count(1)


def next_shard_id(prefix: str = "s") -> str:
    """Process-unique, monotonically increasing shard identifier."""
    return f"{prefix}-{next(_SHARD_SEQ):06d}"


# ----------------------------------------------------------------------
# Wire format (the POST /v1/fleet/shard body)
# ----------------------------------------------------------------------


def shard_to_wire(shard: Shard) -> Dict[str, Any]:
    """Encode a shard as the JSON body a worker executes.

    Sources must be :class:`TaskSet` (everything the HTTP API produces
    is; the coordinator runs a shard that raises ``TypeError`` here
    locally); options go through the tagged value codec so exact
    rationals survive the trip.
    """
    entries = []
    for entry in shard.entries:
        if not isinstance(entry.source, TaskSet):
            raise TypeError(
                f"request {entry.index}: only TaskSet sources are "
                f"fleet-dispatchable, got {type(entry.source).__name__}"
            )
        entries.append(
            {
                "index": entry.index,
                "test": entry.test,
                "options": {
                    str(k): encode_value(v) for k, v in entry.options.items()
                },
                "tag": encode_value(entry.tag),
                "taskset": taskset_to_dict(entry.source),
            }
        )
    return {
        "shard": shard.id,
        "attempt": shard.attempts,
        "traceparent": shard.traceparent,
        "entries": entries,
    }


def entries_from_wire(
    document: Mapping[str, Any]
) -> List[Dict[str, Any]]:
    """Decode a shard body into ``{index, source, test, options, tag}``
    dicts (the worker re-resolves options against its own registry)."""
    raw = document.get("entries")
    if not isinstance(raw, list) or not raw:
        raise ValueError("a shard body needs a non-empty 'entries' list")
    entries = []
    for position, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ValueError(f"entry {position} must be an object")
        options = item.get("options", {})
        if not isinstance(options, dict):
            raise ValueError(f"entry {position}: 'options' must be an object")
        try:
            index = int(item["index"])
            test = item["test"]
            source = taskset_from_dict(item["taskset"])
            options = {k: decode_value(v) for k, v in options.items()}
            tag = decode_value(item.get("tag"))
        except (ArithmeticError, KeyError, TypeError, ValueError) as err:
            raise ValueError(f"entry {position}: {err}") from None
        if not isinstance(test, str):
            raise ValueError(f"entry {position}: 'test' must be a string")
        entries.append(
            {
                "index": index,
                "source": source,
                "test": test,
                "options": options,
                "tag": tag,
            }
        )
    return entries
