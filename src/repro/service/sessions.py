"""Admission sessions: live controllers behind the HTTP API.

An admission *session* is one
:class:`~repro.online.controller.AdmissionController` owned by the
server, driven by POSTed ``repro/trace-v1`` events and observable
through a decision log.  Sessions are the service-side face of the
online subsystem: a client creates one (optionally seeded with an
initial task set), streams arrive/depart events at it, and reads back
per-event decisions — either synchronously in the POST response or by
polling the log with a ``since`` cursor.

Thread safety: the HTTP server handles requests on multiple threads; a
per-session lock serializes event application, so decisions (and their
log indices) are totally ordered per session.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Any, Dict, List, Tuple

from ..model.serialization import encode_value, event_from_dict
from ..model.validation import ModelError
from ..obs import counter as _obs_counter
from ..obs import emit as _obs_emit
from ..obs import gauge as _obs_gauge
from ..online.controller import AdmissionController, AdmissionDecision
from ..online.trace import ARRIVE, ArrivalEvent

__all__ = [
    "AdmissionSession",
    "AdmissionSessionManager",
    "decision_to_dict",
    "events_from_document",
]

# The per-stage decision counters live in repro.online.controller (one
# series across every controller in the process); here only the session
# lifecycle is tracked.
_SESSIONS_OPENED = _obs_counter(
    "repro_admission_sessions_opened_total",
    "Admission sessions created over the server's lifetime.",
)
_SESSIONS_CLOSED = _obs_counter(
    "repro_admission_sessions_closed_total",
    "Admission sessions explicitly closed.",
)
_SESSIONS_LIVE = _obs_gauge(
    "repro_admission_sessions_live",
    "Admission sessions currently open.",
)


def decision_to_dict(
    decision: AdmissionDecision, utilization: Any = None
) -> Dict[str, Any]:
    """Encode a decision as a JSON document (witness via result-v1's
    tagged value scheme, exact values preserved).  *utilization*, if
    given, is the decision's utilization already encoded."""
    if utilization is None:
        utilization = encode_value(decision.utilization)
    witness = None
    if decision.witness is not None:
        witness = {
            "interval": encode_value(decision.witness.interval),
            "demand": encode_value(decision.witness.demand),
            "exact": decision.witness.exact,
        }
    return {
        "event": decision.event,
        "name": decision.name,
        "admitted": decision.admitted,
        "verdict": decision.verdict.value,
        "stage": decision.stage,
        "latency_seconds": decision.latency_seconds,
        "utilization": utilization,
        "tasks": decision.tasks,
        "iterations": decision.iterations,
        "bound": encode_value(decision.bound),
        "witness": witness,
    }


class AdmissionSession:
    """One live controller plus its decision log.

    The log is capped (*max_log*): the oldest half is pruned when the
    cap is hit, so a session streamed for days stays bounded.  Decision
    ``index`` values are absolute and survive pruning — a client
    polling with the ``since`` cursor at the stream's tail never
    notices; only a cursor that fell behind the retained window loses
    the pruned prefix.
    """

    def __init__(
        self,
        session_id: str,
        controller: AdmissionController,
        name: str = "",
        max_log: int = 10_000,
    ) -> None:
        if max_log < 2:
            raise ValueError(f"max_log must be >= 2, got {max_log}")
        self.id = session_id
        self.name = name
        self.controller = controller
        self.created_at = time.time()
        self.max_log = max_log
        self.lock = threading.Lock()
        self.decisions: List[Dict[str, Any]] = []
        #: Absolute index of ``decisions[0]`` (grows as the log prunes).
        self.log_base = 0
        #: ``(U, encoded U)`` of the last two distinct utilizations: the
        #: departure of an arrival restores the U from before it, whose
        #: numerator and denominator can run to thousands of digits.
        self._encoded: List[Tuple[Any, Any]] = []

    def apply(self, event: ArrivalEvent) -> Dict[str, Any]:
        """Apply one event; returns its indexed decision document."""
        with self.lock:
            if event.kind == ARRIVE:
                decision = self.controller.admit(event.task, name=event.name)
            else:
                decision = self.controller.remove(event.name, strict=False)
            document = decision_to_dict(
                decision, self._encode_utilization(decision.utilization)
            )
            document["index"] = self.log_base + len(self.decisions)
            document["time"] = encode_value(event.time)
            self.decisions.append(document)
            if len(self.decisions) > self.max_log:
                drop = len(self.decisions) // 2
                del self.decisions[:drop]
                self.log_base += drop
            return document

    def _encode_utilization(self, value: Any) -> Any:
        hits = [entry for entry in self._encoded if entry[0] == value]
        entry = hits[0] if hits else (value, encode_value(value))
        self._encoded = [entry, *[e for e in self._encoded if e is not entry]][:2]
        return entry[1]

    def log(self, since: int = 0) -> List[Dict[str, Any]]:
        """Decision documents from absolute index *since* (the poll
        'stream'); entries pruned below the retained window are gone."""
        if since < 0:
            raise ValueError(f"'since' must be >= 0, got {since}")
        with self.lock:
            return list(self.decisions[max(0, since - self.log_base) :])

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready session status."""
        with self.lock:
            stats = self.controller.stats()
            return {
                "session": self.id,
                "name": self.name,
                "created_at": self.created_at,
                "decisions": self.log_base + len(self.decisions),
                "log_retained_from": self.log_base,
                **stats,
            }


class AdmissionSessionManager:
    """Create, look up, drive and drop admission sessions."""

    def __init__(self, max_sessions: int = 64) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        self.max_sessions = max_sessions
        self._sessions: Dict[str, AdmissionSession] = {}
        self._lock = threading.Lock()

    def create(
        self,
        *,
        initial: Any = (),
        name: str = "",
    ) -> AdmissionSession:
        """Build a controller and register it; raises ``ModelError`` for
        an infeasible initial system or a full manager (the HTTP
        layer's 400)."""
        limit_error = ModelError(
            f"session limit reached ({self.max_sessions}); close one "
            "before creating another"
        )
        # Check the limit before verifying the (possibly large) initial
        # system — the capacity gate must run before the expensive work
        # it exists to bound.  Re-checked under the lock at insert.
        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                raise limit_error
        controller = AdmissionController(initial, name=name or "session")
        session = AdmissionSession(uuid.uuid4().hex[:12], controller, name=name)
        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                raise limit_error
            self._sessions[session.id] = session
            live = len(self._sessions)
        _SESSIONS_OPENED.inc()
        _SESSIONS_LIVE.set(live)
        _obs_emit(
            "admission", "session.created", session=session.id, label=name
        )
        return session

    def get(self, session_id: str) -> AdmissionSession:
        with self._lock:
            try:
                return self._sessions[session_id]
            except KeyError:
                raise KeyError(f"unknown session {session_id!r}") from None

    def close(self, session_id: str) -> Dict[str, Any]:
        """Drop a session; returns its final snapshot."""
        with self._lock:
            try:
                session = self._sessions.pop(session_id)
            except KeyError:
                raise KeyError(f"unknown session {session_id!r}") from None
            live = len(self._sessions)
        _SESSIONS_CLOSED.inc()
        _SESSIONS_LIVE.set(live)
        _obs_emit("admission", "session.closed", session=session_id)
        return session.snapshot()

    def list_sessions(self) -> List[Dict[str, Any]]:
        with self._lock:
            sessions = list(self._sessions.values())
        return [s.snapshot() for s in sessions]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "sessions": len(self._sessions),
                "max_sessions": self.max_sessions,
            }


def events_from_document(document: Any) -> List[ArrivalEvent]:
    """Events of a POST body: either ``{"events": [...]}`` or a full
    ``repro/trace-v1`` document (which also carries ``events``)."""
    if not isinstance(document, dict) or "events" not in document:
        raise ModelError("the body must be an object with an 'events' list")
    raw = document["events"]
    if not isinstance(raw, list) or not raw:
        raise ModelError("'events' must be a non-empty list")
    return [event_from_dict(entry) for entry in raw]
