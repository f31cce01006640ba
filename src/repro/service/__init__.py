"""The analysis service layer: persistence, job queue, HTTP API.

Where :mod:`repro.engine` makes one process fast, this package makes
analysis a long-lived *service*:

* :class:`~repro.service.store.ResultStore` — SQLite-backed verdict
  cache keyed by task-set fingerprint, test and options, so repeated
  analyses are O(1) lookups across process lifetimes;
* :class:`~repro.service.jobs.JobQueue` — asynchronous single and
  batch-campaign jobs with progress and cancellation, executed in
  shards via the engine's :class:`~repro.engine.batch.BatchRunner`,
  with one store read and one store write per shard;
* :class:`~repro.service.api.AnalysisServer` — a stdlib-only HTTP JSON
  API speaking ``repro/taskset-v1`` / ``repro/system-v1`` in and
  ``repro/result-v1`` out;
* :class:`~repro.service.client.ServiceClient` — the matching client,
  used by the ``repro-edf submit/status/fetch`` CLI.

A restarted server answers the sets it has analyzed before from the
store; the engine's context LRU starts empty in every process.
"""

from .api import AnalysisServer, ApiError, requests_from_document
from .client import ServiceClient, ServiceError
from .jobs import Job, JobQueue, JobState
from .sessions import (
    AdmissionSession,
    AdmissionSessionManager,
    decision_to_dict,
    events_from_document,
)
from .store import ResultStore, canonical_options, fingerprint_key

__all__ = [
    "AnalysisServer",
    "ApiError",
    "requests_from_document",
    "ServiceClient",
    "ServiceError",
    "Job",
    "JobQueue",
    "JobState",
    "AdmissionSession",
    "AdmissionSessionManager",
    "decision_to_dict",
    "events_from_document",
    "ResultStore",
    "canonical_options",
    "fingerprint_key",
]
