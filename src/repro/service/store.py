"""Persistent analysis result store backed by SQLite.

The engine's :class:`~repro.engine.context.AnalysisContext` LRU makes
repeated analyses cheap *within* one process; this store makes them
cheap *across* processes.  Its one table, ``results``, holds one row
per ``(task-set fingerprint, test name, canonical resolved options)``
with a ``repro/result-v1`` document.  Feasibility tests are
deterministic, so a stored verdict is the verdict — a hit answers an
analysis without running it.  (Older files also carry a ``contexts``
table of memoized preflight state; opening one drops it.)

Keys are content hashes of the *fingerprint* (component parameters in
source order — exactly what a test can observe), never of file names or
object identities, so equal systems share rows however they arrive.
Options are canonicalized post-resolution: submitting a default
explicitly and omitting it hit the same row.

The job queue reads and writes a whole shard at a time, computing each
request's row key (:func:`store_key`) once for both.
:meth:`ResultStore.get_keyed` looks every key up under one lock hold
and bumps the hits' LRU position in one transaction;
:meth:`ResultStore.put_keyed` inserts every row and evicts in another.
:meth:`~ResultStore.get_many` and :meth:`~ResultStore.put_many` take
``(fingerprint, test, options)`` entries instead of keys, and
:meth:`~ResultStore.get` and :meth:`~ResultStore.put` are their
one-element cases.  A batch write is all or nothing: a lock retry
re-runs the whole batch, and a process that dies mid-shard loses that
shard's rows, whose analyses simply run again on the next request.

The store is a cache, not a ledger: every read path degrades to a miss
on trouble.  *Corruption* (``sqlite3.DatabaseError`` other than
``OperationalError``) moves the database file aside and recreates it; a
corrupted row is deleted.  *Transient* trouble
(``sqlite3.OperationalError`` — locked by another process, disk busy,
read-only filesystem) merely degrades the one operation to misses or a
skipped write: a healthy database shared with another process must
never be quarantined for being busy.  Eviction keeps the row count under
``max_rows``, dropping least-recently-used entries first (``last_used``
is a monotonic sequence number, not wall time, so rapid-fire entries
stay strictly ordered).

Writes use one connection guarded by a lock (``check_same_thread=False``
— the HTTP handler pool and the job workers share the instance).
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..model.serialization import encode_value, result_from_dict, result_to_dict
from ..obs import counter as _obs_counter
from ..obs import emit as _obs_emit
from ..result import FeasibilityResult

__all__ = ["ResultStore", "fingerprint_key", "canonical_options", "store_key"]

# Process-wide store tallies for the metrics exposition.  The
# per-instance `_hits`/`_misses` cells stay authoritative for
# `stats()` — several stores can coexist in one process (tests, the
# CLI opening a scratch store next to a server's) and each must report
# its own session, so the registry aggregates while the instance
# isolates.
_STORE_HITS = _obs_counter(
    "repro_store_hits_total",
    "ResultStore result-row hits across every store in the process.",
)
_STORE_MISSES = _obs_counter(
    "repro_store_misses_total",
    "ResultStore result-row misses across every store in the process.",
)
_STORE_EVICTIONS = _obs_counter(
    "repro_store_evictions_total",
    "Result rows evicted to honour max_rows.",
)
_STORE_QUARANTINES = _obs_counter(
    "repro_store_quarantines_total",
    "Corrupted databases moved aside (quarantined) and recreated.",
)
_STORE_LOCKED_RETRIES = _obs_counter(
    "repro_store_locked_retries_total",
    "Write attempts retried because another connection held the lock.",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    fingerprint TEXT NOT NULL,
    test        TEXT NOT NULL,
    options     TEXT NOT NULL,
    result      TEXT NOT NULL,
    created_at  REAL NOT NULL,
    last_used   INTEGER NOT NULL,
    hits        INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (fingerprint, test, options)
);
CREATE INDEX IF NOT EXISTS idx_results_lru ON results (last_used);
DROP TABLE IF EXISTS contexts;
"""

_KEY = "fingerprint=? AND test=? AND options=?"


def fingerprint_key(fingerprint: Any) -> str:
    """Stable content hash of an ``AnalysisContext`` fingerprint.

    The fingerprint is a tuple of ``(wcet, first_deadline, period,
    source)`` per component; encoding through the tagged JSON scheme
    keeps exact rationals exact, so two systems collide iff a
    feasibility test cannot tell them apart.

    The text is the same bytes as ``json.dumps(encode_value(fingerprint),
    separators=(",", ":"))``, and so is every stored row's key: the C
    encoder writes the tuples as lists and the ints, floats, strings and
    ``None`` natively, and hands every other leaf (a `Fraction`) to
    :func:`encode_value` for the same tag, without the recursive Python
    pass over the whole fingerprint.
    """
    canonical = json.dumps(fingerprint, separators=(",", ":"), default=encode_value)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def canonical_options(options: Mapping[str, Any]) -> str:
    """Canonical text of *resolved* test options (sorted, tagged JSON).

    Callers must resolve options through the registry first so defaults
    and explicitly passed default values serialize identically.
    """
    encoded = {str(k): encode_value(v) for k, v in options.items()}
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


#: A row key: ``(fingerprint_key, test, canonical_options)``.
StoreKey = Tuple[str, str, str]


def store_key(fingerprint: Any, test: str, options: Mapping[str, Any]) -> StoreKey:
    """The key a result for this request is stored under (*options*
    registry-resolved)."""
    return (fingerprint_key(fingerprint), test, canonical_options(options))


class ResultStore:
    """SQLite-backed verdict cache (see module docstring).

    Args:
        path: database file; parent directories are created.
        max_rows: LRU eviction threshold for the ``results`` table
            (``None`` disables eviction).
        busy_timeout: seconds SQLite itself blocks on a locked database
            before raising (``PRAGMA busy_timeout``) — the first line of
            defence when several fleet workers share one store file.
        locked_retries: bounded application-level retries (with short
            exponential backoff) on a still-locked write before the
            write is dropped as best-effort.
    """

    def __init__(
        self,
        path: Union[str, Path],
        max_rows: Optional[int] = 100_000,
        busy_timeout: float = 5.0,
        locked_retries: int = 3,
    ) -> None:
        if max_rows is not None and max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {max_rows}")
        if busy_timeout < 0:
            raise ValueError(f"busy_timeout must be >= 0, got {busy_timeout}")
        if locked_retries < 1:
            raise ValueError(
                f"locked_retries must be >= 1, got {locked_retries}"
            )
        self.path = Path(path)
        self.max_rows = max_rows
        self.busy_timeout = busy_timeout
        self.locked_retries = locked_retries
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._conn: Optional[sqlite3.Connection] = None
        self._tick = 0
        with self._lock:
            self._open()

    # ------------------------------------------------------------------
    # Connection lifecycle / corruption recovery
    # ------------------------------------------------------------------

    def _open(self) -> None:
        """Open (or recover and reopen) the database.  Caller holds the lock."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._conn = self._connect()
        except sqlite3.OperationalError:
            # Locked / unwritable is not corruption: surface it instead
            # of destroying a database another process is using.
            raise
        except sqlite3.DatabaseError:
            self._quarantine()
            self._conn = self._connect()
        self._tick = self._max_tick()

    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, check_same_thread=False)
        try:
            conn.execute(
                f"PRAGMA busy_timeout = {int(self.busy_timeout * 1000)}"
            )
            conn.executescript(_SCHEMA)
            conn.commit()
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def _write_retrying(self, operation: Any) -> None:
        """Run a write *operation*, retrying a bounded number of times
        when another connection holds the database lock.

        ``PRAGMA busy_timeout`` already makes SQLite wait; this layer
        covers the residue (timeout elapsed, or a deferred lock upgrade
        that ``busy_timeout`` does not apply to).  A failed attempt is
        rolled back whole before the next one, so *operation* must make
        the whole transaction, commit included.  Non-lock
        ``OperationalError``s and the final failed attempt propagate to
        the caller's existing best-effort/recovery handling.
        """
        for attempt in range(1, self.locked_retries + 1):
            try:
                operation()
                return
            except sqlite3.OperationalError as err:
                message = str(err).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                self._rollback()
                if attempt == self.locked_retries:
                    raise
                _STORE_LOCKED_RETRIES.inc()
                time.sleep(0.05 * (2 ** (attempt - 1)))

    def _rollback(self) -> None:
        """Abandon the open transaction, if any.  Caller holds the lock."""
        try:
            assert self._conn is not None
            self._conn.rollback()
        except sqlite3.Error:
            pass

    def _quarantine(self) -> None:
        """Move a corrupted database aside so a fresh one can be created."""
        _STORE_QUARANTINES.inc()
        _obs_emit("service", "store.quarantine", path=str(self.path))
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
        if self.path.exists():
            backup = self.path.with_name(self.path.name + ".corrupt")
            try:
                os.replace(self.path, backup)
            except OSError:
                try:
                    self.path.unlink()
                except OSError:
                    pass

    def _recover(self) -> None:
        """Replace a database that failed mid-operation.  Caller holds the lock."""
        self._quarantine()
        self._conn = self._connect()
        self._tick = 0

    def _max_tick(self) -> int:
        assert self._conn is not None
        row = self._conn.execute(
            "SELECT MAX(last_used) FROM results"
        ).fetchone()
        return row[0] or 0

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Result rows
    # ------------------------------------------------------------------

    def get(
        self,
        fingerprint: Any,
        test: str,
        options: Mapping[str, Any],
    ) -> Optional[FeasibilityResult]:
        """Stored result for the triple, or ``None`` (counted as a miss).

        *options* must be registry-resolved; a hit bumps the row's LRU
        position and per-row hit counter.
        """
        return self.get_keyed([store_key(fingerprint, test, options)])[0]

    def get_many(
        self, entries: Sequence[Tuple[Any, str, Mapping[str, Any]]]
    ) -> List[Optional[FeasibilityResult]]:
        """Stored results for the ``(fingerprint, test, options)``
        *entries*, ``None`` for each miss (see :meth:`get_keyed`)."""
        return self.get_keyed([store_key(*entry) for entry in entries])

    def get_keyed(
        self, keys: Sequence[StoreKey]
    ) -> List[Optional[FeasibilityResult]]:
        """Stored results for the :func:`store_key` *keys*, ``None`` for
        each miss.

        One lock hold for the whole batch.  The hits' LRU bumps (in
        request order) and the deletion of corrupted rows, which count
        as misses, share one transaction.
        """
        results: List[Optional[FeasibilityResult]] = [None] * len(keys)
        with self._lock:
            if self._conn is None:
                raise RuntimeError("store is closed")
            rows = []
            try:
                for key in keys:
                    rows.append(
                        self._conn.execute(
                            f"SELECT result FROM results WHERE {_KEY}", key
                        ).fetchone()
                    )
            except sqlite3.OperationalError:
                pass  # transient (locked/busy): the rest are misses
            except sqlite3.DatabaseError:
                self._recover()
            bumps = []
            broken = []
            for index, (key, row) in enumerate(zip(keys, rows)):
                if row is None:
                    continue
                try:
                    results[index] = result_from_dict(json.loads(row[0]))
                except Exception:
                    # A corrupted row is worthless: drop it, report a miss.
                    broken.append(key)
                    continue
                self._tick += 1
                bumps.append((self._tick, *key))
            self._hits += len(bumps)
            self._misses += len(keys) - len(bumps)
            _STORE_HITS.inc(len(bumps))
            _STORE_MISSES.inc(len(keys) - len(bumps))
            if bumps or broken:
                try:
                    self._conn.executemany(
                        f"DELETE FROM results WHERE {_KEY}", broken
                    )
                    self._conn.executemany(
                        "UPDATE results SET last_used=?, hits=hits+1 "
                        f"WHERE {_KEY}",
                        bumps,
                    )
                    self._conn.commit()
                except sqlite3.OperationalError:
                    self._rollback()  # the LRU bump is best-effort
                except sqlite3.DatabaseError:
                    self._recover()
        return results

    def put(
        self,
        fingerprint: Any,
        test: str,
        options: Mapping[str, Any],
        result: FeasibilityResult,
    ) -> None:
        """Insert or refresh the stored result for the triple."""
        self.put_keyed([(store_key(fingerprint, test, options), result)])

    def put_many(
        self,
        entries: Sequence[Tuple[Any, str, Mapping[str, Any], FeasibilityResult]],
    ) -> None:
        """Insert or refresh every ``(fingerprint, test, options,
        result)`` of *entries* (see :meth:`put_keyed`)."""
        self.put_keyed(
            [
                (store_key(fingerprint, test, options), result)
                for fingerprint, test, options, result in entries
            ]
        )

    def put_keyed(
        self, rows: Sequence[Tuple[StoreKey, FeasibilityResult]]
    ) -> None:
        """Insert or refresh every ``(key, result)`` of *rows* in one
        transaction.

        Rows keep their hit counters and take LRU positions in entry
        order; eviction runs once, after the whole batch.  A write that
        stays locked past the retries is dropped whole.
        """
        encoded = [
            (*key, json.dumps(result_to_dict(result), separators=(",", ":")))
            for key, result in rows
        ]
        if not encoded:
            return
        now = time.time()
        with self._lock:
            if self._conn is None:
                raise RuntimeError("store is closed")
            rows = []
            for key, test, opts, document in encoded:
                self._tick += 1
                rows.append(
                    (key, test, opts, document, now, self._tick, key, test, opts)
                )

            def write() -> None:
                assert self._conn is not None
                self._conn.executemany(
                    "INSERT OR REPLACE INTO results "
                    "(fingerprint, test, options, result, created_at, "
                    "last_used, hits) VALUES (?,?,?,?,?,?,"
                    f"COALESCE((SELECT hits FROM results WHERE {_KEY}), 0))",
                    rows,
                )
                self._evict_locked()
                self._conn.commit()

            try:
                self._write_retrying(write)
            except sqlite3.OperationalError:
                pass  # still failing (locked/read-only): drop this batch
            except sqlite3.DatabaseError:
                self._recover()

    def _evict_locked(self) -> None:
        if self.max_rows is None:
            return
        assert self._conn is not None
        (count,) = self._conn.execute("SELECT COUNT(*) FROM results").fetchone()
        excess = count - self.max_rows
        if excess > 0:
            self._conn.execute(
                "DELETE FROM results WHERE rowid IN ("
                "SELECT rowid FROM results ORDER BY last_used ASC LIMIT ?)",
                (excess,),
            )
            _STORE_EVICTIONS.inc(excess)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Session hit/miss counters plus the persistent row count."""
        with self._lock:
            rows = 0
            if self._conn is not None:
                try:
                    (rows,) = self._conn.execute(
                        "SELECT COUNT(*) FROM results"
                    ).fetchone()
                except sqlite3.OperationalError:
                    pass
                except sqlite3.DatabaseError:
                    self._recover()
            return {
                "path": str(self.path),
                "rows": rows,
                "max_rows": self.max_rows,
                "hits": self._hits,
                "misses": self._misses,
            }

    def clear(self) -> None:
        """Drop every stored result."""
        with self._lock:
            if self._conn is None:
                return
            try:
                self._conn.execute("DELETE FROM results")
                self._conn.commit()
            except sqlite3.OperationalError:
                pass
            except sqlite3.DatabaseError:
                self._recover()
            self._tick = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore(path={str(self.path)!r}, max_rows={self.max_rows})"
