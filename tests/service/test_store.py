"""Unit tests for the persistent result store (SQLite)."""

import json
import sqlite3
from fractions import Fraction

import pytest

from repro.engine import AnalysisContext, analyze, clear_context_cache
from repro.model import TaskSet
from repro.model.serialization import result_to_dict
from repro.service import ResultStore, canonical_options, fingerprint_key


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_context_cache()
    yield
    clear_context_cache()


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "store.sqlite") as s:
        yield s


def _fingerprint(tasks):
    return AnalysisContext.of(tasks).fingerprint


def _distinct(count):
    """Fingerprints of *count* distinct one-task systems."""
    return [_fingerprint(TaskSet.of((1, i + 5, i + 10))) for i in range(count)]


def _last_used(store):
    return dict(store._conn.execute("SELECT fingerprint, last_used FROM results"))


class TestKeying:
    def test_equal_systems_share_a_key(self):
        a = TaskSet.of((2, 6, 10), (3, 11, 16))
        b = TaskSet.of((2, 6, 10), (3, 11, 16))
        assert fingerprint_key(_fingerprint(a)) == fingerprint_key(_fingerprint(b))

    def test_different_systems_differ(self):
        a = TaskSet.of((2, 6, 10),)
        b = TaskSet.of((2, 7, 10),)
        assert fingerprint_key(_fingerprint(a)) != fingerprint_key(_fingerprint(b))

    @pytest.mark.parametrize(
        "fingerprint, digest",
        [
            (
                ((2, 6, 10, "tau1"), (3, 11, 16, "tau2"), (5, 25, 25, "ctl")),
                "1038500a006b3f84b994c66dcbc9a9b34e2808d2cac552419a9a956a1ec26871",
            ),
            (
                (
                    (Fraction(1, 3), Fraction(5, 2), 7, "frac"),
                    (0.25, 2.5, 10.0, "float"),
                    (4, 9, None, "one-shot"),
                    (1, 8, 12, "tâche-名前"),
                ),
                "33c286c3e3c9c8eb034a10017f1b2fb7fb395617e01c17f6b6d91082e2016991",
            ),
        ],
        ids=["integers", "mixed"],
    )
    def test_key_format_is_pinned(self, fingerprint, digest):
        """Every stored row is found by this digest: a change to the key
        text would orphan them all."""
        assert fingerprint_key(fingerprint) == digest

    def test_canonical_options_order_independent(self):
        assert canonical_options({"a": 1, "b": 2}) == canonical_options(
            {"b": 2, "a": 1}
        )

    def test_default_vs_explicit_options_collide(self):
        """Registry-resolved options make omitted and explicit defaults equal."""
        from repro.engine import default_registry

        definition = default_registry().get("qpa")
        implicit = definition.resolve_options({})
        explicit = definition.resolve_options({"bound_method": "best"})
        assert canonical_options(implicit) == canonical_options(explicit)


class TestRoundTrip:
    def test_result_round_trip(self, store, simple_taskset):
        result = analyze(simple_taskset, "qpa")
        fp = _fingerprint(simple_taskset)
        assert store.get(fp, "qpa", {}) is None  # miss first
        store.put(fp, "qpa", {}, result)
        restored = store.get(fp, "qpa", {})
        assert restored is not None
        assert restored.verdict == result.verdict
        assert restored.iterations == result.iterations
        assert restored.bound == result.bound
        assert restored.details["utilization"] == result.details["utilization"]

    def test_witness_survives(self, store, infeasible_taskset):
        result = analyze(infeasible_taskset, "processor-demand")
        fp = _fingerprint(infeasible_taskset)
        store.put(fp, "processor-demand", {}, result)
        restored = store.get(fp, "processor-demand", {})
        assert restored.witness == result.witness
        assert restored.witness.exact

    def test_persists_across_instances(self, tmp_path, simple_taskset):
        path = tmp_path / "store.sqlite"
        result = analyze(simple_taskset, "devi")
        fp = _fingerprint(simple_taskset)
        with ResultStore(path) as first:
            first.put(fp, "devi", {}, result)
        with ResultStore(path) as second:
            restored = second.get(fp, "devi", {})
        assert restored is not None
        assert restored.verdict == result.verdict

    def test_stats_counters(self, store, simple_taskset):
        result = analyze(simple_taskset, "devi")
        fp = _fingerprint(simple_taskset)
        store.get(fp, "devi", {})
        store.put(fp, "devi", {}, result)
        store.get(fp, "devi", {})
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["rows"] == 1

    def test_options_distinguish_rows(self, store, simple_taskset):
        fp = _fingerprint(simple_taskset)
        r3 = analyze(simple_taskset, "superpos", level=3)
        r5 = analyze(simple_taskset, "superpos", level=5)
        store.put(fp, "superpos", {"level": 3}, r3)
        store.put(fp, "superpos", {"level": 5}, r5)
        assert store.get(fp, "superpos", {"level": 3}).max_level == r3.max_level
        assert store.get(fp, "superpos", {"level": 5}).max_level == r5.max_level


class TestEviction:
    def test_lru_eviction_keeps_max_rows(self, tmp_path, simple_taskset):
        result = analyze(simple_taskset, "devi")
        with ResultStore(tmp_path / "s.sqlite", max_rows=5) as store:
            for i in range(12):
                fp = _fingerprint(TaskSet.of((1, i + 5, i + 10)))
                store.put(fp, "devi", {}, result)
            assert store.stats()["rows"] == 5

    def test_recently_used_rows_survive(self, tmp_path, simple_taskset):
        result = analyze(simple_taskset, "devi")
        keep = _fingerprint(TaskSet.of((1, 100, 200)))
        with ResultStore(tmp_path / "s.sqlite", max_rows=3) as store:
            store.put(keep, "devi", {}, result)
            for i in range(4):
                store.get(keep, "devi", {})  # keep it hot
                fp = _fingerprint(TaskSet.of((1, i + 5, i + 10)))
                store.put(fp, "devi", {}, result)
            assert store.get(keep, "devi", {}) is not None

    def test_max_rows_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path / "s.sqlite", max_rows=0)


class TestBatches:
    def test_put_many_evicts_like_single_puts(self, tmp_path, simple_taskset):
        result = analyze(simple_taskset, "devi")
        entries = [(fp, "devi", {}, result) for fp in _distinct(10)]
        with ResultStore(tmp_path / "single.sqlite", max_rows=4) as single:
            for entry in entries:
                single.put(*entry)
            kept_single = _last_used(single)
        with ResultStore(tmp_path / "batch.sqlite", max_rows=4) as batch:
            batch.put_many(entries)
            kept_batch = _last_used(batch)
        assert kept_batch == kept_single
        assert set(kept_batch) == {fingerprint_key(e[0]) for e in entries[-4:]}

    def test_get_many_bumps_hits_in_request_order(self, store, simple_taskset):
        result = analyze(simple_taskset, "devi")
        fps = _distinct(6)
        store.put_many([(fp, "devi", {}, result) for fp in fps[:5]])
        asked = [fps[3], fps[5], fps[0], fps[4]]  # fps[5] was never stored
        got = store.get_many([(fp, "devi", {}) for fp in asked])
        assert [r is not None for r in got] == [True, False, True, True]
        assert got[0].verdict == result.verdict
        last_used = _last_used(store)
        bumped = [last_used[fingerprint_key(fp)] for fp in (fps[3], fps[0], fps[4])]
        untouched = [last_used[fingerprint_key(fp)] for fp in (fps[1], fps[2])]
        assert bumped == sorted(bumped)
        assert min(bumped) > max(untouched)
        hits = dict(store._conn.execute("SELECT fingerprint, hits FROM results"))
        assert sorted(hits.values()) == [0, 0, 1, 1, 1]
        assert (store.stats()["hits"], store.stats()["misses"]) == (3, 1)

    def test_get_many_drops_corrupt_rows_in_its_one_commit(
        self, tmp_path, simple_taskset
    ):
        path = tmp_path / "store.sqlite"
        result = analyze(simple_taskset, "devi")
        good, bad = _distinct(2)
        with ResultStore(path) as store:
            store.put_many([(good, "devi", {}, result), (bad, "devi", {}, result)])
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE results SET result='{broken json' WHERE fingerprint=?",
                (fingerprint_key(bad),),
            )
        conn.close()
        with ResultStore(path) as store:
            statements = []
            store._conn.set_trace_callback(statements.append)
            got = store.get_many([(bad, "devi", {}), (good, "devi", {})])
            assert got[0] is None and got[1] is not None
            assert statements.count("COMMIT") == 1
            assert store.stats()["rows"] == 1  # the bad row was deleted
            assert (store.stats()["hits"], store.stats()["misses"]) == (1, 1)


#: The schema of store files written before the ``contexts`` table of
#: persisted preflight state was removed.
_OLD_SCHEMA = """
CREATE TABLE results (
    fingerprint TEXT NOT NULL,
    test        TEXT NOT NULL,
    options     TEXT NOT NULL,
    result      TEXT NOT NULL,
    created_at  REAL NOT NULL,
    last_used   INTEGER NOT NULL,
    hits        INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (fingerprint, test, options)
);
CREATE INDEX idx_results_lru ON results (last_used);
CREATE TABLE contexts (
    fingerprint TEXT PRIMARY KEY,
    state       TEXT NOT NULL,
    last_used   INTEGER NOT NULL
);
"""


class TestOldStoreFiles:
    def test_old_file_keeps_results_and_loses_contexts(
        self, tmp_path, simple_taskset
    ):
        path = tmp_path / "old.sqlite"
        result = analyze(simple_taskset, "qpa")
        key = fingerprint_key(_fingerprint(simple_taskset))
        with sqlite3.connect(path) as conn:
            conn.executescript(_OLD_SCHEMA)
            conn.execute(
                "INSERT INTO results VALUES (?,?,?,?,?,?,?)",
                (key, "qpa", canonical_options({}),
                 json.dumps(result_to_dict(result)), 0.0, 1, 0),
            )
            conn.execute(
                "INSERT INTO contexts VALUES (?,?,?)",
                (key, json.dumps({"busy_period": 10}), 2),
            )
        conn.close()
        with ResultStore(path) as store:
            restored = store.get(_fingerprint(simple_taskset), "qpa", {})
            assert restored is not None
            assert restored.verdict == result.verdict
            assert restored.iterations == result.iterations
            tables = {
                name
                for (name,) in store._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
        assert tables == {"results"}


class TestCorruptionRecovery:
    def test_corrupt_file_is_quarantined(self, tmp_path, simple_taskset):
        path = tmp_path / "store.sqlite"
        path.write_bytes(b"this is not a sqlite database, not even close!")
        result = analyze(simple_taskset, "devi")
        fp = _fingerprint(simple_taskset)
        with ResultStore(path) as store:
            store.put(fp, "devi", {}, result)
            assert store.get(fp, "devi", {}) is not None
        assert (tmp_path / "store.sqlite.corrupt").exists()

    def test_corrupt_row_reads_as_miss_and_is_dropped(
        self, tmp_path, simple_taskset
    ):
        path = tmp_path / "store.sqlite"
        result = analyze(simple_taskset, "devi")
        fp = _fingerprint(simple_taskset)
        with ResultStore(path) as store:
            store.put(fp, "devi", {}, result)
        key = fingerprint_key(fp)
        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE results SET result='{broken json' WHERE fingerprint=?",
                (key,),
            )
            conn.commit()
        with ResultStore(path) as store:
            assert store.get(fp, "devi", {}) is None
            assert store.stats()["rows"] == 0  # the bad row was deleted
            # and the slot is usable again
            store.put(fp, "devi", {}, result)
            assert store.get(fp, "devi", {}) is not None
