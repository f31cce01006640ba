"""Job queue lifecycle tests: submit → running → done / cancelled."""

import threading

import pytest

from repro.engine import (
    AnalysisRequest,
    BatchRunner,
    analyze,
    clear_context_cache,
)
from repro.generation import generate_taskset
from repro.service import JobQueue, JobState, ResultStore


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_context_cache()
    yield
    clear_context_cache()


@pytest.fixture
def queue():
    q = JobQueue(shard_size=4)
    yield q
    q.shutdown()


def _requests(sets, test="all-approx", **options):
    return [AnalysisRequest(source=ts, test=test, options=options) for ts in sets]


class _GatedRunner:
    """A BatchRunner stand-in that blocks until released (per .run call)."""

    def __init__(self):
        self._inner = BatchRunner(jobs=1)
        self.gate = threading.Event()
        self.started = threading.Event()
        self.jobs = 1

    def run(self, requests):
        self.started.set()
        assert self.gate.wait(10), "test deadlock: gate never released"
        return self._inner.run(requests)


class TestLifecycle:
    def test_single_job_completes(self, queue, simple_taskset):
        job_id = queue.submit(_requests([simple_taskset]))
        snapshot = queue.wait(job_id, timeout=10)
        assert snapshot["state"] == JobState.DONE
        assert snapshot["kind"] == "single"
        assert snapshot["total"] == snapshot["done"] == 1
        (result,) = queue.results(job_id)
        direct = analyze(simple_taskset)
        assert result.verdict == direct.verdict
        assert result.iterations == direct.iterations

    def test_batch_job_matches_direct_execution(self, queue):
        sets = [generate_taskset(n=4, utilization=0.8, seed=i) for i in range(10)]
        job_id = queue.submit(_requests(sets, "qpa"))
        snapshot = queue.wait(job_id, timeout=30)
        assert snapshot["state"] == JobState.DONE
        assert snapshot["kind"] == "batch"
        direct = BatchRunner(jobs=1).run(_requests(sets, "qpa"))
        served = queue.results(job_id)
        assert [r.verdict for r in served] == [r.verdict for r in direct]
        assert [r.iterations for r in served] == [r.iterations for r in direct]

    def test_validation_happens_at_submit(self, queue, simple_taskset):
        with pytest.raises(ValueError, match="unknown test"):
            queue.submit(_requests([simple_taskset], "no-such-test"))
        with pytest.raises(ValueError, match="requires option"):
            queue.submit(_requests([simple_taskset], "superpos"))
        with pytest.raises(ValueError, match="at least one"):
            queue.submit([])
        assert queue.list_jobs() == []  # nothing was enqueued

    def test_unknown_job_raises(self, queue):
        with pytest.raises(KeyError):
            queue.status("nope")
        with pytest.raises(KeyError):
            queue.cancel("nope")

    def test_results_unavailable_before_done(self, simple_taskset):
        runner = _GatedRunner()
        q = JobQueue(runner=runner)
        try:
            job_id = q.submit(_requests([simple_taskset]))
            assert runner.started.wait(10)
            with pytest.raises(ValueError, match="no results"):
                q.results(job_id)
            runner.gate.set()
            assert q.wait(job_id, timeout=10)["state"] == JobState.DONE
        finally:
            runner.gate.set()
            q.shutdown()


class TestCancellation:
    def test_cancel_queued_job(self, simple_taskset):
        runner = _GatedRunner()
        q = JobQueue(runner=runner, workers=1)
        try:
            blocker = q.submit(_requests([simple_taskset]))
            assert runner.started.wait(10)
            queued = q.submit(_requests([simple_taskset]))
            snapshot = q.cancel(queued)
            assert snapshot["state"] == JobState.CANCELLED
            runner.gate.set()
            assert q.wait(blocker, timeout=10)["state"] == JobState.DONE
            # the cancelled job never ran
            assert q.status(queued)["done"] == 0
        finally:
            runner.gate.set()
            q.shutdown()

    def test_cancel_running_job_stops_at_shard_boundary(self):
        sets = [generate_taskset(n=3, utilization=0.6, seed=i) for i in range(6)]
        runner = _GatedRunner()
        q = JobQueue(runner=runner, workers=1, shard_size=2)
        try:
            job_id = q.submit(_requests(sets))
            assert runner.started.wait(10)  # first shard is in flight
            q.cancel(job_id)
            runner.gate.set()
            snapshot = q.wait(job_id, timeout=10)
            assert snapshot["state"] == JobState.CANCELLED
            assert snapshot["done"] < snapshot["total"]
        finally:
            runner.gate.set()
            q.shutdown()


class TestStoreIntegration:
    def test_second_job_served_from_store(self, tmp_path, simple_taskset):
        with ResultStore(tmp_path / "s.sqlite") as store:
            q = JobQueue(store=store)
            try:
                first = q.submit(_requests([simple_taskset], "qpa"))
                q.wait(first, timeout=10)
                assert q.status(first)["computed"] == 1
                second = q.submit(_requests([simple_taskset], "qpa"))
                q.wait(second, timeout=10)
                snapshot = q.status(second)
                assert snapshot["from_store"] == 1
                assert snapshot["computed"] == 0
                assert (
                    q.results(second)[0].verdict == q.results(first)[0].verdict
                )
            finally:
                q.shutdown()

    def test_store_hit_skips_even_across_option_spelling(
        self, tmp_path, simple_taskset
    ):
        """Explicit default options hit the row written with implicit ones."""
        with ResultStore(tmp_path / "s.sqlite") as store:
            q = JobQueue(store=store)
            try:
                first = q.submit(_requests([simple_taskset], "qpa"))
                q.wait(first, timeout=10)
                second = q.submit(
                    _requests([simple_taskset], "qpa", bound_method="best")
                )
                q.wait(second, timeout=10)
                assert q.status(second)["from_store"] == 1
            finally:
                q.shutdown()

    def test_one_commit_per_shard(self, tmp_path):
        """A 32-set job (one shard) commits once on a fresh store: one
        batched write.  Its replay after a restart commits once too: one
        batched LRU bump for the 32 hits."""
        sets = [generate_taskset(n=6, utilization=0.8, seed=i) for i in range(32)]
        path = tmp_path / "s.sqlite"

        def run_job():
            with ResultStore(path) as store:
                statements = []
                store._conn.set_trace_callback(statements.append)
                q = JobQueue(store=store, shard_size=32)
                try:
                    job = q.submit(_requests(sets, "qpa"))
                    snapshot = q.wait(job, timeout=60)
                finally:
                    q.shutdown()
            assert snapshot["state"] == JobState.DONE
            return snapshot, statements.count("COMMIT")

        snapshot, commits = run_job()
        assert snapshot["computed"] == 32
        assert commits == 1
        clear_context_cache()  # restart: only the SQLite file survives
        snapshot, commits = run_job()
        assert snapshot["from_store"] == 32
        assert commits == 1

    def test_one_store_key_per_request(self, tmp_path, monkeypatch):
        """A shard's store read and write share its row keys: one
        fingerprint_key per request, not one per store call."""
        import repro.service.store as store_module

        calls = []
        real = store_module.fingerprint_key

        def counting(fingerprint):
            calls.append(fingerprint)
            return real(fingerprint)

        monkeypatch.setattr(store_module, "fingerprint_key", counting)
        sets = [generate_taskset(n=6, utilization=0.8, seed=i) for i in range(8)]
        with ResultStore(tmp_path / "s.sqlite") as store:
            q = JobQueue(store=store, shard_size=4)
            try:
                job = q.submit(_requests(sets, "qpa"))
                snapshot = q.wait(job, timeout=60)
            finally:
                q.shutdown()
        assert snapshot["computed"] == 8
        assert len(calls) == 8


class TestProgress:
    def test_progress_advances_by_shards(self):
        sets = [generate_taskset(n=3, utilization=0.5, seed=i) for i in range(9)]
        q = JobQueue(shard_size=3)
        try:
            job_id = q.submit(_requests(sets))
            snapshot = q.wait(job_id, timeout=30)
            assert snapshot["state"] == JobState.DONE
            assert snapshot["done"] == 9
        finally:
            q.shutdown()

    def test_queue_stats_counts_states(self, queue, simple_taskset):
        job_id = queue.submit(_requests([simple_taskset]))
        queue.wait(job_id, timeout=10)
        stats = queue.stats()
        assert stats["done"] == 1
        assert stats["total"] == 1
        assert stats["workers"] == 1

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            JobQueue(workers=0)
        with pytest.raises(ValueError):
            JobQueue(shard_size=0)


class TestPriorities:
    def test_higher_priority_jumps_the_backlog(self, simple_taskset):
        """With one busy worker, a later high-priority job runs before an
        earlier default-priority one."""
        runner = _GatedRunner()
        q = JobQueue(runner=runner, workers=1)
        try:
            blocker = q.submit(_requests([simple_taskset]))
            assert runner.started.wait(10)  # the worker is now occupied
            low = q.submit(_requests([simple_taskset], "qpa"))
            high = q.submit(_requests([simple_taskset], "devi"), priority=5)
            runner.gate.set()
            assert q.wait(blocker, timeout=10)["state"] == JobState.DONE
            assert q.wait(high, timeout=10)["state"] == JobState.DONE
            assert q.wait(low, timeout=10)["state"] == JobState.DONE
            assert q.status(high)["started_at"] < q.status(low)["started_at"]
        finally:
            runner.gate.set()
            q.shutdown()

    def test_fifo_within_a_priority_level(self, simple_taskset):
        runner = _GatedRunner()
        q = JobQueue(runner=runner, workers=1)
        try:
            blocker = q.submit(_requests([simple_taskset]))
            assert runner.started.wait(10)
            first = q.submit(_requests([simple_taskset], "qpa"), priority=2)
            second = q.submit(_requests([simple_taskset], "devi"), priority=2)
            runner.gate.set()
            for job_id in (blocker, first, second):
                assert q.wait(job_id, timeout=10)["state"] == JobState.DONE
            assert (
                q.status(first)["started_at"] <= q.status(second)["started_at"]
            )
        finally:
            runner.gate.set()
            q.shutdown()

    def test_priority_in_snapshot_and_validation(self, queue, simple_taskset):
        job_id = queue.submit(_requests([simple_taskset]), priority=-3)
        assert queue.status(job_id)["priority"] == -3
        queue.wait(job_id, timeout=10)
        with pytest.raises(ValueError, match="priority"):
            queue.submit(_requests([simple_taskset]), priority="urgent")
        with pytest.raises(ValueError, match="priority"):
            queue.submit(_requests([simple_taskset]), priority=True)


class TestProfile:
    def test_processor_demand_job_profiles_each_walk(self, queue):
        """A multi-set processor-demand job reports the same rows per
        set as a one-set job: one analysis and one walk each."""
        sets = [generate_taskset(n=4, utilization=0.8, seed=i) for i in range(3)]
        job_id = queue.submit(_requests(sets, "processor-demand"), profile=True)
        assert queue.wait(job_id, timeout=30)["state"] == JobState.DONE
        report = queue.get(job_id).profile_report
        counts = {row["span"]: row["count"] for row in report["rows"]}
        assert counts == {
            "engine.batch": 1,
            "engine.analyze": 3,
            "engine.preflight": 3,
            "kernel.pda": 3,
        }
