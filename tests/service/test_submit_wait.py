"""``POST /v1/jobs`` answers a job that finishes within its bounded wait.

The POST queues the job as before, then waits on the job's completion
for at most ``_SUBMIT_WAIT`` seconds: a job done by then is answered
``done`` (results ready, no status poll needed), a longer one is
answered ``queued`` or ``running`` and runs on the queue's worker as
before.  Every client here is closed (``with ServiceClient(...)``), so
the file runs clean under ``python -X dev -W error::ResourceWarning``.
"""

import json
import sqlite3
import threading
import time

import pytest

from repro.cli import main
from repro.engine import BatchRunner, analyze, clear_context_cache
from repro.generation import GeneratorConfig, TaskSetGenerator
from repro.model import dump_taskset, result_to_dict, taskset_to_dict
from repro.service import (
    AnalysisServer,
    JobQueue,
    ResultStore,
    ServiceClient,
    api,
    requests_from_document,
)
from repro.service.client import TransientServiceError

#: How much later than the wait an answer that must not wait on the job
#: may come, on a loaded machine.
SLACK = 1.0


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_context_cache()
    yield
    clear_context_cache()


class _GatedRunner:
    """Holds each shard until ``gate`` is set, or for *hold* seconds."""

    jobs = 1

    def __init__(self, hold=10.0):
        self.hold = hold
        self.gate = threading.Event()
        self.started = threading.Event()

    def run(self, requests):
        self.started.set()
        self.gate.wait(self.hold)
        return BatchRunner(jobs=1).run(requests)


def _document(taskset, **extra):
    return {"test": "qpa", "taskset": taskset_to_dict(taskset), **extra}


def _timed_post(client, document):
    begin = time.monotonic()
    snapshot = client.submit_document(document)
    return snapshot, time.monotonic() - begin


def _job_gets(client):
    """``GET`` requests under ``/v1/jobs`` the server has counted."""
    series = client.metrics()["metrics"]["repro_http_requests_total"]["series"]
    return sum(
        entry["value"]
        for entry in series
        if entry["labels"] == {"method": "GET", "endpoint": "/v1/jobs"}
    )


class _Post(threading.Thread):
    """One POST on a thread of its own: ``answer`` or ``error`` after
    :meth:`join`."""

    def __init__(self, url, document):
        super().__init__(daemon=True)
        self.url = url
        self.document = document
        self.answer = None
        self.error = None

    def run(self):
        with ServiceClient(self.url, retries=1) as client:
            try:
                self.answer = client.submit_document(self.document)
            except TransientServiceError as err:
                self.error = err


def _running_job(server):
    (snapshot,) = [s for s in server.queue.list_jobs() if s["state"] == "running"]
    return snapshot["job"]


class TestAnsweredInThePost:
    @pytest.fixture(scope="class")
    def server(self):
        with AnalysisServer(port=0, sampler_interval=None) as live:
            yield live

    def test_one_set_job_is_done_in_its_post(self, server, simple_taskset):
        with ServiceClient(server.url) as client:
            snapshot = client.submit_document(_document(simple_taskset))
            assert snapshot["state"] == "done"
            assert snapshot["done"] == snapshot["total"] == 1
            assert snapshot["finished_at"] is not None
            before = _job_gets(client)
            raw = client.raw_results(snapshot["job"])  # no status poll first
            assert _job_gets(client) == before + 1
        (entry,) = raw["results"]
        assert entry["verdict"] == analyze(simple_taskset, "qpa").verdict.value

    def test_client_run_fetches_without_polling(self, server, simple_taskset):
        with ServiceClient(server.url) as client:
            before = _job_gets(client)
            (result,) = client.run([simple_taskset], "qpa")
            assert _job_gets(client) == before + 1  # the result fetch alone
        assert result.verdict == analyze(simple_taskset, "qpa").verdict

    def test_cli_submit_fetches_without_polling(
        self, server, simple_taskset, tmp_path, capsys
    ):
        path = tmp_path / "set.json"
        dump_taskset(simple_taskset, path)
        with ServiceClient(server.url) as client:
            before = _job_gets(client)
            code = main(["submit", str(path), "--url", server.url, "--test", "qpa"])
            assert _job_gets(client) == before + 1  # the result fetch alone
        assert code == 0
        assert "answered from store: 0, computed: 1" in capsys.readouterr().out

    def test_profiled_job_keeps_its_profile(self, server, simple_taskset):
        with ServiceClient(server.url) as client:
            snapshot = client.submit_document(
                _document(simple_taskset, profile=True)
            )
            assert snapshot["state"] == "done"
            raw = client.raw_results(snapshot["job"])
        spans = {row["span"] for row in raw["profile"]["rows"]}
        assert {"engine.analyze", "kernel.qpa"} <= spans


class TestJobsPastTheWait:
    def test_long_job_is_answered_running_then_finishes(self, simple_taskset):
        runner = _GatedRunner()
        with AnalysisServer(port=0, runner=runner, sampler_interval=None) as server:
            with ServiceClient(server.url) as client:
                try:
                    snapshot, seconds = _timed_post(
                        client, _document(simple_taskset)
                    )
                    assert snapshot["state"] == "running"
                    assert snapshot["finished_at"] is None
                    assert api._SUBMIT_WAIT <= seconds < api._SUBMIT_WAIT + SLACK
                finally:
                    runner.gate.set()
                final = client.wait(snapshot["job"], timeout=30)
                assert final["state"] == "done"
                (entry,) = client.raw_results(snapshot["job"])["results"]
        assert entry["verdict"] == analyze(simple_taskset, "qpa").verdict.value

    def test_delete_during_the_wait_cancels_the_job(
        self, simple_taskset, monkeypatch
    ):
        # A wait far longer than the test: the POST can only answer
        # early because the job it waits on ended.
        monkeypatch.setattr(api, "_SUBMIT_WAIT", 60.0)
        runner = _GatedRunner()
        with AnalysisServer(
            port=0, runner=runner, shard_size=1, sampler_interval=None
        ) as server:
            document = {
                "test": "qpa",
                "tasksets": [taskset_to_dict(simple_taskset)] * 2,
            }
            post = _Post(server.url, document)
            post.start()
            try:
                assert runner.started.wait(10)  # in the first of two shards
                with ServiceClient(server.url) as client:
                    job_id = _running_job(server)
                    assert client.cancel(job_id)["state"] == "running"
                    assert post.is_alive()  # still in its wait
                    runner.gate.set()  # the job stops at its next shard
                    post.join(SLACK)
                    assert not post.is_alive()
                    assert post.answer["state"] == "cancelled"
                    assert post.answer["done"] == 1
                    assert client.status(job_id)["state"] == "cancelled"
            finally:
                runner.gate.set()
                post.join(10)

    def test_close_during_the_wait_returns_promptly(self, simple_taskset):
        runner = _GatedRunner(hold=0.3)  # past the wait, then done
        server = AnalysisServer(port=0, runner=runner, sampler_interval=None)
        server.start()
        post = _Post(server.url, _document(simple_taskset))
        try:
            post.start()
            assert runner.started.wait(10)
            begin = time.monotonic()
            server.close()
            assert time.monotonic() - begin < api._SUBMIT_WAIT + SLACK
            post.join(api._SUBMIT_WAIT + SLACK)
            assert not post.is_alive()
            # Answered before the close, or cut off by it.
            assert (post.answer is None) != (post.error is None)
        finally:
            server.close()
            runner.gate.set()
            post.join(10)

    def test_busy_worker_keeps_queue_order(self, simple_taskset):
        runner = _GatedRunner()
        with AnalysisServer(
            port=0, runner=runner, workers=1, sampler_interval=None
        ) as server:
            with ServiceClient(server.url) as client:
                try:
                    first, _ = _timed_post(client, _document(simple_taskset))
                    assert first["state"] == "running"
                    low, seconds = _timed_post(client, _document(simple_taskset))
                    assert low["state"] == "queued"
                    assert api._SUBMIT_WAIT <= seconds < api._SUBMIT_WAIT + SLACK
                    high, _ = _timed_post(
                        client, _document(simple_taskset, priority=5)
                    )
                    assert high["state"] == "queued"
                finally:
                    runner.gate.set()
                done = [
                    client.wait(s["job"], timeout=30) for s in (first, low, high)
                ]
        assert [s["state"] for s in done] == ["done"] * 3
        first, low, high = done
        assert first["finished_at"] <= high["started_at"] < low["started_at"]


def _service_sets(count, seed=27):
    """The ``benchmarks/test_service_store.py`` population."""
    gen = TaskSetGenerator(
        GeneratorConfig(
            tasks=(5, 25),
            utilization=(0.85, 0.97),
            period_range=(1_000, 100_000),
            gap=(0.1, 0.4),
        ),
        seed=seed,
    )
    return list(gen.sets(count))


def _job_document(sets, index):
    """A 32-set ``qpa`` body with named sets and tasks, as a benchmark
    client sends it."""
    documents = []
    for i, taskset in enumerate(sets):
        document = taskset_to_dict(taskset)
        document["name"] = f"op{index}.{i}"
        for k, task in enumerate(document["tasks"]):
            task["name"] = f"t{k}"
        documents.append(document)
    return {"test": "qpa", "tasksets": documents}


def _rows(path):
    connection = sqlite3.connect(str(path))
    try:
        return connection.execute(
            "SELECT fingerprint, test, options, result, last_used, hits "
            "FROM results ORDER BY last_used"
        ).fetchall()
    finally:
        connection.close()


def test_answers_in_the_post_change_no_result_or_store_row(tmp_path):
    """50 jobs of 32 sets over HTTP give the same result JSON and store
    rows as the same jobs through a bare :class:`JobQueue`."""
    sets = _service_sets(50 * 32)
    bodies = [_job_document(sets[i * 32 : (i + 1) * 32], i) for i in range(50)]

    served, answered_done = [], 0
    with AnalysisServer(
        port=0, store=tmp_path / "http.sqlite", sampler_interval=None
    ) as server:
        with ServiceClient(server.url) as client:
            for body in bodies:
                snapshot = client.submit_document(body)
                if snapshot["state"] == "done":
                    answered_done += 1
                else:
                    client.wait(snapshot["job"], timeout=60)
                entries = client.raw_results(snapshot["job"])["results"]
                served.append(
                    [
                        {k: v for k, v in entry.items() if k not in ("tag", "test")}
                        for entry in entries
                    ]
                )
    assert answered_done > 0

    clear_context_cache()
    direct = []
    with ResultStore(tmp_path / "direct.sqlite") as store:
        queue = JobQueue(store=store)
        try:
            for body in bodies:
                job_id = queue.submit(requests_from_document(body))
                assert queue.wait(job_id, timeout=60)["state"] == "done"
                direct.append([result_to_dict(r) for r in queue.results(job_id)])
        finally:
            queue.shutdown()

    assert json.dumps(served) == json.dumps(direct)
    rows = _rows(tmp_path / "http.sqlite")
    assert len(rows) == 50 * 32
    assert rows == _rows(tmp_path / "direct.sqlite")
