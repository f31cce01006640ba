"""Observability endpoints: /v1/metrics, /v1/events, queue timestamps."""

import json
import urllib.request

import pytest

from repro.engine import clear_context_cache
from repro.generation import generate_taskset
from repro.service import AnalysisServer, ServiceClient, ServiceError


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_context_cache()
    yield
    clear_context_cache()


@pytest.fixture(scope="module")
def server():
    with AnalysisServer(port=0, sampler_interval=0.2) as live:
        yield live


@pytest.fixture
def client(server):
    with ServiceClient(server.url) as client:
        yield client


@pytest.fixture(scope="module")
def tasks():
    return generate_taskset(n=6, utilization=0.7, seed=11)


def _finished_job(client, tasks):
    job = client.submit([tasks], test="qpa")
    return client.wait(job, timeout=30)


class TestMetricsEndpoint:
    def test_text_exposition_is_well_formed(self, server, client, tasks):
        _finished_job(client, tasks)
        request = urllib.request.Request(server.url + "/v1/metrics")
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            text = response.read().decode("utf-8")
        families = set()
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                name, kind = line.split()[2:4]
                assert kind in ("counter", "gauge", "histogram")
                families.add(name)
        # The layers the acceptance criteria call out are all present.
        for expected in (
            "repro_engine_analyses_total",
            "repro_kernel_primitive_calls_total",
            "repro_kernel_qpa_iterations",
            "repro_store_hits_total",
            "repro_queue_jobs_total",
            "repro_queue_latency_seconds",
            "repro_admission_decisions_total",
            "repro_http_requests_total",
            "repro_process_max_rss_bytes",
        ):
            assert expected in families, expected

    def test_analyses_counter_reflects_submissions(self, client, tasks):
        _finished_job(client, tasks)
        text = client.metrics_text()
        line = next(
            l
            for l in text.splitlines()
            if l.startswith('repro_engine_analyses_total{test="qpa"}')
        )
        assert int(line.rsplit(" ", 1)[1]) >= 1

    def test_json_snapshot_shape(self, client, tasks):
        _finished_job(client, tasks)
        document = client.metrics()
        metrics = document["metrics"]
        queue = metrics["repro_queue_latency_seconds"]
        assert queue["type"] == "histogram"
        series = queue["series"][0]
        assert series["count"] >= 1
        assert series["buckets"][-1]["le"] == "+Inf"

    def test_unknown_format_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/v1/metrics?format=xml")
        assert err.value.status == 400

    def test_http_requests_counter_tracks_endpoints(self, client):
        client.metrics_text()
        document = client.metrics()
        series = document["metrics"]["repro_http_requests_total"]["series"]
        endpoints = {tuple(sorted(s["labels"].items())): s["value"] for s in series}
        key = (("endpoint", "/v1/metrics"), ("method", "GET"))
        assert endpoints.get(key, 0) >= 2


class TestEventsEndpoint:
    def test_job_lifecycle_events_stream_in_order(self, client, tasks):
        snapshot = _finished_job(client, tasks)
        page = client.events(since=0, limit=500)
        mine = [
            e
            for e in page["events"]
            if e["payload"].get("job") == snapshot["job"]
        ]
        names = [e["name"] for e in mine]
        assert names == ["job.submitted", "job.started", "job.done"]
        sequences = [e["seq"] for e in mine]
        assert sequences == sorted(sequences)

    def test_cursor_pagination(self, client, tasks):
        _finished_job(client, tasks)
        first = client.events(since=0, limit=1)
        assert len(first["events"]) == 1
        rest = client.events(since=first["next"])
        assert all(e["seq"] > first["next"] for e in rest["events"])

    def test_bad_since_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.events(since=-1)
        assert err.value.status == 400

    def test_resource_sampler_feeds_events_and_gauges(self, client):
        page = client.events(since=0)
        samples = [e for e in page["events"] if e["name"] == "resource.sample"]
        assert samples, "sampler thread should have emitted at least once"
        assert samples[-1]["payload"]["threads"] >= 1
        metrics = client.metrics()["metrics"]
        assert metrics["repro_process_max_rss_bytes"]["series"][0]["value"] > 0


class TestQueueTimestamps:
    def test_job_document_carries_queue_latency(self, client, tasks):
        snapshot = _finished_job(client, tasks)
        assert snapshot["queued_at"] == snapshot["created_at"]
        assert snapshot["started_at"] >= snapshot["queued_at"]
        assert snapshot["finished_at"] >= snapshot["started_at"]
        latency = snapshot["queue_latency_seconds"]
        assert latency is not None
        assert latency >= 0
        assert latency == pytest.approx(
            snapshot["started_at"] - snapshot["created_at"], abs=1e-9
        )

    def test_queued_job_has_no_latency_yet(self):
        from repro.service.jobs import Job

        job = Job(id="x", kind="single", requests=[])
        assert job.queue_latency_seconds is None
        snapshot = job.snapshot()
        assert snapshot["state"] == "queued"
        assert snapshot["queue_latency_seconds"] is None
        assert snapshot["queued_at"] == snapshot["created_at"]


class TestServerJournal:
    def test_journal_written_and_detached_on_close(self, tmp_path, tasks):
        path = tmp_path / "events.jsonl"
        with AnalysisServer(
            port=0, sampler_interval=None, journal=str(path)
        ) as live, ServiceClient(live.url) as client:
            job = client.submit([tasks], test="qpa")
            client.wait(job, timeout=30)
        lines = path.read_text(encoding="utf-8").splitlines()
        names = [json.loads(line)["name"] for line in lines]
        assert "job.submitted" in names
        assert "job.done" in names
