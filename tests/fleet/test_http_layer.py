"""Fleet workers on the analysis server's HTTP layer, with the scraper
as their one telemetry channel.

In-process tests run ``LocalWorker``s, which share this process's obs
registry and logs, so a campaign's engine counters must move exactly
once per analysis.  The cross-process test starts a real ``fleet
worker`` subprocess, whose spans reach the coordinator only through a
scrape and must still join the submit's trace and a profiled job's
report.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from repro import obs
from repro.engine.batch import AnalysisRequest
from repro.fleet.telemetry import _PAGE_LIMIT
from repro.model.serialization import result_to_dict, taskset_to_dict
from repro.service import AnalysisServer, ServiceClient

from .conftest import campaign_requests, make_tasksets, sequential_docs
from .test_telemetry import make_coordinator, series_map

SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def campaign_counters():
    """(engine analyses, completed worker shards) in this process."""
    state = obs.registry().export_state()
    analyses = series_map(state, "repro_engine_analyses_total")
    shards = series_map(state, "repro_fleet_worker_shards_total")
    return sum(analyses.values()), shards.get(("completed",), 0)


def raw_post(url: str, path: str, headers: dict, body: bytes = b""):
    """(status, body) of a POST with hand-set headers (no client fixups)."""
    parts = urlsplit(url)
    connection = http.client.HTTPConnection(
        parts.hostname, parts.port, timeout=10
    )
    try:
        connection.putrequest("POST", path)
        for name, value in headers.items():
            connection.putheader(name, value)
        connection.endheaders(body or None)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def json_headers(length: str) -> dict:
    return {"Content-Type": "application/json", "Content-Length": length}


def shard_document(traceparent=None) -> dict:
    entries = [
        {"index": i, "test": "qpa", "options": {}, "taskset": taskset_to_dict(ts)}
        for i, ts in enumerate(make_tasksets(3, seed=7))
    ]
    return {"shard": "s-probe", "traceparent": traceparent, "entries": entries}


# ----------------------------------------------------------------------
# One telemetry channel
# ----------------------------------------------------------------------


class TestOneChannel:
    def test_campaign_counts_each_analysis_once(self, local_workers):
        workers = [local_workers("once-a"), local_workers("once-b")]
        requests = campaign_requests(make_tasksets(16), test="dynamic")
        expected = sequential_docs(requests)
        coord = make_coordinator()
        try:
            for worker in workers:
                coord.register(worker.id, worker.url)
            analyses, completed = campaign_counters()
            docs = [result_to_dict(r) for r in coord.run_campaign(requests)]
            assert docs == expected
            analyses_after, completed_after = campaign_counters()
            assert analyses_after - analyses == 16
            shards_done = sum(
                worker.worker.health()["shards_done"] for worker in workers
            )
            assert shards_done >= 1
            assert completed_after - completed == shards_done
        finally:
            coord.close()

    def test_shard_response_carries_results_only(self, local_workers):
        worker = local_workers("lean")
        payload = ServiceClient(worker.url).fleet_shard(shard_document())
        assert set(payload) == {"shard", "worker", "results"}
        assert [item["index"] for item in payload["results"]] == [0, 1, 2]

    def test_worker_serves_trace_listing_and_lookup(self, local_workers):
        worker = local_workers("tracer")
        client = ServiceClient(worker.url)
        trace_id = obs.new_trace_id()
        traceparent = obs.format_traceparent(trace_id, obs.new_span_id())
        client.fleet_shard(shard_document(traceparent))
        assert trace_id in [entry["trace"] for entry in client.traces()]
        names = {record["name"] for record in client.trace(trace_id)}
        assert {"fleet.shard", "engine.analyze", "kernel.qpa"} <= names

    def test_profiled_fleet_job_counts_each_span_once(self, local_workers):
        # In-process workers record into this process's log, and the
        # profile's scrape brings copies of the same spans back.
        workers = [local_workers("prof-a"), local_workers("prof-b")]
        coord = make_coordinator()
        with AnalysisServer(
            port=0, sampler_interval=None, coordinator=coord
        ) as server:
            for worker in workers:
                coord.register(worker.id, worker.url)
            client = ServiceClient(server.url)
            job = client.submit(make_tasksets(16), test="dynamic", profile=True)
            assert client.wait(job, timeout=60)["state"] == "done"
            report = client.raw_results(job)["profile"]
        rows = {row["span"]: row for row in report["rows"]}
        assert rows["engine.analyze"]["count"] == 16
        assert rows["fleet.shard"]["count"] == sum(
            worker.worker.health()["shards_done"] for worker in workers
        )

    def test_one_scrape_pulls_a_burst_past_the_page_limit(self, local_workers):
        worker = local_workers("burst")
        coord = make_coordinator()
        with AnalysisServer(
            port=0, sampler_interval=None, coordinator=coord
        ) as server:
            coord.register(worker.id, worker.url)
            assert coord.scraper.scrape_all() == {"burst": True}
            burst = 2 * _PAGE_LIMIT + 500
            trace_id = obs.new_trace_id()
            traceparent = obs.format_traceparent(trace_id, obs.new_span_id())
            with obs.continue_trace(traceparent):
                for step in range(burst):
                    with obs.span("burst.step", step=step):
                        pass
            assert len(obs.span_log().for_trace(trace_id)) == burst

            assert coord.scraper.scrape_all() == {"burst": True}
            view = coord.telemetry.snapshot()["workers"]["burst"]
            assert view["spans_cursor"] == obs.span_log().last_seq
            assert len(coord.telemetry.spans.for_trace(trace_id)) == burst
            # With this process's copies gone, the lookup serves the
            # scraped records alone, and every one of them comes back.
            obs.span_log().clear()
            spans = ServiceClient(server.url).trace(trace_id)
        assert len({record["span_id"] for record in spans}) == burst
        assert {record["attrs"]["worker"] for record in spans} == {"burst"}

    def test_concurrent_scrapes_ingest_each_span_once(
        self, local_workers, monkeypatch
    ):
        # A profiled job scrapes while the sweep thread may.  Hold the
        # first page either pull ingests until the other pull is done:
        # unserialized, that page comes in behind the cursor the other
        # pull left, reads as a worker restart, and is ingested again.
        worker = local_workers("race")
        coord = make_coordinator()
        try:
            coord.register(worker.id, worker.url)
            assert coord.scraper.scrape_all() == {"race": True}
            burst = 2 * _PAGE_LIMIT
            trace_id = obs.new_trace_id()
            traceparent = obs.format_traceparent(trace_id, obs.new_span_id())
            with obs.continue_trace(traceparent):
                for step in range(burst):
                    with obs.span("race.step", step=step):
                        pass

            ingest = coord.telemetry.ingest_spans
            first_page = threading.Lock()  # taken once, never released
            one_done = threading.Event()

            def held_ingest(worker_id, records, next_cursor):
                if first_page.acquire(blocking=False):
                    # Times out when pulls are serialized: the other
                    # pull is waiting for this one.
                    one_done.wait(timeout=1.0)
                return ingest(worker_id, records, next_cursor)

            def scrape():
                coord.scraper.scrape_all()
                one_done.set()

            monkeypatch.setattr(coord.telemetry, "ingest_spans", held_ingest)
            threads = [threading.Thread(target=scrape) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert len(coord.telemetry.spans.for_trace(trace_id)) == burst
        finally:
            coord.close()


# ----------------------------------------------------------------------
# Hostile input: always a 4xx, on the server and on a worker alike
# ----------------------------------------------------------------------


@pytest.fixture(params=["server", "worker"])
def post_target(request, local_workers):
    """(base URL, POST path) of an analysis server or a fleet worker."""
    if request.param == "worker":
        yield local_workers("hostile").url, "/v1/fleet/shard"
        return
    with AnalysisServer(port=0, sampler_interval=None) as server:
        yield server.url, "/v1/jobs"


class TestHostileInput:
    def test_non_numeric_content_length_is_400(self, post_target):
        url, path = post_target
        status, body = raw_post(url, path, json_headers("abc"))
        assert status == 400
        assert b"Content-Length" in body

    def test_oversize_content_length_is_413(self, post_target):
        url, path = post_target
        status, _ = raw_post(url, path, json_headers(str(1 << 40)))
        assert status == 413

    @pytest.mark.parametrize(
        "entry",
        [
            {"options": {"bound_method": {"a": 1}}},  # unhashable option
            {"tag": {"$frac": [1, 0]}},  # tagged value of the wrong type
            {"tag": {"$frac": "1/0"}},
        ],
    )
    def test_malformed_shard_entry_is_400(self, local_workers, entry):
        worker = local_workers("malformed")
        document = shard_document()
        document["entries"][0].update(entry)
        body = json.dumps(document).encode("utf-8")
        status, _ = raw_post(
            worker.url, "/v1/fleet/shard", json_headers(str(len(body))), body
        )
        assert status == 400

    def test_non_object_shard_body_is_400(self, local_workers):
        worker = local_workers("listy")
        body = b"[1, 2, 3]"
        status, _ = raw_post(
            worker.url, "/v1/fleet/shard", json_headers(str(len(body))), body
        )
        assert status == 400

    def test_non_string_traceparent_is_dropped(self, local_workers):
        worker = local_workers("untraced")
        payload = ServiceClient(worker.url).fleet_shard(shard_document(5))
        assert len(payload["results"]) == 3


# ----------------------------------------------------------------------
# Sources that cannot travel run on the local backstop
# ----------------------------------------------------------------------


class TestLocalBackstop:
    def test_task_list_source_settles_and_keeps_the_lane(self, local_workers):
        worker = local_workers("lane")
        coord = make_coordinator(campaign_timeout=20.0)
        try:
            coord.register(worker.id, worker.url)
            tasks = list(make_tasksets(1, seed=3)[0])
            requests = [
                AnalysisRequest(source=tasks, test="dynamic", options={}, tag=0)
            ]
            docs = [result_to_dict(r) for r in coord.run_campaign(requests)]
            assert docs == sequential_docs(requests)
            assert worker.worker.health()["shards_done"] == 0
            assert coord._threads[worker.id].is_alive()

            # The lane survived: a TaskSet campaign still settles there.
            requests = campaign_requests(make_tasksets(4), test="dynamic")
            docs = [result_to_dict(r) for r in coord.run_campaign(requests)]
            assert docs == sequential_docs(requests)
            assert worker.worker.health()["shards_done"] >= 1
        finally:
            coord.close()


# ----------------------------------------------------------------------
# Cross-process: one scrape joins the worker's spans into the trace
# ----------------------------------------------------------------------


def test_trace_reaches_subprocess_worker_kernel_spans():
    # A generous miss budget: a slow box must not declare the worker
    # dead mid-job, which would run its shards locally instead.
    coord = make_coordinator(heartbeat_interval=0.5, miss_budget=20)
    with AnalysisServer(port=0, sampler_interval=None, coordinator=coord) as server:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "fleet", "worker",
                "--coordinator", server.url,
                "--id", "xp-w1",
                "--heartbeat-interval", "0.5",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30.0
            while "xp-w1" not in coord.workers.alive_ids():
                assert time.monotonic() < deadline, "worker never registered"
                assert process.poll() is None, "worker process exited"
                time.sleep(0.05)
            client = ServiceClient(server.url)
            document = {
                "test": "qpa",
                "tasksets": [
                    taskset_to_dict(ts) for ts in make_tasksets(4, seed=11)
                ],
            }
            snapshot = client.submit_document(document)
            assert client.wait(snapshot["job"], timeout=60)["state"] == "done"
            assert coord.scraper.scrape_all() == {"xp-w1": True}
            spans = client.trace(snapshot["trace_id"])

            # A profiled job scrapes its workers itself before reporting.
            profiled = client.submit_document({**document, "profile": True})
            assert client.wait(profiled["job"], timeout=60)["state"] == "done"
            report = client.raw_results(profiled["job"])["profile"]
        finally:
            process.terminate()
            process.wait(timeout=10)

    span_ids = [record["span_id"] for record in spans]
    assert len(span_ids) == len(set(span_ids))
    names = {record["name"] for record in spans}
    assert {"http.request", "queue.job", "fleet.campaign"} <= names
    on_worker = {
        record["name"]
        for record in spans
        if (record.get("attrs") or {}).get("worker") == "xp-w1"
    }
    assert {"fleet.shard", "engine.analyze", "kernel.qpa"} <= on_worker
    rows = {row["span"]: row for row in report["rows"]}
    assert {"fleet.campaign", "fleet.shard", "kernel.qpa"} <= set(rows)
    assert rows["engine.analyze"]["count"] == 4
