"""The fleet telemetry plane: worker endpoints, scraper, merged store.

Scraping is driven deterministically (``scrape_all()`` on coordinators
that are never ``start()``-ed, so no background sweep interferes) and
death detection follows the chaos-test idiom: rewind ``last_heartbeat``
and call ``check_deaths``.

In-process caveat: every ``LocalWorker`` shares the process-global obs
registry and logs, so two scraped workers return identical state copies.
The sum/bit-identity assertions still hold exactly — they are what the
acceptance criteria demand of ``merge_state`` — and the synthetic-state
unit tests cover genuinely distinct per-worker documents.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.fleet import (
    Coordinator,
    FaultPlan,
    FleetScraper,
    FleetTelemetry,
    FleetWorker,
)
from repro.fleet.telemetry import WORKER_LABEL, _relabel_state
from repro.model.serialization import result_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.service import AnalysisServer, ServiceClient, ServiceError

from .conftest import campaign_requests, make_tasksets, sequential_docs


@pytest.fixture(autouse=True)
def drained_global_logs():
    """Start each test past the global rings' backlog.

    The process-global event/span rings may hold thousands of records
    from earlier test modules — more than one scrape page — which would
    make cursor-equality assertions depend on suite order.  Clearing
    drops the buffered records; the cursors keep advancing.
    """
    obs.event_log().clear()
    obs.span_log().clear()
    yield


def make_coordinator(**overrides) -> Coordinator:
    options = dict(
        heartbeat_interval=0.2,
        miss_budget=3,
        shard_size=4,
        shard_timeout=30.0,
        retries=2,
        backoff_base=0.01,
        backoff_cap=0.05,
        scrape_interval=30.0,  # the tests sweep by hand
        rng=random.Random(0xC0FFEE),
    )
    options.update(overrides)
    return Coordinator(**options)


def http_get(url: str):
    """(status, headers, body) without ServiceClient's retry layer."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


def series_map(export: dict, family: str) -> dict:
    """``{label-key-tuple: raw value-or-cells}`` for one family."""
    document = export.get(family) or {}
    return {tuple(key): value for key, value in document.get("series") or ()}


# ----------------------------------------------------------------------
# Worker HTTP surface
# ----------------------------------------------------------------------


class TestWorkerEndpoints:
    def test_metrics_text_exposition(self, local_workers):
        worker = local_workers("w-text")
        status, headers, body = http_get(worker.url + "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = body.decode("utf-8")
        assert "# TYPE repro_fleet_worker_shards_total counter" in text

    def test_metrics_json_snapshot(self, local_workers):
        worker = local_workers("w-json")
        snapshot = ServiceClient(worker.url).metrics()["metrics"]
        assert "repro_fleet_worker_shards_total" in snapshot

    def test_metrics_state_document(self, local_workers):
        worker = local_workers("w-state")
        state = ServiceClient(worker.url).metrics_state()
        document = state["repro_fleet_worker_shards_total"]
        assert document["kind"] == "counter"
        assert document["labelnames"] == ["outcome"]

    def test_events_and_traces_cursor_pages(self, local_workers):
        worker = local_workers("w-pages")
        client = ServiceClient(worker.url)
        event = obs.emit("fleet-test", "telemetry.ping", n=1)
        assert event is not None
        page = client.events(since=event.seq - 1, limit=10)
        assert page["since"] == event.seq - 1
        assert page["events"][0]["name"] == "telemetry.ping"
        assert page["next"] >= event.seq
        # Draining past the tail returns an empty page, cursor parked.
        drained = client.events(since=page["next"])
        assert drained["events"] == []
        assert drained["next"] == obs.event_log().last_seq
        spans = client.spans(since=0, limit=10)
        assert set(spans) == {"since", "next", "spans"}

    @pytest.mark.parametrize(
        "path",
        [
            "/v1/metrics?format=bogus",
            "/v1/events?since=-1",
            "/v1/events?limit=0",
            "/v1/traces?since=abc",
        ],
    )
    def test_bad_telemetry_queries_are_400(self, local_workers, path):
        worker = local_workers("w-bad")
        status, _, body = http_get(worker.url + path)
        assert status == 400
        assert "error" in json.loads(body)

    def test_scrape_503_fault_rejects_telemetry_gets(self, local_workers):
        worker = local_workers(
            "w-flaky", faults=FaultPlan(scrape_503_every=1)
        )
        status, _, body = http_get(worker.url + "/v1/metrics")
        assert status == 503
        assert "injected scrape 503" in json.loads(body)["error"]
        # Shard-path 503s are a separate knob: health stays clean.
        status, _, _ = http_get(worker.url + "/v1/health")
        assert status == 200

    def test_sampler_interval_validation(self):
        with pytest.raises(ValueError):
            FleetWorker(
                "http://127.0.0.1:9", worker_id="bad", sampler_interval=0.0
            )

    def test_sampler_wired_when_requested(self):
        worker = FleetWorker(
            "http://127.0.0.1:9", worker_id="sampled", sampler_interval=0.5
        )
        try:
            assert worker._sampler is not None
            assert not worker._sampler.running
        finally:
            worker.close()


# ----------------------------------------------------------------------
# The merged store (pure unit tests, synthetic per-worker states)
# ----------------------------------------------------------------------


def demo_registry(route_hits: int, latencies: list) -> MetricsRegistry:
    registry = MetricsRegistry()
    counter = registry.counter(
        "demo_requests_total", "d", labelnames=("route",)
    )
    counter.labels("a").inc(route_hits)
    histogram = registry.histogram("demo_latency_seconds", "d")
    for value in latencies:
        histogram.observe(value)
    return registry


class TestFleetTelemetryStore:
    def test_totals_bit_identical_to_worker_sum(self):
        r1 = demo_registry(3, [0.01, 0.2, 7.0])
        r2 = demo_registry(5, [0.02, 0.2])
        telemetry = FleetTelemetry()
        telemetry.record_metrics("w1", r1.export_state())
        telemetry.record_metrics("w2", r2.export_state())
        merged = telemetry.build_registry().export_state()

        counters = series_map(merged, "demo_requests_total")
        assert counters[("a", "w1")] == 3.0
        assert counters[("a", "w2")] == 5.0
        own = [
            series_map(r.export_state(), "demo_requests_total")[("a",)]
            for r in (r1, r2)
        ]
        assert counters[("a", "w1")] + counters[("a", "w2")] == sum(own)

        cells = series_map(merged, "demo_latency_seconds")
        for worker_id, registry in (("w1", r1), ("w2", r2)):
            expected = series_map(
                registry.export_state(), "demo_latency_seconds"
            )[()]
            assert cells[(worker_id,)] == expected  # cell-exact, sum-exact

    def test_relabel_appends_worker_label(self):
        state = demo_registry(1, []).export_state()
        relabeled = _relabel_state(state, "w9")
        document = relabeled["demo_requests_total"]
        assert document["labelnames"] == ["route", WORKER_LABEL]
        assert document["series"][0][0] == ["a", "w9"]
        # Original document untouched (scraped states are shared refs).
        assert state["demo_requests_total"]["labelnames"] == ["route"]

    def test_record_metrics_replaces_not_accumulates(self):
        state = demo_registry(3, [0.5]).export_state()
        telemetry = FleetTelemetry()
        for _ in range(4):
            telemetry.record_metrics("w1", state)
        merged = telemetry.build_registry().export_state()
        assert series_map(merged, "demo_requests_total")[("a", "w1")] == 3.0
        cells = series_map(merged, "demo_latency_seconds")[("w1",)]
        assert cells["count"] == 1
        view = telemetry.snapshot()["workers"]["w1"]
        assert view["scrapes"] == 4

    def test_ingest_events_drops_replayed_page(self):
        telemetry = FleetTelemetry()
        page = [
            {"seq": 1, "ts": 1.0, "category": "c", "name": "one", "payload": {}},
            {"seq": 2, "ts": 2.0, "category": "c", "name": "two", "payload": {}},
        ]
        assert telemetry.ingest_events("w1", page, next_cursor=2) == 2
        # The exact same page again (a restarted scraper re-pulling
        # with a stale in-thread cursor) must not double-ingest.
        assert telemetry.ingest_events("w1", page, next_cursor=2) == 0
        assert len(telemetry.events) == 2
        events, _ = telemetry.events.since(0)
        assert all(e.payload["worker"] == "w1" for e in events)

    def test_ingest_adopts_smaller_cursor_on_worker_restart(self):
        telemetry = FleetTelemetry()
        telemetry.ingest_events(
            "w1",
            [{"seq": 7, "ts": 1.0, "category": "c", "name": "old", "payload": {}}],
            next_cursor=7,
        )
        # Worker process restarted: its sequence space begins again.
        restarted = [
            {"seq": 1, "ts": 2.0, "category": "c", "name": "fresh", "payload": {}}
        ]
        assert telemetry.ingest_events("w1", restarted, next_cursor=1) == 1
        assert telemetry.cursors("w1") == (1, 0)

    def test_stale_then_expire(self):
        telemetry = FleetTelemetry(stale_ttl=0.05)
        telemetry.record_metrics("w1", demo_registry(1, []).export_state())
        telemetry.mark_stale("w1")
        text = telemetry.exposition()
        assert 'repro_fleet_series_stale{worker="w1"} 1' in text
        assert 'demo_requests_total{route="a",worker="w1"} 1' in text
        assert telemetry.expire() == []  # within the TTL: retained
        time.sleep(0.06)
        assert telemetry.expire() == ["w1"]
        assert telemetry.worker_ids() == []
        assert 'worker="w1"' not in telemetry.exposition()

    def test_successful_scrape_clears_staleness(self):
        telemetry = FleetTelemetry()
        telemetry.record_metrics("w1", {})
        telemetry.mark_stale("w1")
        telemetry.record_metrics("w1", {})
        assert 'repro_fleet_series_stale{worker="w1"} 0' in telemetry.exposition()

    def test_rollups_and_inflight(self):
        telemetry = FleetTelemetry()
        telemetry.record_metrics("w1", {})
        telemetry.record_failure("w2", "boom")
        text = telemetry.exposition(inflight={"w1": 3})
        assert 'repro_fleet_scrapes_total{worker="w1"} 1' in text
        assert 'repro_fleet_scrape_failures_total{worker="w2"} 1' in text
        assert 'repro_fleet_shards_inflight{worker="w1"} 3' in text
        assert "repro_fleet_scraped_workers 2" in text
        assert 'repro_fleet_scrape_age_seconds{worker="w1"}' in text

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.gauge("repro_process_rss_bytes", "rss").set(42 * 1024 * 1024)
        telemetry = FleetTelemetry()
        telemetry.record_metrics("w1", registry.export_state())
        telemetry.record_failure("w1", "blip")
        snapshot = telemetry.snapshot()
        assert snapshot["stale_ttl_seconds"] == 300.0
        view = snapshot["workers"]["w1"]
        assert view["scrapes"] == 1
        assert view["failures"] == 1
        assert view["last_error"] == "blip"
        assert view["rss_bytes"] == 42 * 1024 * 1024
        assert view["last_scrape_age_seconds"] >= 0
        assert not view["stale"]

    def test_stale_ttl_validation(self):
        with pytest.raises(ValueError):
            FleetTelemetry(stale_ttl=0.0)
        with pytest.raises(ValueError):
            FleetScraper(None, FleetTelemetry(), interval=0.0)


# ----------------------------------------------------------------------
# The scraper against live workers
# ----------------------------------------------------------------------


class TestScraper:
    def test_scrapes_live_worker_and_matches_registry(self, local_workers):
        worker = local_workers("alpha")
        coord = make_coordinator()
        try:
            coord.register(worker.id, worker.url)
            obs.emit("fleet-test", "scrape.me")
            assert coord.scraper.scrape_all() == {"alpha": True}

            # Every scraped family re-appears under worker="alpha" with
            # bit-identical series — the merge is cell-exact.
            stored = coord.telemetry._views["alpha"].state
            merged = coord.telemetry.build_registry().export_state()
            for family, document in stored.items():
                expected = {
                    tuple(key) + ("alpha",): value
                    for key, value in document["series"]
                }
                assert series_map(merged, family) == expected

            view = coord.telemetry.snapshot()["workers"]["alpha"]
            assert view["scrapes"] == 1
            assert view["failures"] == 0
            assert view["events_cursor"] == obs.event_log().last_seq
            assert view["spans_cursor"] == obs.span_log().last_seq
        finally:
            coord.close()

    def test_two_workers_sum_to_fleet_totals(self, local_workers):
        first = local_workers("east")
        second = local_workers("west")
        coord = make_coordinator()
        try:
            coord.register(first.id, first.url)
            coord.register(second.id, second.url)
            obs.emit("fleet-test", "sum.check")
            results = coord.scraper.scrape_all()
            assert results == {"east": True, "west": True}
            merged = coord.telemetry.build_registry().export_state()
            counters = series_map(merged, "repro_events_emitted_total")
            by_worker = {}
            for key, value in counters.items():
                by_worker.setdefault(key[-1], 0.0)
                by_worker[key[-1]] += value
            stored = {
                wid: sum(
                    value
                    for _, value in coord.telemetry._views[wid]
                    .state["repro_events_emitted_total"]["series"]
                )
                for wid in ("east", "west")
            }
            assert by_worker == stored
        finally:
            coord.close()

    def test_transient_scrape_503_absorbed_by_retries(self, local_workers):
        worker = local_workers(
            "flaky", faults=FaultPlan(scrape_503_every=2)
        )
        coord = make_coordinator()
        try:
            coord.register(worker.id, worker.url)
            assert coord.scraper.scrape_all() == {"flaky": True}
            view = coord.telemetry.snapshot()["workers"]["flaky"]
            assert view["scrapes"] == 1
            assert view["failures"] == 0
        finally:
            coord.close()

    def test_persistent_503_is_a_counter_not_an_exception(self, local_workers):
        worker = local_workers(
            "rejector", faults=FaultPlan(scrape_503_every=1)
        )
        coord = make_coordinator()
        coord.scraper.retries = 1  # no point hammering a total outage
        try:
            coord.register(worker.id, worker.url)
            assert coord.scraper.scrape_all() == {"rejector": False}
            view = coord.telemetry.snapshot()["workers"]["rejector"]
            assert view["failures"] == 1
            assert view["scrapes"] == 0
            assert "503" in view["last_error"]
            # Cursors untouched: the next sweep resumes from scratch.
            assert coord.telemetry.cursors("rejector") == (0, 0)
        finally:
            coord.close()

    def test_dead_worker_goes_stale_then_expires(self, local_workers):
        worker = local_workers("mortal")
        coord = make_coordinator(stale_ttl=0.05)
        try:
            coord.register(worker.id, worker.url)
            assert coord.scraper.scrape_all() == {"mortal": True}

            info = coord.workers.get("mortal")
            info.last_heartbeat = (
                time.monotonic() - 10 * coord.workers.death_timeout
            )
            assert coord.workers.check_deaths() == ["mortal"]

            # Death marks the series stale promptly (via recovery), and
            # the sweep no longer contacts the dead worker.
            text = coord.telemetry.exposition()
            assert 'repro_fleet_series_stale{worker="mortal"} 1' in text
            assert 'worker="mortal"' in text  # series retained
            assert coord.scraper.scrape_all() == {}

            time.sleep(0.06)
            assert coord.scraper.scrape_all() == {}  # sweep expires it
            assert coord.telemetry.worker_ids() == []
            assert 'worker="mortal"' not in coord.telemetry.exposition()
        finally:
            coord.close()

    def test_scraper_restart_never_double_counts(self, local_workers):
        worker = local_workers("idem")
        coord = make_coordinator()
        try:
            coord.register(worker.id, worker.url)
            obs.emit("fleet-test", "idem.event")
            assert coord.scraper.scrape_all() == {"idem": True}

            def fleet_families():
                export = coord.telemetry.build_registry().export_state()
                return {
                    name: document
                    for name, document in export.items()
                    if not name.startswith("repro_fleet_")
                }

            merged_events = len(coord.telemetry.events)
            merged_spans = len(coord.telemetry.spans)
            baseline = fleet_families()

            # Same scraper again, then a brand-new scraper over the
            # same telemetry — the restart case.  Cursors live in the
            # store, so neither re-ingests an event, a span, or a
            # histogram cell.
            coord.scraper.scrape_all()
            fresh = FleetScraper(
                coord.workers, coord.telemetry, interval=30.0
            )
            fresh.scrape_all()

            assert len(coord.telemetry.events) == merged_events
            assert len(coord.telemetry.spans) == merged_spans
            assert fleet_families() == baseline
            view = coord.telemetry.snapshot()["workers"]["idem"]
            assert view["scrapes"] == 3
        finally:
            coord.close()

    def test_coordinator_snapshot_has_telemetry_section(self, local_workers):
        worker = local_workers("snap")
        coord = make_coordinator()
        try:
            coord.register(worker.id, worker.url)
            coord.scraper.scrape_all()
            telemetry = coord.snapshot()["telemetry"]
            assert telemetry["scrape_interval_seconds"] == 30.0
            assert telemetry["inflight"] == {"snap": 0}
            assert "snap" in telemetry["workers"]
            assert telemetry["workers"]["snap"]["scrapes"] == 1
        finally:
            coord.close()


# ----------------------------------------------------------------------
# Fleet endpoints on the analysis server
# ----------------------------------------------------------------------


class TestFleetEndpoints:
    def test_fleet_metrics_501_without_coordinator(self):
        with AnalysisServer(port=0, sampler_interval=None) as live:
            client = ServiceClient(live.url)
            with pytest.raises(ServiceError) as err:
                client.fleet_metrics()
            assert err.value.status == 501
            with pytest.raises(ServiceError) as err:
                client.fleet_events()
            assert err.value.status == 501

    def test_fleet_metrics_and_events_served(self, local_workers):
        coord = make_coordinator()
        with AnalysisServer(
            port=0, sampler_interval=None, coordinator=coord
        ) as live:
            client = ServiceClient(live.url)
            worker = local_workers("served")
            coord.register(worker.id, worker.url)
            marker = obs.emit("fleet-test", "served.ping")
            assert marker is not None
            coord.scraper.scrape_all()

            text = client.fleet_metrics_text()
            assert 'repro_fleet_scrapes_total{worker="served"} 1' in text
            assert "repro_fleet_scraped_workers 1" in text

            snapshot = client.fleet_metrics()
            assert "repro_fleet_scrape_age_seconds" in snapshot

            cursor, names = 0, []
            while True:
                page = client.fleet_events(since=cursor, limit=500)
                names.extend(e["name"] for e in page["events"])
                if not page["events"]:
                    break
                cursor = page["next"]
            assert "served.ping" in names

            status, _, body = http_get(
                live.url + "/v1/fleet/events?since=-1"
            )
            assert status == 400
            status, _, _ = http_get(live.url + "/v1/fleet/traces?since=0")
            assert status == 200

    def test_fleet_metrics_text_content_type(self, local_workers):
        coord = make_coordinator()
        with AnalysisServer(
            port=0, sampler_interval=None, coordinator=coord
        ) as live:
            status, headers, _ = http_get(live.url + "/v1/fleet/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            status, _, _ = http_get(
                live.url + "/v1/fleet/metrics?format=bogus"
            )
            assert status == 400


# ----------------------------------------------------------------------
# Scraping must never perturb campaign results
# ----------------------------------------------------------------------


class TestCampaignParity:
    def test_campaign_bit_identical_with_scraper_running(self, local_workers):
        first = local_workers("sc-east")
        second = local_workers("sc-west")
        with make_coordinator(scrape_interval=0.1) as coord:
            coord.register(first.id, first.url)
            coord.register(second.id, second.url)
            assert coord.scraper.running
            requests = campaign_requests(make_tasksets(60))
            expected = sequential_docs(requests)
            docs = [
                result_to_dict(r) for r in coord.run_campaign(requests)
            ]
            assert docs == expected
            coord.scraper.scrape_all()  # at least one deterministic sweep
            assert set(coord.telemetry.worker_ids()) == {
                "sc-east",
                "sc-west",
            }
            for view in coord.snapshot()["telemetry"]["workers"].values():
                assert view["scrapes"] >= 1
