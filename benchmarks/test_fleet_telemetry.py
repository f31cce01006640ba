"""Fleet telemetry benchmark: what does scraping cost a campaign?

The telemetry plane pulls every worker's metrics/events/spans on a
cadence *while shards execute*.  Its admission ticket is being cheap:
the same campaigns run with the scraper stopped and with the scraper on
an aggressive 0.5s cadence, and the overhead ratio must stay at or
below 10%.  Both configurations run twice, alternating, and take the
min, so a one-off scheduler hiccup cannot fail the gate.

Each configuration times ``CAMPAIGNS`` campaigns of distinct sets back
to back, 2.3-3.5 s on a 2-core box: at least four scrape intervals, so
the scraper sweeps several times inside the timed span.  One 48-set
campaign takes ~0.1 s, so a single timed campaign against the 0.5 s
cadence measured noise more than scraping.  The record keeps every
round's seconds, so a failing ratio shows whether one round or all of
them ran slow.

The topology is the production one (real ``fleet worker`` subprocesses
registered over HTTP, exactly as in ``test_fleet.py``): scraping costs
the coordinator HTTP round-trips and merge work, not worker CPU, and
that is the budget this benchmark meters.  Results land in
``BENCH_fleet_telemetry.json``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from repro.engine import AnalysisRequest, BatchRunner
from repro.experiments import ascii_table
from repro.fleet import Coordinator
from repro.generation import GeneratorConfig, TaskSetGenerator
from repro.model.serialization import result_to_dict
from repro.service import AnalysisServer

SET_COUNT = 48  # per campaign
CAMPAIGNS = 24  # timed per configuration, each of distinct sets
WORKERS = 2
SCRAPE_INTERVAL = 0.5  # = the heartbeat; 8x the production default cadence
ROUNDS = 2
MAX_OVERHEAD = 1.10
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _population(count=SET_COUNT * CAMPAIGNS, seed=5):
    gen = TaskSetGenerator(
        GeneratorConfig(
            tasks=(128, 128),
            utilization=(0.98, 0.995),
            period_range=(10_000, 1_000_000),
            gap=(0.1, 0.4),
        ),
        seed=seed,
    )
    return list(gen.sets(count))


def _requests(sets, test="dynamic"):
    return [
        AnalysisRequest(source=ts, test=test, options={}, tag=i)
        for i, ts in enumerate(sets)
    ]


def _spawn_worker(coordinator_url: str, name: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "fleet", "worker",
            "--coordinator", coordinator_url,
            "--id", name,
            "--heartbeat-interval", "0.5",
            "--sampler-interval", "1.0",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_for_alive(coordinator: Coordinator, count: int, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if len(coordinator.workers.alive_ids()) >= count:
            return
        time.sleep(0.1)
    raise AssertionError(
        f"only {coordinator.workers.alive_ids()} alive after {timeout}s"
    )


def _campaign_seconds(campaigns, expected, scraped: bool, tag: str):
    """*campaigns* back to back against fresh workers; (seconds,
    snapshot)."""
    coordinator = Coordinator(
        heartbeat_interval=0.5,
        miss_budget=4,
        shard_size=4,
        shard_timeout=120.0,
        balance_factor=1.05,
        campaign_timeout=600.0,
        scrape_interval=SCRAPE_INTERVAL,
    )
    processes = []
    try:
        with AnalysisServer(port=0, coordinator=coordinator, quiet=True) as server:
            if not scraped:
                # The server starts the coordinator (and its scraper);
                # the baseline runs with the scrape loop stopped.
                coordinator.scraper.stop()
            processes = [
                _spawn_worker(server.url, f"bench-{tag}{i}")
                for i in range(WORKERS)
            ]
            _wait_for_alive(coordinator, WORKERS)
            start = time.perf_counter()
            results = [coordinator.run_campaign(requests) for requests in campaigns]
            seconds = time.perf_counter() - start
            assert [
                [result_to_dict(r) for r in campaign] for campaign in results
            ] == expected
            if scraped:
                # Guarantee at least one full sweep made it into the
                # view even on a campaign faster than the cadence.
                coordinator.scraper.stop()
                coordinator.scraper.scrape_all()
            return seconds, coordinator.telemetry.snapshot()
    finally:
        for proc in processes:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)


def _measure(campaigns, expected):
    unscraped, scraped = [], []
    snapshot = {}
    for round_index in range(ROUNDS):  # alternate so drift hits both alike
        seconds, _ = _campaign_seconds(
            campaigns, expected, scraped=False, tag=f"off{round_index}-"
        )
        unscraped.append(seconds)
        seconds, snapshot = _campaign_seconds(
            campaigns, expected, scraped=True, tag=f"on{round_index}-"
        )
        scraped.append(seconds)
    return unscraped, scraped, snapshot


def test_scraping_overhead(benchmark, bench_record):
    sets = _population()
    campaigns = [
        _requests(sets[start : start + SET_COUNT])
        for start in range(0, len(sets), SET_COUNT)
    ]
    runner = BatchRunner(jobs=1)
    expected = [
        [result_to_dict(r) for r in runner.run(requests)] for requests in campaigns
    ]

    unscraped, scraped, snapshot = benchmark.pedantic(
        _measure, args=(campaigns, expected), rounds=1, iterations=1
    )
    unscraped_seconds, scraped_seconds = min(unscraped), min(scraped)
    overhead = scraped_seconds / unscraped_seconds
    scrapes = sum(v["scrapes"] for v in snapshot["workers"].values())
    assert scrapes >= WORKERS  # the scraper really ran
    assert snapshot["spans_merged"] > 0  # shard work actually merged
    rss = [v["rss_bytes"] for v in snapshot["workers"].values()]
    assert all(bytes_ and bytes_ > 0 for bytes_ in rss)  # samplers report

    bench_record(
        "BENCH_fleet_telemetry.json",
        {
            "benchmark": "fleet_telemetry_overhead",
            "systems": len(sets),
            "campaigns": CAMPAIGNS,
            "test": "dynamic",
            "workers": WORKERS,
            "scrape_interval": SCRAPE_INTERVAL,
            "scrape_intervals_timed": round(unscraped_seconds / SCRAPE_INTERVAL, 1),
            "unscraped_seconds": round(unscraped_seconds, 4),
            "scraped_seconds": round(scraped_seconds, 4),
            "overhead_ratio": round(overhead, 4),
            "rounds": {
                "unscraped": [round(seconds, 4) for seconds in unscraped],
                "scraped": [round(seconds, 4) for seconds in scraped],
            },
            "scrapes": scrapes,
            "events_merged": snapshot["events_merged"],
            "spans_merged": snapshot["spans_merged"],
        },
    )
    print(
        "\n"
        + ascii_table(
            headers=["configuration", "seconds", "sets/s"],
            rows=[
                ["scraper stopped", f"{unscraped_seconds:.3f}",
                 f"{len(sets) / unscraped_seconds:.1f}"],
                [f"scraper on ({SCRAPE_INTERVAL}s cadence)",
                 f"{scraped_seconds:.3f}",
                 f"{len(sets) / scraped_seconds:.1f}"],
            ],
        )
        + f"\noverhead: {(overhead - 1.0) * 100:+.1f}% "
        f"over {scrapes} scrapes"
    )
    assert overhead <= MAX_OVERHEAD, (
        f"scraping cost {(overhead - 1.0) * 100:.1f}% of campaign wall time"
    )
