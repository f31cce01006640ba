"""Service acceptance tests.

Covers the two acceptance criteria of the service layer:

* a *restarted* server answers a previously analyzed task set from the
  persistent store without re-running the test, verified through the
  cache-stats hit counters;
* a 100-set batch campaign submitted over HTTP returns verdicts
  identical to direct :class:`~repro.engine.batch.BatchRunner`
  execution.

Plus the full CLI loop: ``repro-edf serve`` in a real subprocess on an
ephemeral port, driven by ``repro-edf submit/status/fetch``.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine import (
    AnalysisRequest,
    BatchRunner,
    clear_context_cache,
)
from repro.generation import generate_taskset
from repro.model import dump_taskset
from repro.service import AnalysisServer, ServiceClient


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_context_cache()
    yield
    clear_context_cache()


class TestRestartPersistence:
    def test_restarted_server_answers_from_store(self, tmp_path, simple_taskset):
        store_path = tmp_path / "store.sqlite"

        with AnalysisServer(port=0, store=store_path) as first, ServiceClient(
            first.url
        ) as client:
            original = client.run([simple_taskset], "qpa")
            stats = client.cache_stats()["store"]
            assert stats["hits"] == 0 and stats["misses"] == 1
            first_job = client.jobs()[-1]
            assert first_job["computed"] == 1

        # Simulate a restart: fresh process state, same store file.
        clear_context_cache()

        with AnalysisServer(port=0, store=store_path) as second, ServiceClient(
            second.url
        ) as client:
            replayed = client.run([simple_taskset], "qpa")
            stats = client.cache_stats()["store"]
            assert stats["hits"] == 1, "restart must hit the persistent store"
            assert stats["misses"] == 0
            job = client.jobs()[-1]
            assert job["from_store"] == 1
            assert job["computed"] == 0, "the test must not re-run"
        assert [r.verdict for r in replayed] == [r.verdict for r in original]
        assert [r.iterations for r in replayed] == [
            r.iterations for r in original
        ]


class TestBatchCampaignParity:
    def test_100_set_campaign_matches_direct_batchrunner(self, tmp_path):
        sets = [
            generate_taskset(n=6, utilization=0.6 + 0.004 * i, seed=i)
            for i in range(100)
        ]
        requests = [AnalysisRequest(source=ts, test="all-approx") for ts in sets]
        direct = BatchRunner(jobs=1).run(requests)

        clear_context_cache()
        with AnalysisServer(
            port=0, store=tmp_path / "store.sqlite", shard_size=16
        ) as server, ServiceClient(server.url) as client:
            job_id = client.submit(sets, "all-approx")
            snapshot = client.wait(job_id, timeout=120)
            assert snapshot["state"] == "done"
            assert snapshot["total"] == snapshot["done"] == 100
            served = client.results(job_id)

        assert [r.verdict for r in served] == [r.verdict for r in direct]
        assert [r.iterations for r in served] == [r.iterations for r in direct]
        assert [r.bound for r in served] == [r.bound for r in direct]


class TestServeSubmitCli:
    """``repro-edf serve`` + ``submit`` against a live subprocess server."""

    @pytest.fixture
    def live_server(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--store",
                str(tmp_path / "store.sqlite"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline().strip()
            assert line.startswith("serving on "), line
            url = line.split("serving on ", 1)[1]
            # Wait until the socket actually answers.
            with ServiceClient(url, timeout=5) as client:
                deadline = time.monotonic() + 10
                while True:
                    try:
                        client.health()
                        break
                    except Exception:
                        if time.monotonic() > deadline:
                            raise
                        time.sleep(0.05)
            yield url
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
            process.stdout.close()

    def test_submit_status_fetch_roundtrip(self, tmp_path, live_server):
        from repro.cli import main

        file_a = tmp_path / "a.json"
        file_b = tmp_path / "b.json"
        dump_taskset(generate_taskset(n=5, utilization=0.7, seed=11), file_a)
        dump_taskset(generate_taskset(n=5, utilization=0.7, seed=12), file_b)

        code = main(
            ["submit", str(file_a), str(file_b), "--url", live_server, "--test", "qpa"]
        )
        assert code == 0

        with ServiceClient(live_server) as client:
            jobs = client.jobs()
        assert len(jobs) == 1 and jobs[0]["state"] == "done"
        job_id = jobs[0]["job"]

        assert main(["status", job_id, "--url", live_server]) == 0
        assert main(["status", "--url", live_server]) == 0
        assert main(["fetch", job_id, "--url", live_server]) == 0
        assert main(["fetch", job_id, "--url", live_server, "--json"]) == 0

        # Resubmitting the same files is answered from the store.
        assert (
            main(
                ["submit", str(file_a), str(file_b), "--url", live_server,
                 "--test", "qpa"]
            )
            == 0
        )
        with ServiceClient(live_server) as client:
            last = client.jobs()[-1]
        assert last["from_store"] == 2
        assert last["computed"] == 0

    def test_one_trace_links_http_queue_engine_kernel(
        self, tmp_path, live_server
    ):
        """The trace id printed by a real `submit` subprocess resolves,
        on the server, to one connected span tree at least three levels
        deep (HTTP handler → queue job → engine → kernel)."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        file_a = tmp_path / "trace.json"
        dump_taskset(generate_taskset(n=5, utilization=0.7, seed=21), file_a)
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "submit", str(file_a),
                "--url", live_server, "--test", "qpa",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        trace_lines = [
            line for line in completed.stdout.splitlines()
            if line.startswith("trace ")
        ]
        assert len(trace_lines) == 1, completed.stdout
        trace_id = trace_lines[0].split()[1]

        with ServiceClient(live_server) as client:
            spans = client.trace(trace_id)
        assert all(record["trace_id"] == trace_id for record in spans)
        names = {record["name"] for record in spans}
        assert "http.request" in names
        assert "queue.job" in names
        assert "engine.batch" in names
        assert "kernel.qpa" in names or "engine.analyze" in names

        by_id = {record["span_id"]: record for record in spans}

        def depth(record):
            count, seen = 0, set()
            parent = record.get("parent_id")
            while parent in by_id and parent not in seen:
                seen.add(parent)
                count += 1
                parent = by_id[parent].get("parent_id")
            return count

        assert max(depth(record) for record in spans) >= 3

    def test_submit_unreachable_server_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        file_a = tmp_path / "a.json"
        dump_taskset(generate_taskset(n=3, utilization=0.5, seed=1), file_a)
        code = main(
            ["submit", str(file_a), "--url", "http://127.0.0.1:9", "--test", "devi"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
