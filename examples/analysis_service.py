#!/usr/bin/env python3
"""The analysis service: persistent store, job queue, HTTP API.

Spins up the full service stack in-process — SQLite result store,
async job queue, HTTP JSON API on an ephemeral port — submits a batch
campaign over HTTP, then simulates a restart and replays the campaign:
the second pass is answered entirely from the persistent store without
re-running a single test, which is the service's whole point.

The same loop from the shell:

    repro-edf serve --port 8787 --store results.sqlite &
    repro-edf submit sets/*.json --url http://127.0.0.1:8787 --test qpa
    repro-edf status --url http://127.0.0.1:8787

Run:  python examples/analysis_service.py
"""

import tempfile
from pathlib import Path

from repro.engine import clear_context_cache
from repro.generation import generate_taskset
from repro.service import AnalysisServer, ServiceClient


def campaign(url: str, sets) -> dict:
    """Submit all sets as one batch job, wait, return the job snapshot."""
    with ServiceClient(url) as client:  # closes its kept-alive connections
        job_id = client.submit(sets, "qpa")
        snapshot = client.wait(job_id, timeout=120)
        verdicts = [r.verdict.value for r in client.results(job_id)]
    accepted = sum(1 for v in verdicts if v == "feasible")
    print(f"  job {job_id}: {snapshot['state']}, "
          f"{accepted}/{len(verdicts)} feasible, "
          f"from store: {snapshot['from_store']}, "
          f"computed: {snapshot['computed']}")
    return snapshot


def main() -> None:
    sets = [
        generate_taskset(n=8, utilization=0.80 + 0.01 * i, seed=i)
        for i in range(12)
    ]
    with tempfile.TemporaryDirectory() as scratch:
        store_path = Path(scratch) / "results.sqlite"

        print("first server lifetime (everything is computed):")
        with AnalysisServer(port=0, store=store_path) as server:
            campaign(server.url, sets)
            with ServiceClient(server.url) as client:
                stats = client.cache_stats()
            print(f"  store: {stats['store']['rows']} results persisted")

        # A real restart would be a new process; dropping the in-memory
        # context LRU reproduces the same cold start.
        clear_context_cache()

        print("second server lifetime (same store, nothing recomputed):")
        with AnalysisServer(port=0, store=store_path) as server:
            snapshot = campaign(server.url, sets)
            assert snapshot["computed"] == 0, "restart must serve from the store"
            with ServiceClient(server.url) as client:
                stats = client.cache_stats()
            print(f"  store hits this lifetime: {stats['store']['hits']}")


if __name__ == "__main__":
    main()
