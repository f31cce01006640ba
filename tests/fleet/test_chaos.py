"""Chaos tests: campaigns must complete bit-identically to the
sequential ``BatchRunner`` oracle under every injected fault.

Faults are deterministic (:mod:`repro.fleet.faults`) and death
detection is driven explicitly (rewinding ``last_heartbeat`` +
``check_deaths``) so these tests assert exact recovery behaviour
instead of sleeping through heartbeat windows.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.fleet import Coordinator, FaultPlan
from repro.fleet.registry import DEAD
from repro.model.serialization import result_to_dict

from .conftest import campaign_requests, make_tasksets, sequential_docs

CAMPAIGN = 100  # systems per chaos campaign (acceptance floor)


def make_coordinator(**overrides) -> Coordinator:
    options = dict(
        heartbeat_interval=0.2,
        miss_budget=3,
        shard_size=4,
        shard_timeout=30.0,
        retries=3,
        backoff_base=0.01,
        backoff_cap=0.05,
        campaign_timeout=60.0,
        rng=random.Random(0xDEAD),
    )
    options.update(overrides)
    return Coordinator(**options)


def run_and_compare(coordinator: Coordinator, count: int = CAMPAIGN):
    requests = campaign_requests(make_tasksets(count))
    expected = sequential_docs(requests)
    docs = [result_to_dict(r) for r in coordinator.run_campaign(requests)]
    assert docs == expected
    return docs


class TestWorkerCrash:
    def test_crash_mid_campaign_fails_over(self, local_workers):
        crasher = local_workers(
            "crasher", faults=FaultPlan(crash_on_shard=2)
        )
        survivor = local_workers("survivor")
        with make_coordinator() as coord:
            coord.register(crasher.id, crasher.url)
            coord.register(survivor.id, survivor.url)
            run_and_compare(coord)
            assert crasher.crashed.is_set()
            assert coord.workers.get("crasher").state == DEAD
            assert coord.workers.get("survivor").shards_completed >= 1

    def test_whole_fleet_crash_degrades_to_local(self, local_workers):
        crasher = local_workers(
            "crasher", faults=FaultPlan(crash_on_shard=1)
        )
        with make_coordinator() as coord:
            coord.register(crasher.id, crasher.url)
            run_and_compare(coord)
            assert crasher.crashed.is_set()
            assert coord.workers.alive_ids() == []


class TestHeartbeatBlackhole:
    def test_silent_worker_is_declared_dead_and_drained(self, local_workers):
        # The blackholed worker stalls its first shard long enough for
        # the test to declare it dead mid-flight; its queued and
        # in-flight shards must requeue onto the survivor.
        silent = local_workers(
            "silent",
            faults=FaultPlan(
                heartbeat_blackhole_after=0, stall_on_shard=1,
                stall_seconds=8.0,
            ),
        )
        survivor = local_workers("survivor")
        coord = make_coordinator(shard_timeout=20.0)
        try:
            coord.register(silent.id, silent.url)
            coord.register(survivor.id, survivor.url)

            requests = campaign_requests(make_tasksets(CAMPAIGN))
            expected = sequential_docs(requests)
            results: list = []

            def campaign() -> None:
                results.extend(coord.run_campaign(requests))

            thread = threading.Thread(target=campaign, daemon=True)
            thread.start()
            # Wait until the silent worker has a shard in flight...
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if silent.worker.health()["shards_seen"] >= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("silent worker never received a shard")
            # ...then miss every heartbeat in the budget at once.
            info = coord.workers.get("silent")
            info.last_heartbeat = time.monotonic() - 10 * coord.workers.death_timeout
            assert coord.workers.check_deaths() == ["silent"]

            thread.join(timeout=30.0)
            assert not thread.is_alive(), "campaign did not complete"
            assert [result_to_dict(r) for r in results] == expected
            assert coord.workers.get("silent").state == DEAD
            assert coord.workers.get("survivor").shards_completed >= 1
        finally:
            coord.close()


class TestStallAndTimeout:
    def test_stalled_shard_times_out_then_retries(self, local_workers):
        staller = local_workers(
            "staller",
            faults=FaultPlan(stall_on_shard=1, stall_seconds=5.0),
        )
        # The local worker sends no heartbeats: keep the death window
        # (heartbeat_interval * miss_budget, 20 s) past the timed-out
        # attempt and its retry, or a retry slower than ~0.1 s races the
        # monitor, which declares the worker dead and backstops the shard.
        with make_coordinator(
            shard_timeout=0.5, shard_size=1000, miss_budget=100
        ) as coord:
            coord.register(staller.id, staller.url)
            run_and_compare(coord, count=12)
            assert not coord.dead_letters
            info = coord.workers.get("staller")
            assert info.shards_failed >= 1  # the timed-out attempt
            assert info.shards_completed >= 1  # the retry


class TestRetryExhaustion:
    def test_dead_letter_then_local_backstop(self, local_workers):
        always_503 = local_workers(
            "rejector", faults=FaultPlan(reject_503_every=1)
        )
        with make_coordinator(retries=1) as coord:
            coord.register(always_503.id, always_503.url)
            run_and_compare(coord)
            assert coord.dead_letters
            letter = coord.dead_letters[0].snapshot()
            assert letter["worker"] == "rejector"
            assert letter["attempts"] == 2  # initial try + one retry
            assert letter["indices"]
            assert "503" in letter["reason"]
            assert coord.snapshot()["dead_letters"]

    def test_zero_retry_budget_still_completes(self, local_workers):
        always_503 = local_workers(
            "rejector", faults=FaultPlan(reject_503_every=1)
        )
        with make_coordinator(retries=0) as coord:
            coord.register(always_503.id, always_503.url)
            run_and_compare(coord, count=20)
            assert coord.dead_letters


class TestIntermittent503:
    def test_every_other_request_rejected_recovers(self, local_workers):
        flaky = local_workers(
            "flaky", faults=FaultPlan(reject_503_every=2)
        )
        with make_coordinator(retries=5) as coord:
            coord.register(flaky.id, flaky.url)
            run_and_compare(coord)
            info = coord.workers.get("flaky")
            assert info.shards_failed >= 1  # some 503s happened
            assert info.shards_completed >= 1  # and were retried through
