"""Sharding: fingerprint grouping, packing, rendezvous, wire format."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from repro.engine.batch import AnalysisRequest
from repro.engine.context import fingerprint_of
from repro.fleet import (
    Shard,
    entries_from_wire,
    group_requests,
    pack_groups,
    rendezvous,
    rendezvous_ranking,
    shard_to_wire,
)
from repro.generation import GeneratorConfig, TaskSetGenerator
from repro.model import SporadicTask, TaskSet

from .conftest import campaign_requests, make_tasksets


class TestGrouping:
    def test_same_taskset_shares_a_group(self):
        ts = TaskSet.of((2, 6, 10), (3, 11, 16))
        other = TaskSet.of((1, 4, 8),)
        requests = [
            AnalysisRequest(source=ts, test="all-approx", options={}, tag=0),
            AnalysisRequest(source=other, test="all-approx", options={}, tag=1),
            AnalysisRequest(source=ts, test="qpa", options={}, tag=2),
        ]
        groups = group_requests(requests)
        assert len(groups) == 2
        by_size = sorted(groups, key=lambda g: -len(g.entries))
        assert [e.index for e in by_size[0].entries] == [0, 2]
        assert [e.index for e in by_size[1].entries] == [1]

    def test_order_preserving_and_options_resolved(self):
        requests = campaign_requests(make_tasksets(10))
        groups = group_requests(requests)
        flattened = [e.index for g in groups for e in g.entries]
        # First-seen group order with in-group submission order intact.
        assert sorted(flattened) == list(range(10))
        for group in groups:
            for entry in group.entries:
                assert "revision_policy" in entry.options  # resolved default

    def test_unknown_test_raises(self):
        ts = make_tasksets(1)[0]
        with pytest.raises(ValueError):
            group_requests(
                [AnalysisRequest(source=ts, test="nope", options={}, tag=0)]
            )


class TestPacking:
    def test_groups_never_split(self):
        requests = campaign_requests(make_tasksets(30))
        groups = group_requests(requests)
        bundles = pack_groups(groups, max_size=4)
        seen = []
        for bundle in bundles:
            size = sum(len(g.entries) for g in bundle)
            assert size >= 1
            for group in bundle:
                seen.append(group.key)
        assert seen == [g.key for g in groups]  # order kept, all present

    def test_oversized_group_gets_its_own_bundle(self):
        ts = TaskSet.of((2, 6, 10),)
        requests = [
            AnalysisRequest(source=ts, test="all-approx", options={}, tag=i)
            for i in range(7)
        ]
        groups = group_requests(requests)
        bundles = pack_groups(groups, max_size=3)
        assert len(bundles) == 1  # affinity wins over the size cap
        assert sum(len(g.entries) for g in bundles[0]) == 7

    def test_max_size_validated(self):
        with pytest.raises(ValueError):
            pack_groups([], max_size=0)


class TestRendezvous:
    def test_deterministic(self):
        workers = ["w1", "w2", "w3"]
        assert rendezvous("key", workers) == rendezvous("key", workers)
        assert rendezvous("key", list(reversed(workers))) == rendezvous(
            "key", workers
        )

    def test_empty_fleet_is_none(self):
        assert rendezvous("key", []) is None

    def test_minimal_disruption_on_death(self):
        workers = ["w1", "w2", "w3", "w4"]
        keys = [f"key-{i}" for i in range(200)]
        before = {k: rendezvous(k, workers) for k in keys}
        survivors = [w for w in workers if w != "w2"]
        after = {k: rendezvous(k, survivors) for k in keys}
        for key in keys:
            if before[key] != "w2":
                assert after[key] == before[key]  # only w2's keys moved
        moved = [k for k in keys if before[k] == "w2"]
        assert moved  # the dead worker owned something

    def test_spreads_keys(self):
        workers = ["w1", "w2", "w3"]
        owners = {rendezvous(f"key-{i}", workers) for i in range(100)}
        assert owners == set(workers)

    def test_ranking_is_a_permutation_headed_by_the_winner(self):
        workers = ["w1", "w2", "w3", "w4"]
        for i in range(50):
            ranking = rendezvous_ranking(f"key-{i}", workers)
            assert sorted(ranking) == sorted(workers)
            assert ranking[0] == rendezvous(f"key-{i}", workers)

    def test_ranking_tail_is_stable_without_the_head(self):
        # Dropping the winner promotes the second choice: the property
        # bounded-load spill relies on.
        workers = ["w1", "w2", "w3", "w4"]
        for i in range(50):
            ranking = rendezvous_ranking(f"key-{i}", workers)
            survivors = [w for w in workers if w != ranking[0]]
            assert rendezvous_ranking(f"key-{i}", survivors) == ranking[1:]

    def test_ranking_empty(self):
        assert rendezvous_ranking("key", []) == []


class TestWireFormat:
    def test_round_trip(self):
        requests = campaign_requests(make_tasksets(6))
        groups = group_requests(requests)
        shard = Shard(id="s-test", groups=groups, attempts=2,
                      traceparent="00-" + "a" * 32 + "-" + "b" * 16 + "-01")
        wire = shard_to_wire(shard)
        assert wire["shard"] == "s-test"
        assert wire["attempt"] == 2
        entries = entries_from_wire(wire)
        assert [e["index"] for e in entries] == [e.index for e in shard.entries]
        for entry, original in zip(entries, shard.entries):
            assert entry["source"] == original.source
            assert entry["test"] == original.test
            assert entry["options"] == original.options
            assert entry["tag"] == original.tag

    def test_round_trip_keeps_rationals_phases_and_names(self):
        sets = [
            TaskSet(
                [
                    SporadicTask(Fraction(1, 3), 4, 9),
                    SporadicTask(0, 5, 10, name="idle"),
                    SporadicTask(2, Fraction(15, 2), 12, phase=3),
                    SporadicTask(1, 6, 8, phase=Fraction(1, 2), name="b"),
                ],
                name="mixed",
            ),
            TaskSet.of((0, 3, 4), (1, 5, 10)),
            TaskSet([SporadicTask(2, 9, 7, name="late")], name="one"),
        ]
        shard = Shard(id="s-rows", groups=group_requests(campaign_requests(sets)))
        wire = json.loads(json.dumps(shard_to_wire(shard)))
        assert wire["entries"][0]["rows"] == [
            [{"$frac": "1/3"}, 4, 9],
            [0, 5, 10, 0, "idle"],
            [2, {"$frac": "15/2"}, 12, 3, ""],
            [1, 6, 8, {"$frac": "1/2"}, "b"],
        ]
        assert wire["entries"][1]["rows"] == [[0, 3, 4], [1, 5, 10]]
        assert [entry.get("name") for entry in wire["entries"]] == [
            "mixed", None, "one",
        ]
        decoded = [entry["source"] for entry in entries_from_wire(wire)]
        for source, original in zip(decoded, sets):
            assert source.rows == original.rows
            assert source.name == original.name
            assert list(source) == list(original)
            assert [t.name for t in source] == [t.name for t in original]
            assert fingerprint_of(source) == fingerprint_of(original)

    def test_sixteen_forty_task_sets_fit_in_twenty_kilobytes(self):
        generator = TaskSetGenerator(
            GeneratorConfig(
                tasks=(40, 40),
                utilization=(0.97, 0.97),
                period_range=(1_000, 100_000),
                gap=(0.0, 0.4),
            ),
            seed=25,
        )
        sets = [generator.one() for _ in range(16)]
        requests = campaign_requests(sets, test="dynamic")
        shard = Shard(id="s-size", groups=group_requests(requests))
        body = json.dumps(shard_to_wire(shard)).encode("utf-8")
        assert len(body) < 20_000

    def test_non_taskset_source_rejected(self):
        shard = Shard(
            id="s-bad",
            groups=group_requests(campaign_requests(make_tasksets(1))),
        )
        shard.groups[0].entries[0].source = object()
        with pytest.raises(TypeError):
            shard_to_wire(shard)

    @pytest.mark.parametrize(
        "document",
        [
            {},
            {"entries": []},
            {"entries": ["nope"]},
            {"entries": [{"index": 0}]},
            {"entries": [{"index": 0, "test": 7, "rows": []}]},
            {"entries": [{"index": 0, "test": "qpa", "taskset": {"tasks": []}}]},
        ],
    )
    def test_malformed_bodies_raise(self, document):
        with pytest.raises(ValueError):
            entries_from_wire(document)
