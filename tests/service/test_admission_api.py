"""Admission-session HTTP API: lifecycle, events, decision log, errors."""

import json
import urllib.error
import urllib.request
from fractions import Fraction

import pytest

from repro.generation import generate_taskset, generate_trace
from repro.model import SporadicTask, TaskSet, taskset_to_dict
from repro.model.serialization import decode_value, event_to_dict
from repro.online import ArrivalEvent
from repro.service import AnalysisServer, ServiceClient, ServiceError


@pytest.fixture(scope="module")
def server():
    with AnalysisServer(port=0) as live:
        yield live


@pytest.fixture
def client(server):
    with ServiceClient(server.url) as client:
        yield client


def _post_raw(server, path, document):
    data = json.dumps(document).encode("utf-8")
    request = urllib.request.Request(
        server.url + path, data=data,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


class TestSessionLifecycle:
    def test_create_apply_close(self, server, client):
        tasks = generate_taskset(n=6, utilization=0.5, seed=8)
        status, body = _post_raw(
            server,
            "/v1/admission",
            {"taskset": taskset_to_dict(tasks), "name": "live"},
        )
        assert status == 201
        session_id = body["session"]
        assert body["tasks"] == 1  # the seeded system is one entry
        assert body["name"] == "live"

        trace = generate_trace("churn", 20, seed=2)
        decisions = client.admission_events(session_id, list(trace))
        assert len(decisions) == 20
        assert [d["index"] for d in decisions] == list(range(20))
        for decision in decisions:
            assert decision["verdict"] in ("feasible", "infeasible")
            assert decision["stage"]

        listed = client.admission_sessions()
        assert session_id in {s["session"] for s in listed}

        stats = client.admission_stats(session_id)
        assert stats["events"] == 20 and stats["decisions"] == 20

        final = client.close_admission_session(session_id)
        assert final["session"] == session_id
        with pytest.raises(ServiceError) as err:
            client.admission_stats(session_id)
        assert err.value.status == 404

    def test_decision_log_cursor(self, client):
        session_id = client.create_admission_session(name="cursor")
        task = SporadicTask(wcet=1, deadline=8, period=10)
        client.admission_events(
            session_id, [ArrivalEvent.arrive(f"t{i}", task, time=i) for i in range(5)]
        )
        log = client.admission_decisions(session_id, since=3)
        assert log["since"] == 3 and log["next"] == 5
        assert [d["index"] for d in log["decisions"]] == [3, 4]
        # The cursor 'streams': nothing new returns an empty page.
        assert client.admission_decisions(session_id, since=5)["decisions"] == []
        client.close_admission_session(session_id)

    def test_rejections_come_back_with_witness_or_gate(self, client):
        session_id = client.create_admission_session(name="tight")
        fat = SporadicTask(wcet=9, deadline=9, period=10)
        tight = SporadicTask(wcet=2, deadline=2, period=10)
        decisions = client.admission_events(
            session_id,
            [
                ArrivalEvent.arrive("fat", fat, time=0),
                ArrivalEvent.arrive("tight", tight, time=1),
                ArrivalEvent.depart("fat", time=2),
            ],
        )
        assert decisions[0]["admitted"] is True
        assert decisions[1]["admitted"] is False
        assert decisions[1]["stage"] in ("utilization-gate", "exact")
        assert decisions[2]["event"] == "depart" and decisions[2]["admitted"]
        client.close_admission_session(session_id)

    @pytest.mark.parametrize(
        "epsilon", ["1/10", None, "three halves-ish"],
        ids=["fraction", "null", "malformed"],
    )
    def test_arrival_past_the_gate_is_decided_exactly(self, server, client, epsilon):
        """A create body that still carries ``epsilon`` is accepted and
        the key ignored, whatever its value: a filter level, ``null`` (no
        filter) and a malformed string (a 400) were each answered on
        their own when the key was read.  The arrival is decided by the
        exact stage, with its QPA bound on the kernel's integer grid."""
        status, body = _post_raw(server, "/v1/admission", {"epsilon": epsilon})
        assert status == 201 and "epsilon" not in body
        task = SporadicTask(wcet=1, deadline=8, period=10)
        (decision,) = client.admission_events(
            body["session"], [ArrivalEvent.arrive("a", task)]
        )
        assert decision["stage"] == "exact" and isinstance(decision["bound"], int)
        client.close_admission_session(body["session"])


    def test_wide_exact_utilization_goes_on_the_wire(self, server, client):
        """A 3000-task session: the utilization's denominator has more
        digits than the interpreter's int->str limit (4300).  The
        arrival answers 200, and its decision's ``$frac`` reads back as
        the session's exact utilization."""
        tasks = generate_taskset(n=3000, utilization=0.85, gap=(0.1, 0.4), seed=5)
        assert Fraction(tasks.utilization).denominator > 10**4300
        status, body = _post_raw(
            server, "/v1/admission", {"taskset": taskset_to_dict(tasks)}
        )
        assert status == 201
        arrival = SporadicTask(wcet=20, deadline=9_000, period=10_000)
        status, answer = _post_raw(
            server,
            f"/v1/admission/{body['session']}/events",
            {"events": [event_to_dict(ArrivalEvent.arrive("a", arrival))]},
        )
        assert status == 200
        (decision,) = answer["decisions"]
        expected = tasks.utilization + Fraction(20, 10_000) * decision["admitted"]
        assert decode_value(decision["utilization"]) == expected
        client.close_admission_session(body["session"])


class TestSessionErrors:
    def test_unknown_session_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.admission_events(
                "nope", [{"kind": "depart", "name": "x"}]
            )
        assert err.value.status == 404

    def test_infeasible_initial_taskset_is_400(self, client):
        bad = TaskSet.of((1, 1, 2), (1, 1, 2))
        with pytest.raises(ServiceError) as err:
            client.create_admission_session(taskset=bad)
        assert err.value.status == 400
        assert "infeasible" in err.value.message

    @pytest.mark.parametrize(
        "document, message",
        [
            (["taskset"], "must be a JSON object"),
            ({"name": 5}, "'name' must be a string"),
        ],
        ids=["not-an-object", "name-not-a-string"],
    )
    def test_bad_create_body_is_400(self, server, document, message):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_raw(server, "/v1/admission", document)
        assert err.value.code == 400
        assert message in json.loads(err.value.read().decode("utf-8"))["error"]

    def test_malformed_events_are_400(self, client):
        session_id = client.create_admission_session()
        with pytest.raises(ServiceError) as err:
            client.admission_events(session_id, [{"kind": "arrive"}])
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client._request(
                "POST", f"/v1/admission/{session_id}/events", {"events": []}
            )
        assert err.value.status == 400
        client.close_admission_session(session_id)

    def test_bad_since_is_400(self, client):
        session_id = client.create_admission_session()
        with pytest.raises(ServiceError) as err:
            client._request(
                "GET", f"/v1/admission/{session_id}/decisions?since=-2"
            )
        assert err.value.status == 400
        client.close_admission_session(session_id)

    def test_cache_stats_counts_sessions(self, client):
        session_id = client.create_admission_session()
        stats = client.cache_stats()
        assert stats["admission"]["sessions"] >= 1
        client.close_admission_session(session_id)


class TestSessionManagerLimits:
    def test_manager_refuses_creation_when_full(self):
        from repro.model.validation import ModelError
        from repro.service import AdmissionSessionManager

        manager = AdmissionSessionManager(max_sessions=2)
        manager.create()
        manager.create()
        with pytest.raises(ModelError, match="session limit"):
            manager.create()

    def test_partial_batch_failure_names_the_applied_prefix(self, client):
        session_id = client.create_admission_session()
        with pytest.raises(ServiceError) as err:
            client.admission_events(
                session_id,
                [
                    {"kind": "arrive", "name": "a", "time": 0,
                     "task": {"wcet": 1, "deadline": 8, "period": 10}},
                    {"kind": "arrive", "name": "a", "time": 1,
                     "task": {"wcet": 1, "deadline": 8, "period": 10}},
                ],
            )
        assert err.value.status == 400
        assert "1 earlier event(s)" in err.value.message
        # The first event of the batch really was applied.
        assert client.admission_stats(session_id)["events"] == 1
        client.close_admission_session(session_id)


class TestDecisionLogCap:
    def test_log_prunes_but_cursor_survives(self):
        from repro.online import AdmissionController
        from repro.service import AdmissionSession

        session = AdmissionSession(
            "s1", AdmissionController(), max_log=10
        )
        task = SporadicTask(wcet=1, deadline=800, period=1000)
        for i in range(25):
            document = session.apply(
                ArrivalEvent.arrive(f"t{i}", task, time=i)
            )
            assert document["index"] == i  # indices stay absolute
        snapshot = session.snapshot()
        assert snapshot["decisions"] == 25
        assert snapshot["log_retained_from"] > 0
        assert len(session.decisions) <= 10
        # A tail cursor still pages correctly across the prune.
        tail = session.log(since=24)
        assert [d["index"] for d in tail] == [24]
        # A cursor behind the retained window gets what is left.
        stale = session.log(since=0)
        assert stale[0]["index"] == snapshot["log_retained_from"]

    def test_http_next_cursor_is_absolute(self, client):
        session_id = client.create_admission_session()
        task = SporadicTask(wcet=1, deadline=8, period=10)
        client.admission_events(
            session_id,
            [ArrivalEvent.arrive(f"n{i}", task, time=i) for i in range(4)],
        )
        log = client.admission_decisions(session_id, since=2)
        assert log["next"] == 4
        assert client.admission_decisions(session_id, since=4)["next"] == 4
        client.close_admission_session(session_id)
