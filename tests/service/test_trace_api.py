"""Trace endpoints, job profiling, and the `obs trace`/`obs events`
CLI against an in-process server."""

import json
import urllib.request

import pytest

import repro.cli as cli
from repro.engine import clear_context_cache
from repro.generation import generate_taskset
from repro.obs import parse_traceparent, span
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
    return generate_taskset(n=6, utilization=0.7, seed=13)


def _finished_job(client, tasks, **kwargs):
    job = client.submit([tasks], test="qpa", **kwargs)
    return client.wait(job, timeout=30)


class TestTraceEndpoints:
    def test_job_snapshot_carries_trace_id(self, client, tasks):
        snapshot = _finished_job(client, tasks)
        trace_id = snapshot["trace_id"]
        assert trace_id and len(trace_id) == 32

    def test_trace_fetch_reconstructs_server_tree(self, client, tasks):
        snapshot = _finished_job(client, tasks)
        spans = client.trace(snapshot["trace_id"])
        names = {record["name"] for record in spans}
        assert {"http.request", "queue.job", "engine.batch"} <= names
        assert "kernel.qpa" in names or "engine.analyze" in names
        # The tree is connected: every non-root span's parent is either
        # retained or the remote (client-side) parent of the trace.
        by_id = {record["span_id"] for record in spans}
        roots = [r for r in spans if r["parent_id"] not in by_id]
        assert roots

    def test_submitting_inside_a_span_propagates_the_trace(
        self, client, tasks
    ):
        with span("test.trace.origin") as root:
            snapshot = _finished_job(client, tasks)
        assert snapshot["trace_id"] == root.trace_id
        spans = client.trace(root.trace_id)
        job_spans = [r for r in spans if r["name"] == "queue.job"]
        assert job_spans

    def test_unknown_trace_404s(self, client):
        with pytest.raises(ServiceError) as err:
            client.trace("f" * 32)
        assert err.value.status == 404

    def test_traces_listing(self, client, tasks):
        snapshot = _finished_job(client, tasks)
        summaries = client.traces()
        assert any(
            entry["trace"] == snapshot["trace_id"] for entry in summaries
        )
        for entry in summaries:
            assert entry["spans"] >= 1

    def test_traces_limit_validation(self, server):
        url = server.url + "/v1/traces?limit=0"
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(url, timeout=10)
        assert err.value.code == 400
        err.value.close()  # the error holds the response

    def test_events_limit_clamped(self, server, client, tasks):
        _finished_job(client, tasks)
        url = server.url + "/v1/events?since=0&limit=999999"
        with urllib.request.urlopen(url, timeout=10) as response:
            assert response.status == 200
            document = json.loads(response.read().decode("utf-8"))
        assert len(document["events"]) <= 1000


class TestJobProfiling:
    def test_profiled_job_result_has_breakdown(self, client, tasks):
        snapshot = _finished_job(client, tasks, profile=True)
        raw = client.raw_results(snapshot["job"])
        report = raw["profile"]
        assert report["spans"] >= 1
        names = {row["span"] for row in report["rows"]}
        assert "engine.batch" in names
        # The job profile is scoped to the job's own subtree — the
        # concurrent status polls must not leak into it.
        assert "http.request" not in names
        for row in report["rows"]:
            assert row["self_seconds"] <= row["total_seconds"] + 1e-9

    def test_unprofiled_job_has_no_breakdown(self, client, tasks):
        snapshot = _finished_job(client, tasks)
        raw = client.raw_results(snapshot["job"])
        assert "profile" not in raw

    def test_profile_flag_validated(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit_document(
                {"taskset": {"tasks": []}, "profile": "yes"}
            )
        assert err.value.status == 400


class TestClientPropagation:
    def test_every_request_carries_traceparent(self, server, client, tasks):
        # Even outside any span the client originates a trace per call.
        job = client.submit([tasks], test="qpa")
        snapshot = client.status(job)
        assert parse_traceparent(
            "00-" + snapshot["trace_id"] + "-" + "a" * 16 + "-01"
        )


class TestObsTraceCli:
    def _main(self, capsys, *argv):
        code = cli.main(list(argv))
        return code, capsys.readouterr()

    def test_trace_tree_rendering(self, server, client, tasks, capsys):
        snapshot = _finished_job(client, tasks)
        code, captured = self._main(
            capsys, "obs", "trace", snapshot["trace_id"], "--url", server.url
        )
        assert code == 0
        assert "queue.job" in captured.out
        assert "engine.batch" in captured.out

    def test_trace_listing(self, server, client, tasks, capsys):
        snapshot = _finished_job(client, tasks)
        code, captured = self._main(
            capsys, "obs", "trace", "--url", server.url
        )
        assert code == 0
        assert snapshot["trace_id"] in captured.out

    def test_trace_json_and_profile_modes(
        self, server, client, tasks, capsys
    ):
        snapshot = _finished_job(client, tasks)
        code, captured = self._main(
            capsys,
            "obs", "trace", snapshot["trace_id"], "--url", server.url,
            "--json",
        )
        assert code == 0
        spans = json.loads(captured.out)
        assert all("span_id" in record for record in spans)
        code, captured = self._main(
            capsys,
            "obs", "trace", snapshot["trace_id"], "--url", server.url,
            "--profile",
        )
        assert code == 0
        assert "self(s)" in captured.out

    def test_unknown_trace_exits_nonzero(self, server, capsys):
        code, captured = self._main(
            capsys, "obs", "trace", "e" * 32, "--url", server.url
        )
        assert code == 2
        assert "error" in captured.err

    def test_submit_prints_trace_line(self, server, tasks, tmp_path, capsys):
        from repro.model.serialization import taskset_to_dict

        path = tmp_path / "ts.json"
        path.write_text(json.dumps(taskset_to_dict(tasks)))
        code, captured = self._main(
            capsys,
            "submit", "--url", server.url, "--test", "qpa", str(path),
        )
        assert code == 0
        trace_lines = [
            line for line in captured.out.splitlines()
            if line.startswith("trace ")
        ]
        assert len(trace_lines) == 1
        assert len(trace_lines[0].split()[1]) == 32


class _FakeClientBase:
    """What the CLI's ``with`` block needs of a client."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


class TestEventsFollowResilience:
    def _run_follow(self, monkeypatch, capsys, pages):
        """Feed canned pages/errors to `obs events --follow`."""
        class FakeClient(_FakeClientBase):
            def __init__(self, url, timeout=30.0):
                self.calls = 0

            def events(self, since=0, limit=500):
                nonlocal pages
                if not pages:
                    raise KeyboardInterrupt
                item = pages.pop(0)
                if isinstance(item, Exception):
                    raise item
                return item

        monkeypatch.setattr("repro.service.ServiceClient", FakeClient)
        monkeypatch.setattr(cli.time, "sleep", lambda _s: None)
        code = cli.main(
            ["obs", "events", "--follow", "--url", "http://x", "--since", "5"]
        )
        return code, capsys.readouterr()

    def test_survives_one_transient_error(self, monkeypatch, capsys):
        pages = [
            {"events": [{"seq": 6, "name": "a"}], "next": 6},
            ServiceError(0, "connection refused"),
            {"events": [{"seq": 7, "name": "b"}], "next": 7},
        ]
        code, captured = self._run_follow(monkeypatch, capsys, pages)
        assert code == 0
        lines = captured.out.splitlines()
        assert json.loads(lines[0])["name"] == "a"
        assert json.loads(lines[1])["name"] == "b"
        assert "retrying" in captured.err
        assert "resume with --since 7" in captured.err

    def test_second_consecutive_error_exits_with_cursor(
        self, monkeypatch, capsys
    ):
        pages = [
            {"events": [{"seq": 6, "name": "a"}], "next": 6},
            ServiceError(0, "down"),
            ServiceError(0, "still down"),
        ]
        code, captured = self._run_follow(monkeypatch, capsys, pages)
        assert code == 2
        assert "resume with --since 6" in captured.err

    def test_non_follow_error_propagates(self, monkeypatch, capsys):
        class FakeClient(_FakeClientBase):
            def __init__(self, url, timeout=30.0):
                pass

            def events(self, since=0, limit=500):
                raise ServiceError(0, "nope")

        monkeypatch.setattr("repro.service.ServiceClient", FakeClient)
        code = cli.main(["obs", "events", "--url", "http://x"])
        captured = capsys.readouterr()
        assert code == 2
        assert "resume" not in captured.err
