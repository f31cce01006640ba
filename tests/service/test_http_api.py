"""HTTP API tests against a live in-process server on an ephemeral port."""

import json
import urllib.error
import urllib.request

import pytest

from repro.engine import analyze, clear_context_cache, default_registry
from repro.generation import generate_taskset
from repro.model import result_from_dict, system_to_dict, taskset_to_dict
from repro.partition import pack
from repro.service import AnalysisServer, ServiceClient, ServiceError


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_context_cache()
    yield
    clear_context_cache()


@pytest.fixture(scope="module")
def server():
    with AnalysisServer(port=0) as live:
        yield live


@pytest.fixture
def client(server):
    with ServiceClient(server.url) as client:
        yield client


def _get_raw(server, path):
    with urllib.request.urlopen(server.url + path, timeout=10) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


class TestIntrospection:
    def test_health_golden(self, server):
        status, body = _get_raw(server, "/v1/health")
        assert status == 200
        assert body["ok"] is True
        assert body["store"] is False
        assert "version" in body

    def test_tests_endpoint_mirrors_registry(self, client):
        described = {t["name"]: t for t in client.tests()}
        registry = default_registry()
        assert set(described) == set(registry.names())
        qpa = described["qpa"]
        assert qpa["kind"] == "exact"
        assert qpa["options"][0]["name"] == "bound_method"
        assert qpa["options"][0]["required"] is False
        superpos = described["superpos"]
        level = next(o for o in superpos["options"] if o["name"] == "level")
        assert level["required"] is True

    def test_cache_stats_shape(self, client):
        stats = client.cache_stats()
        assert set(stats) == {"context", "store", "queue", "admission", "fleet"}
        assert stats["store"] is None  # this server runs without a store
        assert stats["fleet"] is None  # and without a coordinator
        assert "hits" in stats["context"]
        assert "workers" in stats["queue"]


class TestErrors:
    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/v1/nope", timeout=10)
        assert err.value.code == 404
        err.value.close()  # the error holds the response

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.status("doesnotexist")
        assert err.value.status == 404

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400
        err.value.close()  # the error holds the response

    def test_missing_source_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit_document({"test": "qpa"})
        assert err.value.status == 400
        assert "taskset" in err.value.message

    def test_unknown_test_is_400(self, client, simple_taskset):
        with pytest.raises(ServiceError) as err:
            client.submit_document(
                {"test": "no-such", "taskset": taskset_to_dict(simple_taskset)}
            )
        assert err.value.status == 400

    def test_bad_options_are_400(self, client, simple_taskset):
        with pytest.raises(ServiceError) as err:
            client.submit_document(
                {
                    "test": "superpos",  # missing required 'level'
                    "taskset": taskset_to_dict(simple_taskset),
                }
            )
        assert err.value.status == 400
        assert "level" in err.value.message

    @pytest.mark.parametrize(
        "test, option",
        [
            ("superpos", "level"),
            ("dynamic", "max_level"),
            ("processor-demand", "max_interval"),
        ],
    )
    def test_bool_options_are_400(self, client, simple_taskset, test, option):
        options = {"level": 2} if test == "superpos" else {}
        options[option] = True
        with pytest.raises(ServiceError) as err:
            client.submit_document(
                {
                    "test": test,
                    "options": options,
                    "taskset": taskset_to_dict(simple_taskset),
                }
            )
        assert err.value.status == 400
        assert option in err.value.message and "bool" in err.value.message

    def test_results_of_unfinished_job_conflict(self, simple_taskset):
        import threading

        from repro.engine import BatchRunner

        class Gated:
            def __init__(self):
                self._inner = BatchRunner(jobs=1)
                self.gate = threading.Event()
                self.started = threading.Event()
                self.jobs = 1

            def run(self, requests):
                self.started.set()
                assert self.gate.wait(10)
                return self._inner.run(requests)

        runner = Gated()
        with AnalysisServer(port=0, runner=runner) as live:
            with ServiceClient(live.url) as gated_client:
                job = gated_client.submit_document(
                    {"taskset": taskset_to_dict(simple_taskset)}
                )["job"]
                assert runner.started.wait(10)
                with pytest.raises(ServiceError) as err:
                    gated_client.raw_results(job)
                assert err.value.status == 409
                runner.gate.set()
                assert gated_client.wait(job, timeout=30)["state"] == "done"
                assert gated_client.raw_results(job)["results"]

    def test_cancel_done_job_is_noop(self, client, simple_taskset):
        job = client.submit_document(
            {"taskset": taskset_to_dict(simple_taskset)}
        )["job"]
        client.wait(job, timeout=30)
        assert client.cancel(job)["state"] == "done"


class TestSubmission:
    def test_single_taskset_result_golden(self, client, simple_taskset):
        job = client.submit_document(
            {"test": "qpa", "taskset": taskset_to_dict(simple_taskset)}
        )
        assert job["state"] in ("queued", "running", "done")
        assert job["total"] == 1
        snapshot = client.wait(job["job"], timeout=30)
        assert snapshot["state"] == "done"
        raw = client.raw_results(job["job"])
        (entry,) = raw["results"]
        assert entry["format"] == "repro/result-v1"
        assert entry["test"] == "qpa"
        assert entry["tag"] == 0
        direct = analyze(simple_taskset, "qpa")
        assert entry["verdict"] == direct.verdict.value
        assert entry["iterations"] == direct.iterations
        decoded = result_from_dict(entry)
        assert decoded.verdict == direct.verdict

    def test_batch_tasksets(self, client):
        sets = [generate_taskset(n=4, utilization=0.75, seed=i) for i in range(5)]
        job_id = client.submit(sets, "devi")
        snapshot = client.wait(job_id, timeout=30)
        assert snapshot["total"] == 5
        results = client.results(job_id)
        assert [r.verdict for r in results] == [
            analyze(ts, "devi").verdict for ts in sets
        ]

    def test_system_document_supplies_cores(self, client):
        tasks = generate_taskset(n=4, utilization=1.5, seed=7)
        packed = pack(tasks, 3, "ffd", "utilization")
        job = client.submit_document(
            {
                "test": "partitioned-edf",
                "system": system_to_dict(packed.system),
            }
        )
        snapshot = client.wait(job["job"], timeout=30)
        assert snapshot["state"] == "done"
        (entry,) = client.raw_results(job["job"])["results"]
        direct = analyze(tasks, "partitioned-edf", cores=3)
        assert entry["verdict"] == direct.verdict.value

    def test_heterogeneous_requests(self, client, simple_taskset):
        doc = taskset_to_dict(simple_taskset)
        job = client.submit_document(
            {
                "requests": [
                    {"test": "devi", "taskset": doc},
                    {"test": "superpos", "options": {"level": 2}, "taskset": doc},
                ]
            }
        )
        client.wait(job["job"], timeout=30)
        entries = client.raw_results(job["job"])["results"]
        assert [e["test"] for e in entries] == ["devi", "superpos"]
        assert entries[1]["max_level"] == 2

    def test_job_listing(self, client, simple_taskset):
        before = {j["job"] for j in client.jobs()}
        job_id = client.submit([simple_taskset])
        client.wait(job_id, timeout=30)
        listed = {j["job"] for j in client.jobs()}
        assert job_id in listed
        assert before <= listed


class TestClientBackoff:
    def test_wait_backs_off_exponentially_with_cap(self, monkeypatch):
        """wait() polls with capped exponential backoff, not a fixed sleep."""
        client = ServiceClient("http://unused.invalid")
        monkeypatch.setattr(
            client, "status", lambda job_id: {"state": "running"}
        )
        sleeps = []
        clock = [0.0]
        monkeypatch.setattr(
            "repro.service.client.time.monotonic", lambda: clock[0]
        )

        def fake_sleep(seconds):
            sleeps.append(seconds)
            clock[0] += seconds

        monkeypatch.setattr("repro.service.client.time.sleep", fake_sleep)
        with pytest.raises(TimeoutError):
            client.wait("job", timeout=10.0, poll=0.05, max_poll=2.0, backoff=2.0)
        # Doubling from the initial poll up to the cap...
        assert sleeps[:6] == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6]
        # ...then flat at the cap (modulo the final deadline clip).
        assert all(s == 2.0 for s in sleeps[6:-1])
        assert max(sleeps) <= 2.0
        # Far fewer polls than fixed-interval polling would have issued.
        assert len(sleeps) < 10.0 / 0.05
        # The deadline is observed exactly: total sleep == timeout.
        assert sum(sleeps) == pytest.approx(10.0)

    def test_wait_rejects_shrinking_backoff(self):
        client = ServiceClient("http://unused.invalid")
        with pytest.raises(ValueError, match="backoff"):
            client.wait("job", backoff=0.5)

    def test_wait_returns_promptly_for_fast_jobs(self, client, simple_taskset):
        job_id = client.submit([simple_taskset], test="devi")
        snapshot = client.wait(job_id, timeout=30.0)
        assert snapshot["state"] == "done"
