"""Resilience satellites: client transient retry, store lock handling,
and queue shutdown semantics (drain vs cancel)."""

from __future__ import annotations

import http.client
import json
import os
import sqlite3
import statistics
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro import obs
from repro.engine import AnalysisContext, AnalysisRequest, analyze
from repro.model import TaskSet
from repro.service import AnalysisServer, JobQueue, JobState, ResultStore
from repro.service.client import (
    ServiceClient,
    ServiceError,
    TransientServiceError,
)

# ----------------------------------------------------------------------
# ServiceClient: transient classification and idempotent-GET retry
# ----------------------------------------------------------------------


class _FlakyHandler(BaseHTTPRequestHandler):
    """Answers 503 for the first ``fail_first`` requests per method,
    then 200; counts every hit so tests can assert attempt counts."""

    def log_message(self, *args):  # noqa: A002 - http.server API
        pass

    def _respond(self):
        counts = self.server.counts  # type: ignore[attr-defined]
        counts[self.command] = counts.get(self.command, 0) + 1
        if self.command == "POST":
            length = int(self.headers.get("Content-Length", 0) or 0)
            if length:
                self.rfile.read(length)
        if counts[self.command] <= self.server.fail_first:  # type: ignore[attr-defined]
            body = json.dumps({"error": "warming up"}).encode()
            status = 503
        else:
            body = json.dumps({"ok": True}).encode()
            status = 200
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = _respond
    do_POST = _respond


@pytest.fixture
def flaky_server():
    def spawn(fail_first: int):
        httpd = ThreadingHTTPServer(("127.0.0.1", 0), _FlakyHandler)
        httpd.fail_first = fail_first  # type: ignore[attr-defined]
        httpd.counts = {}  # type: ignore[attr-defined]
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        servers.append(httpd)
        return httpd, f"http://127.0.0.1:{httpd.server_address[1]}"

    servers: list = []
    yield spawn
    for httpd in servers:
        httpd.shutdown()
        httpd.server_close()


def make_client(url: str, **overrides) -> ServiceClient:
    options = dict(retries=3, retry_base=0.01, retry_cap=0.02)
    options.update(overrides)
    return ServiceClient(url, **options)


class TestClientRetry:
    def test_get_retries_through_transient_503(self, flaky_server):
        httpd, url = flaky_server(fail_first=2)
        assert make_client(url).health() == {"ok": True}
        assert httpd.counts["GET"] == 3

    def test_get_gives_up_after_budget(self, flaky_server):
        httpd, url = flaky_server(fail_first=99)
        with pytest.raises(TransientServiceError) as excinfo:
            make_client(url).health()
        assert excinfo.value.reason == "http"
        assert excinfo.value.status == 503
        assert httpd.counts["GET"] == 3

    def test_post_never_retries(self, flaky_server):
        httpd, url = flaky_server(fail_first=99)
        with pytest.raises(TransientServiceError) as excinfo:
            make_client(url)._request("POST", "/v1/fleet/heartbeat", {"x": 1})
        assert excinfo.value.reason == "http"
        assert httpd.counts["POST"] == 1  # exactly one attempt

    def test_connection_refused_is_unreachable(self):
        client = make_client("http://127.0.0.1:9", retries=1)
        with pytest.raises(TransientServiceError) as excinfo:
            client.health()
        assert excinfo.value.reason == "unreachable"

    def test_non_transient_errors_are_not_retried(self, flaky_server):
        httpd, url = flaky_server(fail_first=0)
        client = make_client(url)
        with pytest.raises(ServiceError) as excinfo:
            client._request("PUT", "/v1/anything")  # 501 from BaseHTTP
        assert not isinstance(excinfo.value, TransientServiceError)

    def test_retries_validated(self):
        with pytest.raises(ValueError):
            ServiceClient("http://127.0.0.1:9", retries=0)

    def test_malformed_path_is_the_callers_error(self, flaky_server):
        httpd, url = flaky_server(fail_first=0)
        with make_client(url) as client:
            with pytest.raises(ValueError, match="control characters"):
                client.trace("not a trace id")
        assert httpd.counts == {}  # refused before sending, not retried

    def test_flaky_http10_server_answers_on_new_connections(self, flaky_server):
        """An HTTP/1.0 server closes after every answer; nothing is
        pooled, and every call still lands."""
        httpd, url = flaky_server(fail_first=0)
        with make_client(url) as client:
            for _ in range(3):
                assert client.health() == {"ok": True}
        assert httpd.counts["GET"] == 3


# ----------------------------------------------------------------------
# ServiceClient: kept-alive connections
# ----------------------------------------------------------------------


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1: answers request *k* (counted server-wide) with
    ``{"n": k}`` after ``server.delays.get(k, 0)`` seconds, and closes
    the connection after the requests in ``server.close_after``
    without saying so.  Records each request's client address (one per
    connection)."""

    protocol_version = "HTTP/1.1"

    def log_message(self, *args):  # noqa: A002 - http.server API
        pass

    def do_GET(self):  # noqa: N802 - http.server API
        server = self.server
        with server.lock:
            server.peers.append(self.client_address)
            number = len(server.peers)
        time.sleep(server.delays.get(number, 0.0))
        body = json.dumps({"n": number}).encode()
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except OSError:
            pass  # the client gave up on this answer
        self.close_connection = number in server.close_after


class _KeepAliveServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, delays=None, close_after=()):
        super().__init__(("127.0.0.1", 0), _KeepAliveHandler)
        self.lock = threading.Lock()
        self.peers = []
        self.delays = delays or {}
        self.close_after = set(close_after)
        self.closed = threading.Semaphore(0)  # one release per connection

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.release()

    @property
    def connections(self) -> int:
        with self.lock:
            return len(set(self.peers))


@pytest.fixture
def keepalive_server():
    servers = []

    def spawn(**kwargs):
        httpd = _KeepAliveServer(**kwargs)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        servers.append(httpd)
        return httpd, f"http://127.0.0.1:{httpd.server_address[1]}"

    yield spawn
    for httpd in servers:
        httpd.shutdown()
        httpd.server_close()


class TestKeptAliveTransport:
    def test_calls_share_one_connection(self, keepalive_server):
        httpd, url = keepalive_server()
        client = make_client(url)
        for number in range(1, 21):
            assert client.health() == {"n": number}
        assert httpd.connections == 1
        client.close()
        assert httpd.closed.acquire(timeout=5)  # close() hung it up
        assert client.health() == {"n": 21}  # and the client still works

    def test_connection_closed_while_idle_is_replaced(self, keepalive_server):
        httpd, url = keepalive_server(close_after={1})
        with make_client(url, retries=1) as client:
            assert client.health() == {"n": 1}
            assert httpd.closed.acquire(timeout=5)  # the server hung up
            assert client.health() == {"n": 2}
        assert httpd.connections == 2

    def test_late_answer_never_answers_the_next_request(self, keepalive_server):
        httpd, url = keepalive_server(delays={1: 1.0})
        with make_client(url, timeout=0.3, retries=1) as client:
            with pytest.raises(TransientServiceError) as excinfo:
                client.health()
            assert excinfo.value.reason == "timeout"
            assert client.health() == {"n": 2}
        assert httpd.connections == 2

    def test_url_scheme_picks_the_connection(self):
        assert isinstance(
            ServiceClient("https://service.invalid")._checkout(),
            http.client.HTTPSConnection,
        )
        with pytest.raises(ValueError, match="http"):
            ServiceClient("ftp://service.invalid")


class TestServerConnections:
    """The analysis server's side of kept-alive connections (fleet
    workers share its server class; see tests/fleet/test_http_layer.py)."""

    @pytest.fixture
    def server(self):
        with AnalysisServer(port=0, sampler_interval=None) as server:
            yield server

    def test_kept_alive_answers_are_not_delayed(self, server):
        """Header and body leave in two writes; with Nagle on, every
        answer after the first waits out the client's delayed ACK."""
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            times = []
            for _ in range(20):
                begin = time.perf_counter()
                connection.request("GET", "/v1/health")
                response = connection.getresponse()
                assert json.loads(response.read())["ok"] is True
                times.append(time.perf_counter() - begin)
        finally:
            connection.close()
        assert statistics.median(times) < 0.020

    def test_closed_server_answers_no_kept_alive_connection(self, server):
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request("GET", "/v1/health")
            assert connection.getresponse().read()
            server.close()
            with pytest.raises((OSError, http.client.HTTPException)):
                connection.request("GET", "/v1/health")
                connection.getresponse().read()
        finally:
            connection.close()

    def test_request_after_a_closing_400_uses_a_new_connection(self, server):
        """A POST without a body is a 400 after which the server hangs
        up, and says so; the client's next request must not go to that
        connection."""
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            connection.request("POST", "/v1/jobs", headers={"Content-Length": "0"})
            response = connection.getresponse()
            response.read()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
        finally:
            connection.close()
        with make_client(server.url, retries=1) as client:
            with pytest.raises(ServiceError) as excinfo:
                client._request("POST", "/v1/jobs")
            assert excinfo.value.status == 400
            assert "Content-Length" in excinfo.value.message
            document = {"test": "qpa", "taskset": {"tasks": [
                {"wcet": 1, "deadline": 4, "period": 4}]}}
            assert client._request("POST", "/v1/jobs", document)["job"]
            assert client.health()["ok"] is True

    def test_handler_threads_are_reused_and_never_held_by_idle_connections(self):
        """More concurrent fresh-connection clients than cores, while
        kept-alive connections sit idle, with a short switch interval
        to shake out hand-off races: every request is answered, none
        waits behind an idle kept-alive connection, handler threads
        serve more than one connection each, and none outlives
        ``close()``."""
        callers, requests_each = (os.cpu_count() or 1) + 2, 30
        started = obs.registry().get("repro_http_handler_threads_started_total")
        accepted = obs.registry().get("repro_http_connections_total")
        existing = set(threading.enumerate())
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            server = AnalysisServer(port=0, sampler_interval=None).start()
            idle = [ServiceClient(server.url) for _ in range(4)]
            latencies, failures = [], []
            try:
                for client in idle:  # one kept-alive connection each
                    begin = time.perf_counter()
                    assert client.health()["ok"] is True
                    latencies.append(time.perf_counter() - begin)
                threads_before, connections_before = started.value, accepted.value

                def call() -> None:
                    for _ in range(requests_each):
                        begin = time.perf_counter()
                        connection = http.client.HTTPConnection(
                            server.host, server.port, timeout=10
                        )
                        try:
                            connection.request("GET", "/v1/health")
                            response = connection.getresponse()
                            assert json.loads(response.read())["ok"] is True
                        except (OSError, http.client.HTTPException) as err:
                            failures.append(err)
                            continue
                        finally:
                            connection.close()
                        latencies.append(time.perf_counter() - begin)

                threads = [threading.Thread(target=call) for _ in range(callers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert failures == []
                assert len(latencies) == len(idle) + callers * requests_each
                # A request handed to a thread that serves an idle
                # kept-alive connection would wait out the 10 s timeout.
                assert max(latencies) < 5.0
                for client in idle:  # still answered on their connections
                    assert client.health()["ok"] is True
                connections = accepted.value - connections_before
                assert connections >= callers * requests_each
                assert started.value - threads_before < connections
                handlers = [
                    thread
                    for thread in threading.enumerate()
                    if thread.name == "repro-http-handler"
                    and thread not in existing
                ]
                assert handlers
                server.close()  # idle connections still open
                for thread in handlers:  # well within the idle wait
                    thread.join(timeout=2)
                assert not any(thread.is_alive() for thread in handlers)
            finally:
                server.close()
                for client in idle:
                    client.close()
        finally:
            sys.setswitchinterval(interval)


# ----------------------------------------------------------------------
# ResultStore: busy_timeout + bounded locked-write retry
# ----------------------------------------------------------------------


def _sample() -> tuple:
    ts = TaskSet.of((2, 6, 10), (3, 11, 16))
    fingerprint = AnalysisContext.of(ts).fingerprint
    return fingerprint, analyze(ts)


class TestStoreLocking:
    def test_busy_timeout_pragma_applied(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite", busy_timeout=1.25) as store:
            (value,) = store._conn.execute("PRAGMA busy_timeout").fetchone()
            assert value == 1250

    def test_knobs_validated(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path / "s.sqlite", busy_timeout=-1)
        with pytest.raises(ValueError):
            ResultStore(tmp_path / "s.sqlite", locked_retries=0)

    def test_write_lands_after_lock_released(self, tmp_path):
        """busy_timeout=0 forces the app-level retry loop to do the
        waiting: the lock is held past the first attempt and released
        before the budget runs out.  Every row of the batch lands."""
        path = tmp_path / "s.sqlite"
        with ResultStore(path, busy_timeout=0, locked_retries=5) as store:
            for rows, write in _writes(store):
                blocker = sqlite3.connect(path, check_same_thread=False)
                blocker.execute("BEGIN IMMEDIATE")
                release = threading.Timer(0.12, blocker.commit)
                release.start()
                try:
                    write()
                finally:
                    release.join()
                    blocker.close()
                for fingerprint, test, options, result in rows:
                    cached = store.get(fingerprint, test, options)
                    assert cached is not None
                    assert cached.verdict == result.verdict

    def test_persistent_lock_drops_write_gracefully(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with ResultStore(path, busy_timeout=0, locked_retries=2) as store:
            for rows, write in _writes(store):
                blocker = sqlite3.connect(path, check_same_thread=False)
                blocker.execute("BEGIN IMMEDIATE")
                try:
                    write()  # must not raise
                finally:
                    blocker.rollback()
                    blocker.close()
                assert _stored(store, rows) == [False] * len(rows)
                # The store stays usable once the lock clears.
                write()
                assert _stored(store, rows) == [True] * len(rows)

    def test_locked_commit_rolls_back_only_its_own_batch(self, tmp_path):
        """A reader's shared lock lets the INSERTs run but fails every
        COMMIT: the batch is rolled back whole, retried whole, then
        dropped, and rows committed by an earlier call stay."""
        path = tmp_path / "s.sqlite"
        earlier, later = _batch(0), _batch(3)
        with ResultStore(path, busy_timeout=0, locked_retries=2) as store:
            store.put_many(earlier)
            reader = sqlite3.connect(
                path, isolation_level=None, check_same_thread=False
            )
            reader.execute("BEGIN")
            reader.execute("SELECT COUNT(*) FROM results").fetchone()
            try:
                store.put_many(later)  # must not raise
            finally:
                reader.execute("COMMIT")
                reader.close()
            assert _stored(store, earlier) == [True] * len(earlier)
            assert _stored(store, later) == [False] * len(later)
            store.put_many(later)
            assert _stored(store, later) == [True] * len(later)


def _batch(first: int, count: int = 3) -> list:
    """*count* distinct ``put_many`` rows, numbered from *first*."""
    _, result = _sample()
    return [
        (
            AnalysisContext.of(TaskSet.of((1, 5 + i, 10 + i))).fingerprint,
            "qpa",
            {},
            result,
        )
        for i in range(first, first + count)
    ]


def _writes(store: ResultStore):
    """The write shapes under a lock: one row through ``put``, then a
    multi-row ``put_many``.  Yields each one's rows and a callable that
    writes them."""
    fingerprint, result = _sample()
    single = (fingerprint, "qpa", {}, result)
    yield [single], lambda: store.put(*single)
    batch = _batch(0)
    yield batch, lambda: store.put_many(batch)


def _stored(store: ResultStore, rows: list) -> list:
    return [store.get(*row[:3]) is not None for row in rows]


# ----------------------------------------------------------------------
# JobQueue.shutdown: drain vs cancel
# ----------------------------------------------------------------------


class _GatedRunner:
    """Blocks inside ``run`` until released — a job that will not end
    on its own, which is exactly what shutdown must handle."""

    jobs = 1

    def __init__(self):
        self.gate = threading.Event()
        self.started = threading.Event()

    def run(self, requests):
        self.started.set()
        self.gate.wait(10)
        from repro.engine import BatchRunner

        return BatchRunner(jobs=1).run(requests)


def _requests(count: int = 1):
    ts = TaskSet.of((2, 6, 10), (3, 11, 16))
    return [
        AnalysisRequest(source=ts, test="all-approx", options={})
        for _ in range(count)
    ]


class TestShutdown:
    def test_cancel_shutdown_sweeps_running_and_queued(self):
        runner = _GatedRunner()
        queue = JobQueue(runner=runner)
        running = queue.submit(_requests())
        assert runner.started.wait(5)
        queued = queue.submit(_requests())
        queue.shutdown(timeout=0.3)
        runner.gate.set()  # let the stuck worker thread exit

        for job_id in (running, queued):
            snap = queue.status(job_id)
            assert snap["state"] == JobState.CANCELLED
            assert snap["error"] == "cancelled_by_shutdown"
            assert snap["finished_at"] is not None

        # A worker finishing late must not resurrect the swept job.
        time.sleep(0.2)
        assert queue.status(running)["state"] == JobState.CANCELLED

    def test_drain_shutdown_finishes_backlog(self):
        queue = JobQueue()
        jobs = [queue.submit(_requests()) for _ in range(3)]
        queue.shutdown(timeout=10.0, drain=True)
        for job_id in jobs:
            snap = queue.status(job_id)
            assert snap["state"] == JobState.DONE
            assert snap["error"] is None

    def test_drain_deadline_cancels_stragglers(self):
        runner = _GatedRunner()
        queue = JobQueue(runner=runner)
        job_id = queue.submit(_requests())
        assert runner.started.wait(5)
        queue.shutdown(timeout=0.3, drain=True)
        runner.gate.set()
        snap = queue.status(job_id)
        assert snap["state"] == JobState.CANCELLED
        assert snap["error"] == "cancelled_by_shutdown"

    def test_shutdown_is_idempotent(self):
        queue = JobQueue()
        queue.shutdown()
        queue.shutdown()  # no-op, no exception

    def test_user_cancel_keeps_its_own_reason(self):
        runner = _GatedRunner()
        queue = JobQueue(runner=runner)
        queue.submit(_requests())  # occupies the single worker
        assert runner.started.wait(5)
        # Cancelling a still-queued job must not look like a shutdown.
        queued = queue.submit(_requests())
        snap = queue.cancel(queued)
        assert snap["state"] == JobState.CANCELLED
        assert snap["error"] != "cancelled_by_shutdown"
        runner.gate.set()
        queue.shutdown(timeout=5.0)
