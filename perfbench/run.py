#!/usr/bin/env python3
"""End-to-end benchmark of the program's user paths.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli --seed 1 --seconds 20 --trace 0

Workloads (one user path each, all closed-loop with one caller that
sends its next operation when the previous one has answered; every
population is one the repository documents, see ``inputs.py``):

    sweep      in a program process, one operation runs one task set of
               the paper's Figure 8 population through the paper's test
               battery (``inproc.py``).
    admission  ``python -m repro serve`` holding admission sessions on
               resident systems like those of
               ``benchmarks/test_online_admission.py`` (100, 500 and 1000
               tasks at U = 0.85); one operation is one POST to
               ``/v1/admission/{id}/events`` carrying one arrival of that
               benchmark's churn and its departure, round-robin over the
               sessions.
    service    ``python -m repro serve --store``; one operation submits
               one ``qpa`` job of 32 task sets of
               ``benchmarks/test_service_store.py``'s population over
               HTTP, polls it and fetches its results.
    cli        one operation is one ``python -m repro analyze --test
               dynamic`` process on a fresh task-set file (the README's
               ``generate --tasks 30 --utilization 0.95``).
    fleet      in a program process, one operation is one ``dynamic``
               campaign of 16 task sets of the CI fleet-smoke population
               over a coordinator and two HTTP workers (``inproc.py``).

Inputs come from ``--seed`` alone; the program only ever sees the
generated inputs.  Every operation's input is new, so no result store or
context cache answers from an earlier operation.

Each run starts the path's program process three times.  *Set-up* is
the time from launching it until it has answered one warm-up operation
(for ``cli``, one whole warm-up invocation); each launch then measures a
third of ``--seconds`` (``cli`` measures all of it after the three
warm-ups).  Outputs are checked against the reference oracle in
``oracle.py``.  Everything runs on one CPU and every time is scaled to a
reference CPU speed by calibrations taken while no program process runs
(``clock.py``).  The last line of standard output is one JSON object
with the end-to-end metrics under ``--trace 0``:

    latency_ms         median latency of one operation
    latency_tail_ms    its tail: the 90th percentile (cli: the 75th)
    ops_per_s          operations per second of operation time
    peak_rss_mb        largest resident set of a program process: once
                       it has answered a fixed number of operations
                       (``RSS_AFTER``), or at its exit for ``cli``
    setup_s            median set-up time

and the per-layer split under ``--trace 1`` (benchmark-side timing
around the program's entry points):

    import_ms          importing the program in its process
    cold_call_ms       the warm-up operation's call into the program
    call_ms            one operation's time inside the program's entry
                       call (sweep, fleet: ``BatchRunner.run`` and
                       ``Coordinator.run_campaign``; admission: the
                       controller's decisions as the server reports
                       them; service: the job's execution as the job
                       document reports it; cli: the CLI's ``main``)
    overhead_ms        one operation's latency outside that call (process
                       start and exit, HTTP, queueing, polling, building
                       the model objects)
    iterations_per_op  the paper's effort metric: intervals checked
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import json
import os
import random
import re
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

import clock
import inproc
import inputs
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Program processes started per run; set-up is their median.
LAUNCHES = 3
#: Task sets per fleet campaign: one shard of the CLI's default
#: ``--fleet-shard-size`` (8) for each of the two workers.
CAMPAIGN = 16
#: Task sets per service job: one shard of the server's default
#: ``shard_size`` (32), analysed under ``qpa`` as in
#: ``benchmarks/test_service_store.py``.
JOB = 32
#: Admission sessions per resident-system size in each server process,
#: so that a run's latencies come from several systems of each size.
SESSIONS_PER_SIZE = 2
#: Seconds between the client's polls of a job's status: short next to
#: a job (about 0.1 s), yet long enough that the polls do not slow the
#: job they wait for on the shared CPU.
POLL = 0.01
#: Operations a program process answers after its warm-up before its
#: peak resident set is read: a fixed count per workload (about what the
#: slowest launch seen made), so the footprint does not grow with the
#: number of operations the CPU's speed allows a run.  The fleet's count
#: takes about a second, well before the coordinator's first scrape
#: (4 s) and the first resource samples (5 s): those fill buffers on a
#: wall-clock cadence, which would be in or out of a later reading by
#: chance.
RSS_AFTER = {"sweep": 200, "admission": 1000, "service": 30, "fleet": 10}
#: Percentile each workload reports as its tail latency: p90, or p75
#: where a run may make fewer than a hundred operations, so that at
#: least ten operations lie beyond it.
TAIL = {"sweep": 90, "admission": 90, "service": 90, "cli": 75, "fleet": 90}
#: The test of the README's ``analyze ts.json --test dynamic``.
CLI_TEST = "dynamic"
#: Ceiling on any single wait for a program process.
TIMEOUT = 60.0


class Run:
    """Measurements of one benchmark run, all at the reference speed."""

    def __init__(self, args: argparse.Namespace, workdir: Path) -> None:
        self.args = args
        self.workdir = workdir
        self.share = args.seconds / LAUNCHES
        self.env = _program_env()
        self.setups: List[float] = []
        self.imports: List[float] = []
        self.cold_calls: List[float] = []
        self.latencies: List[float] = []
        self.calls: List[float] = []
        #: Peak resident set of each program process, in MB.
        self.rss: List[float] = []
        self.iterations = 0
        self.failed = 0
        self.errors: List[str] = []
        #: ``(tasks, verdicts, what)`` for the oracle to check.
        self.outputs: List[Tuple[List[inputs.Task], List[str], str]] = []
        self.mismatches: List[str] = []

    def record(
        self, scale: Callable[[float], float], latency: float, call: float, iterations: int
    ) -> None:
        self.latencies.append(scale(latency))
        self.calls.append(scale(call))
        self.iterations += iterations

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def measuring(self, proc: subprocess.Popen) -> Iterator[int]:
        """Numbers a launch's operations while it measures: for a third
        of ``--seconds`` and at least ``RSS_AFTER`` operations, after
        which it reads *proc*'s peak resident set."""
        deadline = time.perf_counter() + self.share
        count = RSS_AFTER[self.args.workload]
        answered = 0
        while answered < count or time.perf_counter() < deadline:
            yield answered
            answered += 1
            if answered == count:
                self.rss.append(_peak_rss_mb(proc))


def _peak_rss_mb(proc: subprocess.Popen) -> float:
    with open(f"/proc/{proc.pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {proc.pid}")


def _program_env() -> Dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Lines:
    """Line reader over a child's unbuffered stdout, with timeouts."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self.fd = proc.stdout.fileno()
        self.buffer = b""
        self.eof = False

    def readline(self, timeout: float = TIMEOUT) -> str:
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buffer:
            if self.eof:
                raise RuntimeError("program process exited early")
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([self.fd], [], [], remaining)[0]:
                raise TimeoutError("program process did not answer in time")
            chunk = os.read(self.fd, 1 << 16)
            self.eof = not chunk
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode("utf-8")


@contextlib.contextmanager
def _program(run: Run, argv: List[str], name: str, **env: str) -> Iterator[subprocess.Popen]:
    """A running program process, stopped when the block ends; a failure
    inside the block is reported with the tail of its standard error."""
    with open(run.workdir / f"{name}.err", "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=run.workdir,
            env={**run.env, **env},
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=stderr,
            bufsize=0,
        )
    try:
        yield proc
    except (RuntimeError, TimeoutError, OSError, ValueError, KeyError) as err:
        text = (run.workdir / f"{name}.err").read_text(errors="replace")
        raise RuntimeError(f"{name}: {err}\n{text[-2000:]}") from None
    finally:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdin.close()
        proc.stdout.close()


# ---------------------------------------------------------------------------
# sweep, fleet: in a program process of their own (inproc.py)
# ---------------------------------------------------------------------------


def run_inproc(run: Run) -> None:
    workload = run.args.workload
    population, size = (inputs.FIG8, 1) if workload == "sweep" else (inputs.FLEET, CAMPAIGN)
    stream = inputs.taskset_stream(f"{run.args.seed}/{workload}", population)
    index = 0
    for part in range(LAUNCHES):
        sets = [next(stream) for _ in range(size)]
        timer = clock.Timer()
        begin = time.perf_counter()
        with _program(run, [str(HERE / "inproc.py"), workload], f"{workload}-{part}") as proc:
            lines = Lines(proc)

            def operation(sets: List[List[inputs.Task]]) -> Dict[str, Any]:
                proc.stdin.write((json.dumps(sets) + "\n").encode())
                return json.loads(lines.readline())

            answer = operation(sets)
            elapsed = time.perf_counter() - begin
            scale = timer.lap([proc])
            if "error" in answer:
                raise RuntimeError(f"warm-up: {answer['error']}")
            run.setups.append(scale(elapsed))
            run.imports.append(scale(answer["import"]))
            run.cold_calls.append(scale(answer["call"]))
            for _ in run.measuring(proc):
                sets = [next(stream) for _ in range(size)]
                index += 1
                answer = operation(sets)
                scale = timer.lap([proc])
                if "error" in answer:
                    run.fail(f"op{index}: {answer['error']}")
                    continue
                run.record(scale, answer["latency"], answer["call"], answer["iterations"])
                tests = inproc.TESTS[workload]
                if len(answer["verdicts"]) != size * len(tests):
                    run.mismatches.append(f"op{index}: {len(answer['verdicts'])} verdicts")
                for i, tasks in enumerate(sets):
                    verdicts = answer["verdicts"][i * len(tests):(i + 1) * len(tests)]
                    claims = [
                        verdict for verdict, (test, _) in zip(verdicts, tests)
                        if not (verdict == "unknown" and test in inproc.SUFFICIENT)
                    ]
                    run.outputs.append((tasks, claims, f"{workload} op{index}.{i}"))
            proc.stdin.close()
            if proc.wait(timeout=TIMEOUT) != 0:
                raise RuntimeError(f"exit code {proc.returncode}")


# ---------------------------------------------------------------------------
# admission, service: python -m repro serve, driven over HTTP
# ---------------------------------------------------------------------------


class Client:
    def __init__(self, url: str) -> None:
        match = re.fullmatch(r"http://([^:/]+):(\d+)/?", url.strip())
        if match is None:
            raise RuntimeError(f"cannot parse service URL {url!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def request(self, method: str, path: str, body: Any = None) -> Dict[str, Any]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=TIMEOUT)
        try:
            payload = None if body is None else json.dumps(body).encode()
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        if response.status >= 400:
            raise RuntimeError(f"{method} {path}: HTTP {response.status} {data[:200]!r}")
        return json.loads(data)

    def analyze(self, tasksets: List[List[inputs.Task]], test: str, name: str):
        """Submit one job, poll it, fetch its results: returns the final
        job snapshot and the result documents."""
        body = {
            "test": test,
            "tasksets": [
                inputs.taskset_document(tasks, f"{name}.{i}")
                for i, tasks in enumerate(tasksets)
            ],
        }
        job = self.request("POST", "/v1/jobs", body)["job"]
        while True:
            snapshot = self.request("GET", f"/v1/jobs/{job}")
            if snapshot["state"] not in ("queued", "running"):
                break
            time.sleep(POLL)
        if snapshot["state"] != "done":
            raise RuntimeError(f"job {job} ended {snapshot['state']}: {snapshot.get('error')}")
        return snapshot, self.request("GET", f"/v1/jobs/{job}/result")["results"]

    def churn_step(self, session: str, task: inputs.Task, name: str):
        """One arrival and its departure at an admission session: returns
        both decision documents."""
        body = {"events": [
            {"kind": "arrive", "name": name, "task": inputs.task_document(task, name)},
            {"kind": "depart", "name": name},
        ]}
        return self.request("POST", f"/v1/admission/{session}/events", body)["decisions"]


@contextlib.contextmanager
def _serve(run: Run, name: str) -> Iterator[Tuple[subprocess.Popen, Client]]:
    argv = ["serve", "--port", "0", "--store", str(run.workdir / f"{name}.sqlite")]
    probe = {}
    if run.args.trace:
        probe = {"PERFBENCH_PROBE_OUT": str(run.workdir / f"{name}.probe")}
        argv = [str(HERE / "probe.py"), *argv]
    else:
        argv = ["-m", "repro", *argv]
    with _program(run, argv, name, **probe) as proc:
        line = Lines(proc).readline()
        if not line.startswith("serving on "):
            raise RuntimeError(f"unexpected first line {line!r}")
        yield proc, Client(line[len("serving on "):])


def run_admission(run: Run) -> None:
    rng = random.Random(f"{run.args.seed}/admission")
    index = 0
    for part in range(LAUNCHES):
        bases = []
        for size in inputs.ADMISSION_SIZES:
            for _ in range(SESSIONS_PER_SIZE):
                base = inputs.taskset(rng, inputs.ADMISSION_BASE, size)
                while not oracle.feasible(base):  # a session starts feasible
                    base = inputs.taskset(rng, inputs.ADMISSION_BASE, size)
                bases.append(base)
        creates = [
            {"name": f"base{i}", "taskset": inputs.taskset_document(base, f"base{i}")}
            for i, base in enumerate(bases)
        ]
        loads = [inputs.utilization(base) for base in bases]
        timer = clock.Timer()
        begin = time.perf_counter()
        with _serve(run, f"admission-{part}") as (proc, client):
            sessions = [client.request("POST", "/v1/admission", body)["session"] for body in creates]
            arrival, _ = client.churn_step(sessions[0], inputs.churn_task(rng), "warm-up")
            elapsed = time.perf_counter() - begin
            scale = timer.lap([proc])
            run.setups.append(scale(elapsed))
            run.cold_calls.append(scale(arrival["latency_seconds"]))
            if run.args.trace:
                run.imports.append(scale(_probe(run.workdir / f"admission-{part}.probe")["import_s"]))
            for _ in run.measuring(proc):
                lane = index % len(sessions)
                task = inputs.churn_task(rng)
                index += 1
                name = f"a{index}"
                begin = time.perf_counter()
                try:
                    arrival, departure = client.churn_step(sessions[lane], task, name)
                except (RuntimeError, OSError, ValueError) as err:
                    timer.lap([proc])
                    run.fail(f"{name}: {err}")
                    continue
                latency = time.perf_counter() - begin
                scale = timer.lap([proc])
                call = arrival["latency_seconds"] + departure["latency_seconds"]
                run.record(scale, latency, call, arrival["iterations"] + departure["iterations"])
                verdict = "feasible" if arrival["admitted"] else "infeasible"
                run.outputs.append((bases[lane] + [task], [verdict], f"admission {name}"))
                # The session holds its resident system plus the arrival
                # if admitted, and only the resident system once it left.
                resident = loads[lane]
                expected = (resident + inputs.utilization([task]) * arrival["admitted"], resident)
                got = (_exact(arrival["utilization"]), _exact(departure["utilization"]))
                if got != expected:
                    run.mismatches.append(f"{name}: utilization {got}, expected {expected}")


def _exact(value: Any) -> Fraction:
    """A number in the program's exact wire encoding."""
    return Fraction(value["$frac"]) if isinstance(value, dict) else Fraction(value)


def run_service(run: Run) -> None:
    stream = inputs.taskset_stream(f"{run.args.seed}/service", inputs.SERVICE)
    index = 0
    for part in range(LAUNCHES):
        sets = [next(stream) for _ in range(JOB)]
        timer = clock.Timer()
        begin = time.perf_counter()
        with _serve(run, f"serve-{part}") as (proc, client):
            snapshot, _ = client.analyze(sets, "qpa", "warm-up")
            elapsed = time.perf_counter() - begin
            scale = timer.lap([proc])
            run.setups.append(scale(elapsed))
            run.cold_calls.append(scale(_execution(snapshot)))
            if run.args.trace:
                run.imports.append(scale(_probe(run.workdir / f"serve-{part}.probe")["import_s"]))
            for _ in run.measuring(proc):
                sets = [next(stream) for _ in range(JOB)]
                index += 1
                begin = time.perf_counter()
                try:
                    snapshot, results = client.analyze(sets, "qpa", f"op{index}")
                except (RuntimeError, OSError, ValueError) as err:
                    timer.lap([proc])
                    run.fail(f"op{index}: {err}")
                    continue
                latency = time.perf_counter() - begin
                scale = timer.lap([proc])
                iterations = sum(result["iterations"] for result in results)
                run.record(scale, latency, _execution(snapshot), iterations)
                if len(results) != JOB:
                    run.mismatches.append(f"op{index}: {len(results)} results")
                for i, (tasks, result) in enumerate(zip(sets, results)):
                    run.outputs.append((tasks, [result["verdict"]], f"service op{index}.{i}"))


def _execution(snapshot: Dict[str, Any]) -> float:
    return snapshot["finished_at"] - snapshot["started_at"]


# ---------------------------------------------------------------------------
# cli: one python -m repro analyze process per operation
# ---------------------------------------------------------------------------


_RESULT_LINE = re.compile(r"^(\S+): (\w+) iterations=(\d+)")


def run_cli(run: Run) -> None:
    stream = inputs.taskset_stream(f"{run.args.seed}/cli", inputs.CLI)
    # An invocation is mostly process start-up, which a bare interpreter
    # start tracks more closely than the in-process calibration does.
    # No program process is alive while it runs.
    timer = clock.Timer(clock.spawn_calibration, clock.SPAWN_REFERENCE)

    def invoke(label: str):
        """One timed invocation on the next task set; returns its latency
        and the probe's timings, both at the reference speed."""
        tasks = next(stream)
        path = run.workdir / f"{label}.json"
        path.write_text(json.dumps(inputs.taskset_document(tasks, label)))
        probe_out = run.workdir / f"{label}.probe"
        argv = ["analyze", str(path), "--test", CLI_TEST]
        if run.args.trace:
            command = [sys.executable, str(HERE / "probe.py"), *argv]
            env = {**run.env, "PERFBENCH_PROBE_OUT": str(probe_out)}
        else:
            command = [sys.executable, "-m", "repro", *argv]
            env = run.env
        begin = time.perf_counter()
        done = subprocess.run(
            command, cwd=run.workdir, env=env, capture_output=True,
            text=True, timeout=TIMEOUT,
        )
        latency = time.perf_counter() - begin
        scale = timer.lap()
        match = _RESULT_LINE.match(done.stdout)
        if done.returncode not in (0, 1) or match is None:
            raise RuntimeError(f"{label}: exit {done.returncode}: {done.stderr[-2000:]}")
        expected_code = 0 if match.group(2) == "feasible" else 1
        if match.group(1) != CLI_TEST or done.returncode != expected_code:
            run.mismatches.append(f"{label}: exit {done.returncode} for {done.stdout!r}")
        run.outputs.append((tasks, [match.group(2)], f"cli {label}"))
        timings = _probe(probe_out) if run.args.trace else {}
        scaled = {key: scale(value) for key, value in timings.items()}
        return scale(latency), scaled, int(match.group(3))

    for part in range(LAUNCHES):
        latency, timings, _ = invoke(f"warm-{part}")
        run.setups.append(latency)
        if run.args.trace:
            run.imports.append(timings["import_s"])
            run.cold_calls.append(timings["main_s"])

    deadline = time.perf_counter() + run.args.seconds
    index = 0
    while time.perf_counter() < deadline:
        index += 1
        try:
            latency, timings, iterations = invoke(f"op{index}")
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            run.fail(str(err))
            continue
        run.latencies.append(latency)
        run.iterations += iterations
        if run.args.trace:
            run.calls.append(timings["main_s"])
            run.imports.append(timings["import_s"])
    # Every invocation is a process of its own; the largest child this
    # run waited for is one of them (the bare interpreter starts of the
    # calibration and the byte-compilation are smaller).
    run.rss.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)


def _probe(path: Path) -> Dict[str, float]:
    timings: Dict[str, float] = {}
    for line in path.read_text().splitlines():
        timings.update(json.loads(line))
    return timings


# ---------------------------------------------------------------------------


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "sweep": run_inproc,
    "admission": run_admission,
    "service": run_service,
    "cli": run_cli,
    "fleet": run_inproc,
}


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(run: Run) -> Dict[str, Any]:
    latencies = run.latencies
    tail = statistics.quantiles(latencies, n=100)[TAIL[run.args.workload] - 1]
    return {
        "latency_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": _metric(tail * 1e3, "ms"),
        "ops_per_s": _metric(len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": _metric(max(run.rss), "MB"),
        "setup_s": _metric(statistics.median(run.setups), "s"),
    }


def per_layer(run: Run) -> Dict[str, Any]:
    outside = [total - call for total, call in zip(run.latencies, run.calls)]
    return {
        "import_ms": _metric(statistics.median(run.imports) * 1e3, "ms"),
        "cold_call_ms": _metric(statistics.median(run.cold_calls) * 1e3, "ms"),
        "call_ms": _metric(statistics.median(run.calls) * 1e3, "ms"),
        "overhead_ms": _metric(statistics.median(outside) * 1e3, "ms"),
        "iterations_per_op": _metric(run.iterations / len(run.latencies), "count"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through the finally blocks that stop the
    # program's processes and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    clock.pin_cpu()
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        env=_program_env(), check=True, stdout=subprocess.DEVNULL,
    )
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = Run(args, workdir)
        try:
            WORKLOADS[args.workload](run)
        except RuntimeError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(run.latencies) < 2:
        print("error: fewer than two operations completed", file=sys.stderr)
        return 1
    run.mismatches += oracle.check(run.outputs)
    for message in (run.errors + run.mismatches)[:10]:
        print(f"problem: {message}", file=sys.stderr)
    metrics = per_layer(run) if args.trace else end_to_end(run)
    print(json.dumps({
        "correct": not run.mismatches,
        "attempted": len(run.latencies) + run.failed,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
