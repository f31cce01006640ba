"""Command-line interface: ``python -m repro`` / ``repro-edf``.

Subcommands:

* ``analyze`` — run a feasibility test on a task-set JSON file;
* ``generate`` — produce a random task set (Bini-style) as JSON;
* ``simulate`` — EDF-simulate a task-set JSON file and report misses;
* ``bounds`` — print all feasibility bounds of a task set side by side;
* ``example`` — print or export one of the literature example systems;
* ``experiment`` — regenerate a paper figure/table (fig1, fig8, fig9,
  figm, table1) as a text report;
* ``partition`` — pack a task set onto ``m`` identical cores (or search
  the minimum ``m``) and verify the assignment per core;
* ``serve`` — run the long-lived analysis service (persistent result
  store + async job queue + HTTP JSON API);
* ``submit`` / ``status`` / ``fetch`` — talk to a running service:
  submit task-set files as a job, wait for it (polling only if the
  server did not finish it within the submit), print its results;
* ``trace`` — generate an arrival trace (Poisson, bursty, ramp, churn)
  for the online admission layer;
* ``replay`` — replay a trace through an admission controller (or an
  online multiprocessor placer with ``--cores``), with an optional
  per-event parity oracle;
* ``admit`` — one-shot admission check of candidate task(s) against a
  base system;
* ``fleet`` — the fault-tolerant analysis fleet: ``coordinate`` runs a
  server that shards campaigns across registered workers, ``worker``
  runs one shard executor (with optional ``--faults`` chaos injection),
  ``workers`` prints a coordinator's membership table, ``status`` the
  live health view (heartbeat/scrape ages, shards in flight, RSS);
* ``obs`` — observability of a running service: scrape ``/v1/metrics``
  (Prometheus text or JSON) or tail the structured event stream;
  ``fleet-metrics``/``fleet-events`` read the coordinator's merged
  per-worker telemetry instead of the server's own.

``--cache-stats`` on the analysis-heavy commands prints the engine's
shared-preflight cache counters after the run; ``--metrics-out FILE``
on ``analyze``/``experiment``/``replay`` dumps the in-process metrics
registry as JSON when the run finishes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING, Any, List, Optional

from . import __version__
from .analysis.bounds import BoundMethod, compare_bounds
from .engine import (
    AnalysisRequest,
    BatchRunner,
    analyze,
    context_cache_info,
    default_jobs,
    default_registry,
)
from .engine.registry import HEURISTICS
from .kernel import backend_info
from .model import (
    SporadicTask,
    TaskSet,
    as_components,
    dump_system,
    dump_taskset,
    dump_trace,
    dumps_trace,
    load_any,
    load_taskset,
    load_trace,
    taskset_to_dict,
)

# The layers of one subcommand (the HTTP service, the experiments,
# partitioning, online admission, generation, the simulator) are
# imported when a subcommand that uses them runs, and ``main`` builds
# only that subcommand's parser, so ``analyze`` does not pay for
# ``serve``.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from .service import ServiceClient

__all__ = ["main", "build_parser"]


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI's parser: the full one, or with *command* (a subcommand
    name) one that builds only that subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="repro-edf",
        description=(
            "Efficient feasibility analysis for EDF-scheduled real-time "
            "systems (Albers & Slomka, DATE 2005)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    # A one-command parser's usage line still names every command.
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        add, _ = _COMMANDS[name]
        add(sub)
    return parser


def _add_analyze(sub: argparse._SubParsersAction) -> None:
    p_analyze = sub.add_parser("analyze", help="run a feasibility test on a task set")
    p_analyze.add_argument("file", help="task set JSON (see 'generate')")
    p_analyze.add_argument(
        "--test",
        default="all-approx",
        choices=default_registry().names(),
        help="feasibility test to run (default: all-approx)",
    )
    p_analyze.add_argument(
        "--level", type=int, default=None, help="level for --test superpos"
    )
    p_analyze.add_argument(
        "--cores",
        type=int,
        default=None,
        help="core count for the multiprocessor tests "
        "(partitioned-edf, global-edf-*)",
    )
    p_analyze.add_argument(
        "--bound-method",
        default=None,
        choices=[m.value for m in BoundMethod],
        help="feasibility bound for tests that take one",
    )
    p_analyze.add_argument(
        "--all", action="store_true", help="run every test and tabulate"
    )
    p_analyze.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for --all (default: REPRO_JOBS / CPU count)",
    )
    p_analyze.add_argument(
        "--cache-stats",
        action="store_true",
        help="print the engine's context-cache counters after the run",
    )
    p_analyze.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage span profile (preflight/kernel) "
        "after the run",
    )
    p_analyze.add_argument(
        "--profile-out",
        default=None,
        metavar="FILE",
        help="additionally write the profile report as JSON",
    )
    _add_metrics_out_option(p_analyze)


def _add_generate(sub: argparse._SubParsersAction) -> None:
    p_generate = sub.add_parser("generate", help="generate a random task set")
    p_generate.add_argument("--tasks", type=int, required=True)
    p_generate.add_argument("--utilization", type=float, required=True)
    p_generate.add_argument(
        "--periods", type=int, nargs=2, default=(1_000, 100_000), metavar=("LO", "HI")
    )
    p_generate.add_argument(
        "--gap", type=float, nargs=2, default=(0.0, 0.4), metavar=("LO", "HI")
    )
    p_generate.add_argument("--seed", type=int, default=None)
    p_generate.add_argument("-o", "--output", default=None, help="write JSON here")


def _add_simulate(sub: argparse._SubParsersAction) -> None:
    p_sim = sub.add_parser("simulate", help="EDF-simulate a task set")
    p_sim.add_argument("file")
    p_sim.add_argument(
        "--horizon", type=int, default=None, help="override the busy-period window"
    )


def _add_bounds(sub: argparse._SubParsersAction) -> None:
    p_bounds = sub.add_parser("bounds", help="compare feasibility bounds")
    p_bounds.add_argument("file")


def _add_example(sub: argparse._SubParsersAction) -> None:
    p_example = sub.add_parser("example", help="show a literature example system")
    p_example.add_argument(
        "name", nargs="?", default=None, help="omit to list available examples"
    )
    p_example.add_argument("-o", "--output", default=None, help="export as JSON")


def _add_experiment(sub: argparse._SubParsersAction) -> None:
    p_exp = sub.add_parser("experiment", help="regenerate a paper figure/table")
    p_exp.add_argument("which", choices=["fig1", "fig8", "fig9", "figm", "table1"])
    p_exp.add_argument(
        "--csv",
        default=None,
        metavar="FILE",
        help="additionally write the raw series as CSV",
    )
    p_exp.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the battery (default: REPRO_JOBS / CPU count)",
    )
    p_exp.add_argument(
        "--cache-stats",
        action="store_true",
        help="print the engine's context-cache counters after the run",
    )
    _add_metrics_out_option(p_exp)


def _add_load(sub: argparse._SubParsersAction) -> None:
    p_load = sub.add_parser(
        "load", help="exact system load and sensitivity of a task set"
    )
    p_load.add_argument("file")


def _add_partition(sub: argparse._SubParsersAction) -> None:
    p_part = sub.add_parser(
        "partition",
        help="pack a task set onto m identical cores (partitioned EDF)",
    )
    p_part.add_argument(
        "file", help="task-set JSON (repro/taskset-v1) or system JSON "
        "(repro/system-v1, whose platform supplies the default core count)"
    )
    p_part.add_argument(
        "--cores",
        type=int,
        default=None,
        help="core count m (with --min-cores: the search ceiling)",
    )
    p_part.add_argument(
        "--min-cores",
        action="store_true",
        help="search the smallest m the heuristic can pack onto",
    )
    p_part.add_argument(
        "--heuristic",
        default="ffd",
        choices=HEURISTICS,
        help="bin-packing heuristic (default: ffd)",
    )
    p_part.add_argument(
        "--admission",
        default="approx-dbf",
        help="admission predicate: utilization, approx-dbf, exact-dbf, "
        "or any registered test name (default: approx-dbf)",
    )
    p_part.add_argument(
        "--epsilon",
        default=None,
        metavar="EPS",
        help="error bound of the approx-dbf admission, e.g. 0.1 or 1/10",
    )
    p_part.add_argument(
        "--verify",
        default="exact",
        choices=["exact", "simulation", "both", "none"],
        help="per-core verification to run on the assignment (default: exact)",
    )
    p_part.add_argument(
        "--search",
        default="auto",
        choices=["auto", "binary", "linear"],
        help="--min-cores strategy (auto: binary for ff/nf, linear otherwise)",
    )
    p_part.add_argument(
        "--repack",
        action="store_true",
        help="ignore the assignment stored in a repro/system-v1 input "
        "and pack afresh (the default is to verify the stored assignment)",
    )
    p_part.add_argument(
        "-o", "--output", default=None, help="write the packed system as JSON"
    )
    p_part.add_argument(
        "--cache-stats",
        action="store_true",
        help="print the engine's context-cache counters after the run",
    )


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p_serve = sub.add_parser(
        "serve",
        help="run the analysis service (persistent store + job queue + HTTP)",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port",
        type=int,
        default=8787,
        help="TCP port (0 picks an ephemeral port; the chosen one is printed)",
    )
    p_serve.add_argument(
        "--store",
        default="repro-results.sqlite",
        help="SQLite result-store path ('none' serves without persistence)",
    )
    p_serve.add_argument(
        "--max-rows",
        type=int,
        default=100_000,
        help="result-store LRU eviction threshold",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="concurrent jobs (queue worker threads)",
    )
    p_serve.add_argument(
        "--shard-size",
        type=int,
        default=32,
        help="requests per execution shard (progress/cancel granularity)",
    )
    p_serve.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker *processes* per shard (default 1: in-process, "
        "which keeps the context cache warm)",
    )
    p_serve.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="append structured events to this JSONL journal "
        "(size-capped, rotates to FILE.1, FILE.2, ...)",
    )
    p_serve.add_argument(
        "--span-journal",
        default=None,
        metavar="FILE",
        help="append finished tracing spans to this JSONL journal "
        "(size-capped, rotates like --journal)",
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )


def _add_submit(sub: argparse._SubParsersAction) -> None:
    p_submit = sub.add_parser(
        "submit", help="submit task-set file(s) to a running service"
    )
    p_submit.add_argument("files", nargs="+", help="task-set/system JSON file(s)")
    _add_url_option(p_submit)
    p_submit.add_argument(
        "--test",
        default="all-approx",
        choices=default_registry().names(),
        help="feasibility test to run (default: all-approx)",
    )
    p_submit.add_argument(
        "--level", type=int, default=None, help="level for --test superpos"
    )
    p_submit.add_argument(
        "--cores",
        type=int,
        default=None,
        help="core count for the multiprocessor tests",
    )
    p_submit.add_argument(
        "--bound-method",
        default=None,
        choices=[m.value for m in BoundMethod],
        help="feasibility bound for tests that take one",
    )
    p_submit.add_argument(
        "--no-wait",
        action="store_true",
        help="print the job id and return instead of waiting for results",
    )
    p_submit.add_argument(
        "--profile",
        action="store_true",
        help="opt the job into the server-side span profiler and print "
        "the per-stage report with the results",
    )
    p_submit.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="seconds to wait for completion (with the default waiting mode)",
    )


def _add_trace(sub: argparse._SubParsersAction) -> None:
    from .generation import TRACE_SCENARIOS

    p_trace = sub.add_parser(
        "trace", help="generate an arrival trace for the online admission layer"
    )
    p_trace.add_argument(
        "--scenario",
        default="churn",
        choices=TRACE_SCENARIOS,
        help="workload shape (default: churn)",
    )
    p_trace.add_argument(
        "--events", type=int, required=True, help="number of events"
    )
    p_trace.add_argument(
        "--utilization",
        type=float,
        default=None,
        help="target utilization the churn scenario hovers at",
    )
    p_trace.add_argument(
        "--mixed-types",
        action="store_true",
        help="rotate task parameters through int/float/Fraction",
    )
    p_trace.add_argument("--seed", type=int, default=None)
    p_trace.add_argument("-o", "--output", default=None, help="write JSON here")


def _add_replay(sub: argparse._SubParsersAction) -> None:
    p_replay = sub.add_parser(
        "replay", help="replay an arrival trace through an admission controller"
    )
    p_replay.add_argument("trace", help="trace JSON (repro/trace-v1, see 'trace')")
    p_replay.add_argument(
        "--base", default=None, help="task-set JSON seeding the initial system"
    )
    p_replay.add_argument(
        "--oracle",
        action="store_true",
        help="assert per-event verdict parity against from-scratch engine "
        "analysis (slow; the correctness harness)",
    )
    p_replay.add_argument(
        "--oracle-test",
        default="qpa",
        choices=("qpa", "processor-demand"),
        help="exact test the oracle re-runs (default: qpa)",
    )
    p_replay.add_argument(
        "--per-event", action="store_true", help="print one line per event"
    )
    p_replay.add_argument(
        "--cores",
        type=int,
        default=None,
        help="route arrivals onto m cores (online multiprocessor placement)",
    )
    p_replay.add_argument(
        "--heuristic",
        default="ff",
        choices=("ff", "bf", "wf"),
        help="core probe order for --cores (default: ff)",
    )
    _add_metrics_out_option(p_replay)


def _add_admit(sub: argparse._SubParsersAction) -> None:
    p_admit = sub.add_parser(
        "admit", help="admission-check candidate task(s) against a base system"
    )
    p_admit.add_argument("base", help="task-set JSON of the running system")
    p_admit.add_argument(
        "--task",
        nargs=3,
        metavar=("C", "D", "T"),
        action="append",
        default=None,
        help="candidate (wcet deadline period); repeatable, admitted in order",
    )
    p_admit.add_argument(
        "--file",
        default=None,
        help="task-set JSON whose tasks are admitted in order",
    )


def _add_status(sub: argparse._SubParsersAction) -> None:
    p_status = sub.add_parser("status", help="show a submitted job's status")
    p_status.add_argument("job", nargs="?", default=None,
                          help="job id (omit to list all jobs)")
    _add_url_option(p_status)


def _add_fetch(sub: argparse._SubParsersAction) -> None:
    p_fetch = sub.add_parser("fetch", help="fetch a finished job's results")
    p_fetch.add_argument("job", help="job id")
    _add_url_option(p_fetch)
    p_fetch.add_argument(
        "--json",
        action="store_true",
        help="print raw repro/result-v1 documents instead of a table",
    )


def _add_fleet(sub: argparse._SubParsersAction) -> None:
    p_fleet = sub.add_parser(
        "fleet",
        help="fault-tolerant analysis fleet (coordinator + workers)",
    )
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)
    p_fc = fleet_sub.add_parser(
        "coordinate",
        help="run an analysis server that shards campaigns across "
        "registered fleet workers (degrades to local execution with none)",
    )
    p_fc.add_argument("--host", default="127.0.0.1", help="bind address")
    p_fc.add_argument(
        "--port",
        type=int,
        default=8787,
        help="TCP port (0 picks an ephemeral port; the chosen one is printed)",
    )
    p_fc.add_argument(
        "--store",
        default="repro-results.sqlite",
        help="SQLite result-store path ('none' serves without persistence)",
    )
    p_fc.add_argument(
        "--workers",
        type=int,
        default=1,
        help="concurrent jobs (queue worker threads)",
    )
    p_fc.add_argument(
        "--heartbeat-interval",
        type=float,
        default=2.0,
        help="seconds between expected worker heartbeats (default: 2)",
    )
    p_fc.add_argument(
        "--miss-budget",
        type=int,
        default=3,
        help="missed heartbeats tolerated before a worker is declared "
        "dead (default: 3)",
    )
    p_fc.add_argument(
        "--fleet-shard-size",
        type=int,
        default=8,
        help="target requests per dispatched shard (default: 8)",
    )
    p_fc.add_argument(
        "--shard-timeout",
        type=float,
        default=60.0,
        help="per-shard dispatch timeout in seconds (default: 60)",
    )
    p_fc.add_argument(
        "--retries",
        type=int,
        default=3,
        help="transient-failure retries per shard before dead-lettering "
        "(default: 3)",
    )
    p_fc.add_argument(
        "--balance-factor",
        type=float,
        default=1.25,
        help="placement load cap as a multiple of the fair share; "
        "1.0 balances hardest, larger favors cache affinity "
        "(default: 1.25)",
    )
    p_fc.add_argument(
        "--scrape-interval",
        type=float,
        default=None,
        help="seconds between telemetry scrapes of each alive worker "
        "(default: 2x the heartbeat interval)",
    )
    p_fc.add_argument(
        "--scrape-timeout",
        type=float,
        default=5.0,
        help="per-request timeout for one telemetry scrape (default: 5)",
    )
    p_fc.add_argument(
        "--stale-ttl",
        type=float,
        default=300.0,
        help="seconds a dead worker's series stay in the fleet view "
        "(marked stale) before expiring (default: 300)",
    )
    p_fc.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="append structured events to this JSONL journal",
    )
    p_fc.add_argument(
        "--span-journal",
        default=None,
        metavar="FILE",
        help="append finished tracing spans to this JSONL journal",
    )
    p_fc.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    p_fw = fleet_sub.add_parser(
        "worker",
        help="run one shard-executing fleet worker against a coordinator",
    )
    p_fw.add_argument(
        "--coordinator",
        default="http://127.0.0.1:8787",
        help="coordinator base URL (default: http://127.0.0.1:8787)",
    )
    p_fw.add_argument("--host", default="127.0.0.1", help="bind address")
    p_fw.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default 0: pick an ephemeral port)",
    )
    p_fw.add_argument(
        "--id",
        default=None,
        help="stable worker identity (default: w-<pid>-<random>)",
    )
    p_fw.add_argument(
        "--heartbeat-interval",
        type=float,
        default=2.0,
        help="seconds between heartbeats — use the coordinator's value",
    )
    p_fw.add_argument(
        "--faults",
        default=None,
        help="failure injection spec for chaos testing, e.g. "
        "'crash-on-shard=3,heartbeat-blackhole,stall-on-shard=2:5,"
        "http-503=4,scrape-503=2' (also read from REPRO_FLEET_FAULTS)",
    )
    p_fw.add_argument(
        "--sampler-interval",
        type=float,
        default=5.0,
        help="seconds between resource samples feeding the worker's "
        "RSS/fd/CPU gauges; 0 disables the sampler (default: 5)",
    )
    p_fleet_workers = fleet_sub.add_parser(
        "workers", help="show a coordinator's fleet membership"
    )
    _add_url_option(p_fleet_workers)
    p_fleet_status = fleet_sub.add_parser(
        "status",
        help="live fleet health: heartbeats, scrape ages, shards, RSS",
    )
    _add_url_option(p_fleet_status)
    p_fleet_status.add_argument(
        "--watch",
        action="store_true",
        help="keep refreshing the table until interrupted",
    )
    p_fleet_status.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="--watch refresh interval in seconds (default: 2)",
    )


def _add_obs(sub: argparse._SubParsersAction) -> None:
    p_obs = sub.add_parser(
        "obs", help="observability of a running service (metrics, events)"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_obs_metrics = obs_sub.add_parser(
        "metrics", help="scrape /v1/metrics from a running service"
    )
    _add_url_option(p_obs_metrics)
    p_obs_metrics.add_argument(
        "--json",
        action="store_true",
        help="print the JSON snapshot instead of Prometheus text",
    )
    p_obs_events = obs_sub.add_parser(
        "events", help="read the structured event stream (one JSON per line)"
    )
    _add_url_option(p_obs_events)
    p_obs_events.add_argument(
        "--since", type=int, default=0, help="start cursor (default: 0)"
    )
    p_obs_events.add_argument(
        "--limit", type=int, default=500, help="events per page (default: 500)"
    )
    p_obs_events.add_argument(
        "--follow",
        action="store_true",
        help="keep polling for new events until interrupted",
    )
    p_obs_events.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="--follow poll interval in seconds (default: 1)",
    )
    p_obs_fleet_metrics = obs_sub.add_parser(
        "fleet-metrics",
        help="scrape the fleet-aggregated /v1/fleet/metrics view "
        "(per-worker labeled series + scrape rollups)",
    )
    _add_url_option(p_obs_fleet_metrics)
    p_obs_fleet_metrics.add_argument(
        "--json",
        action="store_true",
        help="print the JSON snapshot instead of Prometheus text",
    )
    p_obs_fleet_events = obs_sub.add_parser(
        "fleet-events",
        help="read the merged worker event stream (worker= provenance)",
    )
    _add_url_option(p_obs_fleet_events)
    p_obs_fleet_events.add_argument(
        "--since", type=int, default=0, help="start cursor (default: 0)"
    )
    p_obs_fleet_events.add_argument(
        "--limit", type=int, default=500, help="events per page (default: 500)"
    )
    p_obs_fleet_events.add_argument(
        "--follow",
        action="store_true",
        help="keep polling for new events until interrupted",
    )
    p_obs_fleet_events.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="--follow poll interval in seconds (default: 1)",
    )
    p_obs_trace = obs_sub.add_parser(
        "trace",
        help="reconstruct a span tree from a running service "
        "(omit the id to list recent traces)",
    )
    p_obs_trace.add_argument(
        "trace_id",
        nargs="?",
        default=None,
        help="trace id (32 hex chars, printed by 'submit' and in job "
        "documents); omit to list recent traces",
    )
    _add_url_option(p_obs_trace)
    p_obs_trace.add_argument(
        "--limit",
        type=int,
        default=20,
        help="traces to list when no id is given (default: 20)",
    )
    p_obs_trace.add_argument(
        "--json",
        action="store_true",
        help="print raw span records instead of the rendered tree",
    )
    p_obs_trace.add_argument(
        "--profile",
        action="store_true",
        help="print the aggregated per-stage profile instead of the tree",
    )


def _add_url_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--url",
        default="http://127.0.0.1:8787",
        help="service base URL (default: http://127.0.0.1:8787)",
    )


def _add_metrics_out_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the in-process metrics registry as JSON after the run",
    )


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A known command needs only its own parser; --help, --version, no
    # command or an unknown one take the full parser.
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError, TimeoutError) + _service_error() as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def _service_client(url: str) -> ServiceClient:
    from .service import ServiceClient

    return ServiceClient(url)


def _service_error() -> tuple:
    """``ServiceError``, once a service command has imported it.

    Only those commands raise it, so ``main`` maps it to exit 2 without
    importing the service layer for every other command.
    """
    client = sys.modules.get(f"{__package__}.service.client")
    return (client.ServiceError,) if client is not None else ()


def _dispatch(args: argparse.Namespace) -> int:
    _, run = _COMMANDS[args.command]
    code = run(args)
    # Both honour their flag only where the command has it.
    _print_cache_stats(args)
    _dump_metrics(args)
    return code


def _dump_metrics(args: argparse.Namespace) -> None:
    """Honour ``--metrics-out`` where the flag exists."""
    path = getattr(args, "metrics_out", None)
    if not path:
        return
    from pathlib import Path

    from .obs import registry as obs_registry

    Path(path).write_text(
        json.dumps(
            {"metrics": obs_registry().snapshot()}, indent=2, sort_keys=True
        ),
        encoding="utf-8",
    )
    print(f"wrote metrics snapshot to {path}")


def _print_cache_stats(args: argparse.Namespace) -> None:
    """Honour ``--cache-stats`` where the flag exists."""
    if not getattr(args, "cache_stats", False):
        return
    info = context_cache_info()
    note = ""
    # Batch fan-out (analyze --all, experiment) may have executed in
    # worker processes, whose caches die with them — the parent-side
    # counters below then understate the work that was actually cached.
    fanned_out = getattr(args, "all", False) or args.command == "experiment"
    jobs = args.jobs if getattr(args, "jobs", None) is not None else default_jobs()
    if fanned_out and jobs > 1:
        note = " (parallel workers kept their own caches)"
    print(
        f"context cache: hits={info['hits']} misses={info['misses']} "
        f"size={info['size']}/{info['max_size']}{note}"
    )
    kernel = backend_info()
    numpy = "installed" if kernel["numpy"] else "not installed"
    print(
        f"kernel walks: calls={kernel['calls']} "
        f"fallbacks={kernel['fallbacks']} (numpy {numpy})"
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    if not (args.profile or args.profile_out):
        return _run_analyze(args)
    from pathlib import Path

    from .obs import profile_spans, render_profile, span, span_log

    log = span_log()
    cursor = log.last_seq
    # The root span originates the trace every engine/kernel span of
    # this invocation (including multiprocessing chunks) attaches to.
    with span("cli.analyze", file=args.file) as root:
        code = _run_analyze(args)
    if root is None:
        print(
            "profile unavailable: observability is disabled (REPRO_OBS=off)",
            file=sys.stderr,
        )
        return code
    spans, _ = log.since(cursor, limit=1 << 30)
    report = profile_spans(
        [s for s in spans if s.get("trace_id") == root.trace_id]
    )
    print()
    print(render_profile(report))
    if args.profile_out:
        Path(args.profile_out).write_text(
            json.dumps(report, indent=2, sort_keys=True), encoding="utf-8"
        )
        print(f"wrote profile to {args.profile_out}")
    return code


def _run_analyze(args: argparse.Namespace) -> int:
    tasks = load_taskset(args.file)
    registry = default_registry()
    if args.all:
        # Every registered test whose required options are satisfied —
        # --cores unlocks the multiprocessor tests — as one engine
        # batch (parallel when workers are available).
        names = []
        requests = []
        for definition in registry.definitions():
            options = {}
            if args.cores is not None and definition.option("cores") is not None:
                options["cores"] = args.cores
            satisfied = all(
                not spec.required or spec.name in options
                for spec in definition.options
            )
            if not satisfied:
                continue
            names.append(definition.name)
            requests.append(
                AnalysisRequest(source=tasks, test=definition.name, options=options)
            )
        runner = BatchRunner(jobs=args.jobs)
        results = runner.run(requests)
        print(f"{'test':>18s}  {'verdict':>10s}  {'iterations':>10s}")
        worst = 0
        for name, result in zip(names, results):
            print(f"{name:>18s}  {str(result.verdict):>10s}  {result.iterations:>10d}")
            if result.is_infeasible:
                worst = 1
        return worst
    if args.test == "superpos" and args.level is None:
        print("error: --test superpos requires --level", file=sys.stderr)
        return 2
    options = {}
    if args.level is not None:
        options["level"] = args.level
    if args.cores is not None:
        options["cores"] = args.cores
    if args.bound_method is not None:
        options["bound_method"] = args.bound_method
    result = analyze(tasks, args.test, **options)
    print(result)
    if result.witness is not None:
        print(
            f"  witness: demand {result.witness.demand} > interval "
            f"{result.witness.interval} (exact={result.witness.exact})"
        )
    return 0 if not result.is_infeasible else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    from .generation import generate_taskset

    tasks = generate_taskset(
        n=args.tasks,
        utilization=args.utilization,
        period_range=tuple(args.periods),
        gap=tuple(args.gap),
        seed=args.seed,
    )
    if args.output:
        dump_taskset(tasks, args.output)
        print(f"wrote {len(tasks)} tasks (U={float(tasks.utilization):.4f}) to {args.output}")
    else:
        print(json.dumps(taskset_to_dict(tasks), indent=2))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .sim import simulate_feasibility

    tasks = load_taskset(args.file)
    result = simulate_feasibility(tasks, horizon=args.horizon)
    print(result)
    return 0 if result.is_feasible else 1


def _cmd_bounds(args: argparse.Namespace) -> int:
    tasks = load_taskset(args.file)
    for name, value in compare_bounds(tasks).items():
        if value is None:
            shown = "n/a (U >= 1)"
        elif isinstance(value, int):
            shown = str(value)
        else:
            shown = f"{float(value):.2f} (exact: {value})"
        print(f"{name:>14s}: {shown}")
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    from .generation import example_systems

    systems = example_systems()
    if args.name is None:
        for name in systems:
            print(name)
        return 0
    if args.name not in systems:
        print(
            f"error: unknown example {args.name!r}; available: {', '.join(systems)}",
            file=sys.stderr,
        )
        return 2
    system = systems[args.name]
    if isinstance(system, TaskSet):
        if args.output:
            dump_taskset(system, args.output)
            print(f"wrote {args.name} to {args.output}")
        else:
            print(system.summary())
    else:
        if args.output:
            print(
                "error: event-stream examples cannot be exported as task-set JSON",
                file=sys.stderr,
            )
            return 2
        for entry in system:
            print(f"  {entry!r}")
        print(f"  ({len(as_components(system))} demand components)")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .experiments import (
        Fig1Config,
        Fig8Config,
        Fig9Config,
        FigMConfig,
        render_fig1,
        render_fig8,
        render_fig9,
        render_figm,
        render_table1,
        rows_to_csv,
        run_fig1,
        run_fig8,
        run_fig9,
        run_figm,
        run_table1,
    )

    runner = BatchRunner(jobs=args.jobs) if args.jobs is not None else None
    if args.which == "table1":
        rows = run_table1(runner=runner)
        print(render_table1(rows))
        if args.csv:
            Path(args.csv).write_text(
                rows_to_csv(
                    ["system", "devi", "dynamic", "all_approx", "processor_demand"],
                    [
                        [
                            r.system,
                            "FAILED" if r.devi is None else r.devi,
                            r.dynamic,
                            r.all_approx,
                            r.processor_demand,
                        ]
                        for r in rows
                    ],
                ),
                encoding="utf-8",
            )
        return 0
    runners = {
        "fig1": (run_fig1, render_fig1, Fig1Config(), "acceptance_rate"),
        "fig8": (run_fig8, render_fig8, Fig8Config(), "mean_iterations"),
        "fig9": (run_fig9, render_fig9, Fig9Config(), "mean_iterations"),
        "figm": (run_figm, render_figm, FigMConfig(), "acceptance_rate"),
    }
    run, render, config, metric = runners[args.which]
    aggregated = run(config, runner=runner)
    print(render(aggregated))
    if args.csv:
        tests = sorted({t for stats in aggregated.values() for t in stats})
        rows = []
        for group in sorted(aggregated):
            row = [group]
            for test in tests:
                stats = aggregated[group].get(test)
                row.append(stats[metric] if stats else "")
            rows.append(row)
        Path(args.csv).write_text(
            rows_to_csv(["group"] + tests, rows), encoding="utf-8"
        )
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    from .analysis import critical_scaling_factor, system_load

    tasks = load_taskset(args.file)
    load = system_load(tasks)
    print(f"utilization      : {float(tasks.utilization):.6f}")
    print(f"system load      : {float(load):.6f} (exact: {load})")
    factor = critical_scaling_factor(tasks)
    if factor is not None:
        print(f"critical scaling : {float(factor):.6f} (exact: {factor})")
    print("verdict          : " + ("feasible" if load <= 1 else "infeasible"))
    return 0 if load <= 1 else 1


def _cmd_partition(args: argparse.Namespace) -> int:
    from .partition import PartitionedSystem, minimum_cores, pack, verify_partition

    source = load_any(args.file)
    if isinstance(source, PartitionedSystem):
        tasks, default_cores = source.tasks, source.cores
    else:
        tasks, default_cores = source, None
    epsilon = Fraction(args.epsilon) if args.epsilon is not None else None
    cores = args.cores if args.cores is not None else default_cores

    if args.min_cores:
        # Only an *explicit* --cores caps the search; a system file's
        # platform size is where a previous packing landed, not a
        # ceiling the user asked for.
        found = minimum_cores(
            tasks,
            args.heuristic,
            args.admission,
            max_cores=args.cores,
            strategy=args.search,
            epsilon=epsilon,
        )
        trail = ", ".join(
            f"{m}:{'ok' if success else 'no'}" for m, success in found.attempts
        )
        print(f"lower bound (ceil U) : {found.lower_bound}")
        print(f"search               : {found.strategy} [{trail}]")
        print(f"admission calls      : {found.admission_calls}")
        if not found.found:
            print("minimum cores        : not found (ceiling exhausted "
                  "or a task is inadmissible alone)")
            return 1
        print(f"minimum cores        : {found.cores}")
        result = found.packing
    elif (
        isinstance(source, PartitionedSystem)
        and source.is_complete
        and not args.repack
        and (args.cores is None or args.cores == source.cores)
    ):
        # A finished system-v1 document: honour its assignment instead
        # of silently re-packing, so an exported partition re-verifies
        # as stored.
        print("using the stored assignment (pass --repack to pack afresh)")
        result = None
    else:
        if (
            isinstance(source, PartitionedSystem)
            and not args.repack
            and any(a is not None for a in source.assignment)
        ):
            # Never discard a stored assignment without saying so.
            why = (
                "it is incomplete"
                if not source.is_complete
                else f"--cores {args.cores} differs from its "
                f"{source.cores}-core platform"
            )
            print(f"stored assignment ignored ({why}); packing afresh")
        if cores is None:
            print(
                "error: --cores is required (or pass a repro/system-v1 file "
                "with a platform, or use --min-cores)",
                file=sys.stderr,
            )
            return 2
        result = pack(
            tasks, cores, args.heuristic, args.admission, epsilon=epsilon
        )

    system = source if result is None else result.system
    print(system.summary())
    if result is not None:
        print(
            f"packing              : {result.heuristic} + {result.admission}, "
            f"{result.admission_calls} admission calls"
        )
    code = 0
    if result is not None and not result.success:
        print(f"verdict              : {len(result.unassigned)} task(s) "
              "did not fit")
        code = 1
    elif args.verify != "none":
        verification = verify_partition(system, method=args.verify)
        for verdict in verification.cores:
            parts = []
            if verdict.exact is not None:
                parts.append(f"exact={verdict.exact.verdict}")
            if verdict.simulation is not None:
                parts.append(f"simulation={verdict.simulation.verdict}")
            if parts:
                print(f"  core {verdict.core} verification: "
                      + ", ".join(parts))
        print(f"verdict              : "
              + ("schedulable" if verification.ok else "NOT schedulable"))
        code = 0 if verification.ok else 1
    else:
        print("verdict              : packed (verification skipped)")
    if args.output:
        dump_system(system, args.output)
        print(f"wrote {args.output}")
    return code


def _cmd_trace(args: argparse.Namespace) -> int:
    from .generation import generate_trace

    options = {}
    if args.utilization is not None:
        if args.scenario != "churn":
            print(
                "error: --utilization only applies to the churn scenario",
                file=sys.stderr,
            )
            return 2
        options["target_utilization"] = args.utilization
    trace = generate_trace(
        args.scenario,
        args.events,
        seed=args.seed,
        mixed_types=args.mixed_types,
        **options,
    )
    if args.output:
        dump_trace(trace, args.output)
        print(
            f"wrote {len(trace)} events ({trace.arrivals} arrivals, "
            f"{trace.departures} departures) to {args.output}"
        )
    else:
        print(dumps_trace(trace))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .online import ARRIVE, AdmissionController, replay

    trace = load_trace(args.trace)
    if args.cores is not None:
        # Refuse silently dropping flags the placed mode does not honour.
        if args.oracle:
            print(
                "error: --oracle applies to single-controller replays, "
                "not --cores placement",
                file=sys.stderr,
            )
            return 2
        if args.base:
            print(
                "error: --base applies to single-controller replays, "
                "not --cores placement",
                file=sys.stderr,
            )
            return 2
        return _replay_placed(trace, args)
    controller = None
    if args.base:
        controller = AdmissionController(load_taskset(args.base))
    report = replay(
        trace,
        controller=controller,
        oracle=args.oracle,
        oracle_test=args.oracle_test,
    )
    if args.per_event:
        for record in report.records:
            decision = record.decision
            word = "admit " if decision.admitted else "reject"
            if record.event.kind != ARRIVE:
                word = "depart"
            print(
                f"  {record.index:>4d}  {word}  {decision.name:<12s} "
                f"{decision.stage:<16s} U={float(decision.utilization):.4f} "
                f"{decision.latency_seconds * 1e3:.3f}ms"
            )
    print(report.summary())
    return 0


def _replay_placed(trace, args: argparse.Namespace) -> int:
    from .online import ARRIVE, OnlinePlacer

    placer = OnlinePlacer(args.cores, heuristic=args.heuristic)
    for event in trace:
        if event.kind == ARRIVE:
            decision = placer.admit(event.task, name=event.name)
            if args.per_event:
                landed = (
                    f"core {decision.core}" if decision.placed else "rejected"
                )
                print(f"  {event.name:<12s} -> {landed} (probed {decision.probed})")
        elif event.name in placer:
            placer.remove(event.name)
    stats = placer.stats()
    print(
        f"placed {stats['placed']} tasks on {stats['cores']} cores "
        f"({stats['heuristic']}); rejections: {stats['rejections']}, "
        f"diversions: {stats['diversions']}"
    )
    for core, utilization in enumerate(stats["core_utilizations"]):
        print(f"  core {core}: U = {utilization:.4f}")
    # Rejections are an expected outcome of a replay, not a failure —
    # same exit semantics as the single-controller mode.
    return 0


def _cmd_admit(args: argparse.Namespace) -> int:
    from .online import AdmissionController

    base = load_taskset(args.base)
    controller = AdmissionController(base)
    candidates = []
    if args.file:
        candidates.extend(load_taskset(args.file))
    for c, d, t in args.task or []:
        candidates.append(
            SporadicTask(wcet=Fraction(c), deadline=Fraction(d), period=Fraction(t))
        )
    if not candidates:
        print("error: pass --task C D T and/or --file", file=sys.stderr)
        return 2
    code = 0
    for task in candidates:
        decision = controller.admit(task, name=task.name or None)
        word = "admitted" if decision.admitted else "REJECTED"
        print(
            f"{decision.name:<12s} {word:<9s} via {decision.stage:<16s} "
            f"U={float(decision.utilization):.4f} "
            f"({decision.latency_seconds * 1e3:.3f}ms)"
        )
        if not decision.admitted:
            code = 1
            if decision.witness is not None:
                print(
                    f"  witness: demand {decision.witness.demand} > interval "
                    f"{decision.witness.interval}"
                )
    print(
        f"system: {len(controller)} entries, "
        f"U = {float(controller.utilization):.4f}"
    )
    return code


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import AnalysisServer

    store = None if args.store == "none" else args.store
    runner = BatchRunner(jobs=args.jobs) if args.jobs is not None else None
    server = AnalysisServer(
        host=args.host,
        port=args.port,
        store=store,
        workers=args.workers,
        shard_size=args.shard_size,
        runner=runner,
        max_rows=args.max_rows,
        quiet=not args.verbose,
        journal=args.journal,
        span_journal=args.span_journal,
    )
    # Machine-readable first line: scripts (and the e2e test) parse the
    # URL, which matters when --port 0 picked an ephemeral port.
    print(f"serving on {server.url}", flush=True)
    print(
        "result store: " + (str(store) if store else "disabled"),
        flush=True,
    )
    if args.journal:
        print(f"event journal: {args.journal}", flush=True)
    if args.span_journal:
        print(f"span journal: {args.span_journal}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.close()
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    if args.fleet_command == "coordinate":
        return _cmd_fleet_coordinate(args)
    if args.fleet_command == "worker":
        return _cmd_fleet_worker(args)
    if args.fleet_command == "workers":
        return _cmd_fleet_workers(args)
    if args.fleet_command == "status":
        return _cmd_fleet_status(args)
    raise AssertionError(  # pragma: no cover
        f"unhandled fleet command {args.fleet_command}"
    )


def _cmd_fleet_coordinate(args: argparse.Namespace) -> int:
    from .fleet import Coordinator
    from .service import AnalysisServer

    store = None if args.store == "none" else args.store
    coordinator = Coordinator(
        heartbeat_interval=args.heartbeat_interval,
        miss_budget=args.miss_budget,
        shard_size=args.fleet_shard_size,
        shard_timeout=args.shard_timeout,
        retries=args.retries,
        balance_factor=args.balance_factor,
        scrape_interval=args.scrape_interval,
        scrape_timeout=args.scrape_timeout,
        stale_ttl=args.stale_ttl,
    )
    server = AnalysisServer(
        host=args.host,
        port=args.port,
        store=store,
        workers=args.workers,
        coordinator=coordinator,
        quiet=not args.verbose,
        journal=args.journal,
        span_journal=args.span_journal,
    )
    # Machine-readable first line, same contract as `serve`: scripts
    # (and the CI fleet smoke) parse the URL.
    print(f"serving on {server.url}", flush=True)
    print(
        f"fleet coordinator: heartbeat={args.heartbeat_interval:g}s "
        f"miss-budget={args.miss_budget} shard-size={args.fleet_shard_size} "
        f"retries={args.retries} scrape={coordinator.scraper.interval:g}s",
        flush=True,
    )
    print(
        "result store: " + (str(store) if store else "disabled"),
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.close()
    return 0


def _cmd_fleet_worker(args: argparse.Namespace) -> int:
    from .fleet import FaultPlan, FleetWorker

    faults = (
        FaultPlan.parse(args.faults)
        if args.faults is not None
        else FaultPlan.from_env()
    )
    worker = FleetWorker(
        coordinator_url=args.coordinator,
        host=args.host,
        port=args.port,
        worker_id=args.id,
        heartbeat_interval=args.heartbeat_interval,
        faults=faults,
        sampler_interval=(
            args.sampler_interval if args.sampler_interval > 0 else None
        ),
    )
    # Machine-readable first line: "worker <id> serving on <url>".
    print(f"worker {worker.id} serving on {worker.url}", flush=True)
    print(f"coordinator: {worker.coordinator_url}", flush=True)
    if faults.active:
        print(f"fault injection: {faults}", flush=True)
    try:
        worker.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        worker.close()
    return 0


def _scrape_age_of(telemetry: dict, worker_id: str) -> str:
    view = (telemetry.get("workers") or {}).get(worker_id) or {}
    age = view.get("last_scrape_age_seconds")
    return f"{age:.1f}" if age is not None else "-"


def _rss_mb_of(telemetry: dict, worker_id: str) -> str:
    view = (telemetry.get("workers") or {}).get(worker_id) or {}
    rss = view.get("rss_bytes")
    return f"{rss / (1024 * 1024):.1f}" if rss else "-"


def _cmd_fleet_workers(args: argparse.Namespace) -> int:
    with _service_client(args.url) as client:
        snapshot = client.fleet_workers()
    telemetry = snapshot.get("telemetry") or {}
    print(
        f"fleet of {len(snapshot['workers'])} worker(s), "
        f"{len(snapshot['alive'])} alive — heartbeat "
        f"{snapshot['heartbeat_interval']:g}s, miss budget "
        f"{snapshot['miss_budget']}, death after "
        f"{snapshot['death_timeout_seconds']:g}s"
    )
    print(
        f"{'worker':>16}  {'state':>6}  {'beats':>6}  {'age(s)':>8}  "
        f"{'done':>6}  {'failed':>6}  {'scrape(s)':>9}  {'rss(MB)':>8}"
    )
    for worker in snapshot["workers"]:
        print(
            f"{worker['worker']:>16}  {worker['state']:>6}  "
            f"{worker['heartbeats']:>6d}  "
            f"{worker['heartbeat_age_seconds']:>8.1f}  "
            f"{worker['shards_completed']:>6d}  {worker['shards_failed']:>6d}  "
            f"{_scrape_age_of(telemetry, worker['worker']):>9}  "
            f"{_rss_mb_of(telemetry, worker['worker']):>8}"
        )
    letters = snapshot.get("dead_letters", [])
    if letters:
        print(f"dead letters: {len(letters)}")
        for letter in letters:
            print(
                f"  {letter['shard']}: {len(letter['indices'])} request(s), "
                f"{letter['attempts']} attempts — {letter['reason']}"
            )
    return 0


def _print_fleet_status(snapshot: dict) -> None:
    telemetry = snapshot.get("telemetry") or {}
    inflight = telemetry.get("inflight") or {}
    views = telemetry.get("workers") or {}
    print(
        f"fleet of {len(snapshot['workers'])} worker(s), "
        f"{len(snapshot['alive'])} alive — scrape interval "
        f"{telemetry.get('scrape_interval_seconds', 0):g}s, stale TTL "
        f"{telemetry.get('stale_ttl_seconds', 0):g}s"
    )
    print(
        f"{'worker':>16}  {'state':>6}  {'beat(s)':>8}  {'scrape(s)':>9}  "
        f"{'done':>6}  {'inflight':>8}  {'rss(MB)':>8}"
    )
    for worker in snapshot["workers"]:
        worker_id = worker["worker"]
        view = views.get(worker_id) or {}
        state = worker["state"]
        if view.get("stale"):
            state += "*"
        print(
            f"{worker_id:>16}  {state:>6}  "
            f"{worker['heartbeat_age_seconds']:>8.1f}  "
            f"{_scrape_age_of(telemetry, worker_id):>9}  "
            f"{worker['shards_completed']:>6d}  "
            f"{inflight.get(worker_id, 0):>8d}  "
            f"{_rss_mb_of(telemetry, worker_id):>8}"
        )
    failures = sum(view.get("failures", 0) for view in views.values())
    print(
        f"events merged: {telemetry.get('events_merged', 0)}, "
        f"spans merged: {telemetry.get('spans_merged', 0)}, "
        f"scrape failures: {failures}"
        + ("  (* = series stale)" if any(
            view.get("stale") for view in views.values()
        ) else "")
    )


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    with _service_client(args.url) as client:
        try:
            while True:
                _print_fleet_status(client.fleet_workers())
                if not args.watch:
                    return 0
                sys.stdout.flush()
                time.sleep(args.interval)
                print()
        except KeyboardInterrupt:  # pragma: no cover - interactive
            return 0


def _job_options(args: argparse.Namespace) -> dict:
    options: dict = {}
    if args.level is not None:
        options["level"] = args.level
    if args.cores is not None:
        options["cores"] = args.cores
    if args.bound_method is not None:
        options["bound_method"] = args.bound_method
    return options


def _print_job_results(raw: dict) -> int:
    """Print a job's result document; the exit code of its verdicts."""
    print(f"{'tag':>6}  {'test':>18s}  {'verdict':>10s}  {'iterations':>10s}")
    worst = 0
    for entry in raw["results"]:
        if entry["verdict"] == "infeasible":
            worst = 1
        print(
            f"{str(entry['tag']):>6}  {entry['test']:>18s}  "
            f"{entry['verdict']:>10s}  {entry['iterations']:>10d}"
        )
    print(
        f"answered from store: {raw['from_store']}, "
        f"computed: {raw['computed']}"
    )
    return worst


def _cmd_submit(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .obs import span
    from .service import JobState

    options = _job_options(args)
    if args.test == "superpos" and args.level is None:
        print("error: --test superpos requires --level", file=sys.stderr)
        return 2
    requests = []
    for path in args.files:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        key = (
            "system"
            if isinstance(document, dict)
            and document.get("format") == "repro/system-v1"
            else "taskset"
        )
        requests.append({key: document, "test": args.test, "options": options})
    body: dict = {"requests": requests}
    if args.profile:
        body["profile"] = True
    # One root span for the whole submit/wait/fetch conversation: every
    # request carries its traceparent, so the server-side span tree
    # (HTTP handler → queue wait → engine → kernel) shares one trace id
    # — the one printed below and reconstructed by `repro obs trace`.
    with _service_client(args.url) as client, span(
        "cli.submit", files=len(args.files), test=args.test
    ):
        snapshot = client.submit_document(body)
        job_id = snapshot["job"]
        print(f"job {job_id} submitted ({snapshot['total']} analyses)")
        if snapshot.get("trace_id"):
            print(f"trace {snapshot['trace_id']}")
        if args.no_wait:
            return 0
        if snapshot["state"] not in JobState.TERMINAL:  # not done in the POST
            snapshot = client.wait(job_id, timeout=args.timeout)
        if snapshot["state"] != "done":
            print(
                f"error: job {job_id} ended {snapshot['state']}"
                + (f": {snapshot['error']}" if snapshot.get("error") else ""),
                file=sys.stderr,
            )
            return 2
        raw = client.raw_results(job_id)
        code = _print_job_results(raw)
        if args.profile:
            _print_remote_profile(raw.get("profile"))
        return code


def _print_remote_profile(report: Optional[dict]) -> None:
    from .obs import render_profile

    if report:
        print()
        print(render_profile(report))
    else:
        print(
            "no profile in the result document "
            "(server observability disabled?)",
            file=sys.stderr,
        )


def _cmd_status(args: argparse.Namespace) -> int:
    with _service_client(args.url) as client:
        if args.job is None:
            jobs = client.jobs()
            if not jobs:
                print("no jobs")
                return 0
            print(f"{'job':>14s}  {'state':>10s}  {'progress':>10s}  {'kind':>7s}")
            for snapshot in jobs:
                progress = f"{snapshot['done']}/{snapshot['total']}"
                print(
                    f"{snapshot['job']:>14s}  {snapshot['state']:>10s}  "
                    f"{progress:>10s}  {snapshot['kind']:>7s}"
                )
            return 0
        snapshot = client.status(args.job)
        for field in (
            "job",
            "kind",
            "state",
            "total",
            "done",
            "from_store",
            "computed",
            "error",
        ):
            print(f"{field:>12s}: {snapshot[field]}")
        latency = snapshot.get("queue_latency_seconds")
        if latency is not None:
            print(f"{'queue wait':>12s}: {latency:.6f}s")
        return 0 if snapshot["state"] != "failed" else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    with _service_client(args.url) as client:
        if args.obs_command == "metrics":
            if args.json:
                print(json.dumps(client.metrics(), indent=2, sort_keys=True))
            else:
                sys.stdout.write(client.metrics_text())
            return 0
        if args.obs_command == "fleet-metrics":
            if args.json:
                print(json.dumps(client.fleet_metrics(), indent=2, sort_keys=True))
            else:
                sys.stdout.write(client.fleet_metrics_text())
            return 0
        if args.obs_command == "trace":
            return _obs_trace(client, args)
        if args.obs_command == "fleet-events":
            return _obs_events(client, args, fetch=client.fleet_events)
        return _obs_events(client, args, fetch=client.events)


def _obs_trace(client: ServiceClient, args: argparse.Namespace) -> int:
    from .obs import profile_spans, render_profile, render_trace_tree

    if not args.trace_id:
        summaries = client.traces(limit=args.limit)
        if args.json:
            print(json.dumps(summaries, indent=2, sort_keys=True))
            return 0
        if not summaries:
            print("no traces retained by the server")
            return 0
        print(f"{'trace':>32s}  {'spans':>5s}  {'ms':>10s}  root")
        for entry in summaries:
            duration = entry.get("duration")
            rendered = f"{duration * 1000.0:10.3f}" if duration else " " * 10
            print(
                f"{entry['trace']:>32s}  {entry['spans']:>5d}  "
                f"{rendered}  {entry['root']}"
            )
        return 0
    spans = client.trace(args.trace_id)
    if args.json:
        print(json.dumps(spans, indent=2, sort_keys=True))
    elif args.profile:
        print(render_profile(profile_spans(spans)))
    else:
        print(render_trace_tree(spans))
    return 0


def _obs_events(
    client: ServiceClient, args: argparse.Namespace, fetch: Any = None
) -> int:
    from .service import ServiceError

    # Both event streams (/v1/events and /v1/fleet/events) share the
    # cursor-page protocol, so the follow loop is generic over *fetch*.
    if fetch is None:
        fetch = client.events
    cursor = args.since
    # In --follow mode one transient error (server restart, blip) is
    # retried after a delay; a second consecutive failure exits with
    # the cursor so `--since N` can resume without replay or loss.
    failed_once = False
    try:
        while True:
            try:
                page = fetch(since=cursor, limit=args.limit)
            except ServiceError as err:
                if not args.follow:
                    raise
                if failed_once:
                    print(f"error: {err}", file=sys.stderr)
                    print(
                        f"stream interrupted; resume with --since {cursor}",
                        file=sys.stderr,
                    )
                    return 2
                failed_once = True
                print(
                    f"warning: {err}; retrying in {args.interval:g}s",
                    file=sys.stderr,
                )
                time.sleep(args.interval)
                continue
            failed_once = False
            for event in page["events"]:
                print(json.dumps(event, sort_keys=True), flush=args.follow)
            cursor = page["next"]
            if not args.follow:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        if args.follow:
            print(f"resume with --since {cursor}", file=sys.stderr)
        return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    with _service_client(args.url) as client:
        raw = client.raw_results(args.job)
    if args.json:
        print(json.dumps(raw, indent=2))
        return 0
    return _print_job_results(raw)


#: Subcommand -> (the function adding its parser, the function running
#: it), in ``--help`` order.
_COMMANDS = {
    "analyze": (_add_analyze, _cmd_analyze),
    "generate": (_add_generate, _cmd_generate),
    "simulate": (_add_simulate, _cmd_simulate),
    "bounds": (_add_bounds, _cmd_bounds),
    "example": (_add_example, _cmd_example),
    "experiment": (_add_experiment, _cmd_experiment),
    "load": (_add_load, _cmd_load),
    "partition": (_add_partition, _cmd_partition),
    "serve": (_add_serve, _cmd_serve),
    "submit": (_add_submit, _cmd_submit),
    "trace": (_add_trace, _cmd_trace),
    "replay": (_add_replay, _cmd_replay),
    "admit": (_add_admit, _cmd_admit),
    "status": (_add_status, _cmd_status),
    "fetch": (_add_fetch, _cmd_fetch),
    "fleet": (_add_fleet, _cmd_fleet),
    "obs": (_add_obs, _cmd_obs),
}


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
