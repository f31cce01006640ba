"""A program process of the in-process paths (``sweep``, ``fleet``).

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  The
process imports the program and builds the path's state, then answers
one operation per line of standard input until the input ends.  A line
is a JSON list of task sets; the answer is one JSON line with the
operation's raw times in seconds, its iterations and its verdicts (one
per task set and test, in order).  The first answer also carries the
import time.  ``run.py`` scales every time, calibrating while this
process is stopped.

    sweep  one operation = one task set through the paper's test battery
           (``experiments/harness.py`` ``paper_test_battery``), as the
           Figure 8 sweep evaluates one design point (``BatchRunner``).
    fleet  one operation = one campaign of the ``dynamic`` test
           (``Coordinator.run_campaign``), sharded over HTTP to two
           ``FleetWorker``s of this process, as in the CI fleet smoke;
           coordinator and workers keep the CLI's default fleet settings
           (heartbeats, scraping, resource sampling).
"""

from __future__ import annotations

import json
import sys
import time

#: (test, options) pairs each task set runs through.
TESTS = {
    "sweep": (
        ("devi", {}),
        ("dynamic", {}),
        ("all-approx", {}),
        ("processor-demand", {"bound_method": "baruah"}),
    ),
    "fleet": (("dynamic", {}),),
}
#: Tests that can only prove feasibility: their ``unknown`` claims
#: nothing.
SUFFICIENT = {"devi"}
#: Fleet workers, as in the CI fleet smoke.
WORKERS = 2


def main() -> int:
    workload = sys.argv[1]
    started = time.perf_counter()
    from repro import TaskSet
    from repro.engine import AnalysisRequest, BatchRunner

    if workload == "fleet":
        from repro.fleet import Coordinator, FleetWorker
        from repro.service import AnalysisServer
    imported = time.perf_counter()

    closers = []
    if workload == "sweep":
        call = BatchRunner(jobs=1).run
    else:
        coordinator = Coordinator()
        server = AnalysisServer(store=None, coordinator=coordinator).start()
        closers.append(server.close)
        for index in range(WORKERS):
            worker = FleetWorker(server.url, worker_id=f"w{index}", sampler_interval=5.0)
            closers.insert(0, worker.close)
            worker.start()
        call = coordinator.run_campaign

    answer_extra = {"import": imported - started}
    try:
        for line in sys.stdin:
            begin = time.perf_counter()
            requests = [
                AnalysisRequest(source=TaskSet.of(*map(tuple, tasks)), test=test, options=options)
                for tasks in json.loads(line)
                for test, options in TESTS[workload]
            ]
            entered = time.perf_counter()
            try:
                results = call(requests)
            except Exception as err:  # counted by run.py, and the run goes on
                answer = {"error": f"{type(err).__name__}: {err}"}
            else:
                end = time.perf_counter()
                answer = {
                    "latency": end - begin,
                    "call": end - entered,
                    "iterations": sum(result.iterations for result in results),
                    "verdicts": [result.verdict.value for result in results],
                }
            print(json.dumps({**answer, **answer_extra}), flush=True)
            answer_extra = {}
    finally:
        for close in closers:
            close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
