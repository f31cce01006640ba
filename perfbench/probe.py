"""Traced stand-in for ``python -m repro <args>``.

Runs the program's CLI exactly as ``python -m repro`` does, but times
the import of the CLI module and the call of its ``main``, and appends
one JSON line per phase to the file named by ``PERFBENCH_PROBE_OUT``.
The import line is written before ``main`` runs, so a long-lived
``serve`` reports it too.
"""

import json
import os
import sys
import time


def _record(**fields) -> None:
    with open(os.environ["PERFBENCH_PROBE_OUT"], "a", encoding="utf-8") as out:
        out.write(json.dumps(fields) + "\n")


def main() -> int:
    start = time.perf_counter()
    from repro import cli

    _record(import_s=time.perf_counter() - start)
    call = time.perf_counter()
    code = cli.main(sys.argv[1:])
    _record(main_s=time.perf_counter() - call)
    return code


if __name__ == "__main__":
    sys.exit(main())
