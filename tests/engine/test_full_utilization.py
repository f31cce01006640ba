"""Exact tests terminate at ``U = 1`` with one-shot components.

The busy-period fixed point that bounds these walks at ``U = 1`` never
converges when a one-shot cost is present; the input below once hung
every exact test.  It runs in a child process so a regression fails on
the timeout instead of stalling the suite.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

EXACT_TESTS = ("processor-demand", "qpa", "dynamic", "all-approx")

SCRIPT = textwrap.dedent(
    """
    import json, sys
    from repro.engine import analyze
    from repro.model.components import DemandComponent

    components = [
        DemandComponent(wcet=1, first_deadline=2, period=2),
        DemandComponent(wcet=1, first_deadline=2, period=2),
        DemandComponent(wcet=1, first_deadline=5),
    ]
    answers = {}
    for test in sys.argv[1:]:
        result = analyze(components, test=test)
        witness = result.witness
        answers[test] = [result.verdict.value, witness.interval, witness.demand]
    print(json.dumps(answers))
    """
)


def test_exact_tests_terminate_with_the_true_overflow():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, *EXACT_TESTS],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    answers = json.loads(completed.stdout)
    # dbf(6) = 3 + 3 + 1 = 7 > 6: the first overflow.
    assert answers == {test: ["infeasible", 6, 7] for test in EXACT_TESTS}
