"""The controller's windowed use of the kernel's QPA walk.

The admission controller runs the engine's own backward walk,
``DemandKernel.qpa``, on the window an arrival can perturb.  These tests
pin the two properties the controller relies on: on a feasible system
plus one arrival, the walk windowed to the arrival's first deadline
decides exactly like the full walk, with the same witness, and the live
kernel's walks never load numpy.
"""

import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

from repro.analysis.bounds import BoundMethod
from repro.engine.context import AnalysisContext
from repro.generation import churn_trace
from repro.kernel import DemandKernel
from repro.model.components import as_components
from repro.online import ARRIVE, AdmissionController

#: The churn traces of test_replay_parity.py's TestChurnParity.
CHURN = {
    "u92": dict(
        events=220, seed=2005, target_utilization=0.92,
        per_task_utilization=(0.02, 0.2), period_range=(10, 2_000),
    ),
    "u95": dict(
        events=200, seed=77, target_utilization=0.95,
        per_task_utilization=(0.05, 0.3), period_range=(5, 500),
    ),
    "u90": dict(
        events=120, seed=31, target_utilization=0.9,
        per_task_utilization=(0.05, 0.25), period_range=(5, 400),
    ),
}


def test_windowed_qpa_walk_decides_like_the_full_walk():
    """On a feasible system plus one arrival, the walk windowed to
    ``[d0_new, bound]`` returns the full walk's verdict, a rejection the
    full walk's witness and iteration count, and an acceptance no more
    iterations (the soundness invariant of the controller's exact
    stage)."""
    outcomes = Counter()
    for config in CHURN.values():
        config = dict(config)
        trace = churn_trace(config.pop("events"), mixed_types=True, **config)
        controller = AdmissionController()
        for event in trace:
            if event.kind != ARRIVE:
                controller.remove(event.name, strict=False)
                continue
            arrival = as_components([event.task])
            system = list(controller.snapshot()) + arrival
            ctx = AnalysisContext.of(system)
            if ctx.utilization <= 1:
                bound = ctx.bound(BoundMethod.BEST)
                floor = min(c.first_deadline for c in arrival)
                kernel = DemandKernel(system)
                windowed = kernel.qpa(bound, floor=floor)
                full = kernel.qpa(bound)
                assert (windowed[0] == "infeasible") == (full[0] == "infeasible")
                if full[0] == "infeasible":
                    assert windowed == full, event.name
                else:
                    assert windowed[3] <= full[3]
                outcomes[full[0]] += 1
            controller.admit(event.task, name=event.name)
    assert outcomes["feasible"] > 0 and outcomes["infeasible"] > 0, outcomes


def test_admission_churn_leaves_numpy_unloaded():
    """A 200-task U=0.85 controller admitting and removing churn tasks
    decides every arrival on the exact stage and never imports numpy,
    although its QPA walks over 200 components clear the size rule that
    sends a compiled kernel's walks to numpy."""
    script = textwrap.dedent(
        """
        import random
        import sys

        from repro.generation import GeneratorConfig, TaskSetGenerator
        from repro.model.task import SporadicTask
        from repro.online import AdmissionController, Stage

        config = GeneratorConfig(
            tasks=(200, 200), utilization=(0.85, 0.85),
            period_range=(1_000, 100_000), gap=(0.1, 0.4),
        )
        controller = AdmissionController(TaskSetGenerator(config, seed=2205).one())
        rng = random.Random(97)
        for index in range(20):
            period = rng.randint(1_000, 100_000)
            wcet = max(1, int(period * 0.002))
            deadline = max(wcet, int(period * rng.uniform(0.7, 1.0)))
            task = SporadicTask(wcet=wcet, deadline=deadline, period=period)
            decision = controller.admit(task, name=f"churn{index}")
            assert decision.admitted and decision.stage == Stage.EXACT, decision
            controller.remove(f"churn{index}")
        print("numpy" in sys.modules)
        """
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"
