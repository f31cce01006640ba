#!/usr/bin/env python3
"""Online admission control: a live system deciding arrivals in real time.

Builds an admission controller over a resident task set, walks it
through individual arrivals (rejected at the utilization gate, or
decided by the windowed exact QPA walk, with its bound and the ``dbf``
evaluations it took), then replays a generated churn trace with the
from-scratch parity oracle on, and finally routes a burst of arrivals
onto a 2-core platform with online worst-fit placement.

The same loops from the shell:

    repro-edf trace --scenario churn --events 100 --seed 7 -o trace.json
    repro-edf replay trace.json --oracle
    repro-edf replay trace.json --cores 2 --heuristic wf
    repro-edf admit base.json --task 3 40 50

Run:  python examples/online_admission.py
"""

from repro.generation import churn_trace, generate_taskset
from repro.model import SporadicTask
from repro.online import AdmissionController, OnlinePlacer, Stage, replay

# ---------------------------------------------------------------------------
# 1. A live controller: admit, reject, depart
# ---------------------------------------------------------------------------

base = generate_taskset(n=12, utilization=0.6, seed=2005)
controller = AdmissionController(base)
print(f"resident system: {len(base)} tasks, U = {float(base.utilization):.3f}")

arrivals = [
    ("video", SporadicTask(wcet=2, deadline=30, period=40)),
    ("audio", SporadicTask(wcet=1, deadline=5, period=20)),
    ("hog", SporadicTask(wcet=45, deadline=80, period=100)),
]
for name, task in arrivals:
    decision = controller.admit(task, name=name)
    outcome = "admitted" if decision.admitted else "REJECTED"
    walk = ""
    if decision.stage == Stage.EXACT:
        walk = f", QPA bound {decision.bound}: {decision.iterations} dbf evaluations"
    print(
        f"  {name:<6s} {outcome:<9s} via {decision.stage:<16s} "
        f"U -> {float(decision.utilization):.3f} "
        f"({decision.latency_seconds * 1e3:.2f} ms{walk})"
    )
controller.remove("audio")
print(f"after audio departs: {len(controller)} entries, "
      f"U = {float(controller.utilization):.3f}")

# ---------------------------------------------------------------------------
# 2. Replaying a churn trace with the parity oracle
# ---------------------------------------------------------------------------

trace = churn_trace(80, seed=42, target_utilization=0.9)
report = replay(trace, oracle=True)
print()
print(report.summary())

# ---------------------------------------------------------------------------
# 3. Online multiprocessor placement
# ---------------------------------------------------------------------------

placer = OnlinePlacer(2, heuristic="wf")
for index in range(8):
    task = SporadicTask(wcet=1 + index % 3, deadline=16, period=20)
    decision = placer.admit(task, name=f"job{index}")
    landed = f"core {decision.core}" if decision.placed else "rejected"
    print(f"  job{index} -> {landed}")
stats = placer.stats()
print(
    f"placed {stats['placed']} on {stats['cores']} cores; "
    f"per-core U = {[round(u, 3) for u in stats['core_utilizations']]}"
)
system = placer.system()
print(f"exported: {system!r}")
