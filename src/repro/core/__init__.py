"""The paper's contribution: fast exact EDF feasibility tests.

* :func:`~repro.core.superposition.superposition_test` — ``SuperPos(x)``,
  the adjustable sufficient approximation (Section 3.4).
* :func:`~repro.core.dynamic.dynamic_test` — the Dynamic Error exact test
  (Section 4.1, Figure 5).
* :func:`~repro.core.all_approx.all_approx_test` — the All-Approximated
  exact test (Section 4.2, Figure 7).
* :func:`~repro.analysis.bounds.superposition_bound` — the new
  feasibility bound (Section 4.3), re-exported here with
  :func:`~repro.analysis.bounds.compare_bounds`.
"""

from ..analysis.bounds import BoundMethod, compare_bounds, superposition_bound
from ..result import FailureWitness, FeasibilityResult, Verdict
from .all_approx import RevisionPolicy, all_approx_test
from .dynamic import LevelSchedule, dynamic_test
from .epsilon import approx_test_with_error, epsilon_to_level
from .superposition import (
    approximated_component_dbf,
    approximated_dbf,
    max_test_interval,
    superposition_test,
)

__all__ = [
    "superposition_test",
    "approximated_dbf",
    "approximated_component_dbf",
    "max_test_interval",
    "dynamic_test",
    "LevelSchedule",
    "all_approx_test",
    "RevisionPolicy",
    "approx_test_with_error",
    "epsilon_to_level",
    "superposition_bound",
    "compare_bounds",
    "BoundMethod",
    "FeasibilityResult",
    "FailureWitness",
    "Verdict",
]
