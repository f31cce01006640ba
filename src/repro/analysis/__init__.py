"""Classic feasibility analysis substrate (paper Section 3).

This package contains everything the paper's new tests build on and
compare against: the demand bound function, the utilization test, Devi's
sufficient test, the exact processor demand test, the QPA comparator, and
the feasibility bounds including the busy period.
"""

from .bounds import (
    BoundMethod,
    baruah_bound,
    compare_bounds,
    feasibility_bound,
    george_bound,
    superposition_bound,
)
from .busy_period import busy_period_of_components, synchronous_busy_period
from .dbf import dbf, dbf_points, dbf_step_intervals, demand_profile, first_overflow
from .devi import devi_test
from .load import minimum_processor_speed, scaled_wcets, system_load
from .processor_demand import processor_demand_test
from .qpa import qpa_test
from .sensitivity import (
    critical_scaling_factor,
    minimum_feasible_deadline,
    wcet_slack,
)
from .utilization import liu_layland_test, utilization_of

__all__ = [
    "dbf",
    "dbf_points",
    "dbf_step_intervals",
    "demand_profile",
    "first_overflow",
    "devi_test",
    "liu_layland_test",
    "utilization_of",
    "processor_demand_test",
    "qpa_test",
    "synchronous_busy_period",
    "busy_period_of_components",
    "BoundMethod",
    "baruah_bound",
    "george_bound",
    "superposition_bound",
    "feasibility_bound",
    "compare_bounds",
    "system_load",
    "minimum_processor_speed",
    "scaled_wcets",
    "critical_scaling_factor",
    "wcet_slack",
    "minimum_feasible_deadline",
]
