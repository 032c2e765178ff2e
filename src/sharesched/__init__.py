"""Scheduling jobs that share one continuously divisible resource.

Submodules:
    core      - jobs, step functions, schedules, objectives, validation, JSON
    waterfill - offline optimal makespan, online water-filling, universal shapes,
                flatness and extendability on one upper-area table
    linesched - priority-line schedules, duals, the alpha fixed point
    lp        - slot-discretized LP with a self-contained simplex
    tct       - greedy, lower bounds, exact/approximate line scheduling
    cli       - gen | run | verify | compare | plot; not imported with the
                package, so ``python -m sharesched.cli`` runs it only once
"""

from .core import (
    AlgorithmError,
    ContractError,
    DEFAULT_TOL,
    InstanceError,
    Job,
    JobSet,
    Schedule,
    StepFunction,
    ValidationReport,
    Violation,
    fractional_completion_time,
    jobs_from_json,
    jobs_to_json,
    makespan,
    schedule_from_json,
    schedule_to_json,
    sum_steps,
    total_completion_time,
    validate_schedule,
)
from .waterfill import (
    COMPETITIVE_RATIO,
    OnlineRun,
    UniversalSchedule,
    WaterfillOutcome,
    adversarial_instance,
    extendability_check,
    flatter_than_universal,
    is_flatter,
    optimal_makespan,
    upper_resource_distribution,
    waterfill_online,
    waterfill_step,
)
from .linesched import (
    ConvergenceError,
    DegenerateVolumesError,
    DualityQuantities,
    LineSchedule,
    SlacknessReport,
    build_line_schedule,
    check_slackness,
    cost_rates_on_grid,
    duality_quantities,
    solve_alpha,
)
from .lp import (
    InfeasibleInstanceError,
    LpInstance,
    LpSolution,
    SimplexError,
    SlotWidthError,
    build_discretized_lp,
    dense_simplex,
    dump_lp,
    lp_schedule,
    solve_lp,
)
from .tct import (
    BestReport,
    Bounds,
    LsApproxInfo,
    LsApproxParams,
    PipelineError,
    Subdivision,
    best_schedule,
    greedy,
    lower_bounds,
    ls_exact,
    lsapprox_report,
    subdivide,
)

__version__ = "0.1.0"
