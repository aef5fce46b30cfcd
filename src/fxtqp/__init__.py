"""QP-based synthesis of safe controllers with fixed-time reach guarantees."""

from fxtqp.qp import (
    QpProblem,
    QpSolution,
    SolveStatus,
    solve_qp,
    brute_force_solve,
    kkt_residual,
    check_strict_complementarity,
)
from fxtqp.fxts import (
    FxtsGains,
    RegimeKind,
    alpha_from_deadline,
    worst_case,
    settling_time_bound,
    settling_time_bound_basic,
    gamma_roots,
    simulate_scalar_v,
)
from fxtqp.constraints import (
    ControlAffineSystem,
    SetFunction,
    InputBounds,
    qp_rows,
    finite_diff_gradient_check,
)
from fxtqp.controller import (
    SynthesisParams,
    SynthesisQp,
    ControlDecision,
    SolverFailure,
    assemble,
    synthesize,
    continuity_probe,
)
from fxtqp.simulation import (
    Phase,
    Schedule,
    Trace,
    Outcome,
    step_euler,
    run,
    monitor,
    trace_to_csv,
    trace_from_csv,
)

__version__ = "0.1.0"
