"""Event-triggered robust MPC with constraint tightening.

The toolkit covers the full pipeline: polytope algebra and tightened-set
synthesis, the robust optimal-control QP, construction of hyper-
rectangular triggering sets by convex programs or linear-program
relaxations, and an event-triggered closed-loop simulator with runtime
decay certificates.
"""

from .geometry import (HyperRect, Polytope, Projection, pontryagin_diff,
                       shape_ratios, supports)
from .rmpc import InfeasibleState, MpcSolution, solve_rmpc
from .sim import (DisturbanceModel, SimTrace, run_closed_loop,
                  step_trigger_test, trigger_statistics)
from .solver import (QpProblem, SolveReport, Status, maximize_log_volume_batch,
                     solve_lp_batch, solve_qp)
from .tightening import (PlantModel, RmpcSetup, build_setup,
                         synthesize_nominal_gain, synthesize_tightening_gains)
from .trigger import (PrincipalPolytope, TriggerSchedule, assemble_principal,
                      build_schedule, construct_boxes, extended_plan)

__version__ = "0.1.0"

__all__ = [
    "HyperRect", "Polytope", "supports", "pontryagin_diff", "Projection",
    "shape_ratios",
    "QpProblem", "SolveReport", "Status", "solve_lp_batch", "solve_qp",
    "maximize_log_volume_batch",
    "PlantModel", "RmpcSetup", "synthesize_nominal_gain",
    "synthesize_tightening_gains", "build_setup",
    "MpcSolution", "InfeasibleState", "solve_rmpc",
    "PrincipalPolytope", "TriggerSchedule",
    "extended_plan", "assemble_principal", "construct_boxes", "build_schedule",
    "DisturbanceModel", "SimTrace", "step_trigger_test", "run_closed_loop",
    "trigger_statistics",
]
