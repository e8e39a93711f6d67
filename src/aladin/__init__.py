"""Distributed and decentralized solver for partially separable NLPs.

Problems split into blocks f_i, g_i, h_i over local variables coupled only
through affine consensus rows sum_i A_i x_i = b.  The main solver alternates
independent proximal local solves with a centralized (or decentralized) convex
coordination QP; a consensus-ADMM baseline shares the same interface.
"""

from .expr import (
    DomainEvalError,
    Expression,
    VectorFunction,
    const,
    cos,
    evaluate,
    exp,
    expr_from_sexpr,
    gradient,
    jacobian,
    lagrangian_hessian,
    log,
    neg,
    param,
    sin,
    sqrt,
    square,
    var,
)
from .problem import (
    SeparableProblem,
    SolverOptions,
    Subproblem,
    load_problem_json,
    problem_from_dict,
    problem_to_dict,
    set_parameters,
    validate,
)
from .local import LocalSolution, solve_local
from .sensitivity import (
    ReducedBlock,
    SensitivityPack,
    bfgs_update,
    nullspace_basis,
    reduce_block,
    regularize,
    schur_contribution,
)
from .coordination import (
    CoordinationResult,
    ScalingState,
    solve_coordination_reduced,
    update_delta_by_violation,
    update_sigma,
)
from .decentral import (
    MessageLog,
    Topology,
    build_topology,
    run_dadmm,
    run_dcg,
    topology_from_rows,
    warm_start,
)
from .driver import (
    IterateState,
    IterationLog,
    IterationRecord,
    Solution,
    run_admm,
    run_aladin,
)
from .errors import (
    InnerBreakdownError,
    LicqError,
    SingularKktError,
    SolverError,
)
from .examples_lib import EXAMPLE_NAMES, coupled_qp, example_library, ocp_chain, tutorial

__version__ = "0.1.0"
