"""Monte Carlo solver and verification harness for multi-dimensional
mean-field BSDEs with diagonally quadratic drivers.

The package namespace carries the names the README's library example, the
tests and ``perfbench/worker.py`` use; everything else is reached through
its module (``mfbsde.engine``, ``mfbsde.global_solver``, ...).
"""

from .benchmarks import (
    CATALOG,
    case_colehopf_diagonal,
    case_loggrowth,
    case_meanfield_linear,
    case_zero,
    check_oracle,
    make_case,
    oracle_errors,
    residual_self_check,
)
from .constants import (
    ConstantsLedger,
    apriori_lambda,
    c_delta_k_n,
    compute_ledger,
    contraction_coefficients,
    local_ball,
    local_step,
)
from .engine import (
    Ensemble,
    ProcessPair,
    RegressionBasis,
    TimeGrid,
    bmo_profile,
    default_basis,
    generate_ensemble,
    sup_norm_estimate,
)
from .errors import BlowUpError, ConfigError, TerminalBoundError
from .global_solver import (
    lambda_ball,
    plan_stitch,
    solve_auto,
    verify_apriori,
    verify_bmo_membership,
)
from .model import (
    Generator,
    ModelParams,
    TerminalCondition,
    run_checks,
    terminal_values,
)
from .picard import BallSpec, apply_gamma, contraction_report, picard_solve
from .qbsde1d import bound_y, bound_z, solve_1d, truncation_radius

__version__ = "0.1.0"
