"""HDMM core: error metrics, measurement, reconstruction, the mechanism."""

from .error import (
    error_ratio,
    expected_error,
    gram_inverse_trace,
    laplace_mechanism_error,
    rootmse,
    squared_error,
    supports,
    workload_marginal_traces,
)
from .hdmm import HDMM
from .measure import (
    gaussian_measure,
    gaussian_measure_batch,
    gaussian_noise,
    laplace_measure,
    laplace_measure_batch,
    laplace_noise,
    measurement_variance,
)
from .privacy import (
    DEFAULT_DELTA,
    eps_to_rho,
    gaussian_sigma,
    pure_eps_to_rho,
    rho_to_eps,
)
from .reconstruct import (
    DENSE_PINV_LIMIT,
    answer_workload,
    has_structured_pinv,
    least_squares,
    resolves_to_direct,
    resolves_to_pinv,
)
from .solvers import (
    CGResult,
    cg_gram_solve,
    export_gram_solver_state,
    restore_gram_solver_state,
    union_gram_solver,
    validate_budget,
    validate_epsilon,
)

__all__ = [
    "CGResult",
    "DEFAULT_DELTA",
    "DENSE_PINV_LIMIT",
    "HDMM",
    "answer_workload",
    "cg_gram_solve",
    "eps_to_rho",
    "error_ratio",
    "expected_error",
    "export_gram_solver_state",
    "gaussian_measure",
    "gaussian_measure_batch",
    "gaussian_noise",
    "gaussian_sigma",
    "gram_inverse_trace",
    "has_structured_pinv",
    "laplace_mechanism_error",
    "laplace_measure",
    "laplace_measure_batch",
    "laplace_noise",
    "least_squares",
    "measurement_variance",
    "pure_eps_to_rho",
    "resolves_to_direct",
    "resolves_to_pinv",
    "restore_gram_solver_state",
    "rho_to_eps",
    "rootmse",
    "union_gram_solver",
    "validate_budget",
    "validate_epsilon",
    "squared_error",
    "supports",
    "workload_marginal_traces",
]
