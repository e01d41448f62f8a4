"""Asymptotic inference for sample optimal portfolios.

Builds the augmented second-moment matrix from returns, reads the
optimal portfolio and precision matrix off its inverse, and delivers
delta-method covariances (plain, kernel-robust, or Gaussian closed
form) for every derived quantity, plus constrained variants, linear
hypothesis statistics, and Monte Carlo validation of the laws.
"""

from . import asymptotics, constraints, gaussian, harness, kernels, mglh, moments, simulate
from .asymptotics import (
    DistributionResult,
    OmegaEstimate,
    attribute_error,
    omega_hac,
    omega_vanilla,
    portfolio_covariance,
    snr_second_order,
    snr_variance,
    theta_inverse_covariance,
    wald_statistics,
)
from .constraints import (
    CholeskyConstraint,
    ConditionalModel,
    HedgeSpec,
    SubspaceSpec,
    constrained_cholesky_estimate,
    flatten_volatility,
    hedged_delta_theta,
    inverse_variance_weighting,
    markowitz_coefficient,
    reduced_rank_coefficient,
    subspace_theta,
)
from .gaussian import (
    LrtSolution,
    LrtStack,
    TraceConstraintSet,
    gaussian_omega,
    lrt_pvalue,
    lrt_solve,
    lrt_solve_stack,
)
from .mglh import MglhResult, MglhSpec, mglh_asymptotic, mglh_statistics
from .moments import (
    AugmentedMoment,
    MomentLayout,
    PortfolioEstimate,
    ReturnsPanel,
    ThetaInverseParts,
    augment,
    sample_theta,
    sr_optimal_portfolio,
    unpack_theta_inverse,
)

__version__ = "0.1.0"
