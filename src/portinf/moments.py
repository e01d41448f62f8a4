"""Augmented second-moment matrix and its block-inverse unpacking.

The central object: prepend each return row with 1 (or with weighted
features), average the outer products, and read the squared maximal
Sharpe, the (negative) unscaled optimal portfolio, and the precision
matrix straight out of the blocks of the inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    LengthMismatch,
    NonPositiveWeight,
    ShapeMismatch,
    SingularTheta,
    ZeroMeanVector,
    ZeroSharpe,
)
from .kernels import PD_RTOL, check_symmetric, spd_inverse

SNR_SQ_FLOOR = 1e-12


class MomentLayout(Enum):
    UNCONDITIONAL = "unconditional"   # leading block is the scalar 1
    CONDITIONAL = "conditional"       # leading block is the f-by-f feature gram


@dataclass
class ReturnsPanel:
    """T-by-p array of per-period returns with optional labels."""

    values: np.ndarray
    asset_names: list[str] | None = None
    timestamps: list | None = None

    def __post_init__(self):
        self.values = np.atleast_2d(np.asarray(self.values, dtype=float))
        t, p = self.values.shape
        if not np.all(np.isfinite(self.values)):
            raise ShapeMismatch("returns contain non-finite entries")
        if t < p + 2:
            raise ShapeMismatch(f"need T >= p + 2 observations, got T={t}, p={p}")
        if self.asset_names is None:
            self.asset_names = [f"asset{i + 1}" for i in range(p)]
        if len(self.asset_names) != p:
            raise LengthMismatch("asset_names length does not match column count")

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_assets(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class AugmentedMoment:
    """Symmetric PD second moment of the augmented rows, plus bookkeeping.

    f_dim is the width of the leading block: 1 for the unconditional and
    single-weight layouts, the feature count for the conditional layout.
    theta may also be an (n, d, d) stack of n moments that share the
    sample size and layout, each member validated and inverted as one
    matrix is; the mglh statistics and the LRT solver take such a stack,
    the other estimators one matrix. The moment is frozen and theta
    read-only, so the cached inverse cannot go stale.
    """

    theta: np.ndarray
    n_obs: int
    layout: MomentLayout = MomentLayout.UNCONDITIONAL
    f_dim: int = 1

    def __post_init__(self):
        theta = check_symmetric(self.theta, stacked=np.ndim(self.theta) == 3)
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        if self.layout is MomentLayout.UNCONDITIONAL:
            if self.f_dim != 1:
                raise ShapeMismatch("unconditional layout has a scalar leading block")
            # loose gate only: finite-difference probes may nudge the corner
            corner = theta[..., 0, 0]
            if corner.ndim:  # a stack: gate the member furthest from 1
                corner = corner[np.argmax(np.abs(corner - 1.0))]
            if abs(corner - 1.0) > 1e-3:
                raise ShapeMismatch(f"unconditional corner is {corner:.6f}, expected 1")

    @property
    def dim(self) -> int:
        return self.theta.shape[-1]

    @property
    def n_assets(self) -> int:
        return self.dim - self.f_dim

    @cached_property
    def inverse(self) -> np.ndarray:
        """theta^-1, read-only and cached: the one inverse and PD gate, see kernels.spd_inverse.

        A stack of moments has the stack of its members' inverses, and
        any member below the gate raises SingularTheta.
        """
        inv, ratio = spd_inverse(self.theta)
        if not (ratio >= PD_RTOL).all():
            ratio = np.atleast_1d(ratio)
            i = np.argmin(ratio >= PD_RTOL)  # the first member below the gate
            where = f"stack member {i}: " if self.theta.ndim == 3 else ""
            if np.isnan(ratio[i]):  # theta is finite, so a diagonal entry is not positive
                diag = np.diag(self.theta.reshape(-1, self.dim, self.dim)[i])
                raise SingularTheta(f"{where}moment column {np.argmax(~(diag > 0))} is all zero "
                                    "or not finite")
            raise SingularTheta(f"{where}eigenvalue ratio {ratio[i]:.3e} of the equilibrated "
                                f"moment below {PD_RTOL:.0e}")
        inv.setflags(write=False)
        return inv


@dataclass
class ThetaInverseParts:
    """Blocks of the inverse augmented moment.

    neg_portfolio holds the off-diagonal block exactly as it appears in
    the inverse: -precision @ mean for the unconditional layout, the
    negated p-by-f regression multiplier for the conditional one.
    snr_sq is only defined (non-None) when the leading block is scalar.
    """

    corner: np.ndarray
    neg_portfolio: np.ndarray
    precision: np.ndarray
    snr_sq: float | None = None

    @property
    def markowitz(self) -> np.ndarray:
        """The unscaled optimal portfolio (or coefficient), sign flipped back."""
        return -self.neg_portfolio


@dataclass
class PortfolioEstimate:
    """Scaled optimal weights with the objective they attain."""

    weights: np.ndarray
    risk_budget: float
    rfr: float
    snr_sq: float
    objective: float
    asset_names: list[str] = field(default_factory=list)


def augment(
    values: np.ndarray,
    features: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Build the T-by-(q+1) augmented rows from returns.

    Rows are [1, x'], or [w, w x'] with scalar weights, or [w f', w x']
    with features. Features and weights must already be lagged by the
    caller so that row i's feature is observable before return row i.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    t = values.shape[0]
    if weights is None:
        w = np.ones(t)
    else:
        w = np.asarray(weights, dtype=float).ravel()
        if w.size != t:
            raise LengthMismatch(f"{w.size} weights for {t} rows")
        if np.any(~np.isfinite(w)) or np.any(w <= 0):
            raise NonPositiveWeight("weights must be finite and strictly positive")
    if features is None:
        lead = w[:, None]
    else:
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if features.shape[0] != t:
            raise LengthMismatch(f"{features.shape[0]} feature rows for {t} return rows")
        lead = w[:, None] * features
    return np.hstack([lead, w[:, None] * values])


def sample_theta(
    aug_rows: np.ndarray,
    layout: MomentLayout = MomentLayout.UNCONDITIONAL,
    f_dim: int = 1,
) -> AugmentedMoment:
    """Average of row outer products, divisor T, gated by its (cached) inverse."""
    aug_rows = np.atleast_2d(np.asarray(aug_rows, dtype=float))
    t, d = aug_rows.shape
    if t < d:
        raise ShapeMismatch(f"need at least as many rows as columns, got {aug_rows.shape}")
    tm = AugmentedMoment(aug_rows.T @ aug_rows / t, n_obs=t, layout=layout, f_dim=f_dim)
    tm.inverse  # the PD gate; the inverse stays cached for every later reader
    return tm


def unpack_theta_inverse(tm: AugmentedMoment) -> ThetaInverseParts:
    """Read the block structure of the inverse augmented moment.

    For the unconditional layout the corner is 1 + snr_sq, so snr_sq is
    returned with the 1 subtracted. The conditional corner block mixes
    the feature-gram inverse with the coefficient quadratic form and is
    returned whole.
    """
    f, inv = tm.f_dim, tm.inverse
    corner = inv[:f, :f].copy()
    neg_port = inv[f:, :f].copy()
    precision = inv[f:, f:].copy()
    snr_sq = float(corner[0, 0]) - 1.0 if tm.layout is MomentLayout.UNCONDITIONAL else None
    if f == 1:
        neg_port = neg_port.ravel()
    return ThetaInverseParts(corner, neg_port, precision, snr_sq)


def mean_and_covariance(tm: AugmentedMoment) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance implied by an unconditional moment matrix."""
    if tm.layout is not MomentLayout.UNCONDITIONAL:
        raise ShapeMismatch("mean/covariance split needs the unconditional layout")
    mu = tm.theta[1:, 0].copy()
    sigma = tm.theta[1:, 1:] - np.outer(mu, mu)
    return mu, sigma


def check_risk_budget(risk_budget: float) -> None:
    """Raise ShapeMismatch unless the risk budget is positive and finite."""
    if not (risk_budget > 0 and np.isfinite(risk_budget)):
        raise ShapeMismatch(f"risk budget must be positive and finite, got {risk_budget}")


def portfolio_head(tm: AugmentedMoment, risk_budget: float) -> tuple[np.ndarray, float]:
    """Weights (R / sqrt(snr_sq)) Sigma^-1 mu and snr_sq, read off tm.inverse.

    The one gate of every portfolio quantity: an unconditional layout and
    a positive finite risk budget (else ShapeMismatch), and an snr_sq,
    which is unit-free, above SNR_SQ_FLOOR (else ZeroSharpe).
    """
    if tm.layout is not MomentLayout.UNCONDITIONAL:
        raise ShapeMismatch("the optimal portfolio is defined for the unconditional layout")
    check_risk_budget(risk_budget)
    parts = unpack_theta_inverse(tm)
    if not parts.snr_sq > SNR_SQ_FLOOR:
        raise ZeroSharpe("squared maximal Sharpe is numerically zero")
    return (risk_budget / np.sqrt(parts.snr_sq)) * parts.markowitz, parts.snr_sq


def sr_optimal_portfolio(
    tm: AugmentedMoment,
    risk_budget: float,
    rfr: float = 0.0,
    asset_names: list[str] | None = None,
) -> PortfolioEstimate:
    """Weights maximizing the ratio of excess mean to volatility at a risk budget.

    Solves for w = (R / sqrt(mu' Sigma^-1 mu)) Sigma^-1 mu; the attained
    objective is sqrt(mu' Sigma^-1 mu) - rfr / R.
    """
    mu, _ = mean_and_covariance(tm)
    if not np.any(mu):
        raise ZeroMeanVector("mean vector is zero")
    weights, snr_sq = portfolio_head(tm, risk_budget)
    names = [f"asset{i + 1}" for i in range(weights.size)] if asset_names is None else asset_names
    return PortfolioEstimate(
        weights=weights,
        risk_budget=float(risk_budget),
        rfr=float(rfr),
        snr_sq=snr_sq,
        objective=np.sqrt(snr_sq) - rfr / risk_budget,
        asset_names=names,
    )
