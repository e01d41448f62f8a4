"""Constrained and conditional portfolio estimators.

Subspace-restricted and hedged portfolios work by projecting the moment
matrix through an augmented matrix of orthonormal rows; conditional
models feed weighted feature rows into the same machinery; equality
constraints on the Cholesky factor are imposed by weighted projection
onto orthonormal constraint rows; rank constraints
go through the truncated eigendecomposition, differentiated in closed
form by the divided differences of its eigenvalue map.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .asymptotics import DistributionResult, OmegaEstimate
from .errors import (
    EigGapTooSmall,
    RankDeficient,
    ShapeMismatch,
    SingularProjection,
    SingularWeighting,
)
from .kernels import (
    PD_RTOL,
    RANK_RTOL,
    MatrixShape,
    block_diag,
    check_symmetric,
    chol,
    ivech,
    row_basis,
    spd_inverse,
    vech,
    vech_block,
    vech_indices,
    vech_len,
    vech_lower,
    vech_pair,
)
from .moments import AugmentedMoment, MomentLayout, augment, unpack_theta_inverse


class ConditionalModel(Enum):
    CONSTANT_SR = "constant"       # weights rescale returns, corner stays 1
    FLOATING_SR = "floating"       # weights enter the leading coordinate
    BICONDITIONAL = "biconditional"  # weighted features lead the row


@dataclass
class SubspaceSpec:
    """A portfolio subspace: the rows of J span the feasible baskets of
    `subspace_theta`, or the streams that `hedged_delta_theta` hedges against.

    Only J's row space matters, so J is kept as its orthonormal row basis
    (`kernels.row_basis`): J and QJ give one law for any invertible Q,
    however ill-conditioned, and the projection formulas need J J' = I.
    """

    basket: np.ndarray

    def __post_init__(self):
        self.basket, _ = row_basis(self.basket, "subspace matrix")

    def augmented(self, f_dim: int) -> np.ndarray:
        return block_diag(np.eye(f_dim), self.basket)


@dataclass
class CholeskyConstraint:
    """Equality constraints B vech(chol(theta)) = b with SPD weighting W.

    B z = b and QB z = Qb are one plane for any invertible Q, so with
    B = R'Q (`kernels.row_basis`) the constraint keeps the orthonormal
    rows Q as b_matrix and R'^-1 b as b_vector, as `mglh.MglhSpec` keeps
    its contrasts.
    """

    b_matrix: np.ndarray
    b_vector: np.ndarray
    weighting: np.ndarray | None = None

    def __post_init__(self):
        bmat = np.atleast_2d(np.asarray(self.b_matrix, dtype=float))
        target = np.asarray(self.b_vector, dtype=float).ravel()
        if bmat.shape[0] != target.size:
            raise ShapeMismatch("one target per constraint row")
        if not np.isfinite(target).all():
            raise ShapeMismatch("non-finite entry in constraint target b")
        if self.weighting is not None:
            weighting = np.asarray(self.weighting, dtype=float)
            side = bmat.shape[1]
            if weighting.shape != (side, side):
                raise ShapeMismatch(f"weighting W of shape {weighting.shape}, not {side}x{side}")
            if not np.isfinite(weighting).all():
                raise ShapeMismatch("non-finite entry in weighting W")
            self.weighting = check_symmetric(weighting)
        if target.size:
            bmat, r = row_basis(bmat, "constraint matrix B")
            target = np.linalg.solve(r.T, target)
        self.b_matrix, self.b_vector = bmat, target

    @property
    def n_constraints(self) -> int:
        return self.b_vector.size


def _project_core(tm: AugmentedMoment, spec: SubspaceSpec) -> np.ndarray:
    """The projection J~' (J~ theta J~')^-1 J~ for J~ = diag(I_f, J), J the basket."""
    if spec.basket.shape[1] != tm.n_assets:
        raise ShapeMismatch(f"basket of {spec.basket.shape[1]} columns for {tm.n_assets} assets")
    jt = spec.augmented(tm.f_dim)
    core_inv, ratio = spd_inverse(jt @ tm.theta @ jt.T)
    if not ratio >= PD_RTOL:
        raise SingularProjection(f"projected moment is singular (eigenvalue ratio {ratio:.3e})")
    return jt.T @ core_inv @ jt


def subspace_theta(
    tm: AugmentedMoment, spec: SubspaceSpec, om: OmegaEstimate
) -> tuple[np.ndarray, DistributionResult]:
    """Projection of the inverse moment onto the feasible baskets, with its law.

    P = J'(J theta J')^-1 J moves as -P dtheta P, as the inverse does: the factor P.
    """
    proj = _project_core(tm, spec)
    point = vech(proj)
    return point, DistributionResult(point, om.sandwich(proj), om.n_obs)


def hedged_delta_theta(
    tm: AugmentedMoment, spec: SubspaceSpec, om: OmegaEstimate
) -> tuple[np.ndarray, DistributionResult]:
    """Inverse moment minus its projection on the hedged streams, with its asymptotic law.

    The corner of the delta is the hedged squared Sharpe; the off-corner
    column holds the negated hedged portfolio direction. With A = P theta for the hedge
    projection P, it moves as P dtheta P - Y = A Y A' - Y, Y = theta^-1 dtheta theta^-1:
    on the factor theta^-1, the front pair(A), its diagonal columns halved, less I.
    """
    proj = _project_core(tm, spec)
    point = vech(tm.inverse - proj)
    rows, cols = vech_indices(tm.dim)
    front = vech_pair(proj @ tm.theta)
    front[:, rows == cols] *= 0.5
    front[np.diag_indices_from(front)] -= 1.0
    cov = om.sandwich(tm.inverse, front=front)
    return point, DistributionResult(point, cov, om.n_obs)


def conditional_rows(
    values: np.ndarray,
    features: np.ndarray | None = None,
    weights: np.ndarray | None = None,
    model: ConditionalModel = ConditionalModel.CONSTANT_SR,
) -> tuple[np.ndarray, MomentLayout, int]:
    """Augmented rows under a conditional-heteroskedasticity model.

    CONSTANT_SR rescales returns by the weights and keeps the unit
    corner; FLOATING_SR puts the weight in the leading coordinate;
    BICONDITIONAL leads with weighted features. Features and weights
    must be lagged by the caller.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if features is not None and model is not ConditionalModel.BICONDITIONAL:
        raise ShapeMismatch(f"features require the biconditional model, not {model.value}")
    if model is ConditionalModel.CONSTANT_SR:
        rows = augment(values, weights=weights)
        if weights is not None:
            rows[:, 0] = 1.0  # the weights rescale the returns only
        return rows, MomentLayout.UNCONDITIONAL, 1
    if model is ConditionalModel.FLOATING_SR:
        return augment(values, weights=weights), MomentLayout.CONDITIONAL, 1
    if features is None:
        raise ShapeMismatch("biconditional model needs features")
    rows = augment(values, features=features, weights=weights)
    return rows, MomentLayout.CONDITIONAL, np.atleast_2d(features).shape[1]


def markowitz_coefficient(
    tm: AugmentedMoment, om: OmegaEstimate
) -> tuple[np.ndarray, DistributionResult]:
    """Feature-to-weights multiplier and its asymptotic law.

    The coefficient is the sign-flipped lower-left block of the inverse
    conditional moment; its covariance marginalizes the inverse-moment
    law to those coordinates (i, j), i >= f > j: the factor theta^-1 on
    that block.
    """
    f, p = tm.f_dim, tm.n_assets
    coef = unpack_theta_inverse(tm).markowitz.reshape(p, f, order="F")
    cov = om.sandwich(tm.inverse, (slice(f, None), slice(0, f)))
    point = coef.reshape(-1, order="F")
    return coef, DistributionResult(point, cov, om.n_obs)


def constrained_cholesky_estimate(
    tm: AugmentedMoment, cc: CholeskyConstraint, om: OmegaEstimate
) -> tuple[AugmentedMoment, DistributionResult]:
    """Moment estimate satisfying linear constraints on its Cholesky factor.

    Solves the W-weighted projection of vech(chol(theta)) onto the
    constraint plane and rebuilds the moment from the projected factor.
    By the Cholesky rule dL = L Phi(L^-1 dtheta L^-T), Phi keeping the
    lower triangle with its diagonal halved, it moves with the factor L^-T,
    and the front is the chain rule G(L_c) P H(L): H gives vech(dL) at each
    unit coordinate, P = I - K B with K = W^-1 B' (B W^-1 B')^-1 projects it
    (a rank-k update, k the constraint rows), and G maps vech(dL_c) to
    vech(dL_c L_c' + L_c dL_c').
    """
    d = tm.dim
    m = vech_len(d)
    factor = chol(tm.theta)
    z = vech_lower(factor)
    rows, cols = vech_indices(d)
    # H: at unit coordinate (a, b), dL is column a of L, halved when a = b, in column b
    front_h = factor[rows[:, None], rows]
    front_h *= cols[:, None] == cols
    front_h[:, rows == cols] *= 0.5
    if cc.n_constraints:
        bmat = cc.b_matrix
        if bmat.shape[1] != m:
            raise ShapeMismatch(f"constraint columns {bmat.shape[1]} != vech length {m}")
        ratio, winv_bt = 1.0, bmat.T
        if cc.weighting is not None:
            w_inv, ratio = spd_inverse(cc.weighting)
            winv_bt = w_inv @ bmat.T
        gram_inv, gram_ratio = spd_inverse(bmat @ winv_bt)
        if not min(ratio, gram_ratio) >= PD_RTOL:
            raise SingularWeighting("weighting or weighted constraint gram is singular")
        gain = winv_bt @ gram_inv
        z = z + gain @ (cc.b_vector - bmat @ z)
        front_h -= gain @ (bmat @ front_h)

    factor_c = ivech(z, MatrixShape.LOWER_TRIANGULAR)
    theta_c = factor_c @ factor_c.T
    # G: the unit dL_c at (a, b) puts L_c[:, b] in row a and in column a of d theta_c
    front_g = factor_c[cols[:, None], cols]
    front_g *= rows[:, None] == rows
    in_column = factor_c[rows[:, None], cols]
    in_column *= cols[:, None] == rows
    front_g += in_column
    del in_column
    front = front_g @ front_h
    del front_g, front_h  # m-by-m each: free them before the sandwich runs
    point = vech(theta_c)
    out = AugmentedMoment(theta_c, tm.n_obs, layout=tm.layout, f_dim=tm.f_dim)
    cov = om.sandwich(tm.inverse @ factor, front=front)  # theta^-1 L = L^-T
    return out, DistributionResult(point, cov, om.n_obs)


def reduced_rank_coefficient(
    tm: AugmentedMoment, r: int, om: OmegaEstimate
) -> tuple[np.ndarray, DistributionResult]:
    """Coefficient from the rank-r pseudoinverse of the conditional moment.

    With theta = V diag(lam) V', lam descending, the pseudoinverse is
    P = V diag(g) V' with g = 1/lam on the r kept eigenvalues and 0 on the
    rest. Its derivative is the Daleckii-Krein form dP = V (K o V' dtheta V) V',
    K the divided differences of g: -1/(lam_i lam_j) between kept values,
    1/(lam_i (lam_i - lam_j)) between kept i and dropped j, 0 between
    dropped ones. The only denominator is the kept/dropped gap, gated
    against RANK_RTOL of the leading eigenvalue. It moves with the factor V.
    """
    f, d = tm.f_dim, tm.dim
    if r < 1 or r > d:
        raise ShapeMismatch(f"rank {r} out of range 1..{d}")
    vals, vecs = np.linalg.eigh(tm.theta)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    if r < d and vals[r - 1] - vals[r] <= RANK_RTOL * max(vals[0], 1e-300):
        raise EigGapTooSmall(
            f"gap {vals[r - 1] - vals[r]:.3e} at rank {r} below {RANK_RTOL:.0e} of leading eigenvalue"
        )
    if vals[r - 1] < PD_RTOL * max(vals[0], 1e-300):
        raise RankDeficient(f"eigenvalue {r} of {vals[r - 1]:.3e} is numerically zero")
    g = 1.0 / vals[:r]
    div = np.zeros((d, d))
    div[:r, :r] = -np.outer(g, g)
    div[:r, r:] = g[:, None] / (vals[:r, None] - vals[None, r:])
    div[r:, :r] = div[:r, r:].T
    coef = -((vecs[f:, :r] * g) @ vecs[:f, :r].T)
    # entry (i, j) of the column-major vec(coef) is -P_ab, a = f + i, b = j, and dP_ab puts
    # K_kl pair(V)[(a, b), (k, l)] on vech coordinate (k, l), half at k = l
    rows, cols = vech_indices(d)
    front = -div[rows, cols] * vech_pair(vecs, vech_block(d, (slice(f, None), slice(0, f))))
    front[:, rows == cols] *= 0.5
    point = coef.reshape(-1, order="F")
    return coef, DistributionResult(point, om.sandwich(vecs, front=front), om.n_obs)
