"""Gaussian-returns machinery: closed-form covariances and the trace-constraint LRT.

Under Gaussian returns the covariance of the vectorized moment matrix has
a closed form built from the Fisher information of the non-redundant
coordinates. The likelihood-ratio test constrains traces of products
against the inverse moment matrix and solves for the Lagrange multipliers
with a damped Newton iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc

from .asymptotics import OmegaEstimate
from .errors import (
    LostPositiveDefiniteness,
    NoConvergence,
    ShapeMismatch,
    SingularJacobian,
    SingularTheta,
)
from .kernels import (
    check_symmetric,
    duplication_matrix,
    elimination_matrix,
    kron,
    remove_first,
    vech,
    vech_len,
    vech_pair,
)
from .moments import AugmentedMoment, MomentLayout


def fisher_information_block(theta: np.ndarray) -> np.ndarray:
    """Per-observation Fisher information of the non-redundant vech coordinates.

    The half-sandwich U [A' (D'(T kron T)D) A] U' with A = L(T^-1 kron T^-1)D,
    without the sample-size factor. Built literally from the structural
    matrices; kept as the oracle for gaussian_omega.
    """
    theta = check_symmetric(theta)
    d = theta.shape[0]
    el = elimination_matrix(d)
    du = duplication_matrix(d)
    un = remove_first(vech_len(d))
    tinv = np.linalg.inv(theta)
    a = el @ kron(tinv, tinv) @ du
    inner = a.T @ (du.T @ kron(theta, theta) @ du) @ a
    return 0.5 * (un @ inner @ un.T)


def gaussian_omega(tm: AugmentedMoment) -> OmegaEstimate:
    """Closed-form covariance of vech of the moment matrix under Gaussian returns.

    Isserlis' theorem for the non-central row r = [1, x']: pair(Theta)
    minus 2 v v' with v = vech(Theta_0 Theta_0'), Theta_0 the first
    column of Theta (the mean of r). The first row and column are exactly
    zero (the corner coordinate is deterministic); the rest is the
    inverse of fisher_information_block.
    """
    if tm.layout is not MomentLayout.UNCONDITIONAL:
        raise ShapeMismatch("closed form is for the unconditional layout")
    mean = tm.theta[:, 0]
    v = vech(np.outer(mean, mean))
    omega = vech_pair(tm.theta) - 2.0 * np.outer(v, v)
    return OmegaEstimate(omega, "gaussian", n_obs=tm.n_obs)


def conjecture_itheta_cov(tm: AugmentedMoment) -> np.ndarray:
    """Alternative plug-in covariance for vech of the inverse moment matrix.

    2 (D'(T kron T)D)^-1 - 2 e1 e1'. Proven equal to the Theorem-style
    chain in the scalar case; kept as a cross-check, not a production
    covariance, for larger dimensions.
    """
    theta = tm.theta
    d = theta.shape[0]
    du = duplication_matrix(d)
    inner = du.T @ kron(theta, theta) @ du
    try:
        out = 2.0 * np.linalg.inv(inner)
    except np.linalg.LinAlgError as exc:
        raise SingularTheta("duplication-sandwiched moment is singular") from exc
    out[0, 0] -= 2.0
    return 0.5 * (out + out.T)


def omega_gaussian_centered(second_moment: np.ndarray) -> np.ndarray:
    """Covariance of vech(z z') for mean-zero Gaussian z with the given second moment.

    pair(S), see vech_pair. Used as the population omega when augmented
    rows are themselves jointly Gaussian with mean zero (for example a
    mean-zero predictive-regression design).
    """
    return vech_pair(check_symmetric(second_moment))


@dataclass
class TraceConstraintSet:
    """Null hypothesis tr(A_i inv(Theta)) = a_i, i = 1..m.

    Constraint matrices are symmetrized on ingestion; the trace pairing
    only sees the symmetric part.
    """

    matrices: list[np.ndarray]
    targets: np.ndarray

    def __post_init__(self):
        self.matrices = [
            0.5 * (np.asarray(a, dtype=float) + np.asarray(a, dtype=float).T)
            for a in self.matrices
        ]
        self.targets = np.asarray(self.targets, dtype=float).ravel()
        if len(self.matrices) != self.targets.size:
            raise ShapeMismatch("one target per constraint matrix")
        d = self.matrices[0].shape[0] if self.matrices else 0
        for a in self.matrices:
            if a.shape != (d, d):
                raise ShapeMismatch("constraint matrices must share a square shape")

    @property
    def count(self) -> int:
        return self.targets.size


@dataclass
class LrtSolution:
    lam: np.ndarray
    theta0: np.ndarray
    stat: float
    dof: int
    iterations: int
    converged: bool
    residual: np.ndarray = field(default_factory=lambda: np.array([]))
    # residual sup-norm after each accepted step, starting at the initial point
    history: list[float] = field(default_factory=list)


def _constrained_theta(theta_hat: np.ndarray, cs: TraceConstraintSet, lam: np.ndarray) -> np.ndarray:
    out = theta_hat.copy()
    for lam_i, a_i in zip(lam, cs.matrices):
        out -= lam_i * a_i
    return out


def _spd_inverse(a: np.ndarray) -> np.ndarray | None:
    """Inverse via Cholesky; None when not positive definite."""
    try:
        c = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    ident = np.eye(a.shape[0])
    cinv = np.linalg.solve(c, ident)
    return cinv.T @ cinv


def lrt_solve(
    tm: AugmentedMoment,
    cs: TraceConstraintSet,
    lam0: np.ndarray | None = None,
    max_iter: int = 50,
    tol: float = 1e-10,
) -> LrtSolution:
    """Constrained MLE and likelihood-ratio statistic for trace constraints.

    The constrained maximizer is the sample moment minus a multiplier
    combination of the constraint matrices; Newton steps on the residual
    tr(A_i inv(theta0)) - a_i use the Jacobian tr(A_i inv A_l inv) and a
    step-halving line search that keeps theta0 positive definite and the
    residual norm non-increasing.
    """
    theta_hat = tm.theta
    d = theta_hat.shape[0]
    m = cs.count
    if m == 0:
        return LrtSolution(np.zeros(0), theta_hat.copy(), 0.0, 0, 0, True)
    if cs.matrices[0].shape[0] != d:
        raise ShapeMismatch("constraint size does not match the moment matrix")
    lam = np.zeros(m) if lam0 is None else np.asarray(lam0, dtype=float).copy()

    def residual_of(inv0: np.ndarray) -> np.ndarray:
        return np.array([np.sum(a * inv0) for a in cs.matrices]) - cs.targets

    theta0 = _constrained_theta(theta_hat, cs, lam)
    inv0 = _spd_inverse(theta0)
    if inv0 is None:
        raise LostPositiveDefiniteness("initial multipliers leave no positive definite moment")
    res = residual_of(inv0)
    history = [float(np.abs(res).max())]
    converged = bool(np.abs(res).max() < tol)
    iterations = 0

    while not converged and iterations < max_iter:
        jac = np.empty((m, m))
        for i, a_i in enumerate(cs.matrices):
            w = inv0 @ a_i @ inv0
            for l, a_l in enumerate(cs.matrices):
                jac[i, l] = np.sum(w * a_l)
        try:
            step = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian("Newton Jacobian is singular") from exc

        accepted = False
        scale = 1.0
        for _ in range(20):
            cand = lam - scale * step
            theta_c = _constrained_theta(theta_hat, cs, cand)
            inv_c = _spd_inverse(theta_c)
            if inv_c is not None:
                res_c = residual_of(inv_c)
                if np.abs(res_c).max() <= np.abs(res).max():
                    lam, theta0, inv0, res = cand, theta_c, inv_c, res_c
                    accepted = True
                    break
            scale *= 0.5
        iterations += 1
        if not accepted:
            raise LostPositiveDefiniteness(
                "line search failed to keep the constrained moment positive definite"
            )
        history.append(float(np.abs(res).max()))
        converged = bool(np.abs(res).max() < tol)

    if not converged:
        raise NoConvergence(
            f"residual sup-norm {np.abs(res).max():.3e} after {iterations} iterations"
        )

    sign0, logdet0 = np.linalg.slogdet(theta0)
    sign1, logdet1 = np.linalg.slogdet(theta_hat)
    if sign0 <= 0 or sign1 <= 0:
        raise LostPositiveDefiniteness("log-determinant of a non-PD matrix")
    stat = tm.n_obs * (logdet0 - logdet1 + float(np.sum(inv0 * theta_hat)) - d)
    return LrtSolution(lam, theta0, float(stat), m, iterations, True, res, history)


def lrt_pvalue(stat: float, dof: int) -> float:
    """Upper-tail chi-square probability for the LRT statistic."""
    if stat < -1e-10:
        raise ShapeMismatch(f"negative statistic {stat}")
    if dof < 1:
        raise ShapeMismatch("degrees of freedom must be at least 1")
    return float(chdtrc(dof, max(stat, 0.0)))
