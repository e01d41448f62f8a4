"""Gaussian-returns machinery: closed-form covariances and the trace-constraint LRT.

Under Gaussian returns the covariance of the vectorized moment matrix has
a closed form from Isserlis' theorem, the inverse of the Fisher
information of the non-redundant coordinates. The likelihood-ratio test
constrains traces of products against the inverse moment matrix and
solves for the Lagrange multipliers with a damped Newton iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .asymptotics import OmegaEstimate
from .errors import (
    LostPositiveDefiniteness,
    NoConvergence,
    NumericalError,
    ShapeMismatch,
    SingularJacobian,
)
from .kernels import PD_RTOL, row_basis, spd_inverse
from .moments import AugmentedMoment, MomentLayout


def gaussian_omega(tm: AugmentedMoment) -> OmegaEstimate:
    """Closed-form covariance of vech of the moment matrix under Gaussian returns.

    Isserlis' theorem for the non-central row r = [1, x'], held as Theta
    and its first column Theta_0, the mean of r (see `OmegaEstimate`).
    `omega`, formed only when read, is pair(Theta) minus 2 v v' with
    v = vech(Theta_0 Theta_0'); its first row and column are exactly zero
    (the corner coordinate is deterministic) and the rest is the inverse
    of oracles.fisher_information_block.
    """
    if tm.layout is not MomentLayout.UNCONDITIONAL:
        raise ShapeMismatch("closed form is for the unconditional layout")
    return OmegaEstimate(tm.theta, tm.n_obs, mean=tm.theta[:, 0])


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
        if not np.isfinite(self.targets).all():
            raise ShapeMismatch("non-finite entry in constraint targets")
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
    # Newton decrement res' J^-1 res (see lrt_solve_stack) at the start and after each step
    history: list[float] = field(default_factory=list)


# Member status of a stacked solve: 0 is a solution, the rest name the failure.
LRT_OK, LRT_SINGULAR_JACOBIAN, LRT_LINE_SEARCH, LRT_NO_CONVERGENCE, LRT_SAMPLE_NOT_PD = range(5)
LINE_SEARCH_HALVINGS = 20
LRT_MAX_ITER = 50    # Newton steps before a member is NoConvergence
# A member stops when its Newton decrement is at most LRT_TOL^2 mu' J mu. The
# step it leaves moves the statistic by n mu' res <= n |mu|_J sqrt(decrement),
# so near the null, where the statistic is n |mu|_J^2 / 2, it is solved to
# 2 LRT_TOL = 2e-11 relative, a fiftieth of the 1e-9 to which two writings of
# one null must agree; far from it the bound grows with the largest nu.
LRT_TOL = 1e-11


@dataclass
class LrtStack:
    """Per-member solutions of one LRT over an (n, d, d) stack of moments.

    stat is NaN where status is not LRT_OK; history is NaN-padded past
    each member's last accepted step.
    """

    lam: np.ndarray           # (n, m)
    theta0: np.ndarray        # (n, d, d)
    stat: np.ndarray          # (n,)
    dof: int
    iterations: np.ndarray    # (n,)
    status: np.ndarray        # (n,)
    history: np.ndarray       # (n, LRT_MAX_ITER + 1)

    @property
    def converged(self) -> np.ndarray:
        return self.status == LRT_OK

    def error(self, i: int) -> NumericalError | None:
        """The typed error of member i, or None when it was solved."""
        code = int(self.status[i])
        if code == LRT_OK:
            return None
        if code == LRT_SINGULAR_JACOBIAN:
            return SingularJacobian("Newton Jacobian is singular")
        if code == LRT_LINE_SEARCH:
            return LostPositiveDefiniteness(
                "line search failed to keep the constrained moment positive definite")
        if code == LRT_NO_CONVERGENCE:
            return NoConvergence(f"Newton decrement {self.history[i, self.iterations[i]]:.3e} "
                                 f"after {self.iterations[i]} iterations")
        return LostPositiveDefiniteness("the sample moment is not positive definite")

    def member(self, i: int) -> LrtSolution:
        """Member i as a one-moment solution; raises its typed error if it failed."""
        err = self.error(i)
        if err is not None:
            raise err
        it = int(self.iterations[i])
        return LrtSolution(self.lam[i], self.theta0[i], float(self.stat[i]), self.dof, it, True,
                           [float(h) for h in self.history[i, :it + 1]])


def lrt_solve_stack(tm: AugmentedMoment, cs: TraceConstraintSet) -> LrtStack:
    """Constrained MLE and likelihood-ratio statistic for every member of a stack.

    The constrained maximizer is the sample moment minus a multiplier
    combination of the constraint matrices. A -> QA, a -> Qa is the same
    null for any invertible Q, so the iteration runs wholly in the
    Frobenius-orthonormal basis B of the rows, A = R'B, of
    `kernels.row_basis`, as `mglh.MglhSpec` keeps its contrasts:
    damped Newton steps on B's multipliers mu for the residual
    tr(B_i inv(theta0)) - b_i, b = R'^-1 a, with the Jacobian
    J = tr(B_i inv B_l inv). A step-halving line search keeps theta0
    positive definite and takes a step when the Newton decrement
    res' J^-1 res, with the old Jacobian, is no larger there (Deuflhard's
    natural monotonicity test); a member stops when that decrement falls
    to LRT_TOL^2 mu' J mu or to its rounding level. No rewriting of the
    rows moves either test. lam = R^-1 mu are the multipliers of the
    caller's rows A. Every inverse is taken and gated by
    kernels.spd_inverse. Members step together, each with its own line
    search and status; a single moment is a stack of one.
    """
    d = tm.dim
    thetas = tm.theta.reshape(-1, d, d)
    n, m = thetas.shape[0], cs.count
    if m == 0:
        empty = np.zeros((n, 0))
        zeros = np.zeros(n, dtype=int)
        return LrtStack(empty, thetas.copy(), np.zeros(n), 0, zeros, zeros, empty)
    if cs.matrices[0].shape[0] != d:
        raise ShapeMismatch("constraint size does not match the moment matrix")
    basis, r = row_basis(np.reshape(cs.matrices, (m, d * d)), "constraint matrices")
    basis, r_inv = basis.reshape(m, d, d), np.linalg.inv(r)
    targets = r_inv.T @ cs.targets  # b = R'^-1 a

    def constrained(theta_hat, mu):
        out = theta_hat.copy()
        for i in range(m):
            out -= mu[:, i, None, None] * basis[i]
        return out

    def residual_of(inv0):
        return _traces(inv0, basis) - targets

    # theta0 = theta - mu B rounds by about eps^2 (d + mu' J mu) in the squared
    # J-norm and each of the m residuals sums d^2 products, so the decrement
    # rounds by about d^2 m eps^2 (d + mu' J mu) over the Jacobian's ratio;
    # spd_inverse's ratio is a lower bound on it (exact near PD_RTOL), so this
    # floor stop fires no later than the exact ratio would make it
    def solved(dec, mu_norm, jac_ratio):
        floor = d * d * m * np.finfo(float).eps ** 2 * (d + mu_norm)
        return (dec <= LRT_TOL**2 * mu_norm) | (dec * jac_ratio <= floor)

    mu = np.zeros((n, m))
    theta0 = thetas.copy()
    inv0, ratio = spd_inverse(theta0)
    status = np.where(ratio >= PD_RTOL, LRT_OK, LRT_SAMPLE_NOT_PD)
    res = residual_of(inv0)
    history = np.full((n, LRT_MAX_ITER + 1), np.nan)
    iterations = np.zeros(n, dtype=int)
    active = status == LRT_OK

    for sweep in range(LRT_MAX_ITER):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        jac = _trace_jacobian(inv0[idx], basis)
        # a Jacobian near underflow gives a step that overflows, and the line search rejects it
        with np.errstate(over="ignore", invalid="ignore"):
            jac_inv, jac_ratio = spd_inverse(jac)
            step = (jac_inv @ res[idx, :, None])[:, :, 0]
            exact = np.sum(res[idx] * step, axis=1)
        keep = jac_ratio >= PD_RTOL
        status[idx[~keep]] = LRT_SINGULAR_JACOBIAN
        if sweep == 0:  # the exact decrement at the start, where mu = 0
            history[idx, 0] = exact
            keep &= ~solved(exact, 0.0, jac_ratio)
        active[idx[~keep]] = False
        idx, jac, jac_ratio, jac_inv, step, exact = (
            a[keep] for a in (idx, jac, jac_ratio, jac_inv, step, exact))

        pending = np.ones(idx.size, dtype=bool)
        scale = 1.0
        for _ in range(LINE_SEARCH_HALVINGS):
            trying = np.flatnonzero(pending)
            if trying.size == 0:
                break
            members = idx[trying]
            # a step that overflows gives a non-finite candidate, rejected as not PD
            with np.errstate(over="ignore", invalid="ignore"):
                cand = mu[members] - scale * step[trying]
                theta_c = constrained(thetas[members], cand)
                inv_c, ratio_c = spd_inverse(theta_c)
                res_c = residual_of(inv_c)
                again = (jac_inv[trying] @ res_c[:, :, None])[:, :, 0]  # the simplified step
                simplified = np.sum(res_c * again, axis=1)
            take = (ratio_c >= PD_RTOL) & (simplified <= exact[trying])
            won = members[take]
            mu[won], theta0[won], inv0[won] = cand[take], theta_c[take], inv_c[take]
            res[won] = res_c[take]
            history[won, iterations[won] + 1] = simplified[take]
            pending[trying[take]] = False
            scale *= 0.5
        iterations[idx] += 1
        status[idx[pending]] = LRT_LINE_SEARCH
        mu_norm = np.sum(mu[idx, :, None] * jac * mu[idx, None, :], axis=(1, 2))
        active[idx[pending | solved(history[idx, iterations[idx]], mu_norm, jac_ratio)]] = False
    status[active] = LRT_NO_CONVERGENCE

    # the caller's multipliers R^-1 mu
    lam = sum(mu[:, j, None] * r_inv[:, j] for j in range(m))
    stat = np.full(n, np.nan)
    good = np.flatnonzero(status == LRT_OK)
    if good.size:
        # n (logdet theta0 - logdet theta + tr(theta0^-1 theta) - d) is n sum(nu - log1p nu)
        # over the eigenvalues nu of theta0^-1/2 (theta - theta0) theta0^-1/2, with
        # theta - theta0 = sum lam_i A_i straight from the multipliers reported, so no
        # log-determinants cancel and the statistic is the one lam and A give
        half = np.linalg.cholesky(inv0[good])  # half half' = theta0^-1
        delta = np.sum(lam[good, :, None, None] * np.asarray(cs.matrices), axis=1)
        nu = np.linalg.eigvalsh(half.swapaxes(1, 2) @ delta @ half)
        status[good[(1.0 + nu <= 0).any(axis=1)]] = LRT_SAMPLE_NOT_PD
        stat[good] = tm.n_obs * _nu_minus_log1p(np.where(1.0 + nu > 0, nu, 0.0)).sum(axis=1)
        stat[status != LRT_OK] = np.nan
    return LrtStack(lam, theta0, stat, m, iterations, status, history)


# The trace pairings of lrt_solve_stack are einsum contractions. Without optimize,
# einsum never hands a product across members to BLAS, so each member's arithmetic
# does not depend on the stack around it.
def _traces(y: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """tr(B_i Y) for each member Y of an (n, d, d) stack and each symmetric B_i: (n, m)."""
    return np.einsum("njk,ijk->ni", y, basis)


def _trace_jacobian(y: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """tr(B_i Y B_l Y) for each member Y of an (n, d, d) stack, from P_i = B_i Y: (n, m, m)."""
    prod = basis @ y[:, None]
    return np.einsum("nijk,nlkj->nil", prod, prod)


def _nu_minus_log1p(nu: np.ndarray) -> np.ndarray:
    """nu - log1p(nu), from its Taylor series sum_k>=2 (-nu)^k / k where the two cancel."""
    acc = np.full_like(nu, 1.0 / 16)
    for k in range(15, 1, -1):  # Horner: 16 terms reach rounding at |nu| < 0.05
        acc = 1.0 / k - nu * acc
    return np.where(np.abs(nu) < 0.05, nu * nu * acc, nu - np.log1p(nu))


def lrt_solve(tm: AugmentedMoment, cs: TraceConstraintSet) -> LrtSolution:
    """Constrained MLE and likelihood-ratio statistic for trace constraints.

    The one-moment case of lrt_solve_stack; raises the member's typed
    error (LostPositiveDefiniteness, SingularJacobian, NoConvergence)
    when it fails.
    """
    if tm.theta.ndim != 2:
        raise ShapeMismatch("lrt_solve takes one moment; use lrt_solve_stack for a stack")
    return lrt_solve_stack(tm, cs).member(0)


def lrt_pvalue(stat: float, dof: int) -> float:
    """Upper-tail chi-square probability for the LRT statistic.

    The dof is a constraint count, so the tail has a closed form: with
    h = stat/2, Q = e^-h sum_{i<k/2} h^i/i! for even k, and
    Q = erfc(sqrt h) + e^-h sum_{1<=i<=(k-1)/2} h^(i-1/2)/Gamma(i+1/2) for
    odd k. Each term is summed from its logarithm, so e^-h cannot
    underflow on its own while the tail is still large (h > 745 at a
    large dof).
    """
    if not isinstance(dof, Integral) or dof < 1:
        raise ShapeMismatch(f"degrees of freedom must be an integer of at least 1, got {dof!r}")
    if not math.isfinite(stat):
        raise ShapeMismatch(f"non-finite statistic {stat}")
    if stat < -1e-10:
        raise ShapeMismatch(f"negative statistic {stat}")
    h = 0.5 * stat
    if h <= 0.0:
        return 1.0
    log_h = math.log(h)
    if dof % 2 == 0:
        head, powers = 0.0, range(dof // 2)
    else:
        head, powers = math.erfc(math.sqrt(h)), (i - 0.5 for i in range(1, (dof + 1) // 2))
    terms = (math.exp(a * log_h - h - math.lgamma(a + 1.0)) for a in powers)
    return min(1.0, math.fsum((head, *terms)))
