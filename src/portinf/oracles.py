"""Reference implementations that the tests and the selftest compare against.

Dense structural matrices, kron-form derivative rules, the vech
Jacobians of the gram, Cholesky and trace-form maps, finite differences,
the truncated-eigen pseudoinverse, every estimand's k-by-m vech Jacobian
(production gives `OmegaEstimate.sandwich` a factor of the rows instead),
and literal forms of estimators that production computes another way. No
production module imports this one.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (BadLength, NumericalError, RankDeficient, RepeatedEigenvalue, ShapeMismatch,
                     SingularCquad, SingularMatrix, SingularProjection, SingularTheta)
from .kernels import (MatrixShape, _inv, _vech_gather, check_symmetric, chol, d_qform_inv_vech,
                      ivech, vech_indices, vech_len, vech_lower)
from .mglh import MglhSpec, _factorize, _g1g2_eigen, _shared_solve, _sym, _t, _weights
from .moments import AugmentedMoment, MomentLayout, check_risk_budget, portfolio_head
from .simulate import CHUNK

EIG_GAP_RTOL = 1e-10


@lru_cache(maxsize=64)
def elimination_matrix(n: int) -> np.ndarray:
    """L with vech(A) = L vec(A)."""
    rows, cols = vech_indices(n)
    m = vech_len(n)
    data = np.zeros((m, n * n))
    data[np.arange(m), rows + n * cols] = 1.0
    data.setflags(write=False)
    return data


@lru_cache(maxsize=64)
def duplication_matrix(n: int) -> np.ndarray:
    """D with D vech(A) = vec(A) for symmetric A."""
    m = vech_len(n)
    offsets = np.array([j * n - j * (j - 1) // 2 for j in range(n)])
    data = np.zeros((n * n, m))
    for j in range(n):
        for i in range(n):
            lo, hi = min(i, j), max(i, j)
            data[i + n * j, offsets[lo] + (hi - lo)] = 1.0
    data.setflags(write=False)
    return data


@lru_cache(maxsize=64)
def commutation_matrix(n: int) -> np.ndarray:
    """K with K vec(A) = vec(A') for n-by-n A."""
    data = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            data[j + n * i, i + n * j] = 1.0
    data.setflags(write=False)
    return data


@lru_cache(maxsize=64)
def remove_first(n: int) -> np.ndarray:
    """All rows but the first of the n-by-n identity."""
    data = np.eye(n)[1:]
    data.setflags(write=False)
    return data


def vec(m: np.ndarray) -> np.ndarray:
    """Stack the columns of a square matrix into one vector."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"vec expects a square matrix, got {m.shape}")
    return m.reshape(-1, order="F")


def ivec(v: np.ndarray) -> np.ndarray:
    """Inverse of vec for square matrices."""
    v = np.asarray(v, dtype=float).ravel()
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise BadLength(f"ivec needs a square length, got {v.size}")
    return v.reshape(n, n, order="F")


def d_product(x: np.ndarray, y: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Jacobian of vec(XY): (I kron X) dY + (Y' kron I) dX."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    dx = np.asarray(dx, dtype=float)
    dy = np.asarray(dy, dtype=float)
    if x.shape[1] != y.shape[0]:
        raise ShapeMismatch(f"product shapes {x.shape} x {y.shape}")
    if dx.shape[0] != x.size or dy.shape[0] != y.size or dx.shape[1] != dy.shape[1]:
        raise ShapeMismatch("Jacobian rows must match vec sizes and share columns")
    return np.kron(np.eye(y.shape[1]), x) @ dy + np.kron(y.T, np.eye(x.shape[0])) @ dx


def d_outer_gram(x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Jacobian of vec(XX') for square X: (I + K)(X kron I) dX."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    if x.shape != (n, n):
        raise ShapeMismatch("d_outer_gram expects square X")
    dx = np.asarray(dx, dtype=float)
    if dx.shape[0] != n * n:
        raise ShapeMismatch("dX rows must equal vec(X) length")
    ka = commutation_matrix(n)
    return (np.eye(n * n) + ka) @ np.kron(x, np.eye(n)) @ dx


def d_trace_prod(x: np.ndarray, y: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Gradient row of tr(XY): vec(X')' dY + vec(Y')' dX."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    dx = np.asarray(dx, dtype=float)
    dy = np.asarray(dy, dtype=float)
    if x.shape != y.T.shape:
        raise ShapeMismatch(f"trace product needs X {x.shape} conformable with Y {y.shape}")
    return x.T.reshape(-1, order="F") @ dy + y.T.reshape(-1, order="F") @ dx


def d_det(x: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Gradient row of det(X): det(X) vec(X^-T)' dX."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    dx = np.asarray(dx, dtype=float)
    det = np.linalg.det(x)
    svals = np.linalg.svd(x, compute_uv=False)
    if svals[-1] <= 1e-12 * max(svals[0], 1e-300):
        raise SingularMatrix("d_det: matrix is singular")
    xinvt = np.linalg.inv(x).T
    return det * (xinvt.reshape(-1, order="F") @ dx)


def eigen_sym(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix, values descending.

    Each eigenvector has its largest-magnitude entry made positive so the
    output is deterministic up to eigenvalue ties.
    """
    x = check_symmetric(x)
    vals, vecs = np.linalg.eigh(x)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    for k in range(vecs.shape[1]):
        pivot = np.argmax(np.abs(vecs[:, k]))
        if vecs[pivot, k] < 0:
            vecs[:, k] = -vecs[:, k]
    return vals, vecs


def d_eig(x: np.ndarray, j: int, dx: np.ndarray) -> np.ndarray:
    """Gradient row of the j-th (0-based, descending) eigenvalue of symmetric X.

    Equals (v_j' kron v_j') dX. Requires the eigenvalue to be simple.
    """
    x = check_symmetric(x)
    dx = np.asarray(dx, dtype=float)
    vals, vecs = eigen_sym(x)
    spectral = max(np.abs(vals).max(), 1e-300)
    gaps = [abs(vals[j] - vals[k]) for k in range(len(vals)) if k != j]
    if gaps and min(gaps) < EIG_GAP_RTOL * spectral:
        raise RepeatedEigenvalue(
            f"eigenvalue {j} gap {min(gaps):.3e} below {EIG_GAP_RTOL:.0e} of spectral norm"
        )
    v = vecs[:, j]
    return np.kron(v, v) @ dx


def pinv_rank(x: np.ndarray, r: int) -> np.ndarray:
    """Pseudoinverse of the rank-r projection built from the r largest eigenvalues."""
    vals, vecs = eigen_sym(x)
    if r < 1 or r > len(vals):
        raise ShapeMismatch(f"rank {r} out of range for size {len(vals)}")
    if vals[r - 1] < 1e-12 * max(vals[0], 1e-300):
        raise RankDeficient(f"eigenvalue {r} of {vals[r - 1]:.3e} is numerically zero")
    vr = vecs[:, :r]
    return vr @ np.diag(1.0 / vals[:r]) @ vr.T


def vech_gradient(gam: np.ndarray) -> np.ndarray:
    """vech gradient of tr(G' dX) over symmetric dX: G + G' off the diagonal, G on it.

    G may be a (..., n, n) stack; the vech coordinates run along the last axis.
    """
    rows, cols, diag = _vech_gather(gam.shape[-1])
    out = gam[..., rows, cols] + gam[..., cols, rows]
    out[..., diag] *= 0.5
    return out


def d_gram(y: np.ndarray) -> np.ndarray:
    """Jacobian of vech(YY') with respect to vech(Y), Y lower triangular.

    d_gram(Y)[(i,j),(k,l)] = delta_ik Y_jl + delta_jk Y_il, which is
    L (I + K)(Y kron I) L'.
    """
    y = np.asarray(y, dtype=float)
    r, c, _ = _vech_gather(y.shape[0])
    ri, rj = r[:, None], c[:, None]
    return (ri == r) * y[rj, c] + (rj == r) * y[ri, c]


def d_chol_vech(y: np.ndarray) -> np.ndarray:
    """Jacobian of vech(Y) with respect to vech(YY'), Y lower Cholesky.

    Computed as the inverse of d_gram(Y).
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if y.shape != (n, n) or np.abs(np.triu(y, 1)).max(initial=0.0) > 0:
        raise ShapeMismatch("d_chol_vech expects a lower-triangular factor")
    return _inv(d_gram(y), "d_chol_vech: derivative of the gram map is singular")


def factor_jacobian(factor: np.ndarray, block: tuple[slice, slice] | None = None,
                    front: np.ndarray | None = None) -> np.ndarray:
    """The k-by-m vech Jacobian of a gradient in `OmegaEstimate.sandwich`'s factor form.

    Entry (a, b) of F' dtheta F is sum_ij F_ia F_jb dtheta_ij, so its row
    over the vech coordinates (i, j) of theta is F_ia F_jb + F_ja F_ib,
    halved on the diagonal; front then maps those rows to the outputs.
    """
    factor = np.asarray(factor, dtype=float)
    r = factor.shape[1]
    if block is None:
        a, b = vech_indices(r)
    else:
        rows, cols = np.arange(r)[block[0]], np.arange(r)[block[1]]
        a, b = np.tile(rows, cols.size), np.repeat(cols, rows.size)
    i, j = vech_indices(factor.shape[0])
    jac = factor[i][:, a] * factor[j][:, b] + factor[j][:, a] * factor[i][:, b]
    jac[i == j] *= 0.5
    return jac.T if front is None else front @ jac.T


def _projection(jt: np.ndarray, theta: np.ndarray) -> np.ndarray:
    return jt.T @ np.linalg.inv(jt @ theta @ jt.T) @ jt


def subspace_jacobian(tm: AugmentedMoment, spec) -> np.ndarray:
    """m-by-m Jacobian of `constraints.subspace_theta`: the rule of J'(J theta J')^-1 J."""
    return d_qform_inv_vech(_projection(spec.augmented(tm.f_dim), tm.theta))


def hedge_jacobian(tm: AugmentedMoment, spec) -> np.ndarray:
    """m-by-m Jacobian of `constraints.hedged_delta_theta`: the inverse rule less P's."""
    proj = _projection(spec.augmented(tm.f_dim), tm.theta)
    return d_qform_inv_vech(tm.inverse) - d_qform_inv_vech(proj)


def cholesky_jacobian(tm: AugmentedMoment, cc) -> np.ndarray:
    """m-by-m Jacobian of `constraints.constrained_cholesky_estimate`, chained literally.

    d_gram of the constrained factor, the weighted projection, and
    d_chol_vech of the sample factor.
    """
    factor = chol(tm.theta)
    y, m = vech_lower(factor), vech_len(tm.dim)
    proj, z = np.eye(m), y
    if cc.n_constraints:
        w_inv = np.linalg.inv(np.eye(m) if cc.weighting is None else cc.weighting)
        bmat = cc.b_matrix
        gain = w_inv @ bmat.T @ np.linalg.inv(bmat @ w_inv @ bmat.T)
        proj = np.eye(m) - gain @ bmat
        z = gain @ cc.b_vector + proj @ y
    return d_gram(ivech(z, MatrixShape.LOWER_TRIANGULAR)) @ proj @ d_chol_vech(factor)


def reduced_rank_jacobian(tm: AugmentedMoment, r: int) -> np.ndarray:
    """fp-by-m Jacobian of `constraints.reduced_rank_coefficient`, one vech_gradient per entry.

    Entry (i, j) of the column-major vec(coef) is -P_ab, a = f + i, b = j,
    with dP_ab = tr(G' dtheta), G = V (K o v_a v_b') V', K the divided
    differences of the truncated eigen-inverse and v_a row a of V.
    """
    f, d, p = tm.f_dim, tm.dim, tm.n_assets
    vals, vecs = np.linalg.eigh(tm.theta)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    g = 1.0 / vals[:r]
    div = np.zeros((d, d))
    div[:r, :r] = -np.outer(g, g)
    div[:r, r:] = g[:, None] / (vals[:r, None] - vals[None, r:])
    div[r:, :r] = div[:r, r:].T
    va, vb = np.tile(vecs[f:], (f, 1)), np.repeat(vecs[:f], p, axis=0)
    return -vech_gradient(vecs @ (div * va[:, :, None] * vb[:, None, :]) @ vecs.T)


def mglh_jacobians(tm: AugmentedMoment, spec: MglhSpec) -> dict[str, np.ndarray]:
    """The four statistics' m-vector gradients, vech_gradient(L1 W1 L1' - R2 W2 R2') each."""
    fac = _factorize(tm, spec)
    l1, r2, weights = _weights(tm, spec, fac, *_g1g2_eigen(fac.g1, fac.g2))
    return {name: vech_gradient(l1 @ w1 @ l1.T - r2 @ w2 @ r2.T)
            for name, (w1, w2) in weights.items()}


def fd_step(x: np.ndarray) -> float:
    """Central-difference step: 1e-5 scaled by the sup norm of the input."""
    return 1e-5 * max(1.0, float(np.abs(x).max()))


def finite_difference_jacobian(
    f: Callable[[np.ndarray], np.ndarray], x0: np.ndarray, h: float | None = None
) -> np.ndarray:
    """Central-difference Jacobian of a vector map at x0."""
    x0 = np.asarray(x0, dtype=float).ravel()
    if h is None:
        h = fd_step(x0)
    cols = []
    for k in range(x0.size):
        xp = x0.copy()
        xm = x0.copy()
        xp[k] += h
        xm[k] -= h
        cols.append((np.asarray(f(xp), dtype=float) - np.asarray(f(xm), dtype=float)) / (2 * h))
    return np.column_stack(cols)


def fisher_information_block(theta: np.ndarray) -> np.ndarray:
    """Per-observation Fisher information of the non-redundant vech coordinates.

    The half-sandwich U [A' (D'(T kron T)D) A] U' with A = L(T^-1 kron T^-1)D,
    without the sample-size factor. Built literally from the structural
    matrices; the block of gaussian_omega past the corner is its inverse.
    """
    theta = check_symmetric(theta)
    d = theta.shape[0]
    el = elimination_matrix(d)
    du = duplication_matrix(d)
    un = remove_first(vech_len(d))
    tinv = np.linalg.inv(theta)
    a = el @ np.kron(tinv, tinv) @ du
    inner = a.T @ (du.T @ np.kron(theta, theta) @ du) @ a
    return 0.5 * (un @ inner @ un.T)


def conjecture_itheta_cov(tm: AugmentedMoment) -> np.ndarray:
    """Normal-returns covariance of vech of the inverse moment matrix, for every p.

    2 (D'(T kron T)D)^-1 - 2 e1 e1'. One row's influence on the inverse
    is -vech(s s') with s = T^-1 r Gaussian, of mean e1 and second moment
    T^-1, so Isserlis gives pair(T^-1) - 2 e1 e1', and pair(T^-1) is
    2 (D'(T kron T)D)^-1. Built from the dense duplication matrix as a
    reference for Theorem 1's chain over `gaussian_omega`; the name is
    from when the law was proven at p = 1 only.
    """
    theta = tm.theta
    d = theta.shape[0]
    du = duplication_matrix(d)
    inner = du.T @ np.kron(theta, theta) @ du
    try:
        out = 2.0 * np.linalg.inv(inner)
    except np.linalg.LinAlgError as exc:
        raise SingularTheta("duplication-sandwiched moment is singular") from exc
    out[0, 0] -= 2.0
    return 0.5 * (out + out.T)


def portfolio_jacobian(tm: AugmentedMoment, risk_budget: float) -> np.ndarray:
    """p-by-m Jacobian of the risk-budgeted weights with respect to vech(theta).

    d weights / d vech(theta^-1) is [-w/(2 psi^2), -(R/psi) I, 0], only
    the first column of theta^-1 entering, chained with the inverse
    rule. `asymptotics.portfolio_covariance` gives the sandwich the
    factor theta^-1 and a front instead, never forming this Jacobian.
    """
    weights, snr_sq = portfolio_head(tm, risk_budget)
    p = tm.n_assets
    front = np.hstack([-weights[:, None] / (2.0 * snr_sq),
                       -(risk_budget / np.sqrt(snr_sq)) * np.eye(p)])
    return front @ d_qform_inv_vech(tm.inverse, rows=np.arange(p + 1))


def snr_gradient(tm: AugmentedMoment, risk_budget: float, rfr: float) -> np.ndarray:
    """m-vector gradient of the achieved signal-noise ratio with respect to vech(theta).

    The reference for `asymptotics.snr_variance`, formed whole.
    """
    _, snr_sq = portfolio_head(tm, risk_budget)
    jac = d_qform_inv_vech(tm.inverse, rows=np.arange(tm.dim))
    return -(rfr / (risk_budget * snr_sq)) * (np.concatenate([[0.5], tm.theta[1:, 0]]) @ jac)


def coefficient_jacobian(tm: AugmentedMoment) -> np.ndarray:
    """fp-by-m Jacobian of vech(theta^-1) at the coefficient block, with respect to vech(theta).

    Rows follow the column-major vec of the p-by-f lower-left block; the
    reference for `constraints.markowitz_coefficient`, formed whole.
    """
    f, d = tm.f_dim, tm.dim
    where = {pair: k for k, pair in enumerate(zip(*vech_indices(d)))}
    coords = [where[i, j] for j in range(f) for i in range(f, d)]
    return d_qform_inv_vech(tm.inverse, rows=coords)


def mglh_he(tm: AugmentedMoment, spec: MglhSpec) -> tuple[np.ndarray, np.ndarray]:
    """Model variance H and error variance E of the hypothesis.

    The classical route through the regression coefficient and residual
    covariance; H inv(E) shares its eigenvalues with G1 G2. A stack of
    moments gives a stack of each.
    """
    if tm.layout is not MomentLayout.CONDITIONAL:
        raise ShapeMismatch("need a conditional-layout moment matrix")
    f, theta = tm.f_dim, tm.theta
    spec.validate_against(f, tm.n_assets)
    sig_f = theta[..., :f, :f]
    try:
        bhat = _t(np.linalg.solve(sig_f, theta[..., :f, f:]))
    except np.linalg.LinAlgError as exc:
        raise SingularTheta("feature gram is singular") from exc
    sigma = _sym(theta[..., f:, f:] - bhat @ sig_f @ _t(bhat))
    a, c, t = spec.a_matrix, spec.c_matrix, spec.t_matrix
    resid = a @ bhat @ c - t
    cquad = c.T @ _shared_solve(sig_f, c, "feature gram")
    try:
        h = resid @ np.linalg.solve(cquad, _t(resid))
    except np.linalg.LinAlgError as exc:
        raise SingularCquad("C' inv(feature gram) C is singular") from exc
    return _sym(h), _sym(a @ sigma @ a.T)


def sampled_moments(seed: int, trials: int, sample_size: int, widths: tuple[int, ...],
                    loading: np.ndarray, layout: MomentLayout = MomentLayout.UNCONDITIONAL,
                    f_dim: int = 1) -> AugmentedMoment:
    """The simulate suites' stack of sampled moments from drawn rows: the reference law.

    Chunk k of CHUNK trials draws from SeedSequence((seed, k)) every trial's
    standard normals of each width in turn, the widths in order; a trial's
    rows are loading @ [1, z'] (unconditional layout) or loading @ z
    (conditional layout), and its moment is loading G loading' for the Gram
    G of [1, z'] or z. `simulate` draws G itself as a Wishart, from a
    different stream with the same law.
    """
    unit = layout is MomentLayout.UNCONDITIONAL
    ones = np.ones(sample_size)
    theta = np.empty((trials,) + (loading.shape[0],) * 2)
    for idx, start in enumerate(range(0, trials, CHUNK)):
        n = min(CHUNK, trials - start)
        rng = np.random.default_rng(np.random.SeedSequence((seed, idx)))
        draws = [rng.standard_normal((n, sample_size, w)) for w in widths]
        gram = np.block([[a.swapaxes(1, 2) @ b for b in draws] for a in draws]) / sample_size
        if unit:
            means = np.concatenate([ones @ z for z in draws], axis=1) / sample_size
            head = np.concatenate([np.ones((n, 1, 1)), means[:, None, :]], axis=2)
            gram = np.block([[head], [means[:, :, None], gram]])
        theta[start : start + n] = loading @ gram @ loading.T
    return AugmentedMoment(theta, n_obs=sample_size, layout=layout, f_dim=f_dim)


class RankDeficientRegression(NumericalError):
    """The returns of the Britten-Jones regression are rank deficient."""


def britten_jones(values: np.ndarray) -> np.ndarray:
    """t-statistics from regressing the constant one vector on returns.

    No intercept; the coefficient t-statistics test the corresponding
    optimal-portfolio weights under Gaussian returns. Serves as the
    comparison oracle for the Wald z-scores.
    """
    x = np.atleast_2d(np.asarray(values, dtype=float))
    t, p = x.shape
    if t <= p:
        raise ShapeMismatch("need more observations than assets")
    gram = x.T @ x
    svals = np.linalg.svd(gram, compute_uv=False)
    if svals[-1] < 1e-12 * max(svals[0], 1e-300):
        raise RankDeficientRegression("returns matrix is rank deficient")
    y = np.ones(t)
    coef = np.linalg.solve(gram, x.T @ y)
    resid = y - x @ coef
    s2 = float(resid @ resid) / (t - p)
    se = np.sqrt(s2 * np.diag(np.linalg.inv(gram)))
    return coef / se


def _scalar_head_weights(point: np.ndarray, n_assets: int, risk_budget: float,
                         corner_offset: float, what: str) -> np.ndarray:
    """Scaled weights -(R / sqrt(snr_sq)) point[1..p] of a vech'd projection.

    snr_sq is the corner point[0] less corner_offset. The risk budget
    passes the portfolio head's gate, and snr_sq must be positive.
    """
    check_risk_budget(risk_budget)
    snr_sq = point[0] - corner_offset
    if not snr_sq > 0:
        raise SingularProjection(f"{what} squared Sharpe is not positive")
    return -(risk_budget / np.sqrt(snr_sq)) * point[1 : n_assets + 1]


def subspace_weights(point: np.ndarray, n_assets: int, risk_budget: float) -> np.ndarray:
    """Scaled weights from a vech'd subspace projection (scalar leading block)."""
    return _scalar_head_weights(point, n_assets, risk_budget, 1.0, "projected")


def hedged_weights(point: np.ndarray, n_assets: int, risk_budget: float) -> np.ndarray:
    """Scaled weights from a vech'd hedged delta (scalar leading block)."""
    return _scalar_head_weights(point, n_assets, risk_budget, 0.0, "hedged")
