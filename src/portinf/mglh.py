"""Multivariate general linear hypothesis statistics and their asymptotics.

Tests A B C = T on the coefficient of a multivariate regression encoded
in a conditional moment matrix. The statistics are computed from a pair
of small matrices read off a bordered inversion of the moment matrix;
the classical model/error-variance route is kept in oracles (the two
share eigenvalues). Gradients with respect to the moment matrix feed
normal-approximation variances for all four statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .asymptotics import DistributionResult, OmegaEstimate
from .errors import RepeatedEigenvalue, ShapeMismatch, SingularCquad, SingularTheta
from .kernels import block_diag, row_basis, vech_indices
from .moments import AugmentedMoment, MomentLayout

EIG_GAP_RTOL = 1e-10
STAT_NAMES = ("hlt", "pbt", "wilks", "roy")


@dataclass
class MglhSpec:
    """Hypothesis A B C = T with full-rank contrast matrices, kept orthonormal.

    The statistics are invariant to A -> QA, C -> CR, T -> QTR for
    invertible Q and R, so with A' = Qa Ra and C = Qc Rc (`kernels.row_basis`
    of A and C') the spec stores Qa', Qc and Ra'^-1 T Rc^-1: a near-collinear
    contrast that passes the rank gate then leaves the bordered moment as
    well conditioned as the moment itself.
    """

    a_matrix: np.ndarray
    c_matrix: np.ndarray
    t_matrix: np.ndarray

    def __post_init__(self):
        c_matrix = np.atleast_2d(np.asarray(self.c_matrix, dtype=float))
        t_matrix = np.atleast_2d(np.asarray(self.t_matrix, dtype=float))
        a_rows, r_a = row_basis(self.a_matrix, "contrast A")
        c_rows, r_c = row_basis(c_matrix.T, "contrast C'")
        a, c = r_a.shape[0], r_c.shape[0]
        if t_matrix.shape != (a, c):
            raise ShapeMismatch(f"target must be {a}x{c}, got {t_matrix.shape}")
        if not np.isfinite(t_matrix).all():
            raise ShapeMismatch("non-finite entry in target T")
        self.a_matrix, self.c_matrix = a_rows, c_rows.T
        self.t_matrix = np.linalg.solve(r_c.T, np.linalg.solve(r_a.T, t_matrix).T).T

    @property
    def n_rows(self) -> int:
        return self.a_matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.c_matrix.shape[1]

    def validate_against(self, f: int, p: int):
        a, c = self.n_rows, self.n_cols
        if self.a_matrix.shape != (a, p):
            raise ShapeMismatch(f"A must be a x p = {a}x{p}")
        if self.c_matrix.shape != (f, c):
            raise ShapeMismatch(f"C must be f x c = {f}x{c}")
        if a > p or c > f:
            raise ShapeMismatch("need a <= p and c <= f")


@dataclass
class MglhResult:
    hlt: float | np.ndarray
    pbt: float | np.ndarray
    wilks: float | np.ndarray
    roy: float | np.ndarray
    n_obs: int

    def as_dict(self) -> dict[str, float]:
        return {"hlt": self.hlt, "pbt": self.pbt, "wilks": self.wilks, "roy": self.roy}


def _t(x: np.ndarray) -> np.ndarray:
    """Transpose of each matrix in a (..., r, c) array."""
    return x.swapaxes(-1, -2)


def _sym(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + _t(x))


def _shared_solve(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """inv(a) b, with b shared by every member of a stack a; a singular a raises SingularTheta."""
    try:
        return np.linalg.solve(a, np.broadcast_to(b, a.shape[:-2] + b.shape))
    except np.linalg.LinAlgError as exc:
        raise SingularTheta(f"{what} is singular") from exc


def _border(spec: MglhSpec, f: int) -> np.ndarray:
    """The (f+p) x (f+a) augmentation pairing features with contrasted assets."""
    return block_diag(np.eye(f), spec.a_matrix.T)


def _stack(spec: MglhSpec) -> np.ndarray:
    return np.vstack([spec.c_matrix, spec.t_matrix])


@dataclass
class _Factors:
    """G1 and G2 with the solves their gradient reuses.

    g1_inv is C' inv(feature gram) C, the matrix G1 inverts, feature_c is
    inv(feature gram) C and core_s is Q S, the bordered moment M' theta M
    solved against the stacked contrast and target S (Q its inverse, which
    is never formed), so G2 = S' Q S; each is a stack for a stack of moments.
    """

    g1: np.ndarray
    g2: np.ndarray
    g1_inv: np.ndarray
    feature_c: np.ndarray
    core_s: np.ndarray


def _factorize(tm: AugmentedMoment, spec: MglhSpec) -> _Factors:
    if tm.layout is not MomentLayout.CONDITIONAL:
        raise ShapeMismatch("need a conditional-layout moment matrix")
    f = tm.f_dim
    spec.validate_against(f, tm.n_assets)
    feature_c = _shared_solve(tm.theta[..., :f, :f], spec.c_matrix, "feature gram")
    cquad = spec.c_matrix.T @ feature_c
    try:
        g1 = np.linalg.inv(cquad)
    except np.linalg.LinAlgError as exc:
        raise SingularCquad("C' inv(feature gram) C is singular") from exc
    mt = _border(spec, f)
    core = mt.T @ tm.theta @ mt
    s = _stack(spec)
    core_s = _shared_solve(core, s, "bordered moment")
    return _Factors(_sym(g1), _sym(s.T @ core_s), _sym(cquad), feature_c, core_s)


def _whiten(g1: np.ndarray, g2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """R = chol(G1) and R' G2 R, whose eigenvalues are those of G1 G2.

    Works on stacks of factors; an indefinite G1 raises SingularCquad.
    """
    try:
        r = np.linalg.cholesky(g1)
    except np.linalg.LinAlgError as exc:
        raise SingularCquad("C' inv(feature gram) C is not positive definite") from exc
    return r, _t(r) @ g2 @ r


def _g1g2_eigen(g1: np.ndarray, g2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and right eigenvectors of the product G1 G2.

    Solved as the symmetric-definite pencil G2 v = lambda inv(G1) v through
    `_whiten`: the eigenvectors w of R' G2 R give v = R w, normalized to
    v' inv(G1) v = 1, and the eigenvalues come out real. Only the gradient
    reads the eigenvectors; `mglh_statistics` takes eigvalsh of the same
    R' G2 R.
    """
    r, whitened = _whiten(g1, g2)
    vals, w = np.linalg.eigh(whitened)
    return vals[..., ::-1], (r @ w)[..., ::-1]


def mglh_statistics(tm: AugmentedMoment, spec: MglhSpec) -> MglhResult:
    """Point values of the four hypothesis statistics.

    For a stack of moments each statistic holds one value per member, in
    stack order.
    """
    fac = _factorize(tm, spec)
    vals = np.linalg.eigvalsh(_whiten(fac.g1, fac.g2)[1])[..., ::-1]
    a, c = spec.n_rows, spec.n_cols
    inv = 1.0 / vals
    stats = [np.sum(vals, axis=-1) - c, np.sum(inv, axis=-1) + a - c,
             np.prod(inv, axis=-1), vals[..., 0] - 1.0]
    if vals.ndim == 1:
        stats = [float(x) for x in stats]
    return MglhResult(*stats, tm.n_obs)


def _weights(tm: AugmentedMoment, spec: MglhSpec, fac: _Factors, vals: np.ndarray,
             vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray, dict[str, tuple]]:
    """L1, R2 and each statistic's (W1, W2); see `mglh_derivatives`."""
    g1, g2 = fac.g1, fac.g2
    l1 = np.zeros((tm.dim, spec.n_cols))
    l1[: tm.f_dim] = fac.feature_c @ g1
    r2 = _border(spec, tm.f_dim) @ fac.core_s

    g1_inv, g2_inv = fac.g1_inv, np.linalg.inv(g2)
    wilks = np.prod(1.0 / vals)
    if len(vals) > 1 and vals[0] - vals[1] < EIG_GAP_RTOL * max(abs(vals[0]), 1e-300):
        raise RepeatedEigenvalue("leading root of the product is not simple")
    v = vecs[:, 0]
    u = g1_inv @ v                      # left eigenvector of G1 G2
    uv = float(u @ v)
    weights = {
        "hlt": (g2, g1),
        "pbt": (-g1_inv @ g2_inv @ g1_inv, -g2_inv @ g1_inv @ g2_inv),
        "wilks": (-wilks * g1_inv, -wilks * g2_inv),
        "roy": (np.outer(g2 @ v, u) / uv, np.outer(v, u @ g1) / uv),
    }
    return l1, r2, weights


def mglh_derivatives(tm: AugmentedMoment,
                     spec: MglhSpec) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Gradients of the four statistics with respect to theta, as a factor and one front each.

    Each statistic moves as tr(W1 dG1) + tr(W2 dG2). With
    dG1 = L1' dtheta L1, L1 = E inv(feature gram) C G1 (E the leading
    columns), and dG2 = -R2' dtheta R2, R2 = M Q S (M the border, Q the
    inverse bordered moment, S the stacked contrast and target), the
    gradient is Gamma = L1 W1 L1' - R2 W2 R2' = F W F' for the factor
    F = [L1, R2] and W = diag(W1, -W2). Returns F and, per statistic, W's
    front on vech(F' dtheta F) for `OmegaEstimate.sandwich`. The
    largest-root weights pair the left and right eigenvectors of the
    (non-symmetric) product G1 G2. inv(feature gram) C and Q S are the
    solves that G1 and G2 were formed from.
    """
    fac = _factorize(tm, spec)
    l1, r2, weights = _weights(tm, spec, fac, *_g1g2_eigen(fac.g1, fac.g2))
    # tr(W x) on the symmetric x puts W_ab + W_ba on each vech coordinate, W_aa on the diagonal
    rows, cols = vech_indices(2 * spec.n_cols)
    fronts = {}
    for name, (w1, w2) in weights.items():
        w = block_diag(w1, -w2)
        fronts[name] = (w + w.T)[rows, cols]
        fronts[name][rows == cols] *= 0.5
    return np.hstack([l1, r2]), fronts


def mglh_asymptotic(tm: AugmentedMoment, spec: MglhSpec,
                    om: OmegaEstimate) -> tuple[MglhResult, DistributionResult]:
    """Statistics with the delta-method normal law of their distance from no effect.

    The law's point is the four statistics, in STAT_NAMES order, less their
    no-effect values (0, a, 1, 0), so `asymptotics.wald_statistics` reads
    z-scores off it. The statistics behave more like chi-square variates
    in small samples, so those scores are approximations.
    """
    result = mglh_statistics(tm, spec)
    factor, fronts = mglh_derivatives(tm, spec)
    # the four statistics share one factor and one sandwich
    cov = om.sandwich(factor, front=np.stack([fronts[k] for k in STAT_NAMES]))
    nulls = {"hlt": 0.0, "pbt": float(spec.n_rows), "wilks": 1.0, "roy": 0.0}
    point = [result.as_dict()[k] - nulls[k] for k in STAT_NAMES]
    return result, DistributionResult(point, cov, tm.n_obs)
