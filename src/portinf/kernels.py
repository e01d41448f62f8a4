"""vech operators, the vech index gathers and the matrix-derivative rules.

Everything here is a pure function over dense numpy arrays. Derivatives
follow the numerator-layout convention throughout: the derivative of an
n-vector y with respect to an m-vector x is the n-by-m matrix whose
columns are the partials, and matrix derivatives are derivatives of the
column-major vectorizations. vech stacks the lower triangle column by
column.

The derivative rules here are index gathers over the cached vech
coordinates (vech_pair, d_qform_inv_vech), which cost O(m^2) for
m = n(n+1)/2 and never form a Kronecker product. No estimator forms a
vech Jacobian: each gives `OmegaEstimate.sandwich` its gradient through a
factor of the rows. The dense structural matrices, the kron-form rules,
the other vech Jacobians and the finite-difference Jacobian that the
tests compare against live in oracles.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import (
    AsymmetricInput,
    BadLength,
    NotPositiveDefinite,
    RankDeficient,
    ShapeMismatch,
    SingularMatrix,
    SingularTheta,
)

SYMMETRY_RTOL = 1e-12
RANK_RTOL = 1e-10
PD_RTOL = 1e-12  # the least spd_inverse ratio a positive definite matrix may have


class MatrixShape(Enum):
    SYMMETRIC = "symmetric"
    LOWER_TRIANGULAR = "lower_triangular"


def vech_len(n: int) -> int:
    return n * (n + 1) // 2


def vech_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) index arrays of the lower triangle in column-major order, cached and read-only."""
    rows, cols, _ = _vech_gather(n)
    return rows, cols


@lru_cache(maxsize=64)
def _vech_gather(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only vech (row, col) indices and the mask of diagonal coordinates."""
    cols, rows = np.triu_indices(n)
    diag = rows == cols
    for arr in (rows, cols, diag):
        arr.setflags(write=False)
    return rows, cols, diag


def vech_block(n: int, block: tuple[slice, slice]) -> np.ndarray:
    """vech coordinates of the entries of block (rows, cols) of a symmetric n-by-n matrix.

    In column-major order over the block; an entry above the diagonal
    reads its mirror image.
    """
    i, j = np.arange(n)[block[0]], np.arange(n)[block[1]]
    lo, hi = np.minimum.outer(j, i), np.maximum.outer(j, i)
    return (lo * n - lo * (lo - 1) // 2 + hi - lo).ravel()


def check_symmetric(m: np.ndarray, stacked: bool = False) -> np.ndarray:
    """Validate finiteness and symmetry to SYMMETRY_RTOL relative, then return (M + M')/2.

    With stacked=True, m is an (n, d, d) stack and each member is gated
    against its own largest entry. A NaN or infinite entry raises
    SingularTheta; it would otherwise slip through, as its asymmetry gap
    compares False.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 + stacked or m.shape[-1] != m.shape[-2]:
        kind = "stack of square matrices" if stacked else "square matrix"
        raise ShapeMismatch(f"expected a {kind}, got {m.shape}")
    # the largest |entry|, NaN if any entry is NaN
    largest = max(m.max(), -m.min())
    if not math.isfinite(largest):
        raise SingularTheta("matrix has a non-finite entry")
    mt = m.swapaxes(-1, -2)
    # m - m' is antisymmetric to the bit, so its largest entry is its largest |entry|
    gap = (m - mt).max()
    # every member's scale is at least 1, so a stack whose gap passes at scale 1 passes
    # member by member; otherwise gate the member furthest from symmetric, relative to
    # its own scale
    scale = 1.0 if stacked else max(largest, 1.0)
    if stacked and gap > SYMMETRY_RTOL:
        gap = (m - mt).max(axis=(1, 2))
        scale = np.maximum(np.maximum(m.max(axis=(1, 2)), -m.min(axis=(1, 2))), 1.0)
        worst = np.argmax(gap / scale)
        scale, gap = scale[worst], gap[worst]
    if gap > SYMMETRY_RTOL * scale:
        raise AsymmetricInput(f"asymmetry {gap:.3e} exceeds {SYMMETRY_RTOL:.0e} relative")
    out = m + mt
    out *= 0.5
    return out


def row_basis(mat: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows Q spanning the rows of mat, and the R with mat = R'Q.

    Only the row space of a restriction matrix matters, so every caller
    works in Q. An empty matrix, one with more rows than columns, or one
    with a NaN or infinite entry raises ShapeMismatch; a smallest singular
    value below RANK_RTOL of the largest raises RankDeficient. Q is
    C-contiguous and R upper triangular.
    """
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    if mat.size == 0 or mat.shape[0] > mat.shape[1]:
        raise ShapeMismatch(f"{name} of shape {mat.shape} is empty or has more rows than columns")
    if not np.isfinite(mat).all():
        raise ShapeMismatch(f"non-finite entry in {name}")
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals[-1] < RANK_RTOL * max(svals[0], 1e-300):
        raise RankDeficient(f"{name} is rank deficient")
    q, r = np.linalg.qr(mat.T)
    return np.ascontiguousarray(q.T), r


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of 2-D blocks, zeros elsewhere."""
    blocks = [np.atleast_2d(np.asarray(b, dtype=float)) for b in blocks]
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def vech(m: np.ndarray) -> np.ndarray:
    """Lower triangle of a symmetric matrix, stacked column-major."""
    m = check_symmetric(m)
    rows, cols = vech_indices(m.shape[0])
    return m[rows, cols]


def vech_lower(m: np.ndarray) -> np.ndarray:
    """vech of a lower-triangular matrix (no symmetry check)."""
    m = np.asarray(m, dtype=float)
    rows, cols = vech_indices(m.shape[0])
    return m[rows, cols]


def ivech(v: np.ndarray, shape: MatrixShape = MatrixShape.SYMMETRIC) -> np.ndarray:
    """Rebuild a matrix from its vech.

    SYMMETRIC mirrors the lower triangle; LOWER_TRIANGULAR leaves the
    upper triangle zero.
    """
    v = np.asarray(v, dtype=float).ravel()
    n = round((math.sqrt(8 * v.size + 1) - 1) / 2)
    if n < 1 or vech_len(n) != v.size:
        raise BadLength(f"no integer n with n(n+1)/2 == {v.size}")
    rows, cols = vech_indices(n)
    out = np.zeros((n, n))
    out[rows, cols] = v
    if shape is MatrixShape.SYMMETRIC:
        out[cols, rows] = v
    return out


def spd_inverse(a: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """Inverse of a symmetric matrix, or of each member of an (n, d, d) stack, and its ratio.

    Each member is equilibrated, A = D a D with D = diag(s), s = diag(a)^-1/2
    (formed as a times the outer product s s'), so the ratio is unit-free. One
    LU inverse Y of A gives the inverse D Y D, formed as Y times s s' and then
    symmetrized; no refinement step follows, as one would not make Y more
    accurate. One Cholesky factor of the stack certifies every member positive
    definite, and Y bounds its smallest-to-largest eigenvalue ratio from below:
    1/(|A|inf |Y|inf), exact for a diagonal A and within a factor d otherwise.
    A member whose bound is below 2 PD_RTOL, or every member when the Cholesky
    fails (it fails the whole stack for one member that is not positive
    definite), also gets its exact ratio from eigvalsh. The ratio returned is
    the bound when the exact ratio is at least PD_RTOL and the bound at least
    2 PD_RTOL, and the exact ratio otherwise; it depends on the member alone,
    and callers gate with ratio >= PD_RTOL. The ratio is NaN for a member with
    a non-finite entry or a non-positive diagonal. Every member below PD_RTOL,
    NaN included, gets the identity as inverse, and when the Cholesky fails it
    is replaced by the identity before the LU, so a bad member never fails the
    rest of a stack.
    """
    a = np.asarray(a, dtype=float)
    eye = np.eye(a.shape[-1])
    valid = np.isfinite(a).all() and (np.diagonal(a, 0, -2, -1) > 0).all()
    if not valid:  # find the members to replace
        valid = np.isfinite(a).all(axis=(-2, -1)) & (np.diagonal(a, 0, -2, -1) > 0).all(axis=-1)
        a = np.where(valid[..., None, None], a, eye)
    scale = 1.0 / np.sqrt(np.diagonal(a, 0, -2, -1))
    outer = scale[..., :, None] * scale[..., None, :]
    a = a * outer
    try:
        np.linalg.cholesky(a)
        y = np.linalg.inv(a)
        exact = None
    except np.linalg.LinAlgError:  # a member is not positive definite, or its LU is singular
        exact = _eig_ratio(a)
        y = np.linalg.inv(np.where((exact >= PD_RTOL)[..., None, None], a, eye))
    bound = 1.0 / (_norm_inf(a) * _norm_inf(y))
    # Near the gate Y has a forward error of about d eps / ratio relative, 2e-4 d at
    # PD_RTOL, and eigvalsh's smallest eigenvalue one of the same order, so a bound at
    # 2 PD_RTOL leaves the exact ratio above PD_RTOL for any d below about a thousand
    sure = bound >= 2 * PD_RTOL
    if exact is None:
        ratio = np.array(bound)
        if not sure.all():
            ratio[~sure] = _eig_ratio(a[~sure])
    else:
        ratio = np.where(sure & (exact >= PD_RTOL), bound, exact)
    ratio = np.where(valid, ratio, np.nan)
    pd = ratio >= PD_RTOL
    every = pd.all()
    if not every:
        y = np.where(pd[..., None, None], y, eye)
    y *= outer
    inv = y + y.swapaxes(-1, -2)
    inv *= 0.5
    if not every:
        inv = np.where(pd[..., None, None], inv, eye)
    return inv, ratio[()]  # a float for one matrix


def _norm_inf(a: np.ndarray) -> np.ndarray:
    """The infinity norm of each member: its largest absolute row sum."""
    return np.abs(a).sum(axis=-1).max(axis=-1)


def _eig_ratio(a: np.ndarray) -> np.ndarray:
    """Smallest over largest eigenvalue of each member, from eigvalsh alone."""
    vals = np.linalg.eigvalsh(a)
    return vals[..., 0] / vals[..., -1]


def _inv(a: np.ndarray, err: str) -> np.ndarray:
    try:
        out = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(err) from exc
    if not np.all(np.isfinite(out)):
        raise SingularMatrix(err)
    return out


# --- derivative rules ---------------------------------------------------

def vech_pair(a: np.ndarray, rows=None) -> np.ndarray:
    """pair(A)[(i,j),(k,l)] = A_ik A_jl + A_il A_jk over vech of A's rows and of its columns.

    For n-by-q A this is L_n (I + K_n)(A kron A) L_q', which takes vech(V),
    V lower triangular, to vech(A (V + V') A'); for symmetric A, the
    covariance of vech(z z') for mean-zero Gaussian z with second moment A.
    rows picks a subset of the vech rows (any numpy index); columns are all of vech.
    """
    a = np.asarray(a, dtype=float)
    r, c, _ = _vech_gather(a.shape[0])
    k, l, _ = _vech_gather(a.shape[1])
    # gather the selected rows of A, then their columns; take gives each
    # product a fresh C-ordered operand that numpy can overwrite in place
    ai, aj = (a[r], a[c]) if rows is None else (a[r[rows]], a[c[rows]])
    return ai.take(k, axis=1) * aj.take(l, axis=1) + ai.take(l, axis=1) * aj.take(k, axis=1)


def d_qform_inv_vech(proj: np.ndarray, rows=None) -> np.ndarray:
    """vech Jacobian of X -> J'(J X J')^-1 J at the value P it takes there.

    Equals -L (P kron P) D: -pair(P) with the diagonal columns (k = l)
    halved. With J = I, P is X^-1 and this is the inverse rule. rows
    picks a subset of the vech rows, as in vech_pair.
    """
    out = -vech_pair(proj, rows)
    out[:, _vech_gather(np.shape(proj)[0])[2]] *= 0.5
    return out


def d_inv_vech(a: np.ndarray) -> np.ndarray:
    """Jacobian of vech(A^-1) with respect to vech(A), symmetric A.

    Equals -L (A^-1 kron A^-1) D, the half-vectorized generalization of
    d(1/x)/dx = -1/x^2.
    """
    a = check_symmetric(a)
    return d_qform_inv_vech(_inv(a, "d_inv_vech: input is singular"))


def d_qform_inv(j: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Jacobian of vec((J X J')^-1) with respect to vec(X).

    Returns -((J X J')^-1 kron (J X J')^-1)(J kron J) for constant J,
    symmetric X, with J X J' invertible.
    """
    j = np.atleast_2d(np.asarray(j, dtype=float))
    x = check_symmetric(x)
    q = j @ x @ j.T
    qinv = _inv(q, "d_qform_inv: J X J' is singular")
    return -np.kron(qinv, qinv) @ np.kron(j, j)


def chol(x: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of an SPD matrix."""
    x = check_symmetric(x)
    try:
        return np.linalg.cholesky(x)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("cholesky: matrix is not positive definite") from exc
