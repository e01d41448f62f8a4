"""vec/vech operators and matrix-derivative rules.

Everything here is a pure function over dense numpy arrays. Derivatives
follow the numerator-layout convention throughout: the derivative of an
n-vector y with respect to an m-vector x is the n-by-m matrix whose
columns are the partials, and matrix derivatives are derivatives of the
column-major vectorizations. vech stacks the lower triangle column by
column.

The estimators build their vech Jacobians with index gathers over the
cached vech coordinates (vech_pair, d_qform_inv_vech, d_gram), which
cost O(m^2) for m = n(n+1)/2 and never form a Kronecker product. The
structural matrices (elimination, duplication, commutation,
remove-first) and the vec-level rules built from kron are kept as dense
0/1 arrays and literal Magnus-Neudecker forms: they are the oracles the
tests compare the gathers against.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    AsymmetricInput,
    BadLength,
    NotPositiveDefinite,
    RankDeficient,
    RepeatedEigenvalue,
    ShapeMismatch,
    SingularMatrix,
    SingularTheta,
)

SYMMETRY_RTOL = 1e-12
EIG_GAP_RTOL = 1e-10


class MatrixShape(Enum):
    SYMMETRIC = "symmetric"
    LOWER_TRIANGULAR = "lower_triangular"


def vech_len(n: int) -> int:
    return n * (n + 1) // 2


def side_from_vech_len(m: int) -> int:
    """Side length n such that n(n+1)/2 == m, or raise BadLength."""
    n = int((np.sqrt(8 * m + 1) - 1) / 2)
    for cand in (n - 1, n, n + 1):
        if cand > 0 and vech_len(cand) == m:
            return cand
    raise BadLength(f"no integer n with n(n+1)/2 == {m}")


def vech_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) index arrays of the lower triangle in column-major order."""
    cols, rows = np.triu_indices(n)
    return rows, cols


@lru_cache(maxsize=64)
def _vech_gather(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only vech (row, col) indices and the mask of diagonal coordinates."""
    rows, cols = vech_indices(n)
    diag = rows == cols
    for arr in (rows, cols, diag):
        arr.setflags(write=False)
    return rows, cols, diag


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


def check_symmetric(m: np.ndarray, rtol: float = SYMMETRY_RTOL,
                    stacked: bool = False) -> np.ndarray:
    """Validate finiteness and symmetry to relative tolerance, then return (M + M')/2.

    With stacked=True, m is an (n, d, d) stack and each member is gated
    against its own largest entry. A NaN or infinite entry raises
    SingularTheta; it would otherwise slip through, as its asymmetry gap
    compares False.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 + stacked or m.shape[-1] != m.shape[-2]:
        kind = "stack of square matrices" if stacked else "square matrix"
        raise ShapeMismatch(f"expected a {kind}, got {m.shape}")
    largest = np.abs(m).max(axis=(-2, -1))  # one entry per member of a stack
    if not math.isfinite(largest.max()):
        raise SingularTheta("matrix has a non-finite entry")
    mt = m.swapaxes(-1, -2)
    if stacked:
        # gate the member furthest from symmetric, relative to its own scale
        scale = np.maximum(largest, 1.0)
        gap = np.abs(m - mt).max(axis=(1, 2))
        worst = np.argmax(gap / scale)
        scale, gap = scale[worst], gap[worst]
    else:
        scale = max(largest, 1.0)
        gap = np.abs(m - mt).max()
    if gap > rtol * scale:
        raise AsymmetricInput(f"asymmetry {gap:.3e} exceeds {rtol:.0e} relative")
    return 0.5 * (m + mt)


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
    n = side_from_vech_len(v.size)
    rows, cols = vech_indices(n)
    out = np.zeros((n, n))
    out[rows, cols] = v
    if shape is MatrixShape.SYMMETRIC:
        out[cols, rows] = v
    return out


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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


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
    """pair(A)[(i,j),(k,l)] = A_ik A_jl + A_il A_jk over vech coordinates.

    For symmetric A this is L (I + K)(A kron A) L', the covariance of
    vech(z z') for mean-zero Gaussian z with second moment A. rows picks
    a subset of the vech rows (any numpy index); columns are all of vech.
    """
    a = np.asarray(a, dtype=float)
    r, c, _ = _vech_gather(a.shape[0])
    ri, rj = (r, c) if rows is None else (r[rows], c[rows])
    ri, rj = ri[:, None], rj[:, None]
    return a[ri, r] * a[rj, c] + a[ri, c] * a[rj, r]


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


def d_qform_inv(j: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Jacobian of vec((J X J')^-1) with respect to vec(X).

    Returns -((J X J')^-1 kron (J X J')^-1)(J kron J) for constant J,
    symmetric X, with J X J' invertible.
    """
    j = np.atleast_2d(np.asarray(j, dtype=float))
    x = check_symmetric(x)
    q = j @ x @ j.T
    qinv = _inv(q, "d_qform_inv: J X J' is singular")
    return -kron(qinv, qinv) @ kron(j, j)


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
    return kron(np.eye(y.shape[1]), x) @ dy + kron(y.T, np.eye(x.shape[0])) @ dx


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
    return (np.eye(n * n) + ka) @ kron(x, np.eye(n)) @ dx


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
    return kron(v, v) @ dx


def chol(x: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of an SPD matrix."""
    x = check_symmetric(x)
    try:
        return np.linalg.cholesky(x)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("cholesky: matrix is not positive definite") from exc


def pinv_rank(x: np.ndarray, r: int) -> np.ndarray:
    """Pseudoinverse of the rank-r projection built from the r largest eigenvalues."""
    vals, vecs = eigen_sym(x)
    if r < 1 or r > len(vals):
        raise ShapeMismatch(f"rank {r} out of range for size {len(vals)}")
    if vals[r - 1] < 1e-12 * max(vals[0], 1e-300):
        raise RankDeficient(f"eigenvalue {r} of {vals[r - 1]:.3e} is numerically zero")
    vr = vecs[:, :r]
    return vr @ np.diag(1.0 / vals[:r]) @ vr.T


# --- finite differences (the independent oracle for every rule above) ---

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
