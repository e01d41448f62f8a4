"""Covariance of the vectorized outer products and the one delta-method sandwich.

Everything downstream of the central limit theorem lives here: estimate
the covariance Omega of vech(row outer products) from data (plain or
kernel weighted for serial dependence) or in the Gaussian closed form,
and turn every estimand's gradient, given in one form through a factor
of the rows, into its covariance with `OmegaEstimate.sandwich`.

Covariances follow the per-observation convention: results store the
asymptotic covariance of sqrt(n) times the estimator, so Var(estimate)
is covariance / n_obs.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BandwidthTooLarge, DegenerateCorrelation, NonPositiveRfr, ShapeMismatch
from .kernels import PD_RTOL, check_symmetric, vech, vech_block, vech_indices, vech_len, vech_pair
from .moments import AugmentedMoment, portfolio_head

logger = logging.getLogger(__name__)

HAC_KERNELS = ("bartlett", "parzen")
_FIRST_COLUMN = (slice(None), slice(0, 1))  # the block of theta^-1 the weights and the SNR read
_BLOCK_BYTES = 1 << 21  # the size of the row blocks that a Parzen sum takes one at a time


def _orthonormal_factor(factor: np.ndarray, front: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal columns U of the factor, and each front moved onto them.

    With F = U R, R = S V' from the thin SVD, Gamma_k = F W_k F' =
    U (R W_k R') U'. Where the column blocks of F nearly cancel in Gamma_k
    (the MGLH gradient's two terms, on [L1, R2]) the sandwich
    in F sums terms of size |F|^4 |W_k|^2 to a variance of size
    |Gamma_k|^2, losing eps times their ratio; in U that cancellation
    happens once, in R W_k R'. A front is the vech of W_k's lower triangle
    with its off-diagonal doubled, so vech_pair(R) takes it to vech of
    2 R W_k R', whose diagonal is halved back. The SVD takes a factor of
    any shape and rank, as the MGLH factor [L1, R2], which can be wide.
    """
    u, svals, vt = np.linalg.svd(factor, full_matrices=False)
    moved = np.atleast_2d(front) @ vech_pair(svals[:, None] * vt).T
    rows, cols = vech_indices(u.shape[1])
    moved[:, rows == cols] *= 0.5
    return u, moved


@dataclass
class OmegaEstimate:
    """Covariance Omega of vech of the per-row outer products; its fields say which.

    The Gaussian closed form keeps the rows' second moment `theta` and
    `mean` (zero when None). A data estimate keeps the augmented `rows`,
    read-only, and the centered series vech(r r') - vech(R'R/T) that
    `vech_outer_rows` builds from them, which only `omega` reads; it is
    vanilla without a kernel, HAC up to `bandwidth` with one.

    Every gradient comes in one form: symmetric Gamma_k = F W_k F',
    d est_k = tr(Gamma_k dtheta), through a d-by-r factor F of the rows. A
    data estimate runs `_long_run` on the centered influence
    psi_tk = s_t' W_k s_t, s_t = F' r_t. The Gaussian one is
    2 tr(W_k S W_l S) - 2 (nu' W_k nu)(nu' W_l nu), S = F' theta F and
    nu = F' mean, that is 2 <C' Gamma_k C, C' Gamma_l C> less the mean
    term for theta = C C' (Isserlis 1918). Neither forms `omega` unless
    it is read.
    """

    theta: np.ndarray | None
    n_obs: int
    kernel: str | None = None
    bandwidth: int | None = None
    rows: np.ndarray | None = field(default=None, repr=False)
    mean: np.ndarray | None = field(default=None, repr=False)
    series: np.ndarray | None = field(default=None, init=False, repr=False)
    dim: int = field(init=False, repr=False)

    def __post_init__(self):
        if (self.theta is None) == (self.rows is None):
            raise ShapeMismatch("give omega as a Gaussian moment or as rows")
        if (self.kernel is None) != (self.bandwidth is None):
            raise ShapeMismatch("give a HAC kernel and its bandwidth together")
        if self.rows is None:
            if self.kernel is not None:
                raise ShapeMismatch("a HAC kernel needs rows, not a Gaussian moment")
            self.theta = check_symmetric(self.theta)
            d = self.theta.shape[0]
            self.mean = np.zeros(d) if self.mean is None else np.asarray(self.mean, dtype=float)
            self.dim = vech_len(d)
            return
        if self.kernel is not None:
            check_hac(self.kernel, self.bandwidth)
        rows = np.array(self.rows, dtype=float, ndmin=2)
        rows.setflags(write=False)
        self.rows, self.series = rows, vech_outer_rows(rows)
        self.dim = self.series.shape[1]

    @property
    def label(self) -> str:
        """gaussian for a moment; vanilla, or hac:KERNEL:BANDWIDTH, for rows."""
        if self.rows is None:
            return "gaussian"
        return "vanilla" if self.kernel is None else f"hac:{self.kernel}:{self.bandwidth}"

    @cached_property
    def omega(self) -> np.ndarray:
        """The m-by-m matrix, formed on first read: the kernel on the series, or the closed form."""
        if self.rows is None:
            return self._isserlis(np.eye(self.theta.shape[0]), None, None)
        return self._long_run(self.series)

    def sandwich(self, factor: np.ndarray, block: tuple[slice, slice] | None = None,
                 front: np.ndarray | None = None) -> np.ndarray | float:
        """Delta-method covariance of k estimands that move as front @ x.

        x is vech(F' dtheta F) for the d-by-r `factor` F, or the entries of
        its `block` (rows, cols), column-major; `front` (W_k's weights on x)
        is None for x itself, k-by-c, or a c-vector whose variance comes
        back as a float. A front without a block is first moved onto the
        factor's orthonormal columns by a rectangular `vech_pair`.
        """
        factor = np.asarray(factor, dtype=float)
        self._check_width(vech_len(factor.shape[0]))
        scalar = front is not None and np.ndim(front) == 1
        if front is not None and block is None:
            factor, front = _orthonormal_factor(factor, front)
        if self.rows is None:
            out = self._isserlis(factor, block, front)
        else:
            out = self._long_run(self.influence(factor, block, front))
        return float(out[0, 0]) if scalar else out

    def influence(self, factor: np.ndarray, block: tuple[slice, slice] | None = None,
                  front: np.ndarray | None = None) -> np.ndarray:
        """A data estimate's T-by-k influence: x of s_t s_t' less its mean, times front'.

        F' (r_t r_t' - R'R/T) F is s_t s_t' less its mean, at O(T d r + T c k).
        """
        s = self.rows @ factor  # row t is (F' r_t)'
        if block is None:
            z = vech_outer_rows(s)
        else:
            z = (s[:, block[1], None] * s[:, None, block[0]]).reshape(len(s), -1)
            z -= z.mean(axis=0)
        return z if front is None else z @ np.atleast_2d(front).T

    def _isserlis(self, factor: np.ndarray, block: tuple[slice, slice] | None,
                  front: np.ndarray | None) -> np.ndarray:
        """The Gaussian sandwich: x of s s' has covariance pair(S) - 2 v v', v = x of nu nu'.

        For F = P = theta^-1 that is pair(P) - 2 e1 e1', read off P itself.
        """
        s = factor.T @ self.theta @ factor
        s = 0.5 * (s + s.T)
        nu = factor.T @ self.mean
        coords = slice(None) if block is None else vech_block(s.shape[0], block)
        i, j = vech_indices(s.shape[0])
        v = (nu[i] * nu[j])[coords]
        out = vech_pair(s, coords)[:, coords] - 2.0 * np.outer(v, v)
        if front is None:
            return out
        front = np.atleast_2d(front)
        out = front @ out @ front.T
        return 0.5 * (out + out.T)

    def _check_width(self, m: int) -> None:
        if m != self.dim:
            raise ShapeMismatch(f"gradient of width {m} does not match omega {self.dim}")

    def _long_run(self, z: np.ndarray) -> np.ndarray:
        """Gamma_0 + sum_k w_k (Gamma_k + Gamma_k') of a centered series z, as given.

        Gamma_k = z[k:]' z[:-k] / T; lags run to the bandwidth for a HAC
        estimate and are absent otherwise. Bartlett, and vanilla as its
        zero bandwidth, is one Gram of moving sums (Newey & West 1987,
        `_moving_sum_gram`), and Parzen is (U'z + z'U) / 2T over row
        blocks (`_lead_cross`). Symmetrized; a HAC result with a negative
        eigenvalue is eigenvalue-clipped to positive semidefinite. Both
        kernels are PSD in exact arithmetic, so the clip only absorbs
        rounding. It clips the equilibrated D^-1/2 out D^-1/2, D = diag(out),
        and scales back (van der Sluis 1969): for returns in units c the
        entries span c^0 to c^4, and an eigh of out itself rounds at eps
        times its largest eigenvalue, which swamps the small-unit
        directions. The clip is logged when the equilibrated eigenvalue
        it clips is beyond the eigensolver's rounding, the size times eps
        times the largest one.
        """
        b = self.bandwidth or 0
        if self.kernel == "parzen":
            out = _lead_cross(z, [_kernel_weight(k, b) for k in range(1, b + 1)])
            out /= z.shape[0]
        else:
            out = _moving_sum_gram(z, b)
            out /= (b + 1) * z.shape[0]
        out = 0.5 * (out + out.T)
        if self.kernel is None or np.linalg.eigh(out)[0][0] >= 0:
            return out
        scale = np.sqrt(np.diag(out).clip(0.0, None))
        scale[scale == 0] = 1.0
        vals, vecs = np.linalg.eigh(out / np.outer(scale, scale))
        if vals[0] < -vals.size * np.finfo(float).eps * vals[-1]:
            logger.warning("HAC estimate indefinite (min eig %.3e); clipping to PSD", vals[0])
        out = (vecs * np.clip(vals, 0.0, None)) @ vecs.T * np.outer(scale, scale)
        return 0.5 * (out + out.T)


@dataclass
class DistributionResult:
    """Point estimate with per-observation asymptotic covariance."""

    point: np.ndarray
    covariance: np.ndarray
    n_obs: int

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=float).ravel()
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (self.point.size, self.point.size):
            raise ShapeMismatch(
                f"covariance {cov.shape} does not match point of length {self.point.size}"
            )
        scale = max(np.abs(cov).max(), 1e-300)
        asym = np.abs(cov - cov.T).max()
        if asym > 1e-10 * scale:
            warnings.warn(f"covariance asymmetry {asym:.2e} above 1e-10 relative", RuntimeWarning)
        self.covariance = 0.5 * (cov + cov.T)

    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None) / self.n_obs)


def vech_outer_rows(aug_rows: np.ndarray) -> np.ndarray:
    """vech(r r') - vech(R'R/T) for every augmented row r of R: omega's estimating functions.

    Column-major: the T-by-m result is a view of an m-by-T buffer, so
    each vech coordinate's T values are written, centered while in
    cache, and later projected, as one contiguous run.
    """
    aug_rows = np.atleast_2d(np.asarray(aug_rows, dtype=float))
    t, d = aug_rows.shape
    cols = np.ascontiguousarray(aug_rows.T)
    mean = cols @ cols.T / t
    out = np.empty((vech_len(d), t))
    start = 0
    # vech runs down the columns: column j holds r_j * r[j:]
    for j in range(d):
        block = out[start : start + d - j]
        np.multiply(cols[j:], cols[j], out=block)
        block -= mean[j:, j, None]
        start += d - j
    return out.T


def omega_vanilla(aug_rows: np.ndarray) -> OmegaEstimate:
    """Sample covariance (divisor T) of the per-row vech outer products."""
    t = np.atleast_2d(aug_rows).shape[0]
    if t < 2:
        raise ShapeMismatch("need at least two rows")
    return OmegaEstimate(None, t, rows=aug_rows)


def default_bandwidth(t: int) -> int:
    """Rule-of-thumb lag count, floor(1.2 T^(1/3))."""
    return max(1, int(np.floor(1.2 * t ** (1.0 / 3.0))))


def _moving_sum_gram(z: np.ndarray, b: int) -> np.ndarray:
    """Z'Z for the moving sums Z_t = z_t + ... + z_{t-b} of the zero-padded z.

    Built by b+1 shifted adds of z into one (T+b)-row buffer in z's layout.
    """
    t, m = z.shape
    sums = np.zeros_like(z, shape=(t + b, m))
    for j in range(b + 1):
        sums[j : j + t] += z
    return sums.T @ sums


def _lead_cross(z: np.ndarray, weights: list[float]) -> np.ndarray:
    """U'z for U_t = z_t + 2 sum_k w_k z_{t+k}, past the end zero.

    Summed over blocks of about _BLOCK_BYTES of rows, each read together
    with the b rows after it, so U is never held whole.
    """
    t, m = z.shape
    b = len(weights)
    out = np.zeros((m, m))
    step = max(1, _BLOCK_BYTES // (8 * m))
    for start in range(0, t, step):
        ahead = z[start : start + step + b]
        rows = ahead[:step]
        u = rows.copy()
        for k in range(1, min(b + 1, len(ahead))):
            u[: len(ahead) - k] += 2.0 * weights[k - 1] * ahead[k : k + len(u)]
        out += u.T @ rows
    return out


def _kernel_weight(k: int, bandwidth: int) -> float:
    """Weight of lag k in a lag-sum kernel; Parzen is the only one, as Bartlett is a Gram."""
    z = k / (bandwidth + 1.0)
    if z <= 0.5:
        return 1.0 - 6.0 * z**2 + 6.0 * z**3
    return 2.0 * (1.0 - z) ** 3


def check_hac(kernel: str, bandwidth: int | None) -> None:
    """Reject an unknown kernel or a negative bandwidth; `omega_hac` checks it is below T."""
    if kernel not in HAC_KERNELS:
        raise ShapeMismatch(f"unknown kernel {kernel!r}, expected one of {HAC_KERNELS}")
    if bandwidth is not None and bandwidth < 0:
        raise ShapeMismatch(f"bandwidth must be non-negative, got {bandwidth}")


def omega_hac(aug_rows: np.ndarray, kernel: str = "bartlett", bandwidth: int | None = None) -> OmegaEstimate:
    """Kernel-weighted long-run covariance of the vech outer-product series.

    Gamma_0 + sum_k w(k) (Gamma_k + Gamma_k') of the centered series. The
    estimate keeps the rows, the kernel and the bandwidth, and the kernel
    sums what it is given (see `OmegaEstimate`). A sandwich of k
    estimands applies the kernel to their T-by-k influence series and
    clips the k-by-k result to positive semidefinite; the m-by-m matrix,
    clipped the same way, is formed only when `omega` is read. Bartlett's weights
    1 - k/(b+1) make the sum one Gram, Z'Z / ((b+1) T), of the moving
    sums of b+1 consecutive rows, at O((T+b) k^2) for k columns; Parzen
    pairs each row with the weighted sum of the b rows after it, at
    O(T k^2 + T b k).
    """
    check_hac(kernel, bandwidth)
    t = np.atleast_2d(aug_rows).shape[0]
    if bandwidth is None:
        bandwidth = default_bandwidth(t)
    if bandwidth >= t:
        raise BandwidthTooLarge(f"bandwidth {bandwidth} must be below T={t}")
    return OmegaEstimate(None, t, kernel, bandwidth, rows=aug_rows)


def theta_inverse_covariance(tm: AugmentedMoment, om: OmegaEstimate) -> DistributionResult:
    """Asymptotic law of vech of the inverse moment matrix.

    By the inverse rule it moves as -vech(P dtheta P), P = theta^-1: the
    factor P, whose sign a covariance does not see.
    """
    return DistributionResult(vech(tm.inverse), om.sandwich(tm.inverse), om.n_obs)


def _weights_front(tm: AugmentedMoment, risk_budget: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights and their front on the factor theta^-1 and _FIRST_COLUMN.

    d weights / d theta^-1[:, 0] = [-w/(2 psi^2), -(R/psi) I], and that
    column moves as -(P dtheta P)[:, 0].
    """
    weights, snr_sq = portfolio_head(tm, risk_budget)
    p = tm.n_assets
    snr = np.sqrt(snr_sq)
    front = np.hstack([weights[:, None] / (2.0 * snr_sq), (risk_budget / snr) * np.eye(p)])
    return weights, front


def portfolio_covariance(tm: AugmentedMoment, om: OmegaEstimate, risk_budget: float) -> DistributionResult:
    """Asymptotic law of the risk-budgeted optimal weights."""
    weights, front = _weights_front(tm, risk_budget)
    cov = om.sandwich(tm.inverse, _FIRST_COLUMN, front)
    return DistributionResult(weights, cov, om.n_obs)


def snr_variance(tm: AugmentedMoment, om: OmegaEstimate, risk_budget: float, rfr: float) -> float:
    """Per-observation variance of the achieved signal-noise ratio.

    First-order law; only valid with a strictly positive disastrous rate,
    since the gradient of the ratio vanishes at the optimum when rfr = 0.
    Only the first column of theta^-1 enters.
    """
    if not rfr > 0:
        raise NonPositiveRfr("first-order law needs rfr > 0: the ratio's gradient vanishes at rfr = 0")
    _, snr_sq = portfolio_head(tm, risk_budget)
    front = (rfr / (risk_budget * snr_sq)) * np.concatenate([[0.5], tm.theta[1:, 0]])
    return om.sandwich(tm.inverse, _FIRST_COLUMN, front)


def wald_statistics(dr: DistributionResult) -> np.ndarray:
    """Elementwise z-scores, point over standard error.

    Entries whose variance underflows come back as signed infinity (zero
    for an exactly-zero point) with a warning as the flag.
    """
    var = np.diag(dr.covariance) / dr.n_obs
    z = np.zeros_like(dr.point)
    tiny = var < 1e-300
    if np.any(tiny & (dr.point != 0)):
        warnings.warn("degenerate variance entries reported as signed infinity", RuntimeWarning)
    nonzero = tiny & (dr.point != 0)
    z[nonzero] = np.sign(dr.point[nonzero]) * np.inf
    z[~tiny] = dr.point[~tiny] / np.sqrt(var[~tiny])
    return z


def attribute_error(dr: DistributionResult, p: int) -> np.ndarray:
    """Share of each portfolio element's variance explained by precision error.

    Works on the covariance of vech of the inverse unconditional moment:
    coordinates 1..p are the (negative) portfolio, the rest of the tail
    is the precision matrix. Returns the squared multiple correlation of
    each portfolio element against all precision coordinates,
    r' C^-1 r with C the precision block of the correlation matrix and r
    the element's correlations with it. One eigh of C serves all p
    elements and is the rank gate: an eigenvalue ratio below PD_RTOL,
    as when m exceeds the sample's rows, raises DegenerateCorrelation,
    since every R^2 would read 1.
    """
    m = dr.point.size
    if m < vech_len(p + 1):
        raise ShapeMismatch("result too short for the stated asset count")
    diag = np.diag(dr.covariance)
    if not np.all(diag[1:] >= 1e-300):
        raise DegenerateCorrelation("zero variance on a required coordinate")
    scale = np.sqrt(diag[1:])
    corr = dr.covariance[1:, 1:] / np.outer(scale, scale)
    vals, vecs = np.linalg.eigh(corr[p:, p:])
    if not vals[0] >= PD_RTOL * vals[-1]:
        raise DegenerateCorrelation(
            f"the {m - p - 1}x{m - p - 1} precision correlation block is rank deficient "
            f"(eigenvalue ratio {vals[0] / vals[-1]:.3e} below {PD_RTOL:.0e}): the sample has "
            f"too few rows (T={dr.n_obs}) for m={m} moment coordinates, or collinear ones")
    r2 = np.sum((vecs.T @ corr[p:, :p]) ** 2 / vals[:, None], axis=0)
    ok = (r2 >= -1e-10) & (r2 <= 1.0 + 1e-10)
    if not ok.all():
        raise DegenerateCorrelation(f"multiple correlation {r2[~ok][0]:.6f} outside [0, 1]")
    return np.clip(r2, 0.0, 1.0)
