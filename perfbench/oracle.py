"""Numpy-only reference results the benchmark checks portinf against.

Nothing here imports portinf: the weights come from the textbook
formula on divisor-T moments, and the weight standard errors from a
finite-difference gradient of that formula pushed through a Bartlett
long-run covariance of the projected outer-product series.
"""

from __future__ import annotations

import numpy as np

FD_REL_STEP = 1e-5      # central-difference step, as a share of each coordinate's spread
FD_CHUNK = 64           # perturbed moment matrices solved per batch


def max_sharpe_weights(values: np.ndarray, risk_budget: float) -> np.ndarray:
    """R * inv(Sigma) mu / sqrt(mu' inv(Sigma) mu) with divisor-T moments."""
    mu = values.mean(axis=0)
    dev = values - mu
    sigma = dev.T @ dev / values.shape[0]
    x = np.linalg.solve(sigma, mu)
    return risk_budget * x / np.sqrt(mu @ x)


def _weights_of_theta(thetas: np.ndarray, risk_budget: float) -> np.ndarray:
    """The same weights read from a stack of unconditional moment matrices."""
    mu = thetas[:, 1:, 0]
    sigma = thetas[:, 1:, 1:] - mu[:, :, None] * mu[:, None, :]
    x = np.linalg.solve(sigma, mu[:, :, None])[:, :, 0]
    return risk_budget * x / np.sqrt(np.einsum("ki,ki->k", mu, x))[:, None]


def lower_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of each lower-triangle entry, column by column."""
    cols, rows = np.triu_indices(d)
    return rows, cols


def weight_gradient(values: np.ndarray, risk_budget: float) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference Jacobian of the weights over the lower triangle of theta.

    Returns the Jacobian (p x m) and the T x m series of row outer
    products it applies to. The constant corner coordinate has no
    spread and gets a zero column.
    """
    t, p = values.shape
    rows = np.hstack([np.ones((t, 1)), values])
    ri, ci = lower_pairs(p + 1)
    series = rows[:, ri] * rows[:, ci]
    theta = rows.T @ rows / t
    steps = FD_REL_STEP * series.std(axis=0)
    grad = np.zeros((p, ri.size))
    live = np.flatnonzero(steps > 0)
    for lo in range(0, live.size, FD_CHUNK):
        ks = live[lo : lo + FD_CHUNK]
        n = ks.size
        bump = np.zeros((n, p + 1, p + 1))
        bump[np.arange(n), ri[ks], ci[ks]] = steps[ks]
        bump[np.arange(n), ci[ks], ri[ks]] = steps[ks]
        up = _weights_of_theta(theta + bump, risk_budget)
        down = _weights_of_theta(theta - bump, risk_budget)
        grad[:, ks] = ((up - down) / (2.0 * steps[ks])[:, None]).T
    return grad, series


def bartlett_long_run(z: np.ndarray, bandwidth: int) -> np.ndarray:
    """Gamma_0 + sum_k (1 - k/(bw+1)) (Gamma_k + Gamma_k') of a demeaned series."""
    t = z.shape[0]
    out = z.T @ z / t
    for k in range(1, bandwidth + 1):
        gamma = z[k:].T @ z[:-k] / t
        out += (1.0 - k / (bandwidth + 1.0)) * (gamma + gamma.T)
    return out


def weight_standard_errors(values: np.ndarray, risk_budget: float, bandwidth: int) -> np.ndarray:
    """Delta-method weight SEs: Bartlett covariance of (Y - Ybar) G', over T."""
    grad, series = weight_gradient(values, risk_budget)
    projected = (series - series.mean(axis=0)) @ grad.T
    cov = bartlett_long_run(projected, bandwidth)
    return np.sqrt(np.diag(cov) / values.shape[0])


def default_bandwidth(t: int) -> int:
    """floor(1.2 T^(1/3)), the rule of thumb the pipeline uses when none is given."""
    return max(1, int(np.floor(1.2 * t ** (1.0 / 3.0))))


def input_summary(values_list: list[np.ndarray]) -> dict:
    """cond(theta) and squared maximal Sharpe, min/median/max over the inputs."""
    conds, snr_sq = [], []
    for values in values_list:
        t = values.shape[0]
        rows = np.hstack([np.ones((t, 1)), values])
        conds.append(float(np.linalg.cond(rows.T @ rows / t)))
        mu = values.mean(axis=0)
        dev = values - mu
        snr_sq.append(float(mu @ np.linalg.solve(dev.T @ dev / t, mu)))

    def spread(xs):
        return {"min": min(xs), "median": float(np.median(xs)), "max": max(xs)}

    return {"cond_theta": spread(conds), "snr_sq": spread(snr_sq), "n_inputs": len(values_list)}
