"""Fast internal consistency checks for the CLI selftest command."""

from __future__ import annotations

import numpy as np

from . import asymptotics, gaussian, kernels, mglh, moments, oracles
from .moments import AugmentedMoment, MomentLayout


def scalar_itheta_cov(mu: float, sg: float) -> np.ndarray:
    """Closed-form covariance of vech of the inverse moment, one Gaussian asset."""
    s2, s4 = sg**2, sg**4
    return np.array([
        [2 * mu**2 * (mu**2 + 2 * s2) / s4, -2 * mu * (mu**2 + s2) / s4, 2 * mu**2 / s4],
        [-2 * mu * (mu**2 + s2) / s4, (2 * mu**2 + s2) / s4, -2 * mu / s4],
        [2 * mu**2 / s4, -2 * mu / s4, 2 / s4],
    ])


def scalar_theta_block(mu: float, sg: float) -> np.ndarray:
    """Closed-form covariance of the random part of vech of the moment matrix."""
    s2 = sg**2
    return np.array([[s2, 2 * mu * s2], [2 * mu * s2, 4 * mu**2 * s2 + 2 * s2**2]])


def scalar_theta(mu: float, sg: float) -> np.ndarray:
    return np.array([[1.0, mu], [mu, mu**2 + sg**2]])


def run(verbose: bool = False) -> bool:
    checks: list[tuple[str, bool]] = []

    def record(name: str, ok: bool):
        checks.append((name, ok))
        if verbose:
            print(f"{'PASS' if ok else 'FAIL'} {name}")

    rng = np.random.default_rng(20240817)
    for n in range(1, 6):
        a = rng.standard_normal((n, n))
        spd = a @ a.T + n * np.eye(n)
        el, du = oracles.elimination_matrix(n), oracles.duplication_matrix(n)
        dense = el @ kernels.d_qform_inv(np.eye(n), spd) @ du
        record(f"inverse-vech gather vs dense -L(A^-1 kron A^-1)D n={n}",
               np.abs(kernels.d_inv_vech(spd) - dense).max() <= 1e-13 * np.abs(dense).max())

    a = rng.standard_normal((3, 3))
    spd = a @ a.T + 3 * np.eye(3)
    jac = kernels.d_inv_vech(spd)
    fd = oracles.finite_difference_jacobian(
        lambda v: kernels.vech(np.linalg.inv(kernels.ivech(v))), kernels.vech(spd))
    record("inverse-vech derivative vs finite differences",
           np.abs(jac - fd).max() < 1e-6)

    for mu, sg in ((1.0, 1.0), (2.0, 0.5)):
        tm = AugmentedMoment(scalar_theta(mu, sg), n_obs=100)
        om = gaussian.gaussian_omega(tm)
        record(f"gaussian omega closed form mu={mu} sg={sg}",
               np.abs(om.omega[1:, 1:] - scalar_theta_block(mu, sg)).max() < 1e-10)
        cov = asymptotics.theta_inverse_covariance(tm, om).covariance
        record(f"scalar inverse-moment grid mu={mu} sg={sg}",
               np.abs(cov - scalar_itheta_cov(mu, sg)).max() < 1e-10)
        record(f"conjecture route mu={mu} sg={sg}",
               np.abs(oracles.conjecture_itheta_cov(tm) - cov).max() < 1e-10)

    sig_f = np.array([[1.0, 0.1], [0.1, 0.8]])
    bmat = np.array([[0.5, -0.2], [0.1, 0.3]])
    sigma = np.array([[1.0, 0.2], [0.2, 0.6]])
    theta = np.block([[sig_f, sig_f @ bmat.T],
                      [bmat @ sig_f, sigma + bmat @ sig_f @ bmat.T]])
    tm = AugmentedMoment(theta, n_obs=100, layout=MomentLayout.CONDITIONAL, f_dim=2)
    spec = mglh.MglhSpec(np.eye(2), np.eye(2), bmat)
    res = mglh.mglh_statistics(tm, spec)
    record("mglh exact-null anchors",
           max(abs(res.hlt), abs(res.pbt - 2.0), abs(res.wilks - 1.0), abs(res.roy)) < 1e-10)

    def close(x, y):
        return abs(x - y) <= 1e-12 * max(1.0, abs(y))

    members = [theta + 0.05 * k * np.eye(4) for k in range(3)]
    stack = mglh.mglh_statistics(AugmentedMoment(np.stack(members), n_obs=100,
                                                 layout=MomentLayout.CONDITIONAL, f_dim=2), spec)
    ones = [mglh.mglh_statistics(AugmentedMoment(t, n_obs=100, layout=MomentLayout.CONDITIONAL,
                                                 f_dim=2), spec) for t in members]
    mglh_ok = all(close(stack.as_dict()[k][i], one.as_dict()[k])
                  for i, one in enumerate(ones) for k in mglh.STAT_NAMES)
    members = [scalar_theta(mu, sg) for mu, sg in ((0.5, 1.0), (1.0, 0.8), (-0.3, 1.2))]
    cs = gaussian.TraceConstraintSet([np.diag([0.0, 1.0])], [1.2])
    lrt = gaussian.lrt_solve_stack(AugmentedMoment(np.stack(members), n_obs=100), cs)
    ones = [gaussian.lrt_solve(AugmentedMoment(t, n_obs=100), cs) for t in members]
    lrt_ok = bool(lrt.converged.all()) and all(
        close(lrt.stat[i], one.stat) and lrt.iterations[i] == one.iterations
        for i, one in enumerate(ones))
    record("stacked LRT and mglh statistics vs one-moment calls", lrt_ok and mglh_ok)

    def snr_and_z(scale):
        rows = moments.augment(scale * x)
        tm = moments.sample_theta(rows)
        dist = asymptotics.portfolio_covariance(tm, asymptotics.omega_vanilla(rows), 0.1)
        return moments.unpack_theta_inverse(tm).snr_sq, asymptotics.wald_statistics(dist)

    x = rng.standard_normal((120, 3)) * 0.05 + 0.02
    (snr1, z1), (snr2, z2) = snr_and_z(1.0), snr_and_z(1e-8)
    record("snr_sq and weight z-scores unchanged by returns scaled 1e-8",
           abs(snr2 - snr1) <= 1e-10 * snr1 and np.abs(z2 - z1).max() <= 1e-10 * np.abs(z1).max())

    return all(ok for _, ok in checks)
