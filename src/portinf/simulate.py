"""Seeded Monte Carlo validation of every asymptotic law in the package.

Each suite draws Gaussian data from a fixed population, runs the relevant
estimator across trials, and compares empirical moments against the
theoretical values at pinned tolerances. Per-chunk generators are seeded
from SeedSequence((seed, chunk_index)) over numpy's PCG64, so reports are
reproducible byte for byte across platforms; aggregation runs in trial
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ShapeMismatch
from .gaussian import (
    TraceConstraintSet,
    gaussian_omega,
    lrt_solve,
    omega_gaussian_centered,
)
from .kernels import chol, vech_indices
from .mglh import MglhSpec, mglh_derivatives, mglh_statistics
from .moments import AugmentedMoment, MomentLayout
from .asymptotics import theta_inverse_covariance

SUITES = ("theorem1", "gaussian", "lrt", "mglh")
CHUNK = 250


@dataclass
class CheckLine:
    name: str
    value: float
    bound: str
    passed: bool


@dataclass
class SuiteReport:
    suite: str
    seed: int
    trials: int
    sample_size: int
    checks: list[CheckLine] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, value: float, bound: str, passed: bool):
        self.checks.append(CheckLine(name, float(value), bound, bool(passed)))

    def render(self) -> str:
        lines = [
            f"suite={self.suite} seed={self.seed} trials={self.trials} "
            f"sample_size={self.sample_size}"
        ]
        for k in sorted(self.extras):
            lines.append(f"info {k}={self.extras[k]:.6f}")
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"check {c.name} value={c.value:.6f} {c.bound} status={status}")
        lines.append(f"result={'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _rng_for(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, chunk)))


def _chunks(trials: int):
    done = 0
    idx = 0
    while done < trials:
        n = min(CHUNK, trials - done)
        yield idx, n
        done += n
        idx += 1


def _unconditional_population() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mu = np.array([0.4, 0.2])
    sigma = np.array([[1.0, 0.25], [0.25, 0.5]])
    theta = np.block([[np.ones((1, 1)), mu[None, :]],
                      [mu[:, None], sigma + np.outer(mu, mu)]])
    return mu, sigma, theta


def _batch_thetas(rng: np.random.Generator, n: int, t: int, mu: np.ndarray,
                  sigma_chol: np.ndarray) -> np.ndarray:
    p = mu.size
    z = rng.standard_normal((n, t, p))
    x = mu + z @ sigma_chol.T
    rows = np.concatenate([np.ones((n, t, 1)), x], axis=2)
    return np.einsum("cti,ctj->cij", rows, rows) / t


def theorem1_suite(seed: int, trials: int = 5000, sample_size: int = 2000) -> SuiteReport:
    """Empirical vs theoretical covariance of the scaled inverse moment vech."""
    mu, sigma, theta_pop = _unconditional_population()
    tm_pop = AugmentedMoment(theta_pop, n_obs=sample_size)
    theo = theta_inverse_covariance(tm_pop, gaussian_omega(tm_pop)).covariance
    ri, ci = vech_indices(theta_pop.shape[0])
    sig_chol = chol(sigma)
    samples = []
    for idx, n in _chunks(trials):
        thetas = _batch_thetas(_rng_for(seed, idx), n, sample_size, mu, sig_chol)
        invs = np.linalg.inv(thetas)
        samples.append(invs[:, ri, ci])
    v = np.vstack(samples)
    emp = sample_size * np.cov(v, rowvar=False)
    rel = np.linalg.norm(emp - theo) / np.linalg.norm(theo)
    rep = SuiteReport("theorem1", seed, trials, sample_size)
    rep.add("frobenius_rel_err", rel, "bound<=0.100000", rel < 0.10)
    return rep


def gaussian_suite(seed: int, trials: int = 5000, sample_size: int = 2000) -> SuiteReport:
    """Empirical vs closed-form covariance of the scaled moment vech."""
    mu, sigma, theta_pop = _unconditional_population()
    tm_pop = AugmentedMoment(theta_pop, n_obs=sample_size)
    theo = gaussian_omega(tm_pop).omega
    ri, ci = vech_indices(theta_pop.shape[0])
    sig_chol = chol(sigma)
    samples = []
    for idx, n in _chunks(trials):
        thetas = _batch_thetas(_rng_for(seed, idx), n, sample_size, mu, sig_chol)
        samples.append(thetas[:, ri, ci])
    v = np.vstack(samples)
    emp = sample_size * np.cov(v, rowvar=False)
    rel = np.linalg.norm(emp - theo) / np.linalg.norm(theo)
    rep = SuiteReport("gaussian", seed, trials, sample_size)
    rep.add("frobenius_rel_err", rel, "bound<=0.100000", rel < 0.10)
    return rep


def lrt_suite(seed: int, trials: int = 2000, sample_size: int = 1000) -> SuiteReport:
    """Chi-square calibration of the trace-constraint LRT under a true null."""
    mu = np.array([0.3, 0.1])
    sigma = np.array([[1.0, 0.2], [0.2, 0.8]])
    theta_pop = np.block([[np.ones((1, 1)), mu[None, :]],
                          [mu[:, None], sigma + np.outer(mu, mu)]])
    inv_pop = np.linalg.inv(theta_pop)
    a1 = np.diag([0.0, 1.0, 0.0])
    a2 = np.zeros((3, 3))
    a2[0, 1] = a2[1, 0] = 0.5
    cs = TraceConstraintSet([a1, a2], [np.sum(a1 * inv_pop), np.sum(a2 * inv_pop)])
    sig_chol = chol(sigma)
    stats, fast = [], []
    failures = 0
    for idx, n in _chunks(trials):
        thetas = _batch_thetas(_rng_for(seed, idx), n, sample_size, mu, sig_chol)
        for theta in thetas:
            tm = AugmentedMoment(theta, n_obs=sample_size)
            try:
                sol = lrt_solve(tm, cs)
            except NumericalError:
                failures += 1
                fast.append(False)
                continue
            stats.append(sol.stat)
            fast.append(sol.converged and sol.iterations <= 10)
    stats = np.array(stats)
    mean, var = float(stats.mean()), float(stats.var(ddof=1))
    frac_fast = float(np.mean(fast))
    rep = SuiteReport("lrt", seed, trials, sample_size)
    rep.extras["failures"] = failures
    rep.add("mean_stat", mean, "bound in 2.00+-0.15", abs(mean - 2.0) <= 0.15)
    rep.add("var_stat", var, "bound in 4.00+-0.60", abs(var - 4.0) <= 0.60)
    rep.add("newton_fast_frac", frac_fast, "bound>=0.990000", frac_fast >= 0.99)
    return rep


def _mglh_population():
    sig_f = np.array([[1.0, 0.2], [0.2, 1.0]])
    bmat = np.array([[0.3, 0.1], [-0.2, 0.25]])
    sigma = np.array([[1.0, 0.3], [0.3, 0.8]])
    theta = np.block([[sig_f, sig_f @ bmat.T],
                      [bmat @ sig_f, sigma + bmat @ sig_f @ bmat.T]])
    return sig_f, bmat, sigma, theta


def mglh_suite(seed: int, trials: int = 5000, sample_size: int = 2000) -> SuiteReport:
    """Variance of the trace statistic under a fixed alternative vs the delta law."""
    sig_f, bmat, sigma, theta_pop = _mglh_population()
    f = sig_f.shape[0]
    p = sigma.shape[0]
    tm_pop = AugmentedMoment(theta_pop, n_obs=sample_size,
                             layout=MomentLayout.CONDITIONAL, f_dim=f)
    spec = MglhSpec(np.eye(p), np.eye(f), np.zeros((p, f)))
    q = mglh_derivatives(tm_pop, spec)["hlt"]
    omega_pop = omega_gaussian_centered(theta_pop)
    theo_var = float(q @ omega_pop @ q)
    chol_f, chol_s = chol(sig_f), chol(sigma)
    hlts = []
    for idx, n in _chunks(trials):
        rng = _rng_for(seed, idx)
        zf = rng.standard_normal((n, sample_size, f))
        ze = rng.standard_normal((n, sample_size, p))
        feats = zf @ chol_f.T
        x = feats @ bmat.T + ze @ chol_s.T
        rows = np.concatenate([feats, x], axis=2)
        thetas = np.einsum("cti,ctj->cij", rows, rows) / sample_size
        for theta in thetas:
            tm = AugmentedMoment(theta, n_obs=sample_size,
                                 layout=MomentLayout.CONDITIONAL, f_dim=f)
            hlts.append(mglh_statistics(tm, spec).hlt)
    emp_var = sample_size * float(np.var(np.array(hlts), ddof=1))
    rel = abs(emp_var - theo_var) / theo_var
    rep = SuiteReport("mglh", seed, trials, sample_size)
    rep.extras["theoretical_var"] = theo_var
    rep.extras["empirical_var"] = emp_var
    rep.add("hlt_var_rel_err", rel, "bound<=0.150000", rel <= 0.15)
    return rep


def simulate_suite(suite: str, seed: int, trials: int | None = None,
                   sample_size: int | None = None) -> SuiteReport:
    """Dispatch one named suite; sizes left as None take the suite's defaults.

    The sample size must exceed the suite's moment dimension, so that
    every sampled moment matrix can be inverted.
    """
    # suite function, default trials, default sample size, moment dimension
    defaults = {
        "theorem1": (theorem1_suite, 5000, 2000, 3),
        "gaussian": (gaussian_suite, 5000, 2000, 3),
        "lrt": (lrt_suite, 2000, 1000, 3),
        "mglh": (mglh_suite, 5000, 2000, 4),
    }
    if suite not in defaults:
        raise ShapeMismatch(f"unknown suite {suite!r}, expected one of {SUITES}")
    fn, dt, ds, dim = defaults[suite]
    trials = dt if trials is None else trials
    sample_size = ds if sample_size is None else sample_size
    if trials < 2:
        raise ShapeMismatch(f"need at least 2 trials, got {trials}")
    if sample_size <= dim:
        raise ShapeMismatch(
            f"sample size must exceed the {suite} moment dimension {dim}, got {sample_size}")
    if seed < 0:
        raise ShapeMismatch(f"seed must be non-negative, got {seed}")
    return fn(seed, trials, sample_size)
