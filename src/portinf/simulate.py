"""Seeded Monte Carlo validation of every asymptotic law in the package.

Each suite draws Gaussian rows from a fixed population, declared as the
loading M that draws them, runs the relevant estimator across trials, and
compares empirical moments against the theory of the population moment
M M' at pinned tolerances.

Every estimator reads only a trial's moment, which is M (G/n) M' for
the Gram G of the trial's n standard-normal draws, so no row is drawn:
each trial's Gram is drawn as an exact Wishart by Bartlett's
decomposition, O(q^2) variates for q columns whatever n is, and the
estimator runs once over the (n_trials, d, d) stack of all trials.
Chunk k of CHUNK trials draws from SeedSequence((seed, k)) over numpy's
PCG64, so two runs of one seed share every chunk that is full in both,
and aggregation runs in trial order; a seed gives byte-identical reports
for a given numpy build (the chi-square draws go through the C math
library).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ShapeMismatch
from .gaussian import (
    TraceConstraintSet,
    gaussian_omega,
    lrt_solve_stack,
)
from .kernels import chol, vech_indices
from .mglh import MglhSpec, mglh_derivatives, mglh_statistics
from .moments import AugmentedMoment, MomentLayout
from .asymptotics import OmegaEstimate, theta_inverse_covariance

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


@lru_cache(maxsize=8)
def _bartlett_gather(q: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Read-only diagonal and strictly-lower (row, col) indices of a q-by-q factor."""
    diag, below = np.arange(q), np.tril_indices(q, -1)
    for arr in (diag, *below):
        arr.setflags(write=False)
    return diag, below


def _wishart(rng: np.random.Generator, k: int, q: int, df: int) -> np.ndarray:
    """k draws of Wishart(df, I_q), as A A' by Bartlett's decomposition.

    A is lower triangular with sqrt(chi-square(df - i)) at (i, i) and
    standard normals below the diagonal (Bartlett 1933; Odell & Feiveson
    1966). The k-by-q diagonal is drawn first, then the k-by-q(q-1)/2
    entries below it in np.tril_indices(q, -1) order.
    """
    diag, below = _bartlett_gather(q)
    a = np.zeros((k, q, q))
    a[:, diag, diag] = np.sqrt(rng.chisquare(df - diag, (k, q)))
    a[:, below[0], below[1]] = rng.standard_normal((k, below[0].size))
    return a @ a.swapaxes(1, 2)


def _sampled_moments(seed: int, trials: int, sample_size: int, loading: np.ndarray,
                     layout: MomentLayout = MomentLayout.UNCONDITIONAL,
                     f_dim: int = 1) -> AugmentedMoment:
    """The stack of every trial's sample moment of the suite's augmented rows.

    A trial's n rows are loading @ [1, z'] (unconditional layout) or
    loading @ z (conditional layout) for n standard-normal z, and its
    moment is loading (G/n) loading' for the Gram G of [1, z'] or z. Only
    G's law matters, so it is drawn directly, O(q^2) variates a trial
    instead of n q. Conditional: G = W(n, I_q). Unconditional, with q one
    less than the loading's rows: the sum of z is n zbar with
    zbar ~ N(0, I_q / n), and the sum of z z' is S + n zbar zbar' with
    S ~ W(n - 1, I_q) independent of zbar, so G/n is
    [[1, zbar'], [zbar, S/n + zbar zbar']]. Chunk k of CHUNK trials draws
    from _rng_for(seed, k): zbar (unconditional only), then S. The
    stack is validated as a single moment is. A stack too large to
    allocate raises ShapeMismatch naming the trial count.
    """
    unit = layout is MomentLayout.UNCONDITIONAL
    dim = loading.shape[0]
    q = dim - 1 if unit else dim
    try:
        theta = np.empty((trials, dim, dim))
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's largest array
        raise ShapeMismatch(f"{trials} trials of {dim}x{dim} moments do not fit in memory") from exc
    for idx, start in enumerate(range(0, trials, CHUNK)):
        k = min(CHUNK, trials - start)
        rng = _rng_for(seed, idx)
        if unit:
            zbar = rng.standard_normal((k, q)) / np.sqrt(sample_size)
            gram = np.empty((k, dim, dim))
            gram[:, 0, 0] = 1.0
            gram[:, 0, 1:] = gram[:, 1:, 0] = zbar
            gram[:, 1:, 1:] = (_wishart(rng, k, q, sample_size - 1) / sample_size
                               + zbar[:, :, None] * zbar[:, None, :])
        else:
            gram = _wishart(rng, k, q, sample_size) / sample_size
        theta[start : start + k] = loading @ gram @ loading.T
    return AugmentedMoment(theta, n_obs=sample_size, layout=layout, f_dim=f_dim)


def _unit_loading(mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """M with [1, x'] = M [1, z'] for returns x = mu + chol(sigma) z."""
    return np.block([[np.ones((1, 1)), np.zeros((1, mu.size))], [mu[:, None], chol(sigma)]])


# Each suite's population, declared once as the loading M that draws its rows
# and, for conditional rows, their feature count (see _draw), followed by the
# suite's default trials and sample size. Returns are x = mu + chol(sigma) z; the
# mglh rows are [f', x'] for z = [z_f', z_e']', with features f = L_f z_f and
# returns x = B f + L_s z_e.
NORMAL_RETURNS = _unit_loading(np.array([0.4, 0.2]), np.array([[1.0, 0.25], [0.25, 0.5]]))
LRT_RETURNS = _unit_loading(np.array([0.3, 0.1]), np.array([[1.0, 0.2], [0.2, 0.8]]))
_CHOL_F = chol(np.array([[1.0, 0.2], [0.2, 1.0]]))
MGLH_ALTERNATIVE = np.block([[_CHOL_F, np.zeros((2, 2))],
                             [np.array([[0.3, 0.1], [-0.2, 0.25]]) @ _CHOL_F,
                              chol(np.array([[1.0, 0.3], [0.3, 0.8]]))]])
_SUITES = {
    "theorem1": (NORMAL_RETURNS, None, 5000, 2000),
    "gaussian": (NORMAL_RETURNS, None, 5000, 2000),
    "lrt": (LRT_RETURNS, None, 2000, 1000),
    "mglh": (MGLH_ALTERNATIVE, 2, 5000, 2000),
}
SUITES = tuple(_SUITES)


def _draw(suite: str, seed: int, trials: int | None,
          sample_size: int | None) -> tuple[SuiteReport, AugmentedMoment, AugmentedMoment]:
    """The suite's empty report, its population moment M M' and its trials' sample moments.

    The rows are M [1, z']' or, given a feature count f, M z with the
    features loading the first f coordinates of z; z is standard normal,
    so M M' is their second moment. Sizes left as None take the suite's defaults, and the
    sample size must exceed M's row count so that every moment inverts.
    """
    loading, f_dim, default_trials, default_size = _SUITES[suite]
    dim = loading.shape[0]
    trials = default_trials if trials is None else trials
    sample_size = default_size if sample_size is None else sample_size
    if trials < 2:
        raise ShapeMismatch(f"need at least 2 trials, got {trials}")
    if sample_size <= dim:
        raise ShapeMismatch(
            f"sample size must exceed the {suite} moment dimension {dim}, got {sample_size}")
    if seed < 0:
        raise ShapeMismatch(f"seed must be non-negative, got {seed}")
    layout = MomentLayout.UNCONDITIONAL if f_dim is None else MomentLayout.CONDITIONAL
    f_dim = 1 if f_dim is None else f_dim
    pop = AugmentedMoment(loading @ loading.T, sample_size, layout, f_dim)
    tm = _sampled_moments(seed, trials, sample_size, loading, layout, f_dim)
    return SuiteReport(suite, seed, trials, sample_size), pop, tm


def _spread_suite(suite: str, seed: int, trials: int | None, sample_size: int | None,
                  inverse: bool) -> SuiteReport:
    """Empirical vs normal-returns covariance of the scaled vech of the moment or its inverse."""
    rep, pop, tm = _draw(suite, seed, trials, sample_size)
    omega = gaussian_omega(pop)
    theo = theta_inverse_covariance(pop, omega).covariance if inverse else omega.omega
    ri, ci = vech_indices(pop.dim)
    v = (tm.inverse if inverse else tm.theta)[:, ri, ci]
    emp = rep.sample_size * np.cov(v, rowvar=False)
    rel = np.linalg.norm(emp - theo) / np.linalg.norm(theo)
    rep.add("frobenius_rel_err", rel, "bound<=0.100000", rel <= 0.10)
    return rep


def theorem1_suite(seed: int, trials: int | None, sample_size: int | None) -> SuiteReport:
    """Empirical vs theoretical covariance of the scaled inverse moment vech."""
    return _spread_suite("theorem1", seed, trials, sample_size, inverse=True)


def gaussian_suite(seed: int, trials: int | None, sample_size: int | None) -> SuiteReport:
    """Empirical vs closed-form covariance of the scaled moment vech."""
    return _spread_suite("gaussian", seed, trials, sample_size, inverse=False)


def lrt_suite(seed: int, trials: int | None, sample_size: int | None) -> SuiteReport:
    """Chi-square calibration of the trace-constraint LRT under a true null."""
    rep, pop, tm = _draw("lrt", seed, trials, sample_size)
    mats = [np.diag([0.0, 1.0, 0.0]),
            np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])]
    cs = TraceConstraintSet(mats, [np.sum(a * pop.inverse) for a in mats])
    sol = lrt_solve_stack(tm, cs)
    solved = sol.converged
    stats = sol.stat[solved]
    mean, var = float(stats.mean()), float(stats.var(ddof=1))
    frac_fast = float(np.mean(solved & (sol.iterations <= 10)))
    rep.extras["failures"] = int(np.sum(~solved))
    rep.add("mean_stat", mean, "bound in 2.00+-0.15", abs(mean - 2.0) <= 0.15)
    rep.add("var_stat", var, "bound in 4.00+-0.60", abs(var - 4.0) <= 0.60)
    rep.add("newton_fast_frac", frac_fast, "bound>=0.990000", frac_fast >= 0.99)
    return rep


def mglh_suite(seed: int, trials: int | None, sample_size: int | None) -> SuiteReport:
    """Variance of the trace statistic under a fixed alternative vs the delta law."""
    rep, pop, tm = _draw("mglh", seed, trials, sample_size)
    spec = MglhSpec(np.eye(pop.n_assets), np.eye(pop.f_dim), np.zeros((pop.n_assets, pop.f_dim)))
    factor, fronts = mglh_derivatives(pop, spec)
    # the rows are mean-zero Gaussian with second moment theta: a Gaussian omega of zero mean
    theo_var = OmegaEstimate(pop.theta, rep.sample_size).sandwich(factor, front=fronts["hlt"])
    hlts = mglh_statistics(tm, spec).hlt
    emp_var = rep.sample_size * float(np.var(hlts, ddof=1))
    rel = abs(emp_var - theo_var) / theo_var
    rep.extras["theoretical_var"] = theo_var
    rep.extras["empirical_var"] = emp_var
    rep.add("hlt_var_rel_err", rel, "bound<=0.150000", rel <= 0.15)
    return rep


def simulate_suite(suite: str, seed: int, trials: int | None = None,
                   sample_size: int | None = None) -> SuiteReport:
    """Run the named suite's {suite}_suite; sizes left as None take the suite's defaults."""
    if suite not in _SUITES:
        raise ShapeMismatch(f"unknown suite {suite!r}, expected one of {SUITES}")
    # looked up by name, so that a suite function replaced on the module is the one that runs
    return globals()[f"{suite}_suite"](seed, trials, sample_size)
