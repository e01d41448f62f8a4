"""Seeded Monte Carlo validation of every asymptotic law in the package.

Each suite draws Gaussian rows from a fixed population, declared as the
loading M that draws them, runs the relevant estimator across trials, and
compares empirical moments against the theory of the population moment
M M' at pinned tolerances. Per-chunk generators are seeded
from SeedSequence((seed, chunk_index)) over numpy's PCG64, so reports are
reproducible byte for byte across platforms; aggregation runs in trial
order.

Every suite is stacked: one generator draws each chunk's standard
normals (in the order a per-trial loop would) and forms each trial's
moment by congruence from the Gram of its draws, and the estimator runs
once over the (n, d, d) stack of all trials. The streams and the trial
order are those of a per-trial loop, and so are the reports.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatch
from .gaussian import (
    TraceConstraintSet,
    gaussian_omega,
    lrt_solve_stack,
    omega_gaussian_centered,
)
from .kernels import chol, vech_indices
from .mglh import MglhSpec, mglh_derivatives, mglh_statistics
from .moments import AugmentedMoment, MomentLayout
from .asymptotics import OmegaEstimate, theta_inverse_covariance

CHUNK = 250
BLOCK = 10  # trials whose last-width draws a worker holds at once


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


def _worker_count(n_chunks: int, widths: tuple[int, ...]) -> int:
    """Workers for drawing the chunks: one per usable CPU, at most one per chunk.

    A worker holds a whole chunk's draws of every width but the last, so
    the count is capped further: those draws of all workers together fit
    in one chunk's draws.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    held = sum(widths[:-1])
    fit = sum(widths) // held if held else n_chunks
    return max(1, min(cpus, n_chunks, fit))


# The caller works as one of the workers instead of waiting on a pool: every
# thread that draws holds its own buffers, and a ThreadPoolExecutor with two
# workers and an idle caller read a peak RSS of 61.0-61.3 MB on the four
# default suites against 57.8-58.0 MB for this loop (2-core VM, 3 runs each).
def _run_workers(n_workers: int, n_tasks: int, make_task) -> None:
    """Run task(i) for every i in range(n_tasks) on n_workers threads, the caller among them.

    Each worker calls make_task() once for its own task function, then
    takes task indices from a shared counter. The first exception, in any
    worker, stops every worker from taking another index and is raised in
    the caller once all threads are joined.
    """
    lock = threading.Lock()
    stop = threading.Event()
    todo = iter(range(n_tasks))
    errors = []

    def work():
        try:
            task = make_task()
            while not stop.is_set():
                with lock:
                    i = next(todo, None)
                if i is None:
                    return
                task(i)
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)
            stop.set()

    threads = []
    try:
        for _ in range(n_workers - 1):
            threads.append(threading.Thread(target=work, daemon=True))
            threads[-1].start()
        work()
    finally:
        stop.set()
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def _sampled_moments(seed: int, trials: int, sample_size: int, widths: tuple[int, ...],
                     loading: np.ndarray, layout: MomentLayout = MomentLayout.UNCONDITIONAL,
                     f_dim: int = 1) -> AugmentedMoment:
    """The stack of every trial's sample moment of the suite's augmented rows.

    Each trial draws standard-normal blocks of the given widths, in order,
    and its rows are loading @ [1, z'] (unconditional layout) or
    loading @ z (conditional layout). The moment is formed by congruence,
    loading G loading', from the per-trial Gram G of [1, z'] or z, so the
    rows themselves are never built.

    The chunks are drawn concurrently, each into its own slice of the
    stack, so the stack does not depend on the number of workers. A
    chunk's stream holds all its draws of one width before the next, so a
    worker keeps the chunk's draws of the leading widths and draws the
    last width BLOCK trials at a time, forming those trials' moments
    right away; its buffers are allocated once. The stack is validated
    as a single moment is.
    """
    unit = layout is MomentLayout.UNCONDITIONAL
    *leading, last = widths
    ones = np.ones(sample_size)
    size = min(CHUNK, trials)
    n_chunks = -(-trials // CHUNK)
    theta = np.empty((trials,) + (loading.shape[0],) * 2)

    def make_task():
        lead_bufs = [np.empty((size, sample_size, w)) for w in leading]
        last_buf = np.empty((min(BLOCK, size), sample_size, last))

        def draw_chunk(idx: int):
            rng = _rng_for(seed, idx)
            start = idx * CHUNK
            n = min(CHUNK, trials - start)
            leads = [buf[:n] for buf in lead_bufs]
            for z in leads:
                rng.standard_normal(out=z)
            for b in range(0, n, BLOCK):
                m = min(BLOCK, n - b)
                rng.standard_normal(out=last_buf[:m])
                draws = [z[b : b + m] for z in leads] + [last_buf[:m]]
                gram = np.block([[a.swapaxes(1, 2) @ c for c in draws] for a in draws])
                gram /= sample_size
                if unit:
                    means = np.concatenate([ones @ z for z in draws], axis=1) / sample_size
                    head = np.concatenate([np.ones((m, 1, 1)), means[:, None, :]], axis=2)
                    gram = np.block([[head], [means[:, :, None], gram]])
                theta[start + b : start + b + m] = loading @ gram @ loading.T

        return draw_chunk

    _run_workers(_worker_count(n_chunks, widths), n_chunks, make_task)
    return AugmentedMoment(theta, n_obs=sample_size, layout=layout, f_dim=f_dim)


def _unit_loading(mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """M with [1, x'] = M [1, z'] for returns x = mu + chol(sigma) z."""
    return np.block([[np.ones((1, 1)), np.zeros((1, mu.size))], [mu[:, None], chol(sigma)]])


# Each suite's population, declared once as the loading M that draws its rows
# and, for conditional rows, their feature count (see _draw), followed by the
# suite's default trials and sample size. Returns are x = mu + chol(sigma) z; the
# mglh rows are [f', x'], with features f = L_f z_f drawn first and x = B f + L_s z_e.
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

    The rows are M [1, z']' or, given a feature count f, M z with the f
    feature normals drawn first; z is standard normal, so M M' is their
    second moment. Sizes left as None take the suite's defaults, and the
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
    if f_dim is None:
        layout, f_dim, widths = MomentLayout.UNCONDITIONAL, 1, (dim - 1,)
    else:
        layout, widths = MomentLayout.CONDITIONAL, (f_dim, dim - f_dim)
    pop = AugmentedMoment(loading @ loading.T, sample_size, layout, f_dim)
    tm = _sampled_moments(seed, trials, sample_size, widths, loading, layout, f_dim)
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
    q = mglh_derivatives(pop, spec)["hlt"]
    om_pop = OmegaEstimate(omega_gaussian_centered(pop.theta), n_obs=rep.sample_size)
    theo_var = om_pop.sandwich(q)
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
