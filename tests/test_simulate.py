"""The Monte Carlo engine: pinned reports, the law of its draws, and stack-versus-one parity."""

import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from portinf import gaussian as ga
from portinf import mglh, simulate
from portinf import oracles as orc
from portinf.errors import NumericalError, RankDeficient, ShapeMismatch
from portinf.kernels import vech_indices
from portinf.moments import AugmentedMoment, MomentLayout

from conftest import rand_spd, theta_from

# the mglh population's feature covariance, loadings and residual covariance
_SIG_F = np.array([[1.0, 0.2], [0.2, 1.0]])
_B = np.array([[0.3, 0.1], [-0.2, 0.25]])
_SIGMA = np.array([[1.0, 0.3], [0.3, 0.8]])

# Reports of the Wishart engine, pinned byte for byte: the per-chunk streams,
# the order of the draws within a chunk and the printed values must not move.
GOLDEN = {
    ("theorem1", 5, 300, None): (
        "suite=theorem1 seed=5 trials=300 sample_size=2000\n"
        "check frobenius_rel_err value=0.098042 bound<=0.100000 status=PASS\n"
        "result=PASS\n"),
    ("gaussian", 5, 300, None): (
        "suite=gaussian seed=5 trials=300 sample_size=2000\n"
        "check frobenius_rel_err value=0.084347 bound<=0.100000 status=PASS\n"
        "result=PASS\n"),
    ("lrt", 5, 300, None): (
        "suite=lrt seed=5 trials=300 sample_size=1000\n"
        "info failures=0.000000\n"
        "check mean_stat value=1.883163 bound in 2.00+-0.15 status=PASS\n"
        "check var_stat value=3.738604 bound in 4.00+-0.60 status=PASS\n"
        "check newton_fast_frac value=1.000000 bound>=0.990000 status=PASS\n"
        "result=PASS\n"),
    ("mglh", 5, 300, None): (
        "suite=mglh seed=5 trials=300 sample_size=2000\n"
        "info empirical_var=1.187869\n"
        "info theoretical_var=1.229077\n"
        "check hlt_var_rel_err value=0.033527 bound<=0.150000 status=PASS\n"
        "result=PASS\n"),
    # four rows per trial: the line search works hard and some trials take
    # more than ten Newton steps
    ("lrt", 1, 400, 4): (
        "suite=lrt seed=1 trials=400 sample_size=4\n"
        "info failures=0.000000\n"
        "check mean_stat value=4.143923 bound in 2.00+-0.15 status=FAIL\n"
        "check var_stat value=17.299573 bound in 4.00+-0.60 status=FAIL\n"
        "check newton_fast_frac value=0.927500 bound>=0.990000 status=FAIL\n"
        "result=FAIL\n"),
    # six chunks with a ragged last one
    ("theorem1", 9, 1300, 200): (
        "suite=theorem1 seed=9 trials=1300 sample_size=200\n"
        "check frobenius_rel_err value=0.062099 bound<=0.100000 status=PASS\n"
        "result=PASS\n"),
    ("mglh", 9, 1300, 200): (
        "suite=mglh seed=9 trials=1300 sample_size=200\n"
        "info empirical_var=1.397119\n"
        "info theoretical_var=1.229077\n"
        "check hlt_var_rel_err value=0.136723 bound<=0.150000 status=PASS\n"
        "result=PASS\n"),
}


@pytest.mark.parametrize("key", list(GOLDEN), ids=lambda k: "-".join(map(str, k)))
def test_reports_are_pinned(key):
    suite, seed, trials, sample_size = key
    assert simulate.simulate_suite(suite, seed, trials, sample_size).render() == GOLDEN[key]


@pytest.mark.parametrize("suite", ["theorem1", "gaussian"])
def test_spread_at_its_bound_passes(suite, monkeypatch):
    """The label reads bound<=0.100000, so a relative error of exactly 0.1 passes."""
    norms = iter([0.1, 1.0])     # |emp - theo|, then |theo|
    monkeypatch.setattr(simulate.np.linalg, "norm", lambda x: next(norms))
    report = simulate.simulate_suite(suite, 1, 20, 50).render()
    assert "check frobenius_rel_err value=0.100000 bound<=0.100000 status=PASS" in report



@pytest.mark.parametrize("suite,theta", [
    ("theorem1", theta_from([0.4, 0.2], [[1.0, 0.25], [0.25, 0.5]])),
    ("gaussian", theta_from([0.4, 0.2], [[1.0, 0.25], [0.25, 0.5]])),
    ("lrt", theta_from([0.3, 0.1], [[1.0, 0.2], [0.2, 0.8]])),
    ("mglh", np.block([[_SIG_F, _SIG_F @ _B.T], [_B @ _SIG_F, _SIGMA + _B @ _SIG_F @ _B.T]]))],
    ids=["theorem1", "gaussian", "lrt", "mglh"])
def test_population_is_the_moment_of_its_loading(suite, theta):
    """M M' is the population's block moment, and the sample moments scatter around it."""
    rep, pop, tm = simulate._draw(suite, 1, 4 * simulate.CHUNK, 2000)
    assert (rep.suite, rep.trials, rep.sample_size) == (suite, 4 * simulate.CHUNK, 2000)
    np.testing.assert_allclose(pop.theta, theta, rtol=0, atol=1e-15)
    assert pop.layout is tm.layout and pop.f_dim == tm.f_dim
    assert np.abs(tm.theta.mean(axis=0) - theta).max() < 0.01



@pytest.mark.parametrize("suite,sample_size", [("theorem1", 3), ("gaussian", 3), ("lrt", 3),
                                               ("mglh", 4)])
def test_a_suite_called_directly_checks_its_sizes(suite, sample_size):
    """The sizes are checked where the population is drawn, not only by simulate_suite."""
    fn = getattr(simulate, f"{suite}_suite")
    with pytest.raises(ShapeMismatch, match="moment dimension"):
        fn(1, 10, sample_size)
    with pytest.raises(ShapeMismatch, match="at least 2 trials"):
        fn(1, 1, None)


def _gram_law(d, unit):
    """Mean and n times the covariance of vech(G/n), G the Gram of n Gaussian rows x.

    x = [1, z'] (unit) or z for standard-normal z: with m = E x and P = Cov x,
    Cov(x_i x_j, x_k x_l) = P_ik P_jl + P_il P_jk + m_i m_k P_jl + m_i m_l P_jk
    + m_j m_k P_il + m_j m_l P_ik.
    """
    m = np.eye(d)[0] if unit else np.zeros(d)
    cov = np.eye(d) - np.outer(m, m)
    i, j = vech_indices(d)
    a, b = (i[:, None], j[:, None]), (i[None, :], j[None, :])
    n_cov = (cov[a[0], b[0]] * cov[a[1], b[1]] + cov[a[0], b[1]] * cov[a[1], b[0]]
             + m[a[0]] * m[b[0]] * cov[a[1], b[1]] + m[a[0]] * m[b[1]] * cov[a[1], b[0]]
             + m[a[1]] * m[b[0]] * cov[a[0], b[1]] + m[a[1]] * m[b[1]] * cov[a[0], b[0]])
    return (cov + np.outer(m, m))[i, j], n_cov


def _identity_draws(seed, trials, n, unit, rows=False):
    """vech(G/n) of every trial, from the Wishart engine or, with rows, the row oracle."""
    layout, f_dim = (MomentLayout.UNCONDITIONAL, 1) if unit else (MomentLayout.CONDITIONAL, 2)
    if rows:
        tm = orc.sampled_moments(seed, trials, n, (3,) if unit else (2, 2), np.eye(4), layout,
                                 f_dim)
    else:
        tm = simulate._sampled_moments(seed, trials, n, np.eye(4), layout, f_dim)
    return tm.theta[(slice(None), *vech_indices(4))]


class TestWishartLaw:
    """The Wishart engine against the exact law of the Gram and against the row oracle.

    Each bound is set from the law: a mean entry within 5 of its sampling
    SDs, sqrt(n_cov_aa / (n N)) over N trials, and the empirical n-scaled
    covariance within 4 times the root-mean-square Frobenius error of a
    Gaussian empirical covariance, sqrt(sum_ab (C_aa C_bb + C_ab^2) / N).
    A difference of two independent estimates gets sqrt(2) times each bound.
    """

    TRIALS, N = 16 * simulate.CHUNK, 50

    def _check(self, got, want_mean, want_cov, spread):
        trials, n = len(got), self.N
        mean_sd = np.sqrt(np.diag(want_cov) / (n * trials))
        assert np.all(np.abs(got.mean(axis=0) - want_mean) <= spread * 5.0 * mean_sd)
        var = np.diag(want_cov)
        rms = np.sqrt(np.sum(np.outer(var, var) + want_cov**2) / trials)
        emp = n * np.cov(got, rowvar=False)
        assert np.linalg.norm(emp - want_cov) <= spread * 4.0 * rms

    @pytest.mark.parametrize("unit", [True, False], ids=["unit", "conditional"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_moments_match_the_exact_law(self, seed, unit):
        got = _identity_draws(seed, self.TRIALS, self.N, unit)
        self._check(got, *_gram_law(4, unit), spread=1.0)

    @pytest.mark.parametrize("unit", [True, False], ids=["unit", "conditional"])
    def test_moments_match_the_row_oracle(self, unit):
        got = _identity_draws(2, self.TRIALS, self.N, unit)
        rows = _identity_draws(3, self.TRIALS, self.N, unit, rows=True)
        self._check(got, rows.mean(axis=0), self.N * np.cov(rows, rowvar=False),
                    spread=np.sqrt(2.0))

    @pytest.mark.parametrize("unit", [True, False], ids=["unit", "conditional"])
    def test_diagonal_is_chi_square(self, unit):
        """G_ii is chi-square(n) for each z coordinate i, with the unit row or without."""
        got = _identity_draws(4, self.TRIALS, self.N, unit)
        diag = np.flatnonzero(vech_indices(4)[0] == vech_indices(4)[1])[1 if unit else 0:]
        for a in diag:
            assert scipy.stats.kstest(self.N * got[:, a], "chi2", args=(self.N,)).pvalue > 1e-4

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), trials=st.integers(1, 2 * simulate.CHUNK + 9),
           p=st.integers(1, 4), extra=st.integers(1, 30))
    def test_unit_corner_is_one_and_members_are_spd(self, seed, trials, p, extra):
        rng = np.random.default_rng(seed)
        low = np.tril(rng.uniform(-0.5, 0.5, (p, p)), -1) + np.diag(rng.uniform(0.5, 1.5, p))
        loading = simulate._unit_loading(rng.uniform(-0.5, 0.5, p), low @ low.T)
        theta = simulate._sampled_moments(seed, trials, p + 1 + extra, loading).theta
        assert theta.shape == (trials, p + 1, p + 1)
        assert np.all(theta[:, 0, 0] == 1.0)
        assert np.array_equal(theta, theta.swapaxes(1, 2))
        assert np.all(np.linalg.eigvalsh(theta)[:, 0] > 0)


@pytest.mark.parametrize("suite", simulate.SUITES)
def test_a_shorter_run_draws_the_same_leading_chunks(suite):
    """Chunk k draws from its own stream, so trials=CHUNK is the first chunk of trials=5000."""
    _, _, short = simulate._draw(suite, 17, simulate.CHUNK, 300)
    _, _, long = simulate._draw(suite, 17, 5000, 300)
    assert np.array_equal(short.theta, long.theta[: simulate.CHUNK])


@pytest.mark.parametrize("suite", simulate.SUITES)
def test_a_repeated_report_is_byte_identical(suite):
    first = simulate.simulate_suite(suite, 23, 600, 200).render()
    assert simulate.simulate_suite(suite, 23, 600, 200).render() == first


def test_memory_does_not_grow_with_the_sample_size():
    """A trial draws O(q^2) variates whatever its sample size, so the build's peak does not move."""
    def peak(sample_size):
        simulate._sampled_moments(3, 3 * simulate.CHUNK + 7, sample_size, np.eye(4),
                                  MomentLayout.CONDITIONAL, 2)
        tracemalloc.start()
        try:
            simulate._sampled_moments(3, 3 * simulate.CHUNK + 7, sample_size, np.eye(4),
                                      MomentLayout.CONDITIONAL, 2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(500_000) <= 1.05 * peak(50)


def _peak_bytes(args):
    """tracemalloc's peak over one stack build, after a first build that fills lasting caches."""
    simulate._sampled_moments(*args)
    tracemalloc.start()
    try:
        simulate._sampled_moments(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampled_moments_hold_one_chunk_of_draws():
    """Besides the stack, only a few of one chunk's d-by-d arrays are alive while it is built."""
    d, trials = 4, 3 * simulate.CHUNK + 7
    peak = _peak_bytes((3, trials, 500, np.eye(d), MomentLayout.CONDITIONAL, 2))
    assert peak < trials * d * d * 8 + 8 * simulate.CHUNK * d * d * 8


def _draw_args(seed, trials, unit, f, p, extra):
    """Arguments of one stack build: p returns (unit) or f features and p returns, dim + extra rows."""
    rng = np.random.default_rng(seed)
    d = p if unit else f + p
    low = np.tril(rng.uniform(-0.5, 0.5, (d, d)), -1) + np.diag(rng.uniform(0.5, 1.5, d))
    if unit:
        loading, layout, f_dim = (simulate._unit_loading(rng.uniform(-0.5, 0.5, d), low @ low.T),
                                  MomentLayout.UNCONDITIONAL, 1)
    else:
        loading, layout, f_dim = low, MomentLayout.CONDITIONAL, f
    return seed, trials, loading.shape[0] + extra, loading, layout, f_dim


def _set_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)


class TestConcurrentDraws:
    """The draw is the same on every machine: its stack, its memory and its errors do not
    depend on how many CPUs the process may use, and a failing chunk stops the build."""

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_stack_does_not_depend_on_cpus(self, monkeypatch, cpus):
        cases = [_draw_args(5, trials, unit, 2, 2, 3)
                 for trials in (7, 2 * simulate.CHUNK, 4 * simulate.CHUNK + 13)
                 for unit in (True, False)]
        _set_cpus(monkeypatch, 1)
        want = [simulate._sampled_moments(*args).theta for args in cases]
        _set_cpus(monkeypatch, cpus)
        for args, theta in zip(cases, want):
            assert np.array_equal(simulate._sampled_moments(*args).theta, theta)

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    @pytest.mark.parametrize("unit,bound", [(True, 0.25), (False, 1.25)],
                             ids=["unit", "conditional"])
    def test_memory_does_not_grow_with_cpus(self, monkeypatch, cpus, unit, bound):
        """The build holds at most about one chunk's draws of n rows, whatever the CPU count."""
        _set_cpus(monkeypatch, cpus)
        args = _draw_args(3, 3 * simulate.CHUNK + 7, unit, 2, 2, 495)
        draw_bytes = simulate.CHUNK * args[2] * (2 if unit else 4) * 8
        assert _peak_bytes(args) < bound * draw_bytes

    @pytest.mark.parametrize("bad_chunk", [0, 3, 7])
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_worker_error_is_raised_in_caller(self, monkeypatch, capsys, bad_chunk, error):
        """A chunk whose draw fails raises its own error in the caller, and no later chunk starts."""
        _set_cpus(monkeypatch, 2)
        raised = error(f"chunk {bad_chunk}")
        rng_for = simulate._rng_for
        started = []

        def failing(seed, chunk):
            started.append(chunk)
            if chunk == bad_chunk:
                raise raised
            return rng_for(seed, chunk)

        monkeypatch.setattr(simulate, "_rng_for", failing)
        before = threading.active_count()
        with pytest.raises(error) as info:
            simulate._sampled_moments(*_draw_args(1, 8 * simulate.CHUNK, False, 2, 2, 400))
        assert info.value is raised
        assert threading.active_count() == before
        assert capsys.readouterr().err == ""
        assert started == list(range(bad_chunk + 1))


def _unit_corner(rng, d, pd=True):
    """A symmetric moment with unit corner, positive definite or with a negative eigenvalue."""
    s = rand_spd(rng, d - 1) / d
    if not pd:
        s -= (np.linalg.eigvalsh(s)[-1] + 0.5) * np.eye(d - 1)
    mu = rng.uniform(-0.5, 0.5, d - 1)
    return np.block([[np.ones((1, 1)), mu[None, :]], [mu[:, None], s + np.outer(mu, mu)]])


class TestLrtStack:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), d=st.integers(2, 4),
           m=st.integers(1, 3), max_iter=st.sampled_from([1, 3, 50, 50]),
           infeasible=st.booleans(),
           kinds=st.lists(st.sampled_from(["pd", "pd", "not_pd", "null"]), min_size=6,
                          max_size=6))
    def test_members_match_one_moment_calls(self, seed, n, d, m, max_iter, infeasible, kinds):
        rng = np.random.default_rng(seed)
        ref = _unit_corner(rng, d)
        ref_inv = np.linalg.inv(ref)
        mats = [np.diag(np.r_[0.0, rng.uniform(0.5, 1.5, d - 1)])]
        for _ in range(m - 1):
            a = np.zeros((d, d))
            i, j = sorted(rng.choice(d, 2, replace=False))
            a[i, j] = a[j, i] = 0.5
            mats.append(a)
        targets = [np.sum(a * ref_inv) * rng.uniform(0.85, 1.15) for a in mats]
        if infeasible:
            # no positive definite moment has a negative precision diagonal
            targets[0] = -1.0
        cs = ga.TraceConstraintSet(mats, targets)
        # "null" members already satisfy the constraints at lambda = 0
        thetas = np.stack([ref if k == "null" else _unit_corner(rng, d, pd=k == "pd")
                           for k in kinds[:n]])
        # a hypothesis test cannot take a function-scoped fixture such as monkeypatch
        with mock.patch.object(ga, "LRT_MAX_ITER", max_iter):
            if m > 1 and np.linalg.matrix_rank(np.reshape(mats, (m, -1))) < m:
                # a repeated pair: the rank gate rejects the null before any member steps
                for moment in (thetas, *thetas):
                    with pytest.raises(RankDeficient):
                        ga.lrt_solve_stack(AugmentedMoment(moment, n_obs=50), cs)
                return
            stack = ga.lrt_solve_stack(AugmentedMoment(thetas, n_obs=50), cs)
            for i, theta in enumerate(thetas):
                try:
                    one = ga.lrt_solve(AugmentedMoment(theta, n_obs=50), cs)
                except NumericalError as exc:
                    err = stack.error(i)
                    assert not stack.converged[i]
                    assert type(err) is type(exc) and str(err) == str(exc)
                    with pytest.raises(type(exc)):
                        stack.member(i)
                    continue
                assert stack.converged[i]
                assert stack.iterations[i] == one.iterations
                assert abs(stack.stat[i] - one.stat) <= 1e-12 * max(1.0, abs(one.stat))
                np.testing.assert_allclose(stack.lam[i], one.lam, rtol=1e-12, atol=1e-14)
                np.testing.assert_array_equal(stack.member(i).history, one.history)

    def test_failures_do_not_leak_into_neighbours(self):
        rng = np.random.default_rng(7)
        good = _unit_corner(rng, 3)
        inv = np.linalg.inv(good)
        a = np.diag([0.0, 1.0, 0.0])
        cs = ga.TraceConstraintSet([a], [0.8 * inv[1, 1]])
        bad = _unit_corner(rng, 3, pd=False)
        thetas = np.stack([good, bad, good])
        stack = ga.lrt_solve_stack(AugmentedMoment(thetas, n_obs=100), cs)
        assert stack.status.tolist() == [ga.LRT_OK, ga.LRT_SAMPLE_NOT_PD, ga.LRT_OK]
        one = ga.lrt_solve(AugmentedMoment(good, n_obs=100), cs)
        for i in (0, 2):
            assert stack.iterations[i] == one.iterations
            assert stack.stat[i] == pytest.approx(one.stat, abs=1e-12)
        assert np.isnan(stack.stat[1])

    def test_iteration_cap_is_no_convergence(self, monkeypatch):
        theta = _unit_corner(np.random.default_rng(3), 3)
        a = np.diag([0.0, 1.0, 0.0])
        cs = ga.TraceConstraintSet([a], [0.7 * np.linalg.inv(theta)[1, 1]])
        monkeypatch.setattr(ga, "LRT_MAX_ITER", 1)
        stack = ga.lrt_solve_stack(AugmentedMoment(theta[None], n_obs=100), cs)
        assert stack.status[0] == ga.LRT_NO_CONVERGENCE
        with pytest.raises(NumericalError, match="after 1 iterations"):
            ga.lrt_solve(AugmentedMoment(theta, n_obs=100), cs)


def _conditional(rng, f, p):
    return rand_spd(rng, f + p) / (f + p) + 0.2 * np.eye(f + p)


def _spec(rng, f, p):
    a, c = rng.integers(1, p + 1), rng.integers(1, f + 1)
    return mglh.MglhSpec(rng.standard_normal((a, p)), rng.standard_normal((f, c)),
                         0.1 * rng.standard_normal((a, c)))


class TestMglhStack:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), f=st.integers(1, 3),
           p=st.integers(1, 3))
    def test_stack_matches_one_moment_calls(self, seed, n, f, p):
        rng = np.random.default_rng(seed)
        spec = _spec(rng, f, p)
        thetas = np.stack([_conditional(rng, f, p) for _ in range(n)])
        tms = [AugmentedMoment(t, n_obs=80, layout=MomentLayout.CONDITIONAL, f_dim=f)
               for t in thetas]
        stack_tm = AugmentedMoment(thetas, n_obs=80, layout=MomentLayout.CONDITIONAL, f_dim=f)
        fac = mglh._factorize(stack_tm, spec)
        g1s, g2s = fac.g1, fac.g2
        hs, es = orc.mglh_he(stack_tm, spec)
        res = mglh.mglh_statistics(stack_tm, spec)
        for i, tm in enumerate(tms):
            fac = mglh._factorize(tm, spec)
            g1, g2 = fac.g1, fac.g2
            np.testing.assert_allclose(g1s[i], g1, rtol=1e-12, atol=1e-12 * np.abs(g1).max())
            np.testing.assert_allclose(g2s[i], g2, rtol=1e-12, atol=1e-12 * np.abs(g2).max())
            one = mglh.mglh_statistics(tm, spec)
            for name in mglh.STAT_NAMES:
                want = one.as_dict()[name]
                assert abs(res.as_dict()[name][i] - want) <= 1e-12 * max(1.0, abs(want))
            h, e = orc.mglh_he(tm, spec)
            np.testing.assert_allclose(hs[i], h, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(es[i], e, rtol=1e-12, atol=1e-14)


class TestG1G2Eigen:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), c=st.integers(1, 4))
    def test_matches_the_pencil_oracle(self, seed, c):
        rng = np.random.default_rng(seed)
        g1, g2 = rand_spd(rng, c), rand_spd(rng, c)
        vals, vecs = mglh._g1g2_eigen(g1, g2)
        g1_inv = np.linalg.inv(g1)
        ref_vals, ref_vecs = scipy.linalg.eigh(g2, g1_inv)
        ref_vals, ref_vecs = ref_vals[::-1], ref_vecs[:, ::-1]
        np.testing.assert_allclose(vals, ref_vals, rtol=1e-12)
        # both normalize v' inv(G1) v = 1; columns agree up to sign
        np.testing.assert_allclose(vecs.T @ g1_inv @ vecs, np.eye(c), atol=1e-10)
        gaps = np.abs(np.diff(ref_vals))
        if c == 1 or gaps.min() > 1e-3 * ref_vals[0]:
            signs = np.sign(np.sum(vecs * ref_vecs, axis=0))
            np.testing.assert_allclose(vecs * signs, ref_vecs, rtol=1e-8,
                                       atol=1e-10 * np.abs(ref_vecs).max())

    def test_stack_matches_members(self):
        rng = np.random.default_rng(11)
        g1 = np.stack([rand_spd(rng, 3) for _ in range(4)])
        g2 = np.stack([rand_spd(rng, 3) for _ in range(4)])
        vals, vecs = mglh._g1g2_eigen(g1, g2)
        for i in range(4):
            one_vals, one_vecs = mglh._g1g2_eigen(g1[i], g2[i])
            np.testing.assert_allclose(vals[i], one_vals, rtol=1e-13)
            np.testing.assert_allclose(np.abs(vecs[i]), np.abs(one_vecs), rtol=1e-12,
                                       atol=1e-14)
