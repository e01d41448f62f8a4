"""Closed-form Gaussian covariances and the trace-constraint LRT."""

import itertools

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from portinf import gaussian as ga
from portinf import moments as mo
from portinf import oracles as orc
from portinf.asymptotics import OmegaEstimate, theta_inverse_covariance
from portinf.errors import NumericalError, RankDeficient, ShapeMismatch
from portinf.kernels import vech_len, vech_pair
from portinf.moments import AugmentedMoment

from conftest import rand_sym, rand_unit_corner_theta, theta_from


def scalar_theta(mu, sg):
    return np.array([[1.0, mu], [mu, mu**2 + sg**2]])


class TestGaussianOmega:
    def test_scalar_unit_case(self):
        om = ga.gaussian_omega(AugmentedMoment(scalar_theta(1.0, 1.0), n_obs=10))
        np.testing.assert_allclose(om.omega[1:, 1:], [[1.0, 2.0], [2.0, 6.0]], atol=1e-12)
        np.testing.assert_array_equal(om.omega[0], np.zeros(3))

    def test_scalar_zero_mean(self):
        om = ga.gaussian_omega(AugmentedMoment(scalar_theta(0.0, 1.0), n_obs=10))
        np.testing.assert_allclose(om.omega[1:, 1:], [[1.0, 0.0], [0.0, 2.0]], atol=1e-12)

    def test_block_inverse_is_fisher_information(self, rng):
        for p in (2, 3):
            theta = rand_unit_corner_theta(rng, p)
            om = ga.gaussian_omega(AugmentedMoment(theta, n_obs=10))
            fisher = orc.fisher_information_block(theta)
            block_inv = np.linalg.inv(om.omega[1:, 1:])
            np.testing.assert_allclose(block_inv, fisher, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(om.omega[1:, 1:], np.linalg.inv(fisher),
                                       rtol=1e-10, atol=1e-12)
            np.testing.assert_array_equal(om.omega[0], np.zeros(om.dim))

    def test_block_is_spd(self, rng):
        theta = rand_unit_corner_theta(rng, 3)
        om = ga.gaussian_omega(AugmentedMoment(theta, n_obs=10))
        assert np.linalg.eigvalsh(om.omega[1:, 1:])[0] > 0


class TestInverseLawAccuracy:
    """The Gaussian law of vech(theta^-1), read off P = theta^-1, against its closed form."""

    @settings(max_examples=80, deadline=None)
    @given(p=st.integers(1, 5), log_cond=st.floats(0.0, 4.7), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_closed_form_to_eps_cond(self, p, log_cond, seed):
        # The sandwich is pair(S) - 2 v v' with S = P theta P and v = vech(nu nu'),
        # nu = P theta e1; the closed form is pair(P) - 2 e1 e1'. S - P is P times the
        # residual theta P - I of the computed inverse plus the rounding of the two
        # products, each at most about d eps cond(theta) |P|, and nu - e1 likewise at
        # most about d eps cond(theta). So an entry S_ik S_jl + S_il S_jk moves by at
        # most about 2 (2 d eps cond) |P| |P|, and the mean term by 4 d eps cond, below
        # |P|^2 as |P| >= theta^-1_00 >= 1: in all 12 d eps cond(theta) |P|^2. A
        # Jacobian of the inverse sandwiched with pair(theta) rounds at eps cond(theta)^2.
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((p, p)))
        sigma = (u * np.logspace(0.0, -log_cond, p)) @ u.T
        theta = theta_from(0.3 * rng.standard_normal(p), sigma)
        cond = np.linalg.cond(theta)
        assume(cond <= 1e5)
        tm = AugmentedMoment(theta, n_obs=100)
        got = theta_inverse_covariance(tm, ga.gaussian_omega(tm)).covariance
        want = vech_pair(tm.inverse)
        want[0, 0] -= 2.0
        bound = 12 * (p + 1) * np.finfo(float).eps * cond * np.linalg.norm(tm.inverse, 2) ** 2
        assert np.abs(got - want).max() <= bound


class TestConjectureRoutes:
    """The normal-returns law of vech(Theta^-1), first conjectured from p = 1, by three routes."""

    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("sg", [0.5, 1.0, 2.0])
    def test_scalar_grid_identity(self, mu, sg):
        tm = AugmentedMoment(scalar_theta(mu, sg), n_obs=10)
        via_chain = theta_inverse_covariance(tm, ga.gaussian_omega(tm)).covariance
        np.testing.assert_allclose(orc.conjecture_itheta_cov(tm), via_chain, atol=1e-10)

    @staticmethod
    def assert_law(theta):
        # one row moves the inverse by -vech(s s'), s = Theta^-1 r Gaussian with
        # mean e1 and second moment Theta^-1: Isserlis gives pair(Theta^-1) - 2 e0 e0'
        tm = AugmentedMoment(theta, n_obs=10)
        via_chain = theta_inverse_covariance(tm, ga.gaussian_omega(tm)).covariance
        isserlis = vech_pair(tm.inverse)
        isserlis[0, 0] -= 2.0
        scale = np.abs(via_chain).max()
        for route in (isserlis, orc.conjecture_itheta_cov(tm)):
            assert np.abs(route - via_chain).max() <= 1e-12 * scale

    @pytest.mark.parametrize("p", [2, 3])
    def test_multivariate_route_evidence(self, p, rng):
        self.assert_law(rand_unit_corner_theta(rng, p))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 6))
    def test_law_holds_for_every_p(self, seed, p):
        self.assert_law(rand_unit_corner_theta(np.random.default_rng(seed), p))


class TestGaussianOmegaMonteCarlo:
    def test_two_asset_empirical_agreement(self):
        from portinf.simulate import gaussian_suite
        rep = gaussian_suite(seed=2024, trials=5000, sample_size=2000)
        assert rep.passed, rep.render()


class TestOmegaGaussianCentered:
    def test_matches_simulation(self):
        rng = np.random.default_rng(777)
        s = np.array([[1.0, 0.4], [0.4, 2.0]])
        z = rng.multivariate_normal(np.zeros(2), s, size=200_000)
        y = np.column_stack([z[:, 0] ** 2, z[:, 0] * z[:, 1], z[:, 1] ** 2])
        emp = np.cov(y, rowvar=False)
        # a Gaussian omega of zero mean
        np.testing.assert_allclose(OmegaEstimate(s, len(z)).omega, emp, rtol=0.05, atol=0.05)


class TestLrtSolve:
    def setup_method(self):
        self.theta = np.array([[1.0, 0.3, 0.1],
                               [0.3, 1.2, 0.2],
                               [0.1, 0.2, 0.9]])
        self.tm = AugmentedMoment(self.theta, n_obs=500)
        self.inv = np.linalg.inv(self.theta)

    def test_satisfied_constraints_are_a_fixed_point(self):
        a1 = np.diag([0.0, 1.0, 0.0])
        a2 = np.zeros((3, 3))
        a2[0, 2] = a2[2, 0] = 0.5
        cs = ga.TraceConstraintSet([a1, a2],
                                   [np.sum(a1 * self.inv), np.sum(a2 * self.inv)])
        sol = ga.lrt_solve(self.tm, cs)
        np.testing.assert_allclose(sol.lam, np.zeros(2), atol=1e-12)
        np.testing.assert_allclose(sol.theta0, self.theta, atol=1e-12)
        assert abs(sol.stat) < 1e-8
        assert sol.iterations == 0

    def test_single_constraint_matches_bisection(self):
        a = np.zeros((3, 3))
        a[1, 1] = 1.0
        target = 0.9 * self.inv[1, 1]
        cs = ga.TraceConstraintSet([a], [target])
        sol = ga.lrt_solve(self.tm, cs)

        def g(lam):
            return np.linalg.inv(self.theta - lam * a)[1, 1] - target

        lo, hi = -0.5, 0.5
        assert g(lo) * g(hi) < 0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if g(lo) * g(mid) <= 0:
                hi = mid
            else:
                lo = mid
        np.testing.assert_allclose(sol.lam[0], 0.5 * (lo + hi), atol=1e-8)
        assert abs(np.sum(a * np.linalg.inv(sol.theta0)) - target) < 1e-8

    def test_mle_form_holds(self):
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = 0.5
        cs = ga.TraceConstraintSet([a], [1.05 * np.sum(a * self.inv)])
        sol = ga.lrt_solve(self.tm, cs)
        np.testing.assert_allclose(sol.theta0, self.theta - sol.lam[0] * a, atol=1e-12)

    def test_stat_invariant_under_common_rescaling(self):
        a1 = np.diag([0.0, 1.0, 0.0])
        a2 = np.zeros((3, 3))
        a2[0, 1] = a2[1, 0] = 0.5
        t1, t2 = 0.95 * self.inv[1, 1], 1.1 * (a2 * self.inv).sum()
        base = ga.lrt_solve(self.tm, ga.TraceConstraintSet([a1, a2], [t1, t2]))
        scaled = ga.lrt_solve(
            self.tm, ga.TraceConstraintSet([3.0 * a1, 3.0 * a2], [3.0 * t1, 3.0 * t2]))
        assert scaled.stat == pytest.approx(base.stat, abs=1e-10)
        np.testing.assert_allclose(scaled.lam, base.lam / 3.0, atol=1e-10)

    def test_three_constraints_converge(self):
        a1 = np.diag([0.0, 1.0, 0.0])
        a2 = np.zeros((3, 3))
        a2[0, 1] = a2[1, 0] = 0.5
        a3 = np.zeros((3, 3))
        a3[1, 2] = a3[2, 1] = 0.5
        targets = [0.95 * np.sum(a * self.inv) + off
                   for a, off in ((a1, 0.0), (a2, 0.01), (a3, -0.01))]
        sol = ga.lrt_solve(self.tm, ga.TraceConstraintSet([a1, a2, a3], targets))
        assert sol.converged and sol.dof == 3
        inv0 = np.linalg.inv(sol.theta0)
        for a, t in zip((a1, a2, a3), targets):
            assert abs(np.sum(a * inv0) - t) < 1e-8

    @pytest.mark.parametrize("eps", [0.0, 1e-15], ids=["repeated", "nearly_repeated"])
    def test_dependent_constraints_are_rank_deficient(self, eps):
        # dependent rows span fewer matrices than there are rows: the rank gate
        # stops them before the first Newton step
        a1 = np.diag([0.0, 1.0, 0.0])
        a2 = a1 + eps * np.diag([0.0, 0.0, 1.0])
        target = 0.9 * self.inv[1, 1]
        with pytest.raises(RankDeficient):
            ga.lrt_solve(self.tm, ga.TraceConstraintSet([a1, a2], [target, target]))

    def test_residual_norm_descends(self):
        a = np.diag([0.0, 1.0, 0.0])
        cs = ga.TraceConstraintSet([a], [0.8 * self.inv[1, 1]])
        sol = ga.lrt_solve(self.tm, cs)
        assert all(b <= a_ + 1e-15 for a_, b in zip(sol.history, sol.history[1:]))

    def test_infeasible_constraint_fails_loudly(self):
        a = np.diag([0.0, 1.0, 0.0])
        # the precision diagonal of a PD matrix cannot be negative
        cs = ga.TraceConstraintSet([a], [-5.0])
        with pytest.raises(NumericalError):
            ga.lrt_solve(self.tm, cs)

    def test_nonsymmetric_constraint_is_symmetrized(self):
        raw = np.zeros((3, 3))
        raw[0, 1] = 1.0
        cs = ga.TraceConstraintSet([raw], [0.0])
        np.testing.assert_allclose(cs.matrices[0], 0.5 * (raw + raw.T))


def lrt_problem(seed, p, k, whole=False, units=1.0):
    """A sample moment of returns in percent-like units and k random constraints near it.

    Each target is its constraint's value at the sample moment, moved by up
    to 5%, so the null is feasible and the statistic is not zero. Unless
    `whole`, k stays below the p+1 moment's vech length: a null of that
    many rows pins the constrained inverse whole, often outside the
    positive definite cone, and its Newton Jacobian is nearly singular.
    `units` multiplies the returns and writes each row A as D A D,
    D = diag(1, units, ..., units), which leaves the targets and the null
    as they are.
    """
    if not whole:
        k = min(k, vech_len(p + 1) - 1)
    rng = np.random.default_rng(seed)
    returns = 0.01 * rng.standard_normal((300, p)) + 0.003
    tm = mo.sample_theta(mo.augment(returns))
    mats = [rand_sym(rng, p + 1) for _ in range(k)]
    targets = [np.sum(a * tm.inverse) * (1.0 + 0.05 * rng.uniform(-1.0, 1.0)) for a in mats]
    if units != 1.0:
        tm = mo.sample_theta(mo.augment(units * returns))
        scale = np.r_[1.0, np.full(p, units)]
        mats = [scale[:, None] * a * scale for a in mats]
    return tm, mats, targets


def solved_or_skipped(tm, mats, targets):
    try:
        return ga.lrt_solve(tm, ga.TraceConstraintSet(mats, targets))
    except NumericalError:
        assume(False)


LRT_DRAWS = dict(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 3), k=st.integers(1, 3))


class TestLrtInvariance:
    """The constrained maximizer depends on the null's level set, not on how its rows are written."""

    @settings(max_examples=60, deadline=None)
    @given(log_c=st.floats(-6.0, 6.0), negative=st.booleans(), row=st.integers(0, 2),
           **LRT_DRAWS)
    def test_scaling_one_constraint_row(self, log_c, negative, row, seed, p, k):
        tm, mats, targets = lrt_problem(seed, p, k)
        base = solved_or_skipped(tm, mats, targets)
        c, i = (-1.0 if negative else 1.0) * 10.0**log_c, row % len(mats)
        mats[i], targets[i] = c * mats[i], c * targets[i]
        scaled = ga.lrt_solve(tm, ga.TraceConstraintSet(mats, targets))
        assert abs(scaled.stat - base.stat) <= 1e-9 * base.stat
        want = base.lam.copy()
        want[i] /= c
        assert np.abs(scaled.lam - want).max() <= 1e-9 * np.abs(want).max()

    @settings(max_examples=60, deadline=None)
    @given(log_c=st.floats(-2.0, 2.0), **LRT_DRAWS)
    @example(log_c=-2.0, seed=114, p=1, k=3)  # a far null of 18 steps, in hundredths
    @example(log_c=1.0, seed=563, p=2, k=1)  # a statistic of 3.3e-12
    def test_units_of_the_returns(self, log_c, seed, p, k):
        base = solved_or_skipped(*lrt_problem(seed, p, k))
        tm, mats, targets = lrt_problem(seed, p, k, units=10.0**log_c)
        scaled = ga.lrt_solve(tm, ga.TraceConstraintSet(mats, targets))
        # the rounded moment and rows pin a statistic near zero only to far less
        # than 1e-9 of itself (the rescaled returns' moment rounds apart from the
        # returns'), so below 1 the bound is 1e-9 absolute
        assert abs(scaled.stat - base.stat) <= 1e-9 * max(base.stat, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(**LRT_DRAWS)
    def test_permuting_constraint_rows(self, seed, p, k):
        tm, mats, targets = lrt_problem(seed, p, k)
        base = solved_or_skipped(tm, mats, targets)
        perm = np.random.default_rng(seed).permutation(len(mats))
        permuted = ga.lrt_solve(tm, ga.TraceConstraintSet([mats[j] for j in perm],
                                                          [targets[j] for j in perm]))
        assert abs(permuted.stat - base.stat) <= 1e-9 * base.stat
        assert np.abs(permuted.lam - base.lam[perm]).max() <= 1e-9 * np.abs(base.lam).max()


def ill_conditioned(rng, n, log_cond):
    """A random n-by-n matrix with singular values from 1 down to 10^-log_cond."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return u @ np.diag(np.logspace(0.0, -log_cond, n)) @ v


class TestLrtNearlyDependentRows:
    """One pinned null of three rows at p = 1 whose Newton Jacobian is nearly singular.

    Seed 2960 of a sweep of such nulls: solved in the rows as written, its
    recombinations QA, Qb failed with LostPositiveDefiniteness or
    SingularJacobian. Solved in an orthonormal basis of the rows' span, it
    is one null however its rows are written.
    """

    def setup_method(self):
        self.tm, self.mats, self.targets = lrt_problem(2960, 1, 3, whole=True)
        self.base = ga.lrt_solve(self.tm, ga.TraceConstraintSet(self.mats, self.targets))

    def solve(self, mats, targets):
        return ga.lrt_solve(self.tm, ga.TraceConstraintSet(list(mats), list(targets)))

    def test_newton_jacobian_is_nearly_singular(self):
        inv = self.tm.inverse
        gram = [[np.sum(a @ inv * (b @ inv).T) for b in self.mats] for a in self.mats]
        vals = np.linalg.eigvalsh(gram)
        assert 2e-10 <= vals[0] / vals[-1] <= 6e-9

    @pytest.mark.parametrize("perm", list(itertools.permutations(range(3))))
    def test_permuting_rows(self, perm):
        got = self.solve([self.mats[j] for j in perm], [self.targets[j] for j in perm])
        assert abs(got.stat - self.base.stat) <= 1e-9 * self.base.stat
        want = self.base.lam[list(perm)]
        assert np.abs(got.lam - want).max() <= 1e-9 * np.abs(want).max()

    @settings(max_examples=40, deadline=None)
    @given(log_c=st.floats(-6.0, 6.0), negative=st.booleans(), row=st.integers(0, 2))
    def test_scaling_one_row(self, log_c, negative, row):
        c = (-1.0 if negative else 1.0) * 10.0**log_c
        mats, targets = list(self.mats), list(self.targets)
        mats[row], targets[row] = c * mats[row], c * targets[row]
        assert abs(self.solve(mats, targets).stat - self.base.stat) <= 1e-9 * self.base.stat

    @settings(max_examples=40, deadline=None)
    @given(log_cond=st.floats(0.0, 6.0), seed=st.integers(0, 2**32 - 1))
    def test_recombining_rows(self, log_cond, seed):
        q = ill_conditioned(np.random.default_rng(seed), 3, log_cond)
        assert_recombination_holds(self.tm, self.mats, self.targets, self.base, q, log_cond)

    # the seeds of 2950-2999 whose three rows at p = 1 solve as written
    @pytest.mark.parametrize("seed", [2950, 2952, 2953, 2955, 2958, 2959, 2960, 2962, 2964, 2966,
                                      2967, 2969, 2972, 2973, 2974, 2980, 2981, 2983, 2990, 2993,
                                      2995, 2998])
    def test_recombining_the_sweep(self, seed):
        tm, mats, targets = lrt_problem(seed, 1, 3, whole=True)
        base = ga.lrt_solve(tm, ga.TraceConstraintSet(mats, targets))
        rng = np.random.default_rng(seed)
        for log_cond in (1.5, 1.5, 1.5, 3.0, 3.0, 3.0):
            q = ill_conditioned(rng, 3, log_cond)
            assert_recombination_holds(tm, mats, targets, base, q, log_cond)


def assert_recombination_holds(tm, mats, targets, base, q, log_cond):
    # forming QA and Qb rounds the rows by about eps cond(Q), which moves the
    # null itself: rows perturbed by 2e-10 relative move seed 2960's statistic
    # by up to 4.4e-9, 22 times as much, so past 1e-9 the bound allows 100 eps cond(Q)
    got = ga.lrt_solve(tm, ga.TraceConstraintSet(list(np.einsum("ij,jkl->ikl", q, np.array(mats))),
                                                 list(q @ np.array(targets))))
    bound = 1e-9 + 100 * np.finfo(float).eps * 10.0**log_cond
    assert abs(got.stat - base.stat) <= bound * base.stat


class TestLrtPvalue:
    def test_zero_stat(self):
        assert ga.lrt_pvalue(0.0, 2) == 1.0

    def test_chi_square_table_one_dof(self):
        assert ga.lrt_pvalue(3.841, 1) == pytest.approx(0.05, abs=1e-3)

    def test_chi_square_table_two_dof(self):
        assert ga.lrt_pvalue(5.991, 2) == pytest.approx(0.05, abs=1e-3)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2000), st.floats(0.0, 1e5), st.floats(-12.0, 40.0))
    def test_matches_chdtrc(self, dof, x_wide, t):
        # x_wide mostly lands far in the tail; x_bulk sits within a few sd of the mean
        x_bulk = max(0.0, dof + t * np.sqrt(2.0 * dof))
        for x in (x_wide, x_bulk):
            want = float(scipy.special.chdtrc(dof, x))
            if want >= 1e-300:
                assert abs(ga.lrt_pvalue(x, dof) - want) <= 1e-11 * want

    @pytest.mark.parametrize("dof", [1600, 1601, 2000])
    def test_large_dof_past_the_exp_underflow(self, dof):
        # at x = dof, h = x/2 > 745 underflows e^-h, yet the tail is near 0.5
        x = float(dof)
        assert ga.lrt_pvalue(x, dof) == pytest.approx(scipy.special.chdtrc(dof, x), rel=1e-11)
        assert 0.4 < ga.lrt_pvalue(x, dof) < 0.6

    @pytest.mark.parametrize("stat,dof", [(1.0, 0), (1.0, -2), (1.0, 2.5), (1.0, 2.0),
                                          (np.nan, 2), (np.inf, 2), (-1.0, 2)],
                             ids=["dof0", "dof-2", "dof2.5", "dof_float", "nan", "inf",
                                  "negative"])
    def test_bad_inputs_are_rejected(self, stat, dof):
        with pytest.raises(ShapeMismatch):
            ga.lrt_pvalue(stat, dof)

    def test_tiny_negative_stat_is_zero(self):
        assert ga.lrt_pvalue(-1e-12, 3) == 1.0
