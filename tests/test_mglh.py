"""Linear-hypothesis statistics, their dual routes, and their gradients."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from portinf import constraints as cn
from portinf import mglh
from portinf import moments as mo
from portinf import oracles as orc
from portinf.asymptotics import OmegaEstimate, wald_statistics
from portinf.errors import RankDeficient, ShapeMismatch
from portinf.kernels import RANK_RTOL, ivech, vech
from portinf.moments import AugmentedMoment, MomentLayout

from conftest import fd_jac, rand_spd


def make_conditional(rng, f, p, b_scale=0.4, n_obs=300):
    sig_f = rand_spd(rng, f) / f
    bmat = b_scale * rng.standard_normal((p, f))
    sigma = rand_spd(rng, p) / p
    theta = np.block([[sig_f, sig_f @ bmat.T],
                      [bmat @ sig_f, sigma + bmat @ sig_f @ bmat.T]])
    tm = AugmentedMoment(theta, n_obs=n_obs, layout=MomentLayout.CONDITIONAL, f_dim=f)
    return tm, sig_f, bmat, sigma


def rand_spec(rng, f, p, a, c, null=False, bmat=None):
    amat = rng.standard_normal((a, p))
    cmat = rng.standard_normal((f, c))
    tmat = amat @ bmat @ cmat if null else rng.standard_normal((a, c))
    return mglh.MglhSpec(amat, cmat, tmat)


class TestSpecValidation:
    def test_rejects_wrong_target_shape(self):
        with pytest.raises(ShapeMismatch):
            mglh.MglhSpec(np.eye(2), np.eye(2), np.zeros((1, 2)))

    def test_rejects_rank_deficient_contrast(self):
        with pytest.raises(RankDeficient):
            mglh.MglhSpec(np.array([[1.0, 0.0], [2.0, 0.0]]), np.eye(2), np.zeros((2, 2)))

    @pytest.mark.parametrize("stacked", [False, True])
    def test_singular_feature_gram_is_singular_theta(self, stacked):
        theta = np.eye(4)
        theta[:2, :2] = 1.0                      # two identical features
        theta = np.stack([np.eye(4), theta]) if stacked else theta
        tm = AugmentedMoment(theta, n_obs=100, layout=MomentLayout.CONDITIONAL, f_dim=2)
        spec = mglh.MglhSpec(np.eye(2), np.eye(2), np.zeros((2, 2)))
        with pytest.raises(mglh.SingularTheta, match="feature gram is singular"):
            mglh.mglh_statistics(tm, spec)


class TestModelErrorMatrices:
    def test_exact_null_kills_model_variance(self, rng):
        tm, _, bmat, _ = make_conditional(rng, 2, 3)
        spec = rand_spec(rng, 2, 3, 2, 2, null=True, bmat=bmat)
        h, e = orc.mglh_he(tm, spec)
        np.testing.assert_allclose(h, np.zeros((2, 2)), atol=1e-12)
        assert np.linalg.eigvalsh(e)[0] > 0

    def test_identity_plumbing(self):
        theta = np.block([[np.eye(2), np.eye(2)], [np.eye(2), 2 * np.eye(2)]])
        tm = AugmentedMoment(theta, n_obs=100, layout=MomentLayout.CONDITIONAL, f_dim=2)
        spec = mglh.MglhSpec(np.eye(2), np.eye(2), np.zeros((2, 2)))
        h, e = orc.mglh_he(tm, spec)
        np.testing.assert_allclose(h, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(e, np.eye(2), atol=1e-12)

    def test_random_instance_is_psd(self, rng):
        tm, _, bmat, _ = make_conditional(rng, 3, 3)
        spec = rand_spec(rng, 3, 3, 2, 2)
        h, e = orc.mglh_he(tm, spec)
        assert np.linalg.eigvalsh(h)[0] > -1e-12
        assert np.linalg.eigvalsh(e)[0] > 0
        assert np.linalg.eigvals(np.linalg.solve(e, h)).real.min() > -1e-12


class TestG1G2:
    def test_null_gives_identity_product(self, rng):
        tm, _, bmat, _ = make_conditional(rng, 2, 2)
        spec = rand_spec(rng, 2, 2, 1, 2, null=True, bmat=bmat)
        fac = mglh._factorize(tm, spec)
        g1, g2 = fac.g1, fac.g2
        np.testing.assert_allclose(g1 @ g2, np.eye(2), atol=1e-10)

    def test_bordered_route_matches_direct_formula(self, rng):
        tm, sig_f, bmat, sigma = make_conditional(rng, 3, 2)
        spec = rand_spec(rng, 3, 2, 2, 2)
        g2 = mglh._factorize(tm, spec).g2
        a, c, t = spec.a_matrix, spec.c_matrix, spec.t_matrix
        resid = a @ bmat @ c - t
        direct = (c.T @ np.linalg.solve(sig_f, c)
                  + resid.T @ np.linalg.solve(a @ sigma @ a.T, resid))
        np.testing.assert_allclose(g2, direct, atol=1e-10)

    @pytest.mark.parametrize("trial", range(50))
    def test_eigenvalue_equivalence_with_he_route(self, trial):
        rng = np.random.default_rng(8000 + trial)
        f, p = rng.integers(2, 4), rng.integers(2, 4)
        a, c = rng.integers(1, p + 1), rng.integers(1, f + 1)
        tm, _, bmat, _ = make_conditional(rng, f, p)
        spec = rand_spec(rng, f, p, a, c)
        fac = mglh._factorize(tm, spec)
        g1, g2 = fac.g1, fac.g2
        h, e = orc.mglh_he(tm, spec)
        size = max(a, c)
        eig1 = np.sort(np.linalg.eigvals(g1 @ g2).real)
        eig2 = np.sort(np.linalg.eigvals(np.eye(a) + np.linalg.solve(e, h)).real)
        pad1 = np.sort(np.concatenate([eig1, np.ones(size - c)]))
        pad2 = np.sort(np.concatenate([eig2, np.ones(size - a)]))
        np.testing.assert_allclose(pad1, pad2, atol=1e-10)


class TestStatistics:
    def test_null_anchor_values(self, rng):
        tm, _, bmat, _ = make_conditional(rng, 3, 3)
        spec = rand_spec(rng, 3, 3, 2, 2, null=True, bmat=bmat)
        res = mglh.mglh_statistics(tm, spec)
        assert res.hlt == pytest.approx(0.0, abs=1e-10)
        assert res.pbt == pytest.approx(2.0, abs=1e-10)
        assert res.wilks == pytest.approx(1.0, abs=1e-10)
        assert res.roy == pytest.approx(0.0, abs=1e-10)

    def test_matches_eigenvalue_definitions(self, rng):
        tm, _, _, _ = make_conditional(rng, 3, 3)
        spec = rand_spec(rng, 3, 3, 3, 2)
        res = mglh.mglh_statistics(tm, spec)
        h, e = orc.mglh_he(tm, spec)
        lam = np.linalg.eigvals(np.linalg.solve(e, h)).real
        assert res.hlt == pytest.approx(lam.sum(), abs=1e-10)
        assert res.pbt == pytest.approx(np.sum(1.0 / (1.0 + lam)), abs=1e-10)
        assert res.wilks == pytest.approx(np.prod(1.0 / (1.0 + lam)), abs=1e-10)
        assert res.roy == pytest.approx(lam.max(), abs=1e-10)

    def test_scalar_reduction_is_variance_ratio(self):
        sig_f, b, sigma = 2.0, 0.7, 0.5
        theta = np.array([[sig_f, sig_f * b], [sig_f * b, sigma + b * sig_f * b]])
        tm = AugmentedMoment(theta, n_obs=50, layout=MomentLayout.CONDITIONAL, f_dim=1)
        spec = mglh.MglhSpec([[1.0]], [[1.0]], [[0.0]])
        res = mglh.mglh_statistics(tm, spec)
        h_scalar = b**2 * sig_f
        assert res.hlt == pytest.approx(h_scalar / sigma, rel=1e-12)

    @staticmethod
    def _constant_feature_case(seed, t, p, scale):
        """Statistics of one constant feature with A = I, C = 1, T = 0, the sample's zeta^2 and its bound.

        Theta = [[1, mu'], [mu, Sigma + mu mu']] for the sample mean mu and the
        divisor-T covariance Sigma, read off theta so that both sides share the
        sample's sums. G1 is 1 and G2 is (theta^-1)_00 = 1 + zeta^2, so the one
        eigenvalue is 1 + zeta^2. The bordered inversion and the eigensolve each
        round at a few d eps of that eigenvalue, d = p + 1, and the reference's
        solve at d eps cond(Sigma) zeta^2: the gap is a few
        d eps cond(Sigma) (1 + zeta^2), allowed eight times here. Unit-variance
        noise keeps cond(Sigma) near 1 and the mean keeps zeta^2 below about 1,
        where Sigma's own cancellation, eps (1 + zeta^2) relative, adds no more.
        """
        rng = np.random.default_rng(seed)
        direction = rng.standard_normal(p)
        x = scale * direction / np.linalg.norm(direction) + rng.standard_normal((t, p))
        rows, layout, f_dim = cn.conditional_rows(x, np.ones((t, 1)),
                                                  model=cn.ConditionalModel.BICONDITIONAL)
        tm = mo.sample_theta(rows, layout, f_dim=f_dim)
        res = mglh.mglh_statistics(tm, mglh.MglhSpec(np.eye(p), [[1.0]], np.zeros((p, 1))))
        mu = tm.theta[1:, 0]
        sigma = tm.theta[1:, 1:] - np.outer(mu, mu)
        zeta_sq = mu @ np.linalg.solve(sigma, mu)
        bound = 8 * (p + 1) * np.finfo(float).eps * np.linalg.cond(sigma) * (1.0 + zeta_sq)
        return res, zeta_sq, bound

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(200, 400), p=st.integers(1, 4),
           scale=st.floats(0.0, 1.0))
    def test_hlt_on_a_constant_feature_is_the_squared_sharpe(self, seed, t, p, scale):
        """One constant feature, A = I, C = 1, T = 0: HLT is the sample's mu' Sigma^-1 mu."""
        res, zeta_sq, bound = self._constant_feature_case(seed, t, p, scale)
        assert abs(res.hlt - zeta_sq) <= bound

    @pytest.mark.parametrize("name, of_zeta_sq", [
        ("pbt", lambda z, p: p - 1 + 1.0 / (1.0 + z)),
        ("wilks", lambda z, p: 1.0 / (1.0 + z)),
        ("roy", lambda z, p: z),
    ], ids=["pbt", "wilks", "roy"])
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(200, 400), p=st.integers(1, 4),
           scale=st.floats(0.0, 1.0))
    def test_other_statistics_on_a_constant_feature_follow_the_squared_sharpe(
            self, name, of_zeta_sq, seed, t, p, scale):
        """With one root 1 + zeta^2, PBT is a - c + 1/(1 + zeta^2), Wilks 1/(1 + zeta^2), Roy zeta^2.

        Each map has slope at most 1 in magnitude for zeta^2 >= 0, so the root's
        error passes on at most the HLT bound. The last two operations on each
        side round at eps/2 of a value at most p, adding 2 p eps.
        """
        res, zeta_sq, bound = self._constant_feature_case(seed, t, p, scale)
        expected = of_zeta_sq(zeta_sq, p)
        assert abs(getattr(res, name) - expected) <= bound + 2 * p * np.finfo(float).eps

    @pytest.mark.parametrize("trial", range(10))
    def test_result_bounds(self, trial):
        rng = np.random.default_rng(4100 + trial)
        tm, _, _, _ = make_conditional(rng, 3, 3)
        spec = rand_spec(rng, 3, 3, 2, 2)
        res = mglh.mglh_statistics(tm, spec)
        assert res.hlt >= -1e-10
        assert 0.0 < res.wilks <= 1.0 + 1e-10
        assert res.roy >= -1e-10
        assert res.pbt <= spec.n_rows + 1e-10

    def test_invariance_to_matched_row_scaling(self, rng):
        tm, _, bmat, _ = make_conditional(rng, 2, 3)
        amat = rng.standard_normal((2, 3))
        cmat = rng.standard_normal((2, 2))
        tmat = rng.standard_normal((2, 2))
        res1 = mglh.mglh_statistics(tm, mglh.MglhSpec(amat, cmat, tmat))
        res2 = mglh.mglh_statistics(tm, mglh.MglhSpec(5.0 * amat, cmat, 5.0 * tmat))
        for k in mglh.STAT_NAMES:
            assert res2.as_dict()[k] == pytest.approx(res1.as_dict()[k], rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(1.0, 8.0), st.floats(0.0, 1.0))
    # the pbt variance was off 1.4e-4 here while the sandwich worked in the factor as given
    @example(1109, 1.0, 0.0)
    # QA below the rank gate; and a QTR whose rounding alone moves the pbt variance 1.9e-5
    @example(254146905, 8.0, 1.0)
    @example(1387155598, 8.0, 1.0)
    def test_invariance_to_ill_conditioned_recombination(self, seed, log_cond_q, log_cond_r):
        # A -> QA, C -> CR, T -> QTR is the same hypothesis for invertible Q
        # and R, so statistics and variances match even when QA is nearly
        # rank deficient; forming QTR rounds by about eps cond(Q) cond(R)
        rng = np.random.default_rng(seed)
        f, p, a, c = 2, 3, 2, 2
        tm, _, _, _ = make_conditional(rng, f, p)
        amat = rng.standard_normal((a, p))
        cmat = rng.standard_normal((f, c))
        tmat = rng.standard_normal((a, c))
        q, r = ill_conditioned(rng, a, log_cond_q), ill_conditioned(rng, c, log_cond_r)
        om = OmegaEstimate(rand_spd(rng, f + p), n_obs=tm.n_obs)
        want, want_law = mglh.mglh_asymptotic(tm, mglh.MglhSpec(amat, cmat, tmat), om)

        def law(target):
            return mglh.mglh_asymptotic(tm, mglh.MglhSpec(q @ amat, cmat @ r, target), om)

        qtr = q @ tmat @ r
        try:
            got, got_law = law(qtr)
        except RankDeficient:
            svals = np.linalg.svd(q @ amat, compute_uv=False)
            assert svals[-1] < RANK_RTOL * svals[0]  # the gate, not the sandwich
            return
        got_var, want_var = np.diag(got_law.covariance), np.diag(want_law.covariance)
        # the variances' own sensitivity to rounding QTR: the moves that an
        # eps-relative change of each of its entries causes, summed (to first
        # order the worst eps-relative change of them all), allowed ten times over
        moved = sum(np.abs(np.diag(law(qtr * (1.0 + np.finfo(float).eps * unit))[1].covariance)
                           - got_var) for unit in np.eye(a * c).reshape(-1, a, c))
        moved /= np.abs(got_var)
        for i, k in enumerate(mglh.STAT_NAMES):
            assert got.as_dict()[k] == pytest.approx(want.as_dict()[k], rel=1e-5), k
            assert got_var[i] == pytest.approx(want_var[i], rel=1e-5 + 10.0 * moved[i]), k


def ill_conditioned(rng, n, log_cond):
    """A random n-by-n matrix with singular values from 1 down to 10^-log_cond."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return u @ np.diag(np.logspace(0.0, -log_cond, n)) @ v


def vech_gradients(tm, spec):
    """The four statistics' vech gradients from the factor form, checked against the oracles'."""
    factor, fronts = mglh.mglh_derivatives(tm, spec)
    out = {k: orc.factor_jacobian(factor, front=q) for k, q in fronts.items()}
    for k, want in orc.mglh_jacobians(tm, spec).items():
        # the two terms of Gamma can cancel, so rounding scales with their magnitudes
        size = orc.factor_jacobian(np.abs(factor), front=np.abs(fronts[k]))
        assert np.abs(out[k] - want).max() <= 1e-12 * size.max(), k
    return out


class TestDerivatives:
    def _fd_all(self, tm, spec):
        def stat_map(v):
            t = AugmentedMoment(ivech(v), n_obs=tm.n_obs,
                                layout=MomentLayout.CONDITIONAL, f_dim=tm.f_dim)
            r = mglh.mglh_statistics(t, spec)
            return np.array([r.hlt, r.pbt, r.wilks, r.roy])

        return fd_jac(stat_map, vech(tm.theta))

    @pytest.mark.parametrize("dims", [(2, 2, 1, 1), (2, 2, 2, 2), (3, 2, 2, 2), (2, 3, 3, 1)])
    def test_matches_finite_differences(self, dims, rng):
        f, p, a, c = dims
        tm, _, bmat, _ = make_conditional(rng, f, p)
        spec = rand_spec(rng, f, p, a, c)
        grads = vech_gradients(tm, spec)
        fd = self._fd_all(tm, spec)
        for i, name in enumerate(mglh.STAT_NAMES):
            np.testing.assert_allclose(grads[name], fd[i], atol=1e-6,
                                       err_msg=f"gradient of {name}")

    def test_under_exact_null(self, rng):
        tm, _, bmat, _ = make_conditional(rng, 2, 2)
        spec = rand_spec(rng, 2, 2, 1, 1, null=True, bmat=bmat)
        grads = vech_gradients(tm, spec)
        fd = self._fd_all(tm, spec)
        for i, name in enumerate(mglh.STAT_NAMES):
            np.testing.assert_allclose(grads[name], fd[i], atol=1e-6)

    def test_scalar_quotient_rule(self):
        sig_f, b, sigma = 2.0, 0.7, 0.5
        theta = np.array([[sig_f, sig_f * b], [sig_f * b, sigma + b * sig_f * b]])
        tm = AugmentedMoment(theta, n_obs=50, layout=MomentLayout.CONDITIONAL, f_dim=1)
        spec = mglh.MglhSpec([[1.0]], [[1.0]], [[0.0]])
        grads = vech_gradients(tm, spec)
        fd = self._fd_all(tm, spec)
        np.testing.assert_allclose(grads["hlt"], fd[0], atol=1e-8)


class TestAsymptotic:
    def test_all_four_variances_match_monte_carlo(self):
        # the acceptance gate pins only the trace statistic; this checks
        # the other three gradients carry correct variances too
        from portinf.kernels import chol

        sig_f = np.array([[1.0, 0.2], [0.2, 1.0]])
        bmat = np.array([[0.3, 0.1], [-0.2, 0.25]])
        sigma = np.array([[1.0, 0.3], [0.3, 0.8]])
        theta_pop = np.block([[sig_f, sig_f @ bmat.T],
                              [bmat @ sig_f, sigma + bmat @ sig_f @ bmat.T]])
        t, trials = 1500, 3000
        tm_pop = AugmentedMoment(theta_pop, n_obs=t,
                                 layout=MomentLayout.CONDITIONAL, f_dim=2)
        spec = mglh.MglhSpec(np.eye(2), np.eye(2), np.zeros((2, 2)))
        factor, fronts = mglh.mglh_derivatives(tm_pop, spec)
        om = OmegaEstimate(theta_pop, t)  # mean-zero Gaussian rows
        theo = {k: om.sandwich(factor, front=q) for k, q in fronts.items()}

        rng = np.random.default_rng(31415)
        cf, cs = chol(sig_f), chol(sigma)
        vals = {k: [] for k in mglh.STAT_NAMES}
        for _ in range(6):
            zf = rng.standard_normal((trials // 6, t, 2))
            ze = rng.standard_normal((trials // 6, t, 2))
            f = zf @ cf.T
            x = f @ bmat.T + ze @ cs.T
            rows = np.concatenate([f, x], axis=2)
            thetas = np.einsum("cti,ctj->cij", rows, rows) / t
            for th in thetas:
                tm = AugmentedMoment(th, n_obs=t, layout=MomentLayout.CONDITIONAL, f_dim=2)
                r = mglh.mglh_statistics(tm, spec)
                for k in mglh.STAT_NAMES:
                    vals[k].append(r.as_dict()[k])
        for k in mglh.STAT_NAMES:
            emp = t * np.var(np.array(vals[k]), ddof=1)
            assert abs(emp - theo[k]) / theo[k] < 0.20, k

    def test_zero_omega_gives_zero_variances(self, rng):
        tm, _, _, _ = make_conditional(rng, 2, 2)
        spec = rand_spec(rng, 2, 2, 2, 2)
        om = OmegaEstimate(np.zeros((4, 4)), n_obs=100)
        _, law = mglh.mglh_asymptotic(tm, spec, om)
        assert np.all(law.covariance == 0.0)
        # one z rule for every law: a degenerate variance reads as signed infinity, flagged
        with pytest.warns(RuntimeWarning, match="signed infinity"):
            z = wald_statistics(law)
        nonzero = law.point != 0
        assert nonzero.any()
        np.testing.assert_array_equal(z[nonzero], np.sign(law.point[nonzero]) * np.inf)

    def test_variances_nonnegative(self, rng):
        tm, _, _, _ = make_conditional(rng, 2, 3)
        spec = rand_spec(rng, 2, 3, 2, 2)
        om = OmegaEstimate(rand_spd(rng, 5), n_obs=100)
        res, law = mglh.mglh_asymptotic(tm, spec, om)
        assert np.all(np.diag(law.covariance) >= 0.0)
        # the law is of the statistics less their no-effect values (0, a, 1, 0)
        nulls = [0.0, spec.n_rows, 1.0, 0.0]
        want = [res.as_dict()[k] - null for k, null in zip(mglh.STAT_NAMES, nulls)]
        np.testing.assert_array_equal(law.point, want)
