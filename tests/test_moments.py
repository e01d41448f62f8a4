"""Augmented rows, the sample moment matrix, and its block inverse."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portinf import moments as mo
from portinf.errors import (
    LengthMismatch,
    NonPositiveWeight,
    SingularTheta,
    ZeroMeanVector,
)
from portinf.moments import AugmentedMoment, MomentLayout

from conftest import rand_spd, rand_unit_corner_theta, theta_from


class TestAugment:
    def test_plain_prepends_one(self):
        rows = mo.augment(np.array([[0.1, -0.2]]))
        np.testing.assert_allclose(rows, [[1.0, 0.1, -0.2]])

    def test_weight_scales_whole_row(self):
        rows = mo.augment(np.array([[0.1]]), weights=[2.0])
        np.testing.assert_allclose(rows, [[2.0, 0.2]])

    def test_features_lead_the_row(self):
        rows = mo.augment(np.array([[0.1]]), features=np.array([[1.0, 0.5]]))
        np.testing.assert_allclose(rows, [[1.0, 0.5, 0.1]])

    def test_nonpositive_weight_raises(self):
        with pytest.raises(NonPositiveWeight):
            mo.augment(np.array([[0.1]]), weights=[0.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(LengthMismatch):
            mo.augment(np.array([[0.1], [0.2]]), weights=[1.0])


class TestSampleTheta:
    def test_hand_computation(self):
        tm = mo.sample_theta(np.array([[1.0, 1.0], [1.0, -1.0]]))
        np.testing.assert_allclose(tm.theta, np.eye(2))

    def test_rank_one_rows_are_singular(self):
        rows = np.tile([1.0, 0.5], (5, 1))
        with pytest.raises(SingularTheta):
            mo.sample_theta(rows)

    def test_monte_carlo_consistency(self):
        rng = np.random.default_rng(4242)
        x = rng.standard_normal((1000, 2))
        tm = mo.sample_theta(mo.augment(x))
        assert np.abs(tm.theta - np.eye(3)).max() < 0.15

    def test_corner_is_exactly_one(self):
        rng = np.random.default_rng(7)
        tm = mo.sample_theta(mo.augment(rng.standard_normal((50, 3))))
        assert tm.theta[0, 0] == 1.0


class TestInverse:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 10_000))
    def test_cached_and_equal_to_the_direct_inverse(self, p, seed):
        tm = AugmentedMoment(rand_unit_corner_theta(np.random.default_rng(seed), p), n_obs=10)
        assert tm.inverse is tm.inverse
        want = np.linalg.inv(tm.theta)
        assert np.abs(tm.inverse - want).max() <= 1e-12 * np.abs(want).max()
        np.testing.assert_array_equal(tm.inverse, tm.inverse.T)

    def test_moment_is_frozen_and_read_only(self, rng):
        tm = AugmentedMoment(rand_unit_corner_theta(rng, 2), n_obs=10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tm.theta = np.eye(3)
        with pytest.raises(ValueError):
            tm.theta[1, 1] = 2.0
        with pytest.raises(ValueError):
            tm.inverse[1, 1] = 2.0

    def test_stack_inverse_is_each_members(self, rng):
        stack = np.stack([rand_unit_corner_theta(rng, 2) for _ in range(3)])
        tm = AugmentedMoment(stack, n_obs=10)
        assert tm.inverse is tm.inverse
        for k in range(3):
            np.testing.assert_array_equal(tm.inverse[k],
                                          AugmentedMoment(stack[k], n_obs=10).inverse)
        with pytest.raises(ValueError):
            tm.inverse[1, 1, 1] = 2.0

    def test_stack_member_below_the_gate_is_named(self, rng):
        stack = np.stack([rand_unit_corner_theta(rng, 2) for _ in range(3)])
        stack[1, 1:, 1:] = np.outer(stack[1, 1:, 0], stack[1, 1:, 0])  # Sigma = 0
        with pytest.raises(SingularTheta, match="stack member 1: eigenvalue ratio"):
            AugmentedMoment(stack, n_obs=10).inverse

    def test_non_finite_stack_member_is_rejected(self, rng):
        # the stacked LRT and mglh paths never reach the inverse, so construction gates them
        stack = np.stack([rand_unit_corner_theta(rng, 2) for _ in range(3)])
        stack[1, 2, 2] = np.inf
        with pytest.raises(SingularTheta, match="non-finite"):
            AugmentedMoment(stack, n_obs=10)

    def test_all_zero_asset_column_is_singular(self, rng):
        x = rng.standard_normal((50, 3)) * 0.05 + 0.01
        x[:, 1] = 0.0
        with pytest.raises(SingularTheta, match="all zero"):
            mo.sample_theta(mo.augment(x))

    @pytest.mark.parametrize("entry", [0.0, -1.0, np.nan])
    def test_bad_diagonal_is_singular(self, entry, rng):
        theta = rand_spd(rng, 3)
        theta[2, 2] = entry
        # a NaN entry is rejected on construction, the others by the inverse
        with pytest.raises(SingularTheta):
            AugmentedMoment(theta, n_obs=10, layout=MomentLayout.CONDITIONAL).inverse


class TestUnpack:
    def test_identity_theta(self):
        tm = AugmentedMoment(np.eye(3), n_obs=10)
        parts = mo.unpack_theta_inverse(tm)
        assert parts.snr_sq == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(parts.markowitz, [0.0, 0.0])
        np.testing.assert_allclose(parts.precision, np.eye(2))

    def test_scalar_case(self):
        tm = AugmentedMoment(np.array([[1.0, 1.0], [1.0, 2.0]]), n_obs=10)
        parts = mo.unpack_theta_inverse(tm)
        assert parts.snr_sq == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(parts.markowitz, [1.0], atol=1e-12)
        np.testing.assert_allclose(parts.precision, [[1.0]], atol=1e-12)

    def test_reassembly_matches_direct_inverse(self, rng):
        theta = rand_unit_corner_theta(rng, 3)
        tm = AugmentedMoment(theta, n_obs=10)
        parts = mo.unpack_theta_inverse(tm)
        rebuilt = np.block([
            [parts.corner, parts.neg_portfolio[None, :]],
            [parts.neg_portfolio[:, None], parts.precision],
        ])
        np.testing.assert_allclose(rebuilt, np.linalg.inv(theta), rtol=1e-10, atol=1e-12)

    def test_conditional_layout_returns_full_corner(self, rng):
        sig_f = np.array([[2.0, 0.3], [0.3, 1.5]])
        b = np.array([[0.4, -0.1], [0.2, 0.3]])
        sigma = np.array([[1.0, 0.2], [0.2, 0.8]])
        theta = np.block([[sig_f, sig_f @ b.T], [b @ sig_f, sigma + b @ sig_f @ b.T]])
        tm = AugmentedMoment(theta, n_obs=10, layout=MomentLayout.CONDITIONAL, f_dim=2)
        parts = mo.unpack_theta_inverse(tm)
        assert parts.snr_sq is None
        expect_corner = np.linalg.inv(sig_f) + b.T @ np.linalg.inv(sigma) @ b
        np.testing.assert_allclose(parts.corner, expect_corner, atol=1e-10)
        np.testing.assert_allclose(parts.markowitz, np.linalg.inv(sigma) @ b, atol=1e-10)


class TestSrOptimalPortfolio:
    def test_scalar_case(self):
        tm = AugmentedMoment(np.array([[1.0, 1.0], [1.0, 2.0]]), n_obs=10)
        est = mo.sr_optimal_portfolio(tm, risk_budget=1.0, rfr=0.25)
        np.testing.assert_allclose(est.weights, [1.0], atol=1e-12)
        assert est.objective == pytest.approx(1.0 - 0.25)

    def test_zero_mean_raises(self):
        tm = AugmentedMoment(np.eye(3), n_obs=10)
        with pytest.raises(ZeroMeanVector):
            mo.sr_optimal_portfolio(tm, risk_budget=1.0)

    def test_hand_algebra_two_assets(self):
        theta = theta_from([0.1, 0.0], np.diag([0.04, 1.0]))
        tm = AugmentedMoment(theta, n_obs=10)
        est = mo.sr_optimal_portfolio(tm, risk_budget=0.2)
        np.testing.assert_allclose(est.weights, [1.0, 0.0], atol=1e-12)

    def test_risk_budget_binds(self, rng):
        theta = rand_unit_corner_theta(rng, 3)
        tm = AugmentedMoment(theta, n_obs=10)
        mu = tm.theta[1:, 0]
        sigma = tm.theta[1:, 1:] - np.outer(mu, mu)
        est = mo.sr_optimal_portfolio(tm, risk_budget=0.7)
        assert est.weights @ sigma @ est.weights == pytest.approx(0.49, abs=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10_000))
def test_block_identity_property(p, seed):
    # unpack then reassemble always reproduces the direct inverse
    rng = np.random.default_rng(seed)
    theta = rand_unit_corner_theta(rng, p)
    tm = AugmentedMoment(theta, n_obs=10)
    parts = mo.unpack_theta_inverse(tm)
    neg = np.atleast_1d(parts.neg_portfolio)
    rebuilt = np.block([[parts.corner, neg[None, :]], [neg[:, None], parts.precision]])
    np.testing.assert_allclose(rebuilt, np.linalg.inv(theta), rtol=1e-9, atol=1e-10)


class TestScaleEquivariance:
    @pytest.mark.parametrize("c", [0.5, 2.0, 1e-6])
    def test_weights_scale_inversely_and_snr_is_invariant(self, c, rng):
        x = rng.standard_normal((200, 3)) * 0.05 + 0.01
        tm1 = mo.sample_theta(mo.augment(x))
        tm2 = mo.sample_theta(mo.augment(c * x))
        p1 = mo.unpack_theta_inverse(tm1)
        p2 = mo.unpack_theta_inverse(tm2)
        np.testing.assert_allclose(p2.markowitz, p1.markowitz / c, rtol=1e-10)
        assert p2.snr_sq == pytest.approx(p1.snr_sq, rel=1e-10)
