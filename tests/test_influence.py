"""Every estimand's gradient form against the k-by-m vech Jacobians that oracles keep.

An estimator hands `OmegaEstimate.sandwich` a factor F of the rows and a
front on x = vech(F' dtheta F) (or a block of it). A data estimate's
influence series is then the vech outer-product series of the raw rows
projected on the estimand's Jacobian, and the Gaussian trace form is that
Jacobian sandwiched with the closed-form omega.
"""

import numpy as np
import pytest

from portinf import asymptotics as asy
from portinf import constraints as cn
from portinf import gaussian as ga
from portinf import mglh
from portinf import moments as mo
from portinf import oracles as orc
from portinf.kernels import chol, d_qform_inv_vech, vech_block, vech_indices, vech_len, vech_lower

T, P, F = 240, 3, 2
HEDGE = cn.SubspaceSpec(np.array([[1.0, -0.5, 0.2]]))
BASKET = cn.SubspaceSpec(np.array([[1.0, 0.4, 0.0], [0.0, 0.3, 1.0]]))
SPEC = mglh.MglhSpec(np.eye(P - 1), np.eye(F), 0.02 * np.ones((P - 1, F)))


def _rows(layout):
    """AR(1) returns of unit scale, so theta is well conditioned, augmented or biconditional."""
    rng = np.random.default_rng(20261019)
    e = rng.standard_normal((T, P + F))
    x = np.empty_like(e)
    x[0] = e[0]
    for t in range(1, T):
        x[t] = 0.3 * x[t - 1] + e[t]
    ret = 0.3 + x[:, :P] + 0.2 * x[:, P:P + 1]
    if layout == "unconditional":
        return mo.augment(ret), mo.MomentLayout.UNCONDITIONAL, 1
    return cn.conditional_rows(ret[:, : P - 1], x[:, P:], model=cn.ConditionalModel.BICONDITIONAL)


def _cholesky_constraint(tm):
    bmat = np.eye(vech_len(tm.dim))[[1, 4]] + 0.1
    bmat[:, 0] = 0.0  # the unit corner stays 1
    return cn.CholeskyConstraint(bmat, bmat @ vech_lower(chol(tm.theta)) + 0.01)


def _first_column(tm):
    return vech_block(tm.dim, asy._FIRST_COLUMN)


# name -> (layout, estimator, its Jacobian in oracles, the influence's sign against it); the
# factor theta^-1 and projections P give x = P dtheta P, which moves against P itself
ESTIMANDS = {
    "theta_inverse": ("unconditional", asy.theta_inverse_covariance,
                      lambda tm: d_qform_inv_vech(tm.inverse), -1.0),
    "weights": ("unconditional", lambda tm, om: asy.portfolio_covariance(tm, om, 0.1),
                lambda tm: orc.portfolio_jacobian(tm, 0.1), 1.0),
    "snr": ("unconditional", lambda tm, om: asy.snr_variance(tm, om, 0.1, 0.01),
            lambda tm: orc.snr_gradient(tm, 0.1, 0.01)[None, :], 1.0),
    "first_column": ("unconditional", lambda tm, om: om.sandwich(tm.inverse, asy._FIRST_COLUMN),
                     lambda tm: d_qform_inv_vech(tm.inverse, rows=_first_column(tm)), -1.0),
    "coefficient": ("biconditional", cn.markowitz_coefficient, orc.coefficient_jacobian, -1.0),
    "subspace": ("unconditional", lambda tm, om: cn.subspace_theta(tm, BASKET, om),
                 lambda tm: orc.subspace_jacobian(tm, BASKET), -1.0),
    "hedge": ("unconditional", lambda tm, om: cn.hedged_delta_theta(tm, HEDGE, om),
              lambda tm: orc.hedge_jacobian(tm, HEDGE), 1.0),
    "cholesky": ("unconditional",
                 lambda tm, om: cn.constrained_cholesky_estimate(tm, _cholesky_constraint(tm), om),
                 lambda tm: orc.cholesky_jacobian(tm, _cholesky_constraint(tm)), 1.0),
    "reduced_rank": ("biconditional", lambda tm, om: cn.reduced_rank_coefficient(tm, 2, om),
                     lambda tm: orc.reduced_rank_jacobian(tm, 2), 1.0),
    "mglh": ("biconditional", lambda tm, om: mglh.mglh_asymptotic(tm, SPEC, om),
             lambda tm: np.stack([orc.mglh_jacobians(tm, SPEC)[k] for k in mglh.STAT_NAMES]), 1.0),
}


def _forms(estimator, tm, om):
    """The gradient forms the estimator gives the sandwich, and what the sandwich returned."""
    calls = []
    sandwich = om.sandwich

    def spy(factor, block=None, front=None):
        calls.append(((factor, block, front), sandwich(factor, block, front)))
        return calls[-1][1]

    om.sandwich = spy
    estimator(tm, om)
    del om.sandwich
    assert len(calls) == 1
    return calls[0]


@pytest.mark.parametrize("name", sorted(ESTIMANDS))
@pytest.mark.parametrize("estimator", ["vanilla", "bartlett", "parzen"])
def test_influence_is_the_series_through_the_jacobian(estimator, name):
    layout, run, jacobian, sign = ESTIMANDS[name]
    rows, kind, f_dim = _rows(layout)
    tm = mo.sample_theta(rows, kind, f_dim=f_dim)
    om = (asy.omega_vanilla(rows) if estimator == "vanilla"
          else asy.omega_hac(rows, kernel=estimator, bandwidth=5))
    form, cov = _forms(run, tm, om)
    jac = np.atleast_2d(jacobian(tm))
    want = sign * om.series @ jac.T
    # the series rounds with its uncentered products, and so does its projection
    i, j = vech_indices(rows.shape[1])
    scale = (np.abs(rows[:, i] * rows[:, j]) @ np.abs(jac).T).max()
    assert np.abs(om.influence(*form) - want).max() <= 1e-12 * scale
    want_cov = om._long_run(want)
    assert np.abs(np.atleast_2d(cov) - want_cov).max() <= 1e-10 * np.abs(want_cov).max()


@pytest.mark.parametrize("name", sorted(ESTIMANDS))
def test_gaussian_trace_form_is_the_jacobian_sandwich(name):
    layout, run, jacobian, _ = ESTIMANDS[name]
    rows, kind, f_dim = _rows(layout)
    tm = mo.sample_theta(rows, kind, f_dim=f_dim)
    assert np.linalg.cond(tm.theta) < 1e3
    om = (ga.gaussian_omega(tm) if layout == "unconditional"
          else asy.OmegaEstimate(tm.theta, tm.n_obs))  # mean-zero Gaussian rows
    _, cov = _forms(run, tm, om)
    jac = np.atleast_2d(jacobian(tm))
    want = jac @ om.omega @ jac.T
    assert np.abs(np.atleast_2d(cov) - want).max() <= 1e-12 * np.abs(want).max()
