"""The paper's equivariances as property tests: scaling returns or features, permuting assets,
and the identity of the unit corner."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from portinf import asymptotics as asy
from portinf import constraints as cn
from portinf import moments as mo

RISK_BUDGET, RFR = 0.1, 0.001
OMEGAS = {"vanilla": asy.omega_vanilla, "bartlett": lambda rows: asy.omega_hac(rows, "bartlett"),
          "parzen": lambda rows: asy.omega_hac(rows, "parzen")}


def one_factor_panel(seed, t, p):
    """T x p returns with a common factor and positive mean returns."""
    rng = np.random.default_rng(seed)
    factor = 0.01 + 0.04 * rng.standard_normal((t, 1))
    noise = rng.standard_normal((t, p)) * rng.uniform(0.02, 0.05, p)
    return 0.005 + factor * rng.uniform(0.3, 1.2, p) + noise


def quantities(values, omega):
    """Every reported quantity of one panel; 'weights' and 'weight_se' carry units."""
    rows = mo.augment(values)
    tm = mo.sample_theta(rows)
    om = OMEGAS[omega](rows)
    est = mo.sr_optimal_portfolio(tm, RISK_BUDGET, RFR)
    wdist = asy.portfolio_covariance(tm, om, RISK_BUDGET)
    _, cdist = cn.markowitz_coefficient(tm, om)
    return {
        "snr_sq": np.array([est.snr_sq]),
        "weights": est.weights,
        "weight_se": wdist.standard_errors(),
        "weight_z": asy.wald_statistics(wdist),
        "coef_z": asy.wald_statistics(cdist),
        "snr_variance": np.array([asy.snr_variance(tm, om, RISK_BUDGET, RFR)]),
        "attribution": asy.attribute_error(asy.theta_inverse_covariance(tm, om),
                                           values.shape[1]),
    }


def assert_close(got, want, rtol=1e-9):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


panels = dict(seed=st.integers(0, 2**32 - 1), t=st.integers(60, 240), p=st.integers(1, 4),
              omega=st.sampled_from(sorted(OMEGAS)))


@settings(max_examples=40, deadline=None)
@given(log_c=st.floats(-12.0, 3.0), **panels)
def test_scaling_returns(log_c, seed, t, p, omega):
    # returns in other units: weights and their SEs scale by 1/c, all else is unit-free
    c = 10.0**log_c
    x = one_factor_panel(seed, t, p)
    base, scaled = quantities(x, omega), quantities(c * x, omega)
    for name, want in base.items():
        got = c * scaled[name] if name in ("weights", "weight_se") else scaled[name]
        assert_close(got, want)


@settings(max_examples=30, deadline=None)
@given(log_c=st.floats(-2.0, 20.0), seed=st.integers(0, 2**32 - 1), t=st.integers(60, 400),
       p=st.integers(1, 8), omega=st.sampled_from(sorted(OMEGAS)))
def test_attribution_is_unit_free(log_c, seed, t, p, omega):
    # the m-by-m omega spans c^0 to c^4, and the HAC estimates' PSD clip must not see the units
    x = one_factor_panel(seed, t, p)

    def attribution(values):
        rows = mo.augment(values)
        dist = asy.theta_inverse_covariance(mo.sample_theta(rows), OMEGAS[omega](rows))
        return asy.attribute_error(dist, p)

    assert_close(attribution(10.0**log_c * x), attribution(x))


@settings(max_examples=30, deadline=None)
@given(**panels)
def test_permuting_assets(seed, t, p, omega):
    x = one_factor_panel(seed, t, p)
    perm = np.random.default_rng(seed).permutation(p)
    base, permuted = quantities(x, omega), quantities(x[:, perm], omega)
    assert_close(permuted["snr_sq"], base["snr_sq"])
    for name in ("weights", "weight_se", "weight_z", "coef_z"):
        assert_close(permuted[name], base[name][perm])


def coefficient_law(values, features, omega):
    """The biconditional Markowitz coefficient, column-major, and its z-scores."""
    rows, layout, f_dim = cn.conditional_rows(values, features,
                                              model=cn.ConditionalModel.BICONDITIONAL)
    coef, dist = cn.markowitz_coefficient(mo.sample_theta(rows, layout, f_dim=f_dim),
                                          OMEGAS[omega](rows))
    return coef.reshape(-1, order="F"), asy.wald_statistics(dist)


@settings(max_examples=40, deadline=None)
@given(log_c=st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3), f=st.integers(1, 3),
       **panels)
def test_scaling_features(log_c, f, seed, t, p, omega):
    # each feature in its own units, z D for D = diag(c_j): theta^-1's feature
    # column j scales by 1/c_j, so the coefficient's column j does, and its
    # standard errors with it
    c = 10.0 ** np.array(log_c[:f])
    x = one_factor_panel(seed, t, p)
    z = np.random.default_rng(seed).standard_normal((t, f)) + 0.5
    base, scaled = coefficient_law(x, z, omega), coefficient_law(x, z * c, omega)
    assert_close(scaled[0] * np.repeat(c, p), base[0])  # column-major: c_j on column j's p rows
    assert_close(scaled[1], base[1])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.integers(60, 240), p=st.integers(1, 4))
def test_unit_corner_is_one_plus_the_squared_sharpe(seed, t, p):
    # the paper's block inverse: the corner of theta^-1 is 1 + mu' Sigma^-1 mu
    # for the divisor-T mean and covariance of the returns
    x = one_factor_panel(seed, t, p)
    tm = mo.sample_theta(mo.augment(x))
    mu = x.mean(axis=0)
    zeta_sq = mu @ np.linalg.solve(np.cov(x, rowvar=False, bias=True).reshape(p, p), mu)
    assert abs(tm.inverse[0, 0] - (1.0 + zeta_sq)) <= 1e-12 * (1.0 + zeta_sq)
    assert abs(mo.unpack_theta_inverse(tm).snr_sq - zeta_sq) <= 1e-9 * zeta_sq
