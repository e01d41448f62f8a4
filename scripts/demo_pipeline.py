#!/usr/bin/env python3
"""Walk the full inference pipeline on the shipped synthetic fixture.

Covers: plain weights with standard errors, volatility-weighted weights,
a conditional coefficient table with a robust covariance, the joint
no-effect hypothesis test, and the error-attribution split.
"""

import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from portinf import asymptotics, constraints, harness, mglh, moments  # noqa: E402

FIXTURE = ROOT / "data" / "synthetic_returns.csv"


def main():
    loaded = harness.load_csv(str(FIXTURE), ["alpha", "beta", "gamma"],
                              ["level", "delta"], date_column="date")
    values = loaded.panel.values
    print(f"loaded {values.shape[0]} rows x {values.shape[1]} assets "
          f"(+{loaded.features.shape[1]} features), dropped {loaded.n_dropped}")

    # 1. unconditional weights at a 10% risk budget
    rows = moments.augment(values)
    tm = moments.sample_theta(rows)
    om = asymptotics.omega_hac(rows)
    est = moments.sr_optimal_portfolio(tm, risk_budget=0.10, rfr=0.001,
                                       asset_names=loaded.panel.asset_names)
    dist = asymptotics.portfolio_covariance(tm, om, risk_budget=0.10)
    z = asymptotics.wald_statistics(dist)
    print("\nscaled weights (robust covariance, bandwidth "
          f"{om.bandwidth}):")
    for name, w, zi in zip(est.asset_names, est.weights, z):
        print(f"  {name:6s} {w:+8.4f}  z={zi:+6.2f}")
    print(f"  attained objective {est.objective:.4f}")

    # 2. volatility-weighted variant
    weights = harness.rolling_volatility(values)
    mask = np.isfinite(weights)
    rows_w, layout, f_dim = constraints.conditional_rows(
        values[mask], None, weights[mask], constraints.ConditionalModel.CONSTANT_SR)
    tm_w = moments.sample_theta(rows_w, layout, f_dim=f_dim)
    om_w = asymptotics.omega_hac(rows_w)
    dist_w = asymptotics.portfolio_covariance(tm_w, om_w, risk_budget=0.10)
    z_w = asymptotics.wald_statistics(dist_w)
    print("\nquietude-weighted z-scores:",
          " ".join(f"{v:+5.2f}" for v in z_w))

    # 3. conditional coefficient: lagged features predicting returns
    feats = loaded.features[:-1]
    rets = values[1:]
    rows_c, layout, f_dim = constraints.conditional_rows(
        rets, feats, None, constraints.ConditionalModel.BICONDITIONAL)
    tm_c = moments.sample_theta(rows_c, layout, f_dim=f_dim)
    om_c = asymptotics.omega_hac(rows_c)
    coef, dist_c = constraints.markowitz_coefficient(tm_c, om_c)
    z_c = asymptotics.wald_statistics(dist_c).reshape(coef.shape, order="F")
    print("\nfeature-to-weight multiplier (z-scores):")
    for i, asset in enumerate(loaded.panel.asset_names):
        cells = "  ".join(f"{coef[i, j]:+8.3f} (z={z_c[i, j]:+5.2f})"
                          for j in range(coef.shape[1]))
        print(f"  {asset:6s} {cells}")

    # 4. joint no-effect hypothesis on the coefficient
    spec = mglh.MglhSpec(np.eye(3), np.eye(2), np.zeros((3, 2)))
    res, dist_h = mglh.mglh_asymptotic(tm_c, spec, om_c)
    z_h = asymptotics.wald_statistics(dist_h)
    print("\njoint hypothesis statistics (z against no-effect values):")
    for name, z in zip(mglh.STAT_NAMES, z_h):
        print(f"  {name:6s} {res.as_dict()[name]:8.4f}  z={z:+6.2f}")

    # 5. attribution: how much weight error stems from the precision matrix
    dist_full = asymptotics.theta_inverse_covariance(tm, om)
    r2 = asymptotics.attribute_error(dist_full, values.shape[1])
    print("\nshare of weight error from precision-matrix estimation:")
    for name, v in zip(loaded.panel.asset_names, r2):
        print(f"  {name:6s} {100 * v:5.1f}%")


if __name__ == "__main__":
    main()
