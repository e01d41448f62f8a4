"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance and runtime bound is pinned here.
"""

import time

import numpy as np
import scipy.linalg

from portinf import asymptotics as asy
from portinf import constraints as cn
from portinf import gaussian as ga
from portinf import kernels as kn
from portinf import mglh
from portinf import moments as mo
from portinf import oracles as orc
from portinf import simulate
from portinf.kernels import ivech, vech, vech_lower
from portinf.moments import AugmentedMoment, MomentLayout
from portinf.oracles import ivec

from conftest import fd_jac, rand_spd, rand_sym, rand_unit_corner_theta

SEED = 42


def announce(num, name, passed, detail=""):
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert passed, line


def scalar_itheta_grid(mu, sg):
    # closed form for the one-asset Gaussian inverse-moment covariance
    s2, s4 = sg**2, sg**4
    return np.array([
        [2 * mu**2 * (mu**2 + 2 * s2) / s4, -2 * mu * (mu**2 + s2) / s4, 2 * mu**2 / s4],
        [-2 * mu * (mu**2 + s2) / s4, (2 * mu**2 + s2) / s4, -2 * mu / s4],
        [2 * mu**2 / s4, -2 * mu / s4, 2 / s4],
    ])


def scalar_theta(mu, sg):
    return np.array([[1.0, mu], [mu, mu**2 + sg**2]])


def test_criterion_1_scalar_closed_form_grid():
    start = time.time()
    worst = 0.0
    for mu in (0.5, 1.0, 2.0):
        for sg in (0.5, 1.0, 2.0):
            tm = AugmentedMoment(scalar_theta(mu, sg), n_obs=100)
            chain = asy.theta_inverse_covariance(tm, ga.gaussian_omega(tm)).covariance
            expect = scalar_itheta_grid(mu, sg)
            worst = max(worst, np.abs(chain - expect).max())
            worst = max(worst, np.abs(orc.conjecture_itheta_cov(tm) - expect).max())
    elapsed = time.time() - start
    announce(1, "scalar inverse-moment grid + conjecture", worst < 1e-10 and elapsed < 1.0,
             f"max_abs_err={worst:.2e} runtime={elapsed:.2f}s")


def test_criterion_2_gaussian_omega_scalar_block():
    worst = 0.0
    for mu in (0.5, 1.0, 2.0):
        for sg in (0.5, 1.0, 2.0):
            tm = AugmentedMoment(scalar_theta(mu, sg), n_obs=100)
            block = ga.gaussian_omega(tm).omega[1:, 1:]
            s2 = sg**2
            expect = np.array([[s2, 2 * mu * s2], [2 * mu * s2, 4 * mu**2 * s2 + 2 * s2**2]])
            worst = max(worst, np.abs(block - expect).max())
    announce(2, "gaussian omega scalar closed form", worst < 1e-10,
             f"max_abs_err={worst:.2e}")


def test_criterion_3_theorem1_monte_carlo():
    start = time.time()
    rep = simulate.theorem1_suite(SEED, trials=5000, sample_size=2000)
    elapsed = time.time() - start
    rel = rep.checks[0].value
    announce(3, "inverse-moment covariance Monte Carlo", rep.passed and elapsed < 120.0,
             f"frobenius_rel_err={rel:.4f} runtime={elapsed:.1f}s")


def test_criterion_4_britten_jones_equivalence():
    start = time.time()
    rng = np.random.default_rng(SEED)
    t, p, trials = 1024, 5, 200
    diffs = []
    for _ in range(trials):
        a = rng.standard_normal((p, p))
        sigma = a @ a.T / p + 0.5 * np.eye(p)
        x = rng.standard_normal((t, p)) @ np.linalg.cholesky(sigma).T
        bj = orc.britten_jones(x)
        rows = mo.augment(x)
        tm = mo.sample_theta(rows)
        dist = asy.theta_inverse_covariance(tm, asy.omega_vanilla(rows))
        wald = -asy.wald_statistics(dist)[1 : p + 1]
        diffs.append(np.abs(bj - wald))
    diffs = np.array(diffs)
    elapsed = time.time() - start
    ok = diffs.mean() < 0.02 and diffs.max() < 0.10 and elapsed < 60.0
    announce(4, "regression-oracle vs Wald agreement", ok,
             f"mean_diff={diffs.mean():.4f} max_diff={diffs.max():.4f} runtime={elapsed:.1f}s")


def test_criterion_5_derivative_suite():
    start = time.time()
    rng = np.random.default_rng(SEED)
    worst = {}

    def check(name, got, want):
        err = np.abs(got - want).max()
        worst[name] = max(worst.get(name, 0.0), err)

    for i in range(20):
        n = 1 + i % 4
        spd = rand_spd(rng, n)

        check("inv_vech", kn.d_inv_vech(spd),
              fd_jac(lambda v: vech(np.linalg.inv(ivech(v))), vech(spd)))

        check("chol_vech", orc.d_chol_vech(np.linalg.cholesky(spd)),
              fd_jac(lambda v: vech_lower(np.linalg.cholesky(ivech(v))), vech(spd)))

        k = max(1, n - 1)
        j = rng.standard_normal((k, n))
        check("qform_inv", kn.d_qform_inv(j, spd),
              fd_jac(lambda v: orc.vec(np.linalg.inv(j @ ivec(v) @ j.T)), orc.vec(spd)))

        x = rng.standard_normal((n, n))
        y = rng.standard_normal((n, n))
        nn = n * n
        dx = np.hstack([np.eye(nn), np.zeros((nn, nn))])
        dy = np.hstack([np.zeros((nn, nn)), np.eye(nn)])
        joint = np.concatenate([orc.vec(x), orc.vec(y)])

        def split(v):
            return v[:nn].reshape(n, n, order="F"), v[nn:].reshape(n, n, order="F")

        check("product", orc.d_product(x, y, dx, dy),
              fd_jac(lambda v: (lambda a, b: (a @ b).reshape(-1, order="F"))(*split(v)), joint))

        check("outer_gram", orc.d_outer_gram(x, np.eye(nn)),
              fd_jac(lambda v: orc.vec(ivec(v) @ ivec(v).T), orc.vec(x)))

        check("trace_prod", orc.d_trace_prod(x, y, dx, dy)[None, :],
              fd_jac(lambda v: np.array([np.trace((lambda a, b: a @ b)(*split(v)))]), joint))

        check("det", orc.d_det(spd, np.eye(nn))[None, :],
              fd_jac(lambda v: np.array([np.linalg.det(ivec(v))]), orc.vec(spd)))

        sym = rand_sym(rng, n) + np.diag(3.0 * np.arange(n, 0, -1.0))
        check("eig", orc.d_eig(sym, 0, np.eye(nn))[None, :],
              fd_jac(lambda v: np.array([np.linalg.eigvalsh(0.5 * (ivec(v) + ivec(v).T))[-1]]),
                     orc.vec(sym)))

    elapsed = time.time() - start
    worst_err = max(worst.values())
    ok = worst_err < 1e-6 and elapsed < 30.0
    announce(5, "derivative rules vs finite differences", ok,
             f"worst_err={worst_err:.2e} over {sorted(worst)} runtime={elapsed:.1f}s")


def test_criterion_6_lrt_calibration():
    start = time.time()
    rep = simulate.lrt_suite(SEED, trials=2000, sample_size=1000)
    elapsed = time.time() - start
    detail = " ".join(f"{c.name}={c.value:.4f}" for c in rep.checks)
    announce(6, "trace-constraint LRT chi-square calibration",
             rep.passed and elapsed < 180.0, f"{detail} runtime={elapsed:.1f}s")


def _orth(rng, rows, cols):
    # random directions with unit singular values: raw Gaussian contrasts
    # can be near-singular, which destroys digits in either route before
    # any eigensolver runs
    m = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, _ = np.linalg.qr(m)
    return q.T if rows < cols else q


def test_criterion_7_mglh_route_equivalence():
    rng = np.random.default_rng(SEED)
    worst_eig, worst_null = 0.0, 0.0
    for _ in range(50):
        f = int(rng.integers(2, 4))
        p = int(rng.integers(2, 4))
        a = int(rng.integers(1, p + 1))
        c = int(rng.integers(1, f + 1))
        sig_f = rand_spd(rng, f) / f
        bmat = 0.4 * rng.standard_normal((p, f))
        sigma = rand_spd(rng, p) / p
        theta = np.block([[sig_f, sig_f @ bmat.T],
                          [bmat @ sig_f, sigma + bmat @ sig_f @ bmat.T]])
        tm = AugmentedMoment(theta, n_obs=200, layout=MomentLayout.CONDITIONAL, f_dim=f)
        amat = _orth(rng, a, p)
        cmat = _orth(rng, f, c)
        spec = mglh.MglhSpec(amat, cmat, rng.standard_normal((a, c)))
        fac = mglh._factorize(tm, spec)
        g1, g2 = fac.g1, fac.g2
        h, e = orc.mglh_he(tm, spec)
        size = max(a, c)
        # both spectra via symmetric-definite pencils, the stable route
        eig1 = scipy.linalg.eigh(g2, np.linalg.inv(g1), eigvals_only=True)
        eig2 = 1.0 + scipy.linalg.eigh(h, e, eigvals_only=True)
        pad1 = np.sort(np.concatenate([eig1, np.ones(size - c)]))
        pad2 = np.sort(np.concatenate([eig2, np.ones(size - a)]))
        # 1e-10 agreement, measured relative for roots above unit scale
        worst_eig = max(worst_eig,
                        (np.abs(pad1 - pad2) / np.maximum(1.0, np.abs(pad2))).max())

        null_spec = mglh.MglhSpec(amat, cmat, amat @ bmat @ cmat)
        res = mglh.mglh_statistics(tm, null_spec)
        worst_null = max(worst_null, abs(res.hlt), abs(res.pbt - a),
                         abs(res.wilks - 1.0), abs(res.roy))
    ok = worst_eig < 1e-10 and worst_null < 1e-10
    announce(7, "hypothesis-statistic route equivalence", ok,
             f"worst_eig_gap={worst_eig:.2e} worst_null_gap={worst_null:.2e}")


def test_criterion_8_mglh_variance_monte_carlo():
    start = time.time()
    rep = simulate.mglh_suite(SEED, trials=5000, sample_size=2000)
    elapsed = time.time() - start
    announce(8, "trace-statistic variance Monte Carlo", rep.passed and elapsed < 180.0,
             f"rel_err={rep.checks[0].value:.4f} runtime={elapsed:.1f}s")


def test_criterion_9_constraint_satisfaction():
    rng = np.random.default_rng(SEED)
    worst_hedge, worst_span, worst_chol = 0.0, 0.0, 0.0
    for _ in range(50):
        p = int(rng.integers(2, 5))
        theta = rand_unit_corner_theta(rng, p)
        tm = AugmentedMoment(theta, n_obs=300)
        om = ga.gaussian_omega(tm)
        mu = theta[1:, 0]
        sigma = theta[1:, 1:] - np.outer(mu, mu)

        g = rng.standard_normal((int(rng.integers(1, p)), p))
        point, _ = cn.hedged_delta_theta(tm, cn.SubspaceSpec(g), om)
        w = orc.hedged_weights(point, p, risk_budget=1.0)
        worst_hedge = max(worst_hedge, np.abs(g @ sigma @ w).max())

        spec = cn.SubspaceSpec(rng.standard_normal((int(rng.integers(1, p)), p)))
        point, _ = cn.subspace_theta(tm, spec, om)
        ws = orc.subspace_weights(point, p, risk_budget=1.0)
        resid = ws - spec.basket.T @ (spec.basket @ ws)
        worst_span = max(worst_span, np.abs(resid).max())

        d = p + 1
        m = d * (d + 1) // 2
        cond = AugmentedMoment(rand_spd(rng, d) / d + 0.5 * np.eye(d), n_obs=300,
                               layout=MomentLayout.CONDITIONAL, f_dim=1)
        # any omega serves: only the point is checked; the draw keeps the random stream
        om_c = asy.OmegaEstimate(rand_spd(rng, m)[:d, :d] / m, n_obs=300)
        y = vech_lower(kn.chol(cond.theta))
        n_c = int(rng.integers(1, 3))
        bmat = rng.standard_normal((n_c, m))
        target = bmat @ y + 0.02 * rng.standard_normal(n_c)
        cc = cn.CholeskyConstraint(bmat, target)
        est, _ = cn.constrained_cholesky_estimate(cond, cc, om_c)
        worst_chol = max(worst_chol,
                         np.abs(bmat @ vech_lower(kn.chol(est.theta)) - target).max())
    ok = worst_hedge < 1e-12 and worst_span < 1e-10 and worst_chol < 1e-10
    announce(9, "constraint satisfaction (hedge, span, factor)", ok,
             f"hedge={worst_hedge:.2e} span={worst_span:.2e} factor={worst_chol:.2e}")


def test_criterion_10_pipeline_on_synthetic_fixture(capsys, tmp_path):
    import pathlib
    from portinf import cli

    fixture = str(pathlib.Path(__file__).resolve().parent.parent
                  / "data" / "synthetic_returns.csv")

    code = cli.main(["attribute", "--input", fixture, "--assets", "alpha,beta,gamma"])
    out = capsys.readouterr().out
    body = [l for l in out.splitlines() if l and not l.startswith("#")]
    ok = code == 0 and body[0].split("\t") == ["asset", "vanilla", "weighted"]
    ok = ok and len(body) == 4
    for row in body[1:]:
        _, vanilla, weighted = row.split("\t")
        ok = ok and 0.0 <= float(vanilla[:-1]) <= 100.0
        ok = ok and 0.0 <= float(weighted[:-1]) <= 100.0

    code2 = cli.main(["infer", "--input", fixture, "--assets", "alpha,beta,gamma",
                      "--features", "level,delta", "--model", "biconditional",
                      "--hac", "bartlett:6"])
    out2 = capsys.readouterr().out
    body2 = [l for l in out2.splitlines() if l and not l.startswith("#")]
    ok = ok and code2 == 0 and len(body2) == 7  # header + 3 assets x 2 features

    code3 = cli.main(["infer", "--input", fixture, "--assets", "alpha,beta,gamma",
                      "--vol-window", "11", "--vol-lag", "1"])
    out3 = capsys.readouterr().out
    ok = ok and code3 == 0 and "markowitz" in out3
    with capsys.disabled():
        announce(10, "synthetic-fixture pipeline properties", ok,
                 "attribution bounded, weighted and vanilla columns, conditional table shapes")
