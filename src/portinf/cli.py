"""Command line interface.

Subcommands: infer, mglh, lrt, attribute, simulate, selftest.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings

import numpy as np

from . import asymptotics, constraints, harness, moments
from .errors import DataError, NumericalError, ParseError, PortinfError, ShapeMismatch
from .harness import RollingVolSpec
from .kernels import MatrixShape, ivech, vech_len
from .moments import check_risk_budget

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3
SQRT_HALF = math.sqrt(0.5)
P_FLOOR = 1e-300
FEATURE_LAG = 1  # rows the features trail the returns by, unless --feature-lag says
MGLH_NOTE = "normal-approximation z-scores; finite-sample laws are chi-square-like"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _split_csv_arg(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


def _parse_hac(text: str) -> tuple[str, int | None]:
    """KERNEL[:BW] as (kernel, bandwidth); only a bandwidth not below T waits for the data."""
    kernel, bw = text, None
    if ":" in text:
        kernel, bw = text.split(":", 1)
        try:
            bw = int(bw)
        except ValueError as exc:
            raise ShapeMismatch(f"bad HAC bandwidth in {text!r}") from exc
    kernel = kernel.strip().lower()
    asymptotics.check_hac(kernel, bw)
    return kernel, bw


def _load_matrix(path: str) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # an empty file reaches the shape checks as a (0, 1) matrix
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.atleast_2d(np.loadtxt(path, delimiter=",", ndmin=2))
    except OSError as exc:  # numpy's own not-found message repeats the path
        raise ParseError(f"{path}: {exc.strerror or 'not found'}") from exc
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


class _Suites:
    """simulate.SUITES, imported only when argparse checks a simulate run's suite or lists it."""

    def __iter__(self):
        from .simulate import SUITES

        return iter(SUITES)


def build_parser() -> _Parser:
    parser = _Parser(prog="portinf",
                     description="Asymptotic inference for optimal portfolios")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_opts(p, features=True, hac=True):
        p.add_argument("--input", required=True, help="CSV of per-period returns")
        p.add_argument("--assets", required=True, type=_split_csv_arg,
                       help="comma-separated asset columns")
        p.add_argument("--date-column")
        # the defaults of --features and --hac, and the values of the commands without them
        p.set_defaults(features=[], hac=None)
        if features:
            p.add_argument("--features", type=_split_csv_arg,
                           help="comma-separated feature columns")
            p.add_argument("--feature-lag", type=int,
                           help=f"rows the features trail the returns by (default {FEATURE_LAG})")
            p.add_argument("--center-features", action="store_true")
        p.add_argument("--vol-window", type=int, help="trailing window for quietude weights "
                       f"(default {RollingVolSpec.window})")
        p.add_argument("--vol-lag", type=int,
                       help=f"delay of the quietude weights (default {RollingVolSpec.lag})")
        if hac:
            p.add_argument("--hac", metavar="KERNEL[:BW]",
                           help="bartlett or parzen, optional bandwidth")
        p.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p_infer = sub.add_parser("infer", help="portfolio weights with standard errors")
    add_data_opts(p_infer)
    p_infer.add_argument("--model", choices=[m.value for m in constraints.ConditionalModel],
                         default="constant")
    p_infer.add_argument("--risk-budget", type=float)
    p_infer.add_argument("--rfr", type=float, default=0.0)

    p_mglh = sub.add_parser("mglh", help="multivariate linear hypothesis test")
    add_data_opts(p_mglh)
    p_mglh.set_defaults(model=constraints.ConditionalModel.BICONDITIONAL.value)
    p_mglh.add_argument("--A", required=True, dest="a_file", help="CSV contrast on assets")
    p_mglh.add_argument("--C", required=True, dest="c_file", help="CSV contrast on features")
    p_mglh.add_argument("--T", required=True, dest="t_file", help="CSV target matrix")

    p_lrt = sub.add_parser("lrt", help="likelihood-ratio test on trace constraints")
    add_data_opts(p_lrt, features=False, hac=False)
    p_lrt.add_argument("--constraints", required=True,
                       help="CSV, one row per constraint: vech(A) then the target")

    p_attr = sub.add_parser("attribute", help="share of weight error from the precision matrix")
    add_data_opts(p_attr, features=False)

    p_sim = sub.add_parser("simulate", help="Monte Carlo validation of the asymptotic laws")
    # without a metavar argparse would read the choices to make one, here and for every command
    p_sim.add_argument("--suite", required=True, choices=_Suites(), metavar="SUITE",
                       help="one of %(choices)s")
    p_sim.add_argument("--seed", required=True, type=int)
    p_sim.add_argument("--trials", type=int)
    p_sim.add_argument("--sample-size", type=int)

    sub.add_parser("selftest", help="quick internal consistency checks")
    return parser


def _check_data_options(args: argparse.Namespace) -> None:
    """Parse the weighting and HAC options in place and reject bad option values.

    The one judge of which options a command needs and accepts: main runs
    it before any file is read, so that a usage error is reported ahead
    of a missing or malformed input.
    """
    # either option turns the weights on; the other keeps its default
    vol_opts = {key: value for key, value in (("window", args.vol_window), ("lag", args.vol_lag))
                if value is not None}
    args.vol = RollingVolSpec(**vol_opts) if vol_opts else None
    args.hac = _parse_hac(args.hac) if args.hac else None
    if "rfr" in args:  # the portfolio options of infer
        if args.risk_budget is not None:
            check_risk_budget(args.risk_budget)
            if args.model != "constant":
                raise ShapeMismatch(f"--risk-budget requires the constant model, not {args.model}")
        if not (math.isfinite(args.rfr) and args.rfr >= 0):
            raise ShapeMismatch(f"rfr must be finite and non-negative, got {args.rfr}")
        if args.rfr and args.risk_budget is None:
            raise ShapeMismatch("a non-zero --rfr requires --risk-budget")
    if "feature_lag" in args:  # the feature options of infer and mglh
        if args.model == "biconditional" and not args.features:
            raise ShapeMismatch(f"{args.command} with the biconditional model needs --features")
        if args.model != "biconditional" and args.features:
            raise ShapeMismatch(f"--features requires the biconditional model, not {args.model}")
        if args.center_features and not args.features:
            raise ShapeMismatch("--center-features requires --features")
        if args.feature_lag is None:
            args.feature_lag = FEATURE_LAG
        elif not args.features:
            raise ShapeMismatch("--feature-lag requires --features")
        if args.feature_lag < 0:
            raise ShapeMismatch(f"feature lag must be non-negative, got {args.feature_lag}")
    if not args.assets:
        raise ShapeMismatch("--assets names no columns")
    for option, columns in (("--assets", args.assets), ("--features", args.features)):
        repeated = sorted({c for c in columns if columns.count(c) > 1})
        if repeated:
            raise ShapeMismatch(f"{option} names columns more than once: {', '.join(repeated)}")
    # an unlagged feature that is also an asset makes the moment matrix singular
    shared = sorted(set(args.assets) & set(args.features))
    if shared and args.feature_lag == 0:
        raise ShapeMismatch(f"columns both asset and unlagged feature: {', '.join(shared)}")


def _prepare(args: argparse.Namespace, vol: RollingVolSpec | None):
    """Load, weight, lag, and align the data per the run options."""
    loaded = harness.load_csv(args.input, args.assets, args.features or None, args.date_column)
    if loaded.n_dropped:
        print(f"dropped {loaded.n_dropped} rows with missing values", file=sys.stderr)
    values = loaded.panel.values
    t = values.shape[0]
    keep = np.ones(t, dtype=bool)

    weights = None
    if vol is not None:
        weights = harness.rolling_volatility(values, vol)
        keep &= np.isfinite(weights)

    features = None
    if args.features:
        lag = args.feature_lag
        features = np.full_like(loaded.features, np.nan)
        if lag:
            features[lag:] = loaded.features[:-lag]
        else:
            features = loaded.features.copy()
        keep &= np.all(np.isfinite(features), axis=1)
        # the feature model's moment has one column per feature and per asset
        left, needed = int(keep.sum()), features.shape[1] + values.shape[1]
        if left < needed:
            raise ShapeMismatch(f"feature lag {lag} leaves {left} of the {t} loaded rows, "
                                f"fewer than the {needed} the model needs")

    values = values[keep]
    if weights is not None:
        weights = weights[keep]
    if features is not None:
        features = features[keep]
        if args.center_features:
            features = features - features.mean(axis=0)
    return values, features, weights


def _omega_for(rows, hac: tuple[str, int | None] | None):
    if hac:
        kernel, bw = hac
        return asymptotics.omega_hac(rows, kernel=kernel, bandwidth=bw)
    return asymptotics.omega_vanilla(rows)


def _two_sided_p(z: float) -> float:
    """2 Phi(-|z|) = erfc(|z| / sqrt 2); a tail below P_FLOOR, subnormal or not, is 0."""
    p = math.erfc(abs(z) * SQRT_HALF)
    return 0.0 if p < P_FLOOR else p


def cmd_infer(args: argparse.Namespace) -> int:
    model = constraints.ConditionalModel(args.model)
    values, features, weights = _prepare(args, args.vol)
    rows, layout, f_dim = constraints.conditional_rows(values, features, weights, model)
    tm = moments.sample_theta(rows, layout, f_dim=f_dim)
    om = _omega_for(rows, args.hac)
    coef, dist = constraints.markowitz_coefficient(tm, om)
    z = asymptotics.wald_statistics(dist)
    se = dist.standard_errors()
    asset_names = args.assets

    meta = {
        "model": model.value,
        "n_obs": tm.n_obs,
        "omega": om.label,
    }
    tables = []
    if f_dim == 1:
        rows_out = [
            [asset_names[i], float(coef[i, 0]), float(se[i]), float(z[i]), _two_sided_p(z[i])]
            for i in range(len(asset_names))
        ]
        if args.risk_budget is not None:
            est = moments.sr_optimal_portfolio(tm, args.risk_budget, args.rfr, asset_names)
            meta["snr_sq"] = est.snr_sq
            meta["objective"] = est.objective
            port_dist = asymptotics.portfolio_covariance(tm, om, args.risk_budget)
            pse = port_dist.standard_errors()
            for i, row in enumerate(rows_out):
                row.extend([float(est.weights[i]), float(pse[i])])
            if args.rfr > 0:
                meta["snr_se"] = float(
                    np.sqrt(asymptotics.snr_variance(tm, om, args.risk_budget, args.rfr)
                            / tm.n_obs))
            cols = ["asset", "markowitz", "se", "z", "p", "scaled_weight", "scaled_se"]
        else:
            cols = ["asset", "markowitz", "se", "z", "p"]
        tables.append(harness.ReportTable("portfolio", cols, rows_out, meta))
    else:
        rows_out = []
        k = 0
        for j in range(f_dim):
            for i in range(len(asset_names)):
                rows_out.append([asset_names[i], args.features[j], float(coef[i, j]),
                                 float(se[k]), float(z[k]), _two_sided_p(z[k])])
                k += 1
        tables.append(harness.ReportTable(
            "markowitz_coefficient",
            ["asset", "feature", "coefficient", "se", "z", "p"], rows_out, meta))
    print(harness.report(tables, args.format))
    return EXIT_OK


def cmd_mglh(args: argparse.Namespace) -> int:
    from .mglh import STAT_NAMES, MglhSpec, mglh_asymptotic

    values, features, weights = _prepare(args, args.vol)
    rows, layout, f_dim = constraints.conditional_rows(
        values, features, weights, constraints.ConditionalModel.BICONDITIONAL)
    tm = moments.sample_theta(rows, layout, f_dim=f_dim)
    om = _omega_for(rows, args.hac)
    spec = MglhSpec(_load_matrix(args.a_file), _load_matrix(args.c_file),
                    _load_matrix(args.t_file))
    res, dist = mglh_asymptotic(tm, spec, om)
    z = asymptotics.wald_statistics(dist)
    se = dist.standard_errors()
    rows_out = [
        [name, res.as_dict()[name], float(se[i]), float(z[i]), _two_sided_p(z[i])]
        for i, name in enumerate(STAT_NAMES)
    ]
    meta = {"n_obs": tm.n_obs, "note": MGLH_NOTE, "omega": om.label}
    tables = [harness.ReportTable("mglh", ["statistic", "value", "se", "z", "p"],
                                  rows_out, meta)]
    print(harness.report(tables, args.format))
    return EXIT_OK


def cmd_lrt(args: argparse.Namespace) -> int:
    from . import gaussian

    values, _, weights = _prepare(args, args.vol)
    rows, layout, f_dim = constraints.conditional_rows(
        values, None, weights, constraints.ConditionalModel.CONSTANT_SR)
    tm = moments.sample_theta(rows, layout, f_dim=f_dim)
    raw = _load_matrix(args.constraints)
    width = vech_len(tm.dim) + 1
    if raw.size == 0 or raw.shape[1] != width:
        rows, fields = raw.shape if raw.size else (0, 0)
        raise ShapeMismatch(
            f"{args.constraints} has {rows} rows of {fields} fields; each constraint row "
            f"needs {width}: vech of a {tm.dim}x{tm.dim} matrix, then the target")
    mats = [ivech(row[:-1], MatrixShape.SYMMETRIC) for row in raw]
    cs = gaussian.TraceConstraintSet(mats, raw[:, -1])
    sol = gaussian.lrt_solve(tm, cs)
    meta = {"n_obs": tm.n_obs, "iterations": sol.iterations, "converged": sol.converged}
    rows_out = [["stat", sol.stat], ["dof", sol.dof],
                ["p_value", gaussian.lrt_pvalue(sol.stat, sol.dof)]]
    rows_out += [[f"lambda[{i}]", float(v)] for i, v in enumerate(sol.lam)]
    tables = [harness.ReportTable("lrt", ["quantity", "value"], rows_out, meta)]
    print(harness.report(tables, args.format))
    return EXIT_OK


def cmd_attribute(args: argparse.Namespace) -> int:
    # the vanilla column uses every row; only the weighted pass applies the weights
    spec = args.vol or RollingVolSpec()
    values, _, _ = _prepare(args, None)
    p = values.shape[1]
    wts = harness.rolling_volatility(values, spec)
    mask = np.isfinite(wts)

    def r2_for(vals, wts):
        rows, layout, f_dim = constraints.conditional_rows(
            vals, None, wts, constraints.ConditionalModel.CONSTANT_SR)
        tm = moments.sample_theta(rows, layout, f_dim=f_dim)
        om = _omega_for(rows, args.hac)
        dist = asymptotics.theta_inverse_covariance(tm, om)
        return asymptotics.attribute_error(dist, p), om.label

    vanilla, label = r2_for(values, None)
    weighted, weighted_label = r2_for(values[mask], wts[mask])
    rows_out = [
        [args.assets[i], f"{100 * vanilla[i]:.1f}%", f"{100 * weighted[i]:.1f}%"]
        for i in range(p)
    ]
    meta = {"omega": label, "vol_window": spec.window, "vol_lag": spec.lag}
    if weighted_label != label:  # a default HAC bandwidth follows each column's row count
        meta["omega_weighted"] = weighted_label
    tables = [harness.ReportTable("error_attribution",
                                  ["asset", "vanilla", "weighted"], rows_out, meta)]
    print(harness.report(tables, args.format))
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from . import simulate

    rep = simulate.simulate_suite(args.suite, args.seed, args.trials, args.sample_size)
    sys.stdout.write(rep.render())
    return EXIT_OK if rep.passed else EXIT_NUMERIC


def cmd_selftest(args: argparse.Namespace) -> int:
    from . import selftest

    ok = selftest.run(verbose=True)
    return EXIT_OK if ok else EXIT_NUMERIC


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "infer": cmd_infer,
        "mglh": cmd_mglh,
        "lrt": cmd_lrt,
        "attribute": cmd_attribute,
        "simulate": cmd_simulate,
        "selftest": cmd_selftest,
    }
    try:
        if "input" in args:  # a data command
            _check_data_options(args)
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to the null
        # device, so that the interpreter's flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except PortinfError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
