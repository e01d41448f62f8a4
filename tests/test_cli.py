"""End-to-end command line behavior on the shipped fixture."""

import ast
import contextlib
import decimal
import io
import json
import logging
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from portinf import cli
from portinf.kernels import MatrixShape, ivech

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = str(ROOT / "data" / "synthetic_returns.csv")
SRC = ROOT / "src" / "portinf"
ASSETS = "alpha,beta,gamma"


def run(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInfer:
    def test_tsv_output(self, capsys):
        code, out, _ = run(capsys, "infer", "--input", FIXTURE, "--assets", ASSETS,
                           "--risk-budget", "0.1")
        assert code == 0
        assert "asset\tmarkowitz\tse\tz\tp\tscaled_weight\tscaled_se" in out
        assert out.count("\n") >= 5

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "infer", "--input", FIXTURE, "--assets", ASSETS,
                           "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert parsed[0]["title"] == "portfolio"
        assert len(parsed[0]["rows"]) == 3

    def test_unweighted_equals_unit_weight_constant_model(self, capsys, tmp_path):
        # constant-model weights of one must not change a single byte
        src = pathlib.Path(FIXTURE)
        _, plain, _ = run(capsys, "infer", "--input", str(src), "--assets", ASSETS)
        _, weighted, _ = run(capsys, "infer", "--input", str(src), "--assets", ASSETS,
                             "--model", "constant")
        assert plain == weighted

    def test_biconditional_table_shape(self, capsys):
        code, out, _ = run(capsys, "infer", "--input", FIXTURE, "--assets", ASSETS,
                           "--features", "level,delta", "--model", "biconditional")
        assert code == 0
        body = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert body[0].split("\t") == ["asset", "feature", "coefficient", "se", "z", "p"]
        assert len(body) == 1 + 6

    def test_hac_flag_reported(self, capsys):
        code, out, _ = run(capsys, "infer", "--input", FIXTURE, "--assets", ASSETS,
                           "--hac", "parzen:4")
        assert code == 0
        assert "omega=hac:parzen:4" in out

    def test_features_without_biconditional_is_usage_error(self, capsys):
        code, _, err = run(capsys, "infer", "--input", FIXTURE, "--assets", ASSETS,
                           "--features", "level,delta", "--model", "constant")
        assert code == 1
        assert "biconditional" in err

    def test_vol_weighting_runs(self, capsys):
        code, out, _ = run(capsys, "infer", "--input", FIXTURE, "--assets", ASSETS,
                           "--vol-window", "11", "--vol-lag", "1", "--model", "floating")
        assert code == 0
        assert "model=floating" in out


def scaled_fixture(tmp_path, scale, fixed_column=None, fixed="0"):
    """The fixture with its asset columns scaled, and optionally one of them fixed (at 0)."""
    lines = pathlib.Path(FIXTURE).read_text().splitlines()
    header = lines[0].split(",")
    assets = [header.index(a) for a in ASSETS.split(",")]
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        for i in assets:
            if cells[i]:
                cells[i] = fixed if header[i] == fixed_column else repr(scale * float(cells[i]))
        out.append(",".join(cells))
    path = tmp_path / "returns.csv"
    path.write_text("\n".join(out) + "\n")
    return str(path)


def zero_run_fixture(tmp_path):
    """The fixture with every asset return zero over the 15 rows 20..34."""
    lines = pathlib.Path(FIXTURE).read_text().splitlines()
    header = lines[0].split(",")
    assets = [header.index(a) for a in ASSETS.split(",")]
    for row in range(20, 35):
        cells = lines[1 + row].split(",")
        for i in assets:
            cells[i] = "0"
        lines[1 + row] = ",".join(cells)
    path = tmp_path / "zero_run.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def body_rows(out):
    return [l.split("\t") for l in out.splitlines() if l and not l.startswith("#")][1:]


class TestUnits:
    def test_scaled_returns_give_the_same_z_scores(self, capsys, tmp_path):
        args = ["--assets", ASSETS, "--risk-budget", "0.1", "--rfr", "0.001", "--hac", "bartlett"]
        code, plain, _ = run(capsys, "infer", "--input", FIXTURE, *args)
        assert code == 0
        code, scaled, _ = run(capsys, "infer", "--input", scaled_fixture(tmp_path, 1e-8), *args)
        assert code == 0
        for a, b in zip(body_rows(plain), body_rows(scaled)):
            assert float(b[3]) == pytest.approx(float(a[3]), rel=1e-5)
            assert 1e-8 * float(b[5]) == pytest.approx(float(a[5]), rel=1e-5)

    @pytest.mark.parametrize("args", [
        ["--risk-budget", "0.1", "--rfr", "0.001"],
        ["--hac", "bartlett"],
        ["--hac", "parzen:4"],
        ["--model", "biconditional", "--features", "level,delta"],
    ], ids=["vanilla", "bartlett", "parzen", "biconditional"])
    def test_percent_returns_print_the_same_z_and_p(self, capsys, tmp_path, args):
        _, plain, _ = run(capsys, "infer", "--input", FIXTURE, "--assets", ASSETS, *args)
        code, percent, _ = run(capsys, "infer", "--input", scaled_fixture(tmp_path, 100.0),
                               "--assets", ASSETS, *args)
        assert code == 0
        header = [l for l in plain.splitlines() if l and not l.startswith("#")][0].split("\t")
        cols = [header.index("z"), header.index("p")]
        got, want = body_rows(percent), body_rows(plain)
        assert len(got) == len(want) > 0
        for a, b in zip(want, got):
            # six printed digits: a value may round across one unit of the last
            assert [float(b[i]) for i in cols] == pytest.approx([float(a[i]) for i in cols],
                                                                rel=1e-5)

    def test_all_zero_asset_column_is_a_numerical_failure(self, capsys, tmp_path):
        path = scaled_fixture(tmp_path, 1.0, fixed_column="beta")
        code, _, err = run(capsys, "infer", "--input", path, "--assets", ASSETS)
        assert code == 3
        assert "numerical failure" in err and "all zero" in err


class TestAssetOrder:
    @pytest.mark.parametrize("args", [
        ["--risk-budget", "0.1", "--rfr", "0.001"],
        ["--hac", "bartlett"],
        ["--model", "biconditional", "--features", "level,delta"],
    ], ids=["vanilla", "bartlett", "biconditional"])
    @pytest.mark.parametrize("order", ["gamma,alpha,beta", "beta,gamma,alpha", "alpha,gamma,beta"])
    def test_permuting_assets_permutes_the_rows(self, capsys, args, order):
        _, plain, _ = run(capsys, "infer", "--input", FIXTURE, "--assets", ASSETS, *args)
        code, permuted, _ = run(capsys, "infer", "--input", FIXTURE, "--assets", order, *args)
        assert code == 0
        want, got = body_rows(plain), body_rows(permuted)
        # rows run over the assets in the given order (within each feature)
        assert [row[0] for row in got] == order.split(",") * (len(got) // 3)
        labels = 2 if "--features" in args else 1   # asset, and feature if any
        by_label = {tuple(row[:labels]): row[labels:] for row in want}
        assert len(got) == len(by_label)
        for row in got:
            # six printed digits: a value may round across one unit of the last
            assert [float(c) for c in row[labels:]] == pytest.approx(
                [float(c) for c in by_label[tuple(row[:labels])]], rel=1e-5)


class TestMglhCommand:
    def test_full_hypothesis(self, capsys, tmp_path):
        a = tmp_path / "A.csv"
        c = tmp_path / "C.csv"
        t = tmp_path / "T.csv"
        np.savetxt(a, np.eye(3), delimiter=",")
        np.savetxt(c, np.eye(2), delimiter=",")
        np.savetxt(t, np.zeros((3, 2)), delimiter=",")
        code, out, _ = run(capsys, "mglh", "--input", FIXTURE, "--assets", ASSETS,
                           "--features", "level,delta",
                           "--A", str(a), "--C", str(c), "--T", str(t))
        assert code == 0
        body = [l for l in out.splitlines() if l and not l.startswith("#")]
        stats = {row.split("\t")[0] for row in body[1:]}
        assert stats == {"hlt", "pbt", "wilks", "roy"}
        assert "# note=normal-approximation" in out

    def test_hac_label_names_kernel_and_bandwidth(self, capsys, tmp_path):
        paths = []
        for name, arr in (("A", np.eye(3)[:2]), ("C", np.eye(2)), ("T", np.zeros((2, 2)))):
            np.savetxt(tmp_path / f"{name}.csv", arr, delimiter=",")
            paths += [f"--{name}", str(tmp_path / f"{name}.csv")]
        code, out, _ = run(capsys, "mglh", "--input", FIXTURE, "--assets", ASSETS,
                           "--features", "level,delta", "--hac", "bartlett", *paths)
        assert code == 0
        assert "# omega=hac:bartlett:8\n" in out     # floor(1.2 * 359^(1/3))

    def test_indefinite_contrast_quadratic_is_a_numerical_failure(self, tmp_path):
        # a feature in units 1e9 times the other's leaves C' inv(feature gram) C
        # indefinite after rounding for a mixing C: the run must end with exit 3
        rng = np.random.default_rng(0)
        f = rng.standard_normal((600, 2))
        ret = (0.01 + 0.01 * f @ np.array([[0.3, 0.1], [-0.2, 0.25]]).T
               + 0.02 * rng.standard_normal((600, 2)))
        np.savetxt(tmp_path / "returns.csv", np.column_stack([ret, f[:, 0], 1e9 * f[:, 1]]),
                   delimiter=",", header="a,b,level,delta", comments="")
        for name, arr in (("A", np.eye(2)), ("C", [[1.0, 1.0], [1.0, -1.0]]),
                          ("T", np.zeros((2, 2)))):
            np.savetxt(tmp_path / f"{name}.csv", arr, delimiter=",")
        out = subprocess.run(
            [sys.executable, "-m", "portinf.cli", "mglh", "--input", "returns.csv",
             "--assets", "a,b", "--features", "level,delta",
             "--A", "A.csv", "--C", "C.csv", "--T", "T.csv"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert out.returncode == 3
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith("numerical failure: ")

    @pytest.mark.parametrize("a,c,t", [(np.ones((4, 3)), np.eye(2), np.zeros((4, 2))),
                                       (None, None, None)], ids=["A_4x3", "all_empty"])
    def test_bad_contrast_is_usage_error(self, capsys, tmp_path, a, c, t):
        paths = []
        for name, arr in (("A", a), ("C", c), ("T", t)):
            path = tmp_path / f"{name}.csv"
            if arr is None:
                path.write_text("")
            else:
                np.savetxt(path, arr, delimiter=",")
            paths += [f"--{name}", str(path)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")     # loadtxt warns on an empty file
            code, _, err = run(capsys, "mglh", "--input", FIXTURE, "--assets", ASSETS,
                               "--features", "level,delta", *paths)
        assert code == 1
        assert "usage error" in err and "more rows than columns" in err


@pytest.mark.parametrize("command,text", [pytest.param("mglh", "", id="mglh"),
                                          pytest.param("lrt", "", id="lrt"),
                                          pytest.param("lrt", "# a comment only\n",
                                                       id="lrt-comment-only")])
def test_empty_matrix_file_prints_only_the_usage_error(capsys, tmp_path, command, text):
    empty = tmp_path / "empty.csv"
    empty.write_text(text)
    files = (["--features", "level,delta", "--A", str(empty), "--C", str(empty),
              "--T", str(empty)] if command == "mglh" else ["--constraints", str(empty)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, command, "--input", FIXTURE, "--assets", ASSETS, *files)
    assert code == 1
    assert not caught
    assert "UserWarning" not in err
    assert err.startswith("usage error") and err.count("\n") == 1
    if command == "lrt":
        assert f"{empty} has 0 rows of 0 fields" in err and "needs 11" in err


class TestLrtCommand:
    def test_satisfied_constraint_gives_unit_pvalue(self, capsys, tmp_path):
        from portinf import harness, moments
        loaded = harness.load_csv(FIXTURE, ASSETS.split(","))
        tm = moments.sample_theta(moments.augment(loaded.panel.values))
        inv = np.linalg.inv(tm.theta)
        row = np.zeros(11)
        row[4] = 1.0           # vech coordinate of the (1,1) inverse entry
        row[-1] = inv[1, 1]
        path = tmp_path / "cons.csv"
        np.savetxt(path, row[None, :], delimiter=",")
        code, out, _ = run(capsys, "lrt", "--input", FIXTURE, "--assets", ASSETS,
                           "--constraints", str(path))
        assert code == 0
        values = dict(l.split("\t") for l in out.splitlines()
                      if l and not l.startswith("#") and "\t" in l)
        assert float(values["stat"]) == pytest.approx(0.0, abs=1e-6)
        assert float(values["p_value"]) == pytest.approx(1.0, abs=1e-3)


    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
    # the statistic from the basis multipliers, not from the lam it reports, was 2.7e-13 off
    @example(count=2, unit_rows=True, seed=31690)
    def test_json_stat_matches_the_exact_value(self, count, unit_rows, seed):
        # constraint sets near the sample values, as the benchmark writes them: unit
        # vech coordinates or dense symmetric matrices, targets within 5%
        from portinf import harness, moments
        rng = np.random.default_rng(seed)
        loaded = harness.load_csv(FIXTURE, ASSETS.split(","))
        tm = moments.sample_theta(moments.augment(loaded.panel.values))
        rows = np.zeros((count, 11))
        if unit_rows:
            rows[np.arange(count), rng.choice(10, count, replace=False)] = 1.0
        else:
            rows[:, :-1] = rng.standard_normal((count, 10))
        mats = [ivech(row[:-1], MatrixShape.SYMMETRIC) for row in rows]
        inv = np.linalg.inv(tm.theta)
        rows[:, -1] = [np.sum(a * inv) * (1.0 + 0.05 * rng.uniform(-1, 1)) for a in mats]
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "cons.csv")
            np.savetxt(path, rows, delimiter=",")
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["lrt", "--input", FIXTURE, "--assets", ASSETS,
                                 "--constraints", path, "--format", "json"])
        assume(code == 0)
        values = dict(json.loads(out.getvalue())[0]["rows"])
        lam = [values[f"lambda[{i}]"] for i in range(count)]
        want = exact_lrt_stat(tm.theta, mats, lam, tm.n_obs)
        assert abs(values["stat"] - want) <= 1e-13 * want


def fraction_det(a):
    """Exact determinant of a matrix of Fractions, by Gaussian elimination."""
    a, det = [list(row) for row in a], Fraction(1)
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot], det = a[pivot], a[c], -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def exact_lrt_stat(theta, mats, lam, n_obs):
    """n (log det theta0 - log det theta + tr(theta0^-1 theta) - d), theta0 = theta - sum lam_i A_i.

    Exact rationals from the float inputs; the trace by Cramer's rule; one
    50-digit decimal log of the determinant ratio.
    """
    d = len(theta)
    th = [[Fraction(x) for x in row] for row in theta]
    t0 = [[th[i][j] - sum(Fraction(l) * Fraction(a[i, j]) for l, a in zip(lam, mats))
           for j in range(d)] for i in range(d)]
    det0, det1 = fraction_det(t0), fraction_det(th)
    # tr(theta0^-1 theta): column i of theta put in column i of theta0
    trace = sum(fraction_det([row[:i] + [th[r][i]] + row[i + 1:] for r, row in enumerate(t0)])
                for i in range(d)) / det0
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        ratio = Decimal((det0 / det1).numerator) / Decimal((det0 / det1).denominator)
        rest = Decimal((trace - d).numerator) / Decimal((trace - d).denominator)
        return float(n_obs * (ratio.ln() + rest))


class TestAttributeCommand:
    def test_paper_shaped_table(self, capsys):
        code, out, _ = run(capsys, "attribute", "--input", FIXTURE, "--assets", ASSETS)
        assert code == 0
        body = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert body[0].split("\t") == ["asset", "vanilla", "weighted"]
        assert len(body) == 4
        for row in body[1:]:
            _, vanilla, weighted = row.split("\t")
            assert vanilla.endswith("%") and weighted.endswith("%")
            assert 0.0 <= float(vanilla[:-1]) <= 100.0
            assert 0.0 <= float(weighted[:-1]) <= 100.0


    @pytest.mark.parametrize("args,labels", [
        ([], ["omega=vanilla"]),
        (["--hac", "bartlett:5"], ["omega=hac:bartlett:5"]),
        # 290 weighted rows take a default bandwidth of 7, the 360 rows of the other column 8
        (["--hac", "bartlett", "--vol-window", "70"],
         ["omega=hac:bartlett:8", "omega_weighted=hac:bartlett:7"]),
    ], ids=["vanilla", "hac", "hac_default_bandwidths_differ"])
    def test_names_its_omega(self, capsys, args, labels):
        code, out, _ = run(capsys, "attribute", "--input", FIXTURE, "--assets", ASSETS, *args)
        assert code == 0
        assert [line[2:] for line in out.splitlines() if line.startswith("# omega")] == labels

    def test_zero_volatility_window_ends_before_any_estimate(self, capsys, tmp_path,
                                                             monkeypatch):
        from portinf import asymptotics
        calls = []
        original = asymptotics.attribute_error
        monkeypatch.setattr(asymptotics, "attribute_error",
                            lambda *a: calls.append(a) or original(*a))
        code, _, err = run(capsys, "attribute", "--input", zero_run_fixture(tmp_path),
                           "--assets", ASSETS)
        assert code == 2 and err.startswith("data error: volatility window")
        assert calls == []

    def test_hac_rounding_is_clipped_silently(self, capsys, caplog):
        # the inverse-moment covariance is singular, so its smallest
        # eigenvalue is rounding that the clip absorbs without a warning
        with caplog.at_level(logging.WARNING, logger="portinf.asymptotics"):
            code, _, _ = run(capsys, "attribute", "--input", FIXTURE, "--assets", ASSETS,
                             "--hac", "bartlett:5")
        assert code == 0
        assert caplog.records == []


def _imports(node, in_functions=False):
    """Modules a syntax tree imports, relative ones as portinf.<name>.

    Statements inside function bodies count only with in_functions.
    """
    if not in_functions and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return
    if isinstance(node, ast.Import):
        yield from (alias.name for alias in node.names)
    elif isinstance(node, ast.ImportFrom):
        base = "portinf" + (f".{node.module}" if node.module else "") if node.level else node.module
        yield base
        yield from (f"{base}.{alias.name}" for alias in node.names)
    for child in ast.iter_child_nodes(node):
        yield from _imports(child, in_functions)


def _last_line_printed(code):
    """The last line a fresh interpreter prints running code on the checkout's sources."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    return out.stdout.strip().splitlines()[-1]


def _printed_after_cli_import(expr):
    """What a fresh interpreter prints for expr after `import sys, portinf.cli`."""
    return _last_line_printed(f"import sys, portinf.cli; print({expr})")


# the modules of one command each, and json of --format json only
COMMAND_MODULES = ("json", "portinf.gaussian", "portinf.mglh", "portinf.simulate")


class TestStartup:
    def test_cli_import_leaves_out_scipy_stats(self):
        assert _printed_after_cli_import("'scipy.stats' in sys.modules") == "False"

    def test_cli_import_leaves_out_scipy(self):
        assert _printed_after_cli_import(
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')") == "[]"

    def test_cli_import_leaves_out_oracles(self):
        assert _printed_after_cli_import("'portinf.oracles' in sys.modules") == "False"

    def test_no_module_imports_scipy_at_import_time(self):
        """scipy is a test dependency only: no statement that runs on import may load it."""
        found = {path.name: name for path in sorted(SRC.glob("*.py"))
                 for name in _imports(ast.parse(path.read_text()))
                 if name.split(".")[0] == "scipy"}
        assert found == {}

    @pytest.mark.parametrize("command, loads", [
        (None, []), ("infer", []), ("attribute", []),
        ("lrt", ["portinf.gaussian"]), ("mglh", ["portinf.mglh"]),
    ])
    def test_each_command_loads_only_its_modules(self, tmp_path, command, loads):
        data = ["--input", FIXTURE, "--assets", ASSETS]
        if command == "lrt":
            from portinf import harness, moments
            loaded = harness.load_csv(FIXTURE, ASSETS.split(","))
            tm = moments.sample_theta(moments.augment(loaded.panel.values))
            row = np.zeros(11)
            row[4] = 1.0  # the (1,1) entry of the inverse moment, at its sample value
            row[-1] = np.linalg.inv(tm.theta)[1, 1]
            np.savetxt(tmp_path / "cons.csv", row[None, :], delimiter=",")
            data += ["--constraints", str(tmp_path / "cons.csv")]
        if command == "mglh":
            for name, m in (("A", np.eye(3)[:2]), ("C", np.eye(2)), ("T", np.zeros((2, 2)))):
                np.savetxt(tmp_path / f"{name}.csv", m, delimiter=",")
                data += [f"--{name}", str(tmp_path / f"{name}.csv")]
            data += ["--features", "level,delta"]
        run_it = f"code = portinf.cli.main({[command, *data]!r}); " if command else "code = 0; "
        printed = _last_line_printed(
            f"import sys, portinf.cli; {run_it}"
            f"print(code, sorted(set({COMMAND_MODULES!r}) & set(sys.modules)))")
        assert printed == f"0 {loads}"

    def test_package_import_loads_no_module(self):
        printed = _last_line_printed(
            "import sys, portinf; before = sorted(m for m in sys.modules if '.' in m "
            "and m.startswith('portinf')); portinf.gaussian.lrt_solve; "
            "print(before, 'portinf.gaussian' in sys.modules)")
        assert printed == "[] True"

    def test_package_reads_only_its_modules(self):
        import portinf
        assert portinf._SUBMODULES == {path.stem for path in SRC.glob("*.py")} - {"__init__"}
        with pytest.raises(AttributeError, match="no_such_module"):
            portinf.no_such_module
        assert not hasattr(portinf, "sample_theta")

    def test_no_command_module_is_imported_at_module_level(self):
        """cli and the package import the modules of lrt, mglh and simulate only when run."""
        found = {name: module for name in ("cli.py", "__init__.py")
                 for module in _imports(ast.parse((SRC / name).read_text()))
                 if module.split(".")[:2] in (["portinf", "gaussian"], ["portinf", "mglh"],
                                              ["portinf", "simulate"])}
        assert found == {}

    def test_only_selftest_imports_oracles(self):
        """The reference code stays off every production path, function bodies included."""
        found = {path.name: name for path in sorted(SRC.glob("*.py"))
                 for name in _imports(ast.parse(path.read_text()), in_functions=True)
                 if name == "portinf.oracles" and path.name != "selftest.py"}
        assert found == {}
        assert "portinf.oracles" in set(_imports(ast.parse((SRC / "selftest.py").read_text())))


class TestClosedPipe:
    @pytest.mark.parametrize("args", [
        ["infer", "--input", FIXTURE, "--assets", "alpha,beta", "--risk-budget", "0.1"],
        ["simulate", "--suite", "lrt", "--seed", "1", "--trials", "10", "--sample-size", "50"],
    ], ids=["infer", "simulate"])
    def test_closed_stdout_ends_quietly(self, args):
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the child writes
        try:
            out = subprocess.run([sys.executable, "-m", "portinf.cli", *args], stdout=write_end,
                                 stderr=subprocess.PIPE, text=True, timeout=120,
                                 env={**os.environ, "PYTHONPATH": src})
        finally:
            os.close(write_end)
        assert "Traceback" not in out.stderr and "BrokenPipe" not in out.stderr
        assert out.returncode == 0


class TestDemoScript:
    def test_demo_pipeline_runs(self):
        out = subprocess.run([sys.executable, str(ROOT / "scripts" / "demo_pipeline.py")],
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert "share of weight error from precision-matrix estimation" in out.stdout
        # the mglh z-scores, read off the statistics' law by wald_statistics
        lines = out.stdout.split("joint hypothesis statistics")[1].splitlines()[1:5]
        assert [line.split()[0] for line in lines] == ["hlt", "pbt", "wilks", "roy"]
        assert all(np.isfinite(float(line.split("z=")[1])) for line in lines)


class TestSimulateCommand:
    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, "simulate", "--suite", "gaussian", "--seed", "3",
                             "--trials", "1500", "--sample-size", "300")
        code2, out2, _ = run(capsys, "simulate", "--suite", "gaussian", "--seed", "3",
                             "--trials", "1500", "--sample-size", "300")
        assert code1 == code2 == 0
        assert out1 == out2
        assert "result=PASS" in out1


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        assert cli.main(["infer", "--assets", ASSETS]) == 1
        capsys.readouterr()

    def test_unknown_suite_is_usage_error(self, capsys):
        assert cli.main(["simulate", "--suite", "nosuch", "--seed", "1"]) == 1
        capsys.readouterr()

    def test_simulate_help_lists_the_suites(self, capsys):
        assert cli.main(["simulate", "--help"]) == 0
        help_text = capsys.readouterr().out
        assert all(suite in help_text for suite in ("theorem1", "gaussian", "lrt", "mglh"))

    def test_missing_file_is_data_error(self, capsys):
        code = cli.main(["infer", "--input", "/nonexistent.csv", "--assets", ASSETS])
        assert code == 2
        capsys.readouterr()

    def test_numerical_failure_is_three(self, capsys, tmp_path):
        # a precision-diagonal trace forced negative cannot be met by any
        # positive definite moment: the solver must fail, exit code 3
        row = np.zeros(11)
        row[4] = 1.0
        row[-1] = -5.0
        path = tmp_path / "bad.csv"
        np.savetxt(path, row[None, :], delimiter=",")
        code = cli.main(["lrt", "--input", FIXTURE, "--assets", ASSETS,
                         "--constraints", str(path)])
        assert code == 3
        capsys.readouterr()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("command,where,message", [
        ("lrt", "entry", "constraint matrices"), ("lrt", "target", "constraint targets"),
        ("mglh", "entry", "contrast A"), ("mglh", "target", "target T")])
    def test_non_finite_restrictions_are_usage_errors(self, capsys, fuzz_files, command,
                                                      where, message, bad):
        # a NaN target is no null at all, not one the LRT solver failed to meet (exit 3)
        if command == "lrt":
            name = f"constraints_{bad}" + ("_target" if where == "target" else "")
            files = ["--constraints", fuzz_files[name]]
        else:
            a, t = ("A_" + bad, "T") if where == "entry" else ("A", "T_" + bad)
            files = ["--features", "level,delta", "--A", fuzz_files[a],
                     "--C", fuzz_files["C"], "--T", fuzz_files[t]]
        code = cli.main([command, "--input", FIXTURE, "--assets", ASSETS, *files])
        assert code == 1
        assert capsys.readouterr().err == f"usage error: non-finite entry in {message}\n"

    @pytest.mark.parametrize("rows,fields", [(1, 1), (1, 7), (1, 8), (2, 10), (1, 12)])
    def test_constraints_of_the_wrong_width_are_usage_errors(self, capsys, tmp_path,
                                                             rows, fields):
        # three assets give a 4x4 moment: vech of 10 coordinates, then the target
        path = tmp_path / "cons.csv"
        np.savetxt(path, np.full((rows, fields), 0.5), delimiter=",")
        code = cli.main(["lrt", "--input", FIXTURE, "--assets", ASSETS,
                         "--constraints", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"usage error: {path} has {rows} rows of {fields} fields; each "
                       "constraint row needs 11: vech of a 4x4 matrix, then the target\n")

    def test_missing_matrix_file_is_named_once(self, capsys, tmp_path):
        missing = tmp_path / "missing.csv"
        code = cli.main(["lrt", "--input", FIXTURE, "--assets", ASSETS,
                         "--constraints", str(missing)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"data error: {missing}: not found\n"

    def test_missing_input_file_is_named_once(self, capsys, tmp_path):
        missing = tmp_path / "missing_input.csv"
        code = cli.main(["infer", "--input", str(missing), "--assets", ASSETS])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"data error: {missing}: No such file or directory\n"

    @pytest.mark.parametrize("hac", ["bartlett:-3", "foo:0", "bartlett:x", "bartlett:"])
    def test_bad_hac_is_usage_error(self, capsys, hac):
        code = cli.main(["infer", "--input", FIXTURE, "--assets", ASSETS, "--hac", hac])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("suite,seed,trials,sample_size",
                             [("gaussian", "1", "0", "50"), ("gaussian", "1", "1", "50"),
                              ("gaussian", "1", "10", "0"), ("gaussian", "-1", "10", "50"),
                              ("theorem1", "1", "10", "1"), ("gaussian", "1", "10", "3"),
                              ("lrt", "1", "10", "3"), ("mglh", "1", "10", "4"),
                              # numpy refuses these stacks before it allocates anything
                              ("lrt", "1", str(10**18), "50"), ("mglh", "1", str(10**20), "50")],
                             ids=["trials0", "trials1", "sample_size0", "seed-1",
                                  "theorem1-sample_size1", "gaussian-sample_size3",
                                  "lrt-sample_size3", "mglh-sample_size4",
                                  "trials1e18", "trials1e20"])
    def test_bad_simulate_inputs_are_usage_errors(self, capsys, suite, seed, trials, sample_size):
        code = cli.main(["simulate", "--suite", suite, "--seed", seed,
                         "--trials", trials, "--sample-size", sample_size])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_trials_past_memory_are_a_usage_error_naming_the_count(self, capsys, monkeypatch):
        trials = 10**11
        empty = np.empty

        def refuse(shape, *args, **kwargs):  # as numpy refuses a stack it cannot map
            if np.ndim(shape) and shape[0] == trials:
                raise MemoryError(f"Unable to allocate an array with shape {shape}")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refuse)
        code = cli.main(["simulate", "--suite", "gaussian", "--seed", "1",
                         "--trials", str(trials)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"usage error: {trials} trials of 3x3 moments do not fit in memory\n")

    @pytest.mark.parametrize("args,message",
                             [(["--features", "level", "--model", "biconditional",
                                "--feature-lag", "-1"], "feature lag"),
                              (["--features", "level", "--model", "biconditional",
                                "--feature-lag", "5000"], "feature lag 5000"),
                              (["--risk-budget", "0.1", "--rfr", "-1"], "rfr"),
                              (["--risk-budget", "nan"], "risk budget"),
                              (["--assets", "alpha,alpha"], "more than once"),
                              (["--model", "biconditional", "--features", "level,level"],
                               "more than once"),
                              (["--model", "biconditional", "--features", "alpha",
                                "--feature-lag", "0"], "unlagged feature"),
                              (["--features", "level", "--model", "biconditional",
                                "--feature-lag", "359"], "feature lag 359")],
                             ids=["feature_lag-1", "feature_lag5000", "rfr-1", "risk_budget_nan",
                                  "duplicate_asset", "duplicate_feature", "unlagged_asset_feature",
                                  "feature_lag359"])
    def test_bad_data_options_are_usage_errors(self, capsys, args, message):
        code = cli.main(["infer", "--input", FIXTURE, "--assets", ASSETS, *args])
        err = capsys.readouterr().err
        assert code == 1
        assert "usage error" in err and message in err

    @pytest.mark.parametrize("args", [["--risk-budget", "nan"], ["--rfr", "-1"],
                                      ["--feature-lag", "-1"], ["--assets", ""],
                                      ["--assets", "alpha,alpha"],
                                      ["--features", "alpha", "--model", "biconditional",
                                       "--feature-lag", "0"],
                                      ["--vol-lag", "0"], ["--hac", "bartlett:x"],
                                      ["--hac", "foo"], ["--hac", "bartlett:-1"]],
                             ids=["risk_budget", "rfr", "feature_lag", "no_assets",
                                  "duplicate_asset", "unlagged_asset_feature", "vol_lag",
                                  "hac_bandwidth", "hac_kernel", "hac_negative_bandwidth"])
    def test_option_errors_come_before_the_input_is_read(self, capsys, tmp_path, args):
        code = cli.main(["infer", "--input", str(tmp_path / "missing.csv"), "--assets", ASSETS,
                         *args])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error")

    @pytest.mark.parametrize("argv,code,prefix", [
        (["infer", "--input", FIXTURE, "--assets", ASSETS, "--rfr", "-1"], 1, "usage error: "),
        (["infer", "--input", "missing.csv", "--assets", ASSETS], 2, "data error: "),
        (["infer", "--input", "zero_run", "--assets", ASSETS, "--vol-window", "5"], 2,
         "data error: volatility window ending at row 24 is zero"),
        (["attribute", "--input", "zero_run", "--assets", ASSETS], 2,
         "data error: volatility window ending at row 30 is zero"),
        (["infer", "--input", "constant_column", "--assets", ASSETS], 3, "numerical failure: "),
    ], ids=["usage-rfr", "data-missing_input", "data-zero_volatility_infer",
            "data-zero_volatility_attribute", "numerical-constant_column"])
    def test_each_error_family_has_its_exit_code(self, capsys, tmp_path, argv, code, prefix):
        """One case per documented family: exit code and stderr prefix."""
        inputs = {"missing.csv": str(tmp_path / "missing.csv"),
                  "zero_run": zero_run_fixture(tmp_path),
                  "constant_column": scaled_fixture(tmp_path, 1.0, "beta", "0.01")}
        assert cli.main([inputs.get(a, a) for a in argv]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1

    @pytest.mark.parametrize("argv,option", [
        (["mglh", "--A", "A.csv", "--C", "C.csv", "--T", "T.csv"], "--features"),
        (["infer", "--model", "biconditional"], "--features"),
        (["infer", "--features", "level"], "--features"),
        (["infer", "--model", "floating", "--features", "level"], "--features"),
        (["infer", "--model", "floating", "--risk-budget", "0.1"], "--risk-budget"),
        (["infer", "--model", "biconditional", "--features", "level", "--risk-budget", "0.1"],
         "--risk-budget"),
        (["infer", "--rfr", "0.01"], "--rfr"),
        (["infer", "--model", "floating", "--rfr", "0.01"], "--rfr"),
        (["infer", "--center-features"], "--center-features"),
        (["infer", "--feature-lag", "3"], "--feature-lag"),
    ], ids=["mglh_without_features", "biconditional_without_features", "features_constant",
            "features_floating", "risk_budget_floating", "risk_budget_biconditional",
            "rfr_without_risk_budget", "rfr_floating", "center_features_without_features",
            "feature_lag_without_features"])
    def test_options_the_command_does_not_take_are_usage_errors(self, capsys, tmp_path,
                                                                 argv, option):
        # the input does not exist, so the error comes before any file is read
        command, *rest = argv
        code = cli.main([command, "--input", str(tmp_path / "missing.csv"), "--assets", ASSETS,
                         *rest])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("usage error: ") and option in err and err.count("\n") == 1

    def test_lrt_takes_no_hac(self, capsys, tmp_path):
        code = cli.main(["lrt", "--input", str(tmp_path / "missing.csv"), "--assets", ASSETS,
                         "--constraints", "cons.csv", "--hac", "bartlett"])
        assert code == 1
        assert "unrecognized arguments: --hac bartlett" in capsys.readouterr().err

    def test_lagged_asset_as_feature_is_a_model(self, capsys):
        # a feature column that is also an asset enters lagged, which is a valid predictor
        code = cli.main(["infer", "--input", FIXTURE, "--assets", "alpha,beta",
                         "--features", "alpha", "--model", "biconditional"])
        assert code == 0
        assert "alpha" in capsys.readouterr().out

    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        capsys.readouterr()


class TestVolOptions:
    def test_vol_lag_alone_turns_the_weights_on(self, capsys):
        code, out, _ = run(capsys, "attribute", "--input", FIXTURE, "--assets", ASSETS,
                           "--vol-lag", "5")
        assert code == 0
        assert "# vol_lag=5" in out and "# vol_window=11" in out

    def test_attribute_vanilla_column_ignores_the_vol_options(self, capsys):
        def columns(*args):
            code, out, _ = run(capsys, "attribute", "--input", FIXTURE, "--assets", ASSETS, *args)
            assert code == 0
            return [row[1:] for row in body_rows(out)]

        default = columns()
        # the default spec given explicitly is the same run
        assert columns("--vol-window", "11", "--vol-lag", "1") == default
        lagged = columns("--vol-lag", "5")
        assert [row[0] for row in lagged] == [row[0] for row in default]
        assert [row[1] for row in lagged] != [row[1] for row in default]

    @pytest.mark.parametrize("args", [["--vol-lag", "-1"], ["--vol-lag", "0"],
                                      ["--vol-window", "0"],
                                      ["--vol-window", "11", "--vol-lag", "-1"]],
                             ids=["lag-1", "lag0", "window0", "window11-lag-1"])
    def test_bad_vol_options_are_usage_errors(self, capsys, args):
        code = cli.main(["attribute", "--input", FIXTURE, "--assets", ASSETS, *args])
        err = capsys.readouterr().err
        assert code == 1
        assert "usage error" in err and "volatility window and lag" in err


class TestAttributeRankGate:
    @pytest.mark.parametrize("hac", [[], ["--hac", "bartlett"]], ids=["vanilla", "hac"])
    def test_more_moment_coordinates_than_rows_exits_three(self, capsys, tmp_path, hac):
        # p = 30 gives m = 496 vech coordinates from T = 300 rows, so the
        # precision block of the covariance is rank deficient
        rng = np.random.default_rng(3)
        names = [f"a{i}" for i in range(30)]
        path = tmp_path / "wide.csv"
        np.savetxt(path, 0.01 + 0.05 * rng.standard_normal((300, 30)), delimiter=",",
                   header=",".join(names), comments="")
        code, out, err = run(capsys, "attribute", "--input", str(path),
                             "--assets", ",".join(names), *hac)
        assert code == 3
        assert out == ""
        assert "465x465" in err and "too few rows (T=300)" in err


class TestTwoSidedP:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.floats(-40.0, 40.0), st.floats(-3.0, 3.0)))
    def test_matches_the_normal_tail(self, z):
        want = float(2.0 * scipy.special.ndtr(-abs(z)))
        got = cli._two_sided_p(z)
        # a tail below 1e-300 is 0, where ndtr keeps subnormals out to |z| near 37.6
        assert got == 0.0 or got >= 1e-300
        if got == 0.0:
            assert want < 1e-300 * (1.0 + 1e-13)
        else:
            assert abs(got - want) <= 1e-13 * want

    def test_floor_and_special_values(self):
        assert cli._two_sided_p(0.0) == 1.0
        assert cli._two_sided_p(37.5) == 0.0
        assert cli._two_sided_p(-np.inf) == 0.0
        assert np.isnan(cli._two_sided_p(np.nan))


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Inputs for the fuzz test: valid ones and several kinds of bad ones."""
    d = tmp_path_factory.mktemp("fuzz")
    files = {"missing": str(d / "missing.csv"), "directory": str(d)}
    for name, text in {"empty": "", "binary": "\x00\x01\x02\n\x03",
                       "header_only": "alpha,beta,gamma\n",
                       "text_cells": "alpha,beta,gamma\n" + "x,y,z\n" * 20,
                       "short": "alpha,beta,gamma\n0.01,0.02,0.03\n0.02,0.01,0.0\n"}.items():
        (d / name).write_text(text)
        files[name] = str(d / name)
    arrays = {"A": np.eye(3)[:2], "C": np.eye(2), "T": np.zeros((2, 2)),
              "A_wide": np.eye(4), "T_bad": np.zeros((5, 1)),
              "constraints": np.eye(11)[[4]] + np.eye(11)[[10]] * 2.0,
              "constraints_wide": np.zeros((1, 7))}
    for name, bad in (("nan", np.nan), ("inf", np.inf)):
        # a non-finite value in an entry of a restriction, or in its target
        arrays[f"A_{name}"] = np.array([[1.0, 0.0, bad], [0.0, 1.0, 0.0]])
        arrays[f"T_{name}"] = np.array([[bad, 0.0], [0.0, 0.0]])
        arrays[f"constraints_{name}"] = np.eye(11)[[4]] + np.eye(11)[[10]]
        arrays[f"constraints_{name}"][0, 5] = bad
        arrays[f"constraints_{name}_target"] = np.eye(11)[[4]]
        arrays[f"constraints_{name}_target"][0, 10] = bad
    for name, arr in arrays.items():
        np.savetxt(d / f"{name}.csv", arr, delimiter=",")
        files[name] = str(d / f"{name}.csv")
    return files


def _maybe(option, values):
    """An option with one of the values, or no option at all."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [option, v]))


# valid values are listed more than once, so that most runs get past parsing
INPUTS = ["fixture"] * 12 + ["missing", "directory", "empty", "binary", "header_only",
                             "text_cells", "short"]
COMMON = st.tuples(
    st.sampled_from(["alpha,beta,gamma"] * 6 + ["alpha", "gamma,alpha", "alpha,nosuch",
                                                 "alpha,alpha", ""]),
    _maybe("--hac", ["bartlett", "parzen", "bartlett:5", "parzen:0", "bartlett:2",
                     "bartlett:-3", "foo", "bartlett:x", "bartlett:100000", ":"]),
    _maybe("--vol-window", ["1", "5", "11", "30", "-1", "0", "400"]),
    _maybe("--vol-lag", ["1", "2", "5", "-1", "0", "400"]),
    _maybe("--format", ["tsv", "json", "tsv", "json", "xml"]),
    _maybe("--date-column", ["date", "date", "nosuch"]),
)
EXTRA = {
    "infer": st.tuples(_maybe("--model", ["constant", "floating", "biconditional", "other"]),
                       _maybe("--features", ["level,delta", "level", "delta", "nosuch", "alpha"]),
                       _maybe("--feature-lag", ["0", "1", "3", "-1", "1000"]),
                       _maybe("--risk-budget", ["0.1", "1", "-0.1", "0", "nan", "inf", "abc"]),
                       _maybe("--rfr", ["0", "0.001", "0.01", "-1", "nan"])),
    "mglh": st.tuples(_maybe("--features", ["level,delta"] * 3 + ["level", "nosuch"]),
                      st.sampled_from(["A"] * 3 + ["A_wide", "missing", "binary", "A_nan",
                                                   "A_inf"])
                      .map(lambda k: ["--A", k]),
                      st.sampled_from(["C"] * 3 + ["missing"]).map(lambda k: ["--C", k]),
                      st.sampled_from(["T"] * 3 + ["T_bad", "empty", "T_nan", "T_inf"])
                      .map(lambda k: ["--T", k])),
    "lrt": st.tuples(st.sampled_from(["constraints"] * 3 + ["constraints_wide", "missing",
                                                            "binary", "constraints_nan",
                                                            "constraints_inf",
                                                            "constraints_nan_target",
                                                            "constraints_inf_target"])
                     .map(lambda k: ["--constraints", k])),
    "attribute": st.just(()),
}
FILE_FLAGS = {"--A", "--C", "--T", "--constraints"}


class TestCliFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(EXTRA)).flatmap(
        lambda cmd: st.tuples(st.just(cmd), st.sampled_from(INPUTS), COMMON, EXTRA[cmd])))
    def test_every_run_ends_in_a_documented_exit_code(self, fuzz_files, case):
        command, source, common, extra = case
        assets, *opts = common
        files = {**fuzz_files, "fixture": FIXTURE}
        argv = [command, "--input", files[source], "--assets", assets]
        for option in [*opts, *extra]:
            if option:
                flag, value = option
                argv += [flag, files.get(value, value) if flag in FILE_FLAGS else value]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(argv)
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue(), argv
        if code:
            assert err.getvalue(), argv
        else:
            assert out.getvalue(), argv

