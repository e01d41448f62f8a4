"""The four benchmark workloads: seeded inputs, one op each, output checks.

Each workload is driven from outside portinf, through its public
library functions (module attributes, looked up at call time so that a
tracer can wrap them) or through the `portinf` command line. Inputs are
made from the workload seed; the program only sees the inputs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import subprocess
import sys

import numpy as np

import oracle

RISK_BUDGET = 0.1
RFR = 0.001
WEIGHT_RTOL = 1e-9      # max |w - w_oracle| over max |w_oracle|
SE_RTOL = 1e-6          # max |se / se_oracle - 1|
CLI_TIMEOUT_S = 120
CLI_BOOT = "import sys; from portinf.cli import main; sys.exit(main())"
HERE = os.path.dirname(os.path.abspath(__file__))


def factor_panel(rng: np.random.Generator, t: int, p: int) -> np.ndarray:
    """T x p returns from a three-factor model with positive mean returns."""
    loadings = rng.uniform(0.2, 1.2, (p, 3))
    factors = np.array([0.006, 0.003, 0.002]) + rng.standard_normal((t, 3)) * [0.04, 0.03, 0.02]
    noise = rng.standard_normal((t, p)) * rng.uniform(0.02, 0.05, p)
    return 0.001 + factors @ loadings.T + noise


def infer_pipeline(pi, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The `infer` pipeline with the Bartlett HAC estimator at its default bandwidth."""
    rows, layout, f_dim = pi.constraints.conditional_rows(values)
    tm = pi.moments.sample_theta(rows, layout, f_dim=f_dim)
    om = pi.asymptotics.omega_hac(rows, kernel="bartlett")
    _, coef_dist = pi.constraints.markowitz_coefficient(tm, om)
    est = pi.moments.sr_optimal_portfolio(tm, RISK_BUDGET, RFR)
    dist = pi.asymptotics.portfolio_covariance(tm, om, RISK_BUDGET)
    pi.asymptotics.snr_variance(tm, om, RISK_BUDGET, RFR)
    pi.asymptotics.wald_statistics(coef_dist)
    return est.weights, dist.standard_errors(), om.bandwidth


class _InferWorkload:
    """Shared op and checks of the two in-process `infer` workloads."""

    se_checked_ops: int

    def __init__(self, pi, seed: int):
        self.pi = pi
        self.rng = np.random.default_rng(seed)
        self._oracle_w = {}

    def n_inputs(self) -> int:
        raise NotImplementedError

    def input_for(self, i: int) -> np.ndarray:
        raise NotImplementedError

    def setup(self):
        pass

    def warm_up(self):
        self.op(0)

    def op(self, i: int):
        return infer_pipeline(self.pi, self.input_for(i))

    def check(self, outputs: list) -> list[bool]:
        ok = []
        for i, out in enumerate(outputs):
            if out is None:
                ok.append(False)
                continue
            key = i % self.n_inputs()
            if key not in self._oracle_w:
                self._oracle_w[key] = oracle.max_sharpe_weights(self.input_for(i), RISK_BUDGET)
            ref = self._oracle_w[key]
            ok.append(bool(np.abs(out[0] - ref).max() <= WEIGHT_RTOL * np.abs(ref).max()))
        for i in self.se_check_ops(len(outputs)):
            if outputs[i] is None:
                continue
            _, se, bandwidth = outputs[i]
            values = self.input_for(i)
            ref = oracle.weight_standard_errors(values, RISK_BUDGET, oracle.default_bandwidth(len(values)))
            ok[i] = ok[i] and bandwidth == oracle.default_bandwidth(len(values)) \
                and bool(np.abs(se / ref - 1.0).max() <= SE_RTOL)
        return ok

    def se_check_ops(self, n_ops: int) -> list[int]:
        step = max(1, self.n_inputs() // self.se_checked_ops)
        return [i for i in range(0, n_ops, step)][: self.se_checked_ops]

    def describe(self) -> dict:
        values = [self.input_for(i) for i in range(self.n_inputs())]
        t, p = values[0].shape
        return {"T": t, "p": p, "kernel": "bartlett", "bandwidth": oracle.default_bandwidth(t),
                **oracle.input_summary(values)}


class WideHac(_InferWorkload):
    """The full pipeline on T=2000, p=40 panels, cycled."""

    se_checked_ops = 4

    def __init__(self, pi, seed, tiny):
        super().__init__(pi, seed)
        t, p, n = (300, 6, 2) if tiny else (2000, 40, 4)
        self.panels = [factor_panel(self.rng, t, p) for _ in range(n)]

    def n_inputs(self):
        return len(self.panels)

    def input_for(self, i):
        return self.panels[i % len(self.panels)]


class RollingSmall(_InferWorkload):
    """The same pipeline on rolling 252-row windows of one p=8 panel."""

    se_checked_ops = 8

    def __init__(self, pi, seed, tiny):
        super().__init__(pi, seed)
        self.window, p, n = (60, 3, 40) if tiny else (252, 8, 2000)
        self.panel = factor_panel(self.rng, self.window + n - 1, p)
        self.n_windows = n

    def n_inputs(self):
        return self.n_windows

    def input_for(self, i):
        start = i % self.n_windows
        return self.panel[start : start + self.window]


class CliFixture:
    """Cold `portinf` runs on the shipped fixture, one child at a time."""

    ASSETS = "alpha,beta,gamma"
    FEATURES = "level,delta"
    INFER_COMMANDS = 3          # the first three commands print a markowitz/coefficient column

    def __init__(self, pi, seed: int, root: str, outdir: str):
        importlib.import_module("portinf.cli")     # the checks run cli.main in process
        self.pi = pi
        self.rng = np.random.default_rng(seed)
        self.outdir = outdir
        self.fixture = os.path.join(root, "data", "synthetic_returns.csv")
        self.offset = seed % 6
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.commands: list[list[str]] = []

    def setup(self):
        d = self.outdir
        paths = {k: os.path.join(d, f"{k}.csv") for k in ("A", "C", "T", "constraints")}
        a = np.eye(3)[:2] + 0.1 * self.rng.standard_normal((2, 3))
        np.savetxt(paths["A"], a, delimiter=",")
        np.savetxt(paths["C"], np.eye(2), delimiter=",")
        np.savetxt(paths["T"], 0.01 * self.rng.standard_normal((2, 2)), delimiter=",")
        loaded = self.pi.harness.load_csv(self.fixture, self.ASSETS.split(","))
        tm = self.pi.moments.sample_theta(self.pi.moments.augment(loaded.panel.values))
        inv = np.linalg.inv(tm.theta)
        # two trace constraints on diagonal precision entries, targets near the sample values
        rows = np.zeros((2, 11))
        for r, (coord, (i, j)) in enumerate(((4, (1, 1)), (7, (2, 2)))):
            rows[r, coord] = 1.0
            rows[r, -1] = inv[i, j] * (1.0 + 0.05 * self.rng.uniform(-1, 1))
        np.savetxt(paths["constraints"], rows, delimiter=",")
        data = ["--input", self.fixture, "--assets", self.ASSETS]
        self.commands = [
            ["infer", *data, "--risk-budget", "0.1", "--rfr", "0.001"],
            ["infer", *data, "--hac", "bartlett"],
            ["infer", *data, "--model", "biconditional", "--features", self.FEATURES],
            ["mglh", *data, "--features", self.FEATURES,
             "--A", paths["A"], "--C", paths["C"], "--T", paths["T"]],
            ["lrt", *data, "--constraints", paths["constraints"]],
            ["attribute", *data],
        ]

    def command_for(self, i: int) -> int:
        return (self.offset + i) % len(self.commands)

    def warm_up(self):
        self.op(0)

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              env=self.env, cwd=self.outdir, timeout=CLI_TIMEOUT_S)

    def op(self, i: int):
        k = self.command_for(i)
        proc = self._run(["-c", CLI_BOOT, *self.commands[k]])
        return k, proc.returncode, proc.stdout, proc.stderr

    def op_traced(self, i: int, tracer):
        """One op through the traced child entry point; its spans join tracer's."""
        k = self.command_for(i)
        span_file = os.path.join(self.outdir, "child-spans.json")
        proc = self._run([os.path.join(HERE, "cli_child.py"), span_file, *self.commands[k]])
        with open(span_file) as fh:
            record = json.load(fh)
        tracer.adopt(record["spans"])
        tracer.absorb(record)
        return k, proc.returncode, proc.stdout, proc.stderr

    def peak_probe(self):
        """Every command once, in process, so tracemalloc sees the peaks."""
        for argv in self.commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                self.pi.cli.main(argv)

    def _expected_markowitz(self, k: int) -> list[str]:
        """The markowitz (or coefficient) column from the library, as the CLI prints it."""
        pi = self.pi
        biconditional = "--features" in self.commands[k]
        loaded = pi.harness.load_csv(self.fixture, self.ASSETS.split(","),
                                     self.FEATURES.split(",") if biconditional else None)
        values = loaded.panel.values
        if biconditional:
            values, features = values[1:], loaded.features[:-1]     # default feature lag of 1
            rows, layout, f_dim = pi.constraints.conditional_rows(
                values, features, None, pi.constraints.ConditionalModel.BICONDITIONAL)
        else:
            rows, layout, f_dim = pi.constraints.conditional_rows(values)
        tm = pi.moments.sample_theta(rows, layout, f_dim=f_dim)
        coef = pi.moments.unpack_theta_inverse(tm).markowitz.reshape(values.shape[1], f_dim, order="F")
        return [f"{v:.6g}" for v in coef.reshape(-1, order="F")]

    def _expected_stdout(self, k: int) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            self.pi.cli.main(self.commands[k])
        return buf.getvalue()

    def check(self, outputs: list) -> list[bool]:
        expected = {}
        ok = []
        for out in outputs:
            if out is None:
                ok.append(False)
                continue
            k, code, stdout, stderr = out
            if code != 0 or "Traceback" in stderr:
                ok.append(False)
                continue
            if k not in expected:
                expected[k] = (self._expected_markowitz(k) if k < self.INFER_COMMANDS
                               else self._expected_stdout(k))
            if k < self.INFER_COMMANDS:
                ok.append(_printed_column(stdout, ("markowitz", "coefficient")) == expected[k])
            else:
                ok.append(stdout == expected[k])
        return ok

    def describe(self) -> dict:
        loaded = self.pi.harness.load_csv(self.fixture, self.ASSETS.split(","))
        values = loaded.panel.values
        return {"T": values.shape[0], "p": values.shape[1], "commands": [c[0] for c in self.commands],
                "bandwidth": oracle.default_bandwidth(values.shape[0]),
                **oracle.input_summary([values])}


def _printed_column(tsv: str, names: tuple[str, ...]) -> list[str] | None:
    """Cells of the first column named in `names` of a one-table TSV report."""
    body = [line.split("\t") for line in tsv.splitlines() if line and not line.startswith("#")]
    header = body[0] if body else []
    for name in names:
        if name in header:
            col = header.index(name)
            return [row[col] if col < len(row) else None for row in body[1:]]
    return None


class MonteCarlo:
    """One op is the four `simulate` suites at today's default sizes, in order."""

    SUITES = ("theorem1", "gaussian", "lrt", "mglh")
    # (trials, sample_size) per suite, passed explicitly so that a change of the
    # library's defaults cannot change the work in an op; every report's header
    # must echo them.
    SIZES = {"theorem1": (5000, 2000), "gaussian": (5000, 2000), "lrt": (2000, 1000),
             "mglh": (5000, 2000)}
    TINY_SIZES = {"theorem1": (1000, 500), "gaussian": (1000, 500), "lrt": (1000, 300),
                  "mglh": (1000, 500)}
    WARM_UP_SIZES = (20, 50)
    # The LRT suite's calibration bounds sit 2.4 (var) and 3.3 (mean) sampling SDs from
    # the chi-square(2) targets, so at default sizes they fail for a few seeds by chance
    # (var_stat at seeds 7, 16, 113, 240 and 245 of 0-299). The benchmark judges these
    # two lines at CALIBRATION_SDS sampling SDs, sqrt(c / trials): over seeds 0-299 the
    # largest |z| is 3.19 (var_stat, seed 113) and 2.59 (mean_stat), so 3.19 rounded up
    # to the next half SD. Every other line must report PASS.
    CALIBRATION = {("lrt", "mean_stat"): (2.0, 4.0), ("lrt", "var_stat"): (4.0, 128.0)}
    CALIBRATION_SDS = 3.5

    def __init__(self, pi, seed: int, tiny: bool):
        self.pi = pi
        self.seed = seed % (1 << 32)
        self.sizes = self.TINY_SIZES if tiny else self.SIZES
        self.suite_fail_verdicts = 0

    def setup(self):
        pass

    def trials_per_op(self) -> int:
        return sum(trials for trials, _ in self.sizes.values())

    def _cycle(self, sizes: dict) -> list[str]:
        return [self.pi.simulate.simulate_suite(suite, self.seed, *sizes[suite]).render()
                for suite in self.SUITES]

    def warm_up(self):
        self._cycle({s: self.WARM_UP_SIZES for s in self.SUITES})

    def op(self, i: int):
        return self._cycle(self.sizes)

    def _report_ok(self, text: str) -> bool:
        lines = text.splitlines()
        header = dict(field.split("=") for field in lines[0].split())
        trials = int(header["trials"])
        ok = (trials, int(header["sample_size"])) == self.sizes.get(header["suite"])
        ok &= lines[-1] in ("result=PASS", "result=FAIL")
        self.suite_fail_verdicts += lines[-1] == "result=FAIL"
        for line in lines:
            if not line.startswith("check "):
                continue
            fields = line.split()
            value = float(fields[2].removeprefix("value="))
            calibration = self.CALIBRATION.get((header["suite"], fields[1]))
            if calibration:
                target, c = calibration
                ok &= abs(value - target) <= self.CALIBRATION_SDS * (c / trials) ** 0.5
            else:
                ok &= fields[-1] == "status=PASS"
        return ok

    def check(self, outputs: list) -> list[bool]:
        """Every report passes, and every cycle matches the first byte for byte."""
        done = [o for o in outputs if o is not None]
        if len(done) == 1:
            # the timed loop ran one cycle: run a second, untimed, for the determinism check
            done.append(self.op(len(outputs)))
        reference = done[0] if done else None
        repeat_ok = all(o == reference for o in done)
        return [out is not None and repeat_ok and all(self._report_ok(text) for text in out)
                for out in outputs]

    def describe(self) -> dict:
        return {"suites": list(self.SUITES), "seed": self.seed,
                "trials_per_op": self.trials_per_op(),
                "sizes": {s: list(self.sizes[s]) for s in self.SUITES},
                "suite_fail_verdicts": self.suite_fail_verdicts}
