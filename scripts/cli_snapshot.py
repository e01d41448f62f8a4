#!/usr/bin/env python3
"""Print what a fixed list of portinf commands writes, for a byte-identity check.

Usage: python scripts/cli_snapshot.py ROOT
       python scripts/cli_snapshot.py BASE ROOT

ROOT is a portinf checkout. The script writes the mglh contrasts, the
LRT constraints, a panel with a feature in large units and restrictions
with a NaN or infinite value into a temporary directory from fixed
seeds, with numpy alone, copies ROOT's returns fixture beside them, and
runs each command there as a fresh `python -m portinf.cli` child with
PYTHONPATH=ROOT/src.
For each it prints the argv, the exit code, stdout and stderr. Two
checkouts behave alike on the list when

    diff <(python scripts/cli_snapshot.py BASE) <(python scripts/cli_snapshot.py .)

prints nothing. Given two checkouts, the script snapshots both and prints
how many lines differ, whether any line outside a `--format json` stdout
moved, and the largest relative change between the numbers of two lines
that differ only in their numbers (inf when a line differs otherwise);
if the two snapshots differ in length, it prints both lengths instead.
"""

import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

import numpy as np

SEED = 5
DATA = ["--input", "returns.csv", "--assets", "alpha,beta,gamma"]
FEATURES = ["--features", "level,delta"]
CONTRASTS = ["--A", "A.csv", "--C", "C.csv", "--T", "T.csv"]


def write_inputs(fixture: str, outdir: str) -> None:
    """The returns fixture, the mglh contrasts and the LRT constraints, as the benchmark writes them.

    Beside them, a two-asset panel whose second feature is in units 1e9
    times the first's, with its contrasts, and restrictions with a NaN or
    infinite value in an entry or in a target.
    """
    rng = np.random.default_rng(SEED)
    shutil.copyfile(fixture, os.path.join(outdir, "returns.csv"))

    def save(name, arr):
        np.savetxt(os.path.join(outdir, name), arr, delimiter=",")

    save("A.csv", np.eye(3)[:2] + 0.1 * rng.standard_normal((2, 3)))
    save("C.csv", np.eye(2))
    save("T.csv", 0.01 * rng.standard_normal((2, 2)))
    save("C1.csv", np.array([[1.0], [0.5]]))
    save("T1.csv", 0.01 * rng.standard_normal((2, 1)))
    # two trace constraints on diagonal precision entries, targets near the sample values
    values = np.loadtxt(fixture, delimiter=",", skiprows=1, usecols=(1, 2, 3))
    rows = np.hstack([np.ones((len(values), 1)), values])
    inv = np.linalg.inv(rows.T @ rows / len(rows))
    constraints = np.zeros((2, 11))
    for r, (coord, i) in enumerate(((4, 1), (7, 2))):
        constraints[r, coord] = 1.0
        constraints[r, -1] = inv[i, i] * (1.0 + 0.05 * rng.uniform(-1, 1))
    save("constraints.csv", constraints)
    # two assets on two features, one in units 1e9 times the other's
    rng = np.random.default_rng(0)
    f = rng.standard_normal((600, 2))
    ret = (0.01 + 0.01 * f @ np.array([[0.3, 0.1], [-0.2, 0.25]]).T
           + 0.02 * rng.standard_normal((600, 2)))
    np.savetxt(os.path.join(outdir, "units.csv"), np.column_stack([ret, f[:, 0], 1e9 * f[:, 1]]),
               delimiter=",", header="a,b,level,delta", comments="")
    save("A2.csv", np.eye(2))
    save("C2.csv", np.array([[1.0, 1.0], [1.0, -1.0]]))
    save("T2.csv", np.zeros((2, 2)))
    # a NaN in a constraint entry, a NaN target, and an infinite mglh target
    nan_entry, nan_target = np.zeros((1, 11)), np.zeros((1, 11))
    nan_entry[0, 4], nan_entry[0, -1] = np.nan, 1.0
    nan_target[0, 4], nan_target[0, -1] = 1.0, np.nan
    save("nan_entry.csv", nan_entry)
    save("nan_target.csv", nan_target)
    save("A3.csv", np.eye(3)[:2])
    save("T3.csv", np.array([[np.inf, 0.0], [0.0, 0.0]]))


def commands() -> list[list[str]]:
    data_commands = [
        # the benchmark's six cli_fixture commands
        ["infer", *DATA, "--risk-budget", "0.1", "--rfr", "0.001"],
        ["infer", *DATA, "--hac", "bartlett"],
        ["infer", *DATA, "--model", "biconditional", *FEATURES],
        ["mglh", *DATA, *FEATURES, *CONTRASTS],
        ["lrt", *DATA, "--constraints", "constraints.csv"],
        ["attribute", *DATA],
        ["attribute", *DATA, "--hac", "bartlett:5"],
        ["mglh", *DATA, *FEATURES, *CONTRASTS, "--hac", "bartlett"],
        ["mglh", *DATA, *FEATURES, "--A", "A.csv", "--C", "C1.csv", "--T", "T1.csv",
         "--hac", "parzen:4"],
        ["infer", *DATA, "--risk-budget", "0.1", "--rfr", "0.001", "--hac", "bartlett"],
    ]
    out = [argv + fmt for argv in data_commands for fmt in ([], ["--format", "json"])]
    # a mixing contrast over those features: rounding leaves C' inv(feature gram) C indefinite
    out.append(["mglh", "--input", "units.csv", "--assets", "a,b", "--features", "level,delta",
                "--A", "A2.csv", "--C", "C2.csv", "--T", "T2.csv"])
    # non-finite restrictions are usage errors
    out += [["lrt", *DATA, "--constraints", "nan_entry.csv"],
            ["lrt", *DATA, "--constraints", "nan_target.csv"],
            ["mglh", *DATA, *FEATURES, "--A", "A3.csv", "--C", "C.csv", "--T", "T3.csv"]]
    out += [["simulate", "--suite", suite, "--seed", "42"]
            for suite in ("theorem1", "gaussian", "lrt", "mglh")]
    # trial counts past numpy's largest array are usage errors
    out += [["simulate", "--suite", "lrt", "--seed", "1", "--trials", str(10**18)],
            ["simulate", "--suite", "mglh", "--seed", "1", "--trials", str(10**20)]]
    return out + [["selftest"]]


def snapshot(root: str) -> list[str]:
    """The snapshot's lines for the checkout at root, each with its newline."""
    root = os.path.abspath(root)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = []
    with tempfile.TemporaryDirectory() as outdir:
        write_inputs(os.path.join(root, "data", "synthetic_returns.csv"), outdir)
        for args in commands():
            proc = subprocess.run([sys.executable, "-m", "portinf.cli", *args], cwd=outdir,
                                  env=env, capture_output=True, text=True)
            out += ["$ portinf " + " ".join(args) + "\n", f"exit {proc.returncode}\n"]
            # a warning names the source file; keep the checkout's path out of the diff
            for name, text in (("stdout", proc.stdout), ("stderr", proc.stderr.replace(root, "ROOT"))):
                out.append(f"--- {name}\n")
                out += text.splitlines(keepends=True)
    return out


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _json_lines(lines: list[str]) -> list[bool]:
    """Whether each line is stdout of a `--format json` command."""
    is_json = json = False
    out = []
    for line in lines:
        if line.startswith("$ portinf "):
            is_json = line.rstrip("\n").endswith("--format json")
        elif line.startswith("--- "):
            json = is_json and line == "--- stdout\n"
        out.append(json and not line.startswith("--- "))
    return out


def _relative_change(old: str, new: str) -> float:
    """The largest relative change between the numbers of two lines, inf if the rest differs."""
    a, b = NUMBER.findall(old), NUMBER.findall(new)
    if NUMBER.sub("#", old) != NUMBER.sub("#", new) or len(a) != len(b):
        return math.inf
    return max((abs(float(x) - float(y)) / max(abs(float(x)), abs(float(y)))
                for x, y in zip(a, b) if float(x) != float(y)), default=0.0)


def compare(base: list[str], new: list[str]) -> list[str]:
    """Three report lines: changed lines, moved non-JSON lines, largest relative change."""
    if len(base) != len(new):
        return [f"line count differs: {len(base)} -> {len(new)}"]
    json = _json_lines(base)
    moved = [i for i, (x, y) in enumerate(zip(base, new)) if x != y]
    largest = max((_relative_change(base[i], new[i]) for i in moved), default=0.0)
    return [f"changed lines: {len(moved)} of {len(base)}",
            f"non-json lines moved: {sum(not json[i] for i in moved)}",
            f"largest relative change: {largest:.3g}"]


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print("usage: python scripts/cli_snapshot.py [BASE] ROOT", file=sys.stderr)
        return 1
    if len(argv) == 1:
        sys.stdout.writelines(snapshot(argv[0]))
    else:
        print("\n".join(compare(snapshot(argv[0]), snapshot(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
