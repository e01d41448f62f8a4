"""Fast self-check of the benchmark: `python3 perfbench/selfcheck.py`.

Checks the keys, names and limits of BENCHMARK.json, runs every
workload once at tiny sizes with tracing off and on, and checks that
each result line has the stable schema: exactly the keys correct,
attempted, failed and metrics, every named metric present once with a
finite value and its unit, and no failed op. Last, it runs the
benchmark in a directory holding only BENCHMARK.json and perfbench/
and checks that it exits non-zero without printing a result.
Takes about a minute.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
TIMEOUT_S = 180


def check_spec(spec: dict) -> list[str]:
    errors = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        errors.append(f"BENCHMARK.json keys: {sorted(spec)}")
    if not 2 <= len(spec["workloads"]) <= 8:
        errors.append("need 2 to 8 workloads")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errors.append(f"workload entry {w}")
    if not 1 <= len(spec["end_to_end"]) <= 16 or not 1 <= len(spec["per_layer"]) <= 128:
        errors.append("metric counts out of range")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            errors.append(f"end_to_end entry {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per_layer entry {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s must be an end-to-end metric in s, lower better")
    names = [x["name"] for x in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    for n in names:
        if not NAME.match(n):
            errors.append(f"bad name {n!r}")
    if len(names) != len(set(names)):
        errors.append("duplicate names")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            errors.append(f"bad unit or direction in {m}")
    if not isinstance(spec["run_seconds"], int) or not 1 <= spec["run_seconds"] <= 60:
        errors.append("run_seconds must be a whole number from 1 to 60")
    return errors


def check_result(stdout: str, metrics: dict) -> list[str]:
    try:
        result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"no JSON result line: {exc}"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
        return errors
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")
    if set(result["metrics"]) != set(metrics):
        errors.append(f"metric names differ: missing {sorted(set(metrics) - set(result['metrics']))}, "
                      f"extra {sorted(set(result['metrics']) - set(metrics))}")
    for name, entry in result["metrics"].items():
        if set(entry) != {"value", "unit"} or entry["unit"] != metrics.get(name):
            errors.append(f"{name}: {entry}")
        elif not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            errors.append(f"{name}: value {entry['value']!r}")
    return errors


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = [f"spec: {e}" for e in check_spec(spec)]
    units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = run(ROOT, w["name"], trace)
            errs = [f"exit {proc.returncode}: {proc.stderr[-500:]}"] if proc.returncode else []
            errs += check_result(proc.stdout, units[trace])
            failures += [f"{w['name']} trace={trace}: {e}" for e in errs]
            print(f"{w['name']:14s} trace={trace} {'ok' if not errs else 'FAIL'}")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("a checkout without sources must exit non-zero and print no result")
    print(f"{'bare checkout':14s} {'ok' if proc.returncode and not proc.stdout.strip() else 'FAIL'}")

    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
