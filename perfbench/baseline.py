"""Record a baseline entry: `python3 perfbench/baseline.py --label NAME`.

Runs every workload of BENCHMARK.json once per seed in SEEDS with
tracing off, at run_seconds, one run at a time; does that SETS times
over, then one traced run per workload. It writes
perfbench/baseline/NAME.json with, per set, workload and end-to-end
metric, the median, the quartiles and the spread (interquartile range
over median) across seeds; the change of each median from the first
set to the last; whether the sets agree within the metrics' bounds;
the traced per-layer figures, the inputs and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))  # every entry uses these; the run length is BENCHMARK.json's run_seconds
SETS = 2                    # full passes over every workload and seed, to show that sets agree


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    details = json.loads(proc.stderr.strip().splitlines()[-1])
    return json.loads(proc.stdout.strip().splitlines()[-1]), details


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def agreement(sets: list[dict], metric: dict) -> dict:
    """Worst spread (setup_s exempt) and the worsening of the median from the first set to the last."""
    first, last = sets[0]["median"], sets[-1]["median"]
    worse = (last / first - 1) if metric["better"] == "lower" else (first / last - 1)
    spread = max(s["spread"] for s in sets) if metric["name"] != "setup_s" else 0.0
    return {"worst_spread": spread, "median_worsening": worse,
            "ok": spread <= metric["bound"] and worse <= metric["bound"]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    values = {name: [{} for _ in range(SETS)] for name in names}
    bad = {name: [] for name in names}
    inputs, machine = {}, {}
    for k in range(SETS):
        for name in names:
            for seed in SEEDS:
                result, details = run(name, seed, spec["run_seconds"], 0)
                if not result["correct"] or result["failed"]:
                    bad[name].append([k, seed])
                for metric, m in result["metrics"].items():
                    values[name][k].setdefault(metric, []).append(m["value"])
                print(k, name, seed, {m: round(v[-1], 4) for m, v in values[name][k].items()},
                      flush=True)
            inputs[name], machine = details["inputs"], details["machine"]

    entry = {"label": args.label, "run_seconds": spec["run_seconds"], "seeds": SEEDS,
             "sets": SETS, "workloads": {}}
    for name in names:
        sets = {metric: [summary(values[name][k][metric]) for k in range(SETS)]
                for metric in values[name][0]}
        traced, traced_details = run(name, SEEDS[0], spec["run_seconds"], 1)
        entry["workloads"][name] = {
            "failed_seeds": bad[name],
            "end_to_end": sets,
            "agreement": {m["name"]: agreement(sets[m["name"]], m) for m in spec["end_to_end"]},
            "per_layer": {metric: m["value"] for metric, m in traced["metrics"].items()},
            "traced_correct": traced["correct"] and not traced["failed"],
            "inputs": inputs[name],
        }
        print(name, "traced", traced_details["op_p50_ms_untraced"],
              traced_details["op_p50_ms_traced"], flush=True)
    entry["machine"] = machine
    entry["sets_agree"] = all(a["ok"] for w in entry["workloads"].values()
                              for a in w["agreement"].values())
    print("sets agree within bounds:", entry["sets_agree"])
    os.makedirs(os.path.join(HERE, "baseline"), exist_ok=True)
    with open(os.path.join(HERE, "baseline", f"{args.label}.json"), "w") as fh:
        json.dump(entry, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
