"""portinf benchmark: `python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1`.

Run from the root of a checkout. Prints, as the last stdout line, one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A detail record (inputs, machine facts, op counts) goes to stderr and to
perfbench/out/. See perfbench/README.md for the workloads and metrics.

This file uses only the standard library: it times set-up from fresh
process start, measures the cold import, and leaves the work itself to
worker.py processes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wide_hac", "rolling_small", "cli_fixture", "montecarlo")
SETUP_SAMPLES = 5           # fresh processes timed to the end of the warm-up op, median reported
IMPORT_SAMPLES = 3          # cold `import portinf` in fresh interpreters, median reported
CHILD_TIMEOUT_S = 170
IMPORT_PROBE = ("import time; t = time.perf_counter(); import portinf; "
                "print(time.perf_counter() - t)")


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def _worker(args, outdir: str, setup_only: bool) -> tuple[dict, float]:
    """Run worker.py once; return its JSON result and its set-up time in seconds."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--outdir", outdir]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready_at"] - spawned_at


def _import_ms() -> float:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                              text=True, env=_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(1e3 * float(proc.stdout.strip()))
    return statistics.median(samples)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for selfcheck.py")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "portinf", "__init__.py")):
        print(f"no portinf sources under {ROOT}/src", file=sys.stderr)
        return 2
    outdir = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(outdir, exist_ok=True)

    if args.trace:
        import_ms = _import_ms()
        result, _ = _worker(args, outdir, setup_only=False)
        result["metrics"]["import.portinf_ms"] = import_ms
    else:
        setups = [_worker(args, outdir, setup_only=True)[1] for _ in range(SETUP_SAMPLES - 1)]
        result, setup_s = _worker(args, outdir, setup_only=False)
        setups.append(setup_s)
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["details"]["setup_s_samples"] = setups

    units = _units()
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **result["details"]}
    with open(os.path.join(outdir, "details.json"), "w") as fh:
        json.dump(details, fh, indent=1)
    print(json.dumps(details), file=sys.stderr)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


def _units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
