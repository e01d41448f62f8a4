"""One benchmark process: set up a workload, run its timed loop, check outputs.

Started by run.py in a fresh interpreter with PYTHONPATH at the
checkout's src/. Prints one JSON object on its last stdout line; with
--setup-only it stops after the untimed warm-up op and reports when it
got there, so that run.py can time set-up from process start.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import portinf
import spans
import workloads

P99_MIN_OPS = 1000


def build(name: str, seed: int, tiny: bool, root: str, outdir: str):
    if name == "wide_hac":
        return workloads.WideHac(portinf, seed, tiny)
    if name == "rolling_small":
        return workloads.RollingSmall(portinf, seed, tiny)
    if name == "cli_fixture":
        return workloads.CliFixture(portinf, seed, root, outdir)
    if name == "montecarlo":
        return workloads.MonteCarlo(portinf, seed, tiny)
    raise SystemExit(f"unknown workload {name!r}")


def timed_loop(run_one, seconds: float, first: int = 0):
    """Closed loop, one client: run ops until `seconds` have passed (at least one op)."""
    latencies, outputs = [], []
    start = time.perf_counter()
    i = first
    while True:
        t0 = time.perf_counter()
        try:
            outputs.append(run_one(i))
        except Exception:
            traceback.print_exc(limit=3, file=sys.stderr)
            outputs.append(None)
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        i += 1
        if t1 - start >= seconds:
            return latencies, outputs, t1 - start


def blas_threads():
    """OpenBLAS thread count through the library numpy loaded, if it exposes one."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def cache_sizes() -> dict:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "caches": cache_sizes(),
    }


def summarize(latencies, outputs, ok, wall, wl) -> tuple[dict, dict]:
    n = len(outputs)
    failed = sum(1 for good in ok if not good)
    # The fastest op is the end-to-end latency: on a shared machine the median and the
    # throughput follow the neighbours' load, the fastest op follows the code. A failed
    # op may return early, so it does not count unless every op failed.
    passed = [t for t, good in zip(latencies, ok) if good] or latencies
    metrics = {"op_min_ms": 1e3 * min(passed)}
    details = {"ops": n, "wall_s": wall, "error_rate": failed / n, "ops_per_s": n / wall,
               "op_p50_ms": 1e3 * statistics.median(latencies)}
    if n >= P99_MIN_OPS:
        details["op_p99_ms"] = 1e3 * statistics.quantiles(latencies, n=100)[98]
    if isinstance(wl, workloads.MonteCarlo):
        details["trials_per_s"] = n * wl.trials_per_op() / wall
    return metrics, details


def run_plain(wl, seconds: float) -> dict:
    latencies, outputs, wall = timed_loop(wl.op, seconds)
    usage = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.CliFixture) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    ok = wl.check(outputs)
    metrics, details = summarize(latencies, outputs, ok, wall, wl)
    metrics["peak_rss_mb"] = peak_rss_mb
    return {"attempted": len(outputs), "failed": details["ops"] - sum(ok), "correct": all(ok),
            "metrics": metrics, "details": details}


def run_traced(wl, seconds: float, spans_path: str) -> dict:
    """Half the time untraced, half traced, then one op measuring tracemalloc peaks."""
    lat_plain, out_plain, _ = timed_loop(wl.op, seconds / 2)
    tracer = spans.Tracer()
    if isinstance(wl, workloads.CliFixture):
        def traced_op(i):
            return tracer.run_op(i, wl.op_traced, i, tracer)
    else:
        def traced_op(i):
            return tracer.run_op(i, wl.op, i)
    tracer.install()
    try:
        lat_traced, out_traced, _ = timed_loop(traced_op, seconds / 2, first=len(out_plain))
    finally:
        tracer.uninstall()
    peak_tracer = spans.Tracer(peaks=True)
    peak_tracer.install()
    try:
        getattr(wl, "peak_probe", wl.warm_up)()     # one op where a workload has no probe of its own
    finally:
        peak_tracer.uninstall()
    tracer.peaks = peak_tracer.peaks
    with open(spans_path, "w") as fh:
        json.dump(tracer.dump(), fh)
    outputs = out_plain + out_traced
    ok = wl.check(outputs)
    metrics = spans.layer_metrics(tracer, statistics.median(lat_plain), statistics.median(lat_traced))
    details = {"ops_untraced": len(out_plain), "ops_traced": len(out_traced),
               "op_p50_ms_untraced": 1e3 * statistics.median(lat_plain),
               "op_p50_ms_traced": 1e3 * statistics.median(lat_traced), "spans": len(tracer.spans)}
    return {"attempted": len(outputs), "failed": len(outputs) - sum(ok), "correct": all(ok),
            "metrics": metrics, "details": details}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--root", required=True)
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(args.root, "src"))
    if not os.path.realpath(portinf.__file__).startswith(src + os.sep):
        raise SystemExit(f"portinf imported from {portinf.__file__}, not from {src}")
    wl = build(args.workload, args.seed, args.tiny, args.root, args.outdir)
    wl.setup()
    wl.warm_up()
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    if args.trace:
        spans_path = os.path.join(args.outdir, "spans.json")
        result = run_traced(wl, args.seconds, spans_path)
    else:
        result = run_plain(wl, args.seconds)
    result["ready_at"] = ready_at
    result["details"].update(inputs=wl.describe(), machine=machine_facts())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
