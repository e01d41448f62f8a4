"""Tracing from outside portinf: wrap its public functions, record spans.

Each listed function is replaced, in every portinf module namespace that
binds it, by a wrapper that records a span (name, start, end, parent
span, op id). Spans stay in memory and are written out when the run
ends. Self time is a span's duration less the time its child spans
cover. Counters ride along at the same boundaries: raised exceptions,
LRT iterations, PSD-clip log records and RuntimeWarnings.
"""

from __future__ import annotations

import functools
import importlib
import logging
import sys
import time
import tracemalloc
import warnings
from collections import Counter

LAYERS = {
    "harness": ("load_csv", "rolling_volatility", "report"),
    "moments": ("augment", "sample_theta", "unpack_theta_inverse", "sr_optimal_portfolio"),
    "constraints": ("conditional_rows", "markowitz_coefficient"),
    "asymptotics": ("omega_vanilla", "omega_hac", "theta_inverse_covariance",
                    "portfolio_covariance", "snr_variance", "wald_statistics",
                    "attribute_error"),
    "kernels": ("d_inv_vech", "d_qform_inv"),
    "gaussian": ("gaussian_omega", "lrt_solve", "lrt_pvalue"),
    "mglh": ("mglh_statistics", "mglh_derivatives", "mglh_asymptotic"),
    "simulate": ("theorem1_suite", "gaussian_suite", "lrt_suite", "mglh_suite"),
    "cli": ("main",),
}
PEAK_FUNCTIONS = ("asymptotics.omega_hac", "kernels.d_inv_vech")
LRT_SOLVE = "gaussian.lrt_solve"
LRT_FAST_ITERATIONS = 10
OP = "op"


def function_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]


class _ClipCounter(logging.Handler):
    def __init__(self, counters: Counter):
        super().__init__(logging.WARNING)
        self.counters = counters

    def emit(self, record):
        self.counters["psd_clips"] += 1


class Tracer:
    """Span recorder for one process.

    With peaks=True the wrappers record no spans and instead take the
    tracemalloc peak inside each call of PEAK_FUNCTIONS; that mode runs
    on a separate op so that tracemalloc does not slow the timed spans.
    """

    def __init__(self, peaks: bool = False):
        self.peaks_mode = peaks
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._handler = _ClipCounter(self.counters)
        self._warn_ctx = None
        self._caught: list = []

    # -- installation ---------------------------------------------------

    def install(self):
        originals = {}
        for mod, fns in LAYERS.items():
            module = importlib.import_module(f"portinf.{mod}")
            for fn in fns:
                originals[getattr(module, fn)] = f"{mod}.{fn}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "portinf" or modname.startswith("portinf.")):
                continue
            for attr, val in list(vars(module).items()):
                if callable(val) and val in wrappers:
                    setattr(module, attr, wrappers[val])
                    self._patched.append((module, attr, val))
        logging.getLogger("portinf.asymptotics").addHandler(self._handler)
        self._warn_ctx = warnings.catch_warnings(record=True)
        self._caught = self._warn_ctx.__enter__()
        warnings.simplefilter("always")

    def uninstall(self):
        for module, attr, val in reversed(self._patched):
            setattr(module, attr, val)
        self._patched.clear()
        logging.getLogger("portinf.asymptotics").removeHandler(self._handler)
        if self._warn_ctx is not None:
            self.counters["runtime_warnings"] += sum(
                issubclass(w.category, RuntimeWarning) for w in self._caught)
            self._warn_ctx.__exit__(None, None, None)
            self._warn_ctx = None

    # -- spans ------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append((name, time.perf_counter(), None, self._stack[-1] if self._stack else -1,
                           self.op_id))
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self._stack.pop()
        name, start, _, parent, op_id = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, op_id)

    def run_op(self, op_id: int, fn, *args):
        """Run fn(*args) as the root span of one op."""
        self.op_id = op_id
        idx = self.begin(OP)
        try:
            return fn(*args)
        finally:
            self.end(idx)

    def adopt(self, spans: list):
        """Append spans recorded by a child process under the open span."""
        parent = self._stack[-1]
        base = len(self.spans)
        for name, start, end, par, _ in spans:
            self.spans.append((name, start, end, parent if par < 0 else par + base, self.op_id))

    def absorb(self, record: dict):
        """Fold a child's counters and peaks into ours."""
        self.counters.update(record["counters"])
        for name, peak in record["peaks"].items():
            self.peaks[name] = max(self.peaks.get(name, 0), peak)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.peaks_mode:
                return self._peak_call(name, fn, args, kwargs)
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counters[f"{name}.errors"] += 1
                if name == LRT_SOLVE:
                    self.counters["lrt_attempts"] += 1
                raise
            finally:
                self.end(idx)
            if name == LRT_SOLVE:
                self.counters["lrt_attempts"] += 1
                self.counters["lrt_iterations"] += result.iterations
                if result.converged and result.iterations <= LRT_FAST_ITERATIONS:
                    self.counters["lrt_fast"] += 1
            return result
        return traced

    def _peak_call(self, name, fn, args, kwargs):
        if name not in PEAK_FUNCTIONS or tracemalloc.is_tracing():
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peaks[name] = max(self.peaks.get(name, 0), peak)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters), "peaks": self.peaks}


def layer_metrics(tracer: Tracer, untraced_p50_s: float, traced_p50_s: float) -> dict:
    """Per-layer metrics, per traced op where they are rates."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s, calls = Counter(), Counter()
    n_ops = 0
    op_s = unattributed_s = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        own = end - start - child_time[i]
        if name == OP:
            n_ops += 1
            op_s += end - start
            unattributed_s += own
        else:
            calls[name] += 1
            self_s[name] += own
    per_op = 1.0 / max(n_ops, 1)
    c = tracer.counters
    out = {}
    for qual in function_names():
        out[f"{qual}.calls"] = calls[qual] * per_op
        out[f"{qual}.self_ms"] = 1e3 * self_s[qual] * per_op
        out[f"{qual}.errors"] = c[f"{qual}.errors"] * per_op
    for mod, fns in LAYERS.items():
        out[f"{mod}.self_ms"] = sum(out[f"{mod}.{fn}.self_ms"] for fn in fns)
    mb = 1.0 / (1 << 20)
    out["asymptotics.omega_hac.peak_mb"] = tracer.peaks.get("asymptotics.omega_hac", 0) * mb
    out["kernels.d_inv_vech.peak_mb"] = tracer.peaks.get("kernels.d_inv_vech", 0) * mb
    out["asymptotics.omega_hac.psd_clips"] = c["psd_clips"] * per_op
    out["gaussian.lrt_solve.iterations"] = c["lrt_iterations"] * per_op
    out["gaussian.lrt_solve.fast_frac"] = c["lrt_fast"] / c["lrt_attempts"] if c["lrt_attempts"] else 0.0
    out["warnings.runtime"] = c["runtime_warnings"] * per_op
    out["trace.op_ms"] = 1e3 * op_s * per_op
    out["trace.unattributed_ms"] = 1e3 * unattributed_s * per_op
    out["trace.overhead_frac"] = traced_p50_s / untraced_p50_s - 1.0
    return out
