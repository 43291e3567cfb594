"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each layer by replacing the module
attributes that callers look up: every module of the package that bound the
same function object gets the wrapper, so ``stickywalk.harness.char_fn_exact``
and ``stickywalk.exact.char_fn_exact`` are both seen.  Nothing under ``src/``
changes, and the originals are put back when a traced job ends.

A span records name, start, end and the index of its parent span; spans are
kept in memory and written out when the run ends.  The stack of open spans
is a plain list: the only threads are the sampler's workers, and they call
no wrapped function.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from collections import Counter
from time import perf_counter

import stickywalk
import stickywalk.cli
import stickywalk.exact
import stickywalk.harness
import stickywalk.kernel
import stickywalk.limits
import stickywalk.specfun

MODULES = (
    stickywalk,
    stickywalk.kernel,
    stickywalk.exact,
    stickywalk.limits,
    stickywalk.specfun,
    stickywalk.harness,
    stickywalk.cli,
)

# (layer, module, function): calls become spans named "<layer>.<function>"
SPANNED = (
    ("kernel", stickywalk.kernel, "simulate_endpoints"),
    ("exact", stickywalk.exact, "char_fn_exact"),
    ("exact", stickywalk.exact, "diag_fourier_sequence"),
    ("exact", stickywalk.exact, "exact_covariance"),
    ("exact", stickywalk.exact, "endpoint_distribution"),
    ("exact", stickywalk.exact, "brute_force_char"),
    ("limits", stickywalk.limits, "limit_cf"),
    ("limits", stickywalk.limits, "phi_critical"),
    ("specfun", stickywalk.specfun, "integrate_01"),
    ("harness", stickywalk.harness, "run_sweep"),
    ("harness", stickywalk.harness, "run_selftest"),
    ("cli", stickywalk.cli, "main"),
)
# too frequent for a span each: calls are only counted
COUNTED = {"specfun.erfcx.calls": ("erfcx_real", "erfcx_complex")}

# every per-layer metric, in report order, with its unit; values are per job
PER_LAYER = {
    **{f"{layer}.{fn}.{kind}": unit
       for layer, _, fn in SPANNED for kind, unit in (("busy_s", "s"), ("calls", "count"))},
    "kernel.path_steps": "count",
    "kernel.rng_s": "s",
    "kernel.step_s": "s",
    "kernel.draw_bytes": "bytes",
    "kernel.par_speedup": "ratio",
    "kernel.paths_per_s_par": "1/s",
    "exact.h_cells": "count",
    "exact.h0_cache.hit_ratio": "ratio",
    "exact.enum_seqs": "count",
    "specfun.integrand_evals": "count",
    "specfun.erfcx.calls": "count",
    "harness.self_s": "s",
    "harness.rows": "count",
    "harness.rows_failed": "count",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
}


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _sim_info(fn, args, kwargs, result, _):
    a = _bound(fn, args, kwargs)
    return {"n": a["n"], "paths": a["paths"], "seed": a["seed"], "workers": a["workers"],
            "delta": a["p"].delta}


def _recursion_info(fn, args, kwargs, result, _):
    return {"n": _bound(fn, args, kwargs)["n"]}


def _enum_info(fn, args, kwargs, result, misses_before):
    # computed = this call enumerated, rather than hit the lru_cache
    computed = misses_before is None or fn.cache_info().misses > misses_before
    return {"n": _bound(fn, args, kwargs)["n"], "computed": computed}


def _sweep_info(fn, args, kwargs, rows, _):
    return {"rows": len(rows), "failed": sum(1 for row in rows if row.error)}


def _selftest_info(fn, args, kwargs, report, _):
    checks = report["checks"].values()
    return {"rows": len(checks), "failed": sum(1 for c in checks if not c["passed"])}


def _enum_misses(fn):
    return fn.cache_info().misses if hasattr(fn, "cache_info") else None


# span name -> (called before, with the original; called after, giving the span's info)
_HOOKS = {
    "kernel.simulate_endpoints": (None, _sim_info),
    "exact.diag_fourier_sequence": (None, _recursion_info),
    "exact.endpoint_distribution": (_enum_misses, _enum_info),
    "harness.run_sweep": (None, _sweep_info),
    "harness.run_selftest": (None, _selftest_info),
}


class Tracer:
    """Spans and counters of the traced jobs of one run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, info]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _spanned(self, name, fn):
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "specfun.integrate_01":
                args = (self._counted_integrand(args[0]),) + args[1:]
            token = before(fn) if before else None
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if after:
                span[4] = after(fn, args, kwargs, result, token)
            return result

        return wrapper

    def _counted_integrand(self, f):
        def integrand(x):
            self.counts["specfun.integrand_evals"] += 1
            return f(x)
        return integrand

    def _counted(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers into every module attribute bound to a wrapped function."""
        wrappers = {}
        for layer, module, fn_name in SPANNED:
            fn = getattr(module, fn_name)
            wrappers[id(fn)] = (fn, self._spanned(f"{layer}.{fn_name}", fn))
        for key, names in COUNTED.items():
            for fn_name in names:
                fn = getattr(stickywalk.specfun, fn_name)
                wrappers[id(fn)] = (fn, self._counted(key, fn))
        swapped = []
        try:
            for module in MODULES:
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers and wrappers[id(value)][0] is value:
                        swapped.append((module, attr, value))
                        setattr(module, attr, wrappers[id(value)][1])
            yield self
        finally:
            for module, attr, value in swapped:
                setattr(module, attr, value)


def replay_streams(spans) -> float:
    """Seconds to build and draw, on their own, the per-path Philox streams
    that the traced simulate_endpoints calls consumed."""
    path_rng = stickywalk.kernel.path_rng
    sims = [info for name, _, _, _, info in spans if name == "kernel.simulate_endpoints" and info]
    if not sims:
        return 0.0
    t0 = perf_counter()
    for info in sims:
        for index in range(info["paths"]):
            path_rng(info["seed"], index).random(info["n"])
    return perf_counter() - t0


def job_metrics(spans, counts, rng_s: float) -> dict:
    """Per-layer metrics of one traced job from its spans and counters."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        out[f"{name}.busy_s"] += end - start
        out[f"{name}.calls"] += 1
        if parent >= 0:
            child_s[parent] += end - start
    for key in ("specfun.integrand_evals", "specfun.erfcx.calls"):
        out[key] = float(counts[key])

    # info is None where the call raised
    sims = [(end - start, info) for name, start, end, _, info in spans
            if name == "kernel.simulate_endpoints" and info]
    out["kernel.path_steps"] = float(sum(i["paths"] * i["n"] for _, i in sims))
    out["kernel.draw_bytes"] = 8.0 * out["kernel.path_steps"]
    out["kernel.rng_s"] = rng_s
    out["kernel.step_s"] = out["kernel.simulate_endpoints.busy_s"] - rng_s
    by_input = {}
    for s, i in sims:
        by_input.setdefault((i["n"], i["paths"], i["seed"], i["delta"]), {})[i["workers"] > 1] = s
    paired = [times for times in by_input.values() if len(times) == 2]
    if paired:
        out["kernel.par_speedup"] = sum(t[False] for t in paired) / sum(t[True] for t in paired)
    par_s = sum(s for s, i in sims if i["workers"] > 1)
    if par_s > 0:
        out["kernel.paths_per_s_par"] = sum(i["paths"] for _, i in sims if i["workers"] > 1) / par_s

    for name, _, _, _, info in spans:
        if info is None:
            continue
        if name == "exact.diag_fourier_sequence":
            out["exact.h_cells"] += info["n"] * info["n"] / 2
        elif name == "exact.endpoint_distribution" and info["computed"]:
            out["exact.enum_seqs"] += 4.0 ** info["n"]
        elif name in ("harness.run_sweep", "harness.run_selftest"):
            out["harness.rows"] += info["rows"]
            out["harness.rows_failed"] += info["failed"]
    cf_calls = out["exact.char_fn_exact.calls"]
    if cf_calls:
        recursions = sum(1 for name, _, _, parent, _ in spans
                         if name == "exact.diag_fourier_sequence" and parent >= 0
                         and spans[parent][0] == "exact.char_fn_exact")
        out["exact.h0_cache.hit_ratio"] = 1.0 - recursions / cf_calls
    out["harness.self_s"] = sum(end - start - child_s[i]
                                for i, (name, start, end, _, _) in enumerate(spans)
                                if name.startswith("harness."))
    return out
