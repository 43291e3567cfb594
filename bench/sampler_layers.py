"""Time the Monte Carlo sampler layer by layer: one chunk's draws, then the walk.

    python bench/sampler_layers.py [--src DIR] [--repeats N] [--before FILE] [--out FILE]

For n = 33, 256 and 1024 at delta = 2 sqrt(n) it builds one full chunk of
draws (``kernel._chunk_paths(n)`` paths) and walks it, timing the two halves
separately; it also times a whole ``simulate_endpoints`` call of the
benchmark's mc-critical shape (n = 1024, 2e4 paths).  Each figure is the
median of ``--repeats`` runs.

``--src`` picks the ``stickywalk`` source tree (default: this checkout's
``src/``).  A tree whose kernel has no ``_chunk_draws``/``_walk_draws``, the
sampler before the re-keyed chunk stream, is timed through the two halves
of its ``_walk_chunk`` copied below, which are first checked byte for byte
against that ``_walk_chunk``.  ``--before FILE`` embeds an earlier run's
output and adds before/after ratios.  Output is JSON on stdout or ``--out``.
Needs only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

SIZES = (33, 256, 1024)
SIMULATE = {"n": 1024, "paths": 20_000, "seed": 7}


def _per_path_draws(kernel):
    # the chunk draws before re-keying: one new generator per path, path-major
    def draws(n, seed, lo, hi):
        out = np.empty((hi - lo, n))
        for i in range(hi - lo):
            out[i] = kernel.path_rng(seed, lo + i).random(n)
        return out
    return draws


def _xy_walk(u, draws):
    # the (x, y) step loop before the (S, D) walk, over path-major columns
    m, n = draws.shape
    x = np.zeros(m, dtype=np.int64)
    y = np.zeros(m, dtype=np.int64)
    for k in range(n):
        v = draws[:, k]
        b = np.where(x == y, 0.5 * u, 0.5)
        move = (v >= 0.5 * b).astype(np.int64) + (v >= b) + (v >= 0.5 * (1.0 + b))
        x += 1 - 2 * (move & 1)
        y += 1 - 2 * ((move == 1) | (move == 2))
    return x, y


def layers(kernel):
    """(draws, walk, name) of the sampler in ``kernel``."""
    if hasattr(kernel, "_chunk_draws"):
        return kernel._chunk_draws, kernel._walk_draws, "rekeyed-philox-step-major-sd"
    draws = _per_path_draws(kernel)
    u = kernel.StickinessParam(2.0).u
    x, y = _xy_walk(u, draws(40, 3, 5, 300))
    x0, y0 = kernel._walk_chunk(u, 40, 3, 5, 300)
    if not (np.array_equal(x, x0) and np.array_equal(y, y0)):
        raise SystemExit("the copied halves do not reproduce this tree's _walk_chunk")
    return draws, _xy_walk, "per-path-generator-path-major-xy"


def median_s(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(kernel, repeats):
    draws_fn, walk_fn, code = layers(kernel)
    table = {}
    for n in SIZES:
        u = kernel.StickinessParam(2.0 * math.sqrt(n)).u
        paths = kernel._chunk_paths(n)
        draws = draws_fn(n, 7, 0, paths)
        draws_s = median_s(lambda: draws_fn(n, 7, 0, paths), repeats)
        walk_s = median_s(lambda: walk_fn(u, draws), repeats)
        table[f"n={n}"] = {
            "n": n,
            "paths": paths,
            "draws_s": draws_s,
            "walk_s": walk_s,
            "draws_us_per_path": 1e6 * draws_s / paths,
            "walk_ns_per_path_step": 1e9 * walk_s / (paths * n),
        }
        del draws
    p = kernel.StickinessParam(2.0 * math.sqrt(SIMULATE["n"]))
    sim_s = median_s(lambda: kernel.simulate_endpoints(
        p, SIMULATE["n"], SIMULATE["paths"], SIMULATE["seed"]), repeats)
    return {
        "sampler": code,
        "repeats": repeats,
        "layers": table,
        "simulate_endpoints": {**SIMULATE, "delta": p.delta, "s": sim_s,
                               "paths_per_s": SIMULATE["paths"] / sim_s},
    }


def environment():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),  # recorded only; the sampler does not use it
    }


def ratios(before, after):
    """before / after of every timing: > 1 means the change is faster."""
    out = {}
    for key, row in after["layers"].items():
        old = before["layers"][key]
        out[f"{key}.draws_s"] = old["draws_s"] / row["draws_s"]
        out[f"{key}.walk_s"] = old["walk_s"] / row["walk_s"]
        out[f"{key}.draws_plus_walk_s"] = (old["draws_s"] + old["walk_s"]) / (row["draws_s"] + row["walk_s"])
    out["simulate_endpoints.s"] = before["simulate_endpoints"]["s"] / after["simulate_endpoints"]["s"]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--before", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import stickywalk.kernel as kernel

    result = {"env": environment(), **measure(kernel, args.repeats)}
    if args.before:
        before = json.loads(args.before.read_text())
        result = {"before": before, "after": result, "before_over_after": ratios(before, result)}
    text = json.dumps(result, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
