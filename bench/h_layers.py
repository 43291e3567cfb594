"""Time the h recursion layer: one angle, a 15-angle batch, and a 36-point f grid.

    python bench/h_layers.py [--src DIR] [--repeats N] [--before FILE] [--out FILE]

For n = 1024, 4096 and 16384 at delta = 2 sqrt(n) it times
``diag_fourier_sequence`` for one angle and for the 15 distinct
(s + t) / sqrt(n) of the default 6 x 6 sweep grid, and ``char_fn_exact`` over
that whole grid at n = 4096 with its h0 cache cleared.  Each figure is the
median of ``--repeats`` runs.

``--src`` picks the ``stickywalk`` source tree (default: this checkout's
``src/``).  A tree whose recursion takes one angle per call is timed on the
batch as one call per angle, and on the grid as one ``char_fn_exact`` call
per point; the batch output is checked byte for byte against one-angle
calls either way.  ``--before FILE`` embeds an earlier run's output and adds
before/after ratios.  Output is JSON on stdout or ``--out``.  Needs only
the standard library and numpy.
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

SIZES = (1024, 4096, 16384)
AXIS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
GRID_N = 4096


def median_s(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def takes_batches(exact) -> bool:
    try:
        exact.diag_fourier_sequence(1.5, [0.1, 0.2], 1)
    except TypeError:
        return False
    return True


def run(src: Path, repeats: int) -> dict:
    sys.path.insert(0, str(src))
    import stickywalk.exact as exact
    from stickywalk.kernel import StickinessParam

    batched = takes_batches(exact)

    def batch(u, angles, n):
        if batched:
            return exact.diag_fourier_sequence(u, angles, n)
        return np.array([exact.diag_fourier_sequence(u, a, n) for a in angles])

    layers = {}
    for n in SIZES:
        root = math.sqrt(n)
        u = StickinessParam(2.0 * root).u
        angles = sorted({(s + t) / root for s in AXIS for t in AXIS})
        got = batch(u, angles, n)
        for a, row in zip(angles, got):
            if row.tobytes() != exact.diag_fourier_sequence(u, a, n).tobytes():
                raise SystemExit(f"batch row at angle {a} differs from its one-angle call")
        one_s = median_s(lambda: exact.diag_fourier_sequence(u, angles[len(angles) // 2], n),
                         repeats)
        batch_s = median_s(lambda: batch(u, angles, n), repeats if n < 16384 else 3)
        layers[f"n={n}"] = {"n": n, "angles": len(angles), "one_angle_s": one_s,
                            "batch_s": batch_s, "batch_s_per_angle": batch_s / len(angles)}

    p = StickinessParam(2.0 * math.sqrt(GRID_N))
    grid = [(s / math.sqrt(GRID_N), t / math.sqrt(GRID_N)) for s in AXIS for t in AXIS]
    s_arr, t_arr = np.array(grid).T

    def cf_grid():
        exact._h0_prefix.cache_clear()
        if batched:
            return exact.char_fn_exact(p, s_arr, t_arr, GRID_N)
        return [exact.char_fn_exact(p, s, t, GRID_N) for s, t in grid]

    return {
        "env": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                "numpy": np.__version__, "scipy": _version("scipy")},
        "recursion": "batched-frontier" if batched else "per-angle-full-support",
        "repeats": repeats,
        "layers": layers,
        "char_fn_exact_grid": {"n": GRID_N, "points": len(grid), "s": median_s(cf_grid, repeats)},
    }


def _version(name: str) -> str | None:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def ratios(before: dict, after: dict) -> dict:
    out = {}
    for key, layer in after["layers"].items():
        for field in ("one_angle_s", "batch_s"):
            out[f"{key}.{field}"] = before["layers"][key][field] / layer[field]
    out["char_fn_exact_grid.s"] = before["char_fn_exact_grid"]["s"] / after["char_fn_exact_grid"]["s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--before", type=Path, help="an earlier run's JSON output")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    result = run(args.src.resolve(), args.repeats)
    if args.before:
        before = json.loads(args.before.read_text())
        result = {"before": before, "after": result, "before_over_after": ratios(before, result)}
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
