"""Time each layer of the stickywalk checkout this script sits in, one at a time.

    python bench/layers.py [--repeats N] [--before FILE] [--out FILE]

Each row is timed ``--repeats`` times, at delta = 2 sqrt(n) unless it says
otherwise.  ``"s"`` holds each row's median wall time in seconds, and
``"quartiles"`` its first and third quartiles (inclusive method), so a
reader can see how far the repeats of one run spread:

- ``draws n=N`` and ``walk n=N``: one full chunk of the sampler
  (``kernel._chunk_paths(n)`` paths, seed 7) at n = 33, 256 and 1024: its
  uniforms drawn, classified against the thresholds and transposed into
  the step-major int8 class array, then those classes walked;
- ``simulate_endpoints``: n = 1024, 2e4 paths, seed 7, mc-critical's shape;
- ``h one angle n=N`` and ``h batch n=N``: the h recursion at n = 1024, 4096,
  8192 and 16384, for the middle one and for all of the 15 distinct
  (s + t) / sqrt(n) of the default sweep grid, which come in +- pairs and
  so have 8 distinct cosines, one recursion column each; every batch row must equal its one-angle call byte for byte, or the
  script stops;
- ``char_fn_exact grid``: the 36 points of that grid at n = 4096, in one call;
- ``char_fn_gf grid``: the same 36 points read off the generating function
  on the 33-node contour, in one call, at n = 4096 and at n = 1e6, where
  the recursion does not run (the sweep's route at both n);
- ``exact_covariance n=N``: E[x y] at n = 1e4 and 1e6, each read off its
  generating function on the same contour (the covariance command's route);
- ``char_fn_exact 25 one-point calls n=12``: one call per point of a 5 x 5
  grid of angles drawn uniformly from [-pi, pi) (seed 7), enum-oracle's call
  pattern, one h recursion per call;
- ``endpoint_distribution``: the enumeration oracle at n = 12, its cache
  cleared;
- ``limit_cf grid``: the 36 critical limits of one default-grid sweep at
  alpha = 2, in one call that inverts them on the 33-node contour together,
  one transform row per point;
- ``phi_critical grid``: the same 36 points by the quadrature route, at its
  default tolerance;
- ``run_sweep``: a whole sweep in process at perfbench sweep-exact's shape,
  critical alpha = 2, n = 1024, 4096 and 8192, the default grid and no
  Monte Carlo: the limit column and one contour call per n, and the rows;
- ``import stickywalk.cli``: a fresh interpreter that imports the CLI and
  exits, the set-up every command pays;
- ``stickywalk selftest``, ``stickywalk covariance`` and ``stickywalk sweep``:
  whole commands, each in a fresh interpreter with its output discarded: the
  self-test, ``covariance --alpha 2`` at its default n = 100, 1000, 10000,
  and a standard sweep,
  ``sweep --regime critical --alpha 2 --n 256,1024,4096 --paths 10000``.

Each group of rows (the sampler; h, ``char_fn_exact``, ``char_fn_gf`` and
``exact_covariance``; the enumeration; the critical limit and the sweep; the
fresh interpreters) runs in its own freshly spawned process, one group at a time,
so the heap one group leaves behind cannot slow or speed the next.

To compare two checkouts, run each one's own copy and pass the first one's
output to the second with ``--before``: it is embedded, with the before/after
ratio of the medians of every row both runs timed.  Output is JSON on stdout
or ``--out``.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SEED = 7


def times_s(fn, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def summarise(times: dict[str, list[float]]) -> dict:
    """Each row's median (``"s"``) and [q1, q3] (``"quartiles"``) of its repeat times."""
    def quartiles(values):
        if len(values) < 2:
            return [values[0], values[0]]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return [q1, q3]

    return {"s": {row: statistics.median(v) for row, v in times.items()},
            "quartiles": {row: quartiles(v) for row, v in times.items()}}


def param(n: int):
    from stickywalk import kernel
    return kernel.StickinessParam(2.0 * math.sqrt(n))


def sampler_rows(repeats: int) -> dict[str, list[float]]:
    from stickywalk import kernel

    rows = {}
    for n in (33, 256, 1024):
        u, paths = param(n).u, kernel._chunk_paths(n)
        classes = kernel._chunk_classes(u, n, SEED, 0, paths)
        rows[f"draws n={n}"] = times_s(lambda: kernel._chunk_classes(u, n, SEED, 0, paths), repeats)
        rows[f"walk n={n}"] = times_s(lambda: kernel._walk_draws(u, classes), repeats)
        del classes
    rows["simulate_endpoints n=1024 paths=20000"] = times_s(
        lambda: kernel.simulate_endpoints(param(1024), 1024, 20_000, SEED), repeats)
    return rows


def h_rows(repeats: int) -> dict[str, list[float]]:
    import numpy as np
    from stickywalk import exact
    from stickywalk.harness import default_grid

    rows = {}
    grid = default_grid()
    for n in (1024, 4096, 8192, 16384):
        u = param(n).u
        angles = sorted({(s + t) / math.sqrt(n) for s, t in grid})
        for a, row in zip(angles, exact.diag_fourier_sequence(u, angles, n)):
            if row.tobytes() != exact.diag_fourier_sequence(u, a, n).tobytes():
                raise SystemExit(f"h batch row at angle {a}, n = {n} differs from its one-angle call")
        middle = angles[len(angles) // 2]
        rows[f"h one angle n={n}"] = times_s(lambda: exact.diag_fourier_sequence(u, middle, n), repeats)
        rows[f"h batch n={n}"] = times_s(lambda: exact.diag_fourier_sequence(u, angles, n), repeats)

    s_axis, t_axis = np.array(grid).T / math.sqrt(4096)

    rows["char_fn_exact grid n=4096"] = times_s(
        lambda: exact.char_fn_exact(param(4096), s_axis, t_axis, 4096), repeats)
    for n in (4096, 10 ** 6):
        s_n, t_n = np.array(grid).T / math.sqrt(n)
        rows[f"char_fn_gf grid n={n}"] = times_s(
            lambda: exact.char_fn_gf(param(n), s_n, t_n, n), repeats)
    for n in (10 ** 4, 10 ** 6):
        rows[f"exact_covariance n={n}"] = times_s(
            lambda: exact.exact_covariance(param(n), n), repeats)

    p, rng = param(12), random.Random(SEED)
    angles = [rng.uniform(-math.pi, math.pi) for _ in range(5)]
    rows["char_fn_exact 25 one-point calls n=12"] = times_s(
        lambda: [exact.char_fn_exact(p, s, t, 12) for s in angles for t in angles], repeats)
    return rows


def enumeration_rows(repeats: int) -> dict[str, list[float]]:
    from stickywalk import exact

    def enumeration():
        exact.endpoint_distribution.cache_clear()
        exact.endpoint_distribution(param(12).delta, 12)

    return {"endpoint_distribution n=12": times_s(enumeration, repeats)}


def limit_rows(repeats: int) -> dict[str, list[float]]:
    from stickywalk.harness import SweepConfig, default_grid, run_sweep
    from stickywalk.limits import RegimeSpec, limit_cf, phi_critical

    critical, grid = RegimeSpec.critical(2.0), default_grid()
    s_axis, t_axis = zip(*grid)
    sweep = SweepConfig(regime=critical, n_list=(1024, 4096, 8192), paths=0)
    return {
        "limit_cf grid alpha=2": times_s(lambda: limit_cf(critical, s_axis, t_axis), repeats),
        "phi_critical grid alpha=2": times_s(
            lambda: [phi_critical(2.0, s, t) for s, t in grid], repeats),
        "run_sweep critical alpha=2 n=1024,4096,8192 paths=0": times_s(
            lambda: run_sweep(sweep), repeats),
    }


def fresh_interpreter_rows(repeats: int) -> dict[str, list[float]]:
    cli = ["-m", "stickywalk.cli"]
    runs = {
        "import stickywalk.cli (fresh interpreter)": ["-c", "import stickywalk.cli"],
        "stickywalk selftest (fresh interpreter)": [*cli, "selftest"],
        "stickywalk covariance alpha=2 (fresh interpreter)": [*cli, "covariance", "--alpha", "2"],
        "stickywalk sweep critical alpha=2 n=256,1024,4096 paths=10000 (fresh interpreter)": [
            *cli, "sweep", "--regime", "critical", "--alpha", "2", "--n", "256,1024,4096",
            "--paths", "10000"],
    }
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return {row: times_s(lambda: subprocess.run([sys.executable, *args], env=env, check=True,
                                                stdout=subprocess.DEVNULL), repeats)
            for row, args in runs.items()}


GROUPS = (sampler_rows, h_rows, enumeration_rows, limit_rows, fresh_interpreter_rows)


def measure(repeats: int) -> dict:
    import numpy as np

    rows = {}
    spawn = multiprocessing.get_context("spawn")
    for group in GROUPS:
        # a fresh process per group: a group's heap state (glibc raises its
        # mmap threshold to the largest block freed so far) must not carry
        # into the next group's rows
        with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
            rows.update(pool.submit(group, repeats).result())
    return {
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "numpy": np.__version__},
        "repeats": repeats,
        **summarise(rows),
    }


def ratios(before: dict, after: dict) -> dict:
    """before / after of every row both runs timed: above 1 means ``after`` is faster."""
    return {row: before["s"][row] / s for row, s in after["s"].items() if row in before["s"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--before", type=Path, help="an earlier run's JSON output")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    sys.path.insert(0, str(SRC))
    result = measure(args.repeats)
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
