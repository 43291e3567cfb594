"""The four benchmark workloads: seeded inputs, one job, and its output checks.

Each workload draws every per-job value (sampler seed, alpha, delta, angles)
from the benchmark's own seeded ``random.Random``; the program only ever sees
the drawn values.  ``run`` makes the program calls of one job and returns
their outputs and throughput; ``check`` verifies those outputs afterwards,
outside the job's timing.

Every program call goes through a module attribute such as
``stickywalk.kernel.simulate_endpoints``, so the wrappers installed by
``spans.py`` see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from time import perf_counter

import numpy as np
import stickywalk.cli
import stickywalk.exact
import stickywalk.harness
import stickywalk.kernel
import stickywalk.limits
from stickywalk.kernel import StickinessParam

NPROC = len(os.sched_getaffinity(0))

# The sampler's golden output: sha256 of the little-endian int64 x then y
# endpoints of PINNED_CASE (delta = 2 sqrt(n), workers = 1), recorded at the
# commit that introduced this benchmark.  Any change to the sampler's output
# bytes fails this check.
PINNED_CASE = {"n": 1024, "paths": 1000, "seed": 0}
PINNED_ENDPOINT_SHA256 = "016e63c17bc5a984730cf911679b1578c828a4a6c2a21e4554964a6c8b261bba"

# 3x3 grid on which the Monte Carlo cos-projection means are tested, in
# units of sqrt(n) as in the self-test's Monte Carlo check
MC_AXIS = (-1.0, 0.5, 2.0)
MC_SIGMAS = 5.0
# acceptance criterion 5: regime convergence at desk scale
SWEEP_SUP_BOUND = 5e-2
# acceptance criterion 1: exact engine vs enumeration
ENUM_TOL = 1e-12


def endpoint_sha256(sample) -> str:
    digest = hashlib.sha256()
    digest.update(sample.x.astype("<i8").tobytes())
    digest.update(sample.y.astype("<i8").tobytes())
    return digest.hexdigest()


class Workload:
    """``run(params)`` returns (outputs, units of work done, issue-named rates)."""

    name: str
    setup_code: str  # the tiny first call that setup_s times in a fresh interpreter

    def __init__(self, tiny: bool):
        pass

    def reference_checks(self) -> list:
        """Checks made once per run, outside any job."""
        return []


class McCritical(Workload):
    """simulate_endpoints at n = 1024, delta = 2 sqrt(n), workers = 1 and nproc."""

    name = "mc-critical"
    setup_code = (
        "import stickywalk.kernel as k; "
        "k.simulate_endpoints(k.StickinessParam(2.0), 8, 4, 0)"
    )

    def __init__(self, tiny: bool):
        self.n, self.paths = (64, 400) if tiny else (1024, 20_000)
        self.p = StickinessParam(2.0 * math.sqrt(self.n))

    def draw(self, rng) -> dict:
        return {"seed": rng.getrandbits(64)}

    def run(self, params):
        simulate = stickywalk.kernel.simulate_endpoints
        t0 = perf_counter()
        serial = simulate(self.p, self.n, self.paths, params["seed"], workers=1)
        t1 = perf_counter()
        parallel = simulate(self.p, self.n, self.paths, params["seed"], workers=NPROC)
        t2 = perf_counter()
        rates = {"paths_per_s": self.paths / (t1 - t0), "paths_per_s_par": self.paths / (t2 - t1)}
        return (serial, parallel), 2 * self.paths, rates

    def check(self, params, out):
        serial, parallel = out
        same = (serial.x.tobytes() == parallel.x.tobytes()
                and serial.y.tobytes() == parallel.y.tobytes())
        checks = [("mc.workers_identical", same, f"workers=1 vs workers={NPROC}")]
        rn = math.sqrt(self.n)
        for s in MC_AXIS:
            for t in MC_AXIS:
                proj = np.cos((s * serial.x + t * serial.y) / rn)
                mean = float(proj.mean())
                stderr = float(proj.std(ddof=1)) / math.sqrt(self.paths)
                exact = stickywalk.exact.char_fn_exact(self.p, s / rn, t / rn, self.n).real
                gap = abs(mean - exact)
                checks.append((f"mc.cos_mean[{s},{t}]", gap <= MC_SIGMAS * stderr,
                               f"|mc - exact| = {gap:.3e}, {MC_SIGMAS:g} sigma = {MC_SIGMAS * stderr:.3e}"))
        return checks

    def reference_checks(self):
        n = PINNED_CASE["n"]
        p = StickinessParam(2.0 * math.sqrt(n))
        sample = stickywalk.kernel.simulate_endpoints(p, n, PINNED_CASE["paths"], PINNED_CASE["seed"])
        got = endpoint_sha256(sample)
        return [("mc.pinned_endpoint_hash", got == PINNED_ENDPOINT_SHA256, f"sha256 {got}")]


class SweepExact(Workload):
    """run_sweep, critical regime, n = 1024/4096/8192, default grid, paths = 0."""

    name = "sweep-exact"
    setup_code = (
        "import stickywalk.harness as h, stickywalk.limits as l; "
        "h.run_sweep(h.SweepConfig(regime=l.RegimeSpec.critical(2.0), n_list=(4,), grid=((0.5, 0.5),)))"
    )

    def __init__(self, tiny: bool):
        self.n_list = (64, 256, 512) if tiny else (1024, 4096, 8192)

    def draw(self, rng) -> dict:
        return {"alpha": rng.uniform(1.0, 3.0)}

    def run(self, params):
        config = stickywalk.harness.SweepConfig(
            regime=stickywalk.limits.RegimeSpec.critical(params["alpha"]),
            n_list=self.n_list,
            paths=0,
        )
        t0 = perf_counter()
        rows = stickywalk.harness.run_sweep(config)
        return rows, len(rows), {"rows_per_s": len(rows) / (perf_counter() - t0)}

    def check(self, params, rows):
        errors = [row.error for row in rows if row.error]
        checks = [("sweep.no_row_errors", not errors, errors[0] if errors else f"{len(rows)} rows")]
        if errors:
            return checks
        sups = [max(row.err_exact_limit for row in rows if row.n == n) for n in self.n_list]
        text = ", ".join(f"n={n}: {v:.3e}" for n, v in zip(self.n_list, sups))
        checks.append(("sweep.sup_nonincreasing", all(b <= a for a, b in zip(sups, sups[1:])), text))
        checks.append(("sweep.sup_at_largest_n", sups[-1] <= SWEEP_SUP_BOUND,
                       f"{sups[-1]:.3e} <= {SWEEP_SUP_BOUND:g}"))
        return checks


class EnumOracle(Workload):
    """endpoint_distribution(delta, 12), then char_fn_exact vs brute_force_char on 5x5 angles."""

    name = "enum-oracle"
    setup_code = "import stickywalk.exact as e; e.endpoint_distribution(1.0, 2)"

    def __init__(self, tiny: bool):
        self.n = 6 if tiny else 12

    def draw(self, rng) -> dict:
        return {
            "delta": rng.uniform(0.5, 10.0),
            "angles": [rng.uniform(-math.pi, math.pi) for _ in range(5)],
        }

    def run(self, params):
        exact = stickywalk.exact
        p = StickinessParam(params["delta"])
        t0 = perf_counter()
        exact.endpoint_distribution(p.delta, self.n)
        seconds = perf_counter() - t0
        angles = params["angles"]
        pairs = [
            (exact.char_fn_exact(p, s, t, self.n), exact.brute_force_char(p, s, t, self.n))
            for s in angles for t in angles
        ]
        return pairs, 4 ** self.n, {"seqs_per_s": 4 ** self.n / seconds}

    def check(self, params, pairs):
        return [
            ("enum.exact_vs_enumeration", abs(f - b) <= ENUM_TOL, f"|diff| = {abs(f - b):.3e}")
            for f, b in pairs
        ]


class Selftest(Workload):
    """stickywalk.cli.main(["selftest"]): the whole run, through the CLI layer."""

    name = "selftest"
    setup_code = (
        "import stickywalk.cli as c; "
        "c.main(['exact-cf', '--delta', '1', '--n', '2', '--s', '0.1', '--t', '0.2'])"
    )

    def draw(self, rng) -> dict:
        return {}

    def run(self, params):
        buffer = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buffer):
            status = stickywalk.cli.main(["selftest"])
        seconds = perf_counter() - t0
        lines = buffer.getvalue().splitlines()
        report = json.loads("\n".join(lines[lines.index("{"):]))
        checks = len(report["checks"])
        return (status, report), checks, {"checks_per_s": checks / seconds}

    def check(self, params, out):
        status, report = out
        checks = [("selftest.exit_status", status == 0, f"exit {status}")]
        checks.extend((f"selftest.{name}", entry["passed"], entry["detail"])
                      for name, entry in report["checks"].items())
        return checks


WORKLOADS = {cls.name: cls for cls in (McCritical, SweepExact, EnumOracle, Selftest)}
