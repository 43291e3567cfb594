"""stickywalk benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Jobs run back to back (a closed loop, one client) in this one process for
``--seconds`` seconds; each starts with the package's caches cleared, as a
fresh CLI call would.  Every per-job input is drawn from ``--seed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs, prints the per-layer metrics of the traced ones
and the tracing overhead, and writes the spans under ``perfbench/results/``.
Every run appends its result, inputs and environment to
``perfbench/results/runs.jsonl``.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPS = 5

END_TO_END = {
    "job_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every job, for the smoke test")
    return parser.parse_args(argv)


def import_package():
    """Import stickywalk from this checkout's src/, never from elsewhere."""
    if not (SRC / "stickywalk" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {SRC / 'stickywalk'}; run from a stickywalk checkout")
    sys.path.insert(0, str(SRC))
    import stickywalk

    if Path(stickywalk.__file__).resolve().parent != SRC / "stickywalk":
        raise SystemExit(f"error: imported stickywalk from {stickywalk.__file__}, not {SRC}")


def measure_setup(code: str, reps: int) -> list[float]:
    """Wall seconds of fresh interpreters that import the package and make one tiny call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls with sleeps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def clear_caches(modules) -> None:
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def tail_percentile(values):
    """(p, value) for the highest percentile with at least ten samples beyond it."""
    k = len(values)
    if k <= 20:
        return None
    p = int(100 * (k - 10) / k)
    return p, sorted(values)[max(0, -(-p * k // 100) - 1)]


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "stickywalk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def run_jobs(workload, args):
    """Run jobs until --seconds have passed; return the per-job records and checks."""
    import spans

    rng = random.Random(args.seed)
    jobs, checks = [], []
    start = time.perf_counter()

    def enough():
        if time.perf_counter() - start < args.seconds:
            return False
        return not args.trace or any(j["traced"] for j in jobs)

    while not jobs or not enough():
        params = workload.draw(rng)
        traced = bool(args.trace) and len(jobs) % 2 == 1
        tracer = spans.Tracer()
        clear_caches(spans.MODULES)
        gc.collect()
        job = {"params": params, "traced": traced, "work": 0, "rates": {}}
        t0 = time.perf_counter()
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                out, job["work"], job["rates"] = workload.run(params)
                job["wall_s"] = time.perf_counter() - t0
            checks.extend(workload.check(params, out))
        except Exception as exc:  # a failing job is counted and the run goes on
            traceback.print_exc()
            job.setdefault("wall_s", time.perf_counter() - t0)
            checks.append((f"{workload.name}.job", False, f"{type(exc).__name__}: {exc}"))
        if traced:
            job["layers"] = spans.job_metrics(tracer.spans, tracer.counts,
                                              spans.replay_streams(tracer.spans))
            job["spans"] = tracer.spans
        jobs.append(job)
    return jobs, checks


def end_to_end(jobs, setup):
    """End-to-end metrics of an untraced run, and the report lines that explain them."""
    walls = [j["wall_s"] for j in jobs]
    values = {
        "job_s": statistics.median(walls),
        "work_per_s": statistics.median(j["work"] / j["wall_s"] for j in jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    lines = [f"{'setup_s':16s} {values['setup_s']:.6g} s  (median of {len(setup)} fresh interpreters)",
             f"{'job_s':16s} {values['job_s']:.6g} s  (median of {len(jobs)} jobs)"]
    tail = tail_percentile(walls)
    if tail:
        lines.append(f"{'job_s p' + str(tail[0]):16s} {tail[1]:.6g} s  ({len(jobs)} jobs)")
    lines.append(f"{'work_per_s':16s} {values['work_per_s']:.6g} 1/s  (median of {len(jobs)} jobs)")
    for key in jobs[0]["rates"]:
        series = [j["rates"][key] for j in jobs if key in j["rates"]]
        lines.append(f"{key:16s} {statistics.median(series):.6g} 1/s  (median of {len(series)} jobs)")
    lines.append(f"{'peak_rss_mb':16s} {values['peak_rss_mb']:.6g} MB  (peak of this process)")
    return values, lines


def per_layer(jobs):
    """Per-layer metrics of a traced run (medians over its traced jobs), with report lines."""
    import spans

    traced = [j for j in jobs if j["traced"]]
    plain = [j["wall_s"] for j in jobs if not j["traced"]]
    values = {key: statistics.median(j["layers"][key] for j in traced)
              for key in spans.PER_LAYER if not key.startswith("trace.")}
    values["trace.job_s"] = statistics.median(j["wall_s"] for j in traced)
    values["trace.overhead_s"] = values["trace.job_s"] - statistics.median(plain)
    lines = [f"{key:40s} {values[key]:.6g} {unit}" for key, unit in spans.PER_LAYER.items()]
    lines.append(f"(per job: median of {len(traced)} traced jobs; "
                 f"trace.overhead_s against {len(plain)} untraced jobs of this run)")
    return values, lines


def measure(workload, args) -> dict:
    """One run of one workload: metrics, checks and environment, also stored on disk."""
    import spans

    setup = [] if args.trace else measure_setup(workload.setup_code, 1 if args.size == "tiny" else SETUP_REPS)
    with contextlib.redirect_stdout(None):
        exec(workload.setup_code, {})  # the same first call in this process, untimed
    checks = list(workload.reference_checks())
    jobs, job_checks = run_jobs(workload, args)
    checks.extend(job_checks)
    failed = [c for c in checks if not c[1]]

    values, lines = per_layer(jobs) if args.trace else end_to_end(jobs, setup)
    units = spans.PER_LAYER if args.trace else END_TO_END
    fail_frac = len(failed) / len(checks)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  jobs {len(jobs)}")
    print("\n".join(lines))
    print(f"{'fail_frac':16s} {fail_frac:.6g}  ({len(failed)} of {len(checks)} checks failed)")
    for name, _, detail in failed:
        print(f"FAILED {name}: {detail}")

    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "time": time.time(),
        **result, "fail_frac": fail_frac,
        "setup_s_all": setup, "job_s_all": [j["wall_s"] for j in jobs],
        "traced_jobs": [j["traced"] for j in jobs],
        "params": [j["params"] for j in jobs],
        "failed_checks": [[name, detail] for name, _, detail in failed],
        "env": environment(),
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if args.trace:
        trace = [{"job": i, "spans": j["spans"]} for i, j in enumerate(jobs) if j["traced"]]
        (RESULTS / f"trace-{workload.name}-seed{args.seed}.json").write_text(json.dumps(trace) + "\n")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    # One process with at most nproc threads, the sampler's own workers: BLAS
    # gets no pool of its own.  Set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](tiny=args.size == "tiny")
    result = measure(workload, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
