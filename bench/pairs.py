"""Run one perfbench workload on two checkouts in alternating pairs and summarise.

    python bench/pairs.py --parent DIR --change DIR --workload W
                          [--pairs 10] [--seed0 S] [--seconds 20] [--out FILE]

Pair i runs seed S + i on both checkouts, one run at a time: the parent first
on even i, the change first on odd i.  A run is ``python3 perfbench/run.py
--workload W --seed S+i --seconds T --trace 0`` inside that checkout, and its
last line of output is the JSON result.  The summary gives, per end-to-end
metric of the parent's ``BENCHMARK.json``, each side's median and quartiles
and in how many pairs the change was better (ties count for neither), and
each side's failed and attempted checks; every run's metrics are kept.
Each metric also gets a verdict against its bound in the parent's
``BENCHMARK.json``, the first of these that holds:

- ``gain``: the change won at least 9/10 of the pairs, and its median is
  better than the parent's by more than the parent's interquartile range;
- ``worse``: the change's median is worse than the parent's by more than the
  bound (a fraction of the parent's median);
- ``unresolved``: the parent's interquartile range exceeds the bound times
  its median, and not every change run beats every parent run;
- ``within bound``: any other case.

Before the first run it exits 2 if ``--pairs`` is below 2 (quartiles need
two runs a side), and, naming the files, if ``BENCHMARK.json`` or any
``perfbench/*.py`` differs between the two checkouts, since each side runs
its own copy.  Output is JSON on stdout or ``--out``.  Needs only the
standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def benchmark_differences(parent: Path, change: Path) -> list[str]:
    """The benchmark files whose sha256 differs between two checkouts, or that one lacks."""
    names = {"BENCHMARK.json"} | {f"perfbench/{path.name}" for checkout in (parent, change)
                                  for path in (checkout / "perfbench").glob("*.py")}

    def digest(path: Path) -> str | None:
        return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None

    return sorted(name for name in names if digest(parent / name) != digest(change / name))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def wins(parent: list[float], change: list[float], lower: bool) -> int:
    """Pairs in which the change reads better; ties count for neither side."""
    return sum((c < p) if lower else (c > p) for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], lower: bool, bound: float) -> str:
    """``gain``, ``worse``, ``unresolved`` or ``within bound``, as the module docstring says."""
    p, c = spread(parent), spread(change)
    iqr = p["q3"] - p["q1"]
    gain = (p["median"] - c["median"]) if lower else (c["median"] - p["median"])
    if 10 * wins(parent, change, lower) >= 9 * len(parent) and gain > iqr:
        return "gain"
    if -gain > bound * abs(p["median"]):
        return "worse"
    every_run_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if iqr > bound * abs(p["median"]) and not every_run_better:
        return "unresolved"
    return "within bound"


def summarise(metrics: list[dict], runs: dict) -> dict:
    out = {}
    for metric in metrics:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        lower = metric["better"] == "lower"
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "parent": spread(parent), "change": spread(change),
                     "change_better_in": f"{wins(parent, change, lower)}/{len(parent)}"}
        if "bound" in metric:
            out[name]["verdict"] = verdict(parent, change, lower, metric["bound"])
    for side in ("parent", "change"):
        out[f"failed_of_attempted.{side}"] = [sum(r["failed"] for r in runs[side]),
                                              sum(r["attempted"] for r in runs[side])]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 2:  # quartiles need at least two runs a side
        parser.error(f"--pairs must be at least 2, got {args.pairs}")
    differ = benchmark_differences(args.parent, args.change)
    if differ:
        parser.error("the checkouts run different benchmarks: " + ", ".join(differ))
    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            result = run_once(checkout, args.workload, args.seed0 + i, args.seconds)
            runs[side].append(result)
            print(f"pair {i} {side}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)
    report = {
        "workload": args.workload,
        "how": f"perfbench/run.py --workload {args.workload} --seed S --seconds {args.seconds:g} "
               "--trace 0, one checkout at a time",
        "seeds": f"{args.seed0}-{args.seed0 + args.pairs - 1}",
        "pairs": args.pairs,
        "order": "alternating; even pairs parent first",
        **summarise(metrics, runs),
        "runs": {side: [{k: v["value"] for k, v in r["metrics"].items()} for r in runs[side]]
                 for side in runs},
    }
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
