"""The pure parts of the bench/ scripts: pair summaries, the benchmark guard, layer summaries
and ratios; and what perfbench's tracer needs of the package."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _load(name, directory=BENCH):
    spec = importlib.util.spec_from_file_location(f"{directory.name}_{name}",
                                                  directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _load("pairs")
layers = _load("layers")


def _runs(values):
    return [{"metrics": {"job_s": {"value": v}, "work_per_s": {"value": 1.0 / v}},
             "failed": 0, "attempted": 4} for v in values]


def test_summarise_ties_count_for_neither_side_and_quartiles_are_inclusive():
    metrics = [{"name": "job_s", "unit": "s", "better": "lower"},
               {"name": "work_per_s", "unit": "1/s", "better": "higher"}]
    runs = {"parent": _runs([1.0, 2.0, 3.0, 4.0, 5.0]), "change": _runs([1.0, 1.0, 4.0, 4.0, 4.0])}
    out = pairs.summarise(metrics, runs)
    # pairs: tie, better, worse, tie, better
    assert out["job_s"]["change_better_in"] == "2/5"
    assert out["work_per_s"]["change_better_in"] == "2/5"
    assert out["job_s"]["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}  # exclusive: 1.5, 4.5
    assert out["failed_of_attempted.change"] == [0, 20]


@pytest.mark.parametrize("parent, change, want", [
    # wins 9/10, median 0.2 better against a parent IQR of 0.075
    ([1.0, 1.05, 0.95, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.0],
     [0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 1.1], "gain"),
    # wins 10/10, but by less than the parent's IQR of 0.075
    ([1.0, 1.05, 0.95, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.0],
     [0.99, 1.04, 0.94, 1.09, 0.89, 0.99, 1.04, 0.94, 0.99, 0.99], "within bound"),
    # median 30% worse against a bound of 25%
    ([1.0] * 10, [1.3] * 10, "worse"),
    # parent IQR/median 0.4 exceeds the bound, and the runs overlap
    ([0.8, 1.2, 0.8, 1.2, 1.0, 0.8, 1.2, 0.8, 1.2, 1.0],
     [1.1, 0.7, 1.1, 0.7, 0.9, 1.1, 0.7, 1.1, 0.7, 0.9], "unresolved"),
    # the same spread, but every change run beats every parent run
    ([0.8, 1.2, 0.8, 1.2, 1.0, 0.8, 1.2, 0.8, 1.2, 1.0],
     [0.7, 0.75, 0.7, 0.75, 0.7, 0.75, 0.7, 0.75, 0.7, 0.75], "within bound"),
])
def test_summarise_verdict_per_metric(parent, change, want):
    metrics = [{"name": "job_s", "unit": "s", "better": "lower", "bound": 0.25},
               {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}]
    out = pairs.summarise(metrics, {"parent": _runs(parent), "change": _runs(change)})
    assert out["job_s"]["verdict"] == want
    # work_per_s = 1 / job_s: a higher-is-better metric reaches the same verdict
    if want != "worse":  # 1/1.3 is 23% lower, inside the bound
        assert out["work_per_s"]["verdict"] == want


def _checkout(root, run_py="print(1)\n"):
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text('{"end_to_end": []}\n')
    (root / "perfbench" / "run.py").write_text(run_py)
    return root


def test_pairs_refuses_checkouts_with_different_benchmarks(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent")
    change = _checkout(tmp_path / "change")
    assert pairs.benchmark_differences(parent, change) == []
    (change / "perfbench" / "run.py").write_text("print(2)\n")
    (change / "perfbench" / "extra.py").write_text("")
    (change / "perfbench" / "notes.txt").write_text("not part of the benchmark")
    assert pairs.benchmark_differences(parent, change) == ["perfbench/extra.py", "perfbench/run.py"]
    with pytest.raises(SystemExit) as info:
        pairs.main(["--parent", str(parent), "--change", str(change), "--workload", "w"])
    assert info.value.code == 2
    assert "perfbench/extra.py, perfbench/run.py" in capsys.readouterr().err
    (change / "BENCHMARK.json").write_text("{}\n")
    assert "BENCHMARK.json" in pairs.benchmark_differences(parent, change)


@pytest.mark.parametrize("pairs_flag", ["0", "1"])
def test_pairs_refuses_fewer_than_two_pairs(tmp_path, capsys, pairs_flag):
    # run.py would fail if run: the refusal comes before the first run
    parent = _checkout(tmp_path / "parent", run_py="raise SystemExit(1)\n")
    change = _checkout(tmp_path / "change", run_py="raise SystemExit(1)\n")
    with pytest.raises(SystemExit) as info:
        pairs.main(["--parent", str(parent), "--change", str(change), "--workload", "w",
                    "--pairs", pairs_flag])
    assert info.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err


def test_layer_ratios_cover_the_rows_both_runs_timed():
    before = {"s": {"walk n=33": 2.0, "h batch n=1024": 0.5, "gone": 1.0}}
    after = {"s": {"walk n=33": 1.0, "h batch n=1024": 1.0, "new": 3.0}}
    assert layers.ratios(before, after) == {"walk n=33": 2.0, "h batch n=1024": 0.5}


def test_layer_summary_keeps_medians_and_adds_quartiles():
    times = {"draws n=1024": [0.5, 0.1, 0.3, 0.2, 0.4], "walk n=33": [2.0]}
    out = layers.summarise(times)
    # "s" stays the median that --before ratios read
    assert out["s"] == {"draws n=1024": 0.3, "walk n=33": 2.0}
    assert out["quartiles"] == {"draws n=1024": [0.2, 0.4], "walk n=33": [2.0, 2.0]}
    assert layers.ratios({"s": {"draws n=1024": 0.6}}, out) == {"draws n=1024": 2.0}


def test_layers_refuses_no_repeats(capsys):
    with pytest.raises(SystemExit) as info:
        layers.main(["--repeats", "0"])
    assert info.value.code == 2
    assert "--repeats" in capsys.readouterr().err


def test_layers_limit_group_runs():
    # the limit group in process, one repeat: a row that no longer runs
    # against the package fails here, not only when the table is timed
    rows = layers.limit_rows(1)
    assert list(rows) == ["limit_cf grid alpha=2", "phi_critical grid alpha=2",
                          "run_sweep critical alpha=2 n=1024,4096,8192 paths=0"]
    assert all(len(times) == 1 and times[0] > 0.0 for times in rows.values())


def test_perfbench_tracer_finds_what_it_wraps():
    # perfbench/spans.py wraps package functions by name and reads some of
    # their arguments: a rename or a dropped parameter here would break the
    # benchmark run, not this suite, without this check
    spans = _load("spans", ROOT / "perfbench")
    for _, module, name in spans.SPANNED:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    for names in spans.COUNTED.values():
        for name in names:
            assert callable(getattr(spans.stickywalk.specfun, name, None)), name
    kernel, exact = spans.stickywalk.kernel, spans.stickywalk.exact
    assert {"p", "n", "paths", "seed", "workers"} <= set(
        inspect.signature(kernel.simulate_endpoints).parameters)
    assert callable(exact.endpoint_distribution.cache_info)
    assert callable(kernel.path_rng)


def test_layers_reaches_only_names_the_package_has():
    # bench/layers.py times sampler and exact internals it reaches by name: a
    # rename would break its layer table, not this suite, without this check
    tree = ast.parse((BENCH / "layers.py").read_text())
    wanted = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "stickywalk":
            wanted.update((node.module, alias.name) for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in ("kernel", "exact")):
            wanted.add((f"stickywalk.{node.value.id}", node.attr))
    assert {"_chunk_paths", "_chunk_classes", "_walk_draws", "char_fn_gf"} <= {n for _, n in wanted}
    # __import__ with a fromlist resolves a name as `from module import name` does
    missing = [f"{module}.{name}" for module, name in sorted(wanted)
               if not hasattr(__import__(module, fromlist=[name]), name)]
    assert not missing
