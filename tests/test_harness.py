import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stickywalk.exact as exact
import stickywalk.harness as harness
import stickywalk.limits as limits
import stickywalk.specfun as specfun
from stickywalk.cli import main
from stickywalk.exact import CouplingVariant, char_fn_exact, char_fn_gf
from stickywalk.harness import (
    CHECKS,
    Check,
    SweepConfig,
    run_check,
    run_covariance,
    run_selftest,
    run_sweep,
    write_report,
)
from stickywalk.kernel import StickinessParam
from stickywalk.limits import RegimeSpec

from oracles import per_angle_h_sequence


def test_sweep_config_validation():
    regime = RegimeSpec.critical(1.0)
    with pytest.raises(ValueError):
        SweepConfig(regime=regime, n_list=(64, 64), grid=((1.0, 1.0),))
    with pytest.raises(ValueError):
        SweepConfig(regime=regime, n_list=(128, 64), grid=((1.0, 1.0),))
    with pytest.raises(ValueError):
        SweepConfig(regime=regime, n_list=(), grid=((1.0, 1.0),))
    with pytest.raises(ValueError):
        SweepConfig(regime=regime, n_list=(64,), grid=())
    with pytest.raises(ValueError):
        SweepConfig(regime=regime, n_list=(64,), grid=((1.0, 1.0),), paths=-1)
    with pytest.raises(ValueError):  # one path has no standard error
        SweepConfig(regime=regime, n_list=(64,), grid=((1.0, 1.0),), paths=1)
    for grid in (((math.nan, 1.0),), ((1.0, 1.0), (0.5, math.inf)), ((-math.inf, 0.0),)):
        with pytest.raises(ValueError):
            SweepConfig(regime=regime, n_list=(64,), grid=grid)
    for n_list in ((2.5, 7.9), (64, 128.5), (math.inf,), (math.nan,)):  # once (2, 7), or OverflowError
        with pytest.raises(ValueError, match="integer"):
            SweepConfig(regime=regime, n_list=n_list, grid=((1.0, 1.0),))


def test_sweep_config_refuses_an_unknown_coupling():
    regime = RegimeSpec.critical(1.0)
    with pytest.raises(ValueError, match="CouplingVariant"):
        SweepConfig(regime=regime, n_list=(64,), coupling="kernel")
    config = SweepConfig(regime=regime, n_list=(64,), coupling="paper-prop2")
    assert config.coupling is CouplingVariant.PAPER


def test_sweep_config_rejects_tolerances_dict():
    # no open tolerance dict: a misspelled key there would run at the default
    with pytest.raises(TypeError):
        SweepConfig(regime=RegimeSpec.critical(1.0), n_list=(64,), tolerances={"qaud": 1e-3})


def _small_config(paths=0):
    return SweepConfig(
        regime=RegimeSpec.critical(2.0),
        n_list=(64, 128),
        grid=((1.0, 1.0), (0.5, -1.0)),
        paths=paths,
        seed=13,
    )


def test_run_sweep_rows_are_recomputable():
    rows = run_sweep(_small_config(paths=2000))
    assert [(r.n, r.s, r.t) for r in rows] == [
        (64, 1.0, 1.0), (64, 0.5, -1.0), (128, 1.0, 1.0), (128, 0.5, -1.0)
    ]
    for row in rows:
        assert row.error == ""
        assert row.delta == pytest.approx(2.0 * math.sqrt(row.n))
        root = math.sqrt(row.n)
        # sweep's route at these n; test_acceptance[gf_route] holds it to the recursion
        f_exact = char_fn_gf(StickinessParam(row.delta), row.s / root, row.t / root, row.n).real
        assert row.f_exact == pytest.approx(f_exact, abs=1e-15)
        assert row.err_exact_limit == pytest.approx(abs(row.f_exact - row.f_limit), abs=1e-18)
        assert row.err_mc_exact == pytest.approx(abs(row.f_mc - row.f_exact), abs=1e-18)
        assert row.mc_stderr > 0.0


def test_run_sweep_deterministic_bytes():
    a = write_report(run_sweep(_small_config(paths=500)), fmt="csv")
    b = write_report(run_sweep(_small_config(paths=500)), fmt="csv")
    assert a == b
    # 17 significant digits round-trip through the CSV text
    header, *lines = a.strip().splitlines()
    names = header.split(",")
    rows = run_sweep(_small_config(paths=500))
    for line, row in zip(lines, rows):
        cells = dict(zip(names, line.split(",")))
        assert float(cells["f_exact"]) == row.f_exact
        assert float(cells["f_mc"]) == row.f_mc


def test_run_sweep_supercritical_degenerate_direction():
    config = SweepConfig(
        regime=RegimeSpec.supercritical(),
        n_list=(256,),
        grid=((1.0, -1.0),),
    )
    row = run_sweep(config)[0]
    assert row.f_limit == 1.0
    assert abs(row.f_exact - 1.0) <= 0.2
    assert row.f_mc is None and row.mc_stderr is None


def test_run_sweep_critical_limit_integrates_nothing(monkeypatch):
    # the contour replaces the quadrature; (-4, 4) and (4, -4) once failed it
    grid = ((-4.0, -4.0), (-4.0, 4.0), (4.0, -4.0), (4.0, 4.0), (1.0, 1.0), (0.5, 0.0))
    want = [limits.phi_critical(2.0, s, t, tol=1e-12) for s, t in grid]

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep integrated")

    monkeypatch.setattr(specfun, "integrate_01", refuse)
    monkeypatch.setattr(limits, "integrate_01", refuse)
    rows = run_sweep(SweepConfig(regime=RegimeSpec.critical(2.0), n_list=(16,), grid=grid))
    assert [row.error for row in rows] == [""] * len(grid)
    assert max(abs(row.f_limit - w) for row, w in zip(rows, want)) <= 1e-12


def test_run_sweep_isolates_row_failures(monkeypatch):
    real = harness.limit_cf

    def poisoned(regime, s, t):
        if s == 0.5:
            raise RuntimeError("poisoned grid point")
        return real(regime, s, t)

    monkeypatch.setattr(harness, "limit_cf", poisoned)
    rows = run_sweep(_small_config())
    bad = [r for r in rows if r.error]
    good = [r for r in rows if not r.error]
    assert len(bad) == 2 and all(r.s == 0.5 for r in bad)
    assert all("RuntimeError" in r.error for r in bad)
    assert len(good) == 2 and all(r.f_exact is not None for r in good)


def _per_point_char_fn(p, s, t, n, variant=CouplingVariant.KERNEL):
    """char_fn_exact as it ran before: one per-angle h recursion per point."""
    values = []
    for a, b in zip(s.tolist(), t.tolist()):
        cc = math.cos(a) * math.cos(b)
        h0 = per_angle_h_sequence(p.u, a + b, n - 1)
        powers = cc ** np.arange(n - 1, -1, -1, dtype=np.float64)
        values.append(cc ** n + exact.coupling_coefficient(p, a, b, variant) * float(powers @ h0))
    return np.array(values, dtype=np.complex128)


def test_run_sweep_bytes_match_per_point_recursion(monkeypatch):
    # each n has one grid point with s + t = pi once scaled, outside
    # char_fn_gf's domain, so the sweep takes the recursion at every n
    axis, n_list = (-2.0, 0.5, 1.0), (64, 300, 1024)
    far = tuple((math.pi * math.sqrt(n) / 2,) * 2 for n in n_list)
    config = SweepConfig(regime=RegimeSpec.critical(1.37), n_list=n_list,
                         grid=tuple((s, t) for s in axis for t in axis) + far, paths=300, seed=5)
    batched = write_report(run_sweep(config), fmt="csv")
    monkeypatch.setattr(exact, "char_fn_gf", None)
    assert write_report(run_sweep(config), fmt="csv") == batched
    monkeypatch.setattr(exact, "char_fn_exact", _per_point_char_fn)
    assert write_report(run_sweep(config), fmt="csv") == batched


def test_run_sweep_runs_one_h_column_per_distinct_cosine(monkeypatch):
    # the default grid's 15 distinct (s + t) / sqrt(n) come in +- pairs:
    # 8 distinct cosines, so 8 recursion columns at each n (below n = 16,
    # outside char_fn_gf's domain, the sweep takes the recursion)
    sizes = []
    real = exact._h_steps

    def spying(u, ct, j, col):
        sizes.append(ct.size)
        return real(u, ct, j, col)

    monkeypatch.setattr(exact, "_h_steps", spying)
    config = SweepConfig(regime=RegimeSpec.critical(2.0), n_list=(4, 9, 15))
    assert not any(row.error for row in run_sweep(config))
    assert sizes == [8, 8, 8]


def test_variant_measurements_run_one_recursion_per_n(monkeypatch):
    # both couplings share one char_fn_exact call, so one h recursion
    lengths = []
    real = exact._h_steps

    def spying(u, ct, j, col):
        lengths.append(col.shape[0])
        return real(u, ct, j, col)

    monkeypatch.setattr(exact, "_h_steps", spying)
    harness.variant_sup_gaps((-2.0, 0.5, 1.0), (64, 256))
    harness.variant_values(1.0, 0.4, -1.1, 9, paper_exact=0.0, kernel_exact=0.0)
    assert lengths == [64, 256, 9]


def test_run_sweep_holds_no_h_arrays_after_return(monkeypatch):
    # an alpha scan at n = 2048 on the default grid plus one point with
    # s + t = pi once scaled, outside char_fn_gf's domain, so each sweep runs
    # the h recursion: each call's h rows (16 distinct angles x 2048 doubles,
    # 256 KiB) are freed when it returns, none kept for a later call
    n = 2048
    grid = harness.default_grid() + ((math.pi * math.sqrt(n) / 2,) * 2,)
    recursions = []
    real = exact._h_steps

    def spying(u, ct, j, col):
        recursions.append(col.shape[0])
        return real(u, ct, j, col)

    monkeypatch.setattr(exact, "_h_steps", spying)

    def sweep(alpha):
        run_sweep(SweepConfig(regime=RegimeSpec.critical(alpha), n_list=(n,), grid=grid))

    sweep(1.0)  # first-call allocations are not counted
    tracemalloc.start()
    try:
        for alpha in (1.1, 1.3, 1.7, 2.3):
            sweep(alpha)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert recursions == [n] * 5
    assert held < 16 * n * 8 // 4


def test_run_sweep_computes_each_limit_once(monkeypatch):
    calls = []
    real = harness.limit_cf

    def counting(regime, s, t):
        calls.append((s, t))
        return real(regime, s, t)

    monkeypatch.setattr(harness, "limit_cf", counting)
    config = SweepConfig(regime=RegimeSpec.critical(2.0), n_list=(16, 32, 64),
                         grid=((1.0, 1.0), (0.5, -1.0)))
    rows = run_sweep(config)
    assert calls == list(config.grid)
    assert [row.f_limit for row in rows[:2]] * 3 == [row.f_limit for row in rows]


def test_run_sweep_isolates_per_n_failures():
    # paths * n > 2**31 at every n: the sampler refuses before any work, each
    # row of that n carries the error, and the run goes on to the next n
    config = SweepConfig(regime=RegimeSpec.critical(2.0), n_list=(3, 4),
                         grid=((1.0, 1.0), (0.5, -1.0)), paths=2 ** 30)
    rows = run_sweep(config)
    assert [(r.n, r.s, r.t) for r in rows] == [
        (3, 1.0, 1.0), (3, 0.5, -1.0), (4, 1.0, 1.0), (4, 0.5, -1.0)
    ]
    for row in rows:
        assert row.error.startswith("CapacityError: paths * n")
        assert row.f_exact is None and row.f_mc is None and row.f_limit is None


def test_run_sweep_skips_simulation_the_exact_side_refuses(monkeypatch):
    # at n = big both routes refuse: s = t = pi sqrt(big) / 2 puts s + t at pi
    # once scaled, where rho = 1 keeps char_fn_gf out, and the h recursion
    # refuses n over its budget; no sample is drawn for that n, but the n
    # before it is still simulated
    calls = []
    real = harness.simulate_endpoints

    def counting(p, n, paths, seed):
        calls.append(n)
        return real(p, n, paths, seed)

    monkeypatch.setattr(harness, "simulate_endpoints", counting)
    big = 2 * exact._H_MAX_N
    far = math.pi * math.sqrt(big) / 2
    config = SweepConfig(regime=RegimeSpec.critical(2.0), n_list=(64, big),
                         grid=((1.0, 1.0), (far, far)), paths=100)
    rows = run_sweep(config)
    assert calls == [64]
    assert [(r.n, r.s, r.t) for r in rows] == [
        (64, 1.0, 1.0), (64, far, far), (big, 1.0, 1.0), (big, far, far)
    ]
    assert all(r.error == "" and r.f_mc is not None for r in rows[:2])
    for row in rows[2:]:
        assert row.error.startswith("CapacityError: the O(n^1.5) h recursion")
        assert row.f_exact is None and row.f_mc is None


def test_run_covariance_columns():
    rows = run_covariance(1e3, n_list=(64, 256))
    for row in rows:
        assert row.error == ""
        assert row.mc is None and row.mc_stderr is None
        assert abs(row.limit - 1.0) <= 1e-2
    rows = run_covariance(2.0, n_list=(64,), paths=500, seed=3)
    assert rows[0].mc is not None and rows[0].mc_stderr > 0.0
    assert rows[0].err_mc_exact == pytest.approx(abs(rows[0].mc - rows[0].exact))


@pytest.mark.parametrize("paths", [1, -5])
def test_run_covariance_refuses_paths_without_a_standard_error(paths):
    # -5 once skipped the Monte Carlo silently, and 1 wrote mc_stderr = nan
    with pytest.raises(ValueError, match="paths must be 0"):
        run_covariance(2.0, n_list=(64,), paths=paths)


@pytest.mark.parametrize("n_list", [(), (0,), (-3,), (64, 0), (math.nan,), (2.5,), (math.inf,)])
def test_run_covariance_refuses_bad_n_list(monkeypatch, n_list):
    # (0,) once wrote a ZeroDivisionError row, (-3,) escaped math.sqrt, (2.5,)
    # wrote a TypeError row and (inf,) escaped int(); refused before any work
    monkeypatch.setattr(harness, "covariance_limit", lambda *args: pytest.fail("work started"))
    with pytest.raises(ValueError, match="n_list must be nonempty"):
        run_covariance(2.0, n_list=n_list)


def test_report_json_roundtrip(tmp_path):
    rows = run_covariance(2.0, n_list=(64,))
    out = tmp_path / "report.json"
    text = write_report(rows, out=out, fmt="json")
    assert out.read_text() == text
    parsed = json.loads(text)
    assert parsed[0]["n"] == 64
    assert parsed[0]["limit"] == rows[0].limit
    with pytest.raises(ValueError):
        write_report(rows, fmt="xml")


def test_selftest_passes_for_both_couplings():
    # one run covers both couplings: normalization_symmetry loops over them
    report = run_selftest()
    assert report["passed"], {k: v for k, v in report["checks"].items() if not v["passed"]}
    assert set(report) == {"passed", "checks"}
    # perfbench's selftest work_per_s counts these checks, so their number is pinned
    assert list(report["checks"]) == [
        "kernel_unit", "kernel_statistics", "oracle_equivalence", "variant_discrimination",
        "variant_asymptotics", "normalization_symmetry", "gf_identity", "special_functions",
        "ell_transform", "laplace_limits", "quadrature_order", "critical_routes",
        "covariance_consistency", "mc_agreement"]
    # every row prints each bounded value next to its bound
    for check in CHECKS:
        if check.quick is not None:
            detail = report["checks"][check.name]["detail"]
            for key, bound in check.quick[1].items():
                shown = "(<= 0)" if bound == 0 else f"(< {bound!r})"
                assert re.search(rf"(^|, ){key} = [^,]+ {re.escape(shown)}", detail), (key, detail)


def test_check_table_shape():
    assert Check._fields == ("name", "measure", "quick", "full")
    names = [check.name for check in CHECKS]
    assert len(set(names)) == len(names)
    for check in CHECKS:
        assert check.quick is not None or check.full is not None, check.name
        # each side is (params, bounds), and every bound a finite number >= 0
        for side in (check.quick, check.full):
            if side is not None:
                params, bounds = side
                assert isinstance(params, dict) and bounds, check.name
                for key, bound in bounds.items():
                    assert type(bound) in (int, float), (check.name, key, bound)
                    assert math.isfinite(bound) and bound >= 0, (check.name, key, bound)
    # a quick-only row is an invariant no acceptance entry measures; a quick
    # slice of a measurement that has a full run belongs on that entry
    assert {check.name for check in CHECKS if check.full is None} == {
        "kernel_unit", "kernel_statistics", "normalization_symmetry", "quadrature_order"}


def test_selftest_negative_control(monkeypatch):
    corrupted = list(specfun.ERFC_TABLE)
    x, v = corrupted[23]
    corrupted[23] = (x, v * (1.0 + 1e-6))
    monkeypatch.setattr(specfun, "ERFC_TABLE", tuple(corrupted))
    report = run_selftest()
    assert not report["passed"]
    assert not report["checks"]["special_functions"]["passed"]
    # unrelated suites stay green
    assert report["checks"]["gf_identity"]["passed"]


def test_selftest_fails_on_nan_gap(monkeypatch):
    monkeypatch.setattr(harness, "gf_closed_form", lambda *args: complex(math.nan))
    report = run_selftest()
    assert not report["passed"]
    assert not report["checks"]["gf_identity"]["passed"]
    assert report["checks"]["special_functions"]["passed"]


def test_covariance_routes_negative_control(monkeypatch):
    # a covariance limit 1e-11 off its quadrature fails both sides
    check = {check.name: check for check in CHECKS}["covariance_consistency"]
    monkeypatch.setattr(harness, "covariance_limit", lambda alpha: 1e-11 + specfun.integrate_01(
        lambda v: specfun.erfcx_real(2 * math.sqrt(v) / alpha), tol=1e-13))
    for side in ("quick", "full"):
        passed, detail = run_check(check, side)
        assert not passed and "routes = 1e-11 (< 1e-12)" in detail, detail


def test_mc_agreement_parity_negative_control(monkeypatch):
    # one endpoint moved by 1 has the wrong parity, and fails mc_agreement
    check = {check.name: check for check in CHECKS}["mc_agreement"]
    real = harness.simulate_endpoints

    def shifted(*args, **kwargs):
        sample = real(*args, **kwargs)
        x = sample.x.copy()
        x[0] += 1
        return dataclasses.replace(sample, x=x)

    monkeypatch.setattr(harness, "simulate_endpoints", shifted)
    passed, detail = run_check(check, "quick")
    assert not passed and "off_parity = 1 (<= 0)" in detail, detail


def test_full_side_fails_on_nan_gap(monkeypatch):
    check = {check.name: check for check in CHECKS}["critical_routes"]
    assert run_check(check, "full")[0]
    monkeypatch.setattr(harness, "phi_critical", lambda *args, **kwargs: math.nan)
    passed, detail = run_check(check, "full")
    assert not passed
    assert detail == "gap = nan (< 1e-12)"


def _run_side(measured, bounds):
    return run_check(Check("probe", lambda: measured, quick=({}, bounds)), "quick")


@pytest.mark.parametrize("value, bound, passed", [
    (1e-12, 1e-12, False),  # a bound is strict
    (0.9e-12, 1e-12, True),
    (0, 0, True),  # a zero bound takes 0 ...
    (0.0, 0, True),
    (1, 0, False),  # ... and nothing above it
    (-0.5, 1e-15, True),
    (math.nan, 1.0, False),
    (math.nan, 0, False),
])
def test_run_check_rule(value, bound, passed):
    assert _run_side({"x": value}, {"x": bound})[0] is passed


def test_run_check_detail_lists_every_measured_key_in_order():
    measured = {"count": 1, "sups": (0.5, 0.25), "gap": 1e-13, "points": 9}
    passed, detail = _run_side(measured, {"gap": 1e-12, "count": 0})
    assert not passed
    assert detail == "count = 1 (<= 0), sups = (0.5, 0.25), gap = 1e-13 (< 1e-12), points = 9"


def test_run_check_fails_a_bound_on_a_missing_key():
    passed, detail = _run_side({"gap": 0.0}, {"gap": 1.0, "rises": 0})
    assert not passed
    assert detail == "KeyError: 'rises'"


@pytest.mark.parametrize("target, measure", [
    ("gf_closed_form", lambda: harness.gf_gaps((0.5,), (96,), (0.0, 0.5), (0, 1))["gap"]),
    ("ell_laplace_numeric", lambda: harness.ell_transform_gaps(
        ((1.0, 1.0, 1.0), (2.0, 2.0, 0.5)))["gap"]),
    ("exact_covariance", lambda: harness.covariance_gaps(
        n=16, alphas=(1.0, 2.0), fd_alphas=(), limit_tol=1e-8)["gap"]),
    ("covariance_limit", lambda: harness.covariance_gaps(
        n=16, alphas=(1.0, 2.0), fd_alphas=(), limit_tol=1e-8)["routes"]),
    ("ell", lambda: harness.special_function_errors(
        alphas=(1.0,), ws=(0.0, 1.0), xs=(), zs=())["origin"]),
    ("laplace_numeric", lambda: harness.laplace_limit_errors(
        regimes=(), ns=(), pairs=(), density_pairs=((0.0, 1.0), (2.0, 0.5)))["density"]),
    ("erfcx_complex", lambda: harness.special_function_errors(
        alphas=(), ws=(), xs=(), zs=(1 + 2j, -0.5 + 3j))["conjugation"]),
])
def test_measurements_keep_nan(monkeypatch, target, measure):
    # a NaN from any one point must survive the worst-value reduction (the
    # built-in max would drop it), so that its bound fails the check; every
    # call after the first returns NaN, so the order of calls does not matter
    calls = iter(range(10 ** 6))
    real = getattr(harness, target)
    monkeypatch.setattr(harness, target,
                        lambda *a, **k: real(*a, **k) if next(calls) == 0 else math.nan)
    assert math.isnan(measure())


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _assert_usage_error(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


def test_cli_exact_cf_matches_library(capsys):
    assert main(["exact-cf", "--delta", "2", "--n", "9", "--s", "0.4", "--t", "-0.9"]) == 0
    printed = float(capsys.readouterr().out.strip())
    want = char_fn_exact(StickinessParam(2.0), 0.4, -0.9, 9).real
    assert printed == want


def test_cli_limit_cf(capsys):
    assert main(["limit-cf", "--regime", "super", "--s", "1", "--t", "-1"]) == 0
    assert float(capsys.readouterr().out.strip()) == 1.0
    _assert_usage_error(["limit-cf", "--s", "1", "--t", "1"])  # missing --regime


def test_cli_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--regime", "critical", "--alpha", "2", "--n", "64,128",
        "--grid", "1,-1", "--paths", "200", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("n,delta,s,t,f_exact")
    assert len(lines) == 1 + 2 * 4  # two n values, 2x2 grid


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta=3.5\nn=6\ns=0.2\nt=0.1\n")
    assert main(["exact-cf", "--config", str(cfg)]) == 0
    from_file = float(capsys.readouterr().out.strip())
    assert from_file == char_fn_exact(StickinessParam(3.5), 0.2, 0.1, 6).real
    assert main(["exact-cf", "--config", str(cfg), "--delta", "0"]) == 0
    overridden = float(capsys.readouterr().out.strip())
    assert overridden == char_fn_exact(StickinessParam(0.0), 0.2, 0.1, 6).real


def test_cli_mc_roundtrip(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    assert main(["mc", "--delta", "1", "--n", "16", "--paths", "12",
                 "--seed", "5", "--out", str(out)]) == 0
    sidecar = json.loads((tmp_path / "mc.csv.json").read_text())
    assert sidecar == {"delta": 1.0, "n": 16, "paths": 12, "seed": 5}
    assert len(out.read_text().strip().splitlines()) == 13
    _assert_usage_error(["mc", "--delta", "1", "--n", "4", "--paths", "2"])  # no --out


def test_cli_mc_output_bytes_pinned(tmp_path, capsys):
    # integer endpoints from Philox streams: no libm or quadrature in the bytes
    out = tmp_path / "mc.csv"
    assert main(["mc", "--delta", "1", "--n", "16", "--paths", "12", "--seed", "5",
                 "--out", str(out)]) == 0
    sha = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    assert sha(out) == "f86205e75049a0ee3e21634cb9a0661fbfa850bb3345ccd260152dc1d7170e09"
    assert sha(tmp_path / "mc.csv.json") == \
        "3713b022ddcd3b44470d9b55d6e1b65539dcbb39a18ccce37cc2fca8ea0e6228"


def test_cli_usage_error_exits_2():
    _assert_usage_error(["no-such-command"])


def test_cli_config_format_key_is_applied(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=json\nregime=critical\nalpha=2\nn=64\ngrid=1\n")
    assert main(["sweep", "--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)[0]["n"] == 64
    assert main(["sweep", "--config", str(cfg), "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("n,delta,s,t")


def test_cli_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for text, command, named in (
        ("delta=3\nbogus=1\n", "exact-cf", "bogus"),
        ("format=json\n", "exact-cf", "format"),  # exact-cf has no --format
        ("regime=nonsense\n", "limit-cf", "nonsense"),  # values are checked like flags
        ("workers=2\n", "mc", "workers"),  # the sampler has no worker count
        ("regime=sub\nalpha=3\n", "limit-cf", "alpha applies only"),  # known, but sub ignores it
        # no quadrature tolerance: the critical limit is a fixed contour
        ("regime=critical\nalpha=1\ntol=1e-8\n", "limit-cf", "run.cfg: tol"),
        ("regime=super\nn=64\ntol=1e-8\n", "sweep", "run.cfg: tol"),
    ):
        cfg.write_text(text)
        _assert_usage_error([command, "--config", str(cfg)])
        assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "64"],  # missing --regime
    ["sweep", "--regime", "sub", "--n", "abc"],
    ["sweep", "--regime", "critical", "--n", "64"],  # critical without --alpha
    ["limit-cf", "--regime", "critical", "--s", "1"],
    ["exact-cf", "--del", "2"],  # flags are not abbreviated
    # sweep and limit-cf have no --tol: the critical limit is a fixed contour
    ["limit-cf", "--regime", "critical", "--alpha", "1", "--s", "1", "--t", "1", "--tol", "nan"],
    ["gf-check", "--delta", "1", "--t", "0.5"],  # the subcommand is gone
    ["exact-cf", "--n", "64", "--tol", "1e-12"],  # the contour has no tolerance to set
    ["limit-cf", "--regime", "critical", "--alpha", "0.3", "--s", "2.5", "--t", "2", "--tol", "inf"],
    ["sweep", "--regime", "critical", "--alpha", "0.3", "--n", "64", "--grid", "2", "--tol", "inf"],
    ["limit-cf", "--regime", "sub", "--alpha", "3"],  # --alpha would be ignored
    ["sweep", "--regime", "super", "--alpha", "3"],
    ["sweep", "--regime", "critical", "--alpha", "inf", "--n", "4", "--grid", "1"],
    ["covariance", "--alpha", "inf", "--n", "10"],
    ["limit-cf", "--regime", "critical", "--alpha", "inf"],
    ["sweep", "--regime", "critical", "--alpha", "2", "--n", "64", "--paths", "1"],  # no stderr
    ["covariance", "--alpha", "2", "--n", "10", "--paths", "1"],
    ["covariance", "--alpha", "2", "--n", "10", "--paths", "-5"],
    # --out in a missing directory, or a directory: refused before any work
    ["mc", "--n", "10", "--paths", "10", "--out", "/nonexistent/x.csv"],
    ["sweep", "--regime", "critical", "--alpha", "2", "--n", "64", "--out", "/nonexistent/s.csv"],
    ["selftest", "--out", "/nonexistent/r.json"],
    ["covariance", "--alpha", "2", "--n", "10", "--out", "/nonexistent/c.csv"],
    ["mc", "--n", "10", "--paths", "10", "--out", "."],
    ["mc", "--n", "10", "--paths", "10", "--out", ""],
    ["limit-cf", "--regime", "sub", "--s", "1", "--t", "1", "--tol", "inf"],
    ["limit-cf", "--regime", "super", "--tol", "1e-10"],
    ["sweep", "--regime", "sub", "--n", "64", "--grid", "1", "--tol", "1e-8"],
    # alpha^2 below the smallest normal double; (s^2 + t^2) / 2 overflowing
    ["limit-cf", "--regime", "critical", "--alpha", "1e-300", "--s", "1", "--t", "1"],
    ["limit-cf", "--regime", "critical", "--alpha", "1e-160", "--s", "1", "--t", "1"],
    ["limit-cf", "--regime", "critical", "--alpha", "1", "--s", "1e154", "--t", "-1e154"],
    ["limit-cf", "--regime", "critical", "--alpha", "1", "--s", "1e300", "--t", "1e300"],
    ["covariance", "--alpha", "1e-320", "--n", "10"],  # alpha below 2**-511
])
def test_cli_missing_or_unparsable_flag_exits_2(argv):
    _assert_usage_error(argv)


@pytest.mark.parametrize("argv", [
    ["sweep", "--regime", "critical", "--alpha", "2", "--n", "64", "--grid", "nan,1"],
    ["sweep", "--regime", "sub", "--n", "64", "--grid", "inf"],
    ["exact-cf", "--delta", "2", "--n", "9", "--s", "nan"],
    ["exact-cf", "--delta", "2", "--n", "0", "--t=-inf"],
    ["limit-cf", "--regime", "sub", "--s", "nan"],
    ["limit-cf", "--regime", "critical", "--alpha", "1", "--s", "1", "--t", "inf"],
])
def test_cli_non_finite_angle_exits_2(argv, capsys):
    _assert_usage_error(argv)
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # s = pi: the pole 1 / (cos s cos t) at z = -1 gives rho = 1, outside the
    # contour's domain, and the recursion refuses n over its budget
    ["exact-cf", "--delta", "2", "--n", "65536", "--s", "3.141592653589793"],
    ["mc", "--n", "1000000", "--paths", "100000", "--out", "x.csv"],  # paths * n over 2**31
])
def test_cli_over_budget_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _assert_usage_error(argv)
    assert "budget" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_sweep_past_the_h_budget(capsys):
    # sweep and exact-cf read f off the generating function, with no n cap,
    # wherever its domain holds; outside it (s + t = pi, rho = 1) exact-cf
    # runs the h recursion, whose budget still binds
    assert main(["sweep", "--regime", "critical", "--alpha", "2", "--n", "65536",
                 "--grid", "1"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["error"] == "" and float(cells["err_exact_limit"]) < 1e-5
    assert main(["exact-cf", "--delta", "2", "--n", "65536", "--s", "0.1"]) == 0
    want = char_fn_gf(StickinessParam(2.0), 0.1, 0.0, 65536).real
    assert float(capsys.readouterr().out) == want
    half_pi = "1.5707963267948966"
    _assert_usage_error(["exact-cf", "--delta", "2", "--n", "65536", "--s", half_pi, "--t", half_pi])
    assert "budget" in capsys.readouterr().err


def test_cli_covariance_past_the_h_budget(capsys):
    # covariance reads E[x y] off its generating function at every n >= 16
    assert main(["covariance", "--alpha", "2", "--n", "1000000,100000000"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert [row["n"] for row in rows] == ["1000000", "100000000"]
    assert [row["error"] for row in rows] == ["", ""]


def test_cli_sweep_bytes_pinned(tmp_path):
    # the sweep CSV's bytes for one (config, seed), exact, limit and Monte Carlo columns
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--regime", "critical", "--alpha", "2", "--n", "256,1024",
                 "--paths", "2000", "--seed", "7", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "839ce623a22a540aa00d309e03309e2afe2cc3c315b4dcb2aa8003f39a548474"


def test_cli_far_critical_angle_prints_a_number(capsys):
    # exp((s^2 + t^2) x / 2) overflowed the quadrature here; the contour forms no such factor
    assert main(["limit-cf", "--regime", "critical", "--alpha", "1", "--s", "40", "--t", "40"]) == 0
    assert abs(float(capsys.readouterr().out)) <= 1e-13


def test_sweep_path_never_imports_scipy(tmp_path):
    # no command imports scipy: the library calls of the sweep, the sampler and
    # the critical limit, and every command, the self-test's quadratures included
    code = textwrap.dedent("""
        import contextlib, io, sys
        import stickywalk.cli, stickywalk.harness, stickywalk.limits
        from stickywalk.kernel import StickinessParam, simulate_endpoints
        regime = stickywalk.limits.RegimeSpec.critical(2.0)
        rows = stickywalk.harness.run_sweep(stickywalk.harness.SweepConfig(
            regime=regime, n_list=(16, 64), paths=100))
        assert not [row.error for row in rows if row.error]
        stickywalk.limits.limit_cf(regime, 1.0, -0.5)
        simulate_endpoints(StickinessParam(2.0), 16, 10, 0)
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["exact-cf", "--delta", "2", "--n", "9", "--s", "0.4"],
                         ["limit-cf", "--regime", "critical", "--alpha", "2", "--s", "1", "--t", "1"],
                         ["sweep", "--regime", "critical", "--alpha", "2", "--n", "16", "--grid=-4,4"],
                         ["covariance", "--alpha", "2", "--n", "16,64"],
                         ["mc", "--delta", "2", "--n", "16", "--paths", "10", "--out", sys.argv[1]],
                         ["selftest"]):
                assert stickywalk.cli.main(argv) == 0, argv
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "mc.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_flags_only_where_used():
    for argv in (["exact-cf", "--format", "json"], ["mc", "--format", "json"],
                 ["limit-cf", "--out", "x"], ["exact-cf", "--out", "x"],
                 ["selftest", "--coupling", "paper"], ["sweep", "--workers", "2"],
                 ["covariance", "--workers", "2"], ["mc", "--workers", "2"]):
        _assert_usage_error(argv)
