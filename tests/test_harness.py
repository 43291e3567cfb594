import hashlib
import json
import math

import pytest

import stickywalk.harness as harness
import stickywalk.specfun as specfun
from stickywalk.cli import main
from stickywalk.exact import char_fn_exact
from stickywalk.harness import (
    SweepConfig,
    run_covariance,
    run_selftest,
    run_sweep,
    write_report,
)
from stickywalk.kernel import StickinessParam
from stickywalk.limits import RegimeSpec


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
    for quad_tol in (0.0, -1e-10, math.nan):
        with pytest.raises(ValueError):
            SweepConfig(regime=regime, n_list=(64,), grid=((1.0, 1.0),), quad_tol=quad_tol)


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
        f_exact = char_fn_exact(StickinessParam(row.delta), row.s / root, row.t / root, row.n).real
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


def test_run_sweep_isolates_row_failures(monkeypatch):
    real = harness.limit_cf

    def poisoned(regime, s, t, tol=1e-10):
        if s == 0.5:
            raise RuntimeError("poisoned grid point")
        return real(regime, s, t, tol=tol)

    monkeypatch.setattr(harness, "limit_cf", poisoned)
    rows = run_sweep(_small_config())
    bad = [r for r in rows if r.error]
    good = [r for r in rows if not r.error]
    assert len(bad) == 2 and all(r.s == 0.5 for r in bad)
    assert all("RuntimeError" in r.error for r in bad)
    assert len(good) == 2 and all(r.f_exact is not None for r in good)


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


def test_run_covariance_columns():
    rows = run_covariance(1e3, n_list=(64, 256))
    for row in rows:
        assert row.error == ""
        assert row.mc is None and row.mc_stderr is None
        assert abs(row.limit - 1.0) <= 1e-2
    rows = run_covariance(2.0, n_list=(64,), paths=500, seed=3)
    assert rows[0].mc is not None and rows[0].mc_stderr > 0.0
    assert rows[0].err_mc_exact == pytest.approx(abs(rows[0].mc - rows[0].exact))


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


def test_selftest_negative_control(monkeypatch):
    corrupted = list(specfun.ERFC_TABLE)
    x, v = corrupted[23]
    corrupted[23] = (x, v * (1.0 + 1e-6))
    monkeypatch.setattr(specfun, "ERFC_TABLE", tuple(corrupted))
    report = run_selftest()
    assert not report["passed"]
    assert not report["checks"]["erfc_reference"]["passed"]
    # unrelated suites stay green
    assert report["checks"]["gf_identity"]["passed"]


def test_selftest_fails_on_nan_gap(monkeypatch):
    monkeypatch.setattr(harness, "gf_closed_form", lambda *args: complex(math.nan))
    report = run_selftest()
    assert not report["passed"]
    assert not report["checks"]["gf_identity"]["passed"]
    assert report["checks"]["erfc_reference"]["passed"]


@pytest.mark.parametrize("target, measure", [
    ("gf_series", lambda: harness.gf_gaps((0.5,), (0.3, 0.6), (0.0,), (0, 1))["margin"]),
    ("ell_laplace_numeric", lambda: harness.ell_transform_gaps(
        ((1.0, 1.0, 1.0), (2.0, 2.0, 0.5)))["gap"]),
    ("exact_covariance", lambda: harness.covariance_gaps(
        n=16, alphas=(1.0, 2.0), fd_alphas=(), limit_tol=1e-8)["gap"]),
    ("ell", lambda: harness.ell_origin_gap(alphas=(1.0,), ws=(0.0, 1.0))),
])
def test_measurements_keep_nan(monkeypatch, target, measure):
    # a NaN from any one point must survive the worst-value reduction (the
    # built-in max would drop it), so that a tolerance verdict fails
    calls = iter(range(10 ** 6))
    real = getattr(harness, target)
    monkeypatch.setattr(harness, target,
                        lambda *a, **k: math.nan if next(calls) == 1 else real(*a, **k))
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


def test_cli_gf_check(capsys):
    assert main(["gf-check", "--delta", "1", "--t", "0.5", "--z", "0.6", "--j", "2"]) == 0
    out = capsys.readouterr().out
    assert "OK" in out


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
    ["limit-cf", "--regime", "critical", "--alpha", "1", "--s", "1", "--t", "1", "--tol", "nan"],
    ["gf-check", "--tol", "nan"],
])
def test_cli_missing_or_unparsable_flag_exits_2(argv):
    _assert_usage_error(argv)


@pytest.mark.parametrize("argv", [
    ["gf-check", "--z", "0.99999", "--tol", "1e-12"],  # O(N^2) series with N ~ 4e6
    ["mc", "--n", "1000000", "--paths", "100000", "--out", "x.csv"],  # paths * n over 2**31
])
def test_cli_over_budget_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _assert_usage_error(argv)
    assert "budget" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_flags_only_where_used():
    for argv in (["exact-cf", "--format", "json"], ["mc", "--format", "json"],
                 ["limit-cf", "--out", "x"], ["gf-check", "--out", "x"],
                 ["selftest", "--coupling", "paper"], ["sweep", "--workers", "2"],
                 ["covariance", "--workers", "2"], ["mc", "--workers", "2"]):
        _assert_usage_error(argv)
