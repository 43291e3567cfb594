"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Parameters and tolerances
are pinned here; the measurements are the ones the self-test runs
(`stickywalk.harness`), so each cross-route check has one implementation.
The few tolerances that the contract leaves to build-time calibration are
marked with their measured values.
"""

import math
import time

import numpy as np

from stickywalk.harness import (
    SweepConfig,
    covariance_gaps,
    ell_origin_gap,
    ell_transform_gaps,
    gf_gaps,
    laplace_limit_errors,
    mc_agreement,
    oracle_gaps,
    run_sweep,
    variant_sup_gaps,
    variant_values,
    worst_relative_error,
)
from stickywalk.limits import RegimeSpec
from stickywalk.specfun import erfc_real, erfcx_complex

from oracles import ERFC_TABLE, ERFCX_STRIP_TABLE

GRID_AXIS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
GRID = tuple((s, t) for s in GRID_AXIS for t in GRID_AXIS)
FIVE_ANGLES = tuple(np.linspace(-math.pi, math.pi, 5))


def _report(num: int, name: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d} ({name}): {status} "
          f"[{time.time() - started:.1f}s] {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_oracle_equivalence():
    started = time.time()
    worst_f, worst_h = oracle_gaps(deltas=(0.0, 0.5, 1.0, 5.0, 50.0), ns=(1, 2, 3, 4, 6, 9, 12),
                                   angles=FIVE_ANGLES, js=(0, 1, 2, 5))
    ok = worst_f <= 1e-12 and worst_h <= 1e-12
    _report(1, "oracle equivalence", ok,
            f"worst |f-enum| = {worst_f:.2e}, worst |h-enum| = {worst_h:.2e} (tol 1e-12)",
            started)


def test_criterion_02_generating_functions():
    started = time.time()
    gaps = gf_gaps(deltas=(0.5, 1.0, 5.0), zs=(0.3, 0.6, 0.9), ts=(0.0, 0.5, 2.0),
                   js=(0, 1, 2, 5))
    _report(2, "closed-form generating functions", gaps["margin"] <= 0.0,
            f"worst (gap - tail bound) = {gaps['margin']:.2e} (must be <= 0)", started)


def test_criterion_03_laplace_regime_limits():
    started = time.time()
    # delta_n = 2 n^(1/4) for the subcritical run: the convergence error is
    # O(delta/sqrt(n)) + O(1/delta) and the coefficient-1 default lands at
    # 1.2e-2 at n = 1e8, just past the pinned 1e-2 (see decisions ledger)
    regimes = (
        RegimeSpec.subcritical(coeff=2.0),
        RegimeSpec.critical(2.0),
        RegimeSpec.supercritical(),
    )
    pairs = [(w, lam) for w in (0.0, 1.0, 2.0) for lam in (0.5, 1.0, 2.0)]
    ok = True
    details = []
    # errs[pair, n] at n = 1e4, 1e8
    for kind, errs in laplace_limit_errors(regimes, (10**4, 10**8), pairs).items():
        worst = errs.max(axis=0)
        decreasing = bool(np.all(errs[:, 1] < errs[:, 0]))
        ok = ok and worst[1] <= 1e-2 and decreasing
        details.append(f"{kind}: 1e4 -> {worst[0]:.4f}, 1e8 -> {worst[1]:.4f}")
    _report(3, "Laplace regime limits", ok,
            "; ".join(details) + " (tol 1e-2 at n=1e8, decreasing)", started)


def test_criterion_04_ell_transform_consistency():
    started = time.time()
    axis = (0.5, 1.0, 2.0)
    gaps = ell_transform_gaps([(alpha, w, lam) for alpha in axis for w in (0.0, 1.0, 2.0)
                               for lam in axis])
    ok = gaps["gap"] <= 1e-6 and gaps["complex"] and gaps["degenerate"]
    _report(4, "occupation-profile transform", ok,
            f"worst |quad - closed form| = {gaps['gap']:.2e} on 3x3x3 grid "
            f"(complex branch: {gaps['complex']}, degenerate: {gaps['degenerate']})", started)


def _sup_errors(regime, n_list):
    """Per n, sup over GRID of |f_exact - f_limit|, read from run_sweep's rows."""
    rows = run_sweep(SweepConfig(regime=regime, n_list=n_list, grid=GRID,
                                 quad_tol=1e-10))
    assert not [row.error for row in rows if row.error]
    # np.max, not max: a NaN error must fail the criterion, not drop out
    return [float(np.max([row.err_exact_limit for row in rows if row.n == n])) for n in n_list]


def test_criterion_05_critical_convergence():
    started = time.time()
    ok = True
    details = []
    for alpha in (0.5, 2.0):
        sups = _sup_errors(RegimeSpec.critical(alpha), (256, 1024, 4096))
        mono = all(b <= a for a, b in zip(sups, sups[1:]))
        ok = ok and mono and sups[-1] <= 5e-2
        details.append(f"alpha={alpha}: " + " -> ".join(f"{v:.2e}" for v in sups))
    _report(5, "critical-regime convergence", ok,
            "; ".join(details) + " (<= 5e-2 at n=4096, nonincreasing)", started)


def test_criterion_06_sub_and_supercritical_convergence():
    started = time.time()
    ok = True
    details = []
    for regime in (RegimeSpec.subcritical(), RegimeSpec.supercritical()):
        sups = _sup_errors(regime, (256, 1024, 4096))
        mono = all(b <= a for a, b in zip(sups, sups[1:]))
        ok = ok and mono and sups[-1] <= 5e-2
        details.append(f"{regime.kind}: " + " -> ".join(f"{v:.2e}" for v in sups))
    _report(6, "sub/supercritical convergence", ok,
            "; ".join(details) + " (<= 5e-2 at n=4096, nonincreasing)", started)


def test_criterion_07_covariance():
    started = time.time()
    alphas = (0.5, 1.0, 2.0, 8.0)
    gaps = covariance_gaps(n=10**4, alphas=alphas, fd_alphas=alphas, limit_tol=1e-10)
    ok = gaps["gap"] <= 2e-2 and gaps["fd"] <= 1e-4
    _report(7, "covariance", ok,
            f"worst |n^-1 cov - limit| = {gaps['gap']:.2e} (tol 2e-2); "
            f"worst |d2phi/dsdt + limit| = {gaps['fd']:.2e} (tol 1e-4)", started)


def test_criterion_08_monte_carlo():
    started = time.time()
    n = 1024
    mc = mc_agreement(delta=2.0 * math.sqrt(n), n=n, paths=10**5, seed=20250809,
                      axis=GRID_AXIS, k_sigma=4.0)
    fraction = mc["within"] / mc["points"]
    ok = fraction >= 0.99
    _report(8, "Monte Carlo agreement", ok,
            f"{mc['within']}/{mc['points']} rows within 4 stderr ({fraction:.1%})", started)


def test_criterion_09_coupling_variants():
    started = time.time()
    v = variant_values(delta=0.0, s=math.pi / 2, t=math.pi / 2, n=1)
    discrimination = (abs(v["paper"] - (-0.5)) <= 1e-12 and abs(v["kernel"] - v["oracle"]) <= 1e-12
                      and abs(v["oracle"]) <= 1e-12)
    sups = variant_sup_gaps(axis=GRID_AXIS, ns=(256, 1024, 4096))
    agreement = sups[0] > sups[1] > sups[2]
    ok = discrimination and agreement
    _report(9, "coupling-variant documentation", ok,
            f"finite-n divergence at u=1: paper {v['paper'].real:+.2f} vs oracle "
            f"{v['oracle'].real:+.2f}; scaled sup gaps " +
            " > ".join(f"{gap:.2e}" for gap in sups), started)


def test_criterion_10_special_functions():
    started = time.time()
    worst_erfc = worst_relative_error(erfc_real, ERFC_TABLE)
    worst_strip = worst_relative_error(erfcx_complex, ERFCX_STRIP_TABLE)
    worst_origin = ell_origin_gap(alphas=(0.5, 1.0, 2.0, 8.0), ws=(0.0, 1.0, 2.0, 4.0))
    ok = worst_erfc <= 1e-13 and worst_strip <= 1e-8 and worst_origin <= 1e-8
    _report(10, "special functions", ok,
            f"erfc rel err {worst_erfc:.2e} (tol 1e-13, 50 pts); "
            f"erfcx strip rel err {worst_strip:.2e} (tol 1e-8, 50 pts); "
            f"|ell(0) - 1| {worst_origin:.2e} (tol 1e-8)", started)
