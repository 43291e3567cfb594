import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stickywalk.limits
from stickywalk.exact import char_fn_exact, exact_covariance, laplace_empirical
from stickywalk.kernel import StickinessParam
from stickywalk.limits import (
    RegimeSpec,
    covariance_limit,
    ell,
    ell_laplace_numeric,
    laplace_numeric,
    laplace_target,
    limit_cf,
    limit_params,
    phi_critical,
    subcritical_density,
    supercritical_density,
)

# calibrated at build time: the alpha -> 0 interpolation toward the
# subcritical law is O(alpha) with constant ~ 1/3 at the grid corners, so at
# alpha = 0.05 the measured sup gap on |s|,|t| <= 2 is 1.7e-2
INTERPOLATION_TOL = 2.5e-2


def test_limit_params_at_w_zero():
    lp = limit_params(2.0, 0.0)
    assert lp.gamma == pytest.approx(0.5, abs=1e-15)
    assert lp.b1 == pytest.approx(0.0, abs=1e-15)
    assert lp.b2 == pytest.approx(-2.0, abs=1e-15)
    assert not lp.degenerate


def test_limit_params_degenerate_flag():
    assert limit_params(1.0, 2.0).degenerate
    assert limit_params(2.0, 1.0).degenerate
    assert not limit_params(1.0, 2.0 + 1e-3).degenerate


def test_limit_params_complex_branch():
    lp = limit_params(1.0, 4.0)
    assert lp.gamma == pytest.approx(complex(0.0, math.sqrt(3.0)), abs=1e-15)
    assert lp.b1 == pytest.approx(complex(-2.0, 2.0 * math.sqrt(3.0)), abs=1e-14)
    assert lp.gamma.imag > 0.0


@given(
    alpha=st.floats(min_value=0.05, max_value=50.0),
    w=st.floats(min_value=-8.0, max_value=8.0),
)
@settings(max_examples=200, deadline=None)
def test_limit_params_linear_relations(alpha, w):
    lp = limit_params(alpha, w)
    assert abs(lp.b1 + lp.b2 + 4.0 / alpha) <= 1e-12 * max(1.0, 4.0 / alpha)
    assert abs(lp.b1 - lp.b2 - 4.0 * lp.gamma) <= 1e-12 * max(1.0, abs(4.0 * lp.gamma))
    if lp.gamma.imag > 0.0:
        assert lp.b2 == lp.b1.conjugate()


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
def test_limit_params_domain(bad):
    with pytest.raises(ValueError):
        limit_params(bad, 1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: limit_params(1.0, math.inf), "w must be finite"),
    (lambda: limit_params(1.0, math.nan), "w must be finite"),
    (lambda: laplace_target(RegimeSpec.critical(1.0), 1.0, 0.0), "lam must be > 0"),
    (lambda: laplace_numeric(math.exp, -1.0), "lam must be > 0"),
    (lambda: subcritical_density(1.0, 0.0), "x must be > 0"),
    (lambda: supercritical_density(1.0, -1e-300), "x must be >= 0"),
], ids=["limit_params-inf", "limit_params-nan", "laplace_target", "laplace_numeric",
        "subcritical_density", "supercritical_density"])
def test_out_of_domain_argument_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_ell_is_one_at_origin():
    for alpha in (0.5, 1.0, 2.0, 8.0):
        for w in (0.0, 1.0, 2.0, 4.0, 2.0 / alpha):
            assert ell(limit_params(alpha, w), 0.0) == pytest.approx(1.0, abs=1e-8)


def test_ell_domain():
    lp = limit_params(1.0, 1.0)
    with pytest.raises(ValueError):
        ell(lp, -0.1)


def test_ell_degenerate_branch_is_the_limit():
    anchor = ell(limit_params(1.0, 2.0), 0.8)
    for eps in (1e-6, -1e-6):
        assert ell(limit_params(1.0, 2.0 + eps), 0.8) == pytest.approx(anchor, abs=1e-4)


def test_ell_real_on_complex_branch():
    # returns a real float; the conjugate-pair residue is checked internally
    for x in (0.0, 0.3, 2.0, 10.0):
        value = ell(limit_params(1.0, 3.0), x)
        assert isinstance(value, float)


def test_ell_at_w_zero_is_scaled_erfcx():
    from stickywalk.specfun import erfcx_real

    lp = limit_params(2.0, 0.0)
    for x in (0.0, 0.5, 1.0, 4.0):
        assert ell(lp, x) == pytest.approx(erfcx_real(2.0 * math.sqrt(x) / 2.0), rel=1e-12)


def test_laplace_targets():
    assert laplace_target(RegimeSpec.supercritical(), 0.0, 1.0) == 1.0
    assert laplace_target(RegimeSpec.subcritical(), 0.0, 1.0) == 0.5
    far = laplace_target(RegimeSpec.critical(1e3), 1.0, 1.0)
    sup = laplace_target(RegimeSpec.supercritical(), 1.0, 1.0)
    assert abs(far - sup) <= 5.0 / 1e3


def test_laplace_identity_for_ell():
    got = ell_laplace_numeric(1.0, 1.0, 1.0, tol=1e-9)
    want = laplace_target(RegimeSpec.critical(1.0), 1.0, 1.0)
    assert got == pytest.approx(want, abs=1e-6)


def test_density_transforms():
    for w, lam in ((0.0, 1.0), (1.0, 0.5), (2.0, 2.0)):
        sub = laplace_numeric(lambda x: subcritical_density(w, x), lam, tol=1e-10)
        assert sub == pytest.approx(1.0 / math.sqrt(4.0 * lam + w * w), abs=1e-8)
        sup = laplace_numeric(lambda x: supercritical_density(w, x), lam, tol=1e-10)
        assert sup == pytest.approx(1.0 / (0.5 * w * w + lam), abs=1e-8)


def test_laplace_empirical_geometric_path():
    # enormous delta: H(0, 0, z) = 1/(1-z), so n^-1 H -> 1/lam
    gaps = []
    for n in (10**4, 10**6, 10**8):
        gaps.append(abs(laplace_empirical(1e12, n, 0.0, 1.0) - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 1e-6


def test_laplace_empirical_critical_example():
    emp = laplace_empirical(2.0 * math.sqrt(10**8), 10**8, 1.0, 1.0)
    want = laplace_target(RegimeSpec.critical(2.0), 1.0, 1.0)
    assert abs(emp - want) <= 1e-3


def test_laplace_empirical_subcritical_rescaled():
    n = 10**8
    regime = RegimeSpec.subcritical(coeff=2.0)
    delta = regime.delta_at(n)
    emp = laplace_empirical(delta, n, 1.0, 1.0) * math.sqrt(n) / delta
    assert abs(emp - laplace_target(regime, 1.0, 1.0)) <= 1e-2


def test_laplace_empirical_domain():
    with pytest.raises(ValueError):
        laplace_empirical(1.0, 10**16, 0.0, 0.5)  # lam / n below 1e-15
    with pytest.raises(ValueError):
        laplace_empirical(1.0, 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        laplace_empirical(1.0, 10, 0.0, 0.0)


def test_limits_loads_only_specfun():
    # each limit route is independent of the finite-n engine and the sampler
    code = ("import json, sys, stickywalk.limits; "
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'stickywalk')))")
    env = {**os.environ, "PYTHONPATH": str(Path(stickywalk.limits.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["stickywalk", "stickywalk.errors", "stickywalk.limits",
                                       "stickywalk.specfun"]


def test_alpha_is_checked_with_one_message():
    message = r"the critical regime needs a finite alpha >= 2\*\*-511"
    for bad in (0.0, -1.0, math.nan, math.inf, 2.0 ** -512):
        for call in (lambda: limit_params(bad, 0.0), lambda: RegimeSpec.critical(bad),
                     lambda: covariance_limit(bad)):
            with pytest.raises(ValueError, match=message):
                call()
    with pytest.raises(ValueError, match=message):
        RegimeSpec(kind="critical")


def test_regime_spec_validation():
    with pytest.raises(ValueError):
        RegimeSpec(kind="critical")
    with pytest.raises(ValueError):
        RegimeSpec(kind="weird")
    # each regime refuses the other's setting rather than ignore it
    for kind in ("subcritical", "supercritical"):
        with pytest.raises(ValueError, match="alpha applies only"):
            RegimeSpec(kind=kind, alpha=3.0)
    for coeff in (2.0, 0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="coeff does not apply"):
            RegimeSpec(kind="critical", alpha=1.0, coeff=coeff)
    assert RegimeSpec(kind="critical", alpha=1.0, coeff=1.0) == RegimeSpec.critical(1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            RegimeSpec.critical(bad)
        with pytest.raises(ValueError):
            RegimeSpec.subcritical(coeff=bad)
        with pytest.raises(ValueError):
            RegimeSpec.supercritical(coeff=bad)
    for tiny in (2.0 ** -512, 1e-160, 1e-300):  # alpha^2 below the smallest normal double
        with pytest.raises(ValueError):
            RegimeSpec.critical(tiny)
    assert RegimeSpec.critical(2.0 ** -511).alpha == 2.0 ** -511
    assert RegimeSpec.subcritical().delta_at(16) == 2.0
    assert RegimeSpec.critical(2.0).delta_at(16) == 8.0
    assert RegimeSpec.supercritical().delta_at(16) == 16.0


def test_phi_vanishing_product_shortcut():
    for s in (0.0, 0.5, 2.0):
        assert phi_critical(1.0, s, 0.0) == pytest.approx(math.exp(-0.5 * s * s), abs=1e-15)
        assert phi_critical(1.0, 0.0, s) == pytest.approx(math.exp(-0.5 * s * s), abs=1e-15)
    for alpha in (math.inf, -1.0, 1e-160, 1e-300):
        with pytest.raises(ValueError):
            phi_critical(alpha, 1.0, 0.0)


@given(
    s=st.floats(min_value=-2.0, max_value=2.0),
    t=st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=25, deadline=None)
def test_phi_symmetric_and_bounded(s, t):
    a = phi_critical(1.5, s, t, tol=1e-10)
    b = phi_critical(1.5, t, s, tol=1e-10)
    assert a == pytest.approx(b, abs=1e-10)
    assert abs(a) <= 1.0 + 1e-9


def test_phi_against_exact_engine():
    n = 4096
    root = math.sqrt(n)
    p = StickinessParam(2.0 * root)
    got = char_fn_exact(p, 1.0 / root, 1.0 / root, n).real
    want = phi_critical(2.0, 1.0, 1.0, tol=1e-12)
    assert abs(got - want) <= 1e-3


def test_limit_cf_values():
    assert limit_cf(RegimeSpec.subcritical(), 0.0, 0.0) == 1.0
    assert limit_cf(RegimeSpec.supercritical(), 1.0, -1.0) == 1.0
    assert limit_cf(RegimeSpec.subcritical(), 1.0, 1.0) == pytest.approx(math.exp(-1.0))
    assert limit_cf(RegimeSpec.supercritical(), 1e154, 1e154) == 0.0  # (s + t)^2 overflows


@pytest.mark.parametrize("regime", [
    RegimeSpec.subcritical(), RegimeSpec.critical(1.5), RegimeSpec.supercritical(),
])
def test_limit_cf_rejects_non_finite_angles(regime):
    for s, t in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)):
        with pytest.raises(ValueError):
            limit_cf(regime, s, t)
    if regime.kind == "critical":  # (s^2 + t^2) / 2 or (s + t)^2 overflows a double
        for s, t in ((1e300, 1e300), (1e154, -1e154), (-1e200, 1.0), (1.33e154, 1e153)):
            with pytest.raises(ValueError):
                limit_cf(regime, s, t)
        # no exp((s^2 + t^2) x / 2) is formed: far angles evaluate, near 0
        for s, t in ((40.0, 40.0), (1e150, 1e150), (2e153, -2.1e153)):
            assert abs(limit_cf(regime, s, t)) <= 1e-13


_ANGLE = st.one_of(st.floats(-40.0, 40.0), st.sampled_from([0.0, -0.0, 1e154, -1e154, 1e-200]))


@given(st.lists(st.tuples(_ANGLE, _ANGLE), max_size=12), st.floats(0.05, 20.0))
@settings(max_examples=150, deadline=None)
def test_limit_cf_array_equals_scalar_calls(points, alpha):
    # axis points (s t = 0) and (s + t)^2 overflowing (supercritical -> 0.0)
    # come up; critical points the scalar call refuses are left to
    # test_limit_cf_array_raises_the_scalar_error
    for regime in (RegimeSpec.subcritical(), RegimeSpec.critical(alpha),
                   RegimeSpec.supercritical()):
        want = {}
        for i, (a, b) in enumerate(points):
            try:
                want[i] = limit_cf(regime, a, b)
            except ValueError:
                assert regime.kind == "critical"
        s, t = ([points[i][k] for i in want] for k in (0, 1))
        got = limit_cf(regime, s, t)
        assert got.dtype == np.float64 and got.shape == (len(s),)
        assert got.tobytes() == np.array(list(want.values()), dtype=np.float64).tobytes()
    assert limit_cf(RegimeSpec.supercritical(), [0.5, 1e154], [0.0, 1e154]).tolist() == [
        math.exp(-0.125), 0.0]


def test_limit_cf_refuses_unequal_shapes():
    for s, t in (([0.1, 0.2], [0.3]), (0.1, [0.3]), ([[0.1]], [[0.3]])):
        for regime in (RegimeSpec.subcritical(), RegimeSpec.critical(2.0)):
            with pytest.raises(ValueError, match="equal-length"):
                limit_cf(regime, s, t)


@pytest.mark.parametrize("bad", [(math.nan, 1.0), (0.5, -math.inf), (1e300, 1e300),
                                 (1.33e154, 1e153)])
def test_limit_cf_array_raises_the_scalar_error(bad):
    # one bad point in a grid: the array call raises what the scalar call at
    # that point raises, whatever the points after it
    regime = RegimeSpec.critical(2.0)
    with pytest.raises(ValueError) as scalar:
        limit_cf(regime, *bad)
    s, t = [1.0, 0.0, bad[0], math.nan], [-0.5, 2.0, bad[1], 1e300]
    with pytest.raises(ValueError) as array:
        limit_cf(regime, s, t)
    assert str(array.value) == str(scalar.value)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 7.0])
def test_limit_cf_far_antidiagonal_is_ell_at_one(alpha):
    # t = -s: (1 + s^2 G) / (lam + s^2) -> G as s -> inf, and G is ell's transform
    got = limit_cf(RegimeSpec.critical(alpha), 1e6, -1e6)
    assert abs(got - ell(limit_params(alpha, 0.0), 1.0)) <= 1e-12


def test_limit_cf_is_exact_on_the_axes():
    regime = RegimeSpec.critical(1.3)
    assert limit_cf(regime, 0.0, 0.0) == 1.0
    for s in (0.5, -2.0, 30.0):
        assert limit_cf(regime, s, 0.0) == limit_cf(regime, 0.0, s) == math.exp(-0.5 * s * s)


def test_phi_critical_without_overflow_or_cusp_loss():
    # ell's sqrt(x) cusp at 0 cost the plain quadrature 9.2e-8 here at tol 1e-10
    regime = RegimeSpec.critical(1e-3)
    assert abs(phi_critical(1e-3, 1.0, 1.0) - limit_cf(regime, 1.0, 1.0)) <= 1e-10
    # exp(theta (x - 1)) <= 1: theta = 900 evaluates, where exp(theta x) overflowed
    for s, t in ((30.0, 30.0), (4.0, -4.0), (-4.0, 4.0)):
        want = limit_cf(RegimeSpec.critical(1.0), s, t)
        assert abs(phi_critical(1.0, s, t, tol=1e-12) - want) <= 1e-12
    with pytest.raises(ValueError):
        phi_critical(1.0, 1e300, 1e300)


@pytest.mark.parametrize("theta", [1e2, 1e3, 1e4, 1e5])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_phi_critical_resolves_the_boundary_layer(theta, sign, alpha):
    # exp(theta (x - 1)) is a layer of width 1/theta at x = 1, which an
    # adaptive rule on all of [0, 1] can miss while its error estimate passes
    s = math.sqrt(theta)
    want = limit_cf(RegimeSpec.critical(alpha), s, sign * s)
    assert abs(phi_critical(alpha, s, sign * s, tol=1e-12) - want) <= 1e-12


def test_phi_critical_rejects_bad_tol():
    for tol in (0.0, -1.0, math.nan, math.inf):
        for s in (1.0, 150.0):
            with pytest.raises(ValueError):
                phi_critical(1.0, s, -s, tol=tol)


def test_limit_cf_interpolates_to_subcritical():
    axis = (-2.0, -1.0, 1.0, 2.0)
    regime = RegimeSpec.critical(0.05)
    sup = 0.0
    for s in axis:
        for t in axis:
            gap = abs(limit_cf(regime, s, t) - math.exp(-0.5 * (s * s + t * t)))
            sup = max(sup, gap)
    assert sup <= INTERPOLATION_TOL


def test_covariance_limit_asymptotes():
    assert abs(covariance_limit(1e3) - 1.0) <= 3e-3
    assert covariance_limit(1e-3) <= 1e-3
    for alpha in (0.25, 1.0, 4.0):
        value = covariance_limit(alpha)
        assert 0.0 < value < 1.0


def test_covariance_limit_matches_exact_engine():
    n = 10**4
    for alpha in (0.5, 2.0):
        exact = exact_covariance(StickinessParam(alpha * math.sqrt(n)), n) / n
        assert abs(exact - covariance_limit(alpha)) <= 2e-2


def test_covariance_limit_domain():
    # the domain of RegimeSpec and limit_params; 5e-324 once failed inside erfcx
    for alpha in (0.0, -1.0, math.nan, math.inf, 2.0 ** -512, 5e-324):
        with pytest.raises(ValueError):
            covariance_limit(alpha)
    for alpha in (2.0 ** -511, 1e-100):  # small-alpha asymptote alpha / sqrt(pi)
        assert covariance_limit(alpha) == pytest.approx(alpha / math.sqrt(math.pi), rel=1e-12)
    assert abs(covariance_limit(1e300) - 1.0) <= 1e-13
