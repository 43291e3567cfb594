import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stickywalk.errors import QuadratureError
from stickywalk.specfun import (
    ERFC_TABLE,
    ERFCX_STRIP_TABLE,
    erfc_real,
    erfcx_complex,
    erfcx_real,
    integrate_01,
    inverse_laplace_at_1,
)

from oracles import ERFC_ONE, ERFCX_I


def test_erfc_basic_values():
    assert erfc_real(0.0) == 1.0
    assert erfc_real(1.0) == pytest.approx(ERFC_ONE, rel=1e-14)


def test_erfc_against_frozen_table():
    for x, want in ERFC_TABLE:
        assert abs(erfc_real(x) - want) <= 1e-13 * abs(want), x


@given(st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=300, deadline=None)
def test_erfc_reflection(x):
    assert erfc_real(x) == pytest.approx(2.0 - erfc_real(-x), abs=1e-14)


def test_erfc_monotone():
    # on [-5, 5] the analytic decrease clears double-precision granularity
    xs = np.linspace(-5.0, 5.0, 200)
    vals = [erfc_real(x) for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_erfc_domain(bad):
    with pytest.raises(ValueError):
        erfc_real(bad)
    with pytest.raises(ValueError):
        erfcx_real(bad)
    with pytest.raises(ValueError):
        erfcx_complex(complex(1.0, bad))


def _erfcx_asymptotic(x, terms=9):
    # 1/(x sqrt(pi)) * sum_k (-1)^k (2k-1)!! / (2 x^2)^k
    total = 1.0
    term = 1.0
    for k in range(1, terms + 1):
        term *= -(2 * k - 1) / (2.0 * x * x)
        total += term
    return total / (x * math.sqrt(math.pi))


def test_erfcx_values_and_identity():
    assert erfcx_real(0.0) == 1.0
    assert erfcx_real(30.0) == pytest.approx(_erfcx_asymptotic(30.0), rel=1e-10)
    assert erfcx_real(-27.0) == math.inf  # exp(729) is past the largest double
    for x in np.linspace(0.0, 5.0, 41):
        assert erfcx_real(x) * math.exp(-x * x) == pytest.approx(erfc_real(x), abs=1e-12)


def test_erfcx_monotone_decreasing_on_nonnegatives():
    xs = np.linspace(0.0, 40.0, 200)
    vals = [erfcx_real(x) for x in xs]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_erfcx_complex_restricts_to_real():
    for x in np.linspace(-3.0, 8.0, 23):
        z = erfcx_complex(complex(x, 0.0))
        want = erfcx_real(x)
        assert abs(z - want) <= 1e-10 * max(1.0, abs(want))


def test_erfcx_complex_spot_value():
    got = erfcx_complex(1j)
    assert abs(got - ERFCX_I) <= 1e-10 * abs(ERFCX_I)
    # exp(z^2) past the largest double: infinite parts with its signs, as in scipy
    assert repr(erfcx_complex(-27 + 0j)) == "(inf-0j)"
    assert erfcx_complex(-27 + 1j) == complex(-math.inf, math.inf)


@given(
    st.floats(min_value=-5.0, max_value=5.0),
    st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=200, deadline=None)
def test_erfcx_complex_conjugation(re, im):
    z = complex(re, im)
    a = erfcx_complex(z).conjugate()
    b = erfcx_complex(z.conjugate())
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_erfcx_complex_against_frozen_strip_table():
    for z, want in ERFCX_STRIP_TABLE:
        got = erfcx_complex(z)
        assert abs(got - want) <= 1e-8 * abs(want), z


def test_integrate_basic_values():
    assert integrate_01(lambda x: 1.0) == pytest.approx(1.0, abs=1e-14)
    assert integrate_01(lambda x: math.exp(x), tol=1e-11) == pytest.approx(
        math.e - 1.0, abs=1e-11
    )
    got = integrate_01(lambda x: 1.0 / math.sqrt(x), tol=1e-10)
    assert got == pytest.approx(2.0, abs=1e-10)


def test_integrate_order_in_tol():
    for f, want in (
        (lambda x: math.exp(x), math.e - 1.0),
        (lambda x: 1.0 / math.sqrt(x), 2.0),
        (lambda x: math.cos(20.0 * x), math.sin(20.0) / 20.0),
    ):
        prev = None
        for tol in (1e-3, 5e-4, 2.5e-4, 1.25e-4, 6.25e-5):
            err = abs(integrate_01(f, tol=tol) - want)
            if prev is not None:
                assert err <= prev + 1e-15
            prev = err


def test_integrate_failure_reports_estimate():
    with pytest.raises(QuadratureError) as info:
        integrate_01(lambda x: math.cos(40.0 * x), tol=1e-300)
    assert info.value.estimate is not None and info.value.estimate > 0.0
    with pytest.raises(QuadratureError) as info:  # a NaN estimate is not within tol
        integrate_01(lambda x: math.nan if x > 0.5 else 1.0)
    assert math.isnan(info.value.estimate)


def test_integrate_bad_tol():
    for tol in (0.0, math.nan, math.inf):  # NaN would pass a `tol <= 0` check
        with pytest.raises(ValueError):
            integrate_01(lambda x: 1.0, tol=tol)


def test_inverse_laplace_rows_equal_their_own_calls():
    # one row per transform, each summed by its own np.dot: a row's value is
    # bit for bit its 1-D call, whatever the other rows
    shifts = np.array([[0.5], [1.0], [3.0]])
    both = inverse_laplace_at_1(lambda lam: 1.0 / (lam + shifts))
    assert both.dtype == np.float64 and both.shape == (3,)
    alone = [inverse_laplace_at_1(lambda lam: 1.0 / (lam + a)) for a in (0.5, 1.0, 3.0)]
    assert both.tolist() == alone
    assert max(abs(v - math.exp(-a)) for v, a in zip(alone, (0.5, 1.0, 3.0))) <= 1e-12
    assert inverse_laplace_at_1(lambda lam: np.ones((0, lam.size))).shape == (0,)
