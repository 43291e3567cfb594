import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stickywalk.errors import CapacityError
from stickywalk.exact import (
    CouplingVariant,
    brute_force_char,
    brute_force_h,
    char_fn_exact,
    diag_fourier_sequence,
    endpoint_distribution,
    exact_covariance,
    gf_closed_form,
    gf_h0_reciprocal,
    gf_series,
    series_truncation,
)
from stickywalk.kernel import StickinessParam

U2 = StickinessParam(1e300)  # u rounds to exactly 2: absorbed diagonal


# ---------------------------------------------------------------------------
# h recursion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("delta,t", [(0.0, 0.0), (1.0, 0.7), (5.0, -1.3), (0.5, 2.9)])
def test_h_evolve_one_step(delta, t):
    p = StickinessParam(delta)
    h0 = diag_fourier_sequence(p.u, t, 1, j=0)
    assert h0[0] == 1.0  # h(., t, 0) = e_0
    assert h0[1] == pytest.approx(p.u * math.cos(t) / 2.0, abs=1e-15)
    assert diag_fourier_sequence(p.u, t, 1, j=1)[1] == pytest.approx((2.0 - p.u) / 4.0, abs=1e-15)
    for j in (2, 3):
        assert diag_fourier_sequence(p.u, t, 1, j=j)[1] == 0.0


@given(
    delta=st.floats(min_value=0.0, max_value=100.0),
    t=st.floats(min_value=-math.pi, max_value=math.pi),
    n=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=60, deadline=None)
def test_h_bounded_and_real(delta, t, n):
    p = StickinessParam(delta)
    for j in range(n + 1):
        seq = diag_fourier_sequence(p.u, t, n, j=j)
        assert seq.dtype == np.float64 and seq.shape == (n + 1,)
        assert np.max(np.abs(seq)) <= 1.0 + 1e-12


def test_h_at_zero_angle_is_a_distribution():
    # h(j, 0, n) = P(half-distance = j); the line mass mirrors over +-j
    for delta in (0.0, 1.0, 20.0):
        p = StickinessParam(delta)
        for n in (1, 7, 23):
            hj = np.array([diag_fourier_sequence(p.u, 0.0, n, j=j)[n] for j in range(n + 1)])
            assert np.all(hj >= -1e-15)
            assert hj[0] + 2.0 * hj[1:].sum() == pytest.approx(1.0, abs=1e-12)


def test_h_vanishes_beyond_support():
    seq = diag_fourier_sequence(1.4, 0.3, 6, j=5)
    assert np.all(seq[:5] == 0.0)  # h(5, t, n) = 0 for n < 5


def test_h_oracle_example():
    p = StickinessParam(1.0)
    assert p.u == pytest.approx(4.0 / 3.0)
    got = diag_fourier_sequence(p.u, 0.7, 10)[10]
    want = brute_force_h(p, 0, 0.7, 10)
    assert got == pytest.approx(want.real, abs=1e-12)
    assert abs(want.imag) <= 1e-12


# ---------------------------------------------------------------------------
# diagonal occupation and covariance
# ---------------------------------------------------------------------------

def test_diag_occupation_examples():
    # h(0, 0, k) = P(walks coincide at step k)
    assert np.all(diag_fourier_sequence(U2.u, 0.0, 40) == 1.0)
    occ = diag_fourier_sequence(StickinessParam(0.0).u, 0.0, 5)
    assert occ[0] == 1.0
    assert occ[1] == pytest.approx(0.5, abs=1e-15)
    p = StickinessParam(3.0)
    for k in (0, 3, 8, 12):
        want = brute_force_h(p, 0, 0.0, k).real
        assert diag_fourier_sequence(p.u, 0.0, k)[k] == pytest.approx(want, abs=1e-12)


def test_exact_covariance_examples():
    for n in (0, 1, 10, 200):
        assert exact_covariance(StickinessParam(0.0), n) == 0.0
        assert exact_covariance(U2, n) == float(n)
    p = StickinessParam(2.0)
    for n in (1, 4, 8, 12):
        table = endpoint_distribution(p.delta, n)
        coords = np.arange(-n, n + 1, dtype=float)
        want = float(coords @ table @ coords)
        assert exact_covariance(p, n) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# characteristic function and the coupling variants
# ---------------------------------------------------------------------------

def test_char_independent_walks_factorize():
    p = StickinessParam(0.0)
    for s, t, n in ((0.2, 0.5, 3), (1.1, -0.4, 9), (2.0, 2.0, 20)):
        got = char_fn_exact(p, s, t, n)
        assert got.imag == 0.0
        assert got.real == pytest.approx(math.cos(s) ** n * math.cos(t) ** n, abs=1e-14)


def test_char_absorbed_diagonal_single_walk():
    for s, t, n in ((0.3, 0.3, 5), (1.0, -0.2, 12)):
        want = math.cos(s + t) ** n
        for variant in CouplingVariant:
            got = char_fn_exact(U2, s, t, n, variant)
            assert got.real == pytest.approx(want, abs=1e-12)


def test_char_oracle_example():
    p = StickinessParam(5.0)
    got = char_fn_exact(p, 0.4, -0.9, 12)
    want = brute_force_char(p, 0.4, -0.9, 12)
    assert abs(got - want) <= 1e-12


def test_char_normalization_and_symmetry():
    for delta in (0.0, 1.0, 12.0):
        p = StickinessParam(delta)
        assert char_fn_exact(p, 0.0, 0.0, 19) == 1.0 + 0.0j
        for variant in CouplingVariant:
            a = char_fn_exact(p, 0.7, -1.4, 15, variant)
            b = char_fn_exact(p, -1.4, 0.7, 15, variant)
            assert a.imag == 0.0
            assert abs(a - b) <= 1e-12
            assert abs(a) <= 1.0 + 1e-12


def test_oracle_equivalence_grid():
    angles = np.linspace(-math.pi, math.pi, 3)
    for delta in (0.0, 0.5, 1.0, 5.0, 50.0):
        p = StickinessParam(delta)
        for n in (1, 4, 8):
            for s in angles:
                for t in angles:
                    gap = abs(char_fn_exact(p, s, t, n) - brute_force_char(p, s, t, n))
                    assert gap <= 1e-12, (delta, n, s, t)
            for j in (0, 1, 2):
                for t in angles:
                    gap = abs(
                        diag_fourier_sequence(p.u, t, n, j=j)[n] - brute_force_h(p, j, t, n)
                    )
                    assert gap <= 1e-12, (delta, n, j, t)


def test_variant_discrimination():
    p = StickinessParam(0.0)
    s = t = math.pi / 2
    paper = char_fn_exact(p, s, t, 1, CouplingVariant.PAPER)
    kernel = char_fn_exact(p, s, t, 1, CouplingVariant.KERNEL)
    oracle = brute_force_char(p, s, t, 1)
    assert paper.real == pytest.approx(-0.5, abs=1e-12)
    assert abs(kernel) <= 1e-12
    assert abs(oracle) <= 1e-12


def test_variant_agreement_under_scaling():
    grid = [(s, t) for s in (-2.0, 1.0, 2.0) for t in (-2.0, 1.0, 2.0)]
    sups = []
    for n in (64, 256, 1024):
        p = StickinessParam(math.sqrt(n))
        rn = math.sqrt(n)
        sup = 0.0
        for s, t in grid:
            fk = char_fn_exact(p, s / rn, t / rn, n, CouplingVariant.KERNEL).real
            fp = char_fn_exact(p, s / rn, t / rn, n, CouplingVariant.PAPER).real
            sup = max(sup, abs(fk - fp))
        sups.append(sup)
    assert sups[0] > sups[1] > sups[2]


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------

def test_brute_force_examples():
    assert brute_force_char(StickinessParam(3.0), 0.8, -0.1, 0) == 1.0 + 0.0j
    got = brute_force_char(StickinessParam(0.0), 0.2, 0.5, 3)
    assert got.real == pytest.approx(math.cos(0.2) ** 3 * math.cos(0.5) ** 3, abs=1e-14)
    assert abs(got.imag) <= 1e-14
    got = brute_force_char(U2, 0.3, 0.3, 5)
    assert got.real == pytest.approx(math.cos(0.6) ** 5, abs=1e-14)


def test_brute_force_h_examples():
    p = StickinessParam(1.5)
    assert brute_force_h(p, 0, 0.0, 0) == 1.0 + 0.0j
    for n in (3, 7):
        v = brute_force_h(p, 0, 0.0, n)
        assert 0.0 <= v.real <= 1.0 and v.imag == 0.0
    p = StickinessParam(2.0)
    got = brute_force_h(p, 1, 0.3, 6)
    want = diag_fourier_sequence(p.u, 0.3, 6, j=1)[6]
    assert got.real == pytest.approx(want, abs=1e-12)
    assert brute_force_h(p, 9, 0.3, 6) == 0.0 + 0.0j  # beyond support


def test_brute_force_capacity():
    with pytest.raises(CapacityError):
        brute_force_char(StickinessParam(1.0), 0.1, 0.1, 15)
    with pytest.raises(ValueError):
        brute_force_h(StickinessParam(1.0), -1, 0.1, 3)


@pytest.mark.parametrize("call", [
    lambda p: diag_fourier_sequence(p.u, 0.1, 2**15 + 1),
    lambda p: char_fn_exact(p, 0.1, 0.1, 10**6),
    lambda p: exact_covariance(p, 10**6),
    lambda p: gf_series(p, 0.1, 0.99999, 0, series_truncation(0.99999, 1e-12)),
])
def test_h_recursion_capacity(call):
    # O(n^2) work: refused up front instead of running for minutes
    with pytest.raises(CapacityError):
        call(StickinessParam(1.0))


def test_endpoint_distribution_is_a_distribution():
    table = endpoint_distribution(1.0, 6)
    assert table.shape == (13, 13)
    assert np.all(table >= 0.0)
    assert table.sum() == pytest.approx(1.0, abs=1e-13)
    # parity: x and y both share n's parity, so indices x + n, y + n are even
    xs, ys = np.nonzero(table)
    assert np.all(xs % 2 == 0) and np.all(ys % 2 == 0)


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def test_gf_absorbed_diagonal_geometric():
    for z in (0.2, 0.5, 0.9):
        assert gf_closed_form(U2, 0.0, z, 0) == pytest.approx(1.0 / (1.0 - z), rel=1e-12)


def test_gf_printed_form_matches_rearrangement():
    rng = np.random.default_rng(4)
    for _ in range(300):
        z = float(rng.uniform(0.01, 0.99))
        t = float(rng.uniform(-math.pi, math.pi))
        p = StickinessParam(float(rng.choice([0.0, 0.4, 1.0, 8.0, 300.0])))
        u = p.u
        ct = math.cos(t)
        printed = 1.0 - u * z * ct / 2.0 - (2.0 - u) * (
            1.0 - z * ct / 2.0 - math.sqrt(1.0 - ct * z - math.sin(t) ** 2 * z * z / 4.0)
        )
        assert gf_h0_reciprocal(p, t, z) == pytest.approx(printed, abs=1e-13)


def test_gf_closed_vs_series_with_tail_bound():
    for delta in (0.5, 1.0, 5.0):
        p = StickinessParam(delta)
        for z in (0.3, 0.6, 0.9):
            N = series_truncation(z, 1e-13)
            for t in (0.0, 0.5, 2.0):
                for j in (0, 1, 2, 5):
                    closed = gf_closed_form(p, t, z, j)
                    series = gf_series(p, t, z, j, N)
                    assert abs(closed - series) <= z ** (N + 1) / (1.0 - z) + 1e-12


def test_gf_series_examples():
    p = StickinessParam(1.0)
    assert gf_series(p, 0.9, 0.5, 0, 0) == 1.0
    # tail below double precision: series equals closed form outright
    assert gf_series(p, 0.5, 0.3, 0, 60) == pytest.approx(
        gf_closed_form(p, 0.5, 0.3, 0), abs=1e-13
    )
    assert gf_series(p, 0.5, 0.5, 2, 80) == pytest.approx(
        gf_closed_form(p, 0.5, 0.5, 2), abs=1e-12
    )


def _assert_geometric_ladder(p, t, z):
    # H(j) = H(1) q^(j-1) with 0 < q < 1: consecutive rungs have a common
    # ratio, checked without dividing by H(1), which may be ~0
    h1, h2, h3 = (gf_closed_form(p, t, z, j) for j in (1, 2, 3))
    assert h1 * h3 == pytest.approx(h2 * h2, rel=1e-12)
    assert abs(h2) <= abs(h1)


def test_gf_geometric_ladder():
    _assert_geometric_ladder(StickinessParam(1.0), 0.5, 0.6)


@given(
    z=st.floats(min_value=0.01, max_value=0.99),
    t=st.floats(min_value=-math.pi, max_value=math.pi),
    delta=st.floats(min_value=0.0, max_value=200.0),
)
@settings(max_examples=200, deadline=None)
def test_gf_roots_property(z, t, delta):
    _assert_geometric_ladder(StickinessParam(delta), t, z)


@pytest.mark.parametrize("z", [0.0, 1.0, -0.5, 1.5])
def test_gf_domain(z):
    with pytest.raises(ValueError):
        gf_closed_form(StickinessParam(1.0), 0.3, z, 0)


def test_series_truncation_bound():
    for z in (0.3, 0.6, 0.9, 0.99):
        for tol in (1e-6, 1e-10, 1e-13):
            N = series_truncation(z, tol)
            assert z ** (N + 1) / (1.0 - z) <= tol
            if N > 0:
                assert z ** N / (1.0 - z) > tol
