import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stickywalk.exact as exact
from stickywalk.errors import CapacityError
from stickywalk.exact import (
    CouplingVariant,
    brute_force_char,
    brute_force_h,
    char_fn,
    char_fn_exact,
    char_fn_gf,
    diag_fourier_sequence,
    endpoint_distribution,
    exact_covariance,
    gf_closed_form,
    gf_domain_error,
    gf_h0_reciprocal,
)
from stickywalk.harness import oracle_gaps
from stickywalk.kernel import StickinessParam
from stickywalk.limits import RegimeSpec, covariance_limit, limit_cf

from oracles import literal_endpoint_law, per_angle_h_sequence

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


# cos t = 0 and t = pi included; at n = 1500 some angles decay to subnormal h
_MATCH_ANGLES = (0.0, 1e-3, math.pi / 2, math.pi, -2.0,
                 *np.random.default_rng(20241).uniform(-math.pi, math.pi, 4).tolist())


@pytest.mark.parametrize("delta", [0.0, 0.7, 5.0, 300.0, 1e6])
def test_h_matches_per_angle_recursion_bytes(delta):
    # the batched recursion, and its one-angle case, against the per-angle
    # recursion that carries every cell: same bytes, not just close
    u = StickinessParam(delta).u
    for j in (0, 1, 3):
        # the reference is causal: its n = 200 output is its n = 1500 output cut
        want = [per_angle_h_sequence(u, t, 1500, j) for t in _MATCH_ANGLES]
        # at small n the light cone binds from about step n / 2 on
        for n in (1500, 200, 64, 17, 3, 2, 1):
            batch = diag_fourier_sequence(u, _MATCH_ANGLES, n, j=j)
            assert batch.shape == (len(_MATCH_ANGLES), n + 1)
            for t, got, ref in zip(_MATCH_ANGLES, batch, want):
                assert got.tobytes() == ref[: n + 1].tobytes(), (n, j, t)
        # one angle alone is the one-column batch (n = 200 here, for time)
        for t, ref in zip(_MATCH_ANGLES, want):
            assert diag_fourier_sequence(u, t, 200, j=j).tobytes() == ref[:201].tobytes(), (j, t)
    # j > n: h(j, t, k) = 0 for every k <= n
    for n, j in ((1, 2), (3, 40), (64, 65)):
        got = diag_fourier_sequence(u, _MATCH_ANGLES, n, j=j)
        assert got.tobytes() == np.zeros_like(got).tobytes(), (n, j)


@pytest.mark.parametrize("j", [0, 1, 5])
@pytest.mark.parametrize("n", [1, 2, 17, 600])
def test_h_steps_compute_only_the_light_cone(monkeypatch, n, j):
    # the one 2-D multiply of step k covers buffer rows 0..last; no row past
    # target + (n - k) + 1 can reach the output row by step n, so none may be
    # computed: the full carry of about 27 sqrt(k) rows must not come back
    lasts = []
    real = np.multiply

    def spying(a, b, out=None, **kwargs):
        if out is not None and out.ndim == 2:
            lasts.append(out.shape[0] - 1)
        return real(a, b, out=out, **kwargs)

    angles = [0.0, 0.4, 2.0]
    u = StickinessParam(5.0).u
    monkeypatch.setattr(exact.np, "multiply", spying)
    got = diag_fourier_sequence(u, angles, n, j=j)
    monkeypatch.undo()
    target = j + 1 if j else 0
    assert len(lasts) == n
    for k, last in enumerate(lasts, start=1):
        assert last <= target + (n - k) + 1, (k, last)
    for t, row in zip(angles, got):
        assert row.tobytes() == per_angle_h_sequence(u, t, n, j).tobytes(), t


@pytest.mark.parametrize("t, j, n", [
    (math.pi / 2, 0, 2500),  # every cell decays like 2**-k, subnormal past k ~ 1000
    (0.0, 600, 1500),  # h(600, .) sits next to the frontier, where cells are dropped
])
def test_h_frontier_error_bound(t, j, n):
    # a dropped frontier cell is below tiny, and at most one goes per step
    u = StickinessParam(5.0).u
    got = diag_fourier_sequence(u, t, n, j=j)
    want = per_angle_h_sequence(u, t, n, j)
    assert np.max(np.abs(got - want)) <= 2 * n * np.finfo(np.float64).tiny


def test_h_repeated_cosines_share_a_column_bytes():
    # t and -t, an exact repeat and 0: one column per distinct cos t, and the
    # rows are the bytes of one column per angle
    u = StickinessParam(5.0).u
    angles = [0.01, -0.01, 0.3, 0.01, 0.0, -0.3]
    distinct = [0.01, 0.3, 0.0]
    column = [0, 0, 1, 0, 2, 1]
    for j in (0, 1, 3):
        batch = diag_fourier_sequence(u, angles, 300, j=j)
        for t, got in zip(angles, batch):
            assert got.tobytes() == diag_fourier_sequence(u, t, 300, j=j).tobytes(), (j, t)
    # next to the frontier, where the carried rows depend on every column
    j, n = 600, 1500
    batch = diag_fourier_sequence(u, angles, n, j=j)
    assert batch.tobytes() == diag_fourier_sequence(u, distinct, n, j=j)[column].tobytes()
    per_angle = np.zeros((len(angles), n + 1))
    exact._h_steps(u, np.array([math.cos(t) for t in angles]), j, per_angle.T)
    assert batch.tobytes() == per_angle.tobytes()


def test_h_angle_shapes_and_validation():
    u = StickinessParam(2.0).u
    assert diag_fourier_sequence(u, 0.4, 5).shape == (6,)
    assert diag_fourier_sequence(u, [0.4], 5).shape == (1, 6)
    assert diag_fourier_sequence(u, np.array([0.4, -1.0, 0.4]), 0, j=2).shape == (3, 1)
    assert diag_fourier_sequence(u, [], 5).shape == (0, 6)
    for bad in (math.nan, math.inf, [0.1, -math.inf], [0.2, math.nan]):
        with pytest.raises(ValueError):
            diag_fourier_sequence(u, bad, 5)
    with pytest.raises(ValueError):
        diag_fourier_sequence(u, [[0.1, 0.2]], 5)


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
    for n in (0, 1, 10):  # below 16: the recursion's sum
        assert exact_covariance(U2, n) == float(n)
    # on the contour; 1e-12 relative is the bound on covariance rows
    assert exact_covariance(U2, 200) == pytest.approx(200.0, rel=1e-12, abs=0.0)
    p = StickinessParam(2.0)
    for n in (1, 4, 8, 12):
        table = endpoint_distribution(p.delta, n)
        coords = np.arange(-n, n + 1, dtype=float)
        want = float(coords @ table @ coords)
        assert exact_covariance(p, n) == pytest.approx(want, abs=1e-12)


def test_exact_covariance_at_1e8():
    # past the h recursion's budget: [z^n] of (u - 1) z H(0, 0, z) / (1 - z)
    n = 10 ** 8
    value = exact_covariance(StickinessParam(2.0 * math.sqrt(n)), n) / n
    assert abs(value - covariance_limit(2.0)) <= 1e-8


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


def test_char_fn_exact_array_equals_scalar_calls():
    p = StickinessParam(7.0)
    # repeated points and (s, t) / (t, s) pairs share one s + t row
    s = np.array([0.3, -1.1, 0.0, 2.0, 0.3, -0.3, 0.25])
    t = np.array([-0.3, 0.4, 0.0, -2.5, -0.3, 0.3, 0.0])
    # one coupling per point: the repeated point and the pair differ in it
    K, P = CouplingVariant.KERNEL, CouplingVariant.PAPER
    mixed = [P, K, K, P, K, P, K]
    for n in (0, 1, 40):
        for variant in (K, P, mixed):
            got = char_fn_exact(p, s, t, n, variant)
            assert got.dtype == np.complex128 and got.shape == s.shape
            per_point = variant if isinstance(variant, list) else [variant] * s.size
            for a, b, v, value in zip(s.tolist(), t.tolist(), per_point, got):
                want = char_fn_exact(p, a, b, n, v)
                assert type(want) is complex
                assert value == want, (n, v, a, b)
    assert char_fn_exact(p, [0.2, -1.0], (0.5, 0.1), 9).shape == (2,)
    assert char_fn_exact(p, [], [], 5).shape == (0,)


@pytest.mark.parametrize("s, t", [
    (math.nan, 0.1), (0.1, math.inf), (-math.inf, 0.0), ([0.1, math.nan], [0.2, 0.3]),
])
def test_char_fn_exact_rejects_non_finite_angles(s, t):
    for n in (0, 4):
        with pytest.raises(ValueError):
            char_fn_exact(StickinessParam(1.0), s, t, n)


def test_char_fn_exact_rejects_mismatched_angles():
    p = StickinessParam(1.0)
    for s, t in (([0.1, 0.2], [0.3]), (0.1, [0.3]), ([[0.1]], [[0.2]])):
        with pytest.raises(ValueError):
            char_fn_exact(p, s, t, 4)
    for variant in ([CouplingVariant.KERNEL], [CouplingVariant.PAPER] * 3, []):
        with pytest.raises(ValueError):  # one coupling per point, or one for all
            char_fn_exact(p, [0.1, 0.2], [0.3, 0.4], 4, variant)


def test_char_fn_gf_array_equals_scalar_calls():
    p = StickinessParam(7.0)
    s = np.array([0.3, -1.1, 0.0, 0.2, 0.3, -0.3, 0.25]) / 4
    t = np.array([-0.3, 0.4, 0.0, -0.5, -0.3, 0.3, 0.0]) / 4
    K, P = CouplingVariant.KERNEL, CouplingVariant.PAPER
    mixed = [P, K, K, P, K, P, K]
    for n in (16, 40, 10 ** 6):
        for variant in (K, P, mixed):
            got = char_fn_gf(p, s, t, n, variant)
            assert got.dtype == np.complex128 and got.shape == s.shape
            assert np.all(got.imag == 0.0)
            per_point = variant if isinstance(variant, list) else [variant] * s.size
            for a, b, v, value in zip(s.tolist(), t.tolist(), per_point, got):
                want = char_fn_gf(p, a, b, n, v)
                assert type(want) is complex
                assert value == want, (n, v, a, b)
            if n == 40:
                assert np.max(np.abs(got - char_fn_exact(p, s, t, n, variant))) <= 1e-12
    assert char_fn_gf(p, [0.2, -0.1], (0.05, 0.1), 64).shape == (2,)
    assert char_fn_gf(p, [], [], 64).shape == (0,)
    assert char_fn_gf(p, 0.0, 0.0, 10 ** 8) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("s, t", [
    (math.nan, 0.1), (0.1, math.inf), (-math.inf, 0.0), ([0.1, math.nan], [0.2, 0.3]),
])
def test_char_fn_gf_rejects_non_finite_angles(s, t):
    with pytest.raises(ValueError, match="finite"):
        char_fn_gf(StickinessParam(1.0), s, t, 64)


def test_char_fn_gf_refuses_outside_its_domain():
    p = StickinessParam(1.0)
    for n in (0, 13, 15):
        assert "below 16" in gf_domain_error(0.1, 0.1, n)
        with pytest.raises(ValueError, match="below 16"):
            char_fn_gf(p, 0.1, 0.1, n)
    assert gf_domain_error([0.1, -0.2], [0.1, 0.3], 16) == ""
    # the branch point -2 / (1 - cos w): rho = sin^2(w / 2) = 1 at w = pi
    # the pole 1 / (cos s cos t) < 0: rho = -cos(3) cos(0.1) = 0.985
    # rho = sin^2(0.5) = 0.23: rho^16 = 6e-11 is out, rho^32 = 3.6e-21 is in
    for s, t, n in ((math.pi / 2, math.pi / 2, 10 ** 6), (3.0, 0.1, 1000), (0.5, 0.5, 16)):
        assert "rho^n" in gf_domain_error([0.0, s], [0.0, t], n)
        with pytest.raises(ValueError, match="rho\\^n"):
            char_fn_gf(p, [0.0, s], [0.0, t], n)
    assert gf_domain_error(0.5, 0.5, 32) == ""
    with pytest.raises(ValueError):
        char_fn_gf(p, [0.1, 0.2], [0.3], 64)
    # the worst point prints as plain numbers, not as numpy scalars' reprs
    with pytest.raises(ValueError, match=r"at \(s, t\) = \(2\.0, 0\.0\), n = 16:"):
        char_fn_gf(p, 2.0, 0.0, 16)


def test_char_fn_takes_the_contour_inside_its_domain_only():
    p = StickinessParam(3.0)
    s, t = np.array([0.1, -0.4]), np.array([0.2, 0.3])
    for n in (16, 64, 10 ** 6):
        assert char_fn(p, s, t, n).tobytes() == char_fn_gf(p, s, t, n).tobytes()
    assert char_fn(p, 0.1, 0.2, 10 ** 6) == char_fn_gf(p, 0.1, 0.2, 10 ** 6)
    # below n = 16, and at rho = 1 (s + t = pi), the recursion answers
    for a, b, n in ((0.1, 0.2, 0), (0.1, 0.2, 15), (math.pi / 2, math.pi / 2, 64)):
        assert char_fn(p, [0.0, a], [0.0, b], n).tobytes() == \
            char_fn_exact(p, [0.0, a], [0.0, b], n).tobytes()
    with pytest.raises(ValueError, match="finite"):
        char_fn(p, math.nan, 0.1, 64)
    for n in (8, 64):  # the same refusal on either side of n = 16
        with pytest.raises(ValueError, match="equal-length"):
            char_fn(p, [0.1, 0.2], [0.3, 0.1, 0.2], n)


def test_char_fn_checks_the_domain_once_per_call(monkeypatch):
    # char_fn decides the route by one gf_domain_error call and takes the
    # contour without char_fn_gf's own check; char_fn_gf still checks
    causes = []
    real = exact.gf_domain_error

    def spying(s, t, n):
        causes.append(real(s, t, n))
        return causes[-1]

    monkeypatch.setattr(exact, "gf_domain_error", spying)
    p, s, t = StickinessParam(3.0), np.array([0.1, -0.4]), np.array([0.2, 0.3])
    for n in (16, 4096):
        char_fn(p, s, t, n)
    assert causes == ["", ""]
    char_fn_gf(p, s, t, 64)
    char_fn(p, s, t, 8)  # below 16: refused, so the recursion answers
    assert causes[2] == "" and "below 16" in causes[3] and len(causes) == 4


def test_char_fn_gf_complements_at_1e8():
    # n (f_n - phi) has a limit whose sup over the default grid is 0.174 at
    # alpha = 2 (0.17399 from the recursion at n = 8192); with the naive
    # 1 - cos s cos t in the denominator the same sup reads 0.150 at n = 1e8
    n, axis = 10 ** 8, (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)
    s, t = np.repeat(axis, 6), np.tile(axis, 6)
    phi = limit_cf(RegimeSpec.critical(2.0), s, t)
    f = char_fn_gf(StickinessParam(2.0 * math.sqrt(n)), s / math.sqrt(n), t / math.sqrt(n), n)
    assert n * np.max(np.abs(f.real - phi)) == pytest.approx(0.17399, abs=2e-5)


def test_gf_h0_reciprocal_complex_arrays():
    p = StickinessParam(3.0)
    z = np.array([0.2, 0.7, 0.999])
    t = np.array([[0.0], [0.4], [2.5]])
    got = gf_h0_reciprocal(p, t, z.astype(complex))
    assert got.shape == (3, 3) and got.dtype == np.complex128
    for i, a in enumerate(t[:, 0].tolist()):
        for k, b in enumerate(z.tolist()):
            assert got[i, k] == pytest.approx(gf_h0_reciprocal(p, a, b), abs=1e-15)
    # conjugate off the real axis, away from the cuts on z >= 2/(1 + cos t) and z <= -2/(1 - cos t)
    w = np.array([2.0 + 1.5j, -3.0 + 0.1j, 0.5 - 4j])
    assert np.allclose(gf_h0_reciprocal(p, 0.4, w.conjugate()), gf_h0_reciprocal(p, 0.4, w).conjugate(),
                       rtol=0.0, atol=1e-14)


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


def test_unknown_coupling_is_refused():
    # "kernel" is the CLI's flag value, not a CouplingVariant value: it must
    # not run as the paper coupling, whose value at this point is -0.5
    p = StickinessParam(0.0)
    s = t = math.pi / 2
    for call in (char_fn_exact, char_fn_gf, char_fn):
        with pytest.raises(ValueError, match="CouplingVariant"):
            call(p, s, t, 16, "kernel")
        with pytest.raises(ValueError, match="CouplingVariant"):
            call(p, [s, s], [t, t], 16, [CouplingVariant.KERNEL, "paper"])
    # a variant's value names it as well as the member does
    paper = char_fn_exact(p, s, t, 1, CouplingVariant.PAPER)
    assert char_fn_exact(p, s, t, 1, "paper-prop2") == paper
    assert abs(char_fn_exact(p, s, t, 1, "kernel-derived")) <= 1e-12


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
    # s + t = pi: rho = 1, outside the contour's domain, so char_fn runs the recursion
    lambda p: char_fn(p, math.pi / 2, math.pi / 2, 10**6),
])
def test_h_recursion_capacity(call):
    # O(n^2) work: refused up front instead of running for minutes
    with pytest.raises(CapacityError):
        call(StickinessParam(1.0))


@pytest.mark.parametrize("delta", [0.0, 1.0, 50.0, 1e300])
def test_endpoint_distribution_matches_literal_enumeration(delta):
    # odd n splits unevenly (a = n // 2 < n - a); delta 1e300 is U2, apart weight 0
    u = StickinessParam(delta).u
    for n in range(7):
        want = np.zeros((2 * n + 1, 2 * n + 1))
        for (x, y), prob in literal_endpoint_law(u, n).items():
            want[x + n, y + n] = prob
        gap = np.max(np.abs(endpoint_distribution(delta, n) - want))
        assert gap <= 1e-15, (delta, n, gap)


@pytest.mark.parametrize("delta", [1.0, 50.0])
def test_oracle_equivalence_at_enumeration_cap(delta):
    # n = 14 is the largest enumeration the oracle allows
    gaps = oracle_gaps(deltas=(delta,), ns=(14,), angles=(-2.0, 0.5, 1.3), js=(0, 1, 2))
    assert gaps["f"] <= 1e-12 and gaps["h"] <= 1e-12, gaps


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


def test_gf_closed_form_coefficients_match_recursion():
    # [z^n] H(j, t, z) read off the contour is h(j, t, n); at t = 2,
    # rho = sin^2(1) and rho^96 = 4e-15 keeps the contour's error below 1e-13
    for delta in (0.5, 1.0, 5.0):
        p = StickinessParam(delta)
        for n in (96, 200):
            for j in (0, 1, 2, 5):
                h = diag_fourier_sequence(p.u, [0.0, 0.5, 2.0], n, j=j)[:, n]
                for t, want in zip((0.0, 0.5, 2.0), h.tolist()):
                    got = exact._zn_coefficient(
                        lambda z, one_minus_z: gf_closed_form(p, t, z, j, one_minus_z), n)
                    assert abs(got - want) <= 1e-12, (delta, n, t, j)


def test_gf_closed_form_complex_arrays():
    # the complex path continues the real one: equal at real z, and
    # conjugate off the real axis, away from the cuts
    p = StickinessParam(3.0)
    z = np.array([0.2, 0.7, 0.999])
    for t in (0.0, 0.4, 2.5):
        for j in (0, 1, 4):
            got = gf_closed_form(p, t, z.astype(complex), j)
            assert got.shape == (3,) and got.dtype == np.complex128
            for value, b in zip(got, z.tolist()):
                assert value == pytest.approx(gf_closed_form(p, t, b, j), rel=1e-12)
            w = np.array([2.0 + 1.5j, -3.0 + 0.1j, 0.5 - 4j])
            assert np.allclose(gf_closed_form(p, t, w.conjugate(), j),
                               gf_closed_form(p, t, w, j).conjugate(), rtol=1e-13, atol=0.0)


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


@pytest.mark.parametrize("call, message", [
    (lambda p: diag_fourier_sequence(p.u, 0.1, -1), "n must be >= 0"),
    (lambda p: diag_fourier_sequence(p.u, 0.1, 4, j=-1), "j must be >= 0"),
    (lambda p: char_fn_exact(p, 0.1, 0.2, -1), "n must be >= 0"),
    (lambda p: endpoint_distribution(p.delta, -1), "n must be >= 0"),
    (lambda p: exact_covariance(p, -1), "n must be >= 0"),
    (lambda p: gf_closed_form(p, 0.3, 0.5, -1), "j must be >= 0"),
], ids=["diag_fourier_sequence-n", "diag_fourier_sequence-j", "char_fn_exact-n",
        "endpoint_distribution-n", "exact_covariance-n", "gf_closed_form-j"])
def test_negative_step_or_index_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call(StickinessParam(1.0))


def test_gf_h0_reciprocal_real_scalar_radicand():
    # at t = 0 the radicand is one_minus_z itself: a rounding just below 0 is
    # taken as 0 and the value stays a float, one further below is refused
    p = StickinessParam(1.0)
    value = gf_h0_reciprocal(p, 0.0, 0.5, one_minus_z=-5e-15)
    assert type(value) is float and value == p.u_minus_one * -5e-15
    with pytest.raises(ArithmeticError, match="unexpectedly negative"):
        gf_h0_reciprocal(p, 0.0, 0.5, one_minus_z=-1e-13)
