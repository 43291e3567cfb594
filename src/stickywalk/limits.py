"""Closed-form limiting objects for the three stickiness scalings.

With delta_n -> infinity, the rescaled endpoint law has three regimes
according to how delta_n compares to sqrt(n): far below it the coordinates
decouple into a product of standard normals, far above they fuse into a
single normal, and on the critical scale delta_n ~ alpha sqrt(n) the Fourier
transform picks up an integral of the occupation profile ell_{alpha,w}.
This module imports only specfun: the finite-n side of every comparison,
exact.laplace_empirical included, belongs to the exact engine.

The critical limit_cf and covariance_limit invert Laplace transforms built on
the paper's critical target G on a fixed 33-node contour (absolute error about
1e-13, no quadrature).  Quadratures are the checks: phi_critical integrates
ell, and the harness integrates erfcx for the covariance limit, both by
specfun's tanh-sinh rule, which needs no substitution for ell's sqrt(x) cusp.

ell is assembled from erfcx with parameters b1 = -2/alpha + 2*gamma and
b2 = -2/alpha - 2*gamma, gamma = sqrt(alpha^-2 - w^2/4) (taken with positive
imaginary part when the discriminant is negative).  Raw exp * erfc products
are never formed: b2 makes exp(b2^2 x / 4) overflow at moderate x while the
matching erfc underflows, and the scaled form sidesteps both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .specfun import erfcx_complex, erfcx_real, integrate_01, inverse_laplace_at_1

__all__ = [
    "LimitParams",
    "RegimeSpec",
    "limit_params",
    "ell",
    "laplace_target",
    "phi_critical",
    "limit_cf",
    "covariance_limit",
    "laplace_numeric",
    "ell_laplace_numeric",
    "subcritical_density",
    "supercritical_density",
]

_SQRT_PI = math.sqrt(math.pi)
_DEGENERATE_RTOL = 1e-12
_IMAG_TOL = 1e-8
# truncate infinite Laplace quadratures where exp(-lam x) < 1e-12
_TRUNC_LOG = 12.0 * math.log(10.0)
# the smallest alpha whose alpha^2 is a normal double (2**-1022)
_ALPHA_MIN = 2.0 ** -511


def _check_alpha(alpha) -> None:
    if alpha is None or not (math.isfinite(alpha) and alpha >= _ALPHA_MIN):
        raise ValueError(f"the critical regime needs a finite alpha >= 2**-511, got {alpha!r}")


REGIME_KINDS = ("subcritical", "critical", "supercritical")
# delta_n = coeff * n**exponent off the critical scale, below / above sqrt(n)
_EXPONENTS = {"subcritical": 0.25, "supercritical": 1.0}


@dataclass(frozen=True)
class LimitParams:
    """Parameters of the critical occupation profile at Fourier argument w."""

    alpha: float
    w: float
    gamma: complex
    b1: complex
    b2: complex
    degenerate: bool


def limit_params(alpha: float, w: float) -> LimitParams:
    """gamma, b1, b2 for (alpha, w); flags the degenerate case alpha^-2 = w^2/4."""
    alpha = float(alpha)
    w = float(w)
    _check_alpha(alpha)
    if not math.isfinite(w):
        raise ValueError(f"w must be finite, got {w!r}")
    inv_a2 = 1.0 / (alpha * alpha)
    quarter_w2 = 0.25 * w * w
    disc = inv_a2 - quarter_w2
    degenerate = abs(disc) <= _DEGENERATE_RTOL * max(inv_a2, quarter_w2)
    if disc >= 0.0:
        gamma = complex(math.sqrt(disc), 0.0)
    else:
        gamma = complex(0.0, math.sqrt(-disc))
    b1 = -2.0 / alpha + 2.0 * gamma
    b2 = -2.0 / alpha - 2.0 * gamma
    return LimitParams(alpha=alpha, w=w, gamma=gamma, b1=b1, b2=b2, degenerate=degenerate)


def ell(params: LimitParams, x: float) -> float:
    """The occupation profile ell_{alpha,w}(x) for x >= 0; ell(0) = 1.

    Generic form: (1/2 gamma) e^{-w^2 x/4} [ (b1/2) erfcx(-(b1/2) sqrt(x))
    - (b2/2) erfcx(-(b2/2) sqrt(x)) ].  When gamma is imaginary the two terms
    are conjugates; the imaginary residue is checked against a 1e-8 budget
    and discarded.  The degenerate branch is the explicit limit formula.
    """
    x = float(x)
    if not (x >= 0.0):
        raise ValueError(f"x must be >= 0, got {x!r}")
    damp = math.exp(-0.25 * params.w * params.w * x)
    sx = math.sqrt(x)
    if params.degenerate:
        a = params.alpha
        bracket = -4.0 * sx / (a * _SQRT_PI) + (4.0 * x / (a * a) + 2.0) * erfcx_real(sx / a)
        return 0.5 * damp * bracket
    if params.gamma.imag == 0.0:
        g = params.gamma.real
        b1 = params.b1.real
        b2 = params.b2.real
        bracket = 0.5 * b1 * erfcx_real(-0.5 * b1 * sx) - 0.5 * b2 * erfcx_real(-0.5 * b2 * sx)
        return damp * bracket / (2.0 * g)
    t1 = 0.5 * params.b1 * erfcx_complex(-0.5 * params.b1 * sx)
    t2 = 0.5 * params.b2 * erfcx_complex(-0.5 * params.b2 * sx)
    value = damp * (t1 - t2) / (2.0 * params.gamma)
    if abs(value.imag) > _IMAG_TOL:
        raise ArithmeticError(
            f"conjugate-pair evaluation left imaginary residue {value.imag:.3e}"
        )
    return value.real


@dataclass(frozen=True)
class RegimeSpec:
    """Which delta_n scaling is under test, with the one setting it uses.

    critical uses delta_n = alpha sqrt(n) and refuses a coeff other than the
    default; subcritical and supercritical use delta_n = coeff * n**0.25 and
    coeff * n and refuse alpha, rather than ignore either.
    """

    kind: str
    alpha: float | None = None
    coeff: float = 1.0

    def __post_init__(self):
        if self.kind not in REGIME_KINDS:
            raise ValueError(f"kind must be one of {REGIME_KINDS}, got {self.kind!r}")
        if self.kind != "critical":
            if self.alpha is not None:
                raise ValueError(f"alpha applies only to the critical regime, not {self.kind}")
            if not (math.isfinite(self.coeff) and self.coeff > 0):
                raise ValueError(f"coeff must be finite and > 0, got {self.coeff!r}")
            return
        if self.coeff != 1.0:  # NaN included
            raise ValueError(f"coeff does not apply to the critical regime, got {self.coeff!r}")
        _check_alpha(self.alpha)

    @classmethod
    def subcritical(cls, coeff: float = 1.0) -> "RegimeSpec":
        return cls(kind="subcritical", coeff=coeff)

    @classmethod
    def critical(cls, alpha: float) -> "RegimeSpec":
        return cls(kind="critical", alpha=alpha)

    @classmethod
    def supercritical(cls, coeff: float = 1.0) -> "RegimeSpec":
        return cls(kind="supercritical", coeff=coeff)

    def delta_at(self, n: int) -> float:
        """delta_n under this regime's rule (kept real, never rounded to integer)."""
        if self.kind == "critical":
            return self.alpha * math.sqrt(n)
        return self.coeff * float(n) ** _EXPONENTS[self.kind]


def _critical_target(lam, w2: float, alpha: float, scale: float = 1.0):
    """scale * G(lam), G = 1 / (lam + w^2/2 + sqrt(4 lam + w^2) / alpha) the paper's
    critical target (the transform of ell), in one division; lam real or complex."""
    return scale / (lam + 0.5 * w2 + np.sqrt(4.0 * lam + w2) / alpha)


def laplace_target(regime: RegimeSpec, w: float, lam: float) -> float:
    """Limiting Laplace-transform value for the regime at (w, lam)."""
    if not (lam > 0.0):
        raise ValueError("lam must be > 0")
    if regime.kind == "subcritical":
        return 1.0 / math.sqrt(4.0 * lam + w * w)
    if regime.kind == "critical":
        return float(_critical_target(lam, w * w, regime.alpha))
    return 1.0 / (0.5 * w * w + lam)


def _theta(s: float, t: float) -> float:
    """(s^2 + t^2) / 2; ValueError where it overflows a double."""
    theta = 0.5 * (s * s + t * t)
    if math.isinf(theta):
        raise ValueError(f"(s^2 + t^2) / 2 overflows at s = {s!r}, t = {t!r}")
    return theta


def phi_critical(alpha: float, s: float, t: float, tol: float = 1e-10) -> float:
    """Critical limiting Fourier transform by quadrature, the check on limit_cf:

    exp(-theta) - t s integral_0^1 exp(theta (x - 1)) ell_{alpha,s+t}(x) dx,

    theta = (s^2 + t^2) / 2.  The weight exp(theta (x - 1)) is at most 1, so
    nothing overflows for finite theta.  Up to theta = L = max(1, log(4/tol))
    the integral runs over x itself: the tanh-sinh nodes crowd x = 0, where
    ell has its sqrt(x) cusp.  Above L the weight is a boundary layer of
    width 1/theta at x = 1, so the integral runs in v = theta (1 - x) over
    [0, L] instead, to 3 tol / (4 L) on the unit interval: 0 <= ell <= 1 and
    |t s| <= theta, so the dropped tail is at most exp(-L) <= tol / 4.
    Raises ValueError where theta overflows or tol is not finite and > 0,
    and QuadratureError where tol is missed.
    """
    params = limit_params(alpha, s + t)  # checks alpha on the shortcut too
    theta = _theta(s, t)
    if s == 0.0 or t == 0.0:
        return math.exp(-theta)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    layer = max(1.0, math.log(4.0 / tol))
    if theta <= layer:
        weighted = integrate_01(lambda x: math.exp(theta * (x - 1.0)) * ell(params, x), tol=tol)
    else:
        weighted = layer / theta * integrate_01(
            lambda y: math.exp(-layer * y) * ell(params, 1.0 - layer * y / theta),
            tol=0.75 * tol / layer)
    return math.exp(-theta) - t * s * weighted


def limit_cf(regime: RegimeSpec, s, t):
    """Limiting characteristic function of the rescaled endpoint under the regime.

    The subcritical and supercritical limits are closed forms.  The critical
    one inverts, at time 1, its Laplace transform

        (1 - t s G(lam)) / (lam + theta),  G(lam) = 1 / (lam + w^2/2 + sqrt(4 lam + w^2) / alpha),

    with theta = (s^2 + t^2) / 2 and w = s + t, on specfun's fixed contour:
    absolute error about 1e-13, no quadrature (phi_critical is the check).
    G is the paper's critical Laplace target, the transform of ell; its only
    singularity on the principal sheet is the branch cut lam <= -w^2/4, and
    the pole is -theta.

    s and t are two angles, giving a float, or two equal-length 1-D
    sequences, giving a float64 array with one value per (s[i], t[i]) that
    equals the scalar calls bit for bit: the off-axis critical points share
    one contour call with a row per point, and the closed forms and the axes
    (s t = 0, the Gaussian marginal exp(-theta)) stay math.exp per point.
    Unequal shapes raise ValueError.  So do non-finite angles in every
    regime, and critical angles where theta overflows or the contour value is
    not finite; a sequence raises the scalar call's error at the first such
    point.
    """
    s_arr, t_arr = np.asarray(s, dtype=np.float64), np.asarray(t, dtype=np.float64)
    if s_arr.ndim > 1 or s_arr.shape != t_arr.shape:
        raise ValueError(f"s and t must be two angles or two equal-length 1-D sequences, "
                         f"got shapes {s_arr.shape} and {t_arr.shape}")
    scalar, s_arr, t_arr = s_arr.ndim == 0, s_arr.reshape(-1), t_arr.reshape(-1)
    contour = iter(())
    if regime.kind == "critical":
        with np.errstate(all="ignore"):  # a refused point raises in the loop below
            w = s_arr + t_arr
            theta, w2, ts = 0.5 * (s_arr * s_arr + t_arr * t_arr), w * w, t_arr * s_arr
            inside = np.isfinite(theta) & (ts != 0.0)  # off the axes, theta finite
            theta, w2, ts = (a[inside, None] for a in (theta, w2, ts))
            contour = iter(inverse_laplace_at_1(
                lambda lam: (1.0 - _critical_target(lam, w2, regime.alpha, ts)) / (lam + theta)
            ).tolist())
    values = []
    for s, t in zip(s_arr.tolist(), t_arr.tolist()):
        if not (math.isfinite(s) and math.isfinite(t)):
            raise ValueError(f"angles must be finite, got s = {s!r}, t = {t!r}")
        if regime.kind == "subcritical":
            values.append(math.exp(-0.5 * (s * s + t * t)))
            continue
        if regime.kind == "supercritical":
            try:
                values.append(math.exp(-0.5 * (s + t) ** 2))
            except OverflowError:  # (s + t)^2 above the largest double
                values.append(0.0)
            continue
        theta = _theta(s, t)
        if t * s == 0.0:  # an axis: the Gaussian marginal, exactly
            values.append(math.exp(-theta))
            continue
        value = next(contour)
        if not math.isfinite(value):
            raise ValueError(f"the contour cannot evaluate s = {s!r}, t = {t!r}")
        values.append(value)
    return values[0] if scalar else np.array(values, dtype=np.float64)


def covariance_limit(alpha: float) -> float:
    """Limit of n^-1 E[x y] under delta_n = alpha sqrt(n), in (0, 1): -d2 phi/ds dt
    at 0, the inverse Laplace transform at time 1 of G(lam) / lam at w = 0 on
    limit_cf's contour; integral_0^1 erfcx(2 sqrt(v) / alpha) dv is its check."""
    _check_alpha(alpha)
    return inverse_laplace_at_1(lambda lam: _critical_target(lam, 0.0, alpha) / lam)


def laplace_numeric(f: Callable[[float], float], lam: float, tol: float = 1e-9) -> float:
    """integral_0^inf exp(-lam x) f(x) dx by quadrature, truncated where
    exp(-lam x) < 1e-12 (f is assumed bounded by ~1 in the tail); an
    x^(-1/2) singularity or a sqrt(x) cusp at 0 needs no substitution."""
    if not (lam > 0.0):
        raise ValueError("lam must be > 0")
    x_star = _TRUNC_LOG / lam

    def rescaled(v: float) -> float:
        x = x_star * v
        return x_star * math.exp(-lam * x) * f(x)

    return integrate_01(rescaled, tol=tol)


def ell_laplace_numeric(alpha: float, w: float, lam: float, tol: float = 1e-9) -> float:
    """Numerical Laplace transform of ell_{alpha,w}; the closed-form answer is
    the critical laplace_target."""
    params = limit_params(alpha, w)
    return laplace_numeric(lambda x: ell(params, x), lam, tol=tol)


def subcritical_density(w: float, x: float) -> float:
    """Density on (0, inf) whose Laplace transform is 1 / sqrt(4 lam + w^2):

    exp(-w^2 x / 4) / (2 sqrt(pi x)), with a 1/sqrt(x) endpoint singularity.
    """
    if not (x > 0.0):
        raise ValueError("x must be > 0")
    return math.exp(-0.25 * w * w * x) / (2.0 * math.sqrt(math.pi * x))


def supercritical_density(w: float, x: float) -> float:
    """Density on (0, inf) whose Laplace transform is 1 / (w^2/2 + lam)."""
    if not (x >= 0.0):
        raise ValueError("x must be >= 0")
    return math.exp(-0.5 * w * w * x)
