"""Error-function family and deterministic adaptive quadrature on [0, 1].

The scaled form erfcx(z) = exp(z^2) erfc(z) is the workhorse: every
exp(b^2 x / 4) * erfc(-(b/2) sqrt(x)) product downstream is a single erfcx
evaluation, which stays finite where the separate factors overflow and
underflow.  The complex case routes through the Faddeeva function
w(z) = exp(-z^2) erfc(-iz), for which erfcx(z) = w(iz).
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

from scipy import integrate, special

from .errors import QuadratureError

__all__ = [
    "erfc_real",
    "erfcx_real",
    "erfcx_complex",
    "integrate_01",
]

# Frozen high-precision reference values (40-digit evaluation of the erfc
# integral, rounded to the nearest double) on 50 equispaced points of
# [-6, 6]; the self-test and the test suite check erfc_real against it.
ERFC_TABLE = (
    (-6.0, 2.0),
    (-5.755102040816326, 1.9999999999999996),
    (-5.510204081632653, 1.9999999999999933),
    (-5.26530612244898, 1.999999999999904),
    (-5.020408163265306, 1.9999999999987519),
    (-4.775510204081632, 1.999999999985577),
    (-4.530612244897959, 1.9999999998518354),
    (-4.285714285714286, 1.9999999986465087),
    (-4.040816326530612, 1.999999989002292),
    (-3.795918367346939, 1.9999999204909578),
    (-3.5510204081632653, 1.9999994883750474),
    (-3.306122448979592, 1.999997068520319),
    (-3.0612244897959187, 1.9999850365135425),
    (-2.816326530612245, 1.9999319169182805),
    (-2.5714285714285716, 1.9997236850716134),
    (-2.326530612244898, 1.9989988777032648),
    (-2.0816326530612246, 1.9967586715825605),
    (-1.8367346938775508, 1.9906104480691649),
    (-1.591836734693878, 1.975626943452925),
    (-1.3469387755102042, 1.9432016088800124),
    (-1.1020408163265305, 1.8808902224293267),
    (-0.8571428571428577, 1.7745576830054872),
    (-0.6122448979591839, 1.6134248530682336),
    (-0.36734693877551017, 1.3965927832280591),
    (-0.12244897959183731, 1.1374814161014142),
    (0.12244897959183643, 0.8625185838985869),
    (0.36734693877551017, 0.6034072167719409),
    (0.6122448979591839, 0.3865751469317664),
    (0.8571428571428568, 0.22544231699451325),
    (1.1020408163265305, 0.11910977757067341),
    (1.3469387755102042, 0.05679839111998771),
    (1.591836734693877, 0.024373056547075007),
    (1.8367346938775508, 0.009389551930835186),
    (2.0816326530612237, 0.0032413284174395715),
    (2.3265306122448983, 0.001001122296735159),
    (2.571428571428571, 0.00027631492838657616),
    (2.816326530612244, 6.808308171939162e-05),
    (3.0612244897959187, 1.4963486457480846e-05),
    (3.3061224489795915, 2.9314796809007846e-06),
    (3.5510204081632644, 5.116249527043402e-07),
    (3.795918367346939, 7.95090422670671e-08),
    (4.040816326530612, 1.099770800506577e-08),
    (4.285714285714285, 1.3534912472915963e-09),
    (4.530612244897959, 1.4816456988241203e-10),
    (4.775510204081632, 1.4422967437666908e-11),
    (5.020408163265305, 1.2482071492899825e-12),
    (5.26530612244898, 9.601814559941557e-14),
    (5.5102040816326525, 6.564140306064804e-15),
    (5.755102040816325, 3.9874244979149193e-16),
    (6.0, 2.1519736712498913e-17),
)


def erfc_real(x: float) -> float:
    """erfc(x) = 1 - (2/sqrt(pi)) * integral_0^x exp(-y^2) dy."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    return float(special.erfc(x))


def erfcx_real(x: float) -> float:
    """exp(x^2) erfc(x), overflow-free for x >= 0; ~ 1/(x sqrt(pi)) as x -> inf."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    return float(special.erfcx(x))


def erfcx_complex(z: complex) -> complex:
    """exp(z^2) erfc(z) for complex z, via the Faddeeva function w(iz)."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    return complex(special.wofz(1j * z))


def integrate_01(
    f: Callable[[float], float],
    singular_sqrt_at_zero: bool = False,
    tol: float = 1e-10,
) -> float:
    """Adaptive quadrature of f over [0, 1] to absolute error <= tol.

    With ``singular_sqrt_at_zero`` the integral is rewritten through x = y^2
    first, which turns a 1/sqrt(x) endpoint singularity (or a sqrt(x) cusp)
    into a smooth integrand.  Deterministic; raises QuadratureError with the
    achieved error estimate if the tolerance cannot be met.
    """
    if not tol > 0.0:
        raise ValueError("tol must be > 0")
    if singular_sqrt_at_zero:
        g = lambda y: 2.0 * y * f(y * y)
    else:
        g = f
    result = integrate.quad(g, 0.0, 1.0, epsabs=0.25 * tol, epsrel=0.0, limit=200, full_output=1)
    value, estimate = result[0], result[1]
    if estimate > tol:
        raise QuadratureError(
            f"quadrature reached error estimate {estimate:.3e} > tol {tol:.3e}",
            estimate=estimate,
        )
    return float(value)
