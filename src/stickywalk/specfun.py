"""Error-function family, tanh-sinh quadrature on [0, 1], and Laplace
inversion on a fixed contour, from numpy and the standard library.

The scaled form erfcx(z) = exp(z^2) erfc(z) is the workhorse: every
exp(b^2 x / 4) * erfc(-(b/2) sqrt(x)) product downstream is a single erfcx
evaluation, which stays finite where the separate factors overflow and
underflow.  On Re z >= 0 it is Weideman's rational approximation of the
Faddeeva function w(z) = exp(-z^2) erfc(-iz) at iz (SIAM J. Numer. Anal. 31,
1994), relative error about 1e-14; the left half-plane follows from
erfcx(z) = 2 exp(z^2) - erfcx(-z).
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable

import numpy as np

from .errors import QuadratureError

__all__ = [
    "erfc_real",
    "erfcx_real",
    "erfcx_complex",
    "integrate_01",
    "CONTOUR_NODES",
    "CONTOUR_WEIGHTS",
    "inverse_laplace_at_1",
]

# Frozen high-precision reference values (40-digit evaluation of the erfc
# integral, rounded to the nearest double) on 50 equispaced points of
# [-6, 6]; the self-test and the acceptance suite check erfc_real against it.
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


# erfcx the same way on 50 points of the strip |Re z| <= 30, |Im z| <= 30,
# restricted to Re(z^2) <= 600 so the values stay representable in double
# precision; the acceptance suite checks erfcx_complex against it.
ERFCX_STRIP_TABLE = (
    (14.646278068487987 - 1.9252266020274966j, 0.03778634117069013 + 0.004944434285918288j),
    (-5.220868842210077 - 9.79019421109923j, -0.02413420678316591 + 0.04488712272723724j),
    (16.209075824184772 + 2.803717015182734j, 0.03374090575690839 - 0.0058148530441033425j),
    (22.945966696000944 + 3.2371327669022776j, 0.02408728965762245 - 0.0033918467174976993j),
    (-19.83108134932611 - 8.483974128396817j, -6.475376524335757e+139 - 2.30770243309001e+139j),
    (17.04413897017554 + 15.492429173416475j, 0.018139692481976756 - 0.016457203960842524j),
    (13.781239748566776 - 11.413168066167618j, 0.02430728419440738 + 0.020067791537180777j),
    (22.447523598488083 - 19.0017129099325j, 0.014647612947957795 + 0.0123848076126812j),
    (5.770911610099709 + 23.319568553283638j, 0.00565533910560334 - 0.02281286774744348j),
    (-9.880671348535628 - 27.08636554966508j, -0.0067160839658706 + 0.018388953122778526j),
    (-17.191602044641947 - 1.3998671832278333j, -3.4149076720493787e+127 - 5.41351990793439e+127j),
    (17.33905230393632 + 29.339819865355217j, 0.008429670941723887 - 0.014251759315930692j),
    (-13.835499359793776 + 4.026282484807204j, -2.8484207859039836e+75 + 2.4598793205970845e+76j),
    (22.160231030956787 - 2.1826164603507188j, 0.025190567357363466 + 0.002476102712292312j),
    (-27.03992757263386 - 15.109558650076846j, 4.665093842511662e+218 + 1.4874330695960242e+218j),
    (3.28523270216629 - 27.924456340156013j, 0.0023488900986575784 + 0.019940249317705085j),
    (-19.071252364296903 + 24.978153047446725j, -0.010903089451946209 - 0.014265622016129891j),
    (16.55359832525464 - 6.877719399918725j, 0.029046526480635878 + 0.012030968191902172j),
    (27.12775816746035 + 27.166485607054383j, 0.010387444994956937 - 0.010395218950616316j),
    (-17.44955754950159 + 5.05362795380946j, 2.5322785468943365e+121 - 1.185827342264161e+121j),
    (5.5518501157337 - 16.16556629109108j, 0.010769181492786961 + 0.031249368505003622j),
    (1.0848592165429487 - 22.5369963383449j, 0.0012058166152503881 + 0.025000430157062836j),
    (-10.856527365101499 - 11.59913042103043j, -0.024321282520403466 + 0.025882263276695912j),
    (22.884721836738485 - 19.56778837339437j, 0.01424673531211529 + 0.012168375258822332j),
    (18.921636893630513 - 19.885076503777796j, 0.01417909844270079 + 0.014881293932464568j),
    (-20.87066121938806 + 5.989136475120638j, 1.8499394182644014e+173 + 7.630171989041216e+173j),
    (8.692393326415065 + 1.2217105959868562j, 0.06327384649172388 - 0.008781155144229332j),
    (-12.152457953848664 + 19.56279300706023j, -0.012950012972638439 - 0.020807348544050072j),
    (16.13459143226548 - 23.202975670273915j, 0.011409291354149458 + 0.016387026677286153j),
    (-26.109650845278573 - 14.957889716641965j, -6.201767394778698e+198 + 1.4475205512661388e+199j),
    (1.3022260473104943 - 26.729148631970553j, 0.0010280649937460837 + 0.021072263594601234j),
    (-7.877526977493307 + 14.41283806193443j, -0.016537621422187003 - 0.030145079454210768j),
    (19.883179860132728 + 11.057193323252534j, 0.02167156962261268 - 0.01202851708987842j),
    (-4.353929878018818 + 3.0624533335199047j, 1043.2720364415454 - 28870.673491263937j),
    (27.503725324628192 + 22.111449524399802j, 0.01246283872251468 - 0.01001138263932618j),
    (5.828522272828167 - 13.454622245973251j, 0.015379734790068798 + 0.03533694318402433j),
    (-18.012585511178088 + 15.515689328308646j, 4.417613783000422e+36 + 1.1192101916377402e+36j),
    (1.1372393771336817 + 13.294751445189476j, 0.0036342025625743183 - 0.042244547925707907j),
    (-1.6467961672026057 - 10.011210598030917j, -0.00915588672983252 + 0.05511222327977547j),
    (21.60689032500418 - 2.45524381250981j, 0.02575290173613743 + 0.002920208732031915j),
    (-24.26603571164376 - 27.265870821338726j, -0.010280941107056036 + 0.011543230667566212j),
    (7.043791287660987 + 16.927635964033563j, 0.011864415522963542 - 0.028427509337383736j),
    (3.2735409198434127 + 10.495153573758955j, 0.015450654031589918 - 0.04912185653459181j),
    (17.737968206542135 - 23.34256129766856j, 0.011653741878818352 + 0.015318083616671967j),
    (-21.966092636012412 + 1.8832251311636696j, 1.0153632683411024e+208 - 1.7815816419358098e+208j),
    (16.200103276870742 - 12.43855142104179j, 0.021922421748359892 + 0.016791936435646894j),
    (9.632764400861461 + 28.024968088810148j, 0.0061976370574664515 - 0.018010464079361944j),
    (-2.5835654989380323 + 13.199585253260231j, -0.008121760277693651 - 0.041263425350369906j),
    (23.594598836039836 + 7.240784488793281j, 0.021841931617505105 - 0.00669195523362069j),
    (-18.035215070648555 - 26.984368219981977j, -0.009667328595180267 + 0.01445056546020108j),
)


@functools.cache  # on first use, not at import: a sweep never evaluates erfcx
def _weideman_coefficients() -> tuple[float, list[float]]:
    """L and p, highest degree first, in Weideman's w(z) = 2 p(Z) / (L - iz)^2 +
    1 / (sqrt(pi) (L - iz)), Z = (L + iz) / (L - iz), Im z >= 0: L = sqrt(N / sqrt(2))
    and the cosine transform of exp(-t^2) (L^2 + t^2), t = L tan(theta / 2), on 4N
    points.  N = 48 reaches a relative error of about 1e-14, N = 32 only 1e-13."""
    N = 48
    L = math.sqrt(N / math.sqrt(2.0))
    theta = np.arange(1 - 2 * N, 2 * N) * (math.pi / (2 * N))
    t = L * np.tan(0.5 * theta)
    f = np.exp(-t * t) * (L * L + t * t)
    return L, (np.cos(np.outer(np.arange(N, 0, -1), theta)) @ f / (4 * N)).tolist()


def _erfcx_right(z):
    """erfcx(z) = w(iz) for Re z >= 0 (float or complex), by Weideman's rule."""
    L, coeffs = _weideman_coefficients()
    s = L + z
    big_z = (L - z) / s
    p = 0.0
    for a in coeffs:
        p = p * big_z + a
    return (2.0 * p / s + 1.0 / math.sqrt(math.pi)) / s


def erfc_real(x: float) -> float:
    """erfc(x) = 1 - (2/sqrt(pi)) * integral_0^x exp(-y^2) dy."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    return math.erfc(x)


def erfcx_real(x: float) -> float:
    """exp(x^2) erfc(x), overflow-free for x >= 0; ~ 1/(x sqrt(pi)) as x -> inf.

    Below x = 0.5 the product loses nothing (and erfcx(0) is 1 exactly); it is
    inf where exp(x^2) passes the largest double."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if x >= 0.5:
        return _erfcx_right(x)
    try:
        return math.exp(x * x) * math.erfc(x)
    except OverflowError:
        return math.inf


def erfcx_complex(z: complex) -> complex:
    """exp(z^2) erfc(z) for complex z; infinite parts where exp(z^2) overflows."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    if z.real >= 0.0:
        return _erfcx_right(z)
    with np.errstate(over="ignore"):  # C99 cexp: inf times the signs of cos and sin
        e = complex(np.exp(z * z))
    return e + e - _erfcx_right(-z)


def integrate_01(f: Callable[[float], float], tol: float = 1e-10) -> float:
    """Tanh-sinh quadrature of f over [0, 1] (Takahasi and Mori, 1974).

    x = 1 / (1 + exp(-pi sinh t)) on |t| <= 4.5, trapezoidal in t from step
    1/2, halved at most 8 times until two levels agree within tol.  The nodes
    crowd both ends doubly exponentially, the one nearest 0 at about 5e-62,
    so an x^(-1/2) singularity or a sqrt(x) cusp at 0 needs no substitution
    (nodes near 1 round to 1.0, so f must be finite there).  Raises
    QuadratureError with the last gap as its estimate where that gap is not
    within tol (NaN included).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")

    def pairs(ts) -> float:  # sum of dx/dt (f(x(t)) + f(x(-t))) over ts
        total = 0.0
        for t in ts:
            e = math.exp(-math.pi * math.sinh(t))
            x = e / (1.0 + e)  # x(-t), and x(t) = 1 / (1 + e); dx/dt = pi cosh(t) x (1 - x)
            total += math.pi * math.cosh(t) * x / (1.0 + e) * (f(x) + f(1.0 / (1.0 + e)))
        return total

    h, inner, value = 1.0, 0.25 * math.pi * f(0.5), math.nan
    for level in range(9):  # each level adds the odd multiples of the halved step
        h *= 0.5
        inner += pairs(h * k for k in range(1, 9 * 2 ** level + 1, 2 if level else 1))
        value, estimate = h * inner, abs(h * inner - value)
        if estimate <= tol:
            return value
    raise QuadratureError(f"quadrature reached error estimate {estimate:.3e} > tol {tol:.3e}",
                          estimate=estimate)


def _hyperbolic_contour(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z_k and weights of the trapezoidal rule, step h, on the hyperbola
    z(u) = mu (1 + sin(i u - a)), u = k h for k = -N..N, with Weideman and
    Trefethen's parameters for time 1 (Math. Comp. 76, 2007): mu = 4.4921 N,
    a = 1.1721, h = 1.0818 / N.  The weight of z_k is h z'(u_k) e^{z_k} / (2 pi i).
    """
    mu, a, h = 4.4921 * N, 1.1721, 1.0818 / N
    arg = 1j * h * np.arange(-N, N + 1) - a
    nodes = mu * (1.0 + np.sin(arg))
    return nodes, h * mu / (2.0 * math.pi) * np.exp(nodes) * np.cos(arg)


# N = 16, so 33 nodes: more nodes lose accuracy to rounding (weights up to
# about 84 cancel to the answer), so N is fixed rather than a knob
CONTOUR_NODES, CONTOUR_WEIGHTS = _hyperbolic_contour(16)


def inverse_laplace_at_1(transform: Callable[[np.ndarray], np.ndarray]) -> float:
    """f(1) from its Laplace transform F, by the trapezoidal rule on a fixed
    hyperbolic contour: sum_k CONTOUR_WEIGHTS[k] * F(CONTOUR_NODES[k]), real part.

    ``transform`` takes the complex node array and returns F there.  F must be
    analytic off (-inf, 0] (poles and branch cuts there), real on the real
    axis, and decay like 1/lam or faster.  The contour wraps all of (-inf, 0],
    so the placement of the singularities on it does not matter.  The
    absolute error is about 1e-13 for the critical limit's transform (largest
    gap 9.6e-14 to a 1e-12 quadrature over alpha in [1e-3, 1e6]) and for the
    covariance transform G(lam) / lam (1.24e-14 to a 1e-13 quadrature over
    alpha in [1e-3, 1e12]).
    """
    return float(np.dot(CONTOUR_WEIGHTS, transform(CONTOUR_NODES)).real)
