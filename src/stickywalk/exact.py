"""Exact finite-n engine for the sticky pair walk.

Two independent computation routes are kept deliberately separate:

* a one-step recursion for the diagonal Fourier sequence h(j, t, n), which
  yields the full characteristic function f(s, t, n) in O(n^2), plus closed
  forms for the generating functions H(j, t, z) = sum_n h(j, t, n) z^n;
* a 4**n enumeration of move sequences (with the diagonal-dependent weights)
  that serves as a brute-force oracle for small n.

h(j, t, n) is the Fourier transform, in the center coordinate a, of the
probability that the pair sits at (a - j, a + j).  The one-step recursion has
real coefficients, so h is real for real t and the working arrays are
float64; complex appears only at the API edges where the defining Fourier
sums are complex-valued.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .kernel import StickinessParam

__all__ = [
    "CouplingVariant",
    "diag_fourier_sequence",
    "coupling_coefficient",
    "char_fn_exact",
    "endpoint_distribution",
    "brute_force_char",
    "brute_force_h",
    "gf_closed_form",
    "gf_h0_reciprocal",
    "gf_series",
    "series_truncation",
    "exact_covariance",
]

_ENUM_MAX_N = 14
# the h recursion costs O(n^2): about 4 s at n = 2**15 and 16 s at 2**16
_H_MAX_N = 1 << 15
_ENUM_CHUNK = 1 << 21


class CouplingVariant(str, enum.Enum):
    """Which coupling coefficient multiplies h(0, s+t, n) in the f recursion.

    KERNEL is the coefficient obtained directly from the transition kernel,
    (1 - u) sin(s) sin(t); PAPER is the printed alternative -(u/2) sin(s)
    sin(t).  The two agree only at u = 2, but share the -ts/n behaviour under
    the u -> 2 scalings, so limit statements are insensitive to the choice.
    KERNEL is the default and is the one validated against enumeration.
    """

    KERNEL = "kernel-derived"
    PAPER = "paper-prop2"


# ---------------------------------------------------------------------------
# diagonal Fourier recursion
# ---------------------------------------------------------------------------

def diag_fourier_sequence(u: float, t: float, n: int, j: int = 0) -> np.ndarray:
    """h(j, t, k) for k = 0..n as float64, via the recursion (O(n^2) total).

    Starting from h(., t, 0) = e_0 (the walk starts on the diagonal at
    center 0), one step grows the support by at most one index:

    h(0, n+1) = (u cos t / 2) h(0, n) + (1/2) h(1, n)
    h(1, n+1) = ((2-u)/4) h(0, n) + (cos t / 2) h(1, n) + (1/4) h(2, n)
    h(j, n+1) = (1/4) h(j-1, n) + (cos t / 2) h(j, n) + (1/4) h(j+1, n), j >= 2

    Raises CapacityError for n > 2**15, so every caller refuses a request
    that would run for minutes instead of starting it.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if j < 0:
        raise ValueError("j must be >= 0")
    if n > _H_MAX_N:
        raise CapacityError(
            f"the O(n^2) h recursion to n = {n} exceeds its budget (n <= {_H_MAX_N})"
        )
    out = np.empty(n + 1)
    out[0] = 1.0 if j == 0 else 0.0
    if n == 0:
        return out
    ct = math.cos(t)
    cur = np.zeros(n + 4)
    nxt = np.zeros(n + 4)
    cur[0] = 1.0
    for k in range(1, n + 1):
        # support after step k is j <= k; entries beyond stay zero in both buffers
        nxt[0] = 0.5 * (u * ct * cur[0] + cur[1])
        nxt[1] = 0.25 * ((2.0 - u) * cur[0] + cur[2]) + 0.5 * ct * cur[1]
        if k >= 2:
            nxt[2 : k + 1] = 0.25 * (cur[1:k] + cur[3 : k + 2]) + 0.5 * ct * cur[2 : k + 1]
        out[k] = nxt[j] if j <= k else 0.0
        cur, nxt = nxt, cur
    return out


@lru_cache(maxsize=128)
def _h0_prefix(u: float, t: float, n: int) -> np.ndarray:
    arr = diag_fourier_sequence(u, t, n)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# full characteristic function
# ---------------------------------------------------------------------------

def coupling_coefficient(
    p: StickinessParam, s: float, t: float, variant: CouplingVariant = CouplingVariant.KERNEL
) -> float:
    if variant == CouplingVariant.KERNEL:
        return -p.u_minus_one * math.sin(s) * math.sin(t)
    return -0.5 * p.u * math.sin(s) * math.sin(t)


def char_fn_exact(
    p: StickinessParam,
    s: float,
    t: float,
    n: int,
    variant: CouplingVariant = CouplingVariant.KERNEL,
) -> complex:
    """E[exp(i s x + i t y)] at step n, via f(k+1) = cos s cos t f(k) + c h(0, s+t, k).

    Cost is O(n^2) through the h recursion; the h(0, s+t, .) prefix is cached,
    so sweeps that share s + t pay for it once.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return complex(1.0)
    cc = math.cos(s) * math.cos(t)
    c = coupling_coefficient(p, s, t, variant)
    h0 = _h0_prefix(p.u, s + t, n - 1)
    powers = cc ** np.arange(n - 1, -1, -1, dtype=np.float64)
    return complex(cc ** n + c * float(powers @ h0))


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def endpoint_distribution(delta: float, n: int) -> np.ndarray:
    """Exact endpoint law at step n by weighing all 4**n move sequences.

    Returns a read-only (2n+1, 2n+1) array indexed [x + n, y + n].  Each move
    sequence is materialised and walked, with per-step weights depending on
    the diagonal visits along the way, so this is independent of the Fourier
    recursion.  Cost 4**n, hence the hard cap on n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > _ENUM_MAX_N:
        raise CapacityError(
            f"enumerating 4**{n} move sequences exceeds the oracle budget (n <= {_ENUM_MAX_N})"
        )
    u = StickinessParam(delta).u
    size = 2 * n + 1
    table = np.zeros(size * size)
    if n == 0:
        table[n * size + n] = 1.0
    else:
        w_together = 0.25 * u
        w_apart = 0.25 * (2.0 - u)
        total = 1 << (2 * n)
        for lo in range(0, total, _ENUM_CHUNK):
            hi = min(lo + _ENUM_CHUNK, total)
            idx = np.arange(lo, hi, dtype=np.uint64)
            x = np.zeros(hi - lo, dtype=np.int64)
            y = np.zeros(hi - lo, dtype=np.int64)
            wt = np.ones(hi - lo)
            for k in range(n):
                move = ((idx >> np.uint64(2 * k)) & np.uint64(3)).astype(np.int64)
                diag = x == y
                together = move < 2
                wt *= np.where(diag, np.where(together, w_together, w_apart), 0.25)
                x += 1 - 2 * (move & 1)
                y += 1 - 2 * ((move == 1) | (move == 2))
            flat = (x + n) * size + (y + n)
            table += np.bincount(flat, weights=wt, minlength=size * size)
    table = table.reshape(size, size)
    table.setflags(write=False)
    return table


def brute_force_char(p: StickinessParam, s: float, t: float, n: int) -> complex:
    """Oracle value of E[exp(i s x + i t y)] from full enumeration (n <= 14)."""
    table = endpoint_distribution(p.delta, n)
    coords = np.arange(-n, n + 1)
    vx = np.exp(1j * s * coords)
    vy = np.exp(1j * t * coords)
    return complex(vx @ table @ vy)


def brute_force_h(p: StickinessParam, j: int, t: float, n: int) -> complex:
    """Oracle value of h(j, t, n) from full enumeration (n <= 14)."""
    if j < 0:
        raise ValueError("j must be >= 0")
    table = endpoint_distribution(p.delta, n)
    if j > n:
        return complex(0.0)
    band = np.diagonal(table, offset=2 * j)  # entries (x, x + 2j)
    centers = np.arange(band.shape[0]) - n + j
    return complex(band @ np.exp(1j * t * centers))


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def gf_h0_reciprocal(
    p: StickinessParam, t: float, z: float, one_minus_z: float | None = None
) -> float:
    """1 / H(0, t, z).

    Evaluates (u - 1)(1 - z cos t) + (2 - u) sqrt(1 - z cos t - z^2 sin^2 t / 4),
    which is the closed form
        1 - u z cos t / 2 - (2 - u) [1 - z cos t / 2 - sqrt(...)]
    rearranged so the complements 1 - z and 1 - cos t can be fed in exactly;
    the unrearranged form loses all precision when z -> 1 and t -> 0.
    """
    if one_minus_z is None:
        if not (0.0 < z < 1.0):
            raise ValueError("z must lie in (0, 1)")
        one_minus_z = 1.0 - z
    one_minus_ct = 2.0 * math.sin(0.5 * t) ** 2
    st = math.sin(t)
    one_minus_zc = one_minus_z + z * one_minus_ct
    arg = one_minus_zc - 0.25 * (z * st) ** 2
    if arg < 0.0:
        # nonnegative for real t, z in (0,1); tolerate rounding at the boundary
        if arg < -1e-14:
            raise ArithmeticError(f"square-root argument {arg} unexpectedly negative")
        arg = 0.0
    return p.u_minus_one * one_minus_zc + p.two_minus_u * math.sqrt(arg)


def gf_closed_form(p: StickinessParam, t: float, z: float, j: int = 0) -> float:
    """H(j, t, z) from the closed forms, z in (0, 1).

    H(0) = 1 / gf_h0_reciprocal and H(1) = H(0) (2/z - u cos t) - 2/z; for
    j >= 1 the ladder decays geometrically, H(j) = H(1) q^(j-1), where q < 1
    is the smaller root of X^2 + (2 cos t - 4/z) X + 1 = 0 (the roots
    multiply to 1).
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    ct = math.cos(t)
    H0 = 1.0 / gf_h0_reciprocal(p, t, z)  # rejects z outside (0, 1)
    if j == 0:
        return H0
    root_base = 2.0 / z - ct  # > 1 for z in (0, 1)
    q = 1.0 / (root_base + math.sqrt(root_base * root_base - 1.0))
    return (H0 * (2.0 / z - p.u * ct) - 2.0 / z) * q ** (j - 1)


def gf_series(p: StickinessParam, t: float, z: float, j: int, N: int) -> float:
    """Partial sum  sum_{n<=N} h(j, t, n) z^n  via the recursion.

    Since |h| <= 1, the truncation error against the full series is at most
    z^(N+1) / (1 - z).
    """
    if not (0.0 < z < 1.0):
        raise ValueError("z must lie in (0, 1)")
    if N < 0:
        raise ValueError("N must be >= 0")
    hj = diag_fourier_sequence(p.u, t, N, j=j)
    return float(hj @ z ** np.arange(N + 1, dtype=np.float64))


def series_truncation(z: float, tol: float) -> int:
    """Smallest N with tail bound z^(N+1) / (1 - z) <= tol."""
    if not (0.0 < z < 1.0):
        raise ValueError("z must lie in (0, 1)")
    if not tol > 0.0:
        raise ValueError("tol must be > 0")
    N = max(0, math.ceil(math.log(tol * (1.0 - z)) / math.log(z)) - 1)
    while z ** (N + 1) / (1.0 - z) > tol:
        N += 1
    return N


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

def exact_covariance(p: StickinessParam, n: int) -> float:
    """E[x * y] at step n.

    Increments have conditional product-mean (u - 1) on the diagonal and 0
    off it, and the cross terms vanish because increments are conditionally
    mean-zero, so the covariance telescopes to
    (u - 1) * sum_{k<n} P(diagonal at k).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0.0
    occupation = diag_fourier_sequence(p.u, 0.0, n - 1)
    return p.u_minus_one * float(occupation.sum())
