"""Exact finite-n engine for the sticky pair walk.

Three computation routes are kept deliberately separate:

* a one-step recursion for the diagonal Fourier sequence h(j, t, n), which
  yields the full characteristic function f(s, t, n) (char_fn_exact).  One
  recursion steps every distinct cos t of a batch together, and carries only
  the cells whose |h| reaches the smallest normal double at some angle (about
  27 sqrt(k) of them after k steps for small angles) and that can still
  reach the requested h(j) by the last step, so its cost is O(n^1.5) cells
  per distinct cosine rather than O(n^2) per angle, and nothing is cached
  between calls;
* closed forms for the generating functions H(j, t, z) = sum_n h(j, t, n) z^n
  and F(s, t, z) = sum_n f(s, t, n) z^n, and f and E[x y] read off them by
  one inversion on a fixed 33-node contour (_zn_coefficient): O(1) in n,
  inside gf_domain_error's domain, with the recursion as its check;
* an enumeration of all 4**n move sequences (with the diagonal-dependent
  weights) that serves as a brute-force oracle for small n.  It is split at
  n // 2, meet in the middle: each sequence is still one term, and the cost
  is about 4**n pairs + (2a+1)*(n-a)*4**(n-a) suffix steps with a = n // 2.

h(j, t, n) is the Fourier transform, in the center coordinate a, of the
probability that the pair sits at (a - j, a + j).  The one-step recursion has
real coefficients, so h is real for real t and the working arrays are
float64; complex appears only at the API edges where the defining Fourier
sums are complex-valued, and on the contour.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .errors import CapacityError
from .kernel import StickinessParam
from .specfun import CONTOUR_NODES, CONTOUR_WEIGHTS

__all__ = [
    "CouplingVariant",
    "diag_fourier_sequence",
    "coupling_coefficient",
    "char_fn_exact",
    "char_fn_gf",
    "char_fn",
    "gf_domain_error",
    "endpoint_distribution",
    "brute_force_char",
    "brute_force_h",
    "gf_closed_form",
    "gf_h0_reciprocal",
    "laplace_empirical",
    "exact_covariance",
]

_ENUM_MAX_N = 14
# the h recursion's budget; f and E[x y] come off the contour with no n cap,
# so it binds only the recursion run as a check and char_fn's fallback
# outside gf_domain_error's domain
_H_MAX_N = 1 << 15
_TINY = np.finfo(np.float64).tiny
_ENUM_CHUNK = 1 << 21


class CouplingVariant(str, enum.Enum):
    """Which coupling coefficient multiplies h(0, s+t, n) in the f recursion.

    KERNEL is the coefficient obtained directly from the transition kernel,
    (1 - u) sin(s) sin(t); PAPER is the printed alternative -(u/2) sin(s)
    sin(t).  The two agree only at u = 2, but share the -ts/n behaviour under
    the u -> 2 scalings, so limit statements are insensitive to the choice.
    Their rates are not: at delta = 0.5 sqrt(n), sup |f_n - phi| over the
    default sweep grid is 4.2e-5 (KERNEL) and 5.0e-3 (PAPER) at n = 4096, and
    1.7e-7 and 3.2e-4 at n = 1e6, so KERNEL converges like 1/n and PAPER like
    n^(-1/2).  KERNEL is the default and is the one validated against
    enumeration.
    """

    KERNEL = "kernel-derived"
    PAPER = "paper-prop2"


# ---------------------------------------------------------------------------
# diagonal Fourier recursion
# ---------------------------------------------------------------------------

def diag_fourier_sequence(u: float, t, n: int, j: int = 0) -> np.ndarray:
    """h(j, t, k) for k = 0..n as float64, via the recursion, every angle at once.

    t is one angle or a 1-D sequence of angles.  One angle gives shape (n+1,);
    a sequence gives (len(t), n+1), one row per angle.  Starting from
    h(., t, 0) = e_0 (the walk starts on the diagonal at center 0), one step
    grows the support by at most one index:

    h(0, n+1) = (u cos t / 2) h(0, n) + (1/2) h(1, n)
    h(1, n+1) = ((2-u)/4) h(0, n) + (cos t / 2) h(1, n) + (1/4) h(2, n)
    h(j, n+1) = (1/4) h(j-1, n) + (cos t / 2) h(j, n) + (1/4) h(j+1, n), j >= 2

    The recursion reads t only through cos t, so it runs one column per
    distinct cos t (angles merge only when their computed cosines are equal
    bit for bit, e.g. t and -t), in first-seen order, and each angle's row
    is copied from its column.  All columns step together on a j-major
    (rows, columns) buffer, with the floating-point operations of one angle
    alone, in the same order, so equal cosines give equal bytes; and the
    frontier test below takes a maximum over columns that dropping repeated
    ones leaves unchanged, so every output byte is that of one column per
    angle.

    Frontier: a step computes one row more than it carries in.  If that new
    frontier cell is below np.finfo(float).tiny at every angle, it is zeroed
    instead of carried, so far cells that would only ever be subnormal (and
    about ten times slower to add) cost nothing; for small angles the
    carried rows end near 27 sqrt(k).  So at most one cell, below tiny, is
    dropped per step.  The folded recursion, |h(0)| + 2 sum_{j>=1} |h(j)|, is
    a contraction for u in [1, 2], so apart from rounding the dropped cells
    move h(., t, k) by at most 2 n tiny (about 1.5e-303 at n = 2**15) in that
    norm, and each h(j, t, k) by no more.  In practice only rows j next to
    the frontier see a difference: for small j the output matches, byte for
    byte, the per-angle recursion that carries every cell (tests/oracles.py).

    Light cone: a cell moves at most one index per step, so after step k a
    cell more than about n - k steps from h(j) can no longer reach it by
    step n (the domain of dependence of Courant, Friedrichs & Lewy, Math.
    Ann. 100, 1928).  Those cells are not computed (the bound, in buffer
    rows, is in _h_steps), and once the cone's edge falls below the
    frontier the frontier test stops.  The cut is exact, not an
    approximation: every cell inside the cone reads the same inputs and
    takes the same floating-point operations, in the same order, as with
    the full carry, so every output byte is unchanged.  It saves about
    20 / sqrt(n) of the cells for large n (44% at n = 1024 and 19% at 8192).

    Raises CapacityError for n > 2**15 instead of running for minutes (only
    the checks and char_fn's fallback outside the contour's domain go there).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if j < 0:
        raise ValueError("j must be >= 0")
    if n > _H_MAX_N:
        raise CapacityError(
            f"the O(n^1.5) h recursion to n = {n} exceeds its budget (n <= {_H_MAX_N})"
        )
    t_arr = np.asarray(t, dtype=np.float64)
    if t_arr.ndim > 1:
        raise ValueError("t must be an angle or a 1-D sequence of angles")
    angles = t_arr.reshape(-1).tolist()
    if not all(map(math.isfinite, angles)):
        raise ValueError(f"angles must be finite, got t = {t!r}")
    column = {}  # the bits of each distinct cos t -> its column
    index = [column.setdefault(math.cos(a).hex(), len(column)) for a in angles]
    out = np.zeros((len(column), n + 1))
    out[:, 0] = 1.0 if j == 0 else 0.0
    if n > 0 and column:
        _h_steps(u, np.array([float.fromhex(c) for c in column]), j, out.T)
    out = out[index]
    return out[0] if t_arr.ndim == 0 else out


def _h_steps(u: float, ct: np.ndarray, j: int, col: np.ndarray) -> None:
    """Run the h recursion for k = 1..len(col)-1, writing h(j, ., k) to col[k].

    Buffer row 0 holds h(0), row 1 the (2 - u) h(0) that h(1) weighs with
    1/4, and row i + 1 holds h(i), so every row from 2 on follows the j >= 2
    rule.  Rows 0..top are carried and rows past top are zero, inside the
    light cone of the output row, target = 0 for j = 0 and j + 1 after: step
    k computes no row past target + (len(col) - 1 - k) + 1.  Rows past that
    cap keep stale values but are never read into a row inside it, so every
    row inside gets the inputs and operations it had without the cap.
    """
    add, multiply = np.add, np.multiply
    # 0-d arrays: a Python float operand is converted again on every call
    quarter, half, two_minus_u = np.array(0.25), np.array(0.5), np.array(2.0 - u)
    rows = col.shape[0] + 2  # top <= k, and a step reads row top + 2
    # what each carried row's own value is multiplied by in its update: u cos t
    # for h(0) (halved after adding h(1)), nothing for (2 - u) h(0), cos t / 2
    # after.  A row is set when it is first carried, so pages past the
    # frontier are never touched.
    half_ct = 0.5 * ct
    cur, nxt, tmp, weight = (np.zeros((rows, ct.size)) for _ in range(4))
    weight[0] = u * ct
    cur[0], cur[1] = 1.0, two_minus_u
    top = 1
    # a row moves one row per step and row 2 feeds row 0, so after step k no
    # row past reach - k can reach the output row by the last step
    reach = (j + 1 if j else 0) + col.shape[0]
    for k in range(1, col.shape[0]):
        last = min(top + 1, reach - k)  # the last row this step computes
        multiply(cur[: last + 1], weight[: last + 1], out=tmp[: last + 1])
        body = nxt[2 : last + 1]
        add(cur[1:last], cur[3 : last + 2], out=body)
        body *= quarter
        body += tmp[2 : last + 1]
        h0 = nxt[0]
        add(tmp[0], cur[2], out=h0)
        h0 *= half
        multiply(h0, two_minus_u, out=nxt[1])
        if j == 0:
            col[k] = h0
        elif j <= top:
            col[k] = nxt[j + 1]
        if last > top:  # the frontier row is still inside the cone
            front = nxt[last]
            if max(map(abs, front.tolist())) < _TINY:
                front[...] = 0.0  # the frontier cell is not carried
            else:
                top += 1
                weight[top] = half_ct
        cur, nxt = nxt, cur


# ---------------------------------------------------------------------------
# full characteristic function
# ---------------------------------------------------------------------------

def coupling_coefficient(
    p: StickinessParam, s: float, t: float, variant: CouplingVariant = CouplingVariant.KERNEL
) -> float:
    if type(variant) is not CouplingVariant:  # a member skips the slow Enum call
        variant = CouplingVariant(variant)  # ValueError for an unknown coupling
    if variant is CouplingVariant.KERNEL:
        return -p.u_minus_one * math.sin(s) * math.sin(t)
    return -0.5 * p.u * math.sin(s) * math.sin(t)


def _angle_arrays(s, t):
    """s and t as float64 arrays; ValueError unless two angles or two
    equal-length 1-D sequences."""
    s_arr, t_arr = np.asarray(s, dtype=np.float64), np.asarray(t, dtype=np.float64)
    if s_arr.ndim > 1 or s_arr.shape != t_arr.shape:
        raise ValueError(f"s and t must be two angles or two equal-length 1-D sequences, "
                         f"got shapes {s_arr.shape} and {t_arr.shape}")
    return s_arr, t_arr


def _cf_points(s, t, variant):
    """The points of a char_fn_* call: (one point given as scalars, s list,
    t list, one CouplingVariant per point); ValueError as char_fn_exact says."""
    s_arr, t_arr = _angle_arrays(s, t)
    s_list, t_list = s_arr.reshape(-1).tolist(), t_arr.reshape(-1).tolist()
    if not all(map(math.isfinite, s_list + t_list)):
        raise ValueError("angles must be finite")
    variants = ([CouplingVariant(variant)] * len(s_list) if isinstance(variant, str)
                else list(map(CouplingVariant, variant)))
    if len(variants) != len(s_list):
        raise ValueError(f"variant: one coupling or one per point, not {len(variants)}")
    return s_arr.ndim == 0, s_list, t_list, variants


def char_fn_exact(
    p: StickinessParam,
    s,
    t,
    n: int,
    variant: CouplingVariant | Sequence[CouplingVariant] = CouplingVariant.KERNEL,
):
    """E[exp(i s x + i t y)] at step n, via f(k+1) = cos s cos t f(k) + c h(0, s+t, k).

    s and t are two angles, giving a complex, or two equal-length sequences,
    giving a complex ndarray with one value per (s[i], t[i]); variant is one
    CouplingVariant, or a sequence of one per point.  Each call runs one h
    recursion over every point's s + t (one column per distinct cosine) and
    caches nothing.  Cost is that recursion (see diag_fourier_sequence) plus
    O(n) per point.  Non-finite angles, an unknown coupling, or a variant
    sequence of the wrong length raise ValueError.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    scalar, s_list, t_list, variants = _cf_points(s, t, variant)
    values = np.ones(len(s_list), dtype=np.complex128)
    if n > 0 and s_list:
        h0 = diag_fourier_sequence(p.u, [a + b for a, b in zip(s_list, t_list)], n - 1)
        exponents = np.arange(n - 1, -1, -1, dtype=np.float64)
        for i, (a, b, coupling) in enumerate(zip(s_list, t_list, variants)):
            cc = math.cos(a) * math.cos(b)
            c = coupling_coefficient(p, a, b, coupling)
            values[i] = cc ** n + c * float((cc ** exponents) @ h0[i])
    return complex(values[0]) if scalar else values


# char_fn_gf's domain: the smallest n, and the largest rho^n, rho the largest
# 1/|z| of a singularity of F on the negative z axis, at which it answers
_GF_MIN_N = 16
_GF_MAX_RHO_POWER = 1e-13


def gf_domain_error(s, t, n: int) -> str:
    """Why char_fn_gf refuses the points (s, t) at step n, or "" where it answers.

    s and t are angles, or equal-length 1-D sequences of them.  The domain is
    n >= 16 and rho^n <= 1e-13 at every point, where

        rho = max(sin^2((s + t) / 2), -cos s cos t)

    is the largest 1/|z| of a singularity of F(s, t, z) on the negative z
    axis (see char_fn_gf); a NaN rho is outside.  Unequal shapes raise
    ValueError, as in char_fn_exact.
    """
    s_arr, t_arr = (a.reshape(-1) for a in _angle_arrays(s, t))
    if n < _GF_MIN_N:
        return (f"n = {n} is below {_GF_MIN_N}: the contour's nodes reach |Im lam| = 36.4, "
                f"and F(exp(-lam / n)) repeats with period 2 pi n in Im lam")
    if not s_arr.size:
        return ""
    rho = np.maximum(np.sin(0.5 * (s_arr + t_arr)) ** 2, -np.cos(s_arr) * np.cos(t_arr))
    worst = int(np.argmax(rho))  # the first NaN, if any
    power = float(rho[worst]) ** n
    if power <= _GF_MAX_RHO_POWER:
        return ""
    s_worst, t_worst = float(s_arr[worst]), float(t_arr[worst])  # plain reprs, not np.float64
    return (f"rho^n = {power:.3g} > {_GF_MAX_RHO_POWER:g} at (s, t) = ({s_worst!r}, "
            f"{t_worst!r}), n = {n}: F has a singularity on the negative z axis at "
            f"|z| = 1/rho, where the contour's error is up to rho^n")


def _zn_coefficient(transform, n: int):
    """[z^n] G, G given as transform(z, 1 - z) with one column per node.

    With z = exp(-lam / n), [z^n] G is the inverse Laplace transform of
    G(exp(-lam / n)) / n at time 1: sum_k CONTOUR_WEIGHTS[k] G(exp(-CONTOUR_NODES[k]
    / n)) / n (real part) on specfun's fixed 33-node hyperbolic contour
    (Weideman & Trefethen, Math. Comp. 76, 2007; after Abate & Whitt, Queueing
    Systems 10, 1992), with 1 - z = -expm1(-lam / n) formed exactly.
    """
    x = CONTOUR_NODES / -n
    z, one_minus_z = np.exp(x), -np.expm1(x)
    return (transform(z, one_minus_z) * CONTOUR_WEIGHTS).sum(axis=-1).real / n


def char_fn_gf(
    p: StickinessParam,
    s,
    t,
    n: int,
    variant: CouplingVariant | Sequence[CouplingVariant] = CouplingVariant.KERNEL,
):
    """E[exp(i s x + i t y)] at step n, read off its generating function on a contour.

    Summing char_fn_exact's recursion over n gives, with w = s + t and c the
    coupling coefficient,

        F(s, t, z) = sum_n f(s, t, n) z^n = (1 + c z H(0, w, z)) / (1 - z cos s cos t),

    and 1 / H(0) is gf_h0_reciprocal; f(s, t, n) = [z^n] F is read off the
    contour by _zn_coefficient.  Cost is 33 evaluations per point, whatever
    n.  The complements are formed exactly:
    1 - z = -expm1(-lam / n), 1 - cos w = 2 sin^2(w / 2) (in
    gf_h0_reciprocal), and 1 - cos s cos t = 2 sin^2(s / 2) + 2 cos s
    sin^2(t / 2); with the naive 1 - cos s cos t the value is off by up to
    9.7e-11 at n = 1e6 and 2.1e-9 at n = 1e8 (default sweep grid, alpha = 2).

    Arguments, their validation and the return shapes are char_fn_exact's.
    The domain is gf_domain_error's, and outside it this raises ValueError
    naming the cause:

    * n >= 16.  The nodes reach |Im lam| = 36.4, and F(exp(-lam / n)) repeats
      with period 2 pi n in Im lam, so for n <= 11 the nodes pass the lines
      Im lam = +-pi n that hold the singularities below; 16 keeps them at
      least 14 away.  (With rho^n <= 1e-13 the gap to the recursion stayed
      under 1.6e-13 at n = 8..14 over 200 random angle pairs in
      [-0.3, 0.3]^2, so the floor is a margin, not a measured edge.)
    * rho^n <= 1e-13.  A singularity of F at z maps to lam = -n log z; the
      contour wraps the negative real lam axis, which holds every
      singularity on the positive z axis (all beyond z = 1, since |f| <= 1),
      but not those on the negative z axis, at lam = n log rho +- i pi n,
      whose error term is up to rho^n.  There F has the pole 1/(cos s cos t)
      where that is negative, the branch point -2 / (1 - cos w) of H(0), and
      at u = 2 the zero 1/cos w of 1 / H(0), which is never farther out than
      that branch point ((1 - cos w) / 2 >= -cos w); below u = 2 a search
      over u and w found no zero of 1 / H(0) off the positive axis.  So
      rho = max(sin^2(w / 2), -cos s cos t).  Over 400 random angle pairs,
      n in {16, 64, 256, 1024} and delta in {0, 3, 1e6}, the gap to the
      recursion was at most rho^n wherever rho^n > 1e-12, and at most 1.5e-13
      wherever rho^n < 1e-14.

    Inside the domain the gap to char_fn_exact is at most 3.3e-13 on the
    default sweep grid for n = 16..8192 (the gf_route check).
    """
    scalar, s_list, t_list, variants = _cf_points(s, t, variant)
    cause = gf_domain_error(s_list, t_list, n)
    if cause:
        raise ValueError(cause)
    # one row per point, one column per node; each row is summed on its own,
    # so a point's value does not depend on the other points of the call
    s_col, t_col = np.reshape(s_list, (-1, 1)), np.reshape(t_list, (-1, 1))
    c = np.reshape([coupling_coefficient(p, a, b, v) for a, b, v in zip(s_list, t_list, variants)],
                   (-1, 1))
    one_minus_cc = 2.0 * np.sin(0.5 * s_col) ** 2 + 2.0 * np.cos(s_col) * np.sin(0.5 * t_col) ** 2

    def transform(z, one_minus_z):
        reciprocal = gf_h0_reciprocal(p, s_col + t_col, z, one_minus_z)
        return (reciprocal + c * z) / (reciprocal * (one_minus_z + z * one_minus_cc))

    values = _zn_coefficient(transform, n) + 0j
    return complex(values[0]) if scalar else values


def char_fn(p: StickinessParam, s, t, n: int, variant=CouplingVariant.KERNEL):
    """E[exp(i s x + i t y)] at step n: char_fn_gf where gf_domain_error holds
    at every point, with no n cap, and char_fn_exact (the h recursion, with its
    budget) otherwise.  Arguments and return shapes are char_fn_exact's.
    """
    route = char_fn_exact if gf_domain_error(s, t, n) else char_fn_gf
    return route(p, s, t, n, variant)


# ---------------------------------------------------------------------------
# enumeration oracle
# ---------------------------------------------------------------------------

def _walk_all(steps: int, d0: int, w_together: float, w_apart: float):
    """Displacement (dx, dy) and weight of each of the 4**steps move sequences.

    Sequence i takes move (i >> 2k) & 3 at step k: 0 = (+1, +1) and
    1 = (-1, -1) move together, 2 = (+1, -1) and 3 = (-1, +1) move apart.  The
    walk starts at offset x - y = d0; a step weighs w_together or w_apart when
    it starts on the diagonal and 1/4 off it, so the weight depends on the
    start only through d0.
    """
    idx = np.arange(1 << (2 * steps), dtype=np.int64)
    dx = np.zeros_like(idx)
    dy = np.zeros_like(idx)
    wt = np.ones(idx.shape[0])
    for k in range(steps):
        move = (idx >> (2 * k)) & 3
        diag = dx - dy == -d0
        together = move < 2
        wt *= np.where(diag, np.where(together, w_together, w_apart), 0.25)
        dx += 1 - 2 * (move & 1)
        dy += 1 - 2 * ((move == 1) | (move == 2))
    return dx, dy, wt


@lru_cache(maxsize=32)
def endpoint_distribution(delta: float, n: int) -> np.ndarray:
    """Exact endpoint law at step n as a sum over all 4**n move sequences.

    Returns a read-only (2n+1, 2n+1) array indexed [x + n, y + n].  Each
    sequence is split at a = n // 2 (meet in the middle, Horowitz & Sahni,
    J. ACM 21, 1974).  The 4**a prefixes are walked once from the origin.  A
    suffix's weight depends only on its start offset d = x - y, so the
    4**(n-a) suffixes are walked once from each even d = -2a..2a, and every
    prefix is paired with every suffix from its own offset: each sequence is
    still one term, weight prefix * suffix at endpoint prefix end + suffix
    displacement, and no two histories are merged.  Cost about 4**n pairs +
    (2a+1)*(n-a)*4**(n-a) suffix steps, accumulated by bincount in chunks of
    at most _ENUM_CHUNK pairs, hence the hard cap on n.  This is independent
    of the Fourier recursion.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > _ENUM_MAX_N:
        raise CapacityError(
            f"enumerating 4**{n} move sequences exceeds the oracle budget (n <= {_ENUM_MAX_N})"
        )
    u = StickinessParam(delta).u
    size = 2 * n + 1
    weights = (0.25 * u, 0.25 * (2.0 - u))
    a = n // 2
    px, py, prefix_wt = _walk_all(a, 0, *weights)
    prefix_flat = (px + n) * size + (py + n)
    prefix_off = px - py
    rows = _ENUM_CHUNK >> 2 * (n - a)  # >= 128 prefixes: 4**(n - a) <= 4**7
    table = np.zeros(size * size)
    for d in range(-2 * a, 2 * a + 1, 2):  # every even offset occurs
        sel = prefix_off == d
        p_flat, p_wt = prefix_flat[sel], prefix_wt[sel]
        sx, sy, s_wt = _walk_all(n - a, d, *weights)
        s_flat = sx * size + sy
        for lo in range(0, p_flat.shape[0], rows):
            flat = (p_flat[lo : lo + rows, None] + s_flat).ravel()
            wt = (p_wt[lo : lo + rows, None] * s_wt).ravel()
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

def gf_h0_reciprocal(p: StickinessParam, t, z, one_minus_z=None):
    """1 / H(0, t, z).

    Evaluates (u - 1)(1 - z cos t) + (2 - u) sqrt(1 - z cos t - z^2 sin^2 t / 4),
    which is the closed form
        1 - u z cos t / 2 - (2 - u) [1 - z cos t / 2 - sqrt(...)]
    rearranged so the complements 1 - z and 1 - cos t can be fed in exactly;
    the unrearranged form loses all precision when z -> 1 and t -> 0.

    A real angle t and a real z in (0, 1) give a float.  A complex z, or an
    array of angles or of z (broadcast together, one_minus_z like z), give a
    complex ndarray, with z anywhere in the plane and numpy's principal
    square root.  The root's argument is a negative real only on the rays
    z >= 2 / (1 + cos t) and z <= -2 / (1 - cos t) from its zeros (off the
    real axis its imaginary part vanishes only where its real part is
    positive), so this continues the real closed form to the plane cut along
    those rays.
    """
    real = not (np.iscomplexobj(z) or np.ndim(z) or np.ndim(t))
    if one_minus_z is None:
        if real and not (0.0 < z < 1.0):
            raise ValueError("z must lie in (0, 1)")
        one_minus_z = 1.0 - z
    t = np.asarray(t, dtype=np.float64)
    one_minus_zc = one_minus_z + z * (2.0 * np.sin(0.5 * t) ** 2)
    arg = one_minus_zc - 0.25 * (z * np.sin(t)) ** 2
    if not real:
        root = np.sqrt(np.asarray(arg, dtype=np.complex128))
        return p.u_minus_one * one_minus_zc + p.two_minus_u * root
    if arg < -1e-14:  # nonnegative for real t, z in (0, 1), up to rounding
        raise ArithmeticError(f"square-root argument {arg} unexpectedly negative")
    return float(p.u_minus_one * one_minus_zc + p.two_minus_u * np.sqrt(max(arg, 0.0)))


def laplace_empirical(delta: float, n: int, w: float, lam: float) -> float:
    """n^-1 H(0, w / sqrt(n), exp(-lam / n)) from the closed form, O(1) in n: the
    finite-n side of the laplace_limits check (its subcritical comparison
    rescales this by sqrt(n) / delta_n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (lam > 0.0):
        raise ValueError("lam must be > 0")
    ratio = lam / n
    if ratio < 1e-15:
        raise ValueError("lam / n below the double-precision resolution of 1 - z")
    z, one_minus_z = math.exp(-ratio), -math.expm1(-ratio)
    return 1.0 / (n * gf_h0_reciprocal(StickinessParam(delta), w / math.sqrt(n), z, one_minus_z))


def gf_closed_form(p: StickinessParam, t, z, j: int = 0, one_minus_z=None):
    """H(j, t, z) from the closed forms.

    H(0) = 1 / gf_h0_reciprocal and H(1) = H(0) (2/z - u cos t) - 2/z; for
    j >= 1 the ladder decays geometrically, H(j) = H(1) q^(j-1), where q is
    the root of smaller modulus of X^2 + (2 cos t - 4/z) X + 1 = 0.  The roots
    b +- sqrt(b^2 - 1), b = 2/z - cos t, multiply to 1 and have equal modulus
    only on gf_h0_reciprocal's two cuts, so H(j) is analytic off them.  Types
    are gf_h0_reciprocal's: real t and z in (0, 1) give a float.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    H0 = 1.0 / gf_h0_reciprocal(p, t, z, one_minus_z)  # rejects a real z outside (0, 1)
    if j == 0:
        return H0
    ct = np.cos(t)
    b = 2.0 / z - ct
    root = np.sqrt(b * b - 1.0 + 0j)
    q = 1.0 / np.where(abs(b + root) >= abs(b - root), b + root, b - root)
    h = (H0 * (2.0 / z - p.u * ct) - 2.0 / z) * q ** (j - 1)
    return float(h.real) if isinstance(H0, float) else h


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

def exact_covariance(p: StickinessParam, n: int) -> float:
    """E[x * y] at step n.

    Increments have conditional product-mean (u - 1) on the diagonal and 0
    off it, and the cross terms vanish because increments are conditionally
    mean-zero, so the covariance telescopes to
    (u - 1) * sum_{k<n} h(0, 0, k), with generating function
    (u - 1) z H(0, 0, z) / (1 - z).  Its [z^n] is read off the contour where
    gf_domain_error(0, 0, n) holds (rho = 0 at w = 0, so n >= 16), else the
    recursion's sum is taken.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0.0
    if gf_domain_error(0.0, 0.0, n):
        return p.u_minus_one * float(diag_fourier_sequence(p.u, 0.0, n - 1).sum())

    def transform(z, one_minus_z):
        return z / (one_minus_z * gf_h0_reciprocal(p, 0.0, z, one_minus_z))

    return p.u_minus_one * float(_zn_coefficient(transform, n))
