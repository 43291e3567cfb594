"""Reference values for the test suite, independent of the code they check.

The special-function numbers were produced ahead of time with a 40+ digit
evaluation of the defining integrals (arbitrary-precision erfc), then
rounded to the nearest double.  The erfc and erfcx tables live in the
package (``stickywalk.specfun``), where the checks read them.
``literal_endpoint_law`` is a slow pure-Python
enumeration of the walk, one move sequence at a time.
``per_angle_h_sequence`` is the h recursion as it ran before it stepped all
angles together: one angle, every cell of the support carried.
"""

import itertools
import math

import numpy as np

# erfc(1) and erfcx at two spot-check arguments
ERFC_ONE = 0.15729920705028513
ERFCX_I = complex(0.36787944117144233, -0.6071577058413937)


def literal_endpoint_law(u: float, n: int) -> dict[tuple[int, int], float]:
    """P(x_n = x, y_n = y) by listing every one of the 4**n move sequences.

    Each sequence is walked step by step from the origin and weighed on its
    own: on the diagonal a together move weighs u/4 and an apart move
    (2 - u)/4, off it every move weighs 1/4.  The weights ending at one point
    are summed with math.fsum.  Pure Python, shares no code with the package;
    4**n sequences, so keep n small.
    """
    moves = ((1, 1), (-1, -1), (1, -1), (-1, 1))
    terms: dict[tuple[int, int], list[float]] = {}
    for sequence in itertools.product(moves, repeat=n):
        x = y = 0
        weight = 1.0
        for dx, dy in sequence:
            if x != y:
                weight *= 0.25
            elif dx == dy:
                weight *= u / 4
            else:
                weight *= (2 - u) / 4
            x += dx
            y += dy
        terms.setdefault((x, y), []).append(weight)
    return {end: math.fsum(weights) for end, weights in terms.items()}


def per_angle_h_sequence(u: float, t: float, n: int, j: int = 0) -> np.ndarray:
    """h(j, t, k) for k = 0..n, one angle at a time, every cell j <= k carried.

    The package's recursion before it stepped a batch of angles on one buffer
    and stopped carrying cells below the smallest normal double; kept verbatim
    (without the package's budget check on n) as the reference its output
    bytes are compared with.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if j < 0:
        raise ValueError("j must be >= 0")
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
