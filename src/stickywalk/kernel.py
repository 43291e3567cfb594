"""Model parameters, transition kernel, and seeded Monte Carlo sampling.

The chain lives on Z^2 and makes one of four diagonal moves per step.  Away
from the diagonal x == y the four moves (+-1, +-1) are equally likely; on the
diagonal the two "together" moves get probability u/4 each and the two
"apart" moves (2 - u)/4 each, where u = (2 + 2*delta) / (2 + delta) and
delta >= 0 tunes the stickiness.

Sampling draws one uniform per step and partitions it into the four kernel
intervals.  Every path owns a counter-based random stream keyed by
(seed, path index), so simulations are bit-reproducible no matter how the
work is chunked.  ``simulate_endpoints`` walks fixed spans of path indices
one after another in path-index order.  One builder, ``_chunk_classes``,
re-keys one Philox per path instead of building a generator per path, and
keeps of each uniform only its class: how many of step()'s six thresholds
(three off the diagonal, three on it) it reaches, one int8 per step, stored
step-major as an (n, paths) array.  A uniform reaches the r-th smallest
threshold exactly when its class is at least r, so comparing classes with
integer ranks makes every comparison step() makes.  The walk first
classifies a block of steps for both states, on and off the diagonal; the
step loop then carries only D = (x - y)/2, in the smallest signed integer
dtype that holds +-n, four ufunc calls per step.  The chunks' endpoints are
joined.  ``path_rng`` and ``step`` are the scalar reference the chunk code
is tested against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CapacityError

__all__ = [
    "StickinessParam",
    "WalkState",
    "EndpointSample",
    "stickiness_u",
    "step",
    "path_rng",
    "simulate_endpoints",
]

_MASK64 = (1 << 64) - 1
# paths * n guard; beyond this a "quick look" simulation stops being quick
_MAX_TOTAL_STEPS = 1 << 31
# steps per block of _walk_draws, classified for both states before its
# step loop; 32 ran fastest of 8..126 at n = 256 and 1024
_WALK_BLOCK = 32


def stickiness_u(delta: float) -> float:
    """Diagonal bias u = (2 + 2*delta) / (2 + delta): in [1, 2], exactly 2.0 from delta ~ 1e17."""
    delta = float(delta)
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    return 2.0 if math.isinf(2.0 * delta) else (2.0 + 2.0 * delta) / (2.0 + delta)


@dataclass(frozen=True)
class StickinessParam:
    """Reinforcement weight delta together with the derived diagonal bias u."""

    delta: float
    u: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "u", stickiness_u(self.delta))

    @property
    def u_minus_one(self) -> float:
        # delta / (2 + delta); avoids the u - 1 cancellation for huge delta
        return self.delta / (2.0 + self.delta)

    @property
    def two_minus_u(self) -> float:
        return 2.0 / (2.0 + self.delta)


@dataclass(frozen=True)
class WalkState:
    """Lattice position (x, y) after n steps.  Both coordinates share n's parity."""

    x: int
    y: int
    n: int = 0

    def __post_init__(self):
        if (self.x - self.n) % 2 != 0 or (self.y - self.n) % 2 != 0:
            raise ValueError(
                f"parity violated: ({self.x}, {self.y}) unreachable in {self.n} steps"
            )


def step(state: WalkState, p: StickinessParam, rng: np.random.Generator) -> WalkState:
    """Advance one step using a single uniform draw from ``rng``."""
    v = rng.random()
    if state.x == state.y:
        a, b, c = 0.25 * p.u, 0.5 * p.u, 0.25 * (2.0 + p.u)
    else:
        a, b, c = 0.25, 0.5, 0.75
    # interval index 0..3 <-> moves (+1,+1), (-1,-1), (+1,-1), (-1,+1)
    m = int(v >= a) + int(v >= b) + int(v >= c)
    dx = 1 - 2 * (m & 1)
    dy = 1 - 2 * int(m in (1, 2))
    return WalkState(state.x + dx, state.y + dy, state.n + 1)


def path_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one path, derived from (seed, path index)."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class EndpointSample:
    """Endpoints of independent paths, plus the parameters that produced them."""

    x: np.ndarray
    y: np.ndarray
    n: int
    delta: float
    seed: int

    @property
    def paths(self) -> int:
        return int(self.x.shape[0])

    def pairs(self):
        """Iterate endpoints as (x, y) tuples in path-index order."""
        return zip(self.x.tolist(), self.y.tolist())

    def write_csv(self, path: str | Path) -> None:
        """Write ``path_index,x,y`` rows; parameters go to a ``<path>.json`` sidecar."""
        path = Path(path)
        lines = ["path_index,x,y"]
        lines.extend(
            f"{i},{xi},{yi}" for i, (xi, yi) in enumerate(self.pairs())
        )
        path.write_text("\n".join(lines) + "\n")
        sidecar = {
            "delta": self.delta,
            "n": self.n,
            "paths": self.paths,
            "seed": self.seed,
        }
        Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")

    @classmethod
    def read_csv(cls, path: str | Path) -> "EndpointSample":
        """Read what ``write_csv`` wrote.

        Raises ``ValueError`` unless the sidecar holds ``n``, ``paths``,
        ``delta`` and ``seed``, and the rows are its ``paths`` paths, indexed
        0..paths-1 once each, with endpoints a walk of ``n`` steps can
        reach: |x|, |y| <= n and both of n's parity.
        """
        path = Path(path)
        meta = json.loads(Path(str(path) + ".json").read_text())
        missing = [key for key in ("n", "paths", "delta", "seed") if key not in meta]
        if missing:
            raise ValueError(f"{path}: its sidecar lacks {', '.join(map(repr, missing))}")
        n, paths = int(meta["n"]), int(meta["paths"])
        rows = path.read_text().strip().splitlines()[1:]
        if len(rows) != paths:
            raise ValueError(f"{path}: {len(rows)} rows, but its sidecar says {paths} paths")
        table = np.array([[int(v) for v in row.split(",")] for row in rows],
                         dtype=np.int64).reshape(paths, 3)
        index, xs, ys = table.T
        if not np.array_equal(np.sort(index), np.arange(paths)):
            raise ValueError(f"{path}: path indices are not 0..{paths - 1}, once each")
        for name, c in (("x", xs), ("y", ys)):
            if np.any(np.abs(c) > n) or np.any((c - n) % 2):
                raise ValueError(f"{path}: an endpoint {name} is not reachable in {n} steps")
        x = np.empty(paths, dtype=np.int64)
        y = np.empty(paths, dtype=np.int64)
        x[index], y[index] = xs, ys
        return cls(x=x, y=y, n=n, delta=float(meta["delta"]), seed=int(meta["seed"]))


def _chunk_paths(n: int) -> int:
    # ~4 MB of int8 classes per chunk (32 MB of the uniforms they stand for);
    # the chunk size never affects results
    return max(64, min(4096, int(4_000_000 // max(n, 1))))


def _cut_ranks(u: float) -> tuple[list[float], tuple[int, ...], tuple[int, ...]]:
    """step()'s six thresholds sorted, and the rank of each off and on the diagonal.

    The rank of cut c is a 1-based position of c among the sorted cuts; for
    tied cuts the first one serves, since they compare alike.
    """
    off = (0.25, 0.5, 0.75)
    on = (0.25 * u, 0.5 * u, 0.25 * (2.0 + u))
    cuts = sorted(off + on)
    return cuts, tuple(cuts.index(c) + 1 for c in off), tuple(cuts.index(c) + 1 for c in on)


def _classify(rows: np.ndarray, cuts: list[float]) -> np.ndarray:
    """int8 count of the ``cuts`` that each uniform of ``rows`` reaches, same shape."""
    classes = np.greater_equal(rows, cuts[0]).view(np.int8)
    reach = np.empty(rows.shape, dtype=np.bool_)
    for cut in cuts[1:]:
        np.greater_equal(rows, cut, out=reach)
        np.add(classes, reach.view(np.int8), out=classes)
    return classes


def _chunk_classes(u: float, n: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Threshold classes of paths lo..hi-1's uniforms, step-major int8 of shape (n, hi - lo).

    Column i holds, for each uniform v of ``path_rng(seed, lo + i).random(n)``,
    its class: the number j of ``step``'s six thresholds at this u (1/4, 1/2,
    3/4 off the diagonal, u/4, u/2, (2 + u)/4 on it) with v >= cut.  With the
    cuts sorted, c_(1) <= ... <= c_(6), v >= c_(r) holds exactly when
    j >= r, so every comparison ``step`` makes is ``j >= rank`` for the
    rank ``_cut_ranks`` gives its cut; ties, as at delta = 0, and the cut
    (2 + u)/4 = 1 at u = 2 need no special case.

    One Philox serves the chunk.  Each path re-keys it to (seed, index) and
    restores the fresh counter and buffer, which is the state ``path_rng``
    would build, so the draws are the same bytes without a new generator
    per path.  A block of paths is drawn path-major, classified while it is
    still in cache, and only its int8 classes are transposed into the chunk:
    1 byte per step instead of the 8 of its uniforms.
    """
    m = hi - lo
    cuts = _cut_ranks(u)[0]
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    # the fresh state as Python ints: the setter casts every entry to
    # uint64, and from numpy scalars that costs about 1 us more per path
    fresh = {"bit_generator": "Philox",
             "state": {"counter": [0] * 4, "key": [seed & _MASK64, 0]},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    key = fresh["state"]["key"]  # the setter copies it, so one dict serves every path
    # paths per block: <= 512 KB of uniforms (64 paths at n = 1024), which
    # the classifier reads while they are still in cache
    width = max(1, min(256, m, (1 << 16) // max(n, 1)))
    # the chunk before its block: the other order read about 0.3 MB more
    # peak RSS in the mc-critical benchmark
    classes = np.empty((n, m), dtype=np.int8)
    block = np.empty((width, n))
    for j in range(0, m, width):
        rows = block[: min(width, m - j)]
        for i, row in enumerate(rows):
            key[1] = (lo + j + i) & _MASK64
            bitgen.state = fresh
            gen.random(out=row)
        classes[:, j : j + len(rows)] = _classify(rows, cuts).T
    return classes


def _moves(v: np.ndarray, ranks: tuple[int, int, int], c: np.ndarray,
           d_step: np.ndarray, minus: np.ndarray) -> None:
    """The move each class in ``v`` makes from one kind of state, given its cut ranks.

    With c1, c2, c3 = v >= ranks (so c1 >= c2 >= c3), step()'s move index is
    c1 + c2 + c3: c2 says the move is "apart", and c1 - c2 + c3 says it is
    -1 in x.  Writes the step of D = (x - y)/2, c2 - 2*c3, to ``d_step`` and
    the -1 flag to ``minus``, both int8; ``c`` is three bool buffers shaped
    like ``v``.
    """
    for ci, rank in zip(c, ranks):
        np.greater_equal(v, rank, out=ci)
    c1, c2, c3 = (ci.view(np.int8) for ci in c)
    np.subtract(c2, c3, out=d_step)
    np.subtract(d_step, c3, out=d_step)
    np.subtract(c1, c2, out=minus)
    np.add(minus, c3, out=minus)


def _walk_draws(u: float, classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints (x, y) of the paths whose step-major threshold classes are ``classes``.

    ``classes`` is what ``_chunk_classes`` returns for this u: int8 classes,
    so comparing a class with the rank of one of step()'s cuts is comparing
    its uniform with that cut, and the moves are step()'s bit for bit.

    A path's move depends on its draw and on one bit of state: whether it
    is on the diagonal, D = (x - y)/2 == 0.  So each block of up to
    ``_WALK_BLOCK`` steps is first classified for both states at once,
    against the ranks of u/4, u/2 and (2 + u)/4 on the diagonal and of 1/4,
    1/2 and 3/4 off it.  This gives int8 rows of the D step and of the
    -1-in-x flag off the diagonal, and of how each changes on it.

    The step loop then carries only D, in four ufunc calls per step into
    preallocated rows: compare D with 0, scale the on-diagonal change by
    that bit, add the off-diagonal step, and add the result to D.  D is one
    array of the smallest signed integer dtype that holds -n - 1, so it
    holds +-n.  The on bits are kept, so the -1 moves are counted once per
    block; x = n - 2 * (number of -1 moves) and y = x - 2D.
    """
    n, m = classes.shape
    rows = max(1, min(_WALK_BLOCK, n))
    c = np.empty((3, rows, m), dtype=np.bool_)
    on = np.empty((rows, m), dtype=np.bool_)
    table = np.empty((4, rows, m), dtype=np.int8)
    d = np.zeros(m, dtype=np.min_scalar_type(-n - 1))
    minus = np.zeros(m, dtype=np.int64)
    d_step = np.empty(m, dtype=np.int8)
    _, off_ranks, on_ranks = _cut_ranks(u)
    for k in range(0, n, rows):
        v = classes[k : k + rows]
        r = len(v)
        d_off, minus_off, d_gap, minus_gap = table[:, :r]
        _moves(v, off_ranks, c[:, :r], d_off, minus_off)
        _moves(v, on_ranks, c[:, :r], d_gap, minus_gap)
        np.subtract(d_gap, d_off, out=d_gap)  # on-diagonal step minus off-diagonal step
        np.subtract(minus_gap, minus_off, out=minus_gap)
        on8 = on[:r].view(np.int8)
        for j in range(r):
            np.logical_not(d, out=on[j])  # D == 0, without a scalar operand to convert
            np.multiply(on8[j], d_gap[j], out=d_step)
            np.add(d_step, d_off[j], out=d_step)
            np.add(d, d_step, out=d)
        np.multiply(on8, minus_gap, out=minus_gap)
        np.add(minus_gap, minus_off, out=minus_gap)
        minus += minus_gap.sum(axis=0, dtype=np.int16)
    x = n - 2 * minus
    return x, x - 2 * d.astype(np.int64)


def simulate_endpoints(
    p: StickinessParam,
    n: int,
    paths: int,
    seed: int,
    workers: int = 1,
) -> EndpointSample:
    """Sample ``paths`` independent endpoints after ``n`` steps from the origin.

    Bit-reproducible for a given (seed, paths, n, delta): each path consumes
    only its own (seed, index)-keyed stream, and the chunks are joined in
    path-index order.

    ``workers`` is ignored (values below 1 are still rejected): threads over
    the chunks never ran faster than one.  It stays only while the benchmark
    in ``perfbench/`` still passes it.
    """
    if paths < 1:
        raise ValueError("paths must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if paths * n > _MAX_TOTAL_STEPS:
        raise CapacityError(
            f"paths * n = {paths * n} exceeds the simulation budget of {_MAX_TOTAL_STEPS}"
        )
    chunk = _chunk_paths(n)
    spans = [(lo, min(lo + chunk, paths)) for lo in range(0, paths, chunk)]
    parts = [_walk_draws(p.u, _chunk_classes(p.u, n, seed, lo, hi)) for lo, hi in spans]
    x = np.concatenate([part[0] for part in parts])
    y = np.concatenate([part[1] for part in parts])
    x.setflags(write=False)
    y.setflags(write=False)
    return EndpointSample(x=x, y=y, n=n, delta=p.delta, seed=seed)
