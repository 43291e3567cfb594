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
one after another in path-index order; each chunk allocates and returns its
own endpoint arrays, and the chunks are joined.  ``step`` is the scalar
reference the chunk walk is tested against.
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


def stickiness_u(delta: float) -> float:
    """Diagonal bias u = (2 + 2*delta) / (2 + delta), in [1, 2) for finite delta."""
    delta = float(delta)
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    return (2.0 + 2.0 * delta) / (2.0 + delta)


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
        path = Path(path)
        meta = json.loads(Path(str(path) + ".json").read_text())
        rows = path.read_text().strip().splitlines()[1:]
        x = np.empty(len(rows), dtype=np.int64)
        y = np.empty(len(rows), dtype=np.int64)
        for row in rows:
            i, xi, yi = row.split(",")
            x[int(i)] = int(xi)
            y[int(i)] = int(yi)
        return cls(x=x, y=y, n=int(meta["n"]), delta=float(meta["delta"]), seed=int(meta["seed"]))


def _chunk_paths(n: int) -> int:
    # ~32 MB of uniforms per chunk; the chunk size never affects results
    return max(64, min(4096, int(4_000_000 // max(n, 1))))


def _walk_chunk(u: float, n: int, seed: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of paths lo..hi-1, each walked on its own (seed, index) stream."""
    m = hi - lo
    draws = np.empty((m, n))
    for i in range(m):
        draws[i] = path_rng(seed, lo + i).random(n)
    x = np.zeros(m, dtype=np.int64)
    y = np.zeros(m, dtype=np.int64)
    for k in range(n):
        v = draws[:, k]
        # thresholds b/2, b, (1 + b)/2; halving is exact, so on the diagonal
        # they equal step()'s u/4, u/2, (2 + u)/4 bit for bit
        b = np.where(x == y, 0.5 * u, 0.5)
        move = (v >= 0.5 * b).astype(np.int64) + (v >= b) + (v >= 0.5 * (1.0 + b))
        x += 1 - 2 * (move & 1)
        y += 1 - 2 * ((move == 1) | (move == 2))
    return x, y


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
    parts = [_walk_chunk(p.u, n, seed, lo, hi) for lo, hi in spans]
    x = np.concatenate([part[0] for part in parts])
    y = np.concatenate([part[1] for part in parts])
    x.setflags(write=False)
    y.setflags(write=False)
    return EndpointSample(x=x, y=y, n=n, delta=p.delta, seed=seed)
