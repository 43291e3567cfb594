"""Experiment orchestration: regime sweeps, covariance runs, the cross-route
measurements, and CHECKS, the one table of checks on them that the self-test
(each check's quick side) and the acceptance suite (its full side) run.
Each measurement returns named numbers, CHECKS holds every bound on them,
and run_check decides every side by one rule: each bounded value is below
its bound, or at most 0 where the bound is 0.

Reports are plain rows of floats.  Output is deterministic byte-for-byte for
a given (config, seed): Monte Carlo substreams are derived from
(seed, n, path index), the sampler walks them in path-index order in one
thread (there is no worker count to set), and rows are emitted in
(n, grid index) order.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import specfun
from .exact import (
    CouplingVariant,
    _zn_coefficient,
    brute_force_char,
    brute_force_h,
    char_fn,
    char_fn_exact,
    char_fn_gf,
    diag_fourier_sequence,
    exact_covariance,
    gf_closed_form,
    gf_domain_error,
    laplace_empirical,
)
from .kernel import StickinessParam, simulate_endpoints, stickiness_u
from .limits import (
    RegimeSpec,
    covariance_limit,
    ell,
    ell_laplace_numeric,
    laplace_numeric,
    laplace_target,
    limit_cf,
    limit_params,
    phi_critical,
    subcritical_density,
    supercritical_density,
)
from .specfun import erfc_real, erfcx_complex, erfcx_real, integrate_01

__all__ = [
    "SweepConfig",
    "ReportRow",
    "CovarianceRow",
    "DEFAULT_GRID_AXIS",
    "run_sweep",
    "run_covariance",
    "run_selftest",
    "Check",
    "CHECKS",
    "run_check",
    "rows_to_csv",
    "rows_to_json",
    "write_report",
    "oracle_gaps",
    "gf_gaps",
    "variant_values",
    "variant_sup_gaps",
    "ell_transform_gaps",
    "laplace_limit_errors",
    "covariance_gaps",
    "critical_route_gap",
    "gf_route_gaps",
    "mc_agreement",
    "worst_relative_error",
    "sweep_sup_errors",
    "special_function_errors",
]

_MASK64 = (1 << 64) - 1

# default (s, t) grid: the product of this axis with itself
DEFAULT_GRID_AXIS = (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def subseed(seed: int, n: int) -> int:
    """Per-n Monte Carlo seed, so path streams are keyed by (seed, n, index)."""
    return _splitmix64((seed & _MASK64) ^ _splitmix64(n))


def default_grid() -> tuple[tuple[float, float], ...]:
    return tuple((s, t) for s in DEFAULT_GRID_AXIS for t in DEFAULT_GRID_AXIS)


def _check_mc_paths(paths: int) -> None:
    # 0 skips the Monte Carlo; one path has no standard error
    if paths < 0 or paths == 1:
        raise ValueError(f"paths must be 0 (no Monte Carlo) or >= 2, got {paths}")


def _step_counts(n_list) -> tuple[int, ...]:
    """n_list as ints; ValueError unless nonempty with every n an integer >= 1."""
    n_list = tuple(n_list)
    if not n_list or not all(n >= 1 and n % 1 == 0 for n in n_list):  # NaN, inf, 2.5 fail
        raise ValueError(f"n_list must be nonempty, with every n an integer >= 1, got {list(n_list)}")
    return tuple(int(n) for n in n_list)


@dataclass(frozen=True)
class SweepConfig:
    """One convergence sweep: a regime, step counts, and an (s, t) grid."""

    regime: RegimeSpec
    n_list: tuple[int, ...]
    grid: tuple[tuple[float, float], ...] = field(default_factory=default_grid)
    paths: int = 0
    seed: int = 0
    coupling: CouplingVariant = CouplingVariant.KERNEL

    def __post_init__(self):
        object.__setattr__(self, "n_list", _step_counts(self.n_list))
        object.__setattr__(self, "grid", tuple((float(s), float(t)) for s, t in self.grid))
        object.__setattr__(self, "coupling", CouplingVariant(self.coupling))
        if any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ValueError("n_list must be strictly increasing")
        if not self.grid:
            raise ValueError("grid must be nonempty")
        if not all(math.isfinite(v) for point in self.grid for v in point):
            raise ValueError("grid angles must be finite")
        _check_mc_paths(self.paths)


@dataclass(frozen=True)
class ReportRow:
    n: int
    delta: float
    s: float
    t: float
    f_exact: float | None = None
    f_mc: float | None = None
    f_limit: float | None = None
    err_exact_limit: float | None = None
    err_mc_exact: float | None = None
    mc_stderr: float | None = None
    error: str = ""


@dataclass(frozen=True)
class CovarianceRow:
    n: int
    delta: float
    exact: float | None = None
    mc: float | None = None
    mc_stderr: float | None = None
    limit: float | None = None
    err_exact_limit: float | None = None
    err_mc_exact: float | None = None
    error: str = ""


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Monte Carlo mean of per-path values and its standard error."""
    return float(values.mean()), float(values.std(ddof=1)) / math.sqrt(values.size)


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _limit_cell(config: SweepConfig, s: float, t: float):
    """f_limit at one grid point, or the exception that stopped it."""
    try:
        return limit_cf(config.regime, s, t)
    except Exception as exc:
        return exc


def run_sweep(config: SweepConfig) -> list[ReportRow]:
    """Exact / Monte Carlo / limiting characteristic-function table.

    The exact engine and the limit are evaluated at (s/sqrt(n), t/sqrt(n)) and
    (s, t) respectively; per-row failures land in the error column and the run
    continues.  The limit does not depend on n, so each grid point's limit is
    computed once; a limit that raises fails only that point's rows.  Each n
    makes one exact call for the whole grid first, and its Monte Carlo sample
    is drawn only if some row of that n can succeed, so an n the exact side
    refuses costs no simulation.  That call is exact.char_fn, which picks
    the contour or the h recursion for the whole grid of that n.
    """
    limits = [_limit_cell(config, s, t) for s, t in config.grid]
    s_axis, t_axis = np.array(config.grid).T
    rows: list[ReportRow] = []
    for n in config.n_list:
        delta = config.regime.delta_at(n)
        root_n = math.sqrt(n)
        try:
            p = StickinessParam(delta)
            s_n, t_n = s_axis / root_n, t_axis / root_n
            exact = char_fn(p, s_n, t_n, n, config.coupling)
            sample = None
            if config.paths > 0 and not all(isinstance(f, Exception) for f in limits):
                sample = simulate_endpoints(p, n, config.paths, subseed(config.seed, n))
        except Exception as exc:
            rows.extend(ReportRow(n=n, delta=delta, s=s, t=t, error=_error_text(exc))
                        for s, t in config.grid)
            continue
        for (s, t), f_exact, f_limit in zip(config.grid, exact.real.tolist(), limits):
            if isinstance(f_limit, Exception):
                rows.append(ReportRow(n=n, delta=delta, s=s, t=t, error=_error_text(f_limit)))
                continue
            f_mc = mc_stderr = err_mc = None
            if sample is not None:
                f_mc, mc_stderr = _mean_stderr(np.cos((s * sample.x + t * sample.y) / root_n))
                err_mc = abs(f_mc - f_exact)
            rows.append(ReportRow(
                n=n, delta=delta, s=s, t=t,
                f_exact=f_exact, f_mc=f_mc, f_limit=f_limit,
                err_exact_limit=abs(f_exact - f_limit),
                err_mc_exact=err_mc, mc_stderr=mc_stderr,
            ))
    return rows


def run_covariance(alpha: float, n_list, seed: int = 0, paths: int = 0) -> list[CovarianceRow]:
    """Compare n^-1 E[x y] at delta = alpha sqrt(n) against its limit."""
    n_list = _step_counts(n_list)
    _check_mc_paths(paths)
    limit = covariance_limit(alpha)
    rows: list[CovarianceRow] = []
    for n in n_list:
        delta = alpha * math.sqrt(n)
        try:
            p = StickinessParam(delta)
            value = exact_covariance(p, n) / n
            mc = mc_stderr = err_mc = None
            if paths > 0:
                sample = simulate_endpoints(p, n, paths, subseed(seed, n))
                mc, mc_stderr = _mean_stderr((sample.x * sample.y).astype(np.float64) / n)
                err_mc = abs(mc - value)
            rows.append(CovarianceRow(
                n=n, delta=delta, exact=value, mc=mc, mc_stderr=mc_stderr,
                limit=limit, err_exact_limit=abs(value - limit), err_mc_exact=err_mc,
            ))
        except Exception as exc:
            rows.append(CovarianceRow(n=n, delta=delta, error=_error_text(exc)))
    return rows


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"  # round-trips exactly
    return str(value)


def rows_to_csv(rows) -> str:
    if not rows:
        return ""
    names = [f.name for f in dataclasses.fields(rows[0])]
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join(_cell(getattr(row, name)) for name in names))
    return "\n".join(lines) + "\n"


def rows_to_json(rows) -> str:
    return json.dumps([dataclasses.asdict(row) for row in rows], indent=2) + "\n"


def write_report(rows, out: str | Path | None = None, fmt: str = "csv") -> str:
    if fmt not in ("csv", "json"):
        raise ValueError("fmt must be 'csv' or 'json'")
    text = rows_to_csv(rows) if fmt == "csv" else rows_to_json(rows)
    if out is not None:
        Path(out).write_text(text)
    return text


# ---------------------------------------------------------------------------
# measurements: each cross-route check has one implementation here.  A
# measurement returns a flat dict of named numbers (ints for counts, floats
# for gaps, tuples of floats for values shown only for information); the
# table CHECKS below pairs it with the parameters and bounds of its quick run
# (the self-test) and its full run (the acceptance suite).
# ---------------------------------------------------------------------------

def _worst(values, floor: float = 0.0) -> float:
    """Largest of floor and values, and NaN if any value is NaN.

    The built-in max drops a NaN that is not its first argument, so a NaN gap
    would pass its bound; np.max propagates it and the check fails.
    """
    return float(np.max([floor, *values]))


def _violations(values, holds) -> int:
    """Consecutive pairs (a, b) of values where holds(a, b) is false; a NaN
    makes every comparison false, so its steps count."""
    return sum(not holds(a, b) for a, b in zip(values, values[1:]))


def _grid_axes(axis) -> tuple[np.ndarray, np.ndarray]:
    """s and t of the axis x axis grid, row-major, as two arrays."""
    values = np.asarray(axis, dtype=np.float64)
    return np.repeat(values, values.size), np.tile(values, values.size)


def oracle_gaps(deltas, ns, angles, js) -> dict:
    """Worst |f - enumeration| ("f") and worst |h(j) - enumeration| ("h"),
    kernel coupling."""
    f_gaps, h_gaps = [], []
    s_grid, t_grid = _grid_axes(angles)
    for delta in deltas:
        p = StickinessParam(delta)
        for n in ns:
            f = char_fn_exact(p, s_grid, t_grid, n, CouplingVariant.KERNEL)
            f_gaps += (abs(value - brute_force_char(p, s, t, n))
                       for s, t, value in zip(s_grid.tolist(), t_grid.tolist(), f))
            for j in js:
                h = diag_fourier_sequence(p.u, angles, n, j=j)[:, n]
                h_gaps += (abs(value - brute_force_h(p, j, t, n)) for t, value in zip(angles, h))
    return {"f": _worst(f_gaps), "h": _worst(h_gaps)}


def gf_gaps(deltas, ns, ts, js) -> dict:
    """"gap": worst |[z^n] H(j, t, z) - h(j, t, n)| over the grid, gf_closed_form
    read off the contour by exact's inversion against the h recursion.

    H(j, t, z) is singular on the negative z axis at the branch point
    -2 / (1 - cos t) and, at u = 2, the pole 1 / cos t: gf_domain_error's rho
    at (t, 0).  Every (t, n) must lie in that domain, or this raises
    ValueError; at t = 2, rho = sin^2(1) = 0.708 and n >= 87.
    """
    gaps = []
    t_col = np.reshape(ts, (-1, 1))  # one row per angle, one column per node
    for n in ns:
        cause = gf_domain_error(ts, np.zeros(len(ts)), n)
        if cause:
            raise ValueError(cause)
        for delta in deltas:
            p = StickinessParam(delta)
            for j in js:
                recursion = diag_fourier_sequence(p.u, ts, n, j=j)[:, n]
                closed = _zn_coefficient(lambda z, omz: gf_closed_form(p, t_col, z, j, omz), n)
                gaps += np.abs(closed - recursion).tolist()
    return {"gap": _worst(gaps)}


def variant_values(delta: float, s: float, t: float, n: int, paper_exact: float,
                   kernel_exact: float) -> dict:
    """f at one point under both couplings and by enumeration, as distances:
    the paper coupling's from paper_exact, the kernel's and the enumeration's
    from kernel_exact, and the kernel's from the enumeration ("kernel_oracle")."""
    p = StickinessParam(delta)
    paper, kernel = char_fn_exact(p, [s, s], [t, t], n,
                                  [CouplingVariant.PAPER, CouplingVariant.KERNEL]).tolist()
    oracle = brute_force_char(p, s, t, n)
    return {"paper": abs(paper - paper_exact), "kernel": abs(kernel - kernel_exact),
            "oracle": abs(oracle - kernel_exact), "kernel_oracle": abs(kernel - oracle)}


def variant_sup_gaps(axis, ns) -> dict:
    """"sups": per n, sup over the axis x axis grid of |f_kernel - f_paper| at
    delta = sqrt(n) and angles scaled by 1/sqrt(n); "not_decreasing": the
    steps along ns where that sup does not fall."""
    sups = []
    s_grid, t_grid = _grid_axes(axis)
    couplings = [CouplingVariant.KERNEL] * s_grid.size + [CouplingVariant.PAPER] * s_grid.size
    for n in ns:
        p = StickinessParam(math.sqrt(n))
        rn = math.sqrt(n)
        both = char_fn_exact(p, np.tile(s_grid / rn, 2), np.tile(t_grid / rn, 2), n, couplings)
        kernel, paper = np.split(both.real, 2)
        sups.append(_worst(np.abs(kernel - paper)))
    return {"sups": tuple(sups), "not_decreasing": _violations(sups, operator.gt)}


def ell_transform_gaps(triples) -> dict:
    """"gap": worst |Laplace transform of ell by quadrature (tol 1e-9) -
    closed-form critical target| over (alpha, w, lam); "branches_missed": how
    many of ell's complex and degenerate branches no triple reached."""
    gaps, saw_complex, saw_degenerate = [], False, False
    for alpha, w, lam in triples:
        params = limit_params(alpha, w)
        saw_complex = saw_complex or params.gamma.imag > 0.0
        saw_degenerate = saw_degenerate or params.degenerate
        got = ell_laplace_numeric(alpha, w, lam, tol=1e-9)
        gaps.append(abs(got - laplace_target(RegimeSpec.critical(alpha), w, lam)))
    return {"gap": _worst(gaps), "branches_missed": (not saw_complex) + (not saw_degenerate)}


def laplace_limit_errors(regimes, ns, pairs, density_pairs) -> dict:
    """|empirical Laplace transform at step n - closed-form limit| over the
    (w, lam) pairs: per regime kind, its worst over the pairs at each n; "gap",
    the worst at the largest n over every regime; "not_decreasing", the steps
    along ns where a pair's error does not fall.  "density": the worst
    |Laplace transform by quadrature (tol 1e-10) - closed form| of the sub- and
    supercritical densities over density_pairs."""
    out, last, not_decreasing = {}, [], 0
    for regime in regimes:
        errs = np.empty((len(pairs), len(ns)))
        for i, (w, lam) in enumerate(pairs):
            for k, n in enumerate(ns):
                delta = regime.delta_at(n)
                emp = laplace_empirical(delta, n, w, lam)
                if regime.kind == "subcritical":
                    emp *= math.sqrt(n) / delta
                errs[i, k] = abs(emp - laplace_target(regime, w, lam))
        out[regime.kind] = tuple(errs.max(axis=0).tolist())
        last += errs[:, -1].tolist()
        not_decreasing += sum(_violations(row, operator.gt) for row in errs.tolist())
    density = []
    for w, lam in density_pairs:
        sub = laplace_numeric(lambda x: subcritical_density(w, x), lam, tol=1e-10)
        sup = laplace_numeric(lambda x: supercritical_density(w, x), lam, tol=1e-10)
        density += (abs(sub - 1.0 / math.sqrt(4 * lam + w * w)),
                    abs(sup - 1.0 / (0.5 * w * w + lam)))
    return {**out, "gap": _worst(last), "not_decreasing": not_decreasing,
            "density": _worst(density)}


def covariance_gaps(n: int, alphas, fd_alphas, limit_tol: float) -> dict:
    """Worst |n^-1 E[x y] - limit| at delta = alpha sqrt(n) and ("routes") worst |limit
    - integral_0^1 erfcx(2 sqrt(v) / alpha) dv to limit_tol| over alphas, and worst
    |central-difference (step 1e-3) d2 phi/ds dt at 0 + limit| over fd_alphas."""
    h = 1e-3
    gaps, routes, fd_gaps = [], [], []
    for alpha in alphas:
        limit = covariance_limit(alpha)
        gaps.append(abs(exact_covariance(StickinessParam(alpha * math.sqrt(n)), n) / n - limit))
        routes.append(abs(limit - integrate_01(lambda v: erfcx_real(2.0 * math.sqrt(v) / alpha),
                                               tol=limit_tol)))
        if alpha in fd_alphas:
            fd = (phi_critical(alpha, h, h, tol=1e-12) - phi_critical(alpha, h, -h, tol=1e-12)
                  - phi_critical(alpha, -h, h, tol=1e-12)
                  + phi_critical(alpha, -h, -h, tol=1e-12)) / (4.0 * h * h)
            fd_gaps.append(abs(fd + limit))
    return {"gap": _worst(gaps), "routes": _worst(routes), "fd": _worst(fd_gaps)}


def critical_route_gap(alphas, axis, tol: float) -> dict:
    """"gap": worst |limit_cf (contour) - phi_critical (quadrature to tol)|
    over the axis x axis grid at each critical alpha."""
    s_grid, t_grid = _grid_axes(axis)
    return {"gap": _worst(abs(limit_cf(RegimeSpec.critical(alpha), s, t)
                              - phi_critical(alpha, s, t, tol=tol))
                          for alpha in alphas for s, t in zip(s_grid.tolist(), t_grid.tolist()))}


def gf_route_gaps(alphas, ns, axis, far_ns) -> dict:
    """char_fn_gf against the h recursion and against the critical limit, at
    delta = alpha sqrt(n) on the axis x axis grid, angles scaled by 1/sqrt(n),
    and exact_covariance against the recursion's sum.

    "gap": worst |char_fn_gf - char_fn_exact| over alphas, ns and both
    couplings, at the grid points inside char_fn_gf's domain ("outside"
    counts the (alpha, n, grid point) triples outside it).  "drift": worst
    |m (f_m - phi) - N (f_N - phi)| over alphas, m in far_ns and the grid,
    where phi is limit_cf, f_m is char_fn_gf and f_N the recursion at
    N = ns[-1] (kernel coupling).  "scaled": N sup |f_N - phi| per alpha.
    "covariance": worst |exact_covariance - (u - 1) sum_{k<n} h(0, 0, k)|
    relative to the latter, over alphas and ns.
    """
    s_grid, t_grid = _grid_axes(axis)
    couplings = [CouplingVariant.KERNEL] * s_grid.size + [CouplingVariant.PAPER] * s_grid.size
    gaps, drift, scaled, covariance, outside = [], [], [], [], 0
    for alpha in alphas:
        regime = RegimeSpec.critical(alpha)
        phi = np.array([limit_cf(regime, s, t) for s, t in zip(s_grid.tolist(), t_grid.tolist())])
        for n in ns:
            rn = math.sqrt(n)
            p = StickinessParam(alpha * rn)
            s_n, t_n = np.tile(s_grid / rn, 2), np.tile(t_grid / rn, 2)
            recursion = char_fn_exact(p, s_n, t_n, n, couplings).real
            inside = np.array([not gf_domain_error(a, b, n) for a, b in zip(s_n, t_n)])
            outside += int(np.sum(~inside[: s_grid.size]))
            inner = [c for c, keep in zip(couplings, inside) if keep]
            gf = char_fn_gf(p, s_n[inside], t_n[inside], n, inner).real
            gaps += np.abs(gf - recursion[inside]).tolist()
            summed = p.u_minus_one * float(diag_fourier_sequence(p.u, 0.0, n - 1).sum())
            covariance.append(abs(exact_covariance(p, n) - summed) / abs(summed))
        reference = n * (recursion[: s_grid.size] - phi)
        scaled.append(_worst(np.abs(reference)))
        for m in far_ns:
            rm = math.sqrt(m)
            f_m = char_fn_gf(StickinessParam(alpha * rm), s_grid / rm, t_grid / rm, m).real
            drift += np.abs(m * (f_m - phi) - reference).tolist()
    return {"gap": _worst(gaps), "outside": outside, "drift": _worst(drift),
            "scaled": tuple(scaled), "covariance": _worst(covariance)}


def _off_parity(sample, n: int) -> int:
    """Endpoints with a coordinate whose parity differs from n's."""
    return int(np.sum(((sample.x - n) % 2 != 0) | ((sample.y - n) % 2 != 0)))


def mc_agreement(delta: float, n: int, paths: int, seed: int, axis, k_sigma: float) -> dict:
    """Monte Carlo vs exact f on the axis x axis grid, angles scaled by 1/sqrt(n).

    "outside" is the fraction of the grid's "points" with |f_mc - f_exact| not
    within k_sigma * stderr (a NaN on either side is outside); "off_parity"
    counts endpoints whose parity differs from n's.
    """
    p = StickinessParam(delta)
    sample = simulate_endpoints(p, n, paths, seed)
    rn = math.sqrt(n)
    s_grid, t_grid = _grid_axes(axis)
    exact = char_fn_exact(p, s_grid / rn, t_grid / rn, n).real
    within = 0
    for s, t, f_exact in zip(s_grid.tolist(), t_grid.tolist(), exact.tolist()):
        mean, stderr = _mean_stderr(np.cos((s * sample.x + t * sample.y) / rn))
        within += abs(mean - f_exact) <= k_sigma * stderr
    points = s_grid.size
    return {"points": points, "outside": (points - within) / points,
            "off_parity": _off_parity(sample, n)}


def worst_relative_error(fn, table) -> float:
    """max |fn(x) - want| / |want| over a frozen (x, want) reference table."""
    return _worst(abs(fn(x) - want) / abs(want) for x, want in table)


def sweep_sup_errors(regimes, ns, axis) -> dict:
    """Per regime, the sup over the axis x axis grid of run_sweep's
    |f_exact - f_limit| at each n; "gap", the worst of those sups at the
    largest n; "rises", the steps along ns where a regime's sup grows.  A row
    that failed raises its error."""
    grid = tuple(itertools.product(axis, axis))
    out, last, rises = {}, [], 0
    for regime in regimes:
        rows = run_sweep(SweepConfig(regime=regime, n_list=ns, grid=grid))
        failed = [row.error for row in rows if row.error]
        if failed:
            raise RuntimeError(failed[0])
        label = f"alpha={regime.alpha}" if regime.kind == "critical" else regime.kind
        sups = [_worst(row.err_exact_limit for row in rows if row.n == n) for n in ns]
        out[label] = tuple(sups)
        last.append(sups[-1])
        rises += _violations(sups, operator.ge)
    return {**out, "gap": _worst(last), "rises": rises}


def special_function_errors(alphas, ws, xs, zs) -> dict:
    """Worst relative error of erfc_real and erfcx_complex against their frozen
    tables, of erfcx's conjugation symmetry over zs and of erfcx_complex on the
    real axis over xs (relative to max(1, |value|)); worst |erfcx(x) e^(-x^2) -
    erfc(x)| over xs; worst |ell(0) - 1| over alphas x (ws plus the degenerate
    seam w = 2/alpha), where ell must also stay real at x = 3.7; and ell's
    jump at x = 0.8 across the seam w = 2 at alpha = 1."""
    conjugation = worst_relative_error(lambda z: erfcx_complex(z.conjugate()),
                                       [(z, erfcx_complex(z).conjugate()) for z in zs])
    real_axis = []
    for x in xs:
        z = erfcx_complex(complex(x, 0.0))
        real_axis.append(abs(z - erfcx_real(x)) / max(1.0, abs(z)))
    params = [limit_params(alpha, w) for alpha in alphas for w in (*ws, 2.0 / alpha)]
    origin = _worst(abs(ell(p, 0.0) - 1.0) for p in params)
    for p in params:
        ell(p, 3.7)  # raises past the realness budget
    seam = ell(limit_params(1.0, 2.0), 0.8)
    return {
        "erfc": worst_relative_error(erfc_real, specfun.ERFC_TABLE),
        "strip": worst_relative_error(erfcx_complex, specfun.ERFCX_STRIP_TABLE),
        "scaling": _worst(abs(erfcx_real(x) * math.exp(-x * x) - erfc_real(x)) for x in xs),
        "real_axis": _worst(real_axis),
        "conjugation": conjugation,
        "origin": origin,
        "seam": _worst(abs(ell(limit_params(1.0, 2.0 + eps), 0.8) - seam) for eps in (1e-6, -1e-6)),
    }


# measurements of invariants that only the self-test runs

def _kernel_unit(row_deltas, delta: float, n: int, paths: int, seed: int) -> dict:
    rows = [(p.u / 4, p.u / 4, p.two_minus_u / 4, p.two_minus_u / 4)
            for p in map(StickinessParam, row_deltas)]
    return {
        "u_exact": int(stickiness_u(0.0) != 1.0) + int(stickiness_u(2.0) != 1.5),
        "u_limit": abs(stickiness_u(1e12) - 2.0),
        "probs_outside": sum(not 0.0 <= q <= 0.5 for row in rows for q in row),
        "row_sum": _worst(abs(sum(row) - 1.0) for row in rows),
        "off_parity": _off_parity(simulate_endpoints(StickinessParam(delta), n, paths, seed), n),
    }


def _kernel_statistics(delta: float, n: int, paths: int, seed: int) -> dict:
    sample = simulate_endpoints(StickinessParam(delta), n, paths, seed=seed)
    x_above, y_above = int(np.sum(sample.x > sample.y)), int(np.sum(sample.y > sample.x))
    return {
        "mean_sigmas": _worst(abs(c.mean()) for c in (sample.x, sample.y)) / math.sqrt(n / paths),
        "x_above": x_above,
        "y_above": y_above,
        "split_sigmas": abs(x_above - y_above) / math.sqrt(max(x_above + y_above, 1)),
    }


def _normalization_symmetry(deltas) -> dict:
    # f00 and imag collect booleans (f(0,0) != 1, a nonzero imaginary part),
    # and become counts; every other key is a worst gap
    out = {key: [] for key in ("f00", "occ_outside", "mass", "imag", "exchange", "h_max")}
    for delta in deltas:
        p = StickinessParam(delta)
        occ = diag_fourier_sequence(p.u, 0.0, 23)
        out["occ_outside"] += (-float(occ.min()), float(occ.max()) - 1.0)
        # full-line mass: h(j, 0, n) = P(half-distance = j), mirrored over +-j
        for n in (5, 23):
            hj = [diag_fourier_sequence(p.u, 0.0, n, j=j)[n] for j in range(n + 1)]
            out["mass"].append(abs(hj[0] + 2.0 * sum(hj[1:]) - 1.0))
        f00 = char_fn_exact(p, [0.0, 0.0], [0.0, 0.0], 23, list(CouplingVariant))
        out["f00"] += (f00 != 1.0).tolist()
        # each (s, t) under each coupling, then the same points exchanged
        s, t, c = zip(*((s, t, c) for c in CouplingVariant for s, t in ((0.3, -1.2), (2.0, 0.7))))
        f, exchanged = np.split(char_fn_exact(p, s + t, t + s, 17, c + c), 2)
        out["imag"] += (f.imag != 0.0).tolist()
        out["exchange"] += np.abs(f - exchanged).tolist()
        out["h_max"].append(float(np.max(np.abs(diag_fourier_sequence(p.u, 1.1, 64)))))
    return {key: sum(values) if key in ("f00", "imag") else _worst(values)
            for key, values in out.items()}


def _quadrature_order(tols) -> dict:
    rises = []
    for f, want in ((math.exp, math.e - 1.0), (lambda x: 1.0 / math.sqrt(x), 2.0)):
        errs = [abs(integrate_01(f, tol=tol) - want) for tol in tols]
        rises += (b - a for a, b in zip(errs, errs[1:]))
    return {"worst_rise": _worst(rises, floor=-math.inf)}


# ---------------------------------------------------------------------------
# checks: the one table the self-test and the acceptance suite run
# ---------------------------------------------------------------------------

class Check(NamedTuple):
    """One check: a measurement and the bounds on what it returns, per run.

    ``measure(**params)`` returns a flat dict of named numbers.  ``quick``
    (run by the self-test) and ``full`` (run by the acceptance suite) are each
    (params, bounds), or None where that run has no such check; bounds maps
    some of the measured keys to numbers, which run_check holds them under.
    Four entries are quick-only invariants (kernel_unit, kernel_statistics,
    normalization_symmetry, quadrature_order); every other quick side is the
    quick run of an entry the acceptance suite runs in full.
    """

    name: str
    measure: Callable[..., dict]
    quick: tuple[dict, dict] | None = None
    full: tuple[dict, dict] | None = None


# delta_n = 2 n^(1/4) for the subcritical Laplace limit: the convergence error
# is O(delta/sqrt(n)) + O(1/delta) and the coefficient-1 default lands at
# 1.2e-2 at n = 1e8, just past the pinned 1e-2
_LAPLACE_REGIMES = (RegimeSpec.subcritical(coeff=2.0), RegimeSpec.critical(2.0),
                    RegimeSpec.supercritical())
# delta = 0, so u = 1: one step at s = t = pi/2 tells the two couplings apart
_U1_POINT = (dict(delta=0.0, s=math.pi / 2, t=math.pi / 2, n=1, paper_exact=-0.5,
                  kernel_exact=0.0),
             dict(paper=1e-12, kernel=1e-12, oracle=1e-12, kernel_oracle=1e-12))
_NS = (256, 1024, 4096)
_ERFCX_POINTS = dict(xs=tuple(np.linspace(0.0, 5.0, 21)), zs=(1 + 2j, -0.5 + 3j, 4 - 1j))
_SPECIAL_BOUNDS = dict(erfc=1e-13, strip=1e-8, scaling=1e-12, real_axis=1e-10,
                       conjugation=1e-10, origin=1e-8, seam=1e-4)
_LAPLACE_PAIRS = tuple(itertools.product((0.0, 1.0, 2.0), (0.5, 1.0, 2.0)))

CHECKS: tuple[Check, ...] = (
    Check("kernel_unit", _kernel_unit,
          (dict(row_deltas=(0.0, 0.3, 1.0, 10.0, 1e6), delta=1.0, n=33, paths=500, seed=11),
           dict(u_exact=0, u_limit=1e-11, probs_outside=0, row_sum=1e-15, off_parity=0))),
    Check("kernel_statistics", _kernel_statistics,
          (dict(delta=2.0, n=64, paths=20000, seed=7), dict(mean_sigmas=4.0, split_sigmas=4.0))),
    Check("oracle_equivalence", oracle_gaps,
          (dict(deltas=(0.0, 1.0, 5.0), ns=(1, 3, 6, 8), angles=(-2.0, 0.4, 1.9), js=(0, 1, 3)),
           dict(f=1e-12, h=1e-12)),
          (dict(deltas=(0.0, 0.5, 1.0, 5.0, 50.0), ns=(1, 2, 3, 4, 6, 9, 12),
                angles=tuple(np.linspace(-math.pi, math.pi, 5)), js=(0, 1, 2, 5)),
           dict(f=1e-12, h=1e-12))),
    Check("variant_discrimination", variant_values, _U1_POINT, _U1_POINT),
    Check("variant_asymptotics", variant_sup_gaps,
          (dict(axis=(-2.0, -0.5, 1.0, 2.0), ns=_NS), dict(not_decreasing=0)),
          (dict(axis=DEFAULT_GRID_AXIS, ns=_NS), dict(not_decreasing=0))),
    Check("normalization_symmetry", _normalization_symmetry,
          (dict(deltas=(0.0, 1.5, 20.0)),
           dict(f00=0, occ_outside=0, mass=1e-12, imag=0, exchange=1e-12, h_max=1.0 + 1e-12))),
    Check("gf_identity", gf_gaps,
          (dict(deltas=(0.5, 3.0), ns=(96,), ts=(0.0, 0.5, 2.0), js=(0, 1, 2, 5)), dict(gap=1e-12)),
          (dict(deltas=(0.5, 1.0, 3.0, 5.0), ns=(96, 128, 512), ts=(0.0, 0.5, 2.0),
                js=(0, 1, 2, 5)), dict(gap=1e-12))),
    Check("special_functions", special_function_errors,
          (dict(alphas=(0.5, 1.0, 2.0), ws=(0.0, 1.0, 2.0, 4.0), **_ERFCX_POINTS), _SPECIAL_BOUNDS),
          (dict(alphas=(0.5, 1.0, 2.0, 8.0), ws=(0.0, 1.0, 2.0, 4.0), **_ERFCX_POINTS),
           _SPECIAL_BOUNDS)),
    Check("ell_transform", ell_transform_gaps,
          (dict(triples=((1.0, 1.0, 1.0), (2.0, 2.0, 0.5), (1.0, 2.0, 1.0))),
           dict(gap=1e-6, branches_missed=0)),
          (dict(triples=tuple(itertools.product((0.5, 1.0, 2.0), (0.0, 1.0, 2.0),
                                                (0.5, 1.0, 2.0)))),
           dict(gap=1e-6, branches_missed=0))),
    Check("laplace_limits", laplace_limit_errors,
          (dict(regimes=_LAPLACE_REGIMES, ns=(10 ** 4, 10 ** 8), pairs=((0.0, 0.5), (2.0, 2.0)),
                density_pairs=((0.0, 1.0), (2.0, 0.5))),
           dict(gap=1e-2, not_decreasing=0, density=1e-8)),
          (dict(regimes=_LAPLACE_REGIMES, ns=(10 ** 4, 10 ** 8), pairs=_LAPLACE_PAIRS,
                density_pairs=_LAPLACE_PAIRS), dict(gap=1e-2, not_decreasing=0, density=1e-8))),
    Check("quadrature_order", _quadrature_order,
          (dict(tols=(1e-4, 5e-5, 2.5e-5, 1.25e-5)), dict(worst_rise=1e-15))),
    Check("critical_routes", critical_route_gap,
          (dict(alphas=(2.0,), axis=(-2.0, 0.5, 1.0), tol=1e-12), dict(gap=1e-12)),
          (dict(alphas=(0.5, 2.0), axis=DEFAULT_GRID_AXIS, tol=1e-12), dict(gap=1e-12))),
    # the contour routes, char_fn_gf and exact_covariance, against the
    # recursion to n = 8192 and, as n (f_n - phi), out to n = 1e7
    Check("gf_route", gf_route_gaps,
          full=(dict(alphas=(0.5, 2.0), ns=(16, 256, 4096, 8192), axis=DEFAULT_GRID_AXIS,
                     far_ns=(10 ** 5, 10 ** 6, 10 ** 7)),
                dict(gap=1e-12, drift=2e-5, covariance=1e-12))),
    Check("critical_convergence", sweep_sup_errors,
          full=(dict(regimes=(RegimeSpec.critical(0.5), RegimeSpec.critical(2.0)), ns=_NS,
                     axis=DEFAULT_GRID_AXIS), dict(gap=5e-2, rises=0))),
    Check("sub_super_convergence", sweep_sup_errors,
          full=(dict(regimes=(RegimeSpec.subcritical(), RegimeSpec.supercritical()), ns=_NS,
                     axis=DEFAULT_GRID_AXIS), dict(gap=5e-2, rises=0))),
    Check("covariance_consistency", covariance_gaps,
          (dict(n=2000, alphas=(1.0, 2.0), fd_alphas=(1.0,), limit_tol=1e-12),
           dict(gap=1e-3, fd=1e-4, routes=1e-12)),
          (dict(n=10 ** 4, alphas=(0.5, 1.0, 2.0, 8.0), fd_alphas=(0.5, 1.0, 2.0, 8.0),
                limit_tol=1e-12), dict(gap=2e-2, fd=1e-4, routes=1e-12))),
    Check("mc_agreement", mc_agreement,
          (dict(delta=2.0 * math.sqrt(256), n=256, paths=20000, seed=20250809,
                axis=(-1.0, 0.5, 2.0), k_sigma=5.0), dict(outside=0, off_parity=0)),
          (dict(delta=2.0 * math.sqrt(1024), n=1024, paths=10 ** 5, seed=20250809,
                axis=DEFAULT_GRID_AXIS, k_sigma=4.0), dict(outside=0.01, off_parity=0))),
)


def _holds(value, bound) -> bool:
    """The one verdict rule: value < bound, or value <= 0 where the bound is
    0 (so a count or a nonnegative gap may be exactly 0); a NaN fails."""
    return value < bound or (bound == 0 and value <= 0)


def _shown(value) -> str:
    if isinstance(value, tuple):
        return "(" + ", ".join(map(_shown, value)) + ")"
    return f"{value:.3g}" if isinstance(value, float) else str(value)


def _bound_text(bound) -> str:
    if bound is None:
        return ""
    return " (<= 0)" if bound == 0 else f" (< {bound!r})"


def run_check(check: Check, side: str) -> tuple[bool, str]:
    """Run the "quick" or "full" side of a check: (passed, detail).

    The side passes when every bounded value holds under _holds; an
    exception fails it, a bound on a key the measurement lacks included.  The
    detail lists every measured key in order as "key = value", each bounded
    one followed by its bound.
    """
    params, bounds = getattr(check, side)
    try:
        measured = check.measure(**params)
        # a list, not a generator: every bounded key is looked up, so a
        # missing one raises even after a failed bound
        passed = all([_holds(measured[key], bound) for key, bound in bounds.items()])
        detail = ", ".join(f"{key} = {_shown(value)}{_bound_text(bounds.get(key))}"
                           for key, value in measured.items())
    except Exception as exc:
        passed, detail = False, _error_text(exc)
    return passed, detail


def run_selftest() -> dict:
    """Run the quick side of every check that has one, in table order: the
    four quick-only invariants, and the quick side of every acceptance entry
    but the three full-only ones (gf_route and the two sweep convergence
    checks).

    Returns a JSON-ready summary; "passed" is the overall verdict.  Checks
    that depend on the coupling variant run both variants.
    """
    checks = {}
    for check in CHECKS:
        if check.quick is not None:
            passed, detail = run_check(check, "quick")
            checks[check.name] = {"passed": passed, "detail": detail}
    return {"passed": all(entry["passed"] for entry in checks.values()), "checks": checks}
