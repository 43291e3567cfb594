"""Experiment orchestration: regime sweeps, covariance runs, the cross-route
measurements, and the self-test that runs them at pinned parameters.

Reports are plain rows of floats.  Output is deterministic byte-for-byte for
a given (config, seed): Monte Carlo substreams are derived from
(seed, n, path index), the sampler walks them in path-index order in one
thread (there is no worker count to set), and rows are emitted in
(n, grid index) order.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import specfun
from .exact import (
    CouplingVariant,
    brute_force_char,
    brute_force_h,
    char_fn_exact,
    diag_fourier_sequence,
    exact_covariance,
    gf_closed_form,
    gf_series,
    series_truncation,
)
from .kernel import StickinessParam, simulate_endpoints, stickiness_u
from .limits import (
    RegimeSpec,
    covariance_limit,
    ell,
    ell_laplace_numeric,
    laplace_empirical,
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
    "rows_to_csv",
    "rows_to_json",
    "write_report",
    "oracle_gaps",
    "gf_check",
    "gf_gaps",
    "variant_values",
    "variant_sup_gaps",
    "ell_transform_gaps",
    "laplace_limit_errors",
    "covariance_gaps",
    "mc_agreement",
    "worst_relative_error",
    "ell_origin_gap",
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


@dataclass(frozen=True)
class SweepConfig:
    """One convergence sweep: a regime, step counts, and an (s, t) grid."""

    regime: RegimeSpec
    n_list: tuple[int, ...]
    grid: tuple[tuple[float, float], ...] = field(default_factory=default_grid)
    paths: int = 0
    seed: int = 0
    coupling: CouplingVariant = CouplingVariant.KERNEL
    quad_tol: float = 1e-10

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "grid", tuple((float(s), float(t)) for s, t in self.grid))
        if not self.n_list or any(b <= a for a, b in zip(self.n_list, self.n_list[1:])):
            raise ValueError("n_list must be nonempty and strictly increasing")
        if any(n < 1 for n in self.n_list):
            raise ValueError("n_list entries must be >= 1")
        if not self.grid:
            raise ValueError("grid must be nonempty")
        if self.paths < 0:
            raise ValueError("paths must be >= 0")
        if not self.quad_tol > 0.0:
            raise ValueError("quad_tol must be positive")


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


def run_sweep(config: SweepConfig) -> list[ReportRow]:
    """Exact / Monte Carlo / limiting characteristic-function table.

    The exact engine and the limit are evaluated at (s/sqrt(n), t/sqrt(n)) and
    (s, t) respectively; per-row failures land in the error column and the run
    continues.
    """
    rows: list[ReportRow] = []
    for n in config.n_list:
        delta = config.regime.delta_at(n)
        root_n = math.sqrt(n)
        try:
            p = StickinessParam(delta)
            sample = None
            if config.paths > 0:
                sample = simulate_endpoints(p, n, config.paths, subseed(config.seed, n))
        except Exception as exc:
            for s, t in config.grid:
                rows.append(ReportRow(n=n, delta=delta, s=s, t=t,
                                      error=f"{type(exc).__name__}: {exc}"))
            continue
        for s, t in config.grid:
            try:
                f_exact = char_fn_exact(p, s / root_n, t / root_n, n, config.coupling).real
                f_limit = limit_cf(config.regime, s, t, tol=config.quad_tol)
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
            except Exception as exc:
                rows.append(ReportRow(n=n, delta=delta, s=s, t=t,
                                      error=f"{type(exc).__name__}: {exc}"))
    return rows


def run_covariance(alpha: float, n_list, seed: int = 0, paths: int = 0) -> list[CovarianceRow]:
    """Compare n^-1 E[x y] at delta = alpha sqrt(n) against its limit."""
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
                n=int(n), delta=delta, exact=value, mc=mc, mc_stderr=mc_stderr,
                limit=limit, err_exact_limit=abs(value - limit), err_mc_exact=err_mc,
            ))
        except Exception as exc:
            rows.append(CovarianceRow(n=int(n), delta=delta,
                                      error=f"{type(exc).__name__}: {exc}"))
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
# measurement returns the numbers a verdict is taken on; the self-test runs
# it at small pinned parameters, and the acceptance suite runs the same
# function at the parameters and tolerances of its criteria.
# ---------------------------------------------------------------------------

def _worst(values, floor: float = 0.0) -> float:
    """Largest of floor and values, and NaN if any value is NaN.

    The built-in max drops a NaN that is not its first argument, so a NaN gap
    would pass a ``<= tol`` verdict; np.max propagates it and the check fails.
    """
    return float(np.max([floor, *values]))


def oracle_gaps(deltas, ns, angles, js) -> tuple[float, float]:
    """Worst |f - enumeration| and worst |h(j) - enumeration| (kernel coupling)."""
    f_gaps, h_gaps = [], []
    for delta in deltas:
        p = StickinessParam(delta)
        for n in ns:
            f_gaps += (abs(char_fn_exact(p, s, t, n, CouplingVariant.KERNEL)
                           - brute_force_char(p, s, t, n))
                       for s in angles for t in angles)
            h_gaps += (abs(diag_fourier_sequence(p.u, t, n, j=j)[n] - brute_force_h(p, j, t, n))
                       for j in js for t in angles)
    return _worst(f_gaps), _worst(h_gaps)


def gf_check(p: StickinessParam, t: float, z: float, j: int, tail_tol: float) -> dict:
    """Closed-form H(j, t, z) vs its series, truncated at the smallest N whose
    tail bound z^(N+1) / (1 - z) is below tail_tol.

    "bound" is that tail bound plus 1e-12 of rounding slack; the closed form
    and the series agree iff gap <= bound.
    """
    N = series_truncation(z, tail_tol)
    closed = gf_closed_form(p, t, z, j)
    series = gf_series(p, t, z, j, N)
    return {"N": N, "closed": closed, "series": series, "gap": abs(closed - series),
            "bound": z ** (N + 1) / (1.0 - z) + 1e-12}


def gf_gaps(deltas, zs, ts, js) -> dict:
    """gf_check at tail_tol 1e-13 over a grid.

    "margin" is the worst gap minus its bound; the bound holds iff margin <= 0.
    """
    gaps, margins = [], []
    for delta in deltas:
        p = StickinessParam(delta)
        for z in zs:
            for t in ts:
                for j in js:
                    check = gf_check(p, t, z, j, 1e-13)
                    gaps.append(check["gap"])
                    margins.append(check["gap"] - check["bound"])
    return {"gap": _worst(gaps), "margin": _worst(margins, floor=-math.inf)}


def variant_values(delta: float, s: float, t: float, n: int) -> dict:
    """f at one point under both couplings, and its enumeration value."""
    p = StickinessParam(delta)
    return {
        "paper": char_fn_exact(p, s, t, n, CouplingVariant.PAPER),
        "kernel": char_fn_exact(p, s, t, n, CouplingVariant.KERNEL),
        "oracle": brute_force_char(p, s, t, n),
    }


def variant_sup_gaps(axis, ns) -> list[float]:
    """Per n, sup over the axis x axis grid of |f_kernel - f_paper| at
    delta = sqrt(n) and angles scaled by 1/sqrt(n)."""
    sups = []
    for n in ns:
        p = StickinessParam(math.sqrt(n))
        rn = math.sqrt(n)
        sups.append(_worst(
            abs(char_fn_exact(p, s / rn, t / rn, n, CouplingVariant.KERNEL).real
                - char_fn_exact(p, s / rn, t / rn, n, CouplingVariant.PAPER).real)
            for s in axis for t in axis))
    return sups


def ell_transform_gaps(triples) -> dict:
    """Worst |Laplace transform of ell by quadrature (tol 1e-9) - closed-form
    critical target| over (alpha, w, lam), and whether ell's complex and
    degenerate branches were reached."""
    gaps, saw_complex, saw_degenerate = [], False, False
    for alpha, w, lam in triples:
        params = limit_params(alpha, w)
        saw_complex = saw_complex or params.gamma.imag > 0.0
        saw_degenerate = saw_degenerate or params.degenerate
        got = ell_laplace_numeric(alpha, w, lam, tol=1e-9)
        gaps.append(abs(got - laplace_target(RegimeSpec.critical(alpha), w, lam)))
    return {"gap": _worst(gaps), "complex": saw_complex, "degenerate": saw_degenerate}


def laplace_limit_errors(regimes, ns, pairs) -> dict[str, np.ndarray]:
    """Per regime kind, |empirical Laplace transform at step n - closed-form
    limit| as an array indexed [(w, lam) pair, n]."""
    out = {}
    for regime in regimes:
        errs = np.empty((len(pairs), len(ns)))
        for i, (w, lam) in enumerate(pairs):
            for k, n in enumerate(ns):
                delta = regime.delta_at(n)
                emp = laplace_empirical(delta, n, w, lam)
                if regime.kind == "subcritical":
                    emp *= math.sqrt(n) / delta
                errs[i, k] = abs(emp - laplace_target(regime, w, lam))
        out[regime.kind] = errs
    return out


def covariance_gaps(n: int, alphas, fd_alphas, limit_tol: float) -> dict:
    """Worst |n^-1 E[x y] - limit| at delta = alpha sqrt(n) over alphas, and
    worst |central-difference (step 1e-3) d2 phi/ds dt at 0 + limit| over
    fd_alphas."""
    h = 1e-3
    gaps, fd_gaps = [], []
    for alpha in alphas:
        limit = covariance_limit(alpha, tol=limit_tol)
        gaps.append(abs(exact_covariance(StickinessParam(alpha * math.sqrt(n)), n) / n - limit))
        if alpha in fd_alphas:
            fd = (phi_critical(alpha, h, h, tol=1e-12) - phi_critical(alpha, h, -h, tol=1e-12)
                  - phi_critical(alpha, -h, h, tol=1e-12)
                  + phi_critical(alpha, -h, -h, tol=1e-12)) / (4.0 * h * h)
            fd_gaps.append(abs(fd + limit))
    return {"gap": _worst(gaps), "fd": _worst(fd_gaps)}


def mc_agreement(delta: float, n: int, paths: int, seed: int, axis=(),
                 k_sigma: float = 4.0) -> dict:
    """Monte Carlo vs exact f on the axis x axis grid, angles scaled by 1/sqrt(n).

    "within" counts grid points with |f_mc - f_exact| <= k_sigma * stderr (a
    NaN on either side is not within); "off_parity" counts endpoints whose
    parity differs from n's.
    """
    p = StickinessParam(delta)
    sample = simulate_endpoints(p, n, paths, seed)
    rn = math.sqrt(n)
    within = 0
    for s in axis:
        for t in axis:
            mean, stderr = _mean_stderr(np.cos((s * sample.x + t * sample.y) / rn))
            f_exact = char_fn_exact(p, s / rn, t / rn, n).real
            within += abs(mean - f_exact) <= k_sigma * stderr
    off_parity = int(np.sum(((sample.x - n) % 2 != 0) | ((sample.y - n) % 2 != 0)))
    return {"within": within, "points": len(axis) ** 2, "off_parity": off_parity}


def worst_relative_error(fn, table) -> float:
    """max |fn(x) - want| / |want| over a frozen (x, want) reference table."""
    return _worst(abs(fn(x) - want) / abs(want) for x, want in table)


def ell_origin_gap(alphas, ws) -> float:
    """Worst |ell(0) - 1| over alphas x (ws plus the degenerate seam w = 2/alpha)."""
    return _worst(abs(ell(limit_params(alpha, w), 0.0) - 1.0)
                  for alpha in alphas for w in (*ws, 2.0 / alpha))


# self-test-only measurements: invariants with no acceptance criterion

def _kernel_unit(row_deltas, **sampler) -> dict:
    rows = [(p.u / 4, p.u / 4, p.two_minus_u / 4, p.two_minus_u / 4)
            for p in map(StickinessParam, row_deltas)]
    return {
        "u_exact": _worst((abs(stickiness_u(0.0) - 1.0), abs(stickiness_u(2.0) - 1.5))),
        "u_limit": abs(stickiness_u(1e12) - 2.0),
        "probs_in_range": all(0.0 <= q <= 0.5 for row in rows for q in row),
        "row_sum": _worst(abs(sum(row) - 1.0) for row in rows),
        **mc_agreement(**sampler),
    }


def _kernel_statistics(delta: float, n: int, paths: int, seed: int) -> dict:
    sample = simulate_endpoints(StickinessParam(delta), n, paths, seed=seed)
    splits = int(np.sum(sample.x > sample.y)), int(np.sum(sample.y > sample.x))
    return {
        "mean_sigmas": _worst(abs(c.mean()) for c in (sample.x, sample.y)) / math.sqrt(n / paths),
        "splits": splits,
        "split_sigmas": abs(splits[0] - splits[1]) / math.sqrt(max(sum(splits), 1)),
    }


def _normalization_symmetry(deltas) -> dict:
    out = {key: [] for key in ("f00", "occ_outside", "mass", "imag", "exchange", "h_max")}
    for delta in deltas:
        p = StickinessParam(delta)
        occ = diag_fourier_sequence(p.u, 0.0, 23)
        out["occ_outside"] += (-float(occ.min()), float(occ.max()) - 1.0)
        # full-line mass: h(j, 0, n) = P(half-distance = j), mirrored over +-j
        for n in (5, 23):
            hj = [diag_fourier_sequence(p.u, 0.0, n, j=j)[n] for j in range(n + 1)]
            out["mass"].append(abs(hj[0] + 2.0 * sum(hj[1:]) - 1.0))
        for coupling in CouplingVariant:
            out["f00"].append(abs(char_fn_exact(p, 0.0, 0.0, 23, coupling) - 1.0))
            for s, t in ((0.3, -1.2), (2.0, 0.7)):
                a = char_fn_exact(p, s, t, 17, coupling)
                out["imag"].append(abs(a.imag))
                out["exchange"].append(abs(a - char_fn_exact(p, t, s, 17, coupling)))
        out["h_max"].append(float(np.max(np.abs(diag_fourier_sequence(p.u, 1.1, 64)))))
    return {key: _worst(values) for key, values in out.items()}


def _erfc_reference(xs, zs) -> dict:
    table = specfun.ERFC_TABLE  # looked up per call, so a patched table is seen
    scaling, real_axis = [], []
    for x in xs:
        scaling.append(abs(erfcx_real(x) * math.exp(-x * x) - erfc_real(x)))
        z = erfcx_complex(complex(x, 0.0))
        real_axis.append(abs(z - erfcx_real(x)) / max(1.0, abs(z)))
    conjugation = []
    for z in zs:
        a = erfcx_complex(z).conjugate()
        conjugation.append(abs(a - erfcx_complex(z.conjugate())) / abs(a))
    return {"rows": len(table), "table": worst_relative_error(erfc_real, table),
            "scaling": _worst(scaling), "real_axis": _worst(real_axis),
            "conjugation": _worst(conjugation)}


def _ell_profile(alphas, ws) -> dict:
    for alpha in alphas:
        for w in (*ws, 2.0 / alpha):
            ell(limit_params(alpha, w), 3.7)  # raises past the realness budget
    seam = ell(limit_params(1.0, 2.0), 0.8)
    return {
        "origin": ell_origin_gap(alphas, ws),
        "seam": _worst(abs(ell(limit_params(1.0, 2.0 + eps), 0.8) - seam) for eps in (1e-6, -1e-6)),
    }


def _laplace_consistency(triples, density_pairs, regimes, n, limit_pairs) -> dict:
    density = []
    for w, lam in density_pairs:
        sub = laplace_numeric(lambda x: subcritical_density(w, x), lam,
                              tol=1e-10, sqrt_singular_at_zero=True)
        sup = laplace_numeric(lambda x: supercritical_density(w, x), lam, tol=1e-10)
        density += (abs(sub - 1.0 / math.sqrt(4 * lam + w * w)), abs(sup - 1.0 / (0.5 * w * w + lam)))
    limits = laplace_limit_errors(regimes, (n,), limit_pairs)
    return {
        "ell_transform": ell_transform_gaps(triples)["gap"],
        "density": _worst(density),
        "limits": _worst(float(errs.max()) for errs in limits.values()),
    }


def _quadrature_order(tols) -> dict:
    integrands = (
        (math.exp, math.e - 1.0, False),
        (lambda x: 1.0 / math.sqrt(x) if x > 0 else 0.0, 2.0, True),
    )
    rises = []
    for f, want, flag in integrands:
        errs = [abs(integrate_01(f, singular_sqrt_at_zero=flag, tol=tol) - want) for tol in tols]
        rises += (b - a for a, b in zip(errs, errs[1:]))
    return {"worst_rise": _worst(rises, floor=-math.inf)}


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

# (name, measurement, self-test parameters, verdict on the measured value ->
# (passed, detail)).
_SELFTEST_CHECKS: tuple[tuple[str, Callable, dict, Callable], ...] = (
    ("kernel_unit", _kernel_unit,
     dict(row_deltas=(0.0, 0.3, 1.0, 10.0, 1e6),
          delta=1.0, n=33, paths=500, seed=11),
     lambda m: (m["u_exact"] == 0.0 and m["u_limit"] < 1e-11 and m["probs_in_range"]
                and m["row_sum"] < 1e-15 and m["off_parity"] == 0,
                "u map, kernel row sums, parity")),
    ("kernel_statistics", _kernel_statistics, dict(delta=2.0, n=64, paths=20000, seed=7),
     lambda m: (m["mean_sigmas"] <= 4.0 and m["split_sigmas"] <= 4.0,
                "marginal means, exchange symmetry "
                f"({m['splits'][0]} vs {m['splits'][1]} splits)")),
    ("oracle_equivalence", oracle_gaps,
     dict(deltas=(0.0, 1.0, 5.0), ns=(1, 3, 6, 8), angles=(-2.0, 0.4, 1.9), js=(0, 1, 3)),
     lambda m: (m[0] < 1e-12 and m[1] < 1e-12,
                f"worst |exact - enumeration| = {_worst(m):.3e}")),
    ("variant_discrimination", variant_values,
     dict(delta=0.0, s=math.pi / 2, t=math.pi / 2, n=1),
     lambda m: (abs(m["kernel"] - m["oracle"]) < 1e-12 and abs(m["paper"] + 0.5) < 1e-12
                and abs(m["paper"] - m["kernel"]) > 0.49,
                f"paper variant {m['paper'].real:+.3f} vs oracle {m['oracle'].real:+.3f} "
                "(divergence expected)")),
    ("variant_asymptotics", variant_sup_gaps,
     dict(axis=(-2.0, -0.5, 1.0, 2.0), ns=(256, 1024, 4096)),
     lambda m: (all(a > b for a, b in zip(m, m[1:])),
                "variant sup gaps " + " > ".join(f"{v:.2e}" for v in m))),
    ("normalization_symmetry", _normalization_symmetry,
     dict(deltas=(0.0, 1.5, 20.0)),
     lambda m: (m["f00"] == 0.0 and m["occ_outside"] <= 0.0 and m["mass"] < 1e-12
                and m["imag"] == 0.0 and m["exchange"] < 1e-12 and m["h_max"] <= 1.0 + 1e-12,
                "f(0,0)=1, exchange symmetry (both couplings), |h|<=1, mirrored mass 1")),
    ("gf_identity", gf_gaps,
     dict(deltas=(0.5, 3.0), zs=(0.3, 0.6, 0.9), ts=(0.0, 0.5, 2.0), js=(0, 1, 2, 5)),
     lambda m: (m["margin"] <= 0.0, f"closed form vs series, worst gap {m['gap']:.3e}")),
    ("erfc_reference", _erfc_reference,
     dict(xs=np.linspace(0.0, 5.0, 21), zs=(1 + 2j, -0.5 + 3j, 4 - 1j)),
     lambda m: (m["table"] <= 1e-13 and m["scaling"] < 1e-12 and m["real_axis"] < 1e-10
                and m["conjugation"] <= 1e-10,
                f"{m['rows']}-point reference table, scaling identity, conjugation")),
    ("ell_profile", _ell_profile, dict(alphas=(0.5, 1.0, 2.0), ws=(0.0, 1.0, 2.0, 4.0)),
     lambda m: (m["origin"] < 1e-8 and m["seam"] < 1e-4,
                "ell(0)=1 grid, degenerate seam continuity")),
    ("laplace_consistency", _laplace_consistency,
     dict(triples=((1.0, 1.0, 1.0), (2.0, 2.0, 0.5), (1.0, 2.0, 1.0)),
          density_pairs=((0.0, 1.0), (2.0, 0.5)),
          regimes=(RegimeSpec.subcritical(coeff=2.0), RegimeSpec.critical(2.0),
                   RegimeSpec.supercritical()),
          n=10 ** 8, limit_pairs=((0.0, 0.5), (2.0, 2.0))),
     lambda m: (m["ell_transform"] < 1e-6 and m["density"] < 1e-8 and m["limits"] <= 1e-2,
                "ell transform == critical target; density identities; closed-form limits")),
    ("quadrature_order", _quadrature_order, dict(tols=(1e-4, 5e-5, 2.5e-5, 1.25e-5)),
     lambda m: (m["worst_rise"] <= 1e-15, "error nonincreasing as tol halves")),
    ("covariance_consistency", covariance_gaps,
     dict(n=2000, alphas=(1.0, 2.0), fd_alphas=(1.0,), limit_tol=1e-12),
     lambda m: (m["gap"] < 1e-3 and m["fd"] < 1e-4,
                "finite-n covariance near limit; mixed derivative of phi matches")),
    ("mc_agreement", mc_agreement,
     dict(delta=2.0 * math.sqrt(256), n=256, paths=20000, seed=20250809,
          axis=(-1.0, 0.5, 2.0), k_sigma=5.0),
     lambda m: (m["within"] == m["points"],
                "Monte Carlo means within 5 sigma of exact on a 3x3 grid")),
)


def run_selftest() -> dict:
    """Run every invariant suite at pinned parameters.

    Returns a JSON-ready summary; "passed" is the overall verdict.  Checks
    that depend on the coupling variant run both variants.
    """
    checks = {}
    for name, measure, params, verdict in _SELFTEST_CHECKS:
        try:
            measured = measure(**params)
            ok, detail = verdict(measured)
            if not ok:
                detail = f"{detail}; measured {measured}"
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks[name] = {"passed": bool(ok), "detail": detail}
    passed = all(entry["passed"] for entry in checks.values())
    return {"passed": passed, "checks": checks}
