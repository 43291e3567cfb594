"""Command-line front end.

Subcommands: selftest, sweep, covariance, exact-cf, limit-cf, mc.
A flat key=value config file can supply the value of any flag its command
takes, checked like the flag itself; explicit flags win.  Exit status: 0
success, 1 numeric failure, 2 usage error (an unparsable, out-of-range or
missing flag, a flag the command would ignore, an unknown config key, an
``--out`` that is not a file in an existing directory, or an ``mc`` or
``exact-cf`` request over the desk-scale budget; in ``sweep`` and
``covariance`` an over-budget n fails its rows instead, exit 1).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import CapacityError
from .exact import CouplingVariant, char_fn
from .harness import (
    DEFAULT_GRID_AXIS,
    SweepConfig,
    run_covariance,
    run_selftest,
    run_sweep,
    write_report,
)
from .kernel import StickinessParam, simulate_endpoints
from .limits import RegimeSpec, limit_cf

_REGIMES = {"sub": "subcritical", "critical": "critical", "super": "supercritical"}
_COUPLINGS = {"kernel": CouplingVariant.KERNEL, "paper": CouplingVariant.PAPER}
# flags a command cannot run without; a config file may supply them
_REQUIRED = {"sweep": ("regime",), "limit-cf": ("regime",), "covariance": ("alpha",),
             "mc": ("out",)}


def _int(lo: int):
    """Integer flag type with a lower bound."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _list(item):
    """Comma (or semicolon) separated list of ``item`` values."""
    def parse(text: str) -> tuple:
        return tuple(item(tok) for tok in text.replace(";", ",").split(",") if tok.strip())
    parse.__name__ = f"{item.__name__} list"
    return parse


def _config_defaults(path: str, sub: argparse.ArgumentParser) -> dict:
    """Flag values from a flat key=value file, checked as if given as flags."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        sub.error(f"cannot read config: {exc}")
    keys, flags = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            sub.error(f"config line is not key=value: {line!r}")
        keys.append(key.strip())
        flags.append(f"--{keys[-1]}={value.strip()}")
    parsed, unknown = sub.parse_known_args(flags)
    if unknown:
        bad = ", ".join(key for key, flag in zip(keys, flags) if flag in unknown)
        sub.error(f"unknown config key(s) in {path}: {bad}")
    return {key: getattr(parsed, key) for key in keys}


def _regime_from(args) -> RegimeSpec:
    # RegimeSpec refuses a critical alpha out of range and an alpha off it
    return RegimeSpec(_REGIMES[args.regime], alpha=args.alpha)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subparser of each command."""
    parser = argparse.ArgumentParser(prog="stickywalk",
                                     description="Sticky random walk laboratory")
    subs = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name: str, summary: str, out: bool = False, fmt: bool = False):
        p = commands[name] = subs.add_parser(name, help=summary, allow_abbrev=False)
        p.add_argument("--config", help="flat key=value file; flags override it")
        if out:
            p.add_argument("--out", help="output file path (default: stdout)")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        return p

    def coupling(p):
        p.add_argument("--coupling", choices=sorted(_COUPLINGS), default="kernel")

    def regime(p):
        p.add_argument("--regime", choices=sorted(_REGIMES))
        p.add_argument("--alpha", type=float, help="critical-regime scale delta_n / sqrt(n)")

    def sampler(p, paths_min: int, paths_default: int):
        p.add_argument("--paths", type=_int(paths_min), default=paths_default)
        p.add_argument("--seed", type=int, default=0)

    command("selftest", "run every invariant suite at pinned parameters", out=True)

    p = command("sweep", "regime sweep: exact vs Monte Carlo vs limit", out=True, fmt=True)
    regime(p)
    p.add_argument("--n", type=_list(_int(1)), default="256,1024,4096",
                   help="comma list of step counts")
    p.add_argument("--grid", type=_list(float), default=DEFAULT_GRID_AXIS,
                   help="comma list of axis values; grid is the square")
    sampler(p, paths_min=0, paths_default=0)
    coupling(p)

    p = command("covariance", "n^-1 E[x y] at delta = alpha sqrt(n) vs limit",
                out=True, fmt=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--n", type=_list(_int(1)), default="100,1000,10000")
    sampler(p, paths_min=0, paths_default=0)

    p = command("exact-cf", "exact characteristic function at one point")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--n", type=_int(0), default=0)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--t", type=float, default=0.0)
    coupling(p)

    p = command("limit-cf", "limiting characteristic function at one point")
    regime(p)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--t", type=float, default=0.0)

    p = command("mc", "simulate endpoints and write CSV + JSON sidecar", out=True)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--n", type=_int(0), default=0)
    sampler(p, paths_min=1, paths_default=1000)

    return parser, commands


def _cmd_selftest(args) -> int:
    report = run_selftest()
    for name, entry in report["checks"].items():
        status = "PASS" if entry["passed"] else "FAIL"
        print(f"[{status}] {name}: {entry['detail']}")
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0 if report["passed"] else 1


def _emit(rows, args) -> int:
    text = write_report(rows, out=args.out, fmt=args.format)
    if not args.out:
        print(text, end="")
    failures = sum(1 for row in rows if row.error)
    if failures:
        print(f"{failures} row(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args) -> int:
    config = SweepConfig(
        regime=_regime_from(args),
        n_list=args.n,
        grid=tuple((s, t) for s in args.grid for t in args.grid),
        paths=args.paths,
        seed=args.seed,
        coupling=_COUPLINGS[args.coupling],
    )
    return _emit(run_sweep(config), args)


def _cmd_covariance(args) -> int:
    return _emit(run_covariance(alpha=args.alpha, n_list=args.n, seed=args.seed,
                                paths=args.paths), args)


def _cmd_exact_cf(args) -> int:
    value = char_fn(StickinessParam(args.delta), args.s, args.t, args.n,
                    _COUPLINGS[args.coupling])
    print(f"{value.real:.17g}")
    return 0


def _cmd_limit_cf(args) -> int:
    print(f"{limit_cf(_regime_from(args), args.s, args.t):.17g}")
    return 0


def _cmd_mc(args) -> int:
    sample = simulate_endpoints(StickinessParam(args.delta), args.n, args.paths, args.seed)
    sample.write_csv(args.out)
    print(f"wrote {sample.paths} endpoints to {args.out}")
    return 0


_COMMANDS = {
    "selftest": _cmd_selftest,
    "sweep": _cmd_sweep,
    "covariance": _cmd_covariance,
    "exact-cf": _cmd_exact_cf,
    "limit-cf": _cmd_limit_cf,
    "mc": _cmd_mc,
}


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)  # exits 2 on usage errors
    sub = commands[args.command]
    if args.config:
        sub.set_defaults(**_config_defaults(args.config, sub))
        args = parser.parse_args(argv)
    missing = [f"--{flag}" for flag in _REQUIRED.get(args.command, ())
               if getattr(args, flag) is None]
    if getattr(args, "regime", None) == "critical" and args.alpha is None:
        missing.append("--alpha")
    if missing:
        sub.error("missing " + ", ".join(missing))
    out = getattr(args, "out", None)
    if out is not None and (Path(out).is_dir() or not Path(out).parent.is_dir()):
        # refused before the work, not when the result is written
        sub.error(f"--out {out}: not a file in an existing directory")
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, CapacityError) as exc:  # out of range, or over the work budget
        sub.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
