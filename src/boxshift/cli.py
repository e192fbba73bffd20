"""Command-line surface: validate / shift / sweep / hydrogen / oracle.

Exit codes: 0 success, 2 usage or validation problems, 3 numerical failure.
Diagnostics go to standard error; data (tables, CSV) to standard output
unless an output file is requested.

Configuration precedence is flags > --config JSON file > built-in defaults.
The config file is a flat JSON object keyed by option destination names
(``{"h": 0.1, "h_grid": "0.2,0.05,5"}``); each entry is read as the flag
it names would be, so argparse checks it in the same way.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .dsl import EvalError, ParseError, caret_diagnostic
from .errors import InvalidPotential, NumericsError
from .potentials import (
    Domain,
    LineBox,
    PotentialSpec,
    RadialBox,
    resolve_potential,
    validate_potential,
)
from .report import (
    format_report,
    geometric_grid,
    report_to_dict,
    report_to_json,
    run_hydrogen_sweep,
    run_shift_case,
    run_sweep,
    sweep_summary_lines,
    sweep_to_csv,
)
from .shooting import ModeSpec
from .spectra import HydrogenSpec, confined_eigenvalue, fd_oracle

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICS = 3


# --------------------------------------------------------------------------
# Argument plumbing
# --------------------------------------------------------------------------


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'a,b', got {text!r}")
    return float(parts[0]), float(parts[1])


def _geometric(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 'start,stop,count', got {text!r}")
    return geometric_grid(float(parts[0]), float(parts[1]), int(parts[2]))


def _tolerance(text: str) -> float:
    """--tol must lie in [1e-13, 1e-6]: tighter is swamped by roundoff,
    looser defeats an 8th-order integrator."""
    try:
        if 1e-13 <= float(text) <= 1e-6:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"--tol must be in [1e-13, 1e-6], got {text!r}")


def _float_list(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}")
    return values


def _glue_negative_values(argv: list[str]) -> list[str]:
    """Join ``--domain -1,1`` into ``--domain=-1,1`` so argparse does not
    mistake the negative value for an option."""
    out: list[str] = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (re.fullmatch(r"--[A-Za-z][A-Za-z0-9-]*", tok) and nxt is not None
                and re.match(r"-[\d.]", nxt)):
            out.append(f"{tok}={nxt}")
            skip = True
        else:
            out.append(tok)
    return out


def _config_tokens(sub: argparse.ArgumentParser, path: str) -> list[str]:
    """The ``--config`` file's entries as the flag tokens they name
    (``--flag=value``, lists comma-joined, a bare switch for ``true``), so
    argparse checks them as it checks flags.  Entries that name no option
    of the subcommand are ignored."""
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise _Usage(f"cannot read config {path!r}: {exc}") from None
    if not isinstance(config, dict):
        raise _Usage(f"config {path!r} must hold a JSON object")
    tokens = []
    for action in sub._actions:
        if action.dest not in config or not action.option_strings:
            continue
        flag, value = action.option_strings[-1], config[action.dest]
        if isinstance(value, list):
            value = ",".join(map(str, value))
        if action.nargs != 0 or not isinstance(value, bool):
            tokens.append(f"{flag}={value}")
        elif value:  # true on a switch
            tokens.append(flag)
    return tokens


class _Usage(Exception):
    pass


def _add_problem_args(sub: argparse.ArgumentParser, *, solver: bool) -> None:
    sub.add_argument("--potential", help="builtin name (harmonic, quartic(c)) "
                     "or an expression in x")
    sub.add_argument("--domain", type=_pair, metavar="A,B",
                     help="line box endpoints, A < 0 < B")
    sub.add_argument("--box", type=float, metavar="L",
                     help="radial box radius (0, L)")
    if solver:
        sub.add_argument("--m", type=int, help="level index m >= 0")
        sub.add_argument("--nu", type=float,
                         help="angular parameter nu > 0 (radial problems)")
        sub.add_argument("--h", type=float, help="semiclassical parameter h > 0")
        sub.add_argument("--tol", type=_tolerance, default=1e-12,
                         help="integrator relative tolerance (default 1e-12)")
    sub.add_argument("--config", help="JSON file of option defaults")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="boxshift",
        description="Dirichlet-confined semiclassical eigenvalues and their "
                    "exponentially small shifts.")
    subs = parser.add_subparsers(dest="command", required=True)

    val = subs.add_parser("validate", help="check the well assumptions")
    _add_problem_args(val, solver=False)
    val.add_argument("--samples", type=int, default=64)
    val.set_defaults(handler=cmd_validate)

    shift = subs.add_parser("shift", help="one confined-vs-free shift case")
    _add_problem_args(shift, solver=True)
    shift.add_argument("--oracle", action="store_true",
                       help="also run the finite-difference oracle")
    shift.add_argument("--json", metavar="PATH", help="write the report as JSON")
    shift.set_defaults(handler=cmd_shift)

    sweep = subs.add_parser("sweep", help="shift cases over a geometric h grid")
    _add_problem_args(sweep, solver=True)
    sweep.add_argument("--h-grid", type=_geometric, metavar="START,STOP,COUNT",
                       help="geometric grid in h")
    sweep.add_argument("--out", metavar="PATH", help="write CSV here instead of stdout")
    sweep.add_argument("--json", metavar="PATH", help="also write rows as JSON")
    sweep.set_defaults(handler=cmd_sweep)

    hyd = subs.add_parser("hydrogen", help="boxed Coulomb levels over box radii")
    hyd.add_argument("--n", type=int, help="principal quantum number")
    hyd.add_argument("--ell", type=int, help="angular momentum, 0 <= ell <= n-1")
    hyd.add_argument("--Z", dest="z", type=float, default=2.0, help="charge")
    hyd.add_argument("--h", type=float, help="semiclassical parameter")
    hyd.add_argument("--R-grid", dest="r_grid", type=_float_list,
                     metavar="R1,R2,...", help="box radii")
    hyd.add_argument("--tol", type=_tolerance, default=1e-12)
    hyd.add_argument("--out", metavar="PATH")
    hyd.add_argument("--json", metavar="PATH")
    hyd.add_argument("--config", help="JSON file of option defaults")
    hyd.set_defaults(handler=cmd_hydrogen)

    orc = subs.add_parser("oracle", help="shooting vs finite-difference table")
    _add_problem_args(orc, solver=True)
    orc.add_argument("--grid-n", type=int, default=2000,
                     help="finite-difference grid size")
    orc.set_defaults(handler=cmd_oracle)

    return parser, subs.choices


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [f"--{name.replace('_', '-')}" for name in names
               if getattr(args, name, None) is None]
    if missing:
        raise _Usage(f"missing required options: {', '.join(missing)}")


def _domain_from_args(args: argparse.Namespace) -> tuple[Domain, str]:
    has_domain = getattr(args, "domain", None) is not None
    has_box = getattr(args, "box", None) is not None
    if has_domain == has_box:
        raise _Usage("exactly one of --domain A,B or --box L is required")
    if has_domain:
        a, b = args.domain
        return LineBox(a, b), "line"
    return RadialBox(args.box), "radial"


def _resolve(args: argparse.Namespace, kind: str) -> PotentialSpec:
    _require(args, "potential")
    try:
        return resolve_potential(args.potential, kind=kind)
    except ParseError as err:
        raise _Usage("bad potential expression:\n"
                     + caret_diagnostic(args.potential, err)) from None


def _check_nu(args: argparse.Namespace, kind: str) -> None:
    if kind == "radial" and args.nu is None:
        raise _Usage("radial problems need --nu (nu = ell + 1/2)")
    if kind == "line" and args.nu is not None:
        raise _Usage("--nu applies to radial (--box) problems only")


def _mode_from_args(args: argparse.Namespace, kind: str) -> ModeSpec:
    _require(args, "m", "h")
    _check_nu(args, kind)
    return ModeSpec(level=args.m, h=args.h, nu=args.nu)


# --------------------------------------------------------------------------
# Handlers
# --------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    domain, kind = _domain_from_args(args)
    p = _resolve(args, kind)
    report = validate_potential(p, domain, args.samples)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_USAGE


def cmd_shift(args: argparse.Namespace) -> int:
    domain, kind = _domain_from_args(args)
    p = _resolve(args, kind)
    mode = _mode_from_args(args, kind)
    report = run_shift_case(p, domain, mode, integrate_tol=args.tol,
                            oracle=args.oracle)
    print(format_report(report))
    if args.json:
        Path(args.json).write_text(report_to_json(report) + "\n", encoding="utf-8")
    return EXIT_OK


def _emit_sweep(result, args: argparse.Namespace, *, hydrogen: bool,
                grid_key: str) -> int:
    text = sweep_to_csv(result, hydrogen=hydrogen)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.json:
        rows = [
            {grid_key: row.grid_value, "status": row.status,
             "report": None if row.report is None else report_to_dict(row.report)}
            for row in result.rows
        ]
        Path(args.json).write_text(json.dumps(rows, indent=2) + "\n",
                                   encoding="utf-8")
    for line in sweep_summary_lines(result):
        print(line, file=sys.stderr)
    if result.rows and not any(row.ok for row in result.rows):
        print("all rows failed", file=sys.stderr)
        return EXIT_NUMERICS
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    domain, kind = _domain_from_args(args)
    p = _resolve(args, kind)
    _require(args, "m", "h_grid")
    _check_nu(args, kind)
    report = validate_potential(p, domain, 64)
    if not report.passed:
        raise InvalidPotential(report.summary())
    result = run_sweep(p, domain, args.m, args.nu, args.h_grid,
                       integrate_tol=args.tol)
    return _emit_sweep(result, args, hydrogen=False, grid_key="h")


def cmd_hydrogen(args: argparse.Namespace) -> int:
    _require(args, "n", "ell", "h", "r_grid")
    # Construct every row's spec up front so bad quantum numbers or a bad
    # radius anywhere in the grid are a usage error, not a per-row failure.
    for r_box in args.r_grid:
        HydrogenSpec(n=args.n, ell=args.ell, z=args.z, h=args.h, r_box=r_box)
    result = run_hydrogen_sweep(args.n, args.ell, args.z, args.h, args.r_grid,
                                integrate_tol=args.tol)
    return _emit_sweep(result, args, hydrogen=True, grid_key="R")


def cmd_oracle(args: argparse.Namespace) -> int:
    domain, kind = _domain_from_args(args)
    p = _resolve(args, kind)
    mode = _mode_from_args(args, kind)
    fd_pairs = fd_oracle(p, domain, mode, grid_n=args.grid_n,
                         count=mode.level + 1)
    # Every row is computed before anything is printed, so a failure leaves
    # no half-printed table on stdout.
    rows = []
    worst = 0.0
    for level in range(mode.level + 1):
        sub_mode = ModeSpec(level=level, h=mode.h, nu=mode.nu)
        shot = confined_eigenvalue(p, domain, sub_mode, rtol=args.tol)
        fd_value = fd_pairs[level].value
        rel = abs(shot.value - fd_value) / max(abs(shot.value), 1e-300)
        rows.append(f"{level:>5}  {shot.value!r:>24}  {fd_value!r:>24}  {rel:>10.3e}")
        worst = max(worst, rel)
    print(f"{'level':>5}  {'shooting':>24}  {'fd-extrapolated':>24}  {'rel diff':>10}")
    print("\n".join(rows))
    print(f"worst relative difference: {worst:.3e}", file=sys.stderr)
    return EXIT_OK


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    argv_glued = _glue_negative_values(raw)
    parser, subcommands = build_parser()
    try:
        args = parser.parse_args(argv_glued)
        if args.config is not None:
            # Ahead of the user's flags, so that a flag given on the command
            # line, coming later, wins.
            tokens = _config_tokens(subcommands[args.command], args.config)
            args = parser.parse_args(argv_glued[:1] + tokens + argv_glued[1:])
        return args.handler(args)
    except SystemExit as exc:  # argparse reports usage problems this way
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidPotential, EvalError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
