"""Command-line surface: hopf | simulate | sweep | lyapunov | portrait.

Each option is declared once, in argparse, with its type and default, and
each subcommand takes only the options it reads: all take the model (--a,
--b, --alpha or --alphas), --config and --out; the four that integrate take
the solver's (--h, --t-end, --x0); sweep and lyapunov also take the
spectrum's (--transient, --renorm-every). Flags are matched in full, never
by prefix. A flat key=value config file (--config) is turned into
--key=value tokens placed before the command-line tokens, so config values
are checked like flags and flags win; keys that name no option of the
subcommand are ignored. Exit codes: 0 success, 1 domain error, 2 usage
error (including an invalid configuration, an output file that cannot be
written and a run too large for memory).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import chaos, output
from .exceptions import FjerkError, InvalidConfig
from .hopf import hopf_commensurate, hopf_incommensurate
from .model import JerkParams, OrderSpec
from .solver import SolveConfig, integrate


class UsageError(Exception):
    pass


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def _fraction(text: str) -> float:
    value = _finite(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1), got {text!r}")
    return value


# The order types keep the text as typed; it labels the output.
def _parse_alpha(text: str) -> tuple[OrderSpec, str]:
    try:
        return OrderSpec.commensurate(_finite(text)), text
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from err


def _parse_alphas(text: str) -> tuple[OrderSpec, str]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("needs three comma-separated rationals like 1,99/100,1")
    try:
        return OrderSpec.incommensurate(*parts), text
    except (ValueError, FjerkError) as err:
        raise argparse.ArgumentTypeError(f"bad orders {text!r}: {err}") from err


def _parse_x0(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("needs three comma-separated numbers")
    return tuple(_finite(v) for v in parts)


def _read_config(path: str) -> dict[str, str]:
    cfg = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                cfg[key.strip().replace("-", "_")] = value.strip()
    except OSError as err:
        raise UsageError(f"--config: cannot read {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise UsageError(f"--config: {path} is not UTF-8 text: {err}") from err
    return cfg


def _with_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv with the --config settings inserted after the subcommand.

    Each key that names a value option of the subcommand becomes a
    --key=value token; flags on the command line come later and so win.
    Other keys are ignored.
    """
    pre = argparse.ArgumentParser(prog="fjerk", usage=argparse.SUPPRESS, add_help=False,
                                  allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    if path is None or argv[0] not in commands:
        return argv
    options = {
        opt[2:].replace("-", "_"): opt
        for action in commands[argv[0]]._actions
        if action.nargs != 0 and action.dest != "config"
        for opt in action.option_strings
    }
    tokens = [f"{options[k]}={v}" for k, v in _read_config(path).items() if k in options]
    return [argv[0], *tokens, *argv[1:]]


def _make_out(path: str | None) -> None:
    """Create the --out directory, if given, and check that it is writable."""
    if path is None:
        return
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise UsageError(f"--out: cannot create directory {path!r}: {err}") from err
    if not os.access(path, os.W_OK):
        raise UsageError(f"--out: directory {path!r} is not writable")


def _cmd_hopf(args) -> int:
    orders, orders_text = args.orders
    _make_out(args.out)
    try:
        if orders.is_commensurate:
            sol = hopf_commensurate(args.a, args.b, orders.alpha, args.branch)
        else:
            sol = hopf_incommensurate(args.a, args.b, orders, args.branch)
    except (ValueError, OverflowError) as err:  # out-of-domain or out-of-range a, b, orders
        raise UsageError(str(err)) from err
    print(output.hopf_key_value_block(sol, orders_text))
    if args.out:
        output.write_hopf_csv(sol, os.path.join(args.out, "hopf.csv"), orders_text)
    return 0


def _cmd_simulate(args) -> int:
    orders, orders_text = args.orders
    solve = SolveConfig(h=args.h, t_end=args.t_end, initial_state=args.x0)
    _make_out(args.out)
    traj = integrate(JerkParams(args.a, args.b, args.eps), orders, solve)
    path = os.path.join(args.out, "trajectory.csv")
    output.write_trajectory_csv(traj, path)
    print(
        f"simulate: eps={args.eps:g} orders={orders_text} "
        f"steps={solve.n_steps} x_range=[{traj.x.min():.6g},{traj.x.max():.6g}] -> {path}"
    )
    return 0


def _cmd_sweep(args) -> int:
    orders, orders_text = args.orders
    solve = SolveConfig(h=args.h, t_end=args.t_end, initial_state=args.x0)
    _make_out(args.out)
    try:
        workers = chaos.worker_count()
    except ValueError as err:
        raise UsageError(str(err)) from err
    result = chaos.sweep_bifurcation(
        JerkParams(args.a, args.b, 0.0),  # each grid point sets epsilon
        orders,
        (args.eps_min, args.eps_max),
        args.n,
        solve,
        with_lyapunov=args.lyapunov,
        transient_fraction=args.transient,
        renorm_every=args.renorm_every,
        workers=workers,
    )
    sweep_path = os.path.join(args.out, "sweep.csv")
    output.write_sweep_csv(result, sweep_path)
    written = [sweep_path]
    if args.lyapunov:
        ly_path = os.path.join(args.out, "lyapunov.csv")
        output.write_lyapunov_csv(
            [(pt.epsilon, pt.spectrum) for pt in result.points], ly_path
        )
        written.append(ly_path)
    if args.svg:
        scatter = [
            (pt.epsilon, v)
            for pt in result.points
            if not pt.diverged
            for v in np.concatenate([pt.maxima, pt.minima])
        ]
        if scatter:
            svg_path = os.path.join(args.out, "bifurcation.svg")
            output.render_svg(
                scatter,
                "bifurcation",
                svg_path,
                title=f"bifurcation a={args.a:g} b={args.b:g} orders={orders_text}",
            )
            written.append(svg_path)
        if args.lyapunov:
            lines = [
                (pt.epsilon, pt.spectrum.exponents)
                for pt in result.points
                if pt.spectrum is not None
            ]
            if lines:
                ly_svg = os.path.join(args.out, "lyapunov.svg")
                output.render_svg(
                    lines,
                    "lyapunov",
                    ly_svg,
                    title=f"lyapunov exponents a={args.a:g} b={args.b:g} "
                    f"orders={orders_text}",
                )
                written.append(ly_svg)
    n_div = sum(pt.diverged for pt in result.points)
    print(
        f"sweep: eps=[{args.eps_min:g},{args.eps_max:g}] n={args.n} orders={orders_text} "
        f"divergent={n_div} -> {', '.join(written)}"
    )
    return 0


def _cmd_lyapunov(args) -> int:
    orders, orders_text = args.orders
    solve = SolveConfig(h=args.h, t_end=args.t_end, initial_state=args.x0)
    _make_out(args.out)
    spec = chaos.lyapunov_spectrum(
        JerkParams(args.a, args.b, args.eps), orders, solve, args.renorm_every, args.transient
    )
    l1, l2, l3 = spec.exponents
    if args.out:
        path = os.path.join(args.out, "lyapunov.csv")
        output.write_lyapunov_csv([(args.eps, spec)], path)
    print(
        f"lyapunov: eps={args.eps:g} orders={orders_text} "
        f"lambda=({l1:.6g},{l2:.6g},{l3:.6g}) converged={str(spec.converged).lower()}"
    )
    return 0


def _cmd_portrait(args) -> int:
    orders, orders_text = args.orders
    solve = SolveConfig(h=args.h, t_end=args.t_end, initial_state=args.x0)
    _make_out(args.out)
    traj = integrate(JerkParams(args.a, args.b, args.eps), orders, solve)
    path = os.path.join(args.out, f"portrait_{args.plane}.svg")
    output.render_svg(
        traj,
        "portrait",
        path,
        title=f"phase portrait eps={args.eps:g} orders={orders_text}",
        plane=args.plane,
    )
    print(f"portrait: eps={args.eps:g} plane={args.plane} -> {path}")
    return 0


def _add_common(sub, out_required: bool):
    sub.add_argument("--a", type=_finite, required=True)
    sub.add_argument("--b", type=_finite, required=True)
    orders = sub.add_mutually_exclusive_group(required=True)
    orders.add_argument("--alpha", dest="orders", type=_parse_alpha)
    orders.add_argument("--alphas", dest="orders", type=_parse_alphas)
    sub.add_argument("--config")
    sub.add_argument("--out", required=out_required)


def _add_solver(sub):
    sub.add_argument("--h", type=_finite, default=0.005)
    sub.add_argument("--t-end", type=_finite, default=300.0)
    sub.add_argument("--x0", type=_parse_x0, default="0,0,0")


def _add_spectrum(sub):
    sub.add_argument("--transient", type=_fraction, default=0.3)
    sub.add_argument("--renorm-every", type=_positive_int, default=200)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fjerk",
        description="Fractional-order quadratic jerk system toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("hopf", help="Hopf critical pair (gamma_H, epsilon_H)", allow_abbrev=False)
    _add_common(p, out_required=False)
    p.add_argument("--branch", choices=["plus", "minus"], default="plus")
    p.set_defaults(func=_cmd_hopf)

    p = subs.add_parser("simulate", help="integrate one trajectory to CSV", allow_abbrev=False)
    _add_common(p, out_required=True)
    _add_solver(p)
    p.add_argument("--eps", type=_finite, required=True)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("sweep", help="bifurcation sweep over epsilon", allow_abbrev=False)
    _add_common(p, out_required=True)
    _add_solver(p)
    _add_spectrum(p)
    p.add_argument("--eps-min", type=_finite, required=True)
    p.add_argument("--eps-max", type=_finite, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--lyapunov", action="store_true")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("lyapunov", help="Lyapunov spectrum at one epsilon", allow_abbrev=False)
    _add_common(p, out_required=False)
    _add_solver(p)
    _add_spectrum(p)
    p.add_argument("--eps", type=_finite, required=True)
    p.set_defaults(func=_cmd_lyapunov)

    p = subs.add_parser("portrait", help="2-D phase portrait SVG", allow_abbrev=False)
    _add_common(p, out_required=True)
    _add_solver(p)
    p.add_argument("--eps", type=_finite, required=True)
    p.add_argument("--plane", choices=["xy", "xz", "yz"], default="xy")
    p.set_defaults(func=_cmd_portrait)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_with_config(parser, argv))
        return args.func(args)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    except (UsageError, InvalidConfig) as err:
        print(f"fjerk: usage error: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # an output file inside --out cannot be written
        print(f"fjerk: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:  # the run's arrays cannot be allocated
        print(f"fjerk: out of memory: {err}", file=sys.stderr)
        return 2
    except FjerkError as err:
        print(f"fjerk: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
