"""Command-line front end.

Subcommands: ``simulate`` (CSV trajectory), ``portrait`` (CSV vector-field
grid plus optional integral curves), ``equilibria`` (JSON), and ``verify``
(JSON report of the built-in verification suite).

Exit codes: 0 success, 1 argument error, 2 integration or field-evaluation
failure, 3 verification failure, 141 (128 + SIGPIPE) if stdout's reader leaves.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys

from . import dynamics, phase
from .integrate import _H_MIN, IntegratorConfig, StepBudgetError, integrate
from .model import FlowKind, FlowParams, State, _field_at_start


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _build_params(args) -> FlowParams:
    try:
        return FlowParams(FlowKind(args.flow), a=args.a, kappa=args.kappa, epsilon=args.epsilon)
    except ValueError as exc:
        # FlowParams messages start with the field name, which is the flag name
        raise ValueError(f"--{exc}")


# the integrator flags, keyed by the IntegratorConfig field each sets as its dest
_CONFIG_FLAGS = {
    "rtol": "--rtol",
    "atol": "--atol",
    "collapse_tol": "--collapse-tol",
    "equilib_tol": "--equilib-tol",
    "output_stride": "--stride",
}


def _build_config(args) -> IntegratorConfig:
    # an absent flag keeps the default
    values = {name: getattr(args, name) for name in _CONFIG_FLAGS}
    try:
        return IntegratorConfig(**{name: v for name, v in values.items() if v is not None})
    except ValueError as exc:
        # IntegratorConfig messages start with the field name: put the flag's in its place
        name, rest = str(exc).split(" ", 1)
        raise ValueError(f"{_CONFIG_FLAGS[name]} {rest}")


def _open_out(path):
    """The --out file, opened for writing before any integration, or stdout."""
    try:
        return open(path, "w") if path else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise ValueError(f"--out {path!r}: {exc.strerror}")


def _positive(text: str) -> float:
    """argparse type: a finite number > 0, so nan, inf, zero and negatives exit 1."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _pair(convert, form: str):
    """argparse type: two comma-separated values, each passed through convert."""
    def parse(text: str) -> tuple:
        try:
            first, second = (convert(v) for v in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
        return first, second
    return parse


def _seeds(text: str) -> list[State]:
    """argparse type: ';'-separated x,y start points, empty entries skipped."""
    seeds = []
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        try:
            x, y = (float(v) for v in chunk.split(","))
            seeds.append(State(t=0.0, alpha=x, beta=y))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"entry {chunk!r}: {exc}")
    return seeds


def _add_flow_flags(p: argparse.ArgumentParser):
    p.add_argument("--flow", required=True, choices=["collapse", "normalized"])
    p.add_argument("--a", type=float, default=2.0)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)


def _add_integrator_flags(p: argparse.ArgumentParser):
    for name, flag in _CONFIG_FLAGS.items():
        kind = int if name == "output_stride" else float
        p.add_argument(flag, dest=name, metavar=flag[2:].upper().replace("-", "_"), type=kind, default=None)


def _emit_csv_trajectory(traj, out):
    out.write("t,alpha,beta,volume,energy,f,g,dalpha,dbeta\n")
    for (state, scalars), (dx, dy) in zip(traj.samples, traj.derivatives, strict=True):
        row = [state.t, state.alpha, state.beta, scalars.volume, scalars.energy,
               scalars.f, scalars.g, dx, dy]
        out.write(",".join(_fmt(v) for v in row) + "\n")
    term = traj.termination
    out.write(f"# termination={term.tag} t={_fmt(term.t_event)}\n")


def _report_underflow(term) -> int:
    """Exit code 2 for a StepUnderflow, after one stderr line naming t, the state, h and the floor; else 0."""
    if term.tag != "StepUnderflow":
        return 0
    state, h = ", ".join(f"{v:.6g}" for v in term.detail["last_state"]), term.detail["h"]
    print(f"integration failure: step size underflow at t={term.t_event:.6g}, state ({state}), h={h:.6g}"
          f" below the floor {_H_MIN:g}", file=sys.stderr)
    return 2


def cmd_simulate(args) -> int:
    params = _build_params(args)
    config = _build_config(args)
    with _open_out(args.out) as out:
        traj = integrate(params, config, args.t_end)
        _emit_csv_trajectory(traj, out)
    return _report_underflow(traj.termination)


def cmd_portrait(args) -> int:
    params = _build_params(args)
    config = _build_config(args)
    try:
        rows = phase.portrait_rows(params, args.x_range, args.y_range, *args.grid)
    except ArithmeticError as exc:  # before any output or integration
        print(f"error: field evaluation failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    subject = "--seeds entry must keep the field finite"
    for start in args.seeds:  # every start is checked before anything is written
        point = (start.alpha, start.beta)
        _field_at_start(lambda y: dynamics.vector_field(params, y), point, subject, point)
    with _open_out(args.out) as out:
        out.write("x,y,ux,uy,mag\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")
        terms = []
        for start in args.seeds:
            traj = integrate(params, config, args.t_end, start=start)
            out.write(f"\n# seed={_fmt(start.alpha)},{_fmt(start.beta)}\n")
            out.write("t,alpha,beta\n")
            for state, _ in traj.samples:
                out.write(",".join(_fmt(v) for v in (state.t, state.alpha, state.beta)) + "\n")
            terms.append(traj.termination)
    return max([_report_underflow(term) for term in terms], default=0)  # one line per seed that underflowed


def cmd_equilibria(args) -> int:
    import json  # here and in cmd_verify, so that simulate and portrait do not pay for it

    params = _build_params(args)
    entries = [
        {"epsilon_star": eq.epsilon_star, "point": list(eq.point), "stability": eq.stability}
        for eq in dynamics.equilibria(params)
    ]
    print(json.dumps(entries, indent=2))
    return 0


def cmd_verify(args) -> int:
    # imported here so that the other subcommands do not pay for them
    import json

    from . import acceptance

    results = acceptance.run_checks(name_filter=args.filter)
    if not results:
        raise ValueError(f"--filter {args.filter!r} matches no check")
    checks = []
    for r in results:  # a check whose run failed carries its error in place of a measurement
        entry = {"name": r.name, "passed": bool(r.passed)}
        if r.error:
            entry["error"] = r.error
        else:
            entry |= {"measured": float(r.measured), "threshold": float(r.threshold)}
            if r.note and not r.passed:  # what failed, e.g. the starts that ended in the wrong event
                entry["note"] = r.note
        checks.append(entry)
    report = {"status": "pass" if all(r.passed for r in results) else "fail", "checks": checks}
    print(json.dumps(report, indent=2))
    return 0 if report["status"] == "pass" else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergerflow",
        description="Simulate and verify the Berger-sphere collapse and "
        "volume-normalized gradient flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate one trajectory and emit CSV")
    _add_flow_flags(p)
    _add_integrator_flags(p)
    p.add_argument("--t-end", dest="t_end", type=_positive, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("portrait", help="sample the vector field on a grid")
    _add_flow_flags(p)
    _add_integrator_flags(p)
    p.add_argument("--t-end", dest="t_end", type=_positive, default=10.0)
    p.add_argument("--grid", type=_pair(int, "nx,ny"), default="20,20")
    p.add_argument("--x-range", dest="x_range", type=_pair(float, "lo,hi"), default="0.05,1.5")
    p.add_argument("--y-range", dest="y_range", type=_pair(float, "lo,hi"), default="0.05,1.5")
    p.add_argument("--seeds", type=_seeds, default="1,1;0.6666666666666666,1")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_portrait)

    p = sub.add_parser("equilibria", help="list equilibria as JSON")
    _add_flow_flags(p)
    p.set_defaults(fn=cmd_equilibria)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--filter", default="")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StepBudgetError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # overflow or division by zero at extreme but valid inputs
        print(f"error: integration failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader left
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the exit flush stays silent
        return 141


if __name__ == "__main__":
    sys.exit(main())
