"""Workload definitions: seeded inputs, one op each, and the output checks.

Each workload is a list of ``Op`` objects that the runner cycles through as
one closed-loop client.  ``Op.run`` is the timed call into the program;
``Op.check`` runs afterwards, outside the timed region, and returns ``None``
for a correct output or a one-line reason for a wrong one.  Every input is
made from the seed alone, so the same seed gives the same ops.

Why these four workloads (see README.md for the full table):

- ``sweep``: the step loop, event bisection and per-sample diagnostics of
  ``integrate``; no import cost and no bulk field evaluation.
- ``phase``: bulk field evaluation and flux certification; ``integrate``
  does no work, so it is the bypass case for step-loop changes.
- ``verify``: the paper-reproduction path, the only one through
  ``acceptance``, with its trajectory cache cold.
- ``cli``: whole processes, where import cost dominates; the only workload
  on which import changes move per-op latency.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# Scratch space for child-process output; listed in the root .gitignore.
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("sweep", "phase", "verify", "cli")

# Paper constants the checks compare against.  The closed-form collapse times
# are 16 and 12; the integrator stops at collapse_tol, slightly before them.
# The closed forms are matched up to half a time unit before the collapse,
# the horizon of the verify suite's oracle checks: the solution's derivative
# blows up at the collapse, where the error grows to about 6e-7.
SEPARATRIX = 2.0 / 3.0
CLOSED_FORM_EVENTS = {1.0: 15.999984, 2.0 / 3.0: 11.999973}
ORACLE_MARGIN = 0.5
EVENT_TOL = 1e-5
ORACLE_TOL = 1e-8
ENERGY_TOL = 1e-10
VOLUME_TOL = 1e-8
EQUILIBRIUM_TOL = 1e-12

SWEEP_T_END = 1e4
REDUCED_T_END = 50.0
SWEEP_STRATA = 4  # epsilon strata per (flow, a, sign kappa) combination per block
SWEEP_BLOCKS = 48  # more blocks than a 60 s run can use; the runner cycles anyway
PHASE_OPS = 2048  # about 30 s of ops; the runner cycles after that
PORTRAIT_GRID = 40
PORTRAIT_RANGE = (0.05, 1.5)
FLUX_SAMPLES = 1000
CLI_CPU_LIMIT_S = 60


class ProgramMissing(RuntimeError):
    """The checkout has no ``src/bergerflow`` package to measure."""


@dataclass
class Op:
    """One timed call into the program.

    ``label`` names the kind of op in reports.  ``prepare`` runs before the
    timer starts (used to empty caches).
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # The runner stops only at a multiple of ``cycle`` ops, so each run holds
    # whole cycles of a fixed list (used by ``cli``, whose ops differ in cost).
    cycle: int = 1
    # Out-of-band readings made by the checks, e.g. oracle errors.
    notes: dict = field(default_factory=dict)
    # For ``cli``: peak resident set of the op processes, from wait4.
    child_maxrss_kb: int = 0


def load_program():
    """Import ``bergerflow`` from this checkout's ``src`` and nowhere else."""
    init = SRC / "bergerflow" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no bergerflow package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bergerflow

    if Path(bergerflow.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"bergerflow imported from {bergerflow.__file__}, not {init}")
    return bergerflow


def build(bf, name: str, seed: int) -> Workload:
    """Make the seeded inputs of workload ``name``."""
    makers = {"sweep": _sweep, "phase": _phase, "verify": _verify, "cli": _cli}
    if name not in makers:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return makers[name](bf, seed)


# ---------------------------------------------------------------- sweep


def expected_tag(bf, params) -> str:
    """Termination predicted by the paper's phase picture."""
    collapse = params.kind is bf.FlowKind.COLLAPSE
    if params.product < 0:
        return "CollapseFiber" if collapse else "Equilibrium"
    if params.epsilon < SEPARATRIX:
        return "CollapseFiber"
    return "CollapsePoint" if collapse else "Equilibrium"


def _log_uniform(u: float) -> float:
    """Map u in [0, 1) onto [1/4, 4], uniformly in log epsilon."""
    return math.exp(math.log(0.25) + u * math.log(16.0))


def _sweep(bf, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    config = bf.IntegratorConfig()
    wl = Workload("sweep", [])
    wl.notes.update(oracle_err_max=0.0, event_err_max=0.0)
    combos = [
        (kind, a, sign)
        for kind in (bf.FlowKind.COLLAPSE, bf.FlowKind.NORMALIZED)
        for a in (-2.0, 2.0)
        for sign in (-1.0, 1.0)
    ]
    closed = [
        bf.FlowParams(bf.FlowKind.COLLAPSE, a, a / 2.0, eps)
        for a in (2.0, -2.0)
        for eps in CLOSED_FORM_EVENTS
    ]
    for _ in range(SWEEP_BLOCKS):
        # Each block holds every combination at every epsilon stratum, so the
        # cost mix of a run barely depends on the seed.
        draws = []
        for kind, a, sign in combos:
            kappa = sign if kind is bf.FlowKind.COLLAPSE else 0.5 * sign
            for j in range(SWEEP_STRATA):
                eps = _log_uniform((j + rng.random()) / SWEEP_STRATA)
                draws.append(bf.FlowParams(kind, a, kappa, eps))
        rng.shuffle(draws)
        for params in closed + draws:
            wl.ops.append(_planar_op(bf, wl, params, config))
            if params.kind is bf.FlowKind.NORMALIZED:
                wl.ops.append(_reduced_op(bf, params, config))
    return wl


def _planar_op(bf, wl: Workload, params, config) -> Op:
    def run():
        return bf.integrate(params, config, SWEEP_T_END)

    def check(traj):
        return check_trajectory(bf, wl, params, traj)

    return Op("integrate", run, check)


def check_trajectory(bf, wl: Workload, params, traj) -> str | None:
    term = traj.termination
    want = expected_tag(bf, params)
    if term.tag != want:
        return f"{params}: termination {term.tag}, expected {want}"
    states = [s for s, _ in traj.samples]
    xs = np.array([(s.alpha, s.beta) for s in states])
    if not (np.all(np.isfinite(xs)) and np.all(xs > 0.0)):
        return f"{params}: a sample left the open quadrant"
    energies = np.array([g.energy for _, g in traj.samples])
    rise = float(np.max(np.diff(energies))) if energies.size > 1 else 0.0
    if rise > ENERGY_TOL:
        return f"{params}: energy rose by {rise:.3g}"
    if params.kind is bf.FlowKind.NORMALIZED:
        drift = max(abs(g.volume - 1.0) for _, g in traj.samples)
        if drift > VOLUME_TOL:
            return f"{params}: volume drifted by {drift:.3g}"
    if term.tag == "CollapseFiber" and params.kind is bf.FlowKind.COLLAPSE:
        bracket = term.detail.get("bracket")
        beta_inf = term.detail.get("beta_inf")
        if bracket is None or not bracket[0] < beta_inf < bracket[1]:
            return f"{params}: beta_inf {beta_inf} outside bracket {bracket}"
    if bf.closed_form(params, 0.0) is not None:
        err = 0.0
        horizon = CLOSED_FORM_EVENTS[params.epsilon] - ORACLE_MARGIN
        for s in states:
            if s.t > horizon:
                break
            exact = bf.closed_form(params, s.t)
            err = max(err, abs(s.alpha - exact.alpha), abs(s.beta - exact.beta))
        event_err = abs(term.t_event - CLOSED_FORM_EVENTS[params.epsilon])
        wl.notes["oracle_err_max"] = max(wl.notes["oracle_err_max"], err)
        wl.notes["event_err_max"] = max(wl.notes["event_err_max"], event_err)
        if err > ORACLE_TOL:
            return f"{params}: closed-form error {err:.3g}"
        if event_err > EVENT_TOL:
            return f"{params}: event time off by {event_err:.3g}"
    return None


def _reduced_op(bf, params, config) -> Op:
    eps0 = params.epsilon

    def run():
        return bf.integrate_reduced(params, config, epsilon0=eps0, t_end=REDUCED_T_END)

    def check(samples):
        return check_reduced(params.product, eps0, [e for _, e in samples])

    return Op("integrate_reduced", run, check)


def check_reduced(product: float, eps0: float, eps: list[float]) -> str | None:
    """The curve parameter moves monotonically toward the next equilibrium
    (2/3 and 1 for a*kappa = 1, only 1 for a*kappa = -1) without crossing it."""
    stops = (SEPARATRIX, 1.0) if product > 0 else (1.0,)
    below = [e for e in stops if e < eps0]
    above = [e for e in stops if e > eps0]
    if product > 0:
        rising = SEPARATRIX < eps0 < 1.0
    else:
        rising = eps0 < 1.0
    lo = below[-1] if below else 0.0
    hi = above[0] if above else math.inf
    arr = np.array(eps)
    if not (np.all(np.isfinite(arr)) and np.all(arr > 0.0)):
        return f"reduced eps0={eps0}: left (0, inf)"
    steps = np.diff(arr) if rising else -np.diff(arr)
    if np.any(steps < 0.0):
        return f"reduced eps0={eps0}: not monotone"
    if arr.max() > hi + EQUILIBRIUM_TOL or arr.min() < lo - EQUILIBRIUM_TOL:
        return f"reduced eps0={eps0}: crossed an equilibrium of ({lo}, {hi})"
    return None


# ---------------------------------------------------------------- phase


def _phase(bf, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    signs = rng.choice((-1.0, 1.0), size=(PHASE_OPS, 4)).tolist()
    eps = [_log_uniform(u) for u in rng.random(PHASE_OPS).tolist()]
    ops = []
    for (a, sign, a_n, sign_n), e in zip(signs, eps):
        collapse = bf.FlowParams(bf.FlowKind.COLLAPSE, 2.0 * a, sign, e)
        normalized = bf.FlowParams(bf.FlowKind.NORMALIZED, 2.0 * a_n, 0.5 * sign_n, 1.0)
        ops.append(_phase_op(bf, collapse, normalized))
    return Workload("phase", ops)


def _expected_region(params) -> str:
    if params.product < 0:
        return "K"
    eps = params.epsilon
    return "K1" if eps < SEPARATRIX else ("K2" if eps < 1.0 else "K3")


def _phase_op(bf, collapse, normalized) -> Op:
    start = bf.initial_state(collapse)

    def run():
        region = bf.region_for_initial(collapse, start)
        violations = bf.inward_flux_check(region, collapse, n_samples=FLUX_SAMPLES)
        portrait = bf.sample_portrait(
            normalized, PORTRAIT_RANGE, PORTRAIT_RANGE, PORTRAIT_GRID, PORTRAIT_GRID
        )
        return region, violations, portrait, bf.equilibria(normalized)

    def check(out):
        region, violations, portrait, eqs = out
        want = _expected_region(collapse)
        if region is None or region.tag != want:
            return f"{collapse}: region {region}, expected {want}"
        if violations:
            return f"{collapse}: {len(violations)} outward-flux samples on {region}"
        return check_portrait(bf, normalized, portrait) or check_equilibria(
            normalized.product, [(e.epsilon_star, e.stability) for e in eqs]
        )

    return Op("phase", run, check)


def check_portrait(bf, params, portrait) -> str | None:
    points, dirs, mags = portrait
    n = PORTRAIT_GRID * PORTRAIT_GRID
    if points.shape != (n, 2) or dirs.shape != (n, 2) or mags.shape != (n,):
        return f"portrait shapes {points.shape}, {dirs.shape}, {mags.shape}"
    if not (np.all(np.isfinite(dirs)) and np.all(np.isfinite(mags))):
        return "portrait has non-finite values"
    # Round spheres of any size are rest points of the normalized flow, so
    # the grid's diagonal carries zero field and zero directions.
    norms = np.hypot(dirs[:, 0], dirs[:, 1])
    if np.any(np.where(mags > 0.0, np.abs(norms - 1.0) > 1e-12, norms != 0.0)):
        return "portrait directions are not unit vectors"
    # Magnitudes against the independent multiplied-out transcription.
    for i in range(0, n, 37):
        fx, fy = bf.explicit_rhs(params, (points[i, 0], points[i, 1]))
        ref = math.hypot(fx, fy)
        if abs(mags[i] - ref) > 1e-9 * (1.0 + ref):
            return f"portrait magnitude {mags[i]} at {points[i]} differs from {ref}"
    return None


def check_equilibria(product: float, found: list[tuple[float, str]]) -> str | None:
    """2/3 repelling and 1 attracting for a*kappa = 1; 1 attracting for -1."""
    want = [(SEPARATRIX, "repelling"), (1.0, "attracting")] if product > 0 else [(1.0, "attracting")]
    if len(found) != len(want):
        return f"equilibria {found}, expected {want}"
    for (eps, stability), (w_eps, w_stab) in zip(found, want):
        if stability != w_stab or eps is None or abs(eps - w_eps) > EQUILIBRIUM_TOL:
            return f"equilibria {found}, expected {want}"
    return None


# ---------------------------------------------------------------- verify


def _verify(bf, seed: int) -> Workload:
    from bergerflow import acceptance

    def prepare():
        # A warm cache would measure a different program (about half the time).
        clear = getattr(getattr(acceptance, "_run", None), "cache_clear", None)
        if clear is not None:
            clear()

    def run():
        return acceptance.run_checks()

    def check(results):
        failed = [r.name for r in results if not r.passed]
        if not results or failed:
            return f"verify status fail: {failed or 'no checks ran'}"
        return None

    return Workload("verify", [Op("verify", run, check, prepare)])


# ---------------------------------------------------------------- cli

# (label, argv after "python -m bergerflow.cli"); the order is fixed.
CLI_INVOCATIONS = [
    ("simulate", ["simulate", "--flow", "collapse", "--kappa", "1", "--epsilon", "1", "--t-end", "20"]),
    (
        "simulate_long",
        ["simulate", "--flow", "collapse", "--kappa", "-1", "--epsilon", "3", "--t-end", "5000"],
    ),
    ("portrait", ["portrait", "--flow", "collapse", "--kappa", "1", "--epsilon", "1"]),
    ("equilibria", ["equilibria", "--flow", "normalized", "--kappa", "0.5", "--epsilon", "1"]),
]
# What each invocation must report: the termination tag of the CSV for
# simulate, the row count of the default 20x20 grid for portrait.
_SIMULATE_TAGS = {"simulate": "CollapsePoint", "simulate_long": "CollapseFiber"}
_PORTRAIT_ROWS = 400


def child_env() -> dict:
    """Environment for program processes: this checkout's sources, with
    bytecode caching on so imports run from a warm ``.pyc`` cache."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Completed:
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (CLI_CPU_LIMIT_S, CLI_CPU_LIMIT_S))


def run_process(argv: list[str]) -> Completed:
    """Run one program process to its exit; output goes to files in the
    checkout so that no pipe has to be drained while waiting."""
    OUT_DIR.mkdir(exist_ok=True)
    out_path, err_path = OUT_DIR / "child.stdout", OUT_DIR / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT, preexec_fn=_limit_cpu)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Completed(proc.returncode, out_path.read_text(), err_path.read_text(), usage.ru_maxrss)


def cli_argv(args: list[str], importtime: bool = False) -> list[str]:
    return [sys.executable, *(["-X", "importtime"] if importtime else []), "-m", "bergerflow.cli", *args]


def _cli(bf, seed: int) -> Workload:
    # The list is fixed; the seed has nothing to vary here.
    wl = Workload("cli", [], cycle=len(CLI_INVOCATIONS))
    wl.ops = [cli_process_op(label, args, wl=wl) for label, args in CLI_INVOCATIONS]
    return wl


def cli_process_op(label: str, args: list[str], importtime: bool = False, wl: Workload | None = None) -> Op:
    """One CLI process, start to exit; its peak RSS is recorded on ``wl``."""
    argv = cli_argv(args, importtime=importtime)

    def run():
        return run_process(argv)

    def check(done: Completed):
        if wl is not None:
            wl.child_maxrss_kb = max(wl.child_maxrss_kb, done.maxrss_kb)
        if done.returncode != 0:
            return f"cli {label}: exit {done.returncode}: {done.stderr.strip()[-200:]}"
        return check_cli_output(label, done.stdout)

    return Op(f"cli:{label}", run, check)


def check_cli_output(label: str, text: str) -> str | None:
    if label in _SIMULATE_TAGS:
        lines = text.splitlines()
        if not lines or not lines[-1].startswith("# termination="):
            return f"cli {label}: no '# termination=' line at the end"
        tag = lines[-1].split()[1].removeprefix("termination=")
        if tag != _SIMULATE_TAGS[label]:
            return f"cli {label}: termination {tag}, expected {_SIMULATE_TAGS[label]}"
        return _check_csv(label, lines[:-1], 9)
    if label == "portrait":
        grid, *curves = [block.splitlines() for block in text.split("\n\n")]
        if len(grid) != _PORTRAIT_ROWS + 1:
            return f"cli portrait: {len(grid) - 1} grid rows, expected {_PORTRAIT_ROWS}"
        if any(not c or not c[0].startswith("# seed=") for c in curves):
            return "cli portrait: curve block without '# seed=' line"
        for lines, width in [(grid, 5)] + [(c[1:], 3) for c in curves]:
            error = _check_csv(label, lines, width)
            if error:
                return error
        return None
    if label == "equilibria":
        try:
            entries = json.loads(text)
            found = [(e["epsilon_star"], e["stability"]) for e in entries]
        except (ValueError, KeyError, TypeError) as exc:
            return f"cli equilibria: bad JSON: {exc}"
        return check_equilibria(1.0, found)
    return f"cli: unknown invocation {label}"


def _check_csv(label: str, lines: list[str], width: int) -> str | None:
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    if len(rows) < 2 or len(rows[0]) != width:
        return f"cli {label}: CSV header {rows[:1]} is not {width} columns"
    try:
        values = np.array([[float(v) for v in row] for row in rows[1:]])
    except ValueError as exc:
        return f"cli {label}: CSV does not parse: {exc}"
    if values.shape[1] != width or not np.all(np.isfinite(values)):
        return f"cli {label}: CSV rows are not {width} finite numbers"
    return None
