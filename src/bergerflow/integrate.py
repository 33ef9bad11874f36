"""Adaptive integration of the planar flows with event detection.

A Dormand-Prince 5(4) embedded pair with a proportional-integral step
controller drives both the planar integration and the reduced
one-dimensional dynamics on the unit-volume curve.  The step runs on float
tuples, is generated from the tableau as straight-line code, and reuses its
last stage as the next step's first (FSAL).  The generic step, one per
dimension in use (2 and 1), calls the field as f(params, y), with no stage
time, since both flows are autonomous.  A step fused with one of the
package's own fields instead inlines, from their source, the lines of
model._collapse, model._normalized or dynamics.curve_speed below the line
"# per point" at each stage, with the lines above it run once per step, and
the expression that vector_field or curve_speed returns.  It does the
field's operations in the field's order, so both steps give the same bits.
Each run reads its field, vector_field or curve_speed, once from this
module's globals and chooses its step by looking that field up in _STOCK: a
wrapped field misses and takes the generic step, which makes every
evaluation through the wrapper.  Each step is compiled the first time a run
needs it.  Steps that would leave the open first quadrant are rejected and
halved, so trajectories never cross the axes.  Terminal events (collapse of
one or both scales, convergence to an equilibrium) are located by bisection
on the cubic Hermite interpolant of the step that crosses them, at no
further right-hand-side cost.
"""

from __future__ import annotations

import ast
import functools
import linecache
import math
import sys
import types
from dataclasses import dataclass, field

from . import phase
from .dynamics import curve_speed, vector_field
from .model import (
    _COLLAPSE,
    _NORMALIZED,
    FlowKind,
    FlowParams,
    GeometryScalars,
    State,
    _collapse,
    _normalized,
    geometry_scalars,
    initial_state,
)

# Dormand-Prince 5(4) tableau.  The last row of _A holds the fifth-order
# weights, so the seventh stage is evaluated at the step's result.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_ORDER = 5
_SAFETY = 0.9
_PI_BETA = 0.04
_PI_ALPHA = 1.0 / _ORDER - 0.75 * _PI_BETA
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_EVENT_TIME_TOL = 1e-9
_H_INIT = 1e-3
_H_MIN = 1e-13
_H_MAX = 1.0
_MAX_STEPS = 500_000


class StepBudgetError(RuntimeError):
    """Raised when the step budget is exhausted before t_end or an event."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Caller settings: tolerances, event thresholds and output stride.  Step
    bounds and the step budget are the module constants _H_* and _MAX_STEPS."""

    rtol: float = 1e-10
    atol: float = 1e-12
    collapse_tol: float = 1e-3
    equilib_tol: float | None = 1e-10  # None disables equilibrium detection
    output_stride: int = 1

    def __post_init__(self):
        if not (0 < self.rtol < math.inf and 0 < self.atol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not 0 < self.collapse_tol < math.inf:
            raise ValueError("collapse_tol must be positive and finite")
        if self.equilib_tol is not None and not 0 < self.equilib_tol < math.inf:
            raise ValueError("equilib_tol must be positive and finite, or None")
        if not (isinstance(self.output_stride, int) and self.output_stride >= 1):
            raise ValueError(f"output_stride must be an integer >= 1, got {self.output_stride!r}")


@dataclass(frozen=True)
class TerminationEvent:
    tag: str  # ReachedTEnd | CollapsePoint | CollapseFiber | Equilibrium | StepUnderflow
    t_event: float
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Trajectory:
    """``derivatives[i]`` is the field (dalpha, dbeta) at ``samples[i]`` as
    the step held it, or None where the step held none: at an event state
    read off the interpolant, or throughout a trajectory built without
    them.  It is derived data, so it takes no part in repr or equality."""

    params: FlowParams
    samples: list[tuple[State, GeometryScalars]]
    termination: TerminationEvent
    derivatives: list[tuple[float, float] | None] = field(default_factory=list, repr=False, compare=False)

    @property
    def final_state(self) -> State:
        return self.samples[-1][0]


def _body_and_return(fn):
    """The source lines of a top-level straight-line function: its body,
    docstring left out, up to the final return, and that return.  The
    function ends before the next line that starts a top-level statement.
    Reading it thus, and not through inspect.getsource, spares a process
    the few milliseconds the tokenizer takes to start."""
    code = fn.__code__
    lines = linecache.getlines(code.co_filename)[code.co_firstlineno - 1 :]
    if not lines:
        raise OSError(f"no source for {fn.__qualname__}")
    end = next((i for i, line in enumerate(lines[1:], 1) if line[:1] not in " \n#"), len(lines))
    node = ast.parse("".join(lines[:end])).body[0]
    lines = [line.rstrip("\n") for line in lines[: node.end_lineno]]
    first = node.body[0 if ast.get_docstring(node) is None else 1].lineno - 1
    last = node.body[-1].lineno - 1
    return lines[first:last], lines[last:]


def _unrolled_step(n, stock=None):
    """Compile the Dormand-Prince step for an n-dimensional system as
    straight-line code from _A and _E, in a module of its own whose loader
    returns the text, so that tracebacks and inspect.getsource show it, also
    after linecache.clearcache().

    step(f, p, y, k0, h, atol, rtol), given k0 = f(p, y), returns (k7, y_new,
    err_norm) with k7 = f(p, y_new) and err_norm the RMS of the scaled error
    estimate, or None if a stage input left the open quadrant; f is only
    called on admissible states, and with no stage time, as both flows are
    autonomous.  Sums run left to right over the nonzero coefficients,
    inlined as float literals that round-trip exactly, so the step rounds
    as a loop over the tableau does.

    Given stock = (suffix, formula, output), the step is fused with the
    stock field that f evaluates: it runs the parameter-only lines of
    formula's source once, names each stage input after formula's point
    arguments, and in place of calling f runs formula's per-point lines
    there and assigns the stage the expression that output returns, which
    reads names those lines bind.  It ignores f.  It does f's operations in
    f's order, so it returns the same bits.
    """
    name, dims = f"_rk_step{n}", range(n)
    s = [f"s{d}" for d in dims]
    namespace = {"inf": math.inf, "sqrt": math.sqrt}
    if stock is not None:
        suffix, formula, output = stock
        name, s = f"{name}_{suffix}", formula.__code__.co_varnames[1 : n + 1]
        body = _body_and_return(formula)[0]
        mark = body.index("    # per point")
        prelude, per_point = body[:mark], body[mark + 1 :]
        returned = _body_and_return(output)[1]
        read = formula.__code__.co_names
        namespace.update((key, value) for key, value in formula.__globals__.items() if key in read)

    def tup(names):
        return f"({', '.join(names)}{',' if n == 1 else ''})"

    def terms(coeffs, d):
        return " + ".join(f"{c!r} * k{j}_{d}" for j, c in enumerate(coeffs, 1) if c)

    admissible = " and ".join(f"0.0 < {s[d]} < inf" for d in dims)
    lines = [f"def {name}(f, p, y, k0, h, atol, rtol):"]
    if stock is not None:
        lines += ["    params = p", *prelude]
    lines += [f"    {tup(f'y{d}' for d in dims)} = y", f"    {tup(f'k1_{d}' for d in dims)} = k0"]
    for j, a in enumerate(_A[1:], 2):
        lines += [f"    {s[d]} = y{d} + h * ({terms(a, d)})" for d in dims]
        lines += [f"    if not ({admissible}):", "        return None"]
        if stock is None:
            lines += [f"    k{j} = f(p, {tup(s)})", f"    {tup(f'k{j}_{d}' for d in dims)} = k{j}"]
        else:
            target = ", ".join(f"k{j}_{d}" for d in dims)
            lines += [*per_point, returned[0].replace("return", f"{target} =", 1), *returned[1:]]
    # both states are positive, so max(y, s) is the larger, with no abs();
    # r * r overflows to inf, which rejects the step, where r ** 2 would raise
    lines += [
        f"    r{d} = h * ({terms(_E, d)}) / (atol + rtol * ({s[d]} if {s[d]} > y{d} else y{d}))" for d in dims
    ]
    squares = " + ".join(f"r{d} * r{d}" for d in dims)
    last = f"k{len(_A)}" if stock is None else tup(f"k{len(_A)}_{d}" for d in dims)
    lines.append(f"    return {last}, {tup(s)}, sqrt(({squares}) / {n})")
    source = "\n".join(lines) + "\n"
    # inspect reads a function's source through the module its __module__
    # names, and linecache asks that module's loader again once cleared
    module = types.ModuleType(f"{__name__}.{name}")
    module.__loader__ = types.SimpleNamespace(get_source=lambda _name: source)
    vars(module).update(namespace)
    exec(compile(source, module.__name__, "exec"), vars(module))
    sys.modules[module.__name__] = module
    linecache.lazycache(module.__name__, vars(module))
    return getattr(module, name)


# _step(n) is the generic step for dimension n and _step(n, stock) the one
# fused with stock, each compiled when a run first needs it
_step = functools.cache(_unrolled_step)


def _advance(rk_step, f, p, t0, y0, k0, t_end, config, predicates):
    """Adaptive driver of y' = f(p, y) over float tuples of length 2 or 1,
    from y0 with k0 = f(p, y0) as the caller evaluated it, taking the step
    rk_step that the caller chose by _step_for from the field it read.

    ``predicates`` is an ordered list of (tag, pred) pairs; pred(t, y, dy) is
    a boolean terminal condition checked on the initial and every accepted
    state, with dy = f(p, y) as the driver already holds it (the initial
    evaluation or the step's last stage).  When one fires, the event is
    located on the interpolant of the step that crossed it; there dy is None
    and pred evaluates f itself if it needs the derivative.  Returns
    ``(points, (tag, t_event, y_event, dy_event))``.  ``points`` holds every
    ``config.output_stride``-th (t, y, dy) triple counting from the initial
    one, followed by the final or event state, which is recorded exactly
    once.  dy is the derivative the driver already holds there: k0 at the
    initial state, the step's last stage at an accepted one, and None at an
    event state read off the interpolant.
    Steps start at _H_INIT, stay at most _H_MAX and end in StepUnderflow
    below _H_MIN; attempting step _MAX_STEPS + 1 raises StepBudgetError.
    """
    atol, rtol = config.atol, config.rtol
    t, y = t0, y0
    points = [(t, y, k0)]
    n_accepted = 0
    outcome = next(((tag, t, y, k0) for tag, pred in predicates if pred(t, y, k0)), None)
    h = min(_H_INIT, t_end - t0)
    err_prev = 1.0
    steps = 0
    while outcome is None:
        if t >= t_end:
            outcome = ("ReachedTEnd", t, y, k0)
            break
        if steps >= _MAX_STEPS:
            raise StepBudgetError(f"step budget of {_MAX_STEPS} exhausted at t={t:.6g}")
        steps += 1
        h = min(h, _H_MAX, t_end - t)
        step = rk_step(f, p, y, k0, h, atol, rtol)
        if step is not None:
            k7, y_new, err_norm = step
        if step is None or err_norm > 1.0:
            # rejected: halve after leaving the admissible region, else
            # shrink as the error controller says
            fac = 0.5 if step is None else max(_MIN_FACTOR, _SAFETY * err_norm ** (-_PI_ALPHA))
            if h * fac < _H_MIN:
                outcome = ("StepUnderflow", t, y, k0)
            h *= fac
            continue
        # accepted
        for tag, pred in predicates:
            if pred(t + h, y_new, k7):
                outcome = (tag, *_locate_event(pred, t, h, y, y_new, k0, k7), None)
                break
        if outcome is not None:
            break
        t += h
        y, k0 = y_new, k7
        n_accepted += 1
        if n_accepted % config.output_stride == 0:
            points.append((t, y, k0))
        fac = _SAFETY * err_norm ** (-_PI_ALPHA) * err_prev**_PI_BETA if err_norm > 0 else _MAX_FACTOR
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
        err_prev = max(err_norm, 1e-10)
    if points[-1][0] != outcome[1]:
        points.append(outcome[1:])
    return points, outcome


def _locate_event(pred, t, h, y0, y1, f0, f1):
    """Earliest time in (t, t + h] where pred flips to true, by bisection
    on the cubic Hermite interpolant through (y0, f0) and (y1, f1).
    Interpolated states outside the open quadrant count as past the event
    and are never reported as the event state."""
    lo, hi, y_hi = 0.0, 1.0, y1
    while (hi - lo) * h > _EVENT_TIME_TOL:
        s = 0.5 * (lo + hi)
        y_mid = tuple(
            (1 - s) * a + s * b + s * (s - 1) * ((1 - 2 * s) * (b - a) + (s - 1) * h * fa + s * h * fb)
            for a, b, fa, fb in zip(y0, y1, f0, f1)
        )
        if not all(0.0 < v < math.inf for v in y_mid):
            hi = s
        elif pred(t + s * h, y_mid, None):
            hi, y_hi = s, y_mid
        else:
            lo = s
    return t + hi * h, y_hi


def _equilibrium(f, p, config):
    """The Equilibrium predicate |f(p, y)| / |y| <= equilib_tol as a list of
    (tag, pred) pairs, empty when equilibrium detection is disabled."""
    etol = config.equilib_tol
    if etol is None:
        return []

    def at_equilibrium(t, y, dy):
        return math.hypot(*(f(p, y) if dy is None else dy)) / math.hypot(*y) <= etol

    return [("Equilibrium", at_equilibrium)]


def integrate(
    params: FlowParams,
    config: IntegratorConfig = IntegratorConfig(),
    t_end: float = 10.0,
    start: State | None = None,
) -> Trajectory:
    """Integrate the planar flow from its initial state until t_end or a
    terminal event.

    ``start`` overrides the canonical initial state, which permits
    off-curve starting points for the normalized flow.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    s0 = initial_state(params) if start is None else start
    f = vector_field  # read per integrate call, so that a wrapped field sees every evaluation
    ctol = config.collapse_tol
    predicates = [("Collapse", lambda t, y, dy: y[0] <= ctol)] + _equilibrium(f, params, config)
    y0 = (float(s0.alpha), float(s0.beta))
    points, (tag, t_ev, y_ev, _) = _advance(
        _step_for(f, params, 2), f, params, s0.t, y0, f(params, y0), s0.t + t_end, config, predicates
    )
    samples = [(State(t, *y), geometry_scalars(params, *y)) for t, y, _ in points]
    termination = _classify(params, config, tag, t_ev, y_ev, s0)
    return Trajectory(params, samples, termination, [dy for _, _, dy in points])


def _classify(params, config, tag, t_ev, y_ev, s0):
    if tag == "Collapse":
        alpha, beta = y_ev
        # Factor 2: trajectories heading to the origin do so inside the
        # wedge y <= 3x/2, so the base scale can sit slightly above the
        # threshold when the fiber scale crosses it.
        if beta <= 2.0 * config.collapse_tol:
            return TerminationEvent("CollapsePoint", t_ev, {"alpha": alpha, "beta": beta})
        detail = {"beta_inf": beta}
        if params.kind is FlowKind.COLLAPSE:
            region = phase.region_for_initial(params, s0)
            if region is not None:
                bracket = phase.axis_extent(region)
                if bracket is not None:
                    detail["bracket"] = bracket
        return TerminationEvent("CollapseFiber", t_ev, detail)
    if tag == "Equilibrium":
        return TerminationEvent("Equilibrium", t_ev, {"location": y_ev})
    if tag == "StepUnderflow":
        return TerminationEvent("StepUnderflow", t_ev, {"last_state": y_ev})
    return TerminationEvent("ReachedTEnd", t_ev, {})


def integrate_reduced(
    params: FlowParams,
    config: IntegratorConfig = IntegratorConfig(),
    epsilon0: float = 1.0,
    t_end: float = 10.0,
) -> list[tuple[float, float]]:
    """Integrate the reduced curve dynamics epsilon' = k(epsilon).

    Returns the recorded (t, epsilon) samples.  Uses the same error control
    and termination rules as the planar integration, except that a run
    whose step falls below _H_MIN raises ValueError naming epsilon0, as
    does an epsilon0 outside (0, inf) or with an infinite speed there.  At
    the default tolerances this bounds epsilon0 at about 1.08e4.
    """
    if params.kind is not FlowKind.NORMALIZED:
        raise ValueError("reduced dynamics requires normalized flow parameters")
    if not 0 < epsilon0 < math.inf:
        raise ValueError(f"epsilon0 must be positive and finite, got {epsilon0}")
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    speed = curve_speed  # read per call, so that a wrapped speed sees every evaluation

    def f(p, y):
        return (speed(p, y[0]),)

    y0 = (float(epsilon0),)
    try:
        k0 = f(params, y0)
        finite = math.isfinite(k0[0])
    except ArithmeticError:
        finite = False
    if not finite:
        raise ValueError(f"epsilon0 must keep the speed finite at the start, got {epsilon0}")
    equilibrium = _equilibrium(f, params, config)
    rk_step = _step_for(speed, params, 1)
    points, (tag, t_ev, _, _) = _advance(rk_step, f, params, 0.0, y0, k0, t_end, config, equilibrium)
    if tag == "StepUnderflow":
        raise ValueError(
            f"epsilon0 must keep the step above {_H_MIN:g} at rtol={config.rtol:g}, atol={config.atol:g},"
            f" got {epsilon0}: underflow at t={t_ev:.6g}"
        )
    return [(t, e) for t, (e,), _ in points]


# The package's own fields, keyed by the function a run reads and the flow
# kind, with the fused step's stock: its name suffix, the function whose
# per-point lines it inlines and the function whose return it inlines.  A
# tracer that swaps the module globals leaves this table alone, so a run
# that reads a swapped field misses it and takes the generic step.
_STOCK = {
    (vector_field, _COLLAPSE): ("collapse", _collapse, vector_field),
    (vector_field, _NORMALIZED): ("normalized", _normalized, vector_field),
    (curve_speed, _NORMALIZED): ("speed", curve_speed, curve_speed),
}


def _step_for(field, p, n):
    """The step for a run that reads field at p's flow kind: the fused one
    if field is the package's own and its source can be read, else the
    generic step for dimension n."""
    stock = _STOCK.get((field, p.kind))
    try:
        return _step(n) if stock is None else _step(n, stock)
    except OSError:  # no source to inline, as in an install without .py files
        return _step(n)
