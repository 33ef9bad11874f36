"""Adaptive integration of the planar flows with event detection.

A Dormand-Prince 5(4) embedded pair with a proportional-integral step
controller drives both the planar flow and the reduced dynamics on the
unit-volume curve.  Its step is straight-line code generated from the
tableau, runs on float tuples and reuses its last stage as the next step's
first (FSAL).  A run has one step: compiled from the text that its formula
body keeps (model._body), the flow kind's field or speed (FlowKind.field,
FlowKind.speed), read when the run starts.  Its factory, called once per
run with the parameters, runs the body's head and returns step(y, k0, h,
atol, rtol), which runs the point lines and the value at each stage; its
attribute field, the body at y alone, serves the run's start and event
search.  The run's samples come from model._samples, compiled from the
text of the kind's spinor body (FlowKind.spinor) and of model._scalars,
called once with the parameters and the points the driver recorded.  The
compiled code carries the bodies' formulas only, in the same order, so it
gives their bits, and it reads no source file.  A body set in place of a
stock one, say one that counts its calls, sees every evaluation of the runs
that start after it.  Steps that would leave the open first quadrant are
rejected and halved.  Terminal events (collapse of one or both scales,
convergence to an equilibrium of the normalized flow) are located by
bisection on the cubic Hermite interpolant of the step that crosses them, a
collapse at no further evaluation; the event state's derivative is the
equilibrium search's own, or one more evaluation.
"""

from __future__ import annotations

import functools
import math

from . import model, phase
from .model import FlowKind, FlowParams, GeometryScalars, State, _field_at_start, initial_state

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
# within this of u = 2/3 the event state's u cannot decide the basin better
# than the integration: from fl(2/3) it lands within 1e-10 of 2/3
_BASIN_MARGIN = 1e-8
_H_INIT = 1e-3
_H_MIN = 1e-13
_H_MAX = 1.0
_MAX_STEPS = 500_000


class StepBudgetError(RuntimeError):
    """Raised when the step budget is exhausted before t_end or an event."""


def _where(t, y, h):
    """The one text placing a failed run, "at t=..., state (...), h=...", that each failure message reads."""
    return f"at t={t:.6g}, state ({', '.join(f'{v:.6g}' for v in y)}), h={h:.6g}"


class IntegratorConfig(model._Record):
    """Caller settings: tolerances, event thresholds and output stride.  Step
    bounds and the step budget are the module constants _H_* and _MAX_STEPS.

    Only the normalized flow has critical points, so ``equilib_tol`` has no
    effect on a collapse-flow run, which never ends in Equilibrium.  Each
    driver tests it against its own relative field size: integrate against
    |F(y)| / |y|, integrate_reduced against |k(eps)| / eps.  So from one
    start eps0 on the unit-volume curve the reduced run's Equilibrium comes
    later than the planar run's: by 0.700 to 0.703 at a*kappa = 1 and by
    0.058 to 0.082 at a*kappa = -1 (default config, six starts each, eps0
    from 0.7 or 0.03 up to 30).

    A fiber collapse reaches a ``collapse_tol`` as fine as 1e-12, but a
    point collapse does not: alpha falls like (T - t)^(1/2) there, so the
    step drops below _H_MIN at alpha of about 1.1e-7 to 1.3e-7, and at
    ``collapse_tol`` 1e-7 or finer the run ends in StepUnderflow.  The
    collapse flow's closed form (ROADMAP item 3) is the planned fix."""

    __match_args__ = ("rtol", "atol", "collapse_tol", "equilib_tol", "output_stride")

    def __init__(
        self,
        rtol: float = 1e-10,
        atol: float = 1e-12,
        collapse_tol: float = 1e-3,
        equilib_tol: float | None = 1e-10,  # None disables equilibrium detection
        output_stride: int = 1,
    ):
        # Messages start with the field name, which the CLI turns into
        # the name of its flag.
        for name, value in (("rtol", rtol), ("atol", atol), ("collapse_tol", collapse_tol)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if equilib_tol is not None and not 0 < equilib_tol < math.inf:
            raise ValueError(f"equilib_tol must be positive and finite, or None, got {equilib_tol}")
        if not (isinstance(output_stride, int) and output_stride >= 1):
            raise ValueError(f"output_stride must be an integer >= 1, got {output_stride!r}")
        vars(self).update(
            rtol=rtol, atol=atol, collapse_tol=collapse_tol, equilib_tol=equilib_tol, output_stride=output_stride
        )


class TerminationEvent(model._Record):
    """How a run ended, when, and the event's details; a new dict if none."""

    __match_args__ = ("tag", "t_event", "detail")

    def __init__(self, tag: str, t_event: float, detail: dict | None = None):
        # tag: ReachedTEnd | CollapsePoint | CollapseFiber | Equilibrium | StepUnderflow
        vars(self).update(tag=tag, t_event=t_event, detail={} if detail is None else detail)


class Trajectory(model._Record):
    """``derivatives[i]`` is the field (dalpha, dbeta) at ``samples[i]``: the
    value the step or, at an event state, the event search held there.  It
    is derived data, so it takes no part in repr, equality or hash, and a
    trajectory built without it has an empty list."""

    __match_args__ = ("params", "samples", "termination", "derivatives")
    _compared = ("params", "samples", "termination")

    def __init__(
        self,
        params: FlowParams,
        samples: list[tuple[State, GeometryScalars]],
        termination: TerminationEvent,
        derivatives: list[tuple[float, float]] | None = None,
    ):
        derivatives = [] if derivatives is None else derivatives
        vars(self).update(params=params, samples=samples, termination=termination, derivatives=derivatives)

    @property
    def final_state(self) -> State:
        return self.samples[-1][0]


@functools.cache
def _step(body):
    """Compile, the first time a run needs it, the factory name_for(params)
    of the Dormand-Prince step name for y' = body(params, y), as straight-line
    code from _A and _E and the text body keeps, in as many dimensions n as
    the text has point arguments.  The factory runs the text's head; at each
    stage input, named after those arguments, the step runs its point lines
    and assigns the stage its value, so it gives body's bits.  The step and
    its module are keyed and named by body alone, so a planted body's text
    never stands in the line cache for another's.

    step(y, k0, h, atol, rtol), given k0 = body at y, returns (k7, y_new,
    err_norm) with k7 = body at y_new and err_norm the RMS of the scaled
    error estimate, or None if a stage input left the open quadrant.  Sums
    run left to right over the nonzero coefficients, inlined as float
    literals that round-trip exactly, so the step rounds as a loop over the
    tableau does.  step.field is body at y alone, as a tuple; its caller
    tests the quadrant.
    """
    text, s = body.text, body.text.args.split(", ")
    name, n, dims = f"_rk_step{len(s)}{body.__name__}", len(s), range(len(s))

    def tup(names):
        return f"({', '.join(names)}{',' if n == 1 else ''})"

    def terms(coeffs, d):
        return " + ".join(f"{c!r} * k{j}_{d}" for j, c in enumerate(coeffs, 1) if c)

    admissible = " and ".join(f"0.0 < {s[d]} < inf" for d in dims)
    lines = [f"def {name}(y, k0, h, atol, rtol):"]
    lines += [f"    {tup(f'y{d}' for d in dims)} = y", f"    {tup(f'k1_{d}' for d in dims)} = k0"]
    for j, a in enumerate(_A[1:], 2):
        lines += [f"    {s[d]} = y{d} + h * ({terms(a, d)})" for d in dims]
        lines += [f"    if not ({admissible}):", "        return None"]
        lines += model._indented(text.point, f"{', '.join(f'k{j}_{d}' for d in dims)} = {text.value}")
    # both states are positive, so max(y, s) is the larger, with no abs();
    # r * r overflows to inf, which rejects the step, where r ** 2 would raise
    lines += [
        f"    r{d} = h * ({terms(_E, d)}) / (atol + rtol * ({s[d]} if {s[d]} > y{d} else y{d}))" for d in dims
    ]
    squares = " + ".join(f"r{d} * r{d}" for d in dims)
    lines.append(f"    return {tup(f'k{len(_A)}_{d}' for d in dims)}, {tup(s)}, sqrt(({squares}) / {n})")
    field = f"_field{name[len('_rk_step') :]}"
    lines += [f"def {field}(y):", f"    {tup(s)} = y", *model._indented(text.point, f"k = {text.value}")]
    lines += [f"    return {'(k,)' if n == 1 else 'k'}", f"{name}.field = {field}"]
    lines = [f"def {name}_for(params):", *model._indented(text.head, *lines), f"    return {name}"]
    return model._compiled(f"{__name__}.{name}", lines, {"inf": math.inf, "sqrt": math.sqrt, **text.env})[f"{name}_for"]


def _advance(rk_step, t0, y0, k0, t_end, config, collapse_tol, equilib_tol):
    """Adaptive driver of y' = F(y), F = rk_step.field, over float tuples of
    length 2 or 1, from y0 with k0 = F(y0) as the caller evaluated it.

    On the initial and every accepted state y it tests, in this order,
    Collapse, y[0] <= collapse_tol, and Equilibrium, |dy| / |y| <=
    equilib_tol, with dy = F(y) as the driver holds it; a None
    tolerance skips its test.  When one fires, the event is located on the
    interpolant of the step that crossed it.  Returns ``(points, (tag,
    t_event, y_event, dy_event), h)``.  ``points`` holds every
    ``config.output_stride``-th (t, y, dy) triple from the initial one, then
    the final or event state, recorded exactly once.  dy is F there: k0 at
    the initial state, the step's last stage at an accepted one, and at an
    event state the value _locate_event returns with it.  Steps start at
    _H_INIT, stay at most _H_MAX and end in StepUnderflow below
    _H_MIN, h then the last one attempted; attempting step _MAX_STEPS + 1
    raises StepBudgetError.
    """
    atol, rtol, ctol, etol, hypot = config.atol, config.rtol, collapse_tol, equilib_tol, math.hypot
    t, y = t0, y0
    points = [(t, y, k0)]
    n_accepted = 0
    outcome = ("Collapse", t, y, k0) if ctol is not None and y[0] <= ctol else None
    if outcome is None and etol is not None and hypot(*k0) / hypot(*y) <= etol:
        outcome = ("Equilibrium", t, y, k0)
    h = min(_H_INIT, t_end - t0)
    err_prev = 1.0
    steps = 0
    while outcome is None:
        if t >= t_end:
            outcome = ("ReachedTEnd", t, y, k0)
            break
        if steps >= _MAX_STEPS:
            raise StepBudgetError(f"step budget of {_MAX_STEPS} exhausted {_where(t, y, min(h, _H_MAX, t_end - t))}")
        steps += 1
        h = _H_MAX if h > _H_MAX else h  # min(h, _H_MAX, t_end - t)
        h = t_end - t if h > t_end - t else h
        step = rk_step(y, k0, h, atol, rtol)
        if step is not None:
            k7, y_new, err_norm = step
        if step is None or err_norm > 1.0:
            # rejected: halve after leaving the admissible region, else
            # shrink as the error controller says
            fac = 0.5 if step is None else max(_MIN_FACTOR, _SAFETY * err_norm ** (-_PI_ALPHA))
            if h * fac < _H_MIN:
                outcome = ("StepUnderflow", t, y, k0)
                break
            h *= fac
            continue
        # accepted
        collapse = ctol is not None and y_new[0] <= ctol
        if collapse or etol is not None and hypot(*k7) / hypot(*y_new) <= etol:
            event = _locate_event(rk_step.field, ctol if collapse else None, etol, t, h, y, y_new, k0, k7)
            outcome = ("Collapse" if collapse else "Equilibrium", *event)
            break
        t += h
        y, k0 = y_new, k7
        n_accepted += 1
        if n_accepted % config.output_stride == 0:
            points.append((t, y, k0))
        fac = _SAFETY * err_norm ** (-_PI_ALPHA) * err_prev**_PI_BETA if err_norm > 0 else _MAX_FACTOR
        # min(_MAX_FACTOR, max(_MIN_FACTOR, fac)) and max(err_norm, 1e-10), without the calls
        h *= _MAX_FACTOR if fac >= _MAX_FACTOR else fac if fac > _MIN_FACTOR else _MIN_FACTOR
        err_prev = 1e-10 if err_norm < 1e-10 else err_norm
    if points[-1][0] != outcome[1]:
        points.append(outcome[1:])
    return points, outcome, h


def _locate_event(field, ctol, etol, t, h, y0, y1, f0, f1):
    """Earliest time in (t, t + h] where y[0] <= ctol, or if ctol is None
    |field(y)| / |y| <= etol, by bisection on the cubic Hermite interpolant
    through (y0, f0) and (y1, f1), the state there and its field value, the
    equilibrium test's or one evaluation.  Interpolated states outside the
    open quadrant count as past the event and are never the event state;
    the time returned is that of the state returned, so where no
    in-quadrant state at or past the event was seen it is (t + h, y1, f1)."""
    lo, hi, at, y_at, dy_at, nodes = 0.0, 1.0, 1.0, y1, f1, list(zip(y0, y1, f0, f1))
    while (hi - lo) * h > _EVENT_TIME_TOL:
        s = 0.5 * (lo + hi)
        # (1 - s) a + s b + s (s - 1) ((1 - 2 s) (b - a) + (s - 1) h fa + s h fb)
        u, v, w, hu, hs = 1 - s, s * (s - 1), 1 - 2 * s, (s - 1) * h, s * h
        y_mid = tuple([u * a + s * b + v * (w * (b - a) + hu * fa + hs * fb) for a, b, fa, fb in nodes])
        if not (0.0 < y_mid[0] < math.inf and 0.0 < y_mid[-1] < math.inf):
            hi = s
            continue
        dy = None if ctol is not None else field(y_mid)
        if y_mid[0] <= ctol if dy is None else math.hypot(*dy) / math.hypot(*y_mid) <= etol:
            hi = at = s
            y_at, dy_at = y_mid, dy
        else:
            lo = s
    return t + at * h, y_at, field(y_at) if dy_at is None else dy_at


def integrate(
    params: FlowParams,
    config: IntegratorConfig = IntegratorConfig(),
    t_end: float = 10.0,
    start: State | None = None,
) -> Trajectory:
    """Integrate the planar flow from its initial state until t_end or a
    terminal event.

    ``start`` overrides the canonical initial state, which permits
    off-curve starting points for the normalized flow.  A start that State
    rejects or the one start rule (model._field_at_start) refuses raises
    ValueError before any step: the field must be finite there, and beta at
    most sqrt(DBL_MAX), above which a sample's beta**2 overflows.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    s0 = initial_state(params) if start is None else State(start.t, start.alpha, start.beta)
    kind = params.kind  # the run reads its bodies here, once: a body planted later serves later runs
    step, samples = _step(kind.field)(params), model._samples(kind.spinor, model._scalars)
    y0 = (float(s0.alpha), float(s0.beta))
    k0 = _field_at_start(step.field, y0, "start must keep the field finite", y0)
    etol = config.equilib_tol if kind is FlowKind.NORMALIZED else None  # as dynamics.equilibria rules
    points, (tag, t_ev, y_ev, _), h = _advance(step, s0.t, y0, k0, s0.t + t_end, config, config.collapse_tol, etol)
    termination = _classify(params, tag, t_ev, y_ev, h, s0)
    return Trajectory(params, samples(params, points), termination, [dy for _, _, dy in points])


def _classify(params, tag, t_ev, y_ev, h, s0):
    """The termination record of an outcome of _advance.  By the basin rule a
    collapse is a point collapse only for the collapse flow with a*kappa = 2
    and u = alpha/beta >= 2/3 - _BASIN_MARGIN at the event state: there u is
    monotone and never crosses 2/3."""
    if tag == "Collapse":
        alpha, beta = y_ev
        u, p = alpha / beta, params.product
        if params.kind is FlowKind.NORMALIZED:  # beta grows without bound as alpha -> 0: no limit
            return TerminationEvent("CollapseFiber", t_ev, {"beta": beta})
        if p == 2.0 and u >= 2.0 / 3.0 - _BASIN_MARGIN:
            return TerminationEvent("CollapsePoint", t_ev, {"alpha": alpha, "beta": beta})
        # the limit (I/4)^(1/4) of beta, read at the event state: I = y^4
        # (3u - p)^2 / |u - p/2|, p = a kappa, is constant on a collapse orbit
        # and tends to 4 y^4 as x -> 0
        detail = {"beta_inf": beta * ((3.0 * u - p) ** 2 / (4.0 * abs(u - p / 2.0))) ** 0.25}
        region = phase.region_for_initial(params, s0)
        if region is not None:
            bracket = phase.axis_extent(region)
            if bracket is not None:
                detail["bracket"] = bracket
        return TerminationEvent("CollapseFiber", t_ev, detail)
    if tag == "Equilibrium":
        return TerminationEvent("Equilibrium", t_ev, {"location": y_ev})
    if tag == "StepUnderflow":
        return TerminationEvent("StepUnderflow", t_ev, {"last_state": y_ev, "h": h})
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
    step = _step(params.kind.speed)(params)  # read per run, as integrate reads its bodies
    y0 = (float(epsilon0),)
    k0 = _field_at_start(step.field, y0, "epsilon0 must keep the speed finite at the start", epsilon0)
    points, (tag, t_ev, y_ev, _), h = _advance(step, 0.0, y0, k0, t_end, config, None, config.equilib_tol)
    if tag == "StepUnderflow":
        raise ValueError(
            f"epsilon0 must keep the step above {_H_MIN:g} at rtol={config.rtol:g}, atol={config.atol:g},"
            f" got {epsilon0}: underflow {_where(t_ev, y_ev, h)}"
        )
    return [(t, e) for t, (e,), _ in points]
