"""Adaptive integration of the planar flows with event detection.

A Dormand-Prince 5(4) embedded pair with a proportional-integral step
controller drives both the planar integration and the reduced
one-dimensional dynamics on the unit-volume curve.  The step runs on float
tuples, is written out by hand for the two dimensions in use (2 and 1),
chosen once per integration, and reuses its last stage as the next step's
first (FSAL).  Steps that would leave the open first quadrant are rejected
and halved, so trajectories never cross the axes.  Terminal events
(collapse of one or both scales, convergence to an equilibrium) are
located by bisection on the cubic Hermite interpolant of the step that
crosses them, at no further right-hand-side cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import phase
from .dynamics import curve_speed, initial_state, vector_field
from .model import FlowKind, FlowParams, GeometryScalars, State, geometry_scalars

# Dormand-Prince 5(4) tableau.  The last row of _A holds the fifth-order
# weights, so the seventh stage is evaluated at the step's result.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
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

# The same tableau as scalars for the unrolled steps, which leave out the
# zero terms a72 * k2 and e2 * k2.
_C2, _C3, _C4, _C5, _C6, _C7 = _C[1:]
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54) = _A[1:5]
(_A61, _A62, _A63, _A64, _A65), (_A71, _, _A73, _A74, _A75, _A76) = _A[5:]
_E1, _, _E3, _E4, _E5, _E6, _E7 = _E
_INF = math.inf

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
    params: FlowParams
    samples: list[tuple[State, GeometryScalars]]
    termination: TerminationEvent

    @property
    def final_state(self) -> State:
        return self.samples[-1][0]


def _admissible(y):
    return all(0.0 < v < math.inf for v in y)


def _rk_step2(f, t, y, k0, h, atol, rtol):
    """One Dormand-Prince step of a planar system from y, given k0 = f(t, y).
    Returns (k7, y_new, err_norm) with k7 = f(t + h, y_new) and err_norm the
    RMS of the scaled error estimate, or None if a stage input left the open
    quadrant; f is only called on admissible states.  The sums keep the
    left-to-right order of a loop over _A and _E, and so its rounding."""
    y0, y1 = y
    k10, k11 = k0
    s0 = y0 + h * (_A21 * k10)
    s1 = y1 + h * (_A21 * k11)
    if not (0.0 < s0 < _INF and 0.0 < s1 < _INF):
        return None
    k20, k21 = f(t + _C2 * h, (s0, s1))
    s0 = y0 + h * (_A31 * k10 + _A32 * k20)
    s1 = y1 + h * (_A31 * k11 + _A32 * k21)
    if not (0.0 < s0 < _INF and 0.0 < s1 < _INF):
        return None
    k30, k31 = f(t + _C3 * h, (s0, s1))
    s0 = y0 + h * (_A41 * k10 + _A42 * k20 + _A43 * k30)
    s1 = y1 + h * (_A41 * k11 + _A42 * k21 + _A43 * k31)
    if not (0.0 < s0 < _INF and 0.0 < s1 < _INF):
        return None
    k40, k41 = f(t + _C4 * h, (s0, s1))
    s0 = y0 + h * (_A51 * k10 + _A52 * k20 + _A53 * k30 + _A54 * k40)
    s1 = y1 + h * (_A51 * k11 + _A52 * k21 + _A53 * k31 + _A54 * k41)
    if not (0.0 < s0 < _INF and 0.0 < s1 < _INF):
        return None
    k50, k51 = f(t + _C5 * h, (s0, s1))
    s0 = y0 + h * (_A61 * k10 + _A62 * k20 + _A63 * k30 + _A64 * k40 + _A65 * k50)
    s1 = y1 + h * (_A61 * k11 + _A62 * k21 + _A63 * k31 + _A64 * k41 + _A65 * k51)
    if not (0.0 < s0 < _INF and 0.0 < s1 < _INF):
        return None
    k60, k61 = f(t + _C6 * h, (s0, s1))
    s0 = y0 + h * (_A71 * k10 + _A73 * k30 + _A74 * k40 + _A75 * k50 + _A76 * k60)
    s1 = y1 + h * (_A71 * k11 + _A73 * k31 + _A74 * k41 + _A75 * k51 + _A76 * k61)
    if not (0.0 < s0 < _INF and 0.0 < s1 < _INF):
        return None
    k7 = f(t + _C7 * h, (s0, s1))
    k70, k71 = k7
    e0 = _E1 * k10 + _E3 * k30 + _E4 * k40 + _E5 * k50 + _E6 * k60 + _E7 * k70
    e1 = _E1 * k11 + _E3 * k31 + _E4 * k41 + _E5 * k51 + _E6 * k61 + _E7 * k71
    # both states are positive, so max() needs no abs(); r * r overflows to
    # inf, which rejects the step, where r ** 2 would raise
    r0 = h * e0 / (atol + rtol * max(y0, s0))
    r1 = h * e1 / (atol + rtol * max(y1, s1))
    return k7, (s0, s1), math.sqrt((r0 * r0 + r1 * r1) / 2)


def _rk_step1(f, t, y, k0, h, atol, rtol):
    """The one-dimensional counterpart of _rk_step2, on 1-tuples."""
    (y0,) = y
    (k1,) = k0
    s = y0 + h * (_A21 * k1)
    if not 0.0 < s < _INF:
        return None
    (k2,) = f(t + _C2 * h, (s,))
    s = y0 + h * (_A31 * k1 + _A32 * k2)
    if not 0.0 < s < _INF:
        return None
    (k3,) = f(t + _C3 * h, (s,))
    s = y0 + h * (_A41 * k1 + _A42 * k2 + _A43 * k3)
    if not 0.0 < s < _INF:
        return None
    (k4,) = f(t + _C4 * h, (s,))
    s = y0 + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4)
    if not 0.0 < s < _INF:
        return None
    (k5,) = f(t + _C5 * h, (s,))
    s = y0 + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5)
    if not 0.0 < s < _INF:
        return None
    (k6,) = f(t + _C6 * h, (s,))
    s = y0 + h * (_A71 * k1 + _A73 * k3 + _A74 * k4 + _A75 * k5 + _A76 * k6)
    if not 0.0 < s < _INF:
        return None
    k7 = f(t + _C7 * h, (s,))
    e = _E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7[0]
    r = h * e / (atol + rtol * max(y0, s))
    return k7, (s,), math.sqrt(r * r)


def _advance(f, t0, y0, t_end, config, predicates):
    """Adaptive driver over states given as float tuples of length 2 or 1;
    the step (_rk_step2 or _rk_step1) is chosen once from len(y0).

    ``predicates`` is an ordered list of (tag, pred) pairs; pred(t, y, dy) is
    a boolean terminal condition checked on the initial and every accepted
    state, with dy = f(t, y) as the driver already holds it (the initial
    evaluation or the step's last stage).  When one fires, the event is
    located on the interpolant of the step that crossed it; there dy is None
    and pred evaluates f itself if it needs the derivative.  Returns
    ``(points, (tag, t_event, y_event))``.  ``points`` holds every
    ``config.output_stride``-th (t, y) pair counting from the initial one,
    followed by the final or event state, which is recorded exactly once.
    Steps start at _H_INIT, stay at most _H_MAX and end in StepUnderflow
    below _H_MIN; attempting step _MAX_STEPS + 1 raises StepBudgetError.
    """
    rk_step = _rk_step2 if len(y0) == 2 else _rk_step1
    atol, rtol = config.atol, config.rtol
    t, y = t0, y0
    points = [(t, y)]
    n_accepted = 0
    k0 = f(t, y)
    outcome = next(((tag, t, y) for tag, pred in predicates if pred(t, y, k0)), None)
    h = min(_H_INIT, t_end - t0)
    err_prev = 1.0
    steps = 0
    while outcome is None:
        if t >= t_end:
            outcome = ("ReachedTEnd", t, y)
            break
        if steps >= _MAX_STEPS:
            raise StepBudgetError(f"step budget of {_MAX_STEPS} exhausted at t={t:.6g}")
        steps += 1
        h = min(h, _H_MAX, t_end - t)
        step = rk_step(f, t, y, k0, h, atol, rtol)
        if step is not None:
            k7, y_new, err_norm = step
        if step is None or err_norm > 1.0:
            # rejected: halve after leaving the admissible region, else
            # shrink as the error controller says
            fac = 0.5 if step is None else max(_MIN_FACTOR, _SAFETY * err_norm ** (-_PI_ALPHA))
            if h * fac < _H_MIN:
                outcome = ("StepUnderflow", t, y)
            h *= fac
            continue
        # accepted
        triggered = next(((tag, pred) for tag, pred in predicates if pred(t + h, y_new, k7)), None)
        if triggered is not None:
            tag, pred = triggered
            outcome = (tag, *_locate_event(pred, t, h, y, y_new, k0, k7))
            break
        t += h
        y, k0 = y_new, k7
        n_accepted += 1
        if n_accepted % config.output_stride == 0:
            points.append((t, y))
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
        if not _admissible(y_mid):
            hi = s
        elif pred(t + s * h, y_mid, None):
            hi, y_hi = s, y_mid
        else:
            lo = s
    return t + hi * h, y_hi


def _equilibrium(f, config):
    """The Equilibrium predicate |f(y)| / |y| <= equilib_tol as a list of
    (tag, pred) pairs, empty when equilibrium detection is disabled."""
    etol = config.equilib_tol
    if etol is None:
        return []

    def at_equilibrium(t, y, dy):
        return math.hypot(*(f(t, y) if dy is None else dy)) / math.hypot(*y) <= etol

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

    def f(t, y):
        return vector_field(params, y)

    ctol = config.collapse_tol
    predicates = [("Collapse", lambda t, y, dy: y[0] <= ctol)] + _equilibrium(f, config)
    points, (tag, t_ev, y_ev) = _advance(
        f, s0.t, (float(s0.alpha), float(s0.beta)), s0.t + t_end, config, predicates
    )
    samples = [_sample(params, t, y) for t, y in points]
    termination = _classify(params, config, tag, t_ev, y_ev, s0)
    return Trajectory(params=params, samples=samples, termination=termination)


def _sample(params, t, y):
    state = State(t, *y)
    return state, geometry_scalars(params, state.alpha, state.beta)


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
    and termination rules as the planar integration.
    """
    if params.kind is not FlowKind.NORMALIZED:
        raise ValueError("reduced dynamics requires normalized flow parameters")
    if not epsilon0 > 0:
        raise ValueError(f"epsilon0 must be positive, got {epsilon0}")
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")

    def f(t, y):
        return (curve_speed(params, y[0]),)

    points, _ = _advance(f, 0.0, (float(epsilon0),), t_end, config, _equilibrium(f, config))
    return [(t, e) for t, (e,) in points]
