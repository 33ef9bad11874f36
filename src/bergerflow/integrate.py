"""Adaptive integration of the planar flows with event detection.

A Dormand-Prince 5(4) embedded pair with a proportional-integral step
controller drives both the planar integration and the reduced
one-dimensional dynamics on the unit-volume curve.  The step runs on float
tuples and reuses its last stage as the next step's first (FSAL).  Steps
that would leave the open first quadrant are rejected and halved, so
trajectories never cross the axes.  Terminal events (collapse of one or
both scales, convergence to an equilibrium) are located by bisection on
the cubic Hermite interpolant of the step that crosses them, at no
further right-hand-side cost.
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


def _rk_step(f, t, y, k0, h):
    """One Dormand-Prince step from y, given k0 = f(t, y).  Returns
    (stages, y_new) with stages[6] = f(t + h, y_new), or None if a stage
    input left the open quadrant; f is only called on admissible states."""
    k = [k0]
    for c, a in zip(_C[1:], _A[1:]):
        yi = tuple(yd + h * sum(aj * kj[d] for aj, kj in zip(a, k)) for d, yd in enumerate(y))
        if not _admissible(yi):
            return None
        k.append(f(t + c * h, yi))
    return k, yi


def _advance(f, t0, y0, t_end, config, predicates):
    """Generic adaptive driver over states given as float tuples.

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
        step = _rk_step(f, t, y, k0, h)
        if step is not None:
            k, y_new = step
            # RMS over components of the embedded error estimate h * (_E . k)
            # (r * r overflows to inf, which rejects the step; r ** 2 raises)
            ratios = [
                h * sum(e * kj[d] for e, kj in zip(_E, k))
                / (config.atol + config.rtol * max(abs(y[d]), abs(y_new[d])))
                for d in range(len(y))
            ]
            err_norm = math.sqrt(sum(r * r for r in ratios) / len(y))
        if step is None or err_norm > 1.0:
            # rejected: halve after leaving the admissible region, else
            # shrink as the error controller says
            fac = 0.5 if step is None else max(_MIN_FACTOR, _SAFETY * err_norm ** (-_PI_ALPHA))
            if h * fac < _H_MIN:
                outcome = ("StepUnderflow", t, y)
            h *= fac
            continue
        # accepted
        triggered = next(((tag, pred) for tag, pred in predicates if pred(t + h, y_new, k[6])), None)
        if triggered is not None:
            tag, pred = triggered
            outcome = (tag, *_locate_event(pred, t, h, y, y_new, k[0], k[6]))
            break
        t += h
        y, k0 = y_new, k[6]
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
