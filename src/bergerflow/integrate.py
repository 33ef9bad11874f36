"""Adaptive integration of the planar flows with event detection.

A Dormand-Prince 5(4) embedded pair with a proportional-integral step
controller drives both the planar integration and the reduced
one-dimensional dynamics on the unit-volume curve.  Steps that would leave
the open first quadrant are rejected and halved, so trajectories never
cross the axes.  Terminal events (collapse of one or both scales,
convergence to an equilibrium) are located by bisection over the last
accepted step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import phase
from .dynamics import curve_speed, initial_state, vector_field
from .model import FlowKind, FlowParams, GeometryScalars, State, geometry_scalars

# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

_ORDER = 5
_SAFETY = 0.9
_PI_BETA = 0.04
_PI_ALPHA = 1.0 / _ORDER - 0.75 * _PI_BETA
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0


class StepBudgetError(RuntimeError):
    """Raised when the step budget is exhausted before t_end or an event."""


@dataclass(frozen=True)
class IntegratorConfig:
    rtol: float = 1e-10
    atol: float = 1e-12
    h_init: float = 1e-3
    h_min: float = 1e-13
    h_max: float = 1.0
    max_steps: int = 500_000
    collapse_tol: float = 1e-3
    equilib_tol: float | None = 1e-10  # None disables equilibrium detection
    event_time_tol: float = 1e-9
    output_stride: int = 1

    def __post_init__(self):
        if not (self.rtol > 0 and self.atol > 0):
            raise ValueError("tolerances must be positive")
        if not (0 < self.h_min <= self.h_init <= self.h_max):
            raise ValueError("step bounds must satisfy 0 < h_min <= h_init <= h_max")
        if not self.collapse_tol > 0:
            raise ValueError("collapse_tol must be positive")
        if self.equilib_tol is not None and not self.equilib_tol > 0:
            raise ValueError("equilib_tol must be positive or None")
        if not self.event_time_tol > 0:
            raise ValueError("event_time_tol must be positive")
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


def _rk_step(f, t, y, h):
    """One Dormand-Prince step.  Returns (y_new, err_vec) or None if any
    stage left the admissible region; f is only called on admissible
    states."""
    k = np.empty((7, y.size))
    k[0] = f(t, y)
    for i in range(1, 7):
        yi = y + h * (_A[i] @ k[:i])
        if np.any(yi <= 0.0) or not np.all(np.isfinite(yi)):
            return None
        k[i] = f(t + _C[i] * h, yi)
    y_new = y + h * (_B5 @ k)
    if np.any(y_new <= 0.0) or not np.all(np.isfinite(y_new)):
        return None
    err = h * (_E @ k)
    return y_new, err


def _error_norm(err, y, y_new, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _advance(f, t0, y0, t_end, config, predicates):
    """Generic adaptive driver.

    ``predicates`` is an ordered list of (tag, pred) pairs; pred(t, y) is a
    boolean terminal condition checked on the initial and every accepted
    state.  Returns ``(points, (tag, t_event, y_event))``.  ``points`` holds
    every ``config.output_stride``-th (t, y) pair counting from the initial
    one, followed by the final or event state, which is recorded exactly
    once.
    """
    t, y = t0, np.array(y0, dtype=float)
    points = [(t, y)]
    n_accepted = 0
    outcome = next(((tag, t, y) for tag, pred in predicates if pred(t, y)), None)
    h = min(config.h_init, t_end - t0)
    err_prev = 1.0
    steps = 0
    while outcome is None:
        if t >= t_end:
            outcome = ("ReachedTEnd", t, y)
            break
        if steps >= config.max_steps:
            raise StepBudgetError(
                f"step budget of {config.max_steps} exhausted at t={t:.6g}"
            )
        steps += 1
        h = min(h, config.h_max, t_end - t)
        result = _rk_step(f, t, y, h)
        if result is not None:
            y_new, err = result
            err_norm = _error_norm(err, y, y_new, config.rtol, config.atol)
        if result is None or err_norm > 1.0:
            # rejected: halve after leaving the admissible region, else
            # shrink as the error controller says
            fac = 0.5 if result is None else max(_MIN_FACTOR, _SAFETY * err_norm ** (-_PI_ALPHA))
            if h * fac < config.h_min:
                outcome = ("StepUnderflow", t, y)
            h *= fac
            continue
        # accepted
        triggered = next(((tag, pred) for tag, pred in predicates if pred(t + h, y_new)), None)
        if triggered is not None:
            tag, pred = triggered
            outcome = (tag, *_bisect_event(f, t, y, h, pred, config.event_time_tol))
            break
        t += h
        y = y_new
        n_accepted += 1
        if n_accepted % config.output_stride == 0:
            points.append((t, y))
        fac = _SAFETY * err_norm ** (-_PI_ALPHA) * err_prev**_PI_BETA if err_norm > 0 else _MAX_FACTOR
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, fac))
        err_prev = max(err_norm, 1e-10)
    if points[-1][0] != outcome[1]:
        points.append(outcome[1:])
    return points, outcome


def _bisect_event(f, t0, y0, h_acc, pred, time_tol):
    """Locate the earliest time in (t0, t0+h_acc] where pred flips to true,
    by bisection on the step length, re-integrating the bracketing step."""
    lo, hi = 0.0, h_acc
    y_hi = None
    while hi - lo > time_tol:
        mid = 0.5 * (lo + hi)
        result = _rk_step(f, t0, y0, mid)
        if result is None:
            # substep left the region; shrink toward the event from above
            hi = mid
            continue
        y_mid = result[0]
        if pred(t0 + mid, y_mid):
            hi, y_hi = mid, y_mid
        else:
            lo = mid
    if y_hi is None:
        result = _rk_step(f, t0, y0, hi)
        y_hi = result[0] if result is not None else y0.copy()
    return t0 + hi, y_hi


def _planar_predicates(params, config):
    preds = []
    ctol = config.collapse_tol

    def collapsed(t, y):
        return y[0] <= ctol

    preds.append(("Collapse", collapsed))
    if config.equilib_tol is not None:
        etol = config.equilib_tol

        def at_equilibrium(t, y):
            fx, fy = vector_field(params, (y[0], y[1]))
            return math.hypot(fx, fy) / math.hypot(y[0], y[1]) <= etol

        preds.append(("Equilibrium", at_equilibrium))
    return preds


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
        return np.array(vector_field(params, (y[0], y[1])))

    points, (tag, t_ev, y_ev) = _advance(
        f, s0.t, np.array([s0.alpha, s0.beta]), s0.t + t_end,
        config, _planar_predicates(params, config),
    )
    samples = [_sample(params, t, y) for t, y in points]
    termination = _classify(params, config, tag, t_ev, y_ev, s0)
    return Trajectory(params=params, samples=samples, termination=termination)


def _sample(params, t, y):
    state = State(t=t, alpha=float(y[0]), beta=float(y[1]))
    return state, geometry_scalars(params, state.alpha, state.beta)


def _classify(params, config, tag, t_ev, y_ev, s0):
    if tag == "Collapse":
        alpha, beta = float(y_ev[0]), float(y_ev[1])
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
        return TerminationEvent("Equilibrium", t_ev, {"location": (float(y_ev[0]), float(y_ev[1]))})
    if tag == "StepUnderflow":
        return TerminationEvent("StepUnderflow", t_ev, {"last_state": (float(y_ev[0]), float(y_ev[1]))})
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
        return np.array([curve_speed(params, float(y[0]))])

    preds = []
    if config.equilib_tol is not None:
        etol = config.equilib_tol
        preds.append(
            ("Equilibrium", lambda t, y: abs(curve_speed(params, float(y[0]))) / abs(y[0]) <= etol)
        )
    points, _ = _advance(f, 0.0, np.array([epsilon0]), t_end, config, preds)
    return [(t, float(y[0])) for t, y in points]
