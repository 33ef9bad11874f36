"""Planar vector fields of both flows and their exactly known solutions.

The flow of the metric scales (alpha, beta) is a planar ODE on the open
first quadrant.  This module evaluates the right-hand sides, the handful of
closed-form solutions, the unit-volume curve on which the normalized flow
reduces to a one-dimensional ODE, and the equilibria of that reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    TWO_PI_SQ,
    FlowKind,
    FlowParams,
    State,
    metric_velocity,
    normalizing_constant,
)


@dataclass(frozen=True)
class Equilibrium:
    """An equilibrium of the reduced unit-volume dynamics.

    For the collapse flow the critical set is the degenerate boundary line
    {(0, k) : k != 0}; it is reported with ``stability="degenerate-line"``
    and no curve parameter.
    """

    epsilon_star: float | None
    point: tuple[float, float] | None
    stability: str  # "attracting" | "repelling" | "degenerate-line"


def _check_point(x: float, y: float):
    if not (x > 0 and y > 0):
        raise ValueError(f"vector field is only defined on the open first quadrant, got ({x}, {y})")


def vector_field(params: FlowParams, point) -> tuple[float, float]:
    """Right-hand side (dx, dy) of the flow at a first-quadrant point.

    Assembled as half the scale times the diagonal metric-velocity
    component, which is the form in which the planar reduction is exactly
    self-consistent; :func:`explicit_rhs` carries the multiplied-out
    coefficients as an independent cross-check.
    """
    x, y = point
    _check_point(x, y)
    q00, q11 = metric_velocity(params, x, y)
    return 0.5 * x * q00, 0.5 * y * q11


def explicit_rhs(params: FlowParams, point) -> tuple[float, float]:
    """The same right-hand side with all coefficients multiplied through.

    Kept separate from :func:`vector_field` so transcription errors in
    either form are caught by comparing the two.
    """
    x, y = point
    _check_point(x, y)
    if params.kind is FlowKind.COLLAPSE:
        a, lam = params.a, params.kappa
        dx = (
            -9.0 / 128.0 * x**3 / y**4 * a * a
            + 1.0 / 4.0 * x * x / y**3 * a * lam
            - 1.0 / 4.0 * x / y**2 * lam * lam
        )
        dy = 3.0 / 128.0 * x * x / y**3 * a * a - 1.0 / 16.0 * x / y**2 * a * lam
        return dx, dy
    p = params.product
    if p == 1.0:
        dx = -1.0 / 4.0 * x**3 / y**4 + 5.0 / 12.0 * x * x / y**3 - 1.0 / 6.0 * x / y**2
        dy = 1.0 / 8.0 * x * x / y**3 - 5.0 / 24.0 * x / y**2 + 1.0 / 12.0 / y
    else:
        dx = -1.0 / 4.0 * x**3 / y**4 + 1.0 / 12.0 * x / y**2 + 1.0 / 6.0 / x
        dy = 1.0 / 8.0 * x * x / y**3 - 1.0 / 12.0 * y / (x * x) - 1.0 / 24.0 / y
    return dx, dy


def initial_state(params: FlowParams) -> State:
    """Starting point of the flow for the given parameters."""
    if params.kind is FlowKind.COLLAPSE:
        return State(t=0.0, alpha=params.epsilon, beta=1.0)
    s = math.sqrt(normalizing_constant(params.epsilon))
    return State(t=0.0, alpha=s * params.epsilon, beta=s)


def closed_form(params: FlowParams, t: float) -> State | None:
    """Exact solution state at time t, for the parameter combinations that
    admit one; None otherwise.

    Raises ValueError if t lies beyond the finite existence interval of the
    two blow-down solutions.
    """
    p = params.product
    eps = params.epsilon
    if params.kind is FlowKind.COLLAPSE and p == 2.0:
        if math.isclose(eps, 1.0, rel_tol=1e-12):
            if t >= 16.0:
                raise ValueError(f"solution only exists for t < 16, got t={t}")
            s = 0.25 * math.sqrt(16.0 - t)
            return State(t=t, alpha=s, beta=s)
        if math.isclose(eps, 2.0 / 3.0, rel_tol=1e-12):
            if t >= 12.0:
                raise ValueError(f"solution only exists for t < 12, got t={t}")
            b = math.sqrt(36.0 - 3.0 * t) / 6.0
            return State(t=t, alpha=2.0 / 3.0 * b, beta=b)
        return None
    if params.kind is FlowKind.NORMALIZED:
        if math.isclose(eps, 1.0, rel_tol=1e-12):
            s = math.sqrt(normalizing_constant(1.0))
            return State(t=t, alpha=s, beta=s)
        if p == 1.0 and math.isclose(eps, 2.0 / 3.0, rel_tol=1e-12):
            s = math.sqrt(normalizing_constant(2.0 / 3.0))
            return State(t=t, alpha=2.0 / 3.0 * s, beta=s)
        return None
    return None


def curve_point(epsilon: float) -> tuple[float, float]:
    """Point of the unit-volume curve with curve parameter epsilon."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    c = TWO_PI_SQ ** (-1.0 / 3.0)
    return c * epsilon ** (2.0 / 3.0), c * epsilon ** (-1.0 / 3.0)


def curve_tangent(epsilon: float) -> tuple[float, float]:
    """Derivative of :func:`curve_point` with respect to epsilon."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    c = TWO_PI_SQ ** (-1.0 / 3.0)
    return c * 2.0 / 3.0 * epsilon ** (-1.0 / 3.0), -c / 3.0 * epsilon ** (-4.0 / 3.0)


def curve_speed(params: FlowParams, epsilon: float) -> float:
    """Speed k(epsilon) of the normalized flow along the unit-volume curve.

    The field on the curve equals k(epsilon) times the curve tangent, so
    the curve parameter evolves by epsilon' = k(epsilon).
    """
    if params.kind is not FlowKind.NORMALIZED:
        raise ValueError("curve_speed requires normalized flow parameters")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    c = TWO_PI_SQ ** (2.0 / 3.0) / 8.0
    if params.product == 1.0:
        return c * epsilon ** (5.0 / 3.0) * (-3.0 * epsilon**2 + 5.0 * epsilon - 2.0)
    return c * epsilon ** (-1.0 / 3.0) * (-3.0 * epsilon**4 + epsilon**2 + 2.0)


def tangency_residual(params: FlowParams, epsilon: float) -> float:
    """Norm of field(curve point) - k * curve tangent; zero when the field
    is exactly tangent to the unit-volume curve."""
    fx, fy = vector_field(params, curve_point(epsilon))
    k = curve_speed(params, epsilon)
    ux, uy = curve_tangent(epsilon)
    return math.hypot(fx - k * ux, fy - k * uy)


def equilibria(params: FlowParams) -> list[Equilibrium]:
    """Equilibria of the flow.

    Normalized flow: the exact positive roots of the polynomial factor of
    the reduced speed k, classified by the sign of k on either side.  For
    a*kappa = 1 the factor -3e^2 + 5e - 2 = -(3e - 2)(e - 1) has roots 2/3
    and 1; for a*kappa = -1 the factor -3e^4 + e^2 + 2 = -(3e^2 + 2)(e^2 - 1)
    has the single positive root 1.  Collapse flow: the degenerate boundary
    line, reported descriptively.
    """
    if params.kind is FlowKind.COLLAPSE:
        return [Equilibrium(epsilon_star=None, point=None, stability="degenerate-line")]
    roots = (2.0 / 3.0, 1.0) if params.product == 1.0 else (1.0,)
    out = []
    for root in roots:
        left = curve_speed(params, root - 1e-4)
        right = curve_speed(params, root + 1e-4)
        if left > 0 > right:
            stability = "attracting"
        elif left < 0 < right:
            stability = "repelling"
        else:
            stability = "degenerate-line"
        out.append(Equilibrium(epsilon_star=root, point=curve_point(root), stability=stability))
    return out
