"""Planar vector fields of both flows and their exactly known solutions.

The flow of the metric scales (alpha, beta) is a planar ODE on the open
first quadrant.  This module evaluates the right-hand sides, the handful of
closed-form solutions, the speed along the unit-volume curve (formed in
``model``) on which the normalized flow reduces to a one-dimensional ODE,
and the equilibria of that reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    TWO_PI_SQ,
    FlowKind,
    FlowParams,
    State,
    _off_half_line,
    _off_quadrant,
    curve_point,
    curve_tangent,
)


@dataclass(frozen=True)
class Equilibrium:
    """An equilibrium of the reduced unit-volume dynamics: its curve
    parameter, its point on the unit-volume curve and its stability."""

    epsilon_star: float
    point: tuple[float, float]
    stability: str  # "attracting" | "repelling"


def vector_field(params: FlowParams, point) -> tuple[float, float]:
    """Right-hand side (dx, dy) of the flow at a first-quadrant point.

    Half the scale times the diagonal metric-velocity component, evaluated
    by the flow kind's straight-line body ``params.kind.field`` as a
    polynomial in alpha/beta over beta; :func:`explicit_rhs` carries the
    multiplied-out coefficients as an independent cross-check.  The
    integrator's fused steps inline the body.
    """
    alpha, beta = point
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise _off_quadrant(alpha, beta)
    return params.kind.field(params, alpha, beta)


def explicit_rhs(params: FlowParams, point) -> tuple[float, float]:
    """The same right-hand side with all coefficients multiplied through.

    Kept separate from :func:`vector_field` so transcription errors in
    either form are caught by comparing the two.
    """
    x, y = point
    if not (0 < x < math.inf and 0 < y < math.inf):
        raise _off_quadrant(x, y)
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


def closed_form(params: FlowParams, t: float) -> State | None:
    """Exact solution state at time t for a start exactly on a ray the flow
    keeps; None for any other start, however close.

    The normalized flow rests at an ``equilibria`` root.  The collapse flow
    at a*kappa = 2 shrinks the rays epsilon = 1 and 2/3 to a point at
    T = 16 and 12: beta = sqrt(1 - t/T), alpha = epsilon * beta.  Raises
    ValueError for t >= T, where the solution no longer exists.
    """
    eps = params.epsilon
    if params.kind is FlowKind.NORMALIZED:
        return State(t, *curve_point(eps)) if eps in _ROOTS[params.product] else None
    if params.product != 2.0 or eps not in (1.0, 2.0 / 3.0):
        return None
    T = 16.0 if eps == 1.0 else 12.0
    if t >= T:
        raise ValueError(f"solution only exists for t < {T:g}, got t={t}")
    beta = math.sqrt(T * T - T * t) / T  # not sqrt(1 - t/T): this rounds as sqrt(16 - t)/4, sqrt(36 - 3t)/6 do
    return State(t, eps * beta, beta)


_SPEED_SCALE = TWO_PI_SQ ** (2.0 / 3.0) / 8.0
_ROOTS = {1.0: (2.0 / 3.0, 1.0), -1.0: (1.0,)}  # the equilibria's epsilon by a*kappa, read by closed_form too


# The fused reduced step inlines this body; e2 = epsilon^2 is bound only in the branch that uses it.
def _curve_speed(params: FlowParams, epsilon: float):
    plus = params.product == 1.0
    # per point
    return (
        _SPEED_SCALE * epsilon ** (5.0 / 3.0) * ((-3.0 * epsilon + 5.0) * epsilon - 2.0)
        if plus
        else _SPEED_SCALE * epsilon ** (-1.0 / 3.0) * ((-3.0 * (e2 := epsilon * epsilon) + 1.0) * e2 + 2.0)
    )


def curve_speed(params: FlowParams, epsilon: float) -> float:
    """Speed k(epsilon) of the normalized flow along the unit-volume curve.

    The field on the curve equals k(epsilon) times the curve tangent, so
    the curve parameter evolves by epsilon' = k(epsilon).
    """
    if params.kind is not FlowKind.NORMALIZED:
        raise ValueError("curve_speed requires normalized flow parameters")
    if not 0 < epsilon < math.inf:
        raise _off_half_line(epsilon)
    return _curve_speed(params, epsilon)


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
    the reduced speed k.  For a*kappa = 1 the factor -3e^2 + 5e - 2 =
    -(3e - 2)(e - 1) has roots 2/3 and 1; for a*kappa = -1 the factor
    -3e^4 + e^2 + 2 = -(3e^2 + 2)(e^2 - 1) has the single positive root 1.
    Each root is simple, so k changes sign there, and its sign just left of
    the root classifies it: positive is attracting, negative repelling.  The
    collapse flow has no isolated equilibrium: it raises ValueError.
    """
    if params.kind is FlowKind.COLLAPSE:
        raise ValueError(
            "the collapse flow has no isolated equilibria; its critical "
            "set is the degenerate boundary line of points (0, k) with k != 0"
        )
    return [
        Equilibrium(root, curve_point(root), "attracting" if curve_speed(params, root - 1e-4) > 0 else "repelling")
        for root in _ROOTS[params.product]
    ]
