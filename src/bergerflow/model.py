"""Pointwise geometric scalars of the Berger-sphere metric ansatz.

The metric is described by two positive scales: ``alpha`` along the Hopf
fiber and ``beta`` on the horizontal complement.  Everything here is a pure
function of the flow parameters and those two scales: the unit-volume
normalizing constant, the Riemannian volume, the diagonal components of the
(negative) energy gradient, the spinorial energy itself, and the two scalar
coefficients ``f`` and ``g`` through which the spinor enters.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

TWO_PI_SQ = 2.0 * math.pi**2


class FlowKind(enum.Enum):
    COLLAPSE = "collapse"
    NORMALIZED = "normalized"


@dataclass(frozen=True)
class FlowParams:
    """Parameters selecting one of the two flows.

    ``a`` is the orientation constant (+-2).  ``kappa`` is the Killing
    constant of the initial spinor: +-1 for the collapse flow, +-1/2 for the
    volume-normalized flow.  ``epsilon`` is the initial fiber length scale.
    All dynamics depend on (a, kappa) only through the product ``a*kappa``
    (and the fixed squares), so flipping both signs changes nothing except
    the signs of the coefficients f and g.
    """

    kind: FlowKind
    a: float
    kappa: float
    epsilon: float

    def __post_init__(self):
        # Messages start with the field name, which the CLI turns into
        # the name of its flag.
        if self.a not in (-2.0, 2.0):
            raise ValueError(f"a (the orientation constant) must be 2 or -2, got {self.a}")
        if self.kind is FlowKind.COLLAPSE:
            if self.kappa not in (-1.0, 1.0):
                raise ValueError(f"kappa must be 1 or -1 for the collapse flow, got {self.kappa}")
        elif self.kind is FlowKind.NORMALIZED:
            if self.kappa not in (-0.5, 0.5):
                raise ValueError(
                    f"kappa must be 1/2 or -1/2 for the normalized flow, got {self.kappa}"
                )
        else:
            raise ValueError(f"unknown flow kind {self.kind!r}")
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")

    @property
    def product(self) -> float:
        """The sign-invariant product a*kappa (+-2 collapse, +-1 normalized)."""
        return self.a * self.kappa


@dataclass(frozen=True)
class State:
    """A point on a flow trajectory: time plus the two metric scales."""

    t: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValueError(
                f"metric scales must be positive and finite, got ({self.alpha}, {self.beta})"
            )


@dataclass(frozen=True)
class GeometryScalars:
    """Per-sample diagnostics along a trajectory.

    ``q00``/``q11`` are the diagonal components of the metric velocity in
    the orthonormal frame (the volume-corrected ones for the normalized
    flow); the remaining diagonal entry equals ``q11`` and off-diagonal
    entries vanish.
    """

    volume: float
    energy: float
    q00: float
    q11: float
    f: float
    g: float


def normalizing_constant(epsilon: float) -> float:
    """Scale factor c(eps) making the eps-Berger metric have unit volume."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return (TWO_PI_SQ * epsilon) ** (-2.0 / 3.0)


def volume(alpha: float, beta: float) -> float:
    """Riemannian volume of the 3-sphere with fiber/base scales (alpha, beta)."""
    return TWO_PI_SQ * alpha * beta**2


def q1_collapse_components(params: FlowParams, alpha: float, beta: float):
    """Diagonal metric-velocity components (q00, q11) for the collapse flow.

    q22 equals q11 and all off-diagonal components vanish.
    """
    _require_kind(params, FlowKind.COLLAPSE)
    a, lam = params.a, params.kappa
    q00 = (
        -9.0 / 64.0 * alpha**2 / beta**4 * a * a
        + 1.0 / 2.0 * alpha / beta**3 * a * lam
        - 1.0 / 2.0 / beta**2 * lam * lam
    )
    q11 = 3.0 / 64.0 * alpha**2 / beta**4 * a * a - 1.0 / 8.0 * alpha / beta**3 * a * lam
    return q00, q11


def q1_normalized_components(params: FlowParams, alpha: float, beta: float):
    """Diagonal components (q00, q11) for the normalized flow, before the
    volume-conservation correction term (see :func:`energy_density_sixth`)."""
    _require_kind(params, FlowKind.NORMALIZED)
    a, mu = params.a, params.kappa
    m = mu - a / 4.0
    q00 = (
        1.0 / 4.0 / alpha**2 * m * m
        + (-1.0 / 2.0 * mu * mu - 3.0 / 8.0 * a * mu) / beta**2
        + alpha / beta**3 * (a * a / 8.0 + a * mu / 2.0)
        - 9.0 / 64.0 * alpha**2 / beta**4 * a * a
    )
    q11 = (
        -1.0 / 4.0 / alpha**2 * m * m
        + alpha / beta**3 * (-a * a / 32.0 - a * mu / 8.0)
        + 3.0 / 64.0 * alpha**2 / beta**4 * a * a
    )
    return q00, q11


def energy_density_sixth(params: FlowParams, alpha: float, beta: float) -> float:
    """One sixth of the energy per unit volume for the normalized flow.

    Adding this to each diagonal component of
    :func:`q1_normalized_components` gives the volume-corrected metric
    velocity of the normalized flow.
    """
    _require_kind(params, FlowKind.NORMALIZED)
    a, mu = params.a, params.kappa
    m = mu - a / 4.0
    p = a / 4.0 + mu
    return (
        1.0 / 12.0 * m * m / alpha**2
        + 1.0 / 64.0 * a * a * alpha**2 / beta**4
        + 1.0 / 24.0 * a * m / beta**2
        + 1.0 / 6.0 * p * p / beta**2
        - 1.0 / 12.0 * a * p * alpha / beta**3
    )


def metric_velocity(params: FlowParams, alpha: float, beta: float):
    """Diagonal components (q00, q11) of the metric velocity that drives the
    flow: the collapse components, or the normalized ones plus the
    volume-conservation correction."""
    if params.kind is FlowKind.COLLAPSE:
        return q1_collapse_components(params, alpha, beta)
    q00, q11 = q1_normalized_components(params, alpha, beta)
    e6 = energy_density_sixth(params, alpha, beta)
    return q00 + e6, q11 + e6


def spinor_coefficients(params: FlowParams, alpha: float, beta: float):
    """Scalar coefficients (f, g) of the spinor covariant derivative.

    ``f`` multiplies the fiber direction, ``g`` the two horizontal ones.
    Both flip sign under (a, kappa) -> (-a, -kappa); every other quantity
    in this module is invariant.
    """
    a, kappa = params.a, params.kappa
    if params.kind is FlowKind.COLLAPSE:
        f = 1.0 / 4.0 * alpha / beta**2 * a
        g = kappa / beta - f
    else:
        f = (kappa - a / 4.0) / alpha + 1.0 / 4.0 * alpha / beta**2 * a
        g = (-a / 4.0 * (alpha / beta - 1.0) + kappa) / beta
    return f, g


def energy(params: FlowParams, alpha: float, beta: float) -> float:
    """Spinorial energy: half the squared derivative norm times the volume.

    In the orthonormal frame the derivative norm squared is f^2 + 2 g^2,
    so the energy is pi^2 * alpha * beta^2 * (f^2 + 2 g^2).
    """
    f, g = spinor_coefficients(params, alpha, beta)
    return math.pi**2 * alpha * beta**2 * (f * f + 2.0 * g * g)


def geometry_scalars(params: FlowParams, alpha: float, beta: float) -> GeometryScalars:
    """Bundle all per-point diagnostics for one trajectory sample."""
    f, g = spinor_coefficients(params, alpha, beta)
    q00, q11 = metric_velocity(params, alpha, beta)
    return GeometryScalars(
        volume=volume(alpha, beta),
        # energy() on the (f, g) already at hand, with its exact expression
        energy=math.pi**2 * alpha * beta**2 * (f * f + 2.0 * g * g),
        q00=q00,
        q11=q11,
        f=f,
        g=g,
    )


def _require_kind(params: FlowParams, kind: FlowKind):
    if params.kind is not kind:
        raise ValueError(f"operation requires {kind.value} flow parameters, got {params.kind.value}")
