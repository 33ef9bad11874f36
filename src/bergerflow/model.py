"""Pointwise geometric scalars of the Berger-sphere metric ansatz.

The metric is described by two positive scales: ``alpha`` along the Hopf
fiber and ``beta`` on the horizontal complement.  Everything here is a pure
function of the flow parameters and those two scales: the unit-volume
normalizing constant, the Riemannian volume, the diagonal components of the
(negative) energy gradient, the spinorial energy itself, and the two scalar
coefficients ``f`` and ``g`` through which the spinor enters.  The planar
field and the spinor coefficients of each flow kind come from straight-line
bodies.  Each :class:`FlowKind` member carries its flow's two bodies as the
attributes ``field`` and ``spinor``, assigned once below them: the one map
from a kind to its formulas, which ``dynamics.vector_field``,
:func:`spinor_coefficients`, :func:`geometry_scalars` and the start check
of :class:`FlowParams` call and the integrator's fused code inlines.  The
metric velocity is read off the field.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

PI_SQ = math.pi**2
TWO_PI_SQ = 2.0 * PI_SQ


class FlowKind(enum.Enum):
    """Which flow; each member's ``field`` and ``spinor`` are its flow's bodies."""

    COLLAPSE = "collapse"
    NORMALIZED = "normalized"


# The two domain errors, each written once; callers test 0 < x < inf inline.
def _off_quadrant(x: float, y: float) -> ValueError:
    return ValueError(f"a point must lie in the open first quadrant, got ({x}, {y})")


def _off_half_line(epsilon: float) -> ValueError:
    return ValueError(f"epsilon must be positive and finite, got {epsilon}")


@dataclass(frozen=True)
class FlowParams:
    """Parameters selecting one of the two flows.

    ``a`` is the orientation constant (+-2).  ``kappa`` is the Killing
    constant of the initial spinor: +-1 for the collapse flow, +-1/2 for the
    volume-normalized flow.  ``epsilon`` is the initial fiber length scale,
    accepted where the field at the initial state is finite: up to about
    8.6e102 for the collapse flow, and from about 8.8e-243 (a*kappa = 1) or
    4.6e-186 (a*kappa = -1) up to about 3.4e92 for the normalized flow.
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
            raise _off_half_line(self.epsilon)
        # The field at the start: r = alpha/beta = epsilon there, which no
        # rescaling removes, and r^3/beta grows as epsilon^3 (collapse) or
        # epsilon^(10/3) (normalized).
        try:
            start = initial_state(self)
            dx, dy = self.kind.field(self, start.alpha, start.beta)
            finite = math.isfinite(dx) and math.isfinite(dy)
        except (ArithmeticError, ValueError):  # ValueError: State rejects a start at 0 or inf
            finite = False
        if not finite:
            raise ValueError(f"epsilon must keep the field finite at the start, got {self.epsilon}")

    @property
    def product(self) -> float:
        """The sign-invariant product a*kappa (+-2 collapse, +-1 normalized)."""
        return self.a * self.kappa


@dataclass(frozen=True)
class State:
    """A point on a flow trajectory: a finite time plus the two metric
    scales, both positive and finite.  A State carries no derivative: a
    trajectory keeps the field's value at each of its samples, one per
    sample, in ``Trajectory.derivatives``.
    """

    t: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise ValueError(f"metric scales must be positive and finite, got ({self.alpha}, {self.beta})")
        if not math.isfinite(self.t):
            raise ValueError(f"time must be finite, got {self.t}")


def initial_state(params: FlowParams) -> State:
    """Starting point of the flow for the given parameters."""
    if params.kind is FlowKind.COLLAPSE:
        return State(t=0.0, alpha=params.epsilon, beta=1.0)
    return State(0.0, *curve_point(params.epsilon))


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
    if not 0 < epsilon < math.inf:
        raise _off_half_line(epsilon)
    x = TWO_PI_SQ * epsilon
    if not sys.float_info.min <= x < math.inf:  # overflowed or subnormal: take the powers apart
        return TWO_PI_SQ ** (-2.0 / 3.0) * epsilon ** (-2.0 / 3.0)
    return x ** (-2.0 / 3.0)


def curve_point(epsilon: float) -> tuple[float, float]:
    """Point (epsilon*s, s), s = sqrt(c(epsilon)), of the unit-volume curve:
    the one place the unit-volume point is formed, so the normalized start,
    its closed forms and the equilibria are the same floats."""
    s = math.sqrt(normalizing_constant(epsilon))
    return epsilon * s, s


def curve_tangent(epsilon: float) -> tuple[float, float]:
    """Derivative of :func:`curve_point` with respect to epsilon: s' = -s/(3 epsilon)."""
    s = math.sqrt(normalizing_constant(epsilon))
    return 2.0 * s / 3.0, -s / (3.0 * epsilon)


def volume(alpha: float, beta: float) -> float:
    """Riemannian volume of the 3-sphere with fiber/base scales (alpha, beta)."""
    return TWO_PI_SQ * alpha * beta**2


# The planar field (dalpha, dbeta) = (alpha q00 / 2, beta q11 / 2) of each
# flow kind: the one place the flow's coefficients are written, each with
# its 1/2; geometry_scalars reads q off it.  Homogeneous of degree -1, each
# component is a Horner polynomial in r = alpha/beta divided by beta, plus,
# for the normalized flow, a term in 1/alpha or beta/alpha^2.  Fused code
# runs the lines above "# per point" once per run, those below it at every
# stage, and stores the returned pair straight into its stage names.
def _collapse_field(params: FlowParams, alpha: float, beta: float):
    a, lam = params.a, params.kappa
    c3 = -9.0 / 128.0 * a * a
    c2 = 1.0 / 4.0 * a * lam
    c1 = -1.0 / 4.0 * lam * lam
    d2 = 3.0 / 128.0 * a * a
    d1 = -1.0 / 16.0 * a * lam
    # per point
    r = alpha / beta
    return (
        ((c3 * r + c2) * r + c1) * r / beta,  # dalpha
        (d2 * r + d1) * r / beta,  # dbeta
    )


# The q and e6 polynomials stay apart and are summed: on the diagonal r = 1
# each sums exactly, so every round sphere stays an exact rest point of the
# a*kappa = 1 field.  e6 enters dalpha times r and dbeta as it is.
def _normalized_field(params: FlowParams, alpha: float, beta: float):
    a, mu = params.a, params.kappa
    m = mu - a / 4.0
    n = a / 4.0 + mu
    c3 = -9.0 / 128.0 * a * a
    c2 = a * a / 16.0 + a * mu / 4.0
    c1 = -1.0 / 4.0 * mu * mu - 3.0 / 16.0 * a * mu
    d2 = 3.0 / 128.0 * a * a
    d1 = -a * a / 64.0 - a * mu / 16.0
    e2 = a * a / 128.0
    e1 = -a * n / 24.0
    e0 = a * m / 48.0 + n * n / 12.0
    xw = m * m / 6.0
    yw = -m * m / 12.0
    # per point
    r = alpha / beta
    e6 = (e2 * r + e1) * r + e0
    return (
        (((c3 * r + c2) * r + c1) + e6) * r / beta + xw / alpha,  # dalpha
        ((d2 * r + d1) * r + e6) / beta + yw * beta / (alpha * alpha),  # dbeta
    )


def _spinor_collapse(params: FlowParams, alpha: float, beta: float):
    a, kappa = params.a, params.kappa
    # per point
    b2 = beta**2
    f = 1.0 / 4.0 * alpha / b2 * a
    g = kappa / beta - f
    return f, g


def _spinor_normalized(params: FlowParams, alpha: float, beta: float):
    a, kappa = params.a, params.kappa
    fw = kappa - a / 4.0
    gr = -a / 4.0
    # per point
    b2 = beta**2
    f = fw / alpha + 1.0 / 4.0 * alpha / b2 * a
    g = (gr * (alpha / beta - 1.0) + kappa) / beta
    return f, g


# The one map from a flow kind to its formulas.  Member attributes, not a
# dict keyed by kind: an Enum's __hash__ runs in Python, once per call.
FlowKind.COLLAPSE.field, FlowKind.COLLAPSE.spinor = _collapse_field, _spinor_collapse
FlowKind.NORMALIZED.field, FlowKind.NORMALIZED.spinor = _normalized_field, _spinor_normalized


def spinor_coefficients(params: FlowParams, alpha: float, beta: float):
    """Scalar coefficients (f, g) of the spinor covariant derivative.

    ``f`` multiplies the fiber direction, ``g`` the two horizontal ones.
    Both flip sign under (a, kappa) -> (-a, -kappa); every other quantity
    in this module is invariant.
    """
    return params.kind.spinor(params, alpha, beta)


def energy(params: FlowParams, alpha: float, beta: float) -> float:
    """Spinorial energy: half the squared derivative norm times the volume.

    In the orthonormal frame the derivative norm squared is f^2 + 2 g^2,
    so the energy is pi^2 * alpha * beta^2 * (f^2 + 2 g^2).  Both fields are
    its negative L2-gradient, the normalized one made trace-free; verify's
    ``gradient_structure`` checks that by complex step, so scales may be complex.
    """
    f, g = spinor_coefficients(params, alpha, beta)
    return PI_SQ * alpha * beta**2 * (f * f + 2.0 * g * g)


def geometry_scalars(params: FlowParams, alpha: float, beta: float) -> GeometryScalars:
    """Bundle all per-point diagnostics for one trajectory sample.  Fused
    sample assembly fills the record's fields with the arguments of the
    return, in field order, whose names it binds: b2 = beta**2 the spinor
    body's, and (dalpha, dbeta) the field recorded with the sample."""
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise _off_quadrant(alpha, beta)
    f, g = spinor_coefficients(params, alpha, beta)
    dalpha, dbeta = params.kind.field(params, alpha, beta)
    b2 = beta**2
    # positional, in field order, which fused sample assembly pairs them with
    return GeometryScalars(
        TWO_PI_SQ * alpha * b2,  # volume
        # energy() on the (f, g) already at hand, with its exact expression
        PI_SQ * alpha * b2 * (f * f + 2.0 * g * g),
        2.0 * dalpha / alpha,  # q00, read off the field
        2.0 * dbeta / beta,  # q11
        f,
        g,
    )
