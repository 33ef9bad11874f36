"""Pointwise geometric scalars of the Berger-sphere metric ansatz.

The metric is described by two positive scales: ``alpha`` along the Hopf
fiber and ``beta`` on the horizontal complement.  Everything here is a pure
function of the flow parameters and those two scales: the unit-volume
normalizing constant, the Riemannian volume, the diagonal components of the
(negative) energy gradient, the spinorial energy itself, and the two scalar
coefficients ``f`` and ``g`` through which the spinor enters.  Each flow
kind's field and spinor coefficients, and the normalized flow's speed on
the unit-volume curve, are straight-line bodies that ``_body`` compiles
from their text and that keep it, so each integration run compiles the
same text into its step, and ``_samples`` into the sample builder beside
the records it fills; the field's reads the one table of its coefficients,
a row per kind and a*kappa.  Each :class:`FlowKind` member carries its
bodies as the attributes ``field``, ``spinor`` and (normalized) ``speed``,
assigned once below them: the one map from a kind to its formulas.  Every
body that a run or a public function evaluates is ``kind.field``,
``kind.spinor``, ``kind.speed`` or ``_scalars``.  A body set in a member's
place, such as a copy whose text counts its calls, reaches every reader:
the runs that start after it too.  The metric velocity is read off the field.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
import types

PI_SQ = math.pi**2
TWO_PI_SQ = 2.0 * PI_SQ


class FlowKind(enum.Enum):
    """Which flow; each member's ``field``, ``spinor`` and (normalized) ``speed`` are its flow's bodies."""

    COLLAPSE = "collapse"
    NORMALIZED = "normalized"


# The domain errors and the start rule, each written once; callers test 0 < x < inf inline.
def _off_quadrant(x: float, y: float) -> ValueError:
    return ValueError(f"a point must lie in the open first quadrant, got ({x}, {y})")


def _off_half_line(epsilon: float) -> ValueError:
    return ValueError(f"epsilon must be positive and finite, got {epsilon}")


def _field_at_start(field, y0, subject, value):
    """k0 = field(y0), the one start rule: finite, with y0[-1] <= sqrt(DBL_MAX), else ValueError naming value."""
    try:
        k0 = field(y0)
        finite = math.isfinite(k0[0]) and math.isfinite(k0[-1])
    except ArithmeticError:
        finite = False
    if not finite:
        raise ValueError(f"{subject}, got {value}")
    if not y0[-1] <= math.sqrt(sys.float_info.max):  # beta, whose square a sample takes, must not overflow
        raise ValueError(f"{subject} and beta**2 finite, got {value}")
    return k0


class _Record:
    """The base of the package's records: immutable values that repr, ==
    and hash read field by field.  A record names its fields in order in
    ``__match_args__``; its ``__init__`` checks its arguments and fills its
    instance dict in that order, which ``vars()`` and the pickled state
    keep.  ``_compared`` names the fields that repr, == and hash read: all
    of them, unless a record names fewer."""

    __match_args__: tuple[str, ...] = ()

    @property
    def _compared(self):
        return self.__match_args__

    def _values(self):
        return tuple([getattr(self, name) for name in self._compared])

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FlowParams(_Record):
    """Parameters selecting one of the two flows.

    ``a`` is the orientation constant (+-2).  ``kappa`` is the Killing
    constant of the initial spinor: +-1 for the collapse flow, +-1/2 for the
    volume-normalized flow.  ``epsilon`` is the initial fiber length scale,
    accepted where the one start rule, ``_field_at_start``, holds at the
    initial state: the field is finite, up to about 8.6e102 for the collapse
    flow and from about 8.8e-243 (a*kappa = 1) or 4.6e-186 (a*kappa = -1) up
    to about 3.4e92 for the normalized flow, and beta <= 1.8e80 < sqrt(DBL_MAX).
    All dynamics depend on (a, kappa) only through the product ``a*kappa``
    (and the fixed squares), so flipping both signs changes nothing except
    the signs of the coefficients f and g.
    """

    __match_args__ = ("kind", "a", "kappa", "epsilon")

    def __init__(self, kind: FlowKind, a: float, kappa: float, epsilon: float):
        vars(self).update(kind=kind, a=a, kappa=kappa, epsilon=epsilon)  # first: the start rule reads the record
        # Messages start with the field name, which the CLI turns into
        # the name of its flag.
        if a not in (-2.0, 2.0):
            raise ValueError(f"a (the orientation constant) must be 2 or -2, got {a}")
        if kind is FlowKind.COLLAPSE:
            if kappa not in (-1.0, 1.0):
                raise ValueError(f"kappa must be 1 or -1 for the collapse flow, got {kappa}")
        elif kind is FlowKind.NORMALIZED:
            if kappa not in (-0.5, 0.5):
                raise ValueError(f"kappa must be 1/2 or -1/2 for the normalized flow, got {kappa}")
        else:
            raise ValueError(f"unknown flow kind {kind!r}")
        if not 0 < epsilon < math.inf:
            raise _off_half_line(epsilon)
        # The field at the start: r = alpha/beta = epsilon there, which no
        # rescaling removes, and r^3/beta grows as epsilon^3 (collapse) or
        # epsilon^(10/3) (normalized).
        start = initial_state(self)
        subject = "epsilon must keep the field finite at the start"
        _field_at_start(lambda y: kind.field(self, *y), (start.alpha, start.beta), subject, epsilon)

    @property
    def product(self) -> float:
        """The sign-invariant product a*kappa (+-2 collapse, +-1 normalized)."""
        return self.a * self.kappa


class State(_Record):
    """A point on a flow trajectory: a finite time plus the two metric
    scales, both positive and finite.  A State carries no derivative: a
    trajectory keeps the field's value at each of its samples, one per
    sample, in ``Trajectory.derivatives``.
    """

    __match_args__ = ("t", "alpha", "beta")

    def __init__(self, t: float, alpha: float, beta: float):
        if not (0 < alpha < math.inf and 0 < beta < math.inf):
            raise ValueError(f"metric scales must be positive and finite, got ({alpha}, {beta})")
        if not math.isfinite(t):
            raise ValueError(f"time must be finite, got {t}")
        vars(self).update(t=t, alpha=alpha, beta=beta)


def initial_state(params: FlowParams) -> State:
    """Starting point of the flow for the given parameters."""
    if params.kind is FlowKind.COLLAPSE:
        return State(t=0.0, alpha=params.epsilon, beta=1.0)
    return State(0.0, *curve_point(params.epsilon))


class GeometryScalars(_Record):
    """Per-sample diagnostics along a trajectory.

    ``q00``/``q11`` are the diagonal components of the metric velocity in
    the orthonormal frame (the volume-corrected ones for the normalized
    flow); the remaining diagonal entry equals ``q11`` and off-diagonal
    entries vanish.
    """

    __match_args__ = ("volume", "energy", "q00", "q11", "f", "g")

    def __init__(self, volume: float, energy: float, q00: float, q11: float, f: float, g: float):
        vars(self).update(volume=volume, energy=energy, q00=q00, q11=q11, f=f, g=g)


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


def _indented(*texts, indent="    "):
    """The lines of texts, each prefixed with indent."""
    return [indent + line for text in texts if text for line in text.split("\n")]


def _compiled(module, lines, namespace):
    """The globals of a new module named module after lines ran there from
    namespace, so they hold what lines define.  Its loader keeps the text,
    which linecache asks for when inspect or a traceback shows it.  Bodies,
    steps and sample builders are all compiled here."""
    source = "\n".join(lines) + "\n"
    compiled = types.ModuleType(module)
    compiled.__loader__ = types.SimpleNamespace(get_source=lambda _name: source)
    vars(compiled).update(namespace)
    exec(compile(source, module, "exec"), vars(compiled))
    sys.modules[module] = compiled
    return vars(compiled)


def _body(name, args, head, point, value, **env):
    """The function name(params, args), compiled with globals env from its
    text: the lines head, which read params alone, the lines point, then
    return value.  It keeps that text as its attribute text, which the
    integrator compiles too, head once per run and point and value at each
    stage or sample, so both evaluate the same expressions in the same
    order and give the same bits."""
    text = types.SimpleNamespace(args=args, head=head.strip(), point=point.strip(), value=value, env=env)
    lines = [f"def {name}(params, {args}):", *_indented(text.head, text.point, f"return {value}")]
    function = _compiled(f"{__name__}.{name}", lines, env)[name]
    function.text = text
    return function


# The planar field (dalpha, dbeta) = (alpha q00 / 2, beta q11 / 2) of each
# flow kind; geometry_scalars reads q off it.  These rows are the one place
# its coefficients are written, each with its 1/2: a row per kind and p =
# a*kappa, on which alone they depend, each entry its rational in p (README).
# Homogeneous of degree -1, each component is a Horner polynomial in r =
# alpha/beta divided by beta, plus, for the normalized flow, a term in 1/alpha
# or beta/alpha^2.
_COLLAPSE_ROWS = {  # c3, c2, c1, d2, d1
    2.0: (-9 / 32, 1 / 2, -1 / 4, 3 / 32, -1 / 8),
    -2.0: (-9 / 32, -1 / 2, -1 / 4, 3 / 32, 1 / 8),
}
_NORMALIZED_ROWS = {  # c3, c2, c1, d2, d1, e2, e1, e0, xw, yw
    1.0: (-9 / 32, 1 / 2, -1 / 4, 3 / 32, -1 / 8, 1 / 32, -1 / 12, 1 / 12, 0.0, -0.0),
    -1.0: (-9 / 32, 0.0, 1 / 8, 3 / 32, 0.0, 1 / 32, -0.0, -1 / 24, 1 / 6, -1 / 12),
}

# Each body below is _body's name, point arguments, head, point and value.
_collapse_field = _body("_collapse_field", "alpha, beta", """
c3, c2, c1, d2, d1 = _COLLAPSE_ROWS[params.product]""", """
r = alpha / beta""", """(
    ((c3 * r + c2) * r + c1) * r / beta,  # dalpha
    (d2 * r + d1) * r / beta,  # dbeta
)""", _COLLAPSE_ROWS=_COLLAPSE_ROWS)

# The q and e6 polynomials stay apart and are summed: on the diagonal r = 1
# each sums exactly, so every round sphere stays an exact rest point of the
# a*kappa = 1 field.  e6 enters dalpha times r and dbeta as it is.
_normalized_field = _body("_normalized_field", "alpha, beta", """
c3, c2, c1, d2, d1, e2, e1, e0, xw, yw = _NORMALIZED_ROWS[params.product]""", """
r = alpha / beta
e6 = (e2 * r + e1) * r + e0""", """(
    (((c3 * r + c2) * r + c1) + e6) * r / beta + xw / alpha,  # dalpha
    ((d2 * r + d1) * r + e6) / beta + yw * beta / (alpha * alpha),  # dbeta
)""", _NORMALIZED_ROWS=_NORMALIZED_ROWS)

_spinor_collapse = _body("_spinor_collapse", "alpha, beta", """
a, kappa = params.a, params.kappa""", """
b2 = beta**2
f = 1.0 / 4.0 * alpha / b2 * a
g = kappa / beta - f""", "f, g")

_spinor_normalized = _body("_spinor_normalized", "alpha, beta", """
a, kappa = params.a, params.kappa
fw = kappa - a / 4.0
gr = -a / 4.0""", """
b2 = beta**2
f = fw / alpha + 1.0 / 4.0 * alpha / b2 * a
g = (gr * (alpha / beta - 1.0) + kappa) / beta""", "f, g")

# The normalized flow's speed k(epsilon) on the unit-volume curve; e2 = epsilon^2 is bound in one branch.
_SPEED_SCALE = TWO_PI_SQ ** (2.0 / 3.0) / 8.0
_curve_speed = _body("_curve_speed", "epsilon", """
plus = params.product == 1.0""", "", """(
    _SPEED_SCALE * epsilon ** (5.0 / 3.0) * ((-3.0 * epsilon + 5.0) * epsilon - 2.0)
    if plus
    else _SPEED_SCALE * epsilon ** (-1.0 / 3.0) * ((-3.0 * (e2 := epsilon * epsilon) + 1.0) * e2 + 2.0)
)""", _SPEED_SCALE=_SPEED_SCALE)

# The one map from a flow kind to its formulas.  Member attributes, not a
# dict keyed by kind: an Enum's __hash__ runs in Python, once per call.
FlowKind.COLLAPSE.field, FlowKind.COLLAPSE.spinor = _collapse_field, _spinor_collapse
FlowKind.NORMALIZED.field, FlowKind.NORMALIZED.spinor = _normalized_field, _spinor_normalized
FlowKind.NORMALIZED.speed = _curve_speed  # the collapse flow has no reduced dynamics


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


# The record geometry_scalars returns, its fields in order.  _samples fills
# a record with this value, b2, f and g bound by the spinor body's point
# lines.
_scalars = _body("_scalars", "alpha, beta, b2, f, g, dalpha, dbeta", "", "", """(
    TWO_PI_SQ * alpha * b2,  # volume
    PI_SQ * alpha * b2 * (f * f + 2.0 * g * g),  # energy() on the (f, g) at hand, with its exact expression
    2.0 * dalpha / alpha,  # q00, read off the field
    2.0 * dbeta / beta,  # q11
    f,
    g,
)""", PI_SQ=PI_SQ, TWO_PI_SQ=TWO_PI_SQ)


def geometry_scalars(params: FlowParams, alpha: float, beta: float) -> GeometryScalars:
    """Bundle all per-point diagnostics for one trajectory sample: the
    record _scalars gives on the (f, g) of spinor_coefficients and the field."""
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise _off_quadrant(alpha, beta)
    f, g = spinor_coefficients(params, alpha, beta)
    dalpha, dbeta = params.kind.field(params, alpha, beta)
    return GeometryScalars(*_scalars(params, alpha, beta, beta**2, f, g, dalpha, dbeta))


@functools.cache
def _samples(spinor, record):
    """Compile, the first time a run needs it, samples(params, points),
    named after both bodies, for the spinor body of a flow kind and the
    record body: one function for both signs of a*kappa.  It returns the
    bits of [(State(t, *y), geometry_scalars(params, *y)) for t, y, _ in
    points] on points State admits: the start, which integrate checks, and
    states a step or the event search admitted.  It runs the spinor body's
    head once, then at each point its point lines, takes (dalpha, dbeta)
    from the point's derivative and builds each record with no call to its
    __init__: object.__new__, then its instance dict filled in the order of
    __match_args__, State's with t, alpha and beta, the other with the
    record body's value, the record geometry_scalars returns."""
    name, spinor, record = f"_samples{spinor.__name__}{record.__name__}", spinor.text, record.text
    namespace = {**spinor.env, **record.env, "State": State, "GeometryScalars": GeometryScalars, "new": object.__new__}
    lines = [f"def {name}(params, points):", *_indented(spinor.head), "    samples = []"]
    lines += ["    for t, (alpha, beta), (dalpha, dbeta) in points:", *_indented(spinor.point, indent=" " * 8)]
    for var, cls, value in (("state", State, "t, alpha, beta"), ("scalars", GeometryScalars, record.value)):
        filled = ", ".join(f"dct[{field!r}]" for field in cls.__match_args__)
        lines += [f"        {var} = new({cls.__name__})", f"        dct = {var}.__dict__"]
        lines += _indented(f"{filled} = {value}", indent=" " * 8)
    lines += ["        samples.append((state, scalars))", "    return samples"]
    return _compiled(f"{__name__}.{name}", lines, namespace)[name]
