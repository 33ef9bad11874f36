import dataclasses
import dis
import importlib
import inspect
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerflow import (
    FlowKind,
    FlowParams,
    GeometryScalars,
    State,
    energy,
    geometry_scalars,
    initial_state,
    normalizing_constant,
    spinor_coefficients,
    vector_field,
    volume,
)
from bergerflow.dynamics import curve_point
from bergerflow.model import _COLLAPSE_ROWS, _NORMALIZED_ROWS, _collapse_field, _normalized_field

TWO_PI_SQ = 2.0 * math.pi**2

COLLAPSE = FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=1.0, epsilon=1.0)
COLLAPSE_NEG = FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=-1.0, epsilon=1.0)
NORMALIZED = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=0.5, epsilon=1.0)
NORMALIZED_NEG = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=-0.5, epsilon=1.0)

scales = st.floats(0.1, 3.0)


def flipped(params):
    return FlowParams(params.kind, -params.a, -params.kappa, params.epsilon)


class TestFlowParams:
    def test_valid(self):
        assert COLLAPSE.product == 2.0
        assert NORMALIZED_NEG.product == -1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a=3.0, kappa=1.0, epsilon=1.0),
            dict(a=2.0, kappa=0.5, epsilon=1.0),  # collapse needs +-1
            dict(a=2.0, kappa=1.0, epsilon=0.0),
            dict(a=2.0, kappa=1.0, epsilon=-1.0),
            dict(a=2.0, kappa=1.0, epsilon=math.inf),
            dict(a=2.0, kappa=1.0, epsilon=math.nan),
        ],
    )
    def test_invalid_collapse(self, kwargs):
        with pytest.raises(ValueError):
            FlowParams(FlowKind.COLLAPSE, **kwargs)

    def test_invalid_normalized_kappa(self):
        with pytest.raises(ValueError):
            FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=1.0, epsilon=1.0)

    def test_kind_must_be_a_flow_kind(self):
        # the enum's value is not a kind
        with pytest.raises(ValueError, match="unknown flow kind 'collapse'"):
            FlowParams("collapse", a=2.0, kappa=1.0, epsilon=1.0)


@settings(max_examples=300)
@given(
    kind=st.sampled_from(FlowKind),
    a=st.sampled_from([2.0, -2.0]),
    kappa_sign=st.sampled_from([1.0, -1.0]),
    log_eps=st.floats(math.log(5e-324), math.log(1.7976931348623157e308)),
)
def test_accepted_epsilon_has_a_finite_field_at_the_start(kind, a, kappa_sign, log_eps):
    # rejection names epsilon; the documented domain is always accepted
    kappa = kappa_sign * (1.0 if kind is FlowKind.COLLAPSE else 0.5)
    eps = math.exp(log_eps)
    try:
        params = FlowParams(kind, a, kappa, eps)
    except ValueError as exc:
        assert str(exc).startswith("epsilon must keep the field finite at the start")
        assert not 1e-185 <= eps <= 3e92
        return
    start = initial_state(params)
    assert all(math.isfinite(v) for v in vector_field(params, (start.alpha, start.beta)))


class TestState:
    @pytest.mark.parametrize("alpha,beta", [(math.inf, 1.0), (1.0, math.inf)])
    def test_rejects_infinite_scale(self, alpha, beta):
        with pytest.raises(ValueError):
            State(t=0.0, alpha=alpha, beta=beta)

    @pytest.mark.parametrize(
        "alpha,beta,text",
        [
            (0.0, 1.0, "(0.0, 1.0)"),
            (1.0, math.inf, "(1.0, inf)"),
            (math.nan, 2.0, "(nan, 2.0)"),
        ],
    )
    def test_rejection_message(self, alpha, beta, text):
        with pytest.raises(ValueError) as info:
            State(0.5, alpha, beta)
        assert str(info.value) == f"metric scales must be positive and finite, got {text}"

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_time(self, t):
        with pytest.raises(ValueError) as info:
            State(t, 1.0, 1.0)
        assert str(info.value) == f"time must be finite, got {t}"


# Both records are plain frozen dataclasses, which fused sample assembly
# builds without their generated __init__; the behaviour that __init__ and
# the rest of the dataclass machinery give is pinned here.
RECORDS = [
    (State, (0.5, 1.25, 2.0), "State(t=0.5, alpha=1.25, beta=2.0)"),
    (
        GeometryScalars,
        (1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
        "GeometryScalars(volume=1.0, energy=2.0, q00=3.0, q11=4.0, f=5.0, g=6.0)",
    ),
]


@pytest.mark.parametrize("cls,values,text", RECORDS, ids=["State", "GeometryScalars"])
class TestRecordApi:
    def test_fields_in_order(self, cls, values, text):
        names = [f.name for f in dataclasses.fields(cls)]
        assert names == {State: ["t", "alpha", "beta"],
                         GeometryScalars: ["volume", "energy", "q00", "q11", "f", "g"]}[cls]
        assert cls.__match_args__ == tuple(names)
        record = cls(**dict(zip(names, values)))
        assert record == cls(*values)
        assert vars(record) == dict(zip(names, values))

    def test_repr_eq_hash(self, cls, values, text):
        record = cls(*values)
        assert repr(record) == text
        assert record == cls(*values)
        assert record != cls(*values[:-1], values[-1] + 1.0)
        assert hash(record) == hash(values)
        assert dataclasses.astuple(record) == values

    def test_pickle_and_replace(self, cls, values, text):
        record = cls(*values)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(record, protocol)) == record
        last = dataclasses.fields(cls)[-1].name
        moved = dataclasses.replace(record, **{last: 7.0})
        assert dataclasses.astuple(moved) == (*values[:-1], 7.0)

    def test_frozen(self, cls, values, text):
        record = cls(*values)
        for f in dataclasses.fields(cls):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, f.name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.extra = 1.0
        assert dataclasses.astuple(record) == values

    def test_missing_argument(self, cls, values, text):
        last = dataclasses.fields(cls)[-1].name
        with pytest.raises(TypeError) as info:
            cls(*values[:-1])
        assert str(info.value) == (
            f"{cls.__name__}.__init__() missing 1 required positional argument: '{last}'"
        )


@pytest.mark.parametrize("fn", [spinor_coefficients, geometry_scalars], ids=lambda fn: fn.__name__)
def test_per_point_functions_dispatch_without_testing_the_kind(fn):
    # a per-point function calls params.kind's body; it never compares kinds
    assert "FlowKind" not in fn.__code__.co_names


class TestNormalizingConstant:
    def test_unit_base(self):
        assert normalizing_constant(1.0 / TWO_PI_SQ) == pytest.approx(1.0, abs=1e-15)

    def test_values(self):
        assert normalizing_constant(1.0) == pytest.approx(0.1369137, abs=1e-7)
        assert normalizing_constant(2.0 / 3.0) == pytest.approx(0.1794, abs=1e-4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            normalizing_constant(0.0)
        with pytest.raises(ValueError):
            normalizing_constant(-2.0)

    def test_inverts_volume(self):
        # c(eps) is defined so the rescaled metric has unit volume
        import numpy as np

        rng = np.random.default_rng(7)
        for eps in rng.uniform(0.01, 100.0, size=100):
            s = math.sqrt(normalizing_constant(eps))
            assert abs(volume(s * eps, s) - 1.0) <= 1e-14

    @pytest.mark.parametrize("eps", [5e-324, 1e-310, 1e307, 1.7976931348623157e308])
    def test_holds_where_two_pi_sq_eps_is_not_a_normal_float(self, eps):
        # 2 pi^2 eps overflows from about 9.1e306 and is subnormal below
        # about 1.1e-309; c(eps) stays positive with unit volume
        s = math.sqrt(normalizing_constant(eps))
        assert abs(volume(s * eps, s) - 1.0) <= 1e-13


class TestVolume:
    def test_round_sphere(self):
        assert volume(1.0, 1.0) == pytest.approx(TWO_PI_SQ, rel=1e-15)

    def test_scaled_fiber(self):
        assert volume(0.5, 1.0) == pytest.approx(math.pi**2, rel=1e-15)

    def test_normalized_point(self):
        s = math.sqrt(normalizing_constant(1.0))
        assert volume(s, s) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("params", [COLLAPSE, NORMALIZED], ids=["collapse", "normalized"])
@pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (-1.0, 1.0), (1.0, math.inf), (math.nan, 1.0)])
def test_geometry_scalars_rejects_a_point_off_the_quadrant(params, alpha, beta):
    # one quadrant rule, with vector_field's message: off the quadrant there
    # is no metric, and (-1, 1) would read as a negative volume
    with pytest.raises(ValueError) as want:
        vector_field(params, (alpha, beta))
    with pytest.raises(ValueError, match=r"^a point must lie in the open first quadrant, got \(") as got:
        geometry_scalars(params, alpha, beta)
    assert str(got.value) == str(want.value)


class TestCollapseComponents:
    def test_round_point(self):
        got = geometry_scalars(COLLAPSE, 1.0, 1.0)
        assert (got.q00, got.q11) == (-1 / 16, -1 / 16)

    def test_negative_product(self):
        got = geometry_scalars(COLLAPSE_NEG, 1.0, 1.0)
        assert got.q00 == pytest.approx(-33 / 16, rel=1e-15)
        assert got.q11 == pytest.approx(7 / 16, rel=1e-15)

    def test_matches_initial_slope(self):
        # (alpha/2) q00 at (2/3, 1) is the closed-form initial slope -1/36
        q00 = geometry_scalars(COLLAPSE, 2.0 / 3.0, 1.0).q00
        assert (2.0 / 3.0) / 2.0 * q00 == pytest.approx(-1 / 36, rel=1e-13)


class TestNormalizedComponents:
    # the layered reference for q before the volume correction e6
    def test_killing_case(self):
        # mu - a/4 = 0 kills the extra terms, matching the collapse value
        q00, _ = reference_q1_normalized(NORMALIZED, 1.0, 1.0)
        assert q00 == pytest.approx(-1 / 16, rel=1e-14)

    def test_anti_killing_case(self):
        q00, _ = reference_q1_normalized(NORMALIZED_NEG, 1.0, 1.0)
        assert q00 == pytest.approx(1 / 4 + 1 / 4 - 9 / 16, rel=1e-14)


class TestEnergyDensity:
    # the layered reference for e6, to which test_energy_identity ties the spinor
    def test_unit_volume_round_point(self):
        s = math.sqrt(normalizing_constant(1.0))
        expected = TWO_PI_SQ ** (2.0 / 3.0) / 16.0
        assert reference_energy_density_sixth(NORMALIZED, s, s) == pytest.approx(expected, rel=1e-13)

    @given(s=st.floats(0.05, 10.0))
    def test_diagonal_simplification(self, s):
        # for the Killing case on the diagonal the expression is 1/(16 s^2)
        assert reference_energy_density_sixth(NORMALIZED, s, s) == pytest.approx(
            1.0 / (16.0 * s * s), rel=1e-12
        )


class TestSpinorCoefficients:
    def test_collapse_round_point(self):
        assert spinor_coefficients(COLLAPSE, 1.0, 1.0) == (0.5, 0.5)

    def test_normalized_limit_point(self):
        s = math.sqrt(normalizing_constant(1.0))
        f, g = spinor_coefficients(NORMALIZED, s, s)
        assert f == pytest.approx(0.5 / s, rel=1e-14)
        assert g == pytest.approx(0.5 / s, rel=1e-14)

    @given(s=st.floats(0.05, 10.0))
    def test_normalized_diagonal(self, s):
        _, g = spinor_coefficients(NORMALIZED, s, s)
        assert g == pytest.approx(0.5 / s, rel=1e-14)


class TestEnergy:
    def test_killing_spinor_oracle(self):
        # a unit-norm Killing spinor with constant mu/sqrt(c(1)) on a
        # unit-volume sphere: E = (1/2) * 3 * (mu/sqrt(c(1)))^2 * 1
        s = math.sqrt(normalizing_constant(1.0))
        oracle = 0.5 * 3.0 * (0.5 / s) ** 2 * 1.0
        assert energy(NORMALIZED, s, s) == pytest.approx(oracle, rel=1e-12)
        assert oracle == pytest.approx(3.0 / 8.0 * TWO_PI_SQ ** (2.0 / 3.0), rel=1e-13)

    def test_collapse_round_point(self):
        assert energy(COLLAPSE, 1.0, 1.0) == pytest.approx(0.75 * math.pi**2, rel=1e-14)

    def test_normalized_energy_volume_relation(self):
        import numpy as np

        rng = np.random.default_rng(3)
        for x, y in rng.uniform(0.1, 3.0, size=(200, 2)):
            lhs = energy(NORMALIZED_NEG, x, y)
            rhs = 6.0 * volume(x, y) * reference_energy_density_sixth(NORMALIZED_NEG, x, y)
            assert abs(lhs - rhs) / rhs <= 1e-12


@pytest.mark.parametrize("params", [COLLAPSE, COLLAPSE_NEG, NORMALIZED, NORMALIZED_NEG])
@settings(max_examples=200)
@given(x=scales, y=scales)
def test_sign_flip_symmetry(params, x, y):
    other = flipped(params)
    assert vector_field(params, (x, y)) == vector_field(other, (x, y))
    assert energy(params, x, y) == energy(other, x, y)
    f1, g1 = spinor_coefficients(params, x, y)
    f2, g2 = spinor_coefficients(other, x, y)
    assert (f1, g1) == (-f2, -g2)


@pytest.mark.parametrize("params", [NORMALIZED, NORMALIZED_NEG])
@settings(max_examples=200)
@given(x=scales, y=scales)
def test_energy_identity(params, x, y):
    f, g = spinor_coefficients(params, x, y)
    rhs = reference_energy_density_sixth(params, x, y)
    assert (f * f + 2 * g * g) / 12.0 == pytest.approx(rhs, rel=1e-12)


def test_geometry_scalars_bundle():
    s = math.sqrt(normalizing_constant(1.0))
    scalars = geometry_scalars(NORMALIZED, s, s)
    assert scalars.volume == pytest.approx(1.0, abs=1e-14)
    assert scalars.f == pytest.approx(scalars.g, rel=1e-14)
    # volume-corrected diagonal vanishes at the critical point
    assert abs(scalars.q00) <= 1e-14
    assert abs(scalars.q11) <= 1e-14



@settings(max_examples=50, deadline=None)
@given(alpha=scales, beta=scales)
def test_geometry_scalars_evaluate_the_spinor_once(alpha, beta):
    # the bundled energy reuses the sample's (f, g) and keeps energy()'s bits
    flows = (COLLAPSE, COLLAPSE_NEG, NORMALIZED, NORMALIZED_NEG)
    expected = [energy(params, alpha, beta) for params in flows]
    calls = []

    def counted(*args):
        calls.append(args)
        return spinor_coefficients(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(importlib.import_module("bergerflow.model"), "spinor_coefficients", counted)
        bundled = [geometry_scalars(params, alpha, beta).energy for params in flows]
    assert bundled == expected
    assert len(calls) == len(flows)


# The field as the layered expressions it was written as before the
# polynomial bodies, copied verbatim: the reference the bodies are held to.
def reference_q1_collapse(params, alpha, beta):
    a, lam = params.a, params.kappa
    q00 = (
        -9.0 / 64.0 * alpha**2 / beta**4 * a * a
        + 1.0 / 2.0 * alpha / beta**3 * a * lam
        - 1.0 / 2.0 / beta**2 * lam * lam
    )
    q11 = 3.0 / 64.0 * alpha**2 / beta**4 * a * a - 1.0 / 8.0 * alpha / beta**3 * a * lam
    return q00, q11


def reference_q1_normalized(params, alpha, beta):
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


def reference_energy_density_sixth(params, alpha, beta):
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


def reference_metric_velocity(params, alpha, beta):
    if params.kind is FlowKind.COLLAPSE:
        return reference_q1_collapse(params, alpha, beta)
    q00, q11 = reference_q1_normalized(params, alpha, beta)
    e6 = reference_energy_density_sixth(params, alpha, beta)
    return q00 + e6, q11 + e6


def reference_vector_field(params, point):
    x, y = point
    q00, q11 = reference_metric_velocity(params, x, y)
    return 0.5 * x * q00, 0.5 * y * q11


def reference_geometry_scalars(params, alpha, beta):
    f, g = spinor_coefficients(params, alpha, beta)
    q00, q11 = reference_metric_velocity(params, alpha, beta)
    return GeometryScalars(
        volume=volume(alpha, beta),
        energy=math.pi**2 * alpha * beta**2 * (f * f + 2.0 * g * g),
        q00=q00,
        q11=q11,
        f=f,
        g=g,
    )


def monomial_sums(params, alpha, beta):
    """Sum of |term| over the layered expressions' terms of q00, q11 and
    e6: each coefficient's magnitude times its monomial's, which is 1/alpha^2,
    1/beta^2, alpha/beta^3 or alpha^2/beta^4.  The collapse flow has no e6."""
    a, k = params.a, params.kappa
    monomials = (1.0 / alpha**2, 1.0 / beta**2, alpha / beta**3, alpha**2 / beta**4)
    if params.kind is FlowKind.COLLAPSE:
        coeffs = ((0.0, -k * k / 2.0, a * k / 2.0, -9.0 / 64.0 * a * a), (0.0, 0.0, -a * k / 8.0, 3.0 / 64.0 * a * a))
        coeffs += ((0.0,) * 4,)
    else:
        m, n = k - a / 4.0, a / 4.0 + k
        coeffs = (
            (m * m / 4.0, -k * k / 2.0 - 3.0 / 8.0 * a * k, a * a / 8.0 + a * k / 2.0, -9.0 / 64.0 * a * a),
            (-m * m / 4.0, 0.0, -a * a / 32.0 - a * k / 8.0, 3.0 / 64.0 * a * a),
            (m * m / 12.0, a * m / 24.0 + n * n / 6.0, -a * n / 12.0, a * a / 64.0),
        )
    return tuple(sum(abs(c) * x for c, x in zip(row, monomials)) for row in coeffs)


# The bodies evaluate each component as a polynomial in alpha/beta, the
# field's over beta, in another order than the layered expressions: within
# 8 ulps of 1.0 times the sum of the terms' magnitudes, a bound fixed from
# the dtype (3.7 measured for the field, 3.6 for the metric velocity).
BOUND = 8.0 * 2.0**-52


@pytest.mark.parametrize(
    "params",
    [COLLAPSE, COLLAPSE_NEG, NORMALIZED, NORMALIZED_NEG],
    ids=["collapse", "collapse-neg", "normalized", "normalized-neg"],
)
def test_field_bodies_match_the_layered_expressions(params):
    # log-uniform over [1e-3, 1e3]^2; the field is the body's, and so is the
    # event search's point field of the run's fused step
    body = _collapse_field if params.kind is FlowKind.COLLAPSE else _normalized_field
    point_field = importlib.import_module("bergerflow.integrate")._step_for(vector_field, params, 2).field
    rng = random.Random(11)
    for _ in range(2000):
        x, y = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0)
        s00, s11, s6 = monomial_sums(params, x, y)
        tol00, tol11 = BOUND * (s00 + s6), BOUND * (s11 + s6)
        got, ref = geometry_scalars(params, x, y), reference_geometry_scalars(params, x, y)
        v00, v11 = got.q00, got.q11
        r00, r11 = reference_metric_velocity(params, x, y)
        assert abs(v00 - r00) <= tol00 and abs(v11 - r11) <= tol11
        (dx, dy), (rx, ry) = vector_field(params, (x, y)), reference_vector_field(params, (x, y))
        assert abs(dx - rx) <= 0.5 * x * tol00 and abs(dy - ry) <= 0.5 * y * tol11
        assert body(params, x, y) == point_field((x, y)) == (dx, dy)
        assert (got.volume, got.energy, got.f, got.g) == (ref.volume, ref.energy, ref.f, ref.g)


# On the diagonal r = alpha/beta is exactly 1, and the coefficients of each
# polynomial sum exactly, so these invariances hold bit for bit.
@pytest.mark.parametrize("params", [COLLAPSE, flipped(COLLAPSE)], ids=["collapse", "collapse-flipped"])
def test_collapse_field_keeps_the_diagonal_exactly(params):
    # a*kappa = 2: dx == dy at every round sphere (x, x)
    rng = random.Random(5)
    for _ in range(2000):
        x = 10.0 ** rng.uniform(-6.0, 6.0)
        dx, dy = vector_field(params, (x, x))
        assert dx == dy


@pytest.mark.parametrize("params", [NORMALIZED, flipped(NORMALIZED)], ids=["normalized", "normalized-flipped"])
def test_round_spheres_are_exact_rest_points_of_the_normalized_field(params):
    # a*kappa = 1: the field vanishes exactly at every round sphere (x, x)
    rng = random.Random(6)
    for _ in range(2000):
        x = 10.0 ** rng.uniform(-6.0, 6.0)
        assert vector_field(params, (x, x)) == (0.0, 0.0)


# Paper claim (iii): for a*kappa = 1 the Berger sphere at epsilon = 2/3 on
# the unit-volume curve is a critical point of the normalized flow whose
# spinor is not a Killing spinor (g = 2 f, where a Killing spinor has
# f = g), beside the round sphere with its Killing spinor.
@pytest.mark.parametrize("params", [NORMALIZED, flipped(NORMALIZED)], ids=["normalized", "normalized-flipped"])
def test_a_non_killing_critical_point_at_two_thirds(params):
    x, y = curve_point(2.0 / 3.0)
    got = geometry_scalars(params, x, y)
    s00, s11, s6 = monomial_sums(params, x, y)
    assert abs(got.q00) <= BOUND * (s00 + s6) and abs(got.q11) <= BOUND * (s11 + s6)
    assert got.f != got.g
    assert abs(got.g / got.f - 2.0) <= 2.0 * math.ulp(2.0)
    x, y = curve_point(1.0)
    got = geometry_scalars(params, x, y)
    # the Killing spinor: f = g = kappa/s, g exactly (alpha/beta is 1.0) and
    # f, summed from two terms, to one ulp; f == g itself holds by rounding
    assert x == y and got.g == params.kappa / y
    assert abs(got.f - got.g) <= math.ulp(got.g)
    assert got.q00 == got.q11 == 0.0


# Every round sphere (s, s) of the normalized flow carries the Killing
# spinor, f = g = kappa/s: g exactly, f to one ulp (over 20,000 log-uniform
# s in [e^-5, e^5] per sign of a*kappa, f == g exactly for 73% of them).
@pytest.mark.parametrize(
    "params", [NORMALIZED, flipped(NORMALIZED), NORMALIZED_NEG, flipped(NORMALIZED_NEG)],
    ids=["plus", "plus-flipped", "minus", "minus-flipped"],
)
def test_round_spheres_carry_the_killing_spinor_to_one_ulp(params):
    for k in range(-50, 51):
        s = math.exp(k / 10.0)
        f, g = spinor_coefficients(params, s, s)
        assert g == params.kappa / s
        assert abs(f - g) <= math.ulp(g)


# The per-point lines of each field body, as dis shows them, do at most the
# arithmetic the polynomial form was sized by: a rewrite that adds an
# operation to every stage of every step fails here.
@pytest.mark.parametrize("body,most", [(_collapse_field, 11), (_normalized_field, 23)], ids=["collapse", "normalized"])
def test_field_bodies_do_a_bounded_number_of_operations_per_point(body, most):
    lines, first = inspect.getsourcelines(body)
    marker = first + [line.strip() for line in lines].index("# per point")
    ops = [op for op in dis.get_instructions(body) if op.opname == "BINARY_OP" and op.positions.lineno > marker]
    assert 0 < len(ops) <= most


# Each field coefficient as its rational in p = a*kappa, written here apart
# from the table: (c3, c2, c1, d2, d1), then for the normalized flow
# (e2, e1, e0, xw, yw).
def collapse_row(p):
    return Fraction(-9, 32), p / 4, Fraction(-1, 4), Fraction(3, 32), -p / 16


def normalized_row(p):
    return (
        Fraction(-9, 32), (1 + p) / 4, -(1 + 3 * p) / 16, Fraction(3, 32), -(1 + p) / 16,
        Fraction(1, 32), -(1 + p) / 24, (3 * p + 1) / 48, (1 - p) / 12, (p - 1) / 24,
    )


ROWS = [(FlowKind.COLLAPSE, _COLLAPSE_ROWS, collapse_row, (1.0, -1.0)),
        (FlowKind.NORMALIZED, _NORMALIZED_ROWS, normalized_row, (0.5, -0.5))]


@pytest.mark.parametrize("kind,rows,row,kappas", ROWS, ids=["collapse", "normalized"])
def test_each_table_entry_is_its_rational_in_p_correctly_rounded(kind, rows, row, kappas):
    # all 8 admitted (kind, a, kappa) find a row, and each row is keyed by
    # the p of some of them
    assert {FlowParams(kind, a, kappa, 1.0).product for a in (2.0, -2.0) for kappa in kappas} == set(rows)
    for p, entries in rows.items():
        assert entries == tuple(map(float, row(Fraction(p)))), (kind, p)


def test_the_table_zeros_keep_their_signs():
    # xw = +0.0 and yw = -0.0 at p = 1, and c2 = d1 = +0.0 at p = -1: the
    # signs that arithmetic in (a, kappa) gives them
    plus, minus = _NORMALIZED_ROWS[1.0], _NORMALIZED_ROWS[-1.0]
    zeros = [plus[8], plus[9], minus[1], minus[4]]
    assert [z.hex() for z in zeros] == ["0x0.0p+0", "-0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]
