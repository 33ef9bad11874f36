import math
import random

import numpy as np
import pytest

from bergerflow import (
    FlowKind,
    FlowParams,
    State,
    closed_form,
    curve_point,
    curve_speed,
    curve_tangent,
    equilibria,
    explicit_rhs,
    initial_state,
    normalizing_constant,
    tangency_residual,
    vector_field,
    volume,
)

COLLAPSE = FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=1.0, epsilon=1.0)
COLLAPSE_23 = FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=1.0, epsilon=2.0 / 3.0)
COLLAPSE_NEG = FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=-1.0, epsilon=1.0)
NORMALIZED = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=0.5, epsilon=1.0)
NORMALIZED_NEG = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=-0.5, epsilon=1.0)
ALL_PARAMS = [COLLAPSE, COLLAPSE_NEG, NORMALIZED, NORMALIZED_NEG]


class TestVectorField:
    def test_collapse_round_point(self):
        assert vector_field(COLLAPSE, (1.0, 1.0)) == (-1 / 32, -1 / 32)

    def test_collapse_blow_down_start(self):
        dx, dy = vector_field(COLLAPSE_23, (2.0 / 3.0, 1.0))
        assert dx == pytest.approx(-1 / 36, rel=1e-13)
        assert dy == pytest.approx(-1 / 24, rel=1e-13)

    def test_normalized_critical_point(self):
        s = math.sqrt(normalizing_constant(1.0))
        dx, dy = vector_field(NORMALIZED, (s, s))
        assert math.hypot(dx, dy) <= 1e-14

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            vector_field(COLLAPSE, (0.0, 1.0))
        with pytest.raises(ValueError):
            vector_field(NORMALIZED, (1.0, -1.0))

    @pytest.mark.parametrize("rhs", [vector_field, explicit_rhs])
    @pytest.mark.parametrize("params", [COLLAPSE, NORMALIZED])
    @pytest.mark.parametrize("point", [(math.inf, 1.0), (1.0, math.inf)])
    def test_rejects_infinite_scale(self, rhs, params, point):
        # unchecked, inf gives nan, or different values from the two
        # transcriptions
        with pytest.raises(ValueError, match="open first quadrant"):
            rhs(params, point)

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_matches_explicit_rhs(self, params):
        # the two transcriptions agree up to rounding; the comparison is
        # scaled by the size of the individual monomials since they nearly
        # cancel in parts of the quadrant
        rng = np.random.default_rng(11)
        for x, y in rng.uniform(0.1, 3.0, size=(500, 2)):
            f1 = vector_field(params, (x, y))
            f2 = explicit_rhs(params, (x, y))
            scale = max(1.0, x**3 / y**4, x**2 / y**3, x / y**2, 1.0 / x, y / x**2)
            for v1, v2 in zip(f1, f2):
                assert abs(v1 - v2) <= 1e-13 * scale

    @pytest.mark.parametrize(
        "params", [COLLAPSE, COLLAPSE_NEG]
    )
    def test_collapse_fiber_strictly_decreases(self, params):
        xs = np.linspace(0.05, 3.0, 200)
        ys = np.linspace(0.05, 3.0, 200)
        for x in xs:
            dx_row = [vector_field(params, (x, y))[0] for y in ys]
            assert max(dx_row) < 0.0

    @pytest.mark.parametrize("params", [NORMALIZED, NORMALIZED_NEG])
    def test_normalized_field_preserves_volume(self, params):
        # the field is tangent to the level sets of the volume, so the
        # volume gradient (y^2, 2xy) up to constants annihilates it
        rng = np.random.default_rng(5)
        for x, y in rng.uniform(0.1, 3.0, size=(1000, 2)):
            dx, dy = vector_field(params, (x, y))
            div = y * y * dx + 2.0 * x * y * dy
            scale = math.hypot(y * y * dx, 2.0 * x * y * dy)
            assert abs(div) <= 1e-12 * max(scale, 1e-30)


class TestInitialState:
    def test_collapse(self):
        s = initial_state(COLLAPSE_23)
        assert (s.t, s.alpha, s.beta) == (0.0, 2.0 / 3.0, 1.0)

    def test_normalized_unit_volume(self):
        s = initial_state(NORMALIZED)
        assert s.alpha == pytest.approx(0.370018, abs=1e-6)
        assert s.alpha == s.beta
        assert volume(s.alpha, s.beta) == pytest.approx(1.0, abs=1e-14)

    def test_normalized_round_parameter(self):
        eps = 1.0 / (2.0 * math.pi**2)
        params = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=0.5, epsilon=eps)
        s = initial_state(params)
        assert s.beta == pytest.approx(1.0, abs=1e-15)
        assert s.alpha == pytest.approx(eps, rel=1e-15)


class TestClosedForm:
    def test_round_shrinker_values(self):
        s = closed_form(COLLAPSE, 12.0)
        assert (s.alpha, s.beta) == (0.5, 0.5)
        s = closed_form(COLLAPSE, 0.0)
        assert (s.alpha, s.beta) == (1.0, 1.0)

    def test_blow_down_values(self):
        s = closed_form(COLLAPSE_23, 6.0)
        assert s.beta == pytest.approx(math.sqrt(18.0) / 6.0, rel=1e-15)
        assert s.alpha == pytest.approx(2.0 / 3.0 * s.beta, rel=1e-15)

    def test_existence_interval(self):
        with pytest.raises(ValueError, match=r"^solution only exists for t < 16, got t=16\.0$"):
            closed_form(COLLAPSE, 16.0)
        with pytest.raises(ValueError, match=r"^solution only exists for t < 12, got t=12\.5$"):
            closed_form(COLLAPSE_23, 12.5)

    @pytest.mark.parametrize(
        "kind,a,kappa,root",
        [
            (FlowKind.COLLAPSE, 2.0, 1.0, 2.0 / 3.0),
            (FlowKind.COLLAPSE, 2.0, 1.0, 1.0),
            (FlowKind.COLLAPSE, -2.0, -1.0, 2.0 / 3.0),
            (FlowKind.COLLAPSE, -2.0, -1.0, 1.0),
            (FlowKind.NORMALIZED, 2.0, 0.5, 2.0 / 3.0),
            (FlowKind.NORMALIZED, 2.0, 0.5, 1.0),
            (FlowKind.NORMALIZED, 2.0, -0.5, 1.0),
        ],
    )
    def test_only_a_start_exactly_on_a_kept_ray_has_one(self, kind, a, kappa, root):
        # one ulp off the ray the run leaves it, so the root's solution is not its solution
        on = FlowParams(kind, a, kappa, root)
        assert closed_form(on, 0.0) == initial_state(on)
        for eps in (math.nextafter(root, 0.0), math.nextafter(root, math.inf)):
            assert closed_form(FlowParams(kind, a, kappa, eps), 0.0) is None

    def test_a_start_4e_13_off_two_thirds_has_none(self):
        eps = 2.0 / 3.0 * (1.0 + 4e-13)
        assert eps != 2.0 / 3.0
        for kind, kappa in ((FlowKind.NORMALIZED, 0.5), (FlowKind.COLLAPSE, 1.0)):
            assert closed_form(FlowParams(kind, 2.0, kappa, eps), 0.0) is None

    def test_normalized_constants(self):
        for params in (NORMALIZED, NORMALIZED_NEG):
            s = closed_form(params, 5.0)
            assert s.alpha == s.beta
            assert volume(s.alpha, s.beta) == pytest.approx(1.0, abs=1e-14)
        p23 = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=0.5, epsilon=2.0 / 3.0)
        s = closed_form(p23, 1.0)
        assert s.alpha == pytest.approx(0.28238, abs=1e-5)
        assert s.beta == pytest.approx(0.42357, abs=1e-5)

    def test_unsolved_cases_return_none(self):
        assert closed_form(COLLAPSE_NEG, 1.0) is None
        assert closed_form(
            FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=1.0, epsilon=0.8), 1.0
        ) is None
        assert closed_form(
            FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=-0.5, epsilon=2.0 / 3.0), 1.0
        ) is None

    @pytest.mark.parametrize(
        "params,t_grid",
        [
            (COLLAPSE, np.linspace(0.0, 15.0, 40)),
            (COLLAPSE_23, np.linspace(0.0, 11.0, 40)),
            (NORMALIZED, np.linspace(0.0, 20.0, 5)),
            (NORMALIZED_NEG, np.linspace(0.0, 20.0, 5)),
        ],
    )
    def test_satisfies_the_ode(self, params, t_grid):
        # finite-difference derivative of the exact solution matches the
        # field; constants are checked for a vanishing field instead
        for t in t_grid:
            s = closed_form(params, float(t))
            dx, dy = vector_field(params, (s.alpha, s.beta))
            if params.kind is FlowKind.NORMALIZED:
                assert math.hypot(dx, dy) <= 1e-12
                continue
            h = 1e-6
            sp = closed_form(params, float(t) + h)
            sm = closed_form(params, float(t) - h) if t > h else None
            if sm is None:
                num_dx = (sp.alpha - s.alpha) / h
                num_dy = (sp.beta - s.beta) / h
                tol = 1e-5
            else:
                num_dx = (sp.alpha - sm.alpha) / (2 * h)
                num_dy = (sp.beta - sm.beta) / (2 * h)
                tol = 1e-9
            assert dx == pytest.approx(num_dx, abs=tol)
            assert dy == pytest.approx(num_dy, abs=tol)


# curve_point alone forms the unit-volume point: the normalized start, the
# constant closed forms and the equilibria read it, so all are one float.
@pytest.mark.parametrize("a,kappa", [(2.0, 0.5), (-2.0, -0.5), (2.0, -0.5), (-2.0, 0.5)])
def test_curve_point_is_the_one_unit_volume_point(a, kappa):
    for eps in np.logspace(-3.0, 3.0, 61):
        params = FlowParams(FlowKind.NORMALIZED, a, kappa, float(eps))
        assert initial_state(params) == State(0.0, *curve_point(float(eps)))
    for eq in equilibria(FlowParams(FlowKind.NORMALIZED, a, kappa, 1.0)):
        at = FlowParams(FlowKind.NORMALIZED, a, kappa, eq.epsilon_star)
        for t in (0.0, 1.5, 100.0):
            assert closed_form(at, t) == State(t, *eq.point)
    params = FlowParams(FlowKind.NORMALIZED, a, kappa, 1.0)
    s = 0.3700184841536781  # (2 pi^2)^(-1/3), correctly rounded
    start, rest, eq = initial_state(params), closed_form(params, 7.0), equilibria(params)[-1]
    assert (start.alpha, start.beta) == (rest.alpha, rest.beta) == eq.point == (s, s)


class TestCurve:
    def test_point_has_unit_volume(self):
        for eps in np.logspace(-2, 2, 50):
            x, y = curve_point(float(eps))
            assert volume(x, y) == pytest.approx(1.0, rel=1e-13)

    def test_tangent_is_derivative(self):
        h = 1e-7
        for eps in (0.3, 1.0, 4.0):
            px = curve_point(eps + h)
            pm = curve_point(eps - h)
            tx, ty = curve_tangent(eps)
            assert tx == pytest.approx((px[0] - pm[0]) / (2 * h), rel=1e-6)
            assert ty == pytest.approx((px[1] - pm[1]) / (2 * h), rel=1e-6)

    def test_speed_roots_and_signs(self):
        assert curve_speed(NORMALIZED, 1.0) == pytest.approx(0.0, abs=1e-14)
        assert curve_speed(NORMALIZED, 2.0 / 3.0) == pytest.approx(0.0, abs=1e-15)
        assert curve_speed(NORMALIZED, 0.9) > 0.0
        assert curve_speed(NORMALIZED, 1.1) < 0.0
        assert curve_speed(NORMALIZED, 0.5) < 0.0
        assert curve_speed(NORMALIZED_NEG, 1.0) == pytest.approx(0.0, abs=1e-14)
        assert curve_speed(NORMALIZED_NEG, 0.9) > 0.0
        assert curve_speed(NORMALIZED_NEG, 1.1) < 0.0

    @pytest.mark.parametrize("params", [NORMALIZED, NORMALIZED_NEG], ids=["plus", "minus"])
    def test_speed_matches_the_power_form(self, params):
        # the Horner form against the integer powers it replaced, within 8
        # ulps of 1.0 times the sum of the terms' magnitudes (2.8 measured),
        # log-uniform over [1e-3, 1e3]
        scale = (2.0 * math.pi**2) ** (2.0 / 3.0) / 8.0
        rng = random.Random(12)
        for _ in range(5000):
            e = 10.0 ** rng.uniform(-3.0, 3.0)
            if params.product == 1.0:
                old = scale * e ** (5.0 / 3.0) * (-3.0 * e**2 + 5.0 * e - 2.0)
                terms = scale * e ** (5.0 / 3.0) * (3.0 * e**2 + 5.0 * e + 2.0)
            else:
                old = scale * e ** (-1.0 / 3.0) * (-3.0 * e**4 + e**2 + 2.0)
                terms = scale * e ** (-1.0 / 3.0) * (3.0 * e**4 + e**2 + 2.0)
            assert abs(curve_speed(params, e) - old) <= 8.0 * 2.0**-52 * terms

    def test_speed_vanishes_exactly_at_the_rounded_roots(self):
        # -3 fl(2/3) and 3 fl(2/3) both round to 2, so the Horner factor
        # (-3e + 5)e - 2 is exactly 0 there, as it is at 1
        for params in (NORMALIZED, FlowParams(FlowKind.NORMALIZED, a=-2.0, kappa=-0.5, epsilon=1.0)):
            assert curve_speed(params, 2.0 / 3.0) == curve_speed(params, 1.0) == 0.0
        assert curve_speed(NORMALIZED_NEG, 1.0) == 0.0

    def test_speed_requires_normalized(self):
        with pytest.raises(ValueError):
            curve_speed(COLLAPSE, 1.0)

    @pytest.mark.parametrize("epsilon", [0.0, -0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize(
        "fn",
        [curve_point, curve_tangent, lambda e: curve_speed(NORMALIZED, e), normalizing_constant],
        ids=["point", "tangent", "speed", "normalizing-constant"],
    )
    def test_curve_rejects_a_parameter_that_is_not_positive(self, fn, epsilon):
        # the domain 0 < epsilon < inf of FlowParams, with its message
        with pytest.raises(ValueError, match=rf"^epsilon must be positive and finite, got {epsilon}$"):
            fn(epsilon)

    @pytest.mark.parametrize("params", [NORMALIZED, NORMALIZED_NEG])
    def test_field_tangent_to_curve(self, params):
        for eps in np.logspace(math.log10(0.05), math.log10(20.0), 100):
            res = tangency_residual(params, float(eps))
            fx, fy = vector_field(params, curve_point(float(eps)))
            scale = max(math.hypot(fx, fy), 1e-30)
            assert res / scale <= 1e-10 or res <= 1e-18


class TestEquilibria:
    def test_positive_product(self):
        eqs = equilibria(NORMALIZED)
        assert len(eqs) == 2
        by_eps = sorted(eqs, key=lambda e: e.epsilon_star)
        assert by_eps[0].epsilon_star == 2.0 / 3.0
        assert by_eps[0].stability == "repelling"
        assert by_eps[1].epsilon_star == 1.0
        assert by_eps[1].stability == "attracting"
        assert by_eps[1].point[0] == pytest.approx(by_eps[1].point[1], rel=1e-12)

    def test_negative_product(self):
        eqs = equilibria(NORMALIZED_NEG)
        assert len(eqs) == 1
        assert eqs[0].epsilon_star == 1.0
        assert eqs[0].stability == "attracting"

    def test_collapse_degenerate_line(self):
        # the critical set is the boundary line {(0, k)}, with no isolated point
        with pytest.raises(ValueError, match=r"\(0, k\)"):
            equilibria(COLLAPSE)
