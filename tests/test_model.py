import importlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerflow import (
    FlowKind,
    FlowParams,
    State,
    energy,
    energy_density_sixth,
    geometry_scalars,
    normalizing_constant,
    q1_collapse_components,
    q1_normalized_components,
    spinor_coefficients,
    volume,
)

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


class TestState:
    @pytest.mark.parametrize("alpha,beta", [(math.inf, 1.0), (1.0, math.inf)])
    def test_rejects_infinite_scale(self, alpha, beta):
        with pytest.raises(ValueError):
            State(t=0.0, alpha=alpha, beta=beta)


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


class TestVolume:
    def test_round_sphere(self):
        assert volume(1.0, 1.0) == pytest.approx(TWO_PI_SQ, rel=1e-15)

    def test_scaled_fiber(self):
        assert volume(0.5, 1.0) == pytest.approx(math.pi**2, rel=1e-15)

    def test_normalized_point(self):
        s = math.sqrt(normalizing_constant(1.0))
        assert volume(s, s) == pytest.approx(1.0, abs=1e-15)


class TestCollapseComponents:
    def test_round_point(self):
        assert q1_collapse_components(COLLAPSE, 1.0, 1.0) == (-1 / 16, -1 / 16)

    def test_negative_product(self):
        q00, q11 = q1_collapse_components(COLLAPSE_NEG, 1.0, 1.0)
        assert q00 == pytest.approx(-33 / 16, rel=1e-15)
        assert q11 == pytest.approx(7 / 16, rel=1e-15)

    def test_matches_initial_slope(self):
        # (alpha/2) q00 at (2/3, 1) is the closed-form initial slope -1/36
        q00, _ = q1_collapse_components(COLLAPSE, 2.0 / 3.0, 1.0)
        assert (2.0 / 3.0) / 2.0 * q00 == pytest.approx(-1 / 36, rel=1e-13)

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            q1_collapse_components(NORMALIZED, 1.0, 1.0)


class TestNormalizedComponents:
    def test_killing_case(self):
        # mu - a/4 = 0 kills the extra terms, matching the collapse value
        q00, _ = q1_normalized_components(NORMALIZED, 1.0, 1.0)
        assert q00 == pytest.approx(-1 / 16, rel=1e-14)

    def test_anti_killing_case(self):
        q00, _ = q1_normalized_components(NORMALIZED_NEG, 1.0, 1.0)
        assert q00 == pytest.approx(1 / 4 + 1 / 4 - 9 / 16, rel=1e-14)

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            q1_normalized_components(COLLAPSE, 1.0, 1.0)


class TestEnergyDensity:
    def test_unit_volume_round_point(self):
        s = math.sqrt(normalizing_constant(1.0))
        expected = TWO_PI_SQ ** (2.0 / 3.0) / 16.0
        assert energy_density_sixth(NORMALIZED, s, s) == pytest.approx(expected, rel=1e-13)

    @given(s=st.floats(0.05, 10.0))
    def test_diagonal_simplification(self, s):
        # for the Killing case on the diagonal the expression is 1/(16 s^2)
        assert energy_density_sixth(NORMALIZED, s, s) == pytest.approx(
            1.0 / (16.0 * s * s), rel=1e-12
        )

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            energy_density_sixth(COLLAPSE, 1.0, 1.0)


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
            rhs = 6.0 * volume(x, y) * energy_density_sixth(NORMALIZED_NEG, x, y)
            assert abs(lhs - rhs) / rhs <= 1e-12


@pytest.mark.parametrize("params", [COLLAPSE, COLLAPSE_NEG, NORMALIZED, NORMALIZED_NEG])
@settings(max_examples=200)
@given(x=scales, y=scales)
def test_sign_flip_symmetry(params, x, y):
    other = flipped(params)
    if params.kind is FlowKind.COLLAPSE:
        assert q1_collapse_components(params, x, y) == q1_collapse_components(other, x, y)
    else:
        assert q1_normalized_components(params, x, y) == q1_normalized_components(other, x, y)
        assert energy_density_sixth(params, x, y) == energy_density_sixth(other, x, y)
    assert energy(params, x, y) == energy(other, x, y)
    f1, g1 = spinor_coefficients(params, x, y)
    f2, g2 = spinor_coefficients(other, x, y)
    assert (f1, g1) == (-f2, -g2)


@pytest.mark.parametrize("params", [NORMALIZED, NORMALIZED_NEG])
@settings(max_examples=200)
@given(x=scales, y=scales)
def test_energy_identity(params, x, y):
    f, g = spinor_coefficients(params, x, y)
    rhs = energy_density_sixth(params, x, y)
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
