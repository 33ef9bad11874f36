import math

import numpy as np
import pytest

from bergerflow import (
    FlowKind,
    FlowParams,
    IntegratorConfig,
    Region,
    Trajectory,
    containment_report,
    curve_point,
    curve_speed,
    curve_tangent,
    integrate,
    inward_flux_check,
    portrait_rows,
    region_contains,
    region_for_initial,
    sample_portrait,
)
from bergerflow.dynamics import vector_field
from bergerflow.model import State
from bergerflow.phase import _axis, axis_extent

COLLAPSE = FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=1.0, epsilon=1.0)
COLLAPSE_NEG = FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=-1.0, epsilon=1.0)
NORMALIZED = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=0.5, epsilon=1.0)

NO_EQUILIB = IntegratorConfig(equilib_tol=None)


class TestRegionValidation:
    def test_valid(self):
        Region("K", 1.0, 1.0)
        Region("K1", 0.5, 1.0)
        Region("K2", 1.0)
        Region("K3", 1.0, 0.5)

    @pytest.mark.parametrize(
        "args",
        [
            ("K", 1.0, None),
            ("K", -1.0, 1.0),
            ("K1", 1.0, 1.0),  # needs v < 2w/3
            ("K2", 0.0, None),
            ("K2", 1.0, 1.0),
            ("K3", 1.0, 1.5),  # needs w < v
            ("BAD", 1.0, 1.0),
            # each parameter finite
            ("K", math.inf, 1.0),
            ("K", 1.0, math.inf),
            ("K1", 1.0, math.inf),
            ("K2", math.inf, None),
            ("K3", math.inf, 1.0),
        ],
    )
    def test_invalid(self, args):
        tag, v, w = args
        with pytest.raises(ValueError, match=f"^{tag} requires|^unknown region tag|^K2 takes no"):
            Region(tag, v, w)


class TestMembership:
    def test_k_examples(self):
        k = Region("K", 1.0, 1.0)
        assert region_contains(k, (0.5, 1.2))
        assert not region_contains(k, (0.5, 1.6))
        assert region_contains(k, (1.0, 1.0))  # closed set: boundary counts
        assert region_contains(k, (0.0, 2.0))

    def test_k1_example(self):
        assert region_contains(Region("K1", 1.0 / 3.0, 1.0), (0.0, 0.5))
        assert not region_contains(Region("K1", 1.0 / 3.0, 1.0), (0.0, 0.4))

    def test_k2_example(self):
        k2 = Region("K2", 1.0)
        assert region_contains(k2, (0.8, 1.0))
        assert not region_contains(k2, (0.8, 0.7))
        assert not region_contains(k2, (0.8, 1.3))

    def test_k3(self):
        k3 = Region("K3", 1.0, 0.5)
        assert region_contains(k3, (0.8, 0.6))
        assert not region_contains(k3, (0.8, 0.3))

    def test_vertices_are_members(self):
        for region in (
            Region("K", 1.0, 1.0),
            Region("K1", 0.5, 1.0),
            Region("K2", 1.0),
            Region("K3", 1.0, 0.5),
        ):
            for vert in region.vertices():
                assert region_contains(region, vert)

    @pytest.mark.parametrize(
        "region",
        [Region("K", 1.0, 1.0), Region("K1", 0.4, 1.0), Region("K2", 1.0), Region("K3", 1.0, 0.5)],
    )
    def test_vertices_are_counter_clockwise(self, region):
        # membership, flux normals and the axis bracket are derived from
        # the vertex list and need the interior on the left of each side
        (x0, y0), (x1, y1), (x2, y2) = region.vertices()
        assert (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) > 0.0


class TestRegionAssignment:
    def test_negative_product_always_k(self):
        r = region_for_initial(COLLAPSE_NEG, State(0.0, 1.0, 1.0))
        assert r.tag == "K" and (r.v, r.w) == (1.0, 1.0)

    def test_positive_product_cases(self):
        assert region_for_initial(COLLAPSE, State(0.0, 0.4, 1.0)).tag == "K1"
        assert region_for_initial(COLLAPSE, State(0.0, 0.8, 1.0)).tag == "K2"
        assert region_for_initial(COLLAPSE, State(0.0, 1.2, 1.0)).tag == "K3"

    def test_separating_lines_unassigned(self):
        assert region_for_initial(COLLAPSE, State(0.0, 2.0 / 3.0, 1.0)) is None
        assert region_for_initial(COLLAPSE, State(0.0, 1.0, 1.0)) is None
        assert region_for_initial(COLLAPSE, State(0.0, 1.0, 1.5)) is None

    def test_requires_collapse(self):
        with pytest.raises(ValueError):
            region_for_initial(NORMALIZED, State(0.0, 1.0, 1.0))

    def test_initial_point_is_inside(self):
        for params, pt in [
            (COLLAPSE_NEG, (1.0, 1.0)),
            (COLLAPSE, (0.4, 1.0)),
            (COLLAPSE, (0.8, 1.0)),
            (COLLAPSE, (1.2, 1.0)),
        ]:
            region = region_for_initial(params, State(0.0, *pt))
            assert region_contains(region, pt)


class TestInwardFlux:
    @pytest.mark.parametrize(
        "params,region",
        [
            (COLLAPSE_NEG, Region("K", 1.0, 1.0)),
            (COLLAPSE_NEG, Region("K", 0.5, 2.0)),
            (COLLAPSE, Region("K1", 0.4, 1.0)),
            (COLLAPSE, Region("K2", 0.8)),
            # sampling the y = 3x/2 edge from (v, 3v/2) instead of from the
            # origin moves the samples by rounding and finds outward flux here
            (COLLAPSE, Region("K2", 0.9572956102878559)),
            (COLLAPSE, Region("K2", 0.7645782708341894)),
            (COLLAPSE, Region("K2", 0.6734879800390345)),
            (COLLAPSE, Region("K2", 0.9402684005510822)),
            (COLLAPSE, Region("K3", 1.2, 1.0)),
            # a subnormal width: samples along the edges round to x = 0, off
            # the open quadrant, where the field is not evaluated
            (COLLAPSE_NEG, Region("K", 5e-324, 1.0)),
        ],
    )
    def test_certified_regions_have_no_violations(self, params, region):
        assert inward_flux_check(region, params, n_samples=1000) == []

    def test_detects_wrong_region(self):
        # K3 is not a trapping region for the negative product; the check
        # must have the power to reject it
        violations = inward_flux_check(Region("K3", 1.0, 0.5), COLLAPSE_NEG)
        assert len(violations) > 0

    def test_requires_collapse(self):
        with pytest.raises(ValueError):
            inward_flux_check(Region("K2", 1.0), NORMALIZED)

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_rejects_an_empty_sample(self, n_samples):
        # no sample finds no violation, which would read as a certificate
        with pytest.raises(ValueError, match=f"^n_samples must be at least 1, got {n_samples}$"):
            inward_flux_check(Region("K3", 1.0, 0.5), COLLAPSE_NEG, n_samples=n_samples)


class TestContainment:
    @pytest.mark.parametrize(
        "params,pt",
        [
            (COLLAPSE_NEG, (1.0, 1.0)),
            (COLLAPSE_NEG, (1.0, 3.0)),
            (COLLAPSE, (0.4, 1.0)),
            (COLLAPSE, (0.8, 1.0)),
            (COLLAPSE, (1.2, 1.0)),
        ],
    )
    def test_trajectory_never_leaves_assigned_region(self, params, pt):
        region = region_for_initial(params, State(0.0, *pt))
        traj = integrate(
            params, NO_EQUILIB, t_end=500.0, start=State(0.0, *pt)
        )
        assert containment_report(traj, region) == 0.0

    def test_rebased_regions_contain_the_tail(self):
        # trapping is time-translation compatible: the region assigned to
        # any later sample also contains everything after it
        rng = np.random.default_rng(42)
        for params, pt in [
            (COLLAPSE_NEG, (1.0, 1.0)),
            (COLLAPSE, (0.4, 1.0)),
            (COLLAPSE, (0.8, 1.0)),
            (COLLAPSE, (1.2, 1.0)),
        ]:
            traj = integrate(params, NO_EQUILIB, t_end=500.0, start=State(0.0, *pt))
            n = len(traj.samples)
            for idx in rng.integers(0, n - 1, size=10):
                state = traj.samples[idx][0]
                region = region_for_initial(params, state)
                assert region is not None
                tail = Trajectory(params, traj.samples[idx:], traj.termination)
                assert containment_report(tail, region) <= 1e-9

    def test_report_measures_excursions(self):
        region = Region("K", 0.1, 0.9)  # deliberately too small
        traj = integrate(COLLAPSE_NEG, NO_EQUILIB, t_end=10.0)
        assert containment_report(traj, region) > 0.1


class TestAxisExtent:
    def test_brackets(self):
        assert axis_extent(Region("K", 1.0, 1.0)) == (1.0, 2.0)
        assert axis_extent(Region("K1", 0.4, 1.0)) == pytest.approx((0.4, 1.0))
        assert axis_extent(Region("K2", 1.0)) is None
        assert axis_extent(Region("K3", 1.0, 0.5)) is None


class TestPortrait:
    def test_single_point_values(self):
        points, dirs, mags = sample_portrait(COLLAPSE, (1.0, 1.0), (1.0, 1.0), 1, 1)
        assert points.shape == (1, 2)
        s = 1.0 / math.sqrt(2.0)
        assert dirs[0] == pytest.approx([-s, -s], rel=1e-14)
        assert mags[0] == pytest.approx(math.sqrt(2.0) / 32.0, rel=1e-14)

    def test_grid_shape_and_unit_directions(self):
        points, dirs, mags = sample_portrait(COLLAPSE, (0.1, 1.5), (0.1, 1.5), 7, 5)
        # the array contract that benchmark and plotting callers index into
        assert all(isinstance(arr, np.ndarray) for arr in (points, dirs, mags))
        assert (points.shape, dirs.shape, mags.shape) == ((35, 2), (35, 2), (35,))
        norms = np.hypot(dirs[:, 0], dirs[:, 1])
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert np.all(mags > 0.0)

    def test_rejects_boundary_grid(self):
        with pytest.raises(ValueError):
            sample_portrait(COLLAPSE, (0.0, 1.0), (0.1, 1.0), 5, 5)
        for bad in ((2.0, 1.0), (0.1, math.inf), (math.nan, 1.0), (0.1, math.nan)):
            with pytest.raises(ValueError, match="x_range"):
                sample_portrait(COLLAPSE, bad, (0.1, 1.0), 5, 5)
            with pytest.raises(ValueError, match="y_range"):
                sample_portrait(COLLAPSE, (0.1, 1.0), bad, 5, 5)
        with pytest.raises(ValueError):
            sample_portrait(COLLAPSE, (0.1, 1.0), (0.1, 1.0), 0, 5)
        with pytest.raises(ValueError, match="grid counts must be positive integers"):
            sample_portrait(COLLAPSE, (0.1, 1.0), (0.1, 1.0), 2.5, 3)

    def test_normalized_directions_follow_curve(self):
        # away from equilibria the sampled direction at a unit-volume curve
        # point is parallel to the curve tangent, signed by the speed
        for eps in (0.5, 0.8, 1.3, 2.0):
            x, y = curve_point(eps)
            _, dirs, _ = sample_portrait(NORMALIZED, (x, x), (y, y), 1, 1)
            tx, ty = curve_tangent(eps)
            tn = math.hypot(tx, ty)
            sign = 1.0 if curve_speed(NORMALIZED, eps) > 0 else -1.0
            assert dirs[0][0] == pytest.approx(sign * tx / tn, abs=1e-10)
            assert dirs[0][1] == pytest.approx(sign * ty / tn, abs=1e-10)

    @pytest.mark.parametrize("params", [COLLAPSE, COLLAPSE_NEG, NORMALIZED])
    def test_arrays_are_the_rows(self, params):
        rows = portrait_rows(params, (0.05, 1.5), (0.2, 0.9), 9, 7)
        points, dirs, mags = sample_portrait(params, (0.05, 1.5), (0.2, 0.9), 9, 7)
        assert all(isinstance(v, float) for row in rows for v in row)
        assert points.tolist() == [[x, y] for x, y, *_ in rows]
        assert dirs.tolist() == [[ux, uy] for _, _, ux, uy, _ in rows]
        assert mags.tolist() == [row[4] for row in rows]

    def test_grid_is_linspace_bit_for_bit(self):
        rng = np.random.default_rng(20261018)
        cases = [(0.3, 0.3, 1), (0.3, 0.7, 1), (0.3, 0.7, 2), (0.7, 0.7, 2), (0.7, 0.7, 9),
                 (1.0, 1e308, 17), (1e-310, 2e-310, 1000),
                 # steps that underflow to zero
                 (5e-324, 1e-323, 3), (5e-324, 2e-323, 10)]
        for _ in range(300):
            lo, hi = sorted(10.0 ** rng.uniform(-6, 6, size=2))
            cases.append((float(lo), float(rng.choice([lo, hi])), int(rng.integers(1, 60))))
        for lo, hi, n in cases:
            assert _axis(lo, hi, n) == np.linspace(lo, hi, n).tolist(), (lo, hi, n)
        rows = portrait_rows(COLLAPSE, (0.1, 1.3), (0.25, 0.8), 6, 4)
        xs, ys = np.linspace(0.1, 1.3, 6).tolist(), np.linspace(0.25, 0.8, 4).tolist()
        assert [(x, y) for x, y, *_ in rows] == [(x, y) for x in xs for y in ys]

    @pytest.mark.parametrize("params", [COLLAPSE, COLLAPSE_NEG, NORMALIZED])
    def test_directions_within_two_ulp_of_numpy(self, params):
        # the former array formula: np.hypot, then division by the magnitude
        rows = np.array(portrait_rows(params, (0.05, 1.5), (0.05, 1.5), 40, 40))
        field = np.array([vector_field(params, (x, y)) for x, y in rows[:, :2].tolist()])
        mags = np.hypot(field[:, 0], field[:, 1])
        nonzero = mags > 0.0
        dirs = field[nonzero] / mags[nonzero, None]
        for got, want in ((rows[:, 4], mags), (rows[nonzero, 2:4], dirs)):
            tol = 2.0 * np.spacing(np.maximum(np.abs(got), np.abs(want)))
            assert np.all(np.abs(got - want) <= tol)

    def test_zero_field_has_zero_direction(self):
        # round spheres are rest points of the normalized flow
        assert vector_field(NORMALIZED, (1.0, 1.0)) == (0.0, 0.0)
        rows = portrait_rows(NORMALIZED, (1.0, 1.0), (1.0, 1.0), 1, 1)
        assert rows == [(1.0, 1.0, 0.0, 0.0, 0.0)]

    @pytest.mark.parametrize(
        "params,x,y,error",
        [
            # alpha^2 underflows to 0.0; the collapse field divides only by beta
            (NORMALIZED, 1e-170, 1e-170, ZeroDivisionError),
            # a product that overflows to inf without raising
            (COLLAPSE, 4.265959041761247e113, 5353.280110530487, OverflowError),
        ],
    )
    def test_non_finite_field_raises(self, params, x, y, error):
        with pytest.raises(error):
            portrait_rows(params, (x, x), (y, y), 1, 1)
