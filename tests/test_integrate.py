import math
import sys

import pytest

from bergerflow import (
    FlowKind,
    FlowParams,
    IntegratorConfig,
    StepBudgetError,
    closed_form,
    curve_speed,
    integrate,
    integrate_reduced,
    normalizing_constant,
    vector_field,
)
from bergerflow.model import State

COLLAPSE = FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=1.0, epsilon=1.0)
COLLAPSE_23 = FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=1.0, epsilon=2.0 / 3.0)
COLLAPSE_NEG = FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=-1.0, epsilon=1.0)
NORMALIZED = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=0.5, epsilon=1.0)
NORMALIZED_NEG = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=-0.5, epsilon=1.0)

NO_EQUILIB = IntegratorConfig(equilib_tol=None)


def max_closed_form_error(traj):
    # the terminal sample of an event-ending run is read off the cubic
    # interpolant of the last step and is only event-accurate, so skip it
    samples = traj.samples
    if traj.termination.tag != "ReachedTEnd":
        samples = samples[:-1]
    worst = 0.0
    for state, _ in samples:
        exact = closed_form(traj.params, state.t)
        worst = max(worst, abs(state.alpha - exact.alpha), abs(state.beta - exact.beta))
    return worst


class TestOracleMatch:
    def test_round_shrinker(self):
        # error is measured short of the collapse time, where the solution
        # is Lipschitz; the event itself is checked on a longer run
        traj = integrate(COLLAPSE, NO_EQUILIB, t_end=15.5)
        assert max_closed_form_error(traj) <= 1e-8
        traj = integrate(COLLAPSE, NO_EQUILIB, t_end=20.0)
        assert traj.termination.tag == "CollapsePoint"
        assert traj.termination.t_event == pytest.approx(15.999984, abs=1e-5)

    def test_blow_down(self):
        traj = integrate(COLLAPSE_23, NO_EQUILIB, t_end=11.5)
        assert max_closed_form_error(traj) <= 1e-8
        traj = integrate(COLLAPSE_23, NO_EQUILIB, t_end=20.0)
        assert traj.termination.tag == "CollapsePoint"
        assert traj.termination.t_event == pytest.approx(11.999973, abs=1e-5)

    @pytest.mark.parametrize("params", [NORMALIZED, NORMALIZED_NEG])
    def test_constant_solution_drift(self, params):
        traj = integrate(params, NO_EQUILIB, t_end=50.0)
        s0 = traj.samples[0][0]
        drift = max(
            max(abs(s.alpha - s0.alpha), abs(s.beta - s0.beta))
            for s, _ in traj.samples
        )
        assert drift <= 1e-10
        assert traj.termination.tag == "ReachedTEnd"


class TestEvents:
    def test_equilibrium_event_on_convergent_run(self):
        params = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=0.5, epsilon=1.2)
        traj = integrate(params, IntegratorConfig(), t_end=400.0)
        assert traj.termination.tag == "Equilibrium"
        target = math.sqrt(normalizing_constant(1.0))
        x, y = traj.termination.detail["location"]
        assert x == pytest.approx(target, abs=1e-6)
        assert y == pytest.approx(target, abs=1e-6)

    def test_equilibrium_detection_disabled(self):
        params = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=0.5, epsilon=1.2)
        traj = integrate(params, NO_EQUILIB, t_end=50.0)
        assert traj.termination.tag == "ReachedTEnd"

    def test_collapse_fiber_with_bracket(self):
        traj = integrate(COLLAPSE_NEG, NO_EQUILIB, t_end=2000.0)
        assert traj.termination.tag == "CollapseFiber"
        beta_inf = traj.termination.detail["beta_inf"]
        lo, hi = traj.termination.detail["bracket"]
        assert (lo, hi) == (1.0, 2.0)
        assert lo <= beta_inf <= hi

    def test_collapse_point_off_diagonal(self):
        params = FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=1.0, epsilon=0.8)
        traj = integrate(params, NO_EQUILIB, t_end=100.0)
        assert traj.termination.tag == "CollapsePoint"

    def test_event_state_sits_at_collapse_threshold(self):
        traj = integrate(COLLAPSE, NO_EQUILIB, t_end=20.0)
        tol = NO_EQUILIB.collapse_tol
        assert tol - 1e-7 <= traj.final_state.alpha <= tol

    def test_event_state_sits_at_equilibrium_threshold(self):
        params = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=0.5, epsilon=1.2)
        config = IntegratorConfig()
        traj = integrate(params, config, t_end=400.0)
        assert traj.termination.tag == "Equilibrium"
        x, y = traj.termination.detail["location"]
        residual = math.hypot(*vector_field(params, (x, y))) / math.hypot(x, y)
        assert 0.99 * config.equilib_tol <= residual <= config.equilib_tol

    def test_event_location_costs_no_rhs_call(self, monkeypatch):
        # FSAL: one call for the initial state, then six per attempted
        # step; locating the collapse on the interpolant adds none.  The
        # module is looked up in sys.modules because the package attribute
        # bergerflow.integrate is the function.
        module = sys.modules["bergerflow.integrate"]
        calls = []

        def counted(params, point):
            calls.append(point)
            return vector_field(params, point)

        monkeypatch.setattr(module, "vector_field", counted)
        traj = integrate(COLLAPSE, NO_EQUILIB, t_end=20.0)
        assert traj.termination.tag == "CollapsePoint"
        assert (len(calls) - 1) % 6 == 0

    def test_event_time_tightens_with_collapse_tol(self):
        tight = IntegratorConfig(equilib_tol=None, collapse_tol=1e-6)
        traj = integrate(COLLAPSE, tight, t_end=20.0)
        # alpha(t) = sqrt(16 - t)/4 crosses 1e-6 at t = 16 - 16e-12
        assert traj.termination.t_event == pytest.approx(16.0, abs=1e-6)


class TestRobustness:
    @pytest.mark.parametrize("params", [COLLAPSE, COLLAPSE_NEG, NORMALIZED_NEG])
    def test_quadrant_preserved(self, params):
        traj = integrate(params, NO_EQUILIB, t_end=30.0)
        for state, _ in traj.samples:
            assert state.alpha > 0.0
            assert state.beta > 0.0

    def test_times_strictly_increasing(self):
        traj = integrate(COLLAPSE, NO_EQUILIB, t_end=20.0)
        times = [s.t for s, _ in traj.samples]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_tolerance_convergence(self):
        errs = []
        for rtol, atol in [(1e-6, 1e-8), (1e-8, 1e-10), (1e-10, 1e-12)]:
            cfg = IntegratorConfig(rtol=rtol, atol=atol, equilib_tol=None)
            errs.append(max_closed_form_error(integrate(COLLAPSE, cfg, t_end=15.0)))
        assert errs[2] < errs[0]
        assert errs[2] <= 1e-8

    def test_step_budget_error(self):
        cfg = IntegratorConfig(max_steps=10, equilib_tol=None)
        with pytest.raises(StepBudgetError):
            integrate(COLLAPSE, cfg, t_end=20.0)

    def test_step_underflow_termination(self):
        # force an unsatisfiable first step: h is pinned to 0.5 and the
        # error test can never pass at this tolerance
        cfg = IntegratorConfig(
            rtol=1e-14, atol=1e-16, h_init=0.5, h_min=0.5, h_max=0.5,
            equilib_tol=None,
        )
        traj = integrate(COLLAPSE, cfg, t_end=20.0)
        assert traj.termination.tag == "StepUnderflow"

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rtol=-1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(h_min=1.0, h_init=0.5)
        with pytest.raises(ValueError):
            IntegratorConfig(output_stride=0)
        # non-finite settings would turn off error control or fire an
        # event at t=0
        for name in ("rtol", "atol", "h_init", "h_min", "h_max", "collapse_tol", "equilib_tol"):
            for value in (math.inf, math.nan):
                with pytest.raises(ValueError):
                    IntegratorConfig(**{name: value})
        IntegratorConfig(equilib_tol=None)

    def test_rejects_fractional_stride(self):
        with pytest.raises(ValueError):
            IntegratorConfig(output_stride=2.5)

    def test_rejects_bad_t_end(self):
        with pytest.raises(ValueError):
            integrate(COLLAPSE, NO_EQUILIB, t_end=0.0)

    def test_output_stride_thins_samples(self):
        dense = integrate(COLLAPSE, NO_EQUILIB, t_end=10.0)
        thin = integrate(
            COLLAPSE, IntegratorConfig(equilib_tol=None, output_stride=10), t_end=10.0
        )
        assert len(thin.samples) < len(dense.samples)
        assert thin.final_state.t == pytest.approx(dense.final_state.t, abs=1e-12)

    @pytest.mark.parametrize("stride", [1, 3, 7])
    @pytest.mark.parametrize("driver", ["integrate", "integrate_reduced"])
    def test_output_stride_keeps_every_kth_sample(self, driver, stride):
        # both runs end in a terminal event: a collapse for the planar
        # flow, the attracting equilibrium for the reduced one
        def run(config):
            if driver == "integrate":
                traj = integrate(COLLAPSE, config, t_end=20.0)
                return [(s.t, s.alpha, s.beta) for s, _ in traj.samples]
            return integrate_reduced(NORMALIZED, config, epsilon0=1.4, t_end=200.0)

        dense = run(IntegratorConfig())
        thin = run(IntegratorConfig(output_stride=stride))
        expected = dense[::stride]
        if (len(dense) - 1) % stride:
            expected.append(dense[-1])
        assert thin == expected

    def test_off_curve_start(self):
        # a start with alpha/beta above the repelling ratio converges to
        # the round point of its own volume level set
        traj = integrate(
            NORMALIZED, IntegratorConfig(), t_end=2000.0,
            start=State(t=0.0, alpha=0.45, beta=0.5),
        )
        assert traj.termination.tag == "Equilibrium"
        x, y = traj.termination.detail["location"]
        assert x == pytest.approx(y, rel=1e-6)

    def test_off_curve_start_below_repeller(self):
        traj = integrate(
            NORMALIZED, IntegratorConfig(), t_end=2000.0,
            start=State(t=0.0, alpha=0.3, beta=0.5),
        )
        assert traj.termination.tag == "CollapseFiber"


class TestMonotoneDiagnostics:
    @pytest.mark.parametrize(
        "params,eps",
        [(NORMALIZED, 0.8), (NORMALIZED, 1.3), (NORMALIZED_NEG, 0.7)],
    )
    def test_energy_never_increases(self, params, eps):
        run = FlowParams(params.kind, params.a, params.kappa, eps)
        traj = integrate(run, NO_EQUILIB, t_end=60.0)
        energies = [sc.energy for _, sc in traj.samples]
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-10

    @pytest.mark.parametrize("eps", [0.8, 1.3])
    def test_volume_conserved(self, eps):
        run = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=0.5, epsilon=eps)
        traj = integrate(run, NO_EQUILIB, t_end=60.0)
        for _, sc in traj.samples:
            assert sc.volume == pytest.approx(1.0, abs=1e-9)


class TestReduced:
    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            integrate_reduced(COLLAPSE)

    def test_fixed_point_is_constant(self):
        samples = integrate_reduced(NORMALIZED, NO_EQUILIB, epsilon0=1.0, t_end=20.0)
        assert all(abs(e - 1.0) <= 1e-10 for _, e in samples)

    def test_monotone_convergence_from_above(self):
        samples = integrate_reduced(NORMALIZED, NO_EQUILIB, epsilon0=1.4, t_end=200.0)
        eps = [e for _, e in samples]
        assert all(b <= a + 1e-12 for a, b in zip(eps, eps[1:]))
        assert eps[-1] == pytest.approx(1.0, abs=1e-6)

    def test_divergence_below_repeller(self):
        samples = integrate_reduced(NORMALIZED, NO_EQUILIB, epsilon0=0.5, t_end=100.0)
        eps = [e for _, e in samples]
        assert all(b <= a + 1e-12 for a, b in zip(eps, eps[1:]))
        assert eps[-1] < 0.1

    def test_negative_product_attracts_to_one(self):
        for eps0 in (0.4, 2.0):
            samples = integrate_reduced(
                NORMALIZED_NEG, NO_EQUILIB, epsilon0=eps0, t_end=200.0
            )
            assert samples[-1][1] == pytest.approx(1.0, abs=1e-6)

    def test_speed_sign_matches_samples(self):
        samples = integrate_reduced(NORMALIZED, NO_EQUILIB, epsilon0=0.9, t_end=5.0)
        t0, e0 = samples[0]
        t1, e1 = samples[-1]
        assert e1 > e0
        assert curve_speed(NORMALIZED, e0) > 0.0
