import functools
import importlib
import importlib.util
import inspect
import linecache
import math
import pickle
import random
import re
import sys
import textwrap
import traceback
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergerflow import (
    FlowKind,
    FlowParams,
    IntegratorConfig,
    StepBudgetError,
    closed_form,
    curve_point,
    curve_speed,
    geometry_scalars,
    integrate,
    integrate_reduced,
    normalizing_constant,
    spinor_coefficients,
    vector_field,
)
from bergerflow.integrate import TerminationEvent, Trajectory
from bergerflow.model import State

COLLAPSE = FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=1.0, epsilon=1.0)
COLLAPSE_23 = FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=1.0, epsilon=2.0 / 3.0)
COLLAPSE_NEG = FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=-1.0, epsilon=1.0)
NORMALIZED = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=0.5, epsilon=1.0)
NORMALIZED_NEG = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=-0.5, epsilon=1.0)

NO_EQUILIB = IntegratorConfig(equilib_tol=None)
# exact Equilibrium times at the default equilib_tol 1e-10 from the curve
# starts epsilon0 = 1.2 (a*kappa = 1) and 5 (a*kappa = -1); see TestEvents
EXACT_EQUILIBRIUM_TIME_PLUS = 21.8860247254417
EXACT_EQUILIBRIUM_TIME_MINUS = 2.60793870074569


def count_attempts(monkeypatch, module):
    """The step sizes of every step attempted by the runs that follow, each
    step that a factory of _step returns wrapped so that it records them."""
    attempts, build = [], module._step

    def counting(body):
        factory = build(body)

        def counting_factory(params):
            step = factory(params)

            @functools.wraps(step)  # keeps its name and its attribute field
            def counted(y, k0, h, atol, rtol):
                attempts.append(h)
                return step(y, k0, h, atol, rtol)

            return counted

        return counting_factory

    monkeypatch.setattr(module, "_step", counting)
    return attempts


def bisection_rounds(module, h):
    """The rounds _locate_event takes over a step of size h."""
    rounds = 0
    while h / 2.0**rounds > module._EVENT_TIME_TOL:
        rounds += 1
    return rounds


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
        assert traj.termination.t_event == pytest.approx(15.999984, abs=1e-7)

    def test_round_shrinker_stays_round_exactly(self):
        # on the diagonal the field has dx == dy bit for bit, so each stage
        # and each step moves alpha and beta alike
        traj = integrate(COLLAPSE, NO_EQUILIB, t_end=20.0)
        assert traj.termination.tag == "CollapsePoint"
        assert len(traj.samples) > 50
        assert all(state.alpha == state.beta for state, _ in traj.samples)

    def test_blow_down(self):
        traj = integrate(COLLAPSE_23, NO_EQUILIB, t_end=11.5)
        assert max_closed_form_error(traj) <= 1e-8
        traj = integrate(COLLAPSE_23, NO_EQUILIB, t_end=20.0)
        assert traj.termination.tag == "CollapsePoint"
        assert traj.termination.t_event == pytest.approx(11.999973, abs=1e-7)

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

    def test_round_sphere_neighbourhood_at_minus_one_stays_put(self):
        # At a*kappa = -1 the field at curve_point(1.0), (0, 2.8e-17), is too
        # small for a step to move the start, so its drift of 0 proves
        # little; the floats two ulps either side do move (up to 5.75e-11).
        params = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=-0.5, epsilon=1.0)
        s = curve_point(1.0)[1]
        below = math.nextafter(s, 0.0)
        above = math.nextafter(s, math.inf)
        for x in (math.nextafter(below, 0.0), below, s, above, math.nextafter(above, math.inf)):
            traj = integrate(params, NO_EQUILIB, 100.0, start=State(0.0, x, x))
            assert traj.termination.tag == "ReachedTEnd"
            assert max(max(abs(st.alpha - x), abs(st.beta - x)) for st, _ in traj.samples) <= 1e-10


class TestEvents:
    def test_equilibrium_event_on_convergent_run(self):
        params = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=0.5, epsilon=1.2)
        traj = integrate(params, IntegratorConfig(), t_end=400.0)
        assert traj.termination.tag == "Equilibrium"
        target = math.sqrt(normalizing_constant(1.0))
        x, y = traj.termination.detail["location"]
        assert x == pytest.approx(target, abs=1e-6)
        assert y == pytest.approx(target, abs=1e-6)

    # An Equilibrium time is late by the integrator's noise floor (README
    # table).  Exact times: on the unit-volume curve the planar flow is
    # epsilon' = k(epsilon), so the event time is the integral of
    # d(epsilon) / k(epsilon) from epsilon0 to where |F| / |curve_point| =
    # equilib_tol, F = k(epsilon) curve_tangent(epsilon), taken by mpmath
    # quadrature at 40 digits in s = ln|epsilon - 1|, which removes the
    # logarithmic end.  The late ranges are those measured over the README
    # table's starts at the default config.
    @pytest.mark.parametrize(
        "kappa,epsilon,exact,late",
        [
            pytest.param(0.5, 1.2, EXACT_EQUILIBRIUM_TIME_PLUS, (2.3e-3, 4.4e-3), id="plus"),
            pytest.param(-0.5, 5.0, EXACT_EQUILIBRIUM_TIME_MINUS, (4.3e-2, 8.1e-2), id="minus"),
        ],
    )
    def test_equilibrium_time_is_late_by_the_documented_amount(self, kappa, epsilon, exact, late):
        params = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=kappa, epsilon=epsilon)
        term = integrate(params, IntegratorConfig(), t_end=100.0).termination
        assert term.tag == "Equilibrium"
        assert late[0] <= term.t_event - exact <= late[1]

    def test_a_looser_rtol_never_reaches_the_equilibrium_test(self):
        # at a*kappa = -1 the step is stability-bound near the round sphere
        # and |F| / |y| stays near 4.5 rtol, above equilib_tol from rtol 2e-10
        params = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=-0.5, epsilon=5.0)
        assert integrate(params, IntegratorConfig(rtol=2e-10), t_end=100.0).termination.tag == "ReachedTEnd"

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

    @pytest.mark.parametrize(
        "a,kappa,epsilon",
        [(2.0, -1.0, 0.5), (2.0, -1.0, 1.0), (2.0, -1.0, 3.0), (-2.0, 1.0, 20.0), (2.0, 1.0, 0.05),
         (-2.0, -1.0, 0.3), (2.0, 1.0, 0.6), (2.0, 1.0, 2.0 / 3.0 - 1e-3), (2.0, 1.0, 0.6666)],
    )
    def test_beta_inf_is_the_limit_of_the_orbit(self, a, kappa, epsilon):
        # I = y^4 (3u - p)^2 / |u - p/2|, u = x/y, p = a kappa, is constant
        # on a collapse orbit and tends to 4 y^4 as x -> 0, so the limit is
        # (I0/4)^(1/4) from the start (epsilon, 1); near the separatrix
        # u = 2/3 of p = 2, I loses digits as 1/|3u - p|
        params = FlowParams(FlowKind.COLLAPSE, a=a, kappa=kappa, epsilon=epsilon)
        traj = integrate(params, NO_EQUILIB, t_end=1e4)
        assert traj.termination.tag == "CollapseFiber"
        p = a * kappa
        exact = ((3.0 * epsilon - p) ** 2 / abs(epsilon - p / 2.0) / 4.0) ** 0.25
        bound = 1e-9 * max(1.0, 1.0 / abs(3.0 * epsilon - p))
        assert traj.termination.detail["beta_inf"] == pytest.approx(exact, rel=bound)

    @pytest.mark.parametrize("collapse_tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("kappa,epsilon", [(-1.0, 3.0), (1.0, 0.3), (-1.0, 20.0)])
    def test_a_fine_collapse_tol_ends_in_the_fiber_collapse(self, kappa, epsilon, collapse_tol):
        # |F| / |y| falls as alpha does, below the default equilib_tol near
        # alpha = 1e-9, but the collapse flow has no critical point: no
        # equilibrium test runs, and beta_inf keeps verify's 1e-9 bound
        params = FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=kappa, epsilon=epsilon)
        traj = integrate(params, IntegratorConfig(collapse_tol=collapse_tol), t_end=1e9)
        assert traj.termination.tag == "CollapseFiber"
        p = 2.0 * kappa
        exact = ((3.0 * epsilon - p) ** 2 / abs(epsilon - p / 2.0) / 4.0) ** 0.25
        assert abs(traj.termination.detail["beta_inf"] / exact - 1.0) <= 1e-9
        untested = IntegratorConfig(collapse_tol=collapse_tol, equilib_tol=None)
        assert repr(integrate(params, untested, t_end=1e9)) == repr(traj)

    # Near a point collapse alpha falls like (T - t)^(1/2), so the step meets
    # the 1e-13 floor at alpha of about 1.1e-7 to 1.3e-7: a collapse_tol of
    # 1e-6 still ends in CollapsePoint, one of 1e-7 in StepUnderflow.
    @pytest.mark.parametrize(
        "epsilon,t_collapse,alpha_floor",
        [(0.8, 13.7216357643, 1.18e-7), (1.0, 16.0000000195, 1.32e-7),
         (1.3, 18.9529853196, 1.13e-7), (20.0, 83.6019439135, 1.27e-7)],
    )
    def test_a_point_collapse_meets_the_step_floor_below_1e_6(self, epsilon, t_collapse, alpha_floor):
        params = FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=1.0, epsilon=epsilon)
        term = integrate(params, IntegratorConfig(collapse_tol=1e-6), t_end=200.0).termination
        assert term.tag == "CollapsePoint"
        assert term.t_event == pytest.approx(t_collapse, abs=1e-9)
        term = integrate(params, IntegratorConfig(collapse_tol=1e-7), t_end=200.0).termination
        assert term.tag == "StepUnderflow"
        alpha, beta = term.detail["last_state"]
        assert alpha == beta == pytest.approx(alpha_floor, rel=5e-3)
        assert 1.6e-13 <= term.detail["h"] <= 2.3e-13

    @pytest.mark.parametrize("a,kappa", [(2.0, 1.0), (-2.0, -1.0), (2.0, -1.0)])
    @pytest.mark.parametrize(
        "epsilon",
        [2.0 / 3.0 - d for d in (1e-10, 1e-8, 1e-7, 3e-7)] + [2.0 / 3.0, 2.0 / 3.0 + 1e-8, 0.8, 1.0, 1.3],
    )
    def test_collapse_fate_follows_the_basin_rule(self, a, kappa, epsilon):
        # for a*kappa = 2, u = x/y is monotone and never crosses 2/3: from
        # u0 >= 2/3 the run ends at the origin, from below it the fiber
        # collapses onto the y axis inside the K1 bracket, however close to
        # 2/3 it starts; for a*kappa = -2 every start collapses the fiber
        params = FlowParams(FlowKind.COLLAPSE, a=a, kappa=kappa, epsilon=epsilon)
        term = integrate(params, NO_EQUILIB, t_end=1e4).termination
        if a * kappa == 2.0 and epsilon >= 2.0 / 3.0:
            assert term.tag == "CollapsePoint"
        else:
            assert term.tag == "CollapseFiber"
            lo, hi = term.detail["bracket"]
            assert lo < term.detail["beta_inf"] < hi

    def test_normalized_fiber_collapse_reports_the_event_base_scale(self):
        # beta grows without bound as the fiber collapses: there is no limit to report
        params = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=0.5, epsilon=0.5)
        traj = integrate(params, IntegratorConfig(), t_end=2000.0)
        assert traj.termination.tag == "CollapseFiber"
        assert traj.termination.detail == {"beta": traj.final_state.beta}

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

    def test_event_location_costs_no_rhs_call(self, monkeypatch, counting_body):
        # FSAL: one call for the initial state, then six per attempted
        # step; locating the collapse on the interpolant adds none, and the
        # event state's derivative is the one call made there.  The package
        # attribute bergerflow.integrate is the function, so the module
        # comes from importlib.
        module = importlib.import_module("bergerflow.integrate")
        calls = counting_body(FlowKind.COLLAPSE, "field")
        attempts = count_attempts(monkeypatch, module)
        traj = integrate(COLLAPSE, NO_EQUILIB, t_end=20.0)
        assert traj.termination.tag == "CollapsePoint"
        assert len(calls) == 1 + 6 * len(attempts) + 1
        assert calls[-1] == (traj.final_state.alpha, traj.final_state.beta)

    def test_reduced_steps_cost_six_rhs_calls(self, monkeypatch, counting_body):
        # the 1-D path shares the FSAL stage just as the planar one does
        module = importlib.import_module("bergerflow.integrate")
        calls = counting_body(FlowKind.NORMALIZED, "speed")
        attempts = count_attempts(monkeypatch, module)
        samples = integrate_reduced(NORMALIZED, NO_EQUILIB, epsilon0=1.4, t_end=50.0)
        assert samples[-1][0] == 50.0
        assert attempts
        assert len(calls) == 1 + 6 * len(attempts)

    def test_equilibrium_test_reads_the_fsal_stage(self, counting_body):
        # the step's last stage is f at the accepted state, so the
        # equilibrium predicate must not evaluate the field there again
        params = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=0.5, epsilon=1.2)
        points = counting_body(FlowKind.NORMALIZED, "field")
        traj = integrate(params, IntegratorConfig(), t_end=400.0)
        assert traj.termination.tag == "Equilibrium"
        calls = Counter(points)
        counts = [calls[(s.alpha, s.beta)] for s, _ in traj.samples[:-1]]
        assert counts == [1] * len(counts)

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize(
        "params,t_end,tag",
        [(COLLAPSE, 20.0, "CollapsePoint"), (COLLAPSE, 10.0, "ReachedTEnd"),
         (FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=0.5, epsilon=1.2), 400.0, "Equilibrium")],
        ids=["collapse-event", "t-end", "equilibrium-event"],
    )
    def test_derivatives_are_the_held_stages(self, monkeypatch, counting_body, params, t_end, tag, stride):
        # each recorded derivative is a value the step computed at that
        # sample, not a new call: the run makes exactly the step's
        # evaluations, and each sample's state is one of them; an
        # interpolated collapse state has the one evaluation made there, and
        # an equilibrium state the value a bisection round computed
        module = importlib.import_module("bergerflow.integrate")
        points = counting_body(params.kind, "field")
        attempts = count_attempts(monkeypatch, module)
        traj = integrate(params, IntegratorConfig(output_stride=stride), t_end=t_end)
        assert traj.termination.tag == tag
        rounds = bisection_rounds(module, attempts[-1]) if tag == "Equilibrium" else 0
        assert len(points) == 1 + 6 * len(attempts) + rounds + (tag == "CollapsePoint")
        assert len(traj.derivatives) == len(traj.samples)
        evaluated = set(points)
        monkeypatch.undo()
        for (state, _), dy in zip(traj.samples, traj.derivatives):
            assert (state.alpha, state.beta) in evaluated
            assert dy == vector_field(params, (state.alpha, state.beta))
        if tag == "CollapsePoint":
            assert points[-1] == (traj.final_state.alpha, traj.final_state.beta)

    def test_derivatives_stay_out_of_repr_and_equality(self):
        traj = integrate(COLLAPSE, NO_EQUILIB, t_end=1.0)
        bare = type(traj)(traj.params, traj.samples, traj.termination)
        assert bare.derivatives == []
        assert bare == traj
        assert repr(bare) == repr(traj)

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

    def test_step_budget_error(self, monkeypatch):
        monkeypatch.setattr(importlib.import_module("bergerflow.integrate"), "_MAX_STEPS", 10)
        with pytest.raises(StepBudgetError, match="step budget of 10 exhausted"):
            integrate(COLLAPSE, NO_EQUILIB, t_end=20.0)

    @pytest.mark.parametrize("budget", [10, 40])
    def test_step_budget_error_names_the_state_and_step(self, monkeypatch, budget):
        # the budget only decides where the run stops, so the state the
        # message names is a sample of the same run without one
        params = FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=1.0, epsilon=0.8)
        samples = integrate(params, NO_EQUILIB, t_end=20.0).samples
        monkeypatch.setattr(importlib.import_module("bergerflow.integrate"), "_MAX_STEPS", budget)
        with pytest.raises(StepBudgetError) as info:
            integrate(params, NO_EQUILIB, t_end=20.0)
        head, h = str(info.value).split(", h=")
        assert 0.0 < float(h) <= 1.0
        named = [
            f"step budget of {budget} exhausted at t={s.t:.6g}, state ({s.alpha:.6g}, {s.beta:.6g})"
            for s, _ in samples
        ]
        assert head in named

    def test_unattainable_tolerance_underflows(self):
        # the scaled error overflows; that must reject the step, not raise
        params = FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=1.0, epsilon=1.3)
        traj = integrate(params, IntegratorConfig(rtol=1e-300, atol=1e-300), t_end=20.0)
        assert traj.termination.tag == "StepUnderflow"
        assert traj.termination.t_event == 0.0
        # the last step attempted, which one more shrink by at most
        # _MIN_FACTOR would take below the floor
        module = importlib.import_module("bergerflow.integrate")
        assert module._H_MIN <= traj.termination.detail["h"] < module._H_MIN / module._MIN_FACTOR

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rtol=-1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(output_stride=0)
        # non-finite settings would turn off error control or fire an
        # event at t=0
        for name in ("rtol", "atol", "collapse_tol", "equilib_tol"):
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

    @pytest.mark.parametrize("params", [COLLAPSE, NORMALIZED], ids=["collapse", "normalized"])
    @pytest.mark.parametrize("point", [(5e-324, 5e-324), (1e-310, 1e-310), (1.0, 1e-120)])
    def test_start_with_a_non_finite_field_is_rejected(self, params, point):
        # the field there is infinite, or its evaluation divides by zero
        with pytest.raises(ValueError) as error:
            integrate(params, start=State(0.0, *point))
        assert str(error.value) == f"start must keep the field finite, got {point!r}"

    @pytest.mark.parametrize("params", [COLLAPSE, NORMALIZED], ids=["collapse", "normalized"])
    def test_huge_start_reaches_t_end(self, params):
        # alpha^2 overflows, but r = alpha/beta and u = 1/beta^2 do not
        traj = integrate(params, start=State(0.0, 1.34e154, 9e76), t_end=10.0)
        assert traj.termination.tag == "ReachedTEnd"
        assert traj.final_state.t == 10.0

    @pytest.mark.parametrize("params,alpha", [(COLLAPSE, 1e-300), (NORMALIZED, 1e-100)], ids=["collapse", "normalized"])
    def test_start_whose_beta_squared_overflows_is_rejected_before_any_step(self, monkeypatch, params, alpha):
        # the field is finite there, but a sample's beta**2 raises
        # OverflowError above sqrt(DBL_MAX): that float itself runs, and a
        # larger beta is refused before any step, not after the run
        top = math.sqrt(sys.float_info.max)
        attempts = count_attempts(monkeypatch, importlib.import_module("bergerflow.integrate"))
        for beta in (1e300, math.nextafter(top, math.inf)):
            point = (alpha, beta)
            with pytest.raises(ValueError) as error:
                integrate(params, IntegratorConfig(), 10.0, start=State(0.0, *point))
            assert str(error.value) == f"start must keep the field finite and beta**2 finite, got {point!r}"
        assert attempts == []
        traj = integrate(params, IntegratorConfig(), 10.0, start=State(0.0, alpha, top))
        assert traj.termination.tag == "CollapseFiber"
        assert math.isfinite(traj.samples[0][1].volume)

    def test_off_curve_start_below_repeller(self):
        traj = integrate(
            NORMALIZED, IntegratorConfig(), t_end=2000.0,
            start=State(t=0.0, alpha=0.3, beta=0.5),
        )
        assert traj.termination.tag == "CollapseFiber"


@pytest.mark.parametrize(
    "params",
    [COLLAPSE, COLLAPSE_NEG, FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=0.5, epsilon=1.2),
     FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=-0.5, epsilon=0.6)],
    ids=["collapse", "collapse-neg", "normalized", "normalized-neg"],
)
def test_samples_equal_the_public_constructors(params):
    # the records integrate assembles are the ones State and
    # geometry_scalars build, field for field and bit for bit, with the
    # same instance dicts, in the same key order, hashes and pickles
    traj = integrate(params, IntegratorConfig(), t_end=50.0)
    rebuilt = assert_samples_rebuild(traj)
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    for got, want in zip((r for pair in traj.samples for r in pair), (r for pair in rebuilt for r in pair)):
        assert type(got) is type(want)
        assert list(vars(got).items()) == list(vars(want).items())
        assert hash(got) == hash(want)
        assert [pickle.dumps(got, protocol) for protocol in protocols] == [
            pickle.dumps(want, protocol) for protocol in protocols
        ]


def assert_samples_rebuild(traj):
    """traj's samples are the records State and geometry_scalars build;
    returns those."""
    rebuilt = [
        (State(s.t, s.alpha, s.beta), geometry_scalars(traj.params, s.alpha, s.beta))
        for s, _ in traj.samples
    ]
    assert traj.samples == rebuilt
    assert [repr(pair) for pair in traj.samples] == [repr(pair) for pair in rebuilt]
    return rebuilt


def sweep_box_runs(seed):
    """Seeded (params, t_end) draws over the benchmark's sweep box: both
    flows, a = +-2 and both signs of kappa, epsilon log-uniform in [1/4, 4],
    two runs to the terminal event and one to a short horizon each; then a
    collapse start whose first steps underflow."""
    rng = random.Random(seed)
    runs = []
    for kind in FlowKind:
        for a in (-2.0, 2.0):
            for sign in (-1.0, 1.0):
                kappa = sign if kind is FlowKind.COLLAPSE else 0.5 * sign
                for t_end in (1e4, 1e4, 2.0):
                    epsilon = math.exp(rng.uniform(-math.log(4.0), math.log(4.0)))
                    runs.append((FlowParams(kind, a, kappa, epsilon), t_end))
    return runs + [(FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=1.0, epsilon=1e50), 10.0)]


@pytest.mark.parametrize("stride", [1, 7])
def test_sweep_box_samples_equal_the_public_constructors(stride):
    # as above, over seeded draws: the fused sample assembly builds, at
    # every stride and termination, the records of the public constructors,
    # and every derivative, the event state's included, is the field's bits
    config = IntegratorConfig(output_stride=stride)
    tags = Counter()
    for params, t_end in sweep_box_runs(15):
        traj = integrate(params, config, t_end=t_end)
        tags[traj.termination.tag] += 1
        assert_samples_rebuild(traj)
        fresh = [vector_field(params, (state.alpha, state.beta)) for state, _ in traj.samples]
        assert traj.derivatives == fresh
    assert set(tags) == {"CollapsePoint", "CollapseFiber", "Equilibrium", "ReachedTEnd", "StepUnderflow"}


def test_a_counting_spinor_body_sees_every_sample(counting_body):
    # the sample builder compiles the kind's spinor body, read when the run
    # starts: a counting one planted there is called once per sample, at
    # the sample, and the records keep the stock run's bits
    runs = [(COLLAPSE, 20.0, 1), (COLLAPSE_NEG, 5000.0, 7), (NORMALIZED, 5.0, 1), (NORMALIZED_NEG, 400.0, 3)]
    stock = [integrate(params, IntegratorConfig(output_stride=stride), t_end) for params, t_end, stride in runs]
    calls = {kind: counting_body(kind, "spinor") for kind in FlowKind}
    for (params, t_end, stride), want in zip(runs, stock):
        calls[params.kind].clear()
        got = integrate(params, IntegratorConfig(output_stride=stride), t_end)
        assert calls[params.kind] == [(s.alpha, s.beta) for s, _ in got.samples]
        assert got.samples == want.samples
        assert repr(got) == repr(want)


def test_a_reduced_run_reads_the_parameters_a_bounded_number_of_times():
    # the fused speed step's parameter-only lines run once per run, not at
    # every attempted step
    reads = []

    class Counted(FlowParams):
        @property
        def product(self):
            reads.append(self)
            return FlowParams.product.fget(self)

    params = Counted(FlowKind.NORMALIZED, a=2.0, kappa=0.5, epsilon=1.0)
    runs = []
    for t_end in (0.1, 50.0):
        reads.clear()
        samples = integrate_reduced(params, NO_EQUILIB, epsilon0=1.4, t_end=t_end)
        runs.append((len(reads), len(samples)))
    (short_reads, short_samples), (long_reads, long_samples) = runs
    assert long_samples > 10 * short_samples
    assert short_reads == long_reads <= 2


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


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(FlowKind),
    a=st.sampled_from([2.0, -2.0]),
    kappa_sign=st.sampled_from([1.0, -1.0]),
    log_eps=st.floats(-math.log(4.0), math.log(4.0)),
)
def test_properties_over_the_parameter_box(kind, a, kappa_sign, log_eps):
    # samples stay in the open quadrant, energy never rises, the normalized
    # flow keeps unit volume, and (a, kappa) -> (-a, -kappa) only negates f, g
    kappa = kappa_sign * (1.0 if kind is FlowKind.COLLAPSE else 0.5)
    params = FlowParams(kind, a, kappa, math.exp(log_eps))
    traj = integrate(params, t_end=50.0)
    flip = integrate(FlowParams(kind, -a, -kappa, params.epsilon), t_end=50.0)
    energies = [sc.energy for _, sc in traj.samples]
    assert all(e1 <= e0 + 1e-10 for e0, e1 in zip(energies, energies[1:]))
    for (s, sc), (s_flip, sc_flip) in zip(traj.samples, flip.samples, strict=True):
        assert 0.0 < s.alpha < math.inf and 0.0 < s.beta < math.inf
        if kind is FlowKind.NORMALIZED:
            assert abs(sc.volume - 1.0) <= 1e-8
        assert s_flip == s
        assert (sc_flip.energy, sc_flip.volume, sc_flip.q00, sc_flip.q11) == (
            sc.energy, sc.volume, sc.q00, sc.q11,
        )
        assert (sc_flip.f, sc_flip.g) == (-sc.f, -sc.g)
    assert flip.termination == traj.termination


class TestReduced:
    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            integrate_reduced(COLLAPSE)

    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.nan])
    def test_rejects_a_t_end_that_is_not_positive(self, t_end):
        with pytest.raises(ValueError, match=f"t_end must be positive, got {t_end}"):
            integrate_reduced(NORMALIZED, epsilon0=1.4, t_end=t_end)

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

    @pytest.mark.parametrize("params", [NORMALIZED, NORMALIZED_NEG], ids=["pos", "neg"])
    @pytest.mark.parametrize(
        "epsilon0,needle",
        [
            (math.inf, "epsilon0 must be positive and finite, got inf"),
            (math.nan, "epsilon0 must be positive and finite, got nan"),
            (0.0, "epsilon0 must be positive and finite, got 0.0"),
            (1e300, "epsilon0 must keep the speed finite at the start, got 1e+300"),
            (1e200, "epsilon0 must keep the speed finite at the start, got 1e+200"),
            (1e85, "epsilon0 must keep the speed finite at the start, got 1e+85"),  # k = -inf
            # a finite speed too large for the smallest step
            (1.09e4, "epsilon0 must keep the step above 1e-13 at rtol=1e-10, atol=1e-12, got 10900.0:"
             " underflow at t=0, state (10900), h=1.49012e-13"),
            (1e6, "epsilon0 must keep the step above 1e-13 at rtol=1e-10, atol=1e-12, got 1000000.0:"
             " underflow at t=0, state (1e+06), h=1.16415e-13"),
            (1e50, "epsilon0 must keep the step above 1e-13 at rtol=1e-10, atol=1e-12, got 1e+50:"
             " underflow at t=0, state (1e+50), h=1.16415e-13"),
        ],
    )
    def test_rejects_epsilon0_outside_the_domain(self, params, epsilon0, needle):
        with pytest.raises(ValueError) as info:
            integrate_reduced(params, NO_EQUILIB, epsilon0=epsilon0, t_end=1.0)
        assert str(info.value) == needle

    @pytest.mark.parametrize("params", [NORMALIZED, NORMALIZED_NEG], ids=["pos", "neg"])
    def test_large_valid_epsilon0(self, params):
        # a speed of about -1e11 at the start; the run still settles at 1
        samples = integrate_reduced(params, IntegratorConfig(), epsilon0=1e3, t_end=20.0)
        eps = [e for _, e in samples]
        assert samples[0] == (0.0, 1e3)
        assert all(b <= a for a, b in zip(eps, eps[1:]))
        assert eps[-1] == pytest.approx(1.0, abs=1e-6)
        # at the default tolerances the step floor bounds the domain at
        # about 1.08e4; beyond it, up to where the speed overflows, it raises
        samples = integrate_reduced(params, IntegratorConfig(), epsilon0=1.08e4, t_end=10.0)
        assert samples[0] == (0.0, 1.08e4)
        assert samples[-1][1] == pytest.approx(1.0, abs=1e-4)
        edge = 8.7e76 if params.product < 0 else 8.9e83
        with pytest.raises(ValueError, match="^epsilon0 must keep the step above 1e-13 at rtol=1e-10, atol=1e-12, got"):
            integrate_reduced(params, NO_EQUILIB, epsilon0=edge, t_end=1.0)


def stock_step(name, params):
    """The step that a run at params takes: integrate's, over the flow
    kind's field, if name is a planar step, else integrate_reduced's."""
    module = importlib.import_module("bergerflow.integrate")
    return module._step(params.kind.field if name.startswith("_rk_step2") else params.kind.speed)(params)


# bodies whose value calls the public function: the step of such a planted
# body is the stock step's generated code with a call at each stage
PLANTED_FIELD = importlib.import_module("bergerflow.model")._body(
    "_planted_field", "alpha, beta", "", "", "field(params, (alpha, beta))", field=vector_field
)
PLANTED_SPEED = importlib.import_module("bergerflow.model")._body(
    "_planted_speed", "epsilon", "", "", "speed(params, epsilon)", speed=curve_speed
)


def compiled_step(name, params):
    """The step named name at params: a planted body's, if its name says so,
    else the step a run at params takes."""
    if "_planted_" not in name:
        return stock_step(name, params)
    module = importlib.import_module("bergerflow.integrate")
    return module._step(PLANTED_FIELD if name.startswith("_rk_step2") else PLANTED_SPEED)(params)


def speed_rhs(p, y):
    """The reduced field as a function of a 1-tuple, as the reference step calls it."""
    return (curve_speed(p, y[0]),)


def reference_step(f, p, y, k0, h, atol, rtol):
    """The Dormand-Prince step and error norm as loops over the module's
    tableau, summing left to right from 0 with no zero term left out."""
    module = importlib.import_module("bergerflow.integrate")
    k = [k0]
    for a in module._A[1:]:
        stage = []
        for d, yd in enumerate(y):
            acc = 0
            for aj, kj in zip(a, k):
                acc = acc + aj * kj[d]
            stage.append(yd + h * acc)
        y_new = tuple(stage)
        if not all(0.0 < v < math.inf for v in y_new):
            return None
        k.append(f(p, y_new))
    squares = 0
    for d in range(len(y)):
        acc = 0
        for e, kj in zip(module._E, k):
            acc = acc + e * kj[d]
        r = h * acc / (atol + rtol * max(abs(y[d]), abs(y_new[d])))
        squares = squares + r * r
    return k[6], y_new, math.sqrt(squares / len(y))


@pytest.mark.parametrize(
    "name,params",
    [
        pytest.param("_rk_step2_collapse_field", COLLAPSE, id="fused-collapse"),
        pytest.param("_rk_step2_collapse_field", COLLAPSE_NEG, id="fused-collapse-neg"),
        pytest.param("_rk_step2_normalized_field", NORMALIZED, id="fused-normalized"),
        pytest.param("_rk_step2_normalized_field", NORMALIZED_NEG, id="fused-normalized-neg"),
        pytest.param("_rk_step1_curve_speed", NORMALIZED, id="fused-reduced"),
        pytest.param("_rk_step1_curve_speed", NORMALIZED_NEG, id="fused-reduced-neg"),
        pytest.param("_rk_step2_planted_field", COLLAPSE, id="planar-collapse"),
        pytest.param("_rk_step2_planted_field", COLLAPSE_NEG, id="planar-collapse-neg"),
        pytest.param("_rk_step2_planted_field", NORMALIZED, id="planar-normalized"),
        pytest.param("_rk_step2_planted_field", NORMALIZED_NEG, id="planar-normalized-neg"),
        pytest.param("_rk_step1_planted_speed", NORMALIZED, id="reduced"),
        pytest.param("_rk_step1_planted_speed", NORMALIZED_NEG, id="reduced-neg"),
    ],
)
def test_specialised_steps_match_the_tableau(name, params):
    # the unrolled steps, over the stock bodies and over planted ones that
    # call the public functions, must give the loop's bits on every
    # admissible input, and reject exactly the steps whose stages leave the
    # quadrant; the loop calls the stock field
    planar = name.startswith("_rk_step2")
    f = vector_field if planar else speed_rhs
    step = compiled_step(name, params)
    assert step.__name__ == name
    rng = random.Random(2024)
    outcomes = Counter()
    for _ in range(300):
        y = tuple(math.exp(rng.uniform(-3.0, 1.5)) for _ in range(2 if planar else 1))
        h = math.exp(rng.uniform(-9.0, 1.0))
        atol, rtol = rng.choice([(1e-12, 1e-10), (1e-8, 1e-6)])
        k0 = f(params, y)
        got = step(y, k0, h, atol, rtol)
        assert got == reference_step(f, params, y, k0, h, atol, rtol)
        outcomes["domain" if got is None else "error" if got[2] > 1.0 else "accepted"] += 1
    assert outcomes["domain"] and outcomes["error"] and outcomes["accepted"]


def bits(values):
    return tuple(float.hex(v) for v in values)


@pytest.mark.parametrize(
    "name,params",
    [
        pytest.param("_rk_step2_collapse_field", COLLAPSE, id="planar-collapse-fused"),
        pytest.param("_rk_step2_collapse_field", COLLAPSE_NEG, id="planar-collapse-neg-fused"),
        pytest.param("_rk_step2_normalized_field", NORMALIZED, id="planar-normalized-fused"),
        pytest.param("_rk_step2_normalized_field", NORMALIZED_NEG, id="planar-normalized-neg-fused"),
        pytest.param("_rk_step1_curve_speed", NORMALIZED, id="reduced-fused"),
        pytest.param("_rk_step1_curve_speed", NORMALIZED_NEG, id="reduced-neg-fused"),
        pytest.param("_rk_step2_planted_field", COLLAPSE, id="planar-collapse-planted"),
        pytest.param("_rk_step2_planted_field", COLLAPSE_NEG, id="planar-collapse-neg-planted"),
        pytest.param("_rk_step2_planted_field", NORMALIZED, id="planar-normalized-planted"),
        pytest.param("_rk_step2_planted_field", NORMALIZED_NEG, id="planar-normalized-neg-planted"),
        pytest.param("_rk_step1_planted_speed", NORMALIZED, id="reduced-planted"),
        pytest.param("_rk_step1_planted_speed", NORMALIZED_NEG, id="reduced-neg-planted"),
    ],
)
def test_every_step_carries_its_point_field(name, params):
    # every step, a run's or a planted body's, is called as step(y, k0, h,
    # atol, rtol) and has step.field(y), the public function's bits on a
    # grid, as a tuple
    planar = name.startswith("_rk_step2")
    step = compiled_step(name, params)
    assert step.__name__ == name
    grid, taken = [math.exp(0.25 * i) for i in range(-12, 7)], 0
    for y in [(x, b) for x in grid for b in grid] if planar else [(e,) for e in grid]:
        want = vector_field(params, y) if planar else (curve_speed(params, y[0]),)
        assert bits(step.field(y)) == bits(want)
        got = step(y, step.field(y), 1e-3, 1e-12, 1e-10)  # the last stage is the field at the result
        if got is not None:
            taken += 1
            assert bits(got[0]) == bits(step.field(got[1]))
    assert taken


@pytest.mark.parametrize(
    "name,call",
    [("_rk_step2_planted_field", "field(params, (alpha, beta))"), ("_rk_step1_planted_speed", "speed(params, epsilon)")],
    ids=["_rk_step2", "_rk_step1"],
)
def test_generated_steps_show_their_source(name, call):
    # a planted body's step is compiled from generated text registered with
    # linecache under the body's name: its value's call stands at each of
    # the six stages, unrolled, and once in its point field
    step = compiled_step(name, NORMALIZED)
    source = inspect.getsource(step)
    assert step.__module__ == f"bergerflow.integrate.{name}"
    assert source.count(call) == 6
    assert "for" not in source.split()
    assert inspect.getsource(step.field).count(call) == 1


@pytest.mark.parametrize(
    "name", ["_rk_step2_normalized_field", "_rk_step1_curve_speed"], ids=["_rk_step2", "_rk_step1"]
)
def test_generated_source_survives_a_cleared_linecache(name):
    # the step's module has a loader that linecache can ask again
    step = stock_step(name, NORMALIZED)
    linecache.clearcache()
    source = textwrap.dedent(inspect.getsource(step))
    assert source.startswith(f"def {name}(y, k0, h, atol, rtol):")
    assert source.count("        return None\n") == 6


def test_traceback_inside_the_step_shows_its_line():
    # a body that raises: the traceback names the step's module and shows
    # the stage line of the body's value
    module = importlib.import_module("bergerflow.integrate")

    def fail(alpha, beta):
        raise ZeroDivisionError("planted")

    model = importlib.import_module("bergerflow.model")
    failing = model._body("_failing", "alpha, beta", "", "", "fail(alpha, beta)", fail=fail)
    linecache.clearcache()
    with pytest.raises(ZeroDivisionError) as info:
        module._step(failing)(COLLAPSE)((1.0, 1.0), (0.1, 0.1), 1e-2, 1e-12, 1e-10)
    text = "".join(traceback.format_exception(info.value))
    assert 'File "bergerflow.integrate._rk_step2_failing", line 9, in _rk_step2_failing' in text
    assert "    k2_0, k2_1 = fail(alpha, beta)\n" in text


def test_a_planted_step_compiled_first_never_shows_for_the_stock_one(counting_body):
    # each step is named after its body: the step of a planted body,
    # compiled and shown before the stock body's, keeps a module name of
    # its own, so the line cache never serves its text for the stock step
    stock = FlowKind.COLLAPSE.field
    fresh = functools.cache(importlib.import_module("bergerflow.integrate")._step.__wrapped__)  # compiles anew
    linecache.clearcache()
    counting_body(FlowKind.COLLAPSE, "field")
    planted = fresh(FlowKind.COLLAPSE.field)(COLLAPSE)
    assert inspect.getsource(planted).count("record(alpha, beta)") == 6
    step = fresh(stock)(COLLAPSE)
    assert step.__module__ != planted.__module__
    source = inspect.getsource(step)
    assert "record(" not in source
    assert source.count("  # dalpha") == 6


FUSED = [
    pytest.param("_rk_step2_collapse_field", COLLAPSE, id="collapse"),
    pytest.param("_rk_step2_normalized_field", NORMALIZED, id="normalized"),
    pytest.param("_rk_step1_curve_speed", NORMALIZED, id="reduced"),
]

# the body whose text each step compiles, by the step's name
FORMULA = {
    "_rk_step2_collapse_field": "model._collapse_field",
    "_rk_step2_normalized_field": "model._normalized_field",
    "_rk_step1_curve_speed": "model._curve_speed",
}


def indented(text, depth):
    """text's lines, each indented by depth spaces, with a final newline; empty text stays empty."""
    return textwrap.indent(text + "\n", " " * depth) if text else ""


@pytest.mark.parametrize("name,params", FUSED)
def test_fused_steps_show_their_source(name, params):
    # the body's point lines stand, verbatim, at each of the six stages of
    # the step, its value assigned to the stage, and once in its point
    # field, and its head once, in the factory around the step that runs it
    # once per run; no call is left, and no check but the quadrant test of
    # each stage input
    module_name, function = FORMULA[name].split(".")
    text = getattr(importlib.import_module(f"bergerflow.{module_name}"), function).text
    step = stock_step(name, params)
    linecache.clearcache()
    source = textwrap.dedent(inspect.getsource(step))
    factory = inspect.getsource(getattr(sys.modules[step.__module__], f"{name}_for"))
    assert step.__module__ == f"bergerflow.integrate.{name}"
    assert source.startswith(f"def {name}(y, k0, h, atol, rtol):")
    dims = range(2 if name.startswith("_rk_step2") else 1)
    for j in range(2, 8):
        target = ", ".join(f"k{j}_{d}" for d in dims)
        assert source.count(indented(text.point, 4) + indented(f"{target} = {text.value}", 4)) == 1
    module_source = sys.modules[step.__module__].__loader__.get_source(step.__module__)
    assert not [word for word in ("raise", "FlowKind", "epsilon > 0", '"""') if word in module_source]
    assert factory.startswith(f"def {name}_for(params):\n")
    assert factory.count(indented(text.head, 4)) == 1
    assert text.head.splitlines()[-1] not in source
    assert "f(" not in source
    assert "for" not in source.split()
    output = "  # dalpha" if name.startswith("_rk_step2") else "_SPEED_SCALE * epsilon ** (5.0 / 3.0)"
    assert source.count(output) == 6
    field = textwrap.dedent(inspect.getsource(step.field))
    assert step.field.__module__ == step.__module__
    assert field.startswith(f"def _field{name[len('_rk_step'):]}(y):")
    assert field.count(indented(text.point, 4) + indented(f"k = {text.value}", 4)) == field.count(output) == 1
    assert "f(" not in field


@pytest.mark.parametrize("kind,params", [("collapse", COLLAPSE), ("normalized", NORMALIZED)])
def test_fused_sample_assembly_shows_its_source(kind, params):
    # the spinor body's point lines stand, verbatim, once in the loop over
    # the points, and its head once before the loop; the record body's
    # value fills the record's fields, the metric velocity is read off the
    # derivative each point carries, and no body nor public model function
    # is called
    model = importlib.import_module("bergerflow.model")
    samples = model._samples(params.kind.spinor, model._scalars)
    name = f"_samples_spinor_{kind}_scalars"
    assert samples.__module__ == f"bergerflow.model.{name}"
    linecache.clearcache()
    source = inspect.getsource(samples)
    assert source.startswith(f"def {name}(params, points):\n")
    head, loop = source.split("    for t, (alpha, beta), (dalpha, dbeta) in points:\n")
    spinor, record = getattr(model, f"_spinor_{kind}").text, model._scalars.text
    assert loop.count(indented(spinor.point, 8)) == 1
    assert head.count(indented(spinor.head, 4)) == 1
    assert spinor.head.splitlines()[-1] not in loop
    assert loop.count(" = " + indented(record.value, 8).lstrip()) == 1
    assert "_field(" not in source and "dalpha, dbeta =" not in source
    # each record is made by object.__new__ and its instance dict filled
    # field by field, with no call to its __init__
    assert loop.count("new(State)") == loop.count("new(GeometryScalars)") == 1
    assert "GeometryScalars(" not in loop
    assert "State(" not in source  # every point recorded is one State admits
    filled = re.findall(r"dct\['(\w+)'\]", loop)
    assert filled == [*State.__match_args__, *model.GeometryScalars.__match_args__]
    assert not re.findall(r"(?<!\w)(geometry_scalars|spinor_coefficients|_scalars)\(", source)


@pytest.mark.parametrize("kind", list(FlowKind), ids=lambda kind: kind.value)
def test_one_sample_builder_serves_both_signs_of_a_kind(kind):
    # one function, compiled once per pair of bodies, builds the samples of
    # both signs of a*kappa: on the same points it gives, for each sign,
    # State's fields and the bits of geometry_scalars, in vars() order
    model = importlib.import_module("bergerflow.model")
    samples = model._samples(kind.spinor, model._scalars)
    assert model._samples(kind.spinor, model._scalars) is samples
    grid = [math.exp(0.5 * i) for i in range(-6, 7)]
    scales = [(x, y) for x in grid for y in grid]
    signs = (COLLAPSE, COLLAPSE_NEG) if kind is FlowKind.COLLAPSE else (NORMALIZED, NORMALIZED_NEG)
    for params in signs:
        points = [(0.25 * i, (x, y), kind.field(params, x, y)) for i, (x, y) in enumerate(scales)]
        built = samples(params, points)
        assert len(built) == len(points)
        for (t, (x, y), _), (state, scalars) in zip(points, built):
            want = geometry_scalars(params, x, y)
            assert list(vars(state).items()) == [("t", t), ("alpha", x), ("beta", y)]
            assert list(vars(scalars)) == list(vars(want)) == list(model.GeometryScalars.__match_args__)
            assert bits(tuple(vars(scalars).values())) == bits(tuple(vars(want).values()))


@pytest.mark.parametrize("kind", list(FlowKind), ids=lambda kind: kind.value)
def test_each_kind_carries_the_one_map_to_its_formulas(monkeypatch, kind):
    # the public functions give the bits of the member's field and spinor
    # bodies, and of the normalized member's speed, on a log grid, for both
    # signs of a*kappa, and a run compiles exactly those bodies: a kind
    # without its bodies fails here; the collapse kind has no speed
    field, spinor, speed = kind.field, kind.spinor, getattr(kind, "speed", None)
    grid = [math.exp(0.5 * i) for i in range(-12, 13)]
    signs = (COLLAPSE, COLLAPSE_NEG) if kind is FlowKind.COLLAPSE else (NORMALIZED, NORMALIZED_NEG)
    for params in signs:
        for x, y in [(x, y) for x in grid for y in grid]:
            dx, dy = field(params, x, y)
            f, g = spinor(params, x, y)
            assert bits(vector_field(params, (x, y))) == bits((dx, dy))
            assert bits(spinor_coefficients(params, x, y)) == bits((f, g))
            scalars = geometry_scalars(params, x, y)
            want = (2.0 * dx / x, 2.0 * dy / y, f, g)
            assert bits((scalars.q00, scalars.q11, scalars.f, scalars.g)) == bits(want)
        for e in grid if speed is not None else ():
            assert bits((curve_speed(params, e),)) == bits((speed(params, e),))
    assert (speed is None) == (kind is FlowKind.COLLAPSE)
    model, compiled = importlib.import_module("bergerflow.model"), []
    for module, name in ((importlib.import_module("bergerflow.integrate"), "_step"), (model, "_samples")):
        build = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *bodies, build=build: compiled.append(bodies) or build(*bodies))
    integrate(signs[0], NO_EQUILIB, t_end=1.0)
    assert compiled == [(field,), (spinor, model._scalars)]
    if speed is not None:
        integrate_reduced(signs[0], NO_EQUILIB, epsilon0=0.8, t_end=1.0)
        assert compiled[2:] == [(speed,)]


def test_a_speed_planted_on_its_kind_reaches_curve_speed_and_later_reduced_runs(counting_body):
    # the reduced speed is the normalized member's body: a copy planted
    # there serves curve_speed and every reduced run that starts after the
    # plant, for both signs of a*kappa, and gives the stock bits
    grid, signs = [math.exp(0.5 * i) for i in range(-6, 7)], (NORMALIZED, NORMALIZED_NEG)

    def speeds():
        return [bits((curve_speed(params, e),)) for params in signs for e in grid]

    def runs():
        return [repr(integrate_reduced(params, NO_EQUILIB, epsilon0=1.4, t_end=50.0)) for params in signs]

    stock_speeds, stock_runs = speeds(), runs()
    calls = counting_body(FlowKind.NORMALIZED, "speed")
    assert speeds() == stock_speeds
    assert calls == [(e,) for _ in signs for e in grid]
    assert runs() == stock_runs
    assert len(calls) > 2 * len(grid) and calls[2 * len(grid)] == (1.4,)


@pytest.mark.parametrize("params", [COLLAPSE, NORMALIZED], ids=["collapse", "normalized"])
@pytest.mark.parametrize(
    "t,alpha,beta", [(0.0, 0.0, 1.0), (0.0, 1.0, -0.5), (math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0), (-math.inf, 1.0, 1.0)]
)
def test_a_malformed_start_raises_as_state_does_before_any_step(monkeypatch, params, t, alpha, beta):
    # fused sample assembly checks no scale, so integrate checks its start
    # where it enters, even one that State's constructor never built
    module = importlib.import_module("bergerflow.integrate")
    start = object.__new__(State)
    start.__dict__.update(t=t, alpha=alpha, beta=beta)
    with pytest.raises(ValueError) as want:
        State(t, alpha, beta)
    monkeypatch.setattr(module, "_advance", lambda *args: pytest.fail("a step was taken"))
    with pytest.raises(ValueError) as got:
        integrate(params, NO_EQUILIB, t_end=20.0, start=start)
    assert str(got.value) == str(want.value)


def assert_fused_step_raises_as_the_field_does(name, params, y, k0, error, line_start):
    # the step raises the exception that the reference loop's call of the
    # public function raises, and the traceback shows, in the step, the
    # line the field failed on
    f = vector_field if len(y) == 2 else speed_rhs
    with pytest.raises(error) as want:
        reference_step(f, params, y, k0, 1.0, 1e-12, 1e-10)
    linecache.clearcache()
    with pytest.raises(error) as got:
        stock_step(name, params)(y, k0, 1.0, 1e-12, 1e-10)
    assert str(got.value) == str(want.value)
    text = "".join(traceback.format_exception(got.value))
    assert f'File "bergerflow.integrate.{name}", line ' in text
    line = traceback.extract_tb(want.value.__traceback__)[-1].line
    assert line.startswith(line_start)
    assert traceback.extract_tb(got.value.__traceback__)[-1].line == line
    assert f"\n    {line}" in text


@pytest.mark.parametrize("name,params", FUSED[2:])
def test_inlined_power_raises_as_the_field_does(name, params):
    # a stage input too large for ** raises the speed's OverflowError
    assert_fused_step_raises_as_the_field_does(
        name, params, (1.0,), (1e200,), OverflowError, "_SPEED_SCALE * epsilon **"
    )


@pytest.mark.parametrize("name,params", FUSED[1:2])
def test_a_stage_division_by_zero_raises_as_the_field_does(name, params):
    # the second stage's alpha, about 2e-163, squares to 0.0
    assert_fused_step_raises_as_the_field_does(
        name, params, (1e-160, 1.0), (-4.99e-160, 0.0), ZeroDivisionError, "((d2 * r + d1) * r + e6) / beta"
    )


def test_an_overflowing_stage_gives_the_reference_bits():
    # the collapse body divides only by beta, so it cannot raise inside the
    # quadrant; where the second stage's beta, about 2e-163, makes r^3
    # overflow, the field is infinite there, and the step gives the
    # reference loop's bits: the third stage leaves the quadrant
    y, k0 = (1.0, 1e-160), (0.0, -4.99e-160)
    stage = (1.0, 1e-160 + 0.2 * -4.99e-160)
    assert not all(math.isfinite(v) for v in vector_field(COLLAPSE, stage))
    want = reference_step(vector_field, COLLAPSE, y, k0, 1.0, 1e-12, 1e-10)
    assert want is None
    assert stock_step("_rk_step2", COLLAPSE)(y, k0, 1.0, 1e-12, 1e-10) == want


@pytest.mark.parametrize(
    "ctol,etol,f0",
    [(1e-3, None, (-10.0, 0.0)), (1e-3, None, (-1.0, -20.0)), (None, 1e-10, (0.0, -20.0))],
    ids=["collapse-alpha-leaves", "collapse-beta-leaves", "equilibrium-beta-leaves"],
)
def test_event_location_never_returns_a_state_outside_the_quadrant(ctol, etol, f0):
    # the interpolant of this unit step leaves the quadrant at its midpoint,
    # where bisection starts, since there (a + b) / 2 + h (fa - fb) / 8 < 0
    # in the leaving component; such states count as past the event, so the
    # event comes before the midpoint, the field is never evaluated at one,
    # and none is returned.  Where alpha leaves, an in-quadrant state at the
    # event is found before the exit; where beta leaves first, none is, and
    # the step's end (t + h, y1) is returned, a time and state that belong
    # together
    locate = importlib.import_module("bergerflow.integrate")._locate_event
    y0, y1, f1, seen = (1.0, 1.0), (5e-4, 1.0), (0.0, 0.0), []

    def field(y):
        seen.append(y)
        return vector_field(COLLAPSE, y)

    assert min(0.5 * (a + b) + 0.125 * (fa - fb) for a, b, fa, fb in zip(y0, y1, f0, f1)) < 0.0
    t_event, (alpha, beta), dy = locate(field, ctol, etol, 2.0, 1.0, y0, y1, f0, f1)
    if f0[1] < 0.0:  # beta leaves
        assert (t_event, (alpha, beta), dy) == (3.0, y1, f1)
    else:
        assert 2.0 < t_event < 2.5
        assert dy == vector_field(COLLAPSE, (alpha, beta))
    assert 0.0 < alpha < math.inf and 0.0 < beta < math.inf
    assert ctol is None or alpha <= ctol
    assert all(0.0 < x < math.inf and 0.0 < y < math.inf for x, y in seen)
    assert seen or etol is None


def outcome(traj):
    return repr(traj), traj.derivatives, repr(traj.termination.detail)


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize(
    "kind,kappa,epsilon,t_end,tag",
    [
        (FlowKind.COLLAPSE, 1.0, 1.0, 20.0, "CollapsePoint"),
        (FlowKind.COLLAPSE, 1.0, 0.5, 5000.0, "CollapseFiber"),
        (FlowKind.COLLAPSE, -1.0, 3.0, 5000.0, "CollapseFiber"),
        (FlowKind.COLLAPSE, -1.0, 1.0, 5.0, "ReachedTEnd"),
        (FlowKind.COLLAPSE, 1.0, 1e50, 10.0, "StepUnderflow"),
        (FlowKind.NORMALIZED, 0.5, 1.2, 400.0, "Equilibrium"),
        (FlowKind.NORMALIZED, 0.5, 0.5, 5000.0, "CollapseFiber"),
        (FlowKind.NORMALIZED, 0.5, 2.0, 5.0, "ReachedTEnd"),
        (FlowKind.NORMALIZED, -0.5, 1.5, 400.0, "Equilibrium"),
        (FlowKind.NORMALIZED, -0.5, 0.3, 1.0, "ReachedTEnd"),
    ],
)
def test_fused_and_wrapped_fields_give_the_same_trajectory(counting_body, kind, kappa, epsilon, t_end, tag, stride):
    # a counting copy of the kind's field, planted where a run reads it,
    # sees the run's evaluations and leaves every bit of the run as it was
    params = FlowParams(kind, a=2.0, kappa=kappa, epsilon=epsilon)
    config = IntegratorConfig(output_stride=stride)
    stock = integrate(params, config, t_end=t_end)
    calls = counting_body(kind, "field")
    counted = integrate(params, config, t_end=t_end)
    assert calls
    assert stock.termination.tag == tag
    assert outcome(stock) == outcome(counted)


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize(
    "params,epsilon0,t_end,config",
    [
        (NORMALIZED, 1.4, 50.0, NO_EQUILIB),
        (NORMALIZED, 0.8, 400.0, IntegratorConfig()),
        (NORMALIZED, 0.5, 100.0, NO_EQUILIB),
        (NORMALIZED_NEG, 0.4, 200.0, IntegratorConfig()),
        (NORMALIZED_NEG, 1e6, 10.0, NO_EQUILIB),
    ],
    ids=["t-end", "equilibrium", "below-repeller", "neg-equilibrium", "underflow"],
)
def test_fused_and_wrapped_speeds_give_the_same_samples(counting_body, params, epsilon0, t_end, config, stride):
    # both runs give the same samples, or raise the same error where the
    # start needs a step below the floor
    def run():
        try:
            return repr(integrate_reduced(params, config, epsilon0=epsilon0, t_end=t_end))
        except ValueError as error:
            return f"ValueError: {error}"

    config = IntegratorConfig(**{**vars(config), "output_stride": stride})
    stock = run()
    calls = counting_body(FlowKind.NORMALIZED, "speed")
    counted = run()
    assert calls[0] == (epsilon0,)
    assert stock.startswith("ValueError: epsilon0 must keep the step above") == (epsilon0 > 1.08e4)
    assert stock == counted


@pytest.mark.parametrize(
    "function", [vector_field, curve_speed, geometry_scalars], ids=["vector_field", "curve_speed", "geometry_scalars"]
)
def test_a_tracer_swap_leaves_a_run_alone(monkeypatch, function):
    # as perfbench's tracer does: every bergerflow module global that is
    # the function becomes a counting wrapper; a run's step and samples
    # compile the bodies, so no run calls it, and each gives the same result
    def runs():
        return [
            repr(integrate(COLLAPSE, NO_EQUILIB, t_end=20.0)),
            repr(integrate(NORMALIZED, IntegratorConfig(), t_end=50.0)),
            repr(integrate_reduced(NORMALIZED, NO_EQUILIB, epsilon0=1.4, t_end=50.0)),
        ]

    want, calls = runs(), []

    def counted(*args):
        calls.append(args)
        return function(*args)

    for name, mod in list(sys.modules.items()):
        if name == "bergerflow" or name.startswith("bergerflow."):
            for key, value in list(vars(mod).items()):
                if value is function:
                    monkeypatch.setattr(mod, key, counted)
    assert importlib.import_module("bergerflow").__dict__[function.__name__] is counted
    assert runs() == want
    assert calls == []


def test_the_start_rule_has_one_owner(monkeypatch, capsys):
    # every bergerflow module global that is the start rule becomes a
    # recording wrapper: FlowParams, both integrators and portrait's seed
    # check must each call it, so none keeps a copy of its own
    cli = importlib.import_module("bergerflow.cli")
    rule, subjects = importlib.import_module("bergerflow.model")._field_at_start, []

    def recorded(field, y0, subject, value):
        subjects.append(subject)
        return rule(field, y0, subject, value)

    swapped = []
    for name, mod in list(sys.modules.items()):
        if name == "bergerflow" or name.startswith("bergerflow."):
            for key, value in list(vars(mod).items()):
                if value is rule:
                    monkeypatch.setattr(mod, key, recorded)
                    swapped.append(name)
    assert {"bergerflow.model", "bergerflow.integrate", "bergerflow.cli"} <= set(swapped)
    params, start = "epsilon must keep the field finite at the start", "start must keep the field finite"
    speed, seed = "epsilon0 must keep the speed finite at the start", "--seeds entry must keep the field finite"
    portrait = ["portrait", "--flow", "collapse", "--kappa", "1", "--epsilon", "1", "--grid", "1,1", "--t-end", "1"]
    runs = [
        (lambda: FlowParams(FlowKind.COLLAPSE, 2.0, 1.0, 0.5), [params]),
        (lambda: integrate(COLLAPSE, t_end=1.0, start=State(0.0, 0.9, 1.0)), [start]),
        (lambda: integrate_reduced(NORMALIZED, epsilon0=1.2, t_end=1.0), [speed]),
        # the CLI builds its FlowParams, checks both seeds, then runs each
        (lambda: cli.main([*portrait, "--seeds", "1,1;0.5,1"]), [params, seed, seed, start, start]),
    ]
    for run, expected in runs:
        subjects.clear()
        run()
        assert subjects == expected
    assert capsys.readouterr().out.count("# seed=") == 2


def test_the_sweep_check_rejects_a_wrong_termination_tag(monkeypatch):
    # a trajectory built with another terminal event than the phase picture
    # predicts, as the benchmark's self-check injects one, fails the sweep
    # workload's own check on its tag, while the run as integrated passes
    pytest.importorskip("numpy")
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    bf = importlib.import_module("bergerflow")
    wl = workloads.Workload("sweep", [], notes={"oracle_err_max": 0.0, "event_err_max": 0.0})
    traj = integrate(COLLAPSE, IntegratorConfig(), t_end=workloads.SWEEP_T_END)
    assert traj.termination.tag == "CollapsePoint"
    assert workloads.check_trajectory(bf, wl, COLLAPSE, traj) is None
    relabelled = TerminationEvent("ReachedTEnd", traj.termination.t_event, traj.termination.detail)
    wrong = Trajectory(traj.params, traj.samples, relabelled, traj.derivatives)
    assert workloads.check_trajectory(bf, wl, COLLAPSE, wrong) == (
        f"{COLLAPSE}: termination ReachedTEnd, expected CollapsePoint"
    )
