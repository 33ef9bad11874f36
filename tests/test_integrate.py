import ast
import dataclasses
import functools
import importlib
import inspect
import linecache
import math
import pickle
import pkgutil
import random
import re
import sys
import textwrap
import traceback
from collections import Counter

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
    step that _step_for returns wrapped so that it records them."""
    attempts, select = [], module._step_for

    def counting(*args):
        step = select(*args)

        @functools.wraps(step)  # keeps its name and its attribute field
        def counted(y, k0, h, atol, rtol):
            attempts.append(h)
            return step(y, k0, h, atol, rtol)

        return counted

    monkeypatch.setattr(module, "_step_for", counting)
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

    def test_event_location_costs_no_rhs_call(self, monkeypatch):
        # FSAL: one call for the initial state, then six per attempted
        # step; locating the collapse on the interpolant adds none, and the
        # event state's derivative is the one call made there.  The package
        # attribute bergerflow.integrate is the function, so the module
        # comes from importlib.
        module = importlib.import_module("bergerflow.integrate")
        calls = []

        def counted(params, point):
            calls.append(point)
            return vector_field(params, point)

        monkeypatch.setattr(module, "vector_field", counted)
        attempts = count_attempts(monkeypatch, module)
        traj = integrate(COLLAPSE, NO_EQUILIB, t_end=20.0)
        assert traj.termination.tag == "CollapsePoint"
        assert len(calls) == 1 + 6 * len(attempts) + 1
        assert calls[-1] == (traj.final_state.alpha, traj.final_state.beta)

    def test_reduced_steps_cost_six_rhs_calls(self, monkeypatch):
        # the 1-D path shares the FSAL stage just as the planar one does
        module = importlib.import_module("bergerflow.integrate")
        calls = []

        def counted(params, epsilon):
            calls.append(epsilon)
            return curve_speed(params, epsilon)

        monkeypatch.setattr(module, "curve_speed", counted)
        samples = integrate_reduced(NORMALIZED, NO_EQUILIB, epsilon0=1.4, t_end=50.0)
        assert samples[-1][0] == 50.0
        assert (len(calls) - 1) % 6 == 0

    def test_equilibrium_test_reads_the_fsal_stage(self, monkeypatch):
        # the step's last stage is f at the accepted state, so the
        # equilibrium predicate must not evaluate the field there again
        module = importlib.import_module("bergerflow.integrate")
        calls = Counter()

        def counted(params, point):
            calls[tuple(point)] += 1
            return vector_field(params, point)

        monkeypatch.setattr(module, "vector_field", counted)
        params = FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=0.5, epsilon=1.2)
        traj = integrate(params, IntegratorConfig(), t_end=400.0)
        assert traj.termination.tag == "Equilibrium"
        counts = [calls[(s.alpha, s.beta)] for s, _ in traj.samples[:-1]]
        assert counts == [1] * len(counts)

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize(
        "params,t_end,tag",
        [(COLLAPSE, 20.0, "CollapsePoint"), (COLLAPSE, 10.0, "ReachedTEnd"),
         (FlowParams(FlowKind.NORMALIZED, a=2.0, kappa=0.5, epsilon=1.2), 400.0, "Equilibrium")],
        ids=["collapse-event", "t-end", "equilibrium-event"],
    )
    def test_derivatives_are_the_held_stages(self, monkeypatch, params, t_end, tag, stride):
        # each recorded derivative is a value the step computed at that
        # sample, not a new call; an interpolated collapse state has the one
        # evaluation made there, and an equilibrium state the value its last
        # accepting bisection round computed
        module = importlib.import_module("bergerflow.integrate")
        returned, points = [], []

        def counted(params, point):
            returned.append(vector_field(params, point))
            points.append(point)
            return returned[-1]

        monkeypatch.setattr(module, "vector_field", counted)
        attempts = count_attempts(monkeypatch, module)
        traj = integrate(params, IntegratorConfig(output_stride=stride), t_end=t_end)
        assert traj.termination.tag == tag
        rounds = bisection_rounds(module, attempts[-1]) if tag == "Equilibrium" else 0
        assert len(returned) == 1 + 6 * len(attempts) + rounds + (tag == "CollapsePoint")
        assert len(traj.derivatives) == len(traj.samples)
        ids = {id(k) for k in returned}
        for (state, _), dy in zip(traj.samples, traj.derivatives):
            assert id(dy) in ids
            assert dy == vector_field(params, (state.alpha, state.beta))
        if tag == "CollapsePoint":
            assert traj.derivatives[-1] is returned[-1]
        if tag == "Equilibrium":
            final = (traj.final_state.alpha, traj.final_state.beta)
            assert traj.derivatives[-1] is returned[max(i for i, y in enumerate(points) if y == final)]

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
        params = dataclasses.replace(COLLAPSE, epsilon=0.8)
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
        params = dataclasses.replace(COLLAPSE, epsilon=1.3)
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
    module = importlib.import_module("bergerflow.integrate")
    config = IntegratorConfig(output_stride=stride)
    tags = Counter()
    for params, t_end in sweep_box_runs(15):
        assert module._fused(geometry_scalars, params, module._samples) is not None
        traj = integrate(params, config, t_end=t_end)
        tags[traj.termination.tag] += 1
        assert_samples_rebuild(traj)
        fresh = [vector_field(params, (state.alpha, state.beta)) for state, _ in traj.samples]
        assert traj.derivatives == fresh
    assert set(tags) == {"CollapsePoint", "CollapseFiber", "Equilibrium", "ReachedTEnd", "StepUnderflow"}


def test_a_tracer_swap_of_geometry_scalars_sees_every_sample(monkeypatch):
    # as perfbench's tracer does: every bergerflow module global that is
    # geometry_scalars becomes a counting wrapper; integrate then calls it
    # once per sample, at the sample, and builds the fused assembly's records
    runs = [(COLLAPSE, 20.0, 1), (COLLAPSE_NEG, 5000.0, 7), (NORMALIZED, 5.0, 1), (NORMALIZED_NEG, 400.0, 3)]
    fused = [integrate(params, IntegratorConfig(output_stride=stride), t_end) for params, t_end, stride in runs]
    calls = []

    def counted(params, alpha, beta):
        calls.append((alpha, beta))
        return geometry_scalars(params, alpha, beta)

    swapped = []
    for name, mod in list(sys.modules.items()):
        if name == "bergerflow" or name.startswith("bergerflow."):
            for key, value in list(vars(mod).items()):
                if value is geometry_scalars:
                    monkeypatch.setattr(mod, key, counted)
                    swapped.append(name)
    assert "bergerflow.integrate" in swapped
    for (params, t_end, stride), want in zip(runs, fused):
        calls.clear()
        got = integrate(params, IntegratorConfig(output_stride=stride), t_end)
        assert calls == [(s.alpha, s.beta) for s, _ in got.samples]
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
            (1.09e4, "epsilon0 must keep the step above 1e-13 at rtol=1e-10, atol=1e-12, got 10900.0: underflow at t=0"),
            (1e6, "epsilon0 must keep the step above 1e-13 at rtol=1e-10, atol=1e-12, got 1000000.0: underflow at t=0"),
            (1e50, "epsilon0 must keep the step above 1e-13 at rtol=1e-10, atol=1e-12, got 1e+50: underflow at t=0"),
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


def selected_step(field, params):
    """The step that integrate and integrate_reduced take when they read
    field: vector_field or curve_speed, or a wrapper of either."""
    module = importlib.import_module("bergerflow.integrate")
    return module._step_for(field, params, 2 if field is vector_field else 1)


def speed_rhs(p, y):
    """The reduced field as a function of a 1-tuple, as the reference step calls it."""
    return (curve_speed(p, y[0]),)


def generic_step(name, params):
    """The generic step name, built over the stock field of its dimension."""
    n = int(name[-1])
    return importlib.import_module("bergerflow.integrate")._step(n)(vector_field if n == 2 else curve_speed, params)


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
        pytest.param("_rk_step2", COLLAPSE, id="planar-collapse"),
        pytest.param("_rk_step2", COLLAPSE_NEG, id="planar-collapse-neg"),
        pytest.param("_rk_step2", NORMALIZED, id="planar-normalized"),
        pytest.param("_rk_step2", NORMALIZED_NEG, id="planar-normalized-neg"),
        pytest.param("_rk_step1", NORMALIZED, id="reduced"),
        pytest.param("_rk_step1", NORMALIZED_NEG, id="reduced-neg"),
        pytest.param("_rk_step2_collapse", COLLAPSE, id="fused-collapse"),
        pytest.param("_rk_step2_collapse", COLLAPSE_NEG, id="fused-collapse-neg"),
        pytest.param("_rk_step2_normalized", NORMALIZED, id="fused-normalized"),
        pytest.param("_rk_step2_normalized", NORMALIZED_NEG, id="fused-normalized-neg"),
        pytest.param("_rk_step1_speed", NORMALIZED, id="fused-reduced"),
        pytest.param("_rk_step1_speed", NORMALIZED_NEG, id="fused-reduced-neg"),
    ],
)
def test_specialised_steps_match_the_tableau(name, params):
    # the unrolled steps, generic and fused, must give the loop's bits on
    # every admissible input, and reject exactly the steps whose stages
    # leave the quadrant; the loop calls the stock field
    module = importlib.import_module("bergerflow.integrate")
    planar = name.startswith("_rk_step2")
    f = vector_field if planar else speed_rhs
    if name in ("_rk_step2", "_rk_step1"):
        step = generic_step(name, params)
    else:
        step = selected_step(vector_field if planar else curve_speed, params)
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


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "generic"])
@pytest.mark.parametrize(
    "field,params",
    [
        pytest.param(vector_field, COLLAPSE, id="planar-collapse"),
        pytest.param(vector_field, COLLAPSE_NEG, id="planar-collapse-neg"),
        pytest.param(vector_field, NORMALIZED, id="planar-normalized"),
        pytest.param(vector_field, NORMALIZED_NEG, id="planar-normalized-neg"),
        pytest.param(curve_speed, NORMALIZED, id="reduced"),
        pytest.param(curve_speed, NORMALIZED_NEG, id="reduced-neg"),
    ],
)
def test_every_step_carries_its_point_field(field, params, fused):
    # every step _step_for returns, fused with the stock field or generic
    # over a wrapper of it, is called as step(y, k0, h, atol, rtol) and has
    # step.field(y), the public function's bits on a grid, as a tuple
    planar = field is vector_field
    select = importlib.import_module("bergerflow.integrate")._step_for
    step = select(field if fused else lambda p, y: field(p, y), params, 2 if planar else 1)
    kind = params.kind.value if planar else "speed"
    assert step.__name__ == f"_rk_step{2 if planar else 1}" + (f"_{kind}" if fused else "")
    grid, taken = [math.exp(0.25 * i) for i in range(-12, 7)], 0
    for y in [(x, b) for x in grid for b in grid] if planar else [(e,) for e in grid]:
        want = vector_field(params, y) if planar else (curve_speed(params, y[0]),)
        assert bits(step.field(y)) == bits(want)
        got = step(y, step.field(y), 1e-3, 1e-12, 1e-10)  # the last stage is the field at the result
        if got is not None:
            taken += 1
            assert bits(got[0]) == bits(step.field(got[1]))
    assert taken


@pytest.mark.parametrize("name", ["_rk_step2", "_rk_step1"])
def test_generated_steps_show_their_source(name):
    # the steps are compiled from generated text registered with linecache
    source = inspect.getsource(generic_step(name, NORMALIZED))
    assert source.count("f(") == 6
    assert "for" not in source.split()


@pytest.mark.parametrize("name", ["_rk_step2", "_rk_step1"])
def test_generated_source_survives_a_cleared_linecache(name):
    # the step's module has a loader that linecache can ask again
    step = generic_step(name, NORMALIZED)
    linecache.clearcache()
    source = textwrap.dedent(inspect.getsource(step))
    assert source.startswith(f"def {name}(y, k0, h, atol, rtol):")
    assert source.count("f(") == 6


def test_traceback_inside_the_step_shows_its_line():
    module = importlib.import_module("bergerflow.integrate")

    def failing(p, y):
        raise ZeroDivisionError("planted")

    linecache.clearcache()
    with pytest.raises(ZeroDivisionError) as info:
        module._step(2)(failing, COLLAPSE)((1.0, 1.0), (0.1, 0.1), 1e-2, 1e-12, 1e-10)
    text = "".join(traceback.format_exception(info.value))
    assert 'File "bergerflow.integrate._rk_step2", line 9, in _rk_step2' in text
    assert "    k2_0, k2_1 = k2 = f(params, (s0, s1))\n" in text


FUSED = [
    pytest.param("_rk_step2_collapse", COLLAPSE, id="collapse"),
    pytest.param("_rk_step2_normalized", NORMALIZED, id="normalized"),
    pytest.param("_rk_step1_speed", NORMALIZED, id="reduced"),
]

# the function whose per-point lines each fused step inlines
FORMULA = {
    "collapse": "model._collapse_field",
    "normalized": "model._normalized_field",
    "speed": "dynamics._curve_speed",
}


def stock_field(name):
    """The field whose run takes the fused step name."""
    return vector_field if name.startswith("_rk_step2") else curve_speed


@pytest.mark.parametrize("name,params", FUSED)
def test_fused_steps_show_their_source(name, params):
    # the formula function's lines below "# per point" stand, verbatim, at
    # each of the six stages of the step, its return assigned to the stage,
    # and once in its point field, and those above it once, in the factory
    # around the step that runs them once per run; no call is left, and no
    # check but the quadrant test of each stage input
    module_name, function = FORMULA[name.rsplit("_", 1)[1]].split(".")
    formula = inspect.getsource(getattr(importlib.import_module(f"bergerflow.{module_name}"), function))
    prelude, per_point = formula.split("    # per point\n")
    per_point, returned = per_point.rsplit("    return", 1)
    step = selected_step(stock_field(name), params)
    linecache.clearcache()
    source = textwrap.dedent(inspect.getsource(step))
    factory = inspect.getsource(getattr(sys.modules[step.__module__], f"{name}_for"))
    assert step.__module__ == f"bergerflow.integrate.{name}"
    assert source.startswith(f"def {name}(y, k0, h, atol, rtol):")
    dims = range(2 if name.startswith("_rk_step2") else 1)
    for j in range(2, 8):
        assert source.count(f"{per_point}    {', '.join(f'k{j}_{d}' for d in dims)} ={returned}") == 1
    module_source = sys.modules[step.__module__].__loader__.get_source(step.__module__)
    assert not [word for word in ("raise", "FlowKind", "epsilon > 0", '"""') if word in module_source]
    assert factory.startswith(f"def {name}_for(f, params):\n")
    assert factory.count(prelude.splitlines()[-1] + "\n") == 1
    assert prelude.splitlines()[-1] + "\n" not in source
    assert "f(" not in source
    assert "for" not in source.split()
    output = "  # dalpha" if name.startswith("_rk_step2") else "_SPEED_SCALE * epsilon ** (5.0 / 3.0)"
    assert source.count(output) == 6
    field = textwrap.dedent(inspect.getsource(step.field))
    assert step.field.__module__ == step.__module__
    assert field.startswith(f"def _field{name[len('_rk_step'):]}(y):")
    assert field.count(f"{per_point}    k ={returned}") == field.count(output) == 1
    assert "f(" not in field


@pytest.mark.parametrize("kind,params", [("collapse", COLLAPSE), ("normalized", NORMALIZED)])
def test_fused_sample_assembly_shows_its_source(kind, params):
    # the spinor body's lines below "# per point" stand, verbatim, once in
    # the loop over the points, and those above it once before the loop; the
    # metric velocity is read off the derivative each point carries, and no
    # field body nor public model function is called
    module = importlib.import_module("bergerflow.integrate")
    model = importlib.import_module("bergerflow.model")
    samples = module._fused(geometry_scalars, params, module._samples)
    assert samples.__module__ == f"bergerflow.integrate._samples_{kind}"
    linecache.clearcache()
    source = inspect.getsource(getattr(sys.modules[samples.__module__], f"_samples_{kind}_for"))
    head, loop = source.split("        for t, (alpha, beta), (dalpha, dbeta) in points:\n")
    prelude, per_point = inspect.getsource(getattr(model, f"_spinor_{kind}")).split("    # per point\n")
    assert loop.count(textwrap.indent(per_point.rsplit("    return", 1)[0], " " * 8)) == 1
    assert head.count(prelude.splitlines()[-1] + "\n") == 1
    assert prelude.splitlines()[-1] + "\n" not in loop
    assert "_field(" not in source and "dalpha, dbeta =" not in source
    # each record is made by object.__new__ and its instance dict filled
    # field by field, with no call to its __init__
    assert loop.count("new(State)") == loop.count("new(GeometryScalars)") == 1
    assert "GeometryScalars(" not in loop
    assert "State(" not in source  # every point recorded is one State admits
    filled = re.findall(r"dct\['(\w+)'\] = ", loop)
    assert filled == [f.name for cls in (State, model.GeometryScalars) for f in dataclasses.fields(cls)]
    assert not [call for call in ("geometry_scalars(", "spinor_coefficients(") if call in source]


def test_the_per_point_marker_stands_only_in_inlined_functions():
    # a line "# per point" splits a function for inlining: the functions of
    # the package that hold one are exactly those whose lines _STOCK
    # inlines, so a marker left behind in a function no longer inlined, or
    # outside any function, fails here
    module = importlib.import_module("bergerflow.integrate")
    package = importlib.import_module("bergerflow")
    marked = set()
    for info in pkgutil.iter_modules(package.__path__):
        source = inspect.getsource(importlib.import_module(f"bergerflow.{info.name}"))
        functions = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)]
        for number, line in enumerate(source.splitlines(), 1):
            if line.strip() == "# per point":
                inner = [node for node in functions if node.lineno <= number <= node.end_lineno]
                marked.add((info.name, max(inner, key=lambda node: node.lineno).name if inner else None))
    inlined = {(stock[1].__module__.rsplit(".", 1)[1], stock[1].__name__) for stock in module._STOCK.values()}
    assert marked == inlined


@pytest.mark.parametrize("kind", list(FlowKind), ids=lambda kind: kind.value)
def test_each_kind_carries_the_one_map_to_its_formulas(kind):
    # the public functions give the bits of the member's field and spinor
    # bodies on a log grid, for both signs of a*kappa, and the fused code
    # inlines exactly those bodies: a kind without its bodies fails here
    field, spinor = kind.field, kind.spinor
    grid = [math.exp(0.5 * i) for i in range(-12, 13)]
    for params in (COLLAPSE, COLLAPSE_NEG) if kind is FlowKind.COLLAPSE else (NORMALIZED, NORMALIZED_NEG):
        for x, y in [(x, y) for x in grid for y in grid]:
            dx, dy = field(params, x, y)
            f, g = spinor(params, x, y)
            assert bits(vector_field(params, (x, y))) == bits((dx, dy))
            assert bits(spinor_coefficients(params, x, y)) == bits((f, g))
            scalars = geometry_scalars(params, x, y)
            want = (2.0 * dx / x, 2.0 * dy / y, f, g)
            assert bits((scalars.q00, scalars.q11, scalars.f, scalars.g)) == bits(want)
    stock = importlib.import_module("bergerflow.integrate")._STOCK
    assert stock[vector_field, kind] == (kind.value, field)
    assert stock[geometry_scalars, kind] == (kind.value, spinor, geometry_scalars)
    bodies = {entry[1] for (function, _), entry in stock.items() if function is not curve_speed}
    assert bodies == {body for member in FlowKind for body in (member.field, member.spinor)}


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


def test_a_step_without_source_to_inline_is_generic(monkeypatch):
    # where the stock function's source cannot be read, runs take the
    # generic step, with the same bits
    module = importlib.import_module("bergerflow.integrate")
    fused = integrate(COLLAPSE, NO_EQUILIB, t_end=20.0)

    module._step.cache_clear()
    module._parts.cache_clear()
    monkeypatch.setattr(linecache, "getlines", lambda filename, module_globals=None: [])
    assert selected_step(vector_field, COLLAPSE).__name__ == "_rk_step2"
    assert repr(integrate(COLLAPSE, NO_EQUILIB, t_end=20.0)) == repr(fused)


def assert_fused_step_raises_as_the_field_does(name, params, y, k0, error, line_start):
    # the fused step raises the generic step's exception, and the traceback
    # shows, in the fused step, the line the field failed on
    field = stock_field(name)
    generic = importlib.import_module("bergerflow.integrate")._step(len(y))(field, params)
    with pytest.raises(error) as want:
        generic(y, k0, 1.0, 1e-12, 1e-10)
    linecache.clearcache()
    with pytest.raises(error) as got:
        selected_step(field, params)(y, k0, 1.0, 1e-12, 1e-10)
    assert str(got.value) == str(want.value)
    text = "".join(traceback.format_exception(got.value))
    assert f'File "bergerflow.integrate.{name}", line ' in text
    line = traceback.extract_tb(want.value.__traceback__)[-1].line
    assert line.startswith(line_start)
    assert traceback.extract_tb(got.value.__traceback__)[-1].line == line
    assert f"\n    {line}" in text


def test_each_inlined_function_is_parsed_once(monkeypatch):
    # the collapse step and sample builder inline _collapse_field,
    # _spinor_collapse and geometry_scalars: three texts, each parsed once
    module = importlib.import_module("bergerflow.integrate")
    for cached in (module._step, module._samples, module._parts):
        cached.cache_clear()
    parse, parsed = ast.parse, []
    monkeypatch.setattr(ast, "parse", lambda source, *args: parsed.append(source) or parse(source, *args))
    selected_step(vector_field, COLLAPSE)
    module._fused(geometry_scalars, COLLAPSE, module._samples)
    assert len(parsed) == len(set(parsed)) == 3


def test_each_inlined_function_is_read_once(monkeypatch):
    # the step and the sample builder read three functions: three reads of
    # their module's lines, none repeated
    module = importlib.import_module("bergerflow.integrate")
    for cached in (module._step, module._samples, module._parts):
        cached.cache_clear()
    getlines, read = linecache.getlines, []
    monkeypatch.setattr(linecache, "getlines", lambda *args: read.append(args[0]) or getlines(*args))
    selected_step(vector_field, COLLAPSE)
    module._fused(geometry_scalars, COLLAPSE, module._samples)
    assert len(read) == 3


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


def test_an_overflowing_stage_gives_the_generic_bits():
    # the collapse body divides only by beta, so it cannot raise inside the
    # quadrant; where the second stage's beta, about 2e-163, makes r^3
    # overflow, the field is infinite there, and the fused step gives the
    # generic step's bits: the third stage leaves the quadrant
    y, k0 = (1.0, 1e-160), (0.0, -4.99e-160)
    stage = (1.0, 1e-160 + 0.2 * -4.99e-160)
    assert not all(math.isfinite(v) for v in vector_field(COLLAPSE, stage))
    generic = importlib.import_module("bergerflow.integrate")._step(2)(vector_field, COLLAPSE)
    want = generic(y, k0, 1.0, 1e-12, 1e-10)
    assert want is None
    assert selected_step(vector_field, COLLAPSE)(y, k0, 1.0, 1e-12, 1e-10) == want


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


def wrap_in_module(monkeypatch, module_name, attr):
    """Replace module_name.attr by a pass-through wrapper; returns its calls."""
    module = importlib.import_module(module_name)
    inner, calls = getattr(module, attr), []

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(module, attr, wrapper)
    return calls


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
def test_fused_and_wrapped_fields_give_the_same_trajectory(monkeypatch, kind, kappa, epsilon, t_end, tag, stride):
    # the stock field takes the fused step; a wrapped one takes the generic
    # step and sees every evaluation; the two runs agree bit for bit
    params = FlowParams(kind, a=2.0, kappa=kappa, epsilon=epsilon)
    config = IntegratorConfig(output_stride=stride)
    assert selected_step(vector_field, params).__name__ == f"_rk_step2_{kind.value}"
    fused = integrate(params, config, t_end=t_end)
    calls = wrap_in_module(monkeypatch, "bergerflow.integrate", "vector_field")
    wrapped = integrate(params, config, t_end=t_end)
    assert calls
    assert fused.termination.tag == tag
    assert outcome(fused) == outcome(wrapped)


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
def test_fused_and_wrapped_speeds_give_the_same_samples(monkeypatch, params, epsilon0, t_end, config, stride):
    # both paths give the same samples, or raise the same error where the
    # start needs a step below the floor
    def run():
        try:
            return repr(integrate_reduced(params, config, epsilon0=epsilon0, t_end=t_end))
        except ValueError as error:
            return f"ValueError: {error}"

    module = importlib.import_module("bergerflow.integrate")
    config = dataclasses.replace(config, output_stride=stride)
    assert selected_step(curve_speed, params).__name__ == "_rk_step1_speed"
    fused = run()
    calls = wrap_in_module(monkeypatch, "bergerflow.integrate", "curve_speed")
    # the run reads the wrapper, which misses the table of stock fields
    assert selected_step(module.curve_speed, params).__name__ == "_rk_step1"
    wrapped = run()
    assert calls
    assert fused.startswith("ValueError: epsilon0 must keep the step above") == (epsilon0 > 1.08e4)
    assert fused == wrapped


@pytest.mark.parametrize("field", [vector_field, curve_speed], ids=["vector_field", "curve_speed"])
def test_a_tracer_swap_sees_every_evaluation(monkeypatch, field):
    # as perfbench's tracer does: every bergerflow module global that is the
    # field becomes a counting wrapper; the run must then take the generic
    # step, one call at the start, six per attempted step and, at a collapse
    # event, one at the event state
    module = importlib.import_module("bergerflow.integrate")
    calls, taken, select = [], [], module._step_for

    def counted(params, point):
        calls.append(point)
        return field(params, point)

    def spy(*args):
        taken.append(select(*args))
        return taken[-1]

    def run():
        if field is vector_field:
            return integrate(COLLAPSE, NO_EQUILIB, t_end=20.0)
        return integrate_reduced(NORMALIZED, NO_EQUILIB, epsilon0=1.4, t_end=50.0)

    swapped = []
    for name, mod in list(sys.modules.items()):
        if name == "bergerflow" or name.startswith("bergerflow."):
            for key, value in list(vars(mod).items()):
                if value is field:
                    monkeypatch.setattr(mod, key, counted)
                    swapped.append(name)
    assert "bergerflow.integrate" in swapped
    monkeypatch.setattr(module, "_step_for", spy)
    attempts = count_attempts(monkeypatch, module)
    result = run()
    monkeypatch.undo()
    if field is vector_field:
        assert result.termination.tag == "CollapsePoint"
    else:
        assert result[-1][0] == 50.0
    assert [step.__name__ for step in taken] == ["_rk_step2" if field is vector_field else "_rk_step1"]
    assert attempts
    assert len(calls) == 1 + 6 * len(attempts) + (field is vector_field)
    assert repr(result) == repr(run())
