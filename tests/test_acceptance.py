"""Acceptance gate: runs every check in the built-in verification suite
and prints one pass/fail line per check.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
are produced, or rely on pytest's captured output on failure.
"""

import importlib
import json

import pytest

from bergerflow import FlowKind, FlowParams, acceptance, cli, dynamics, integrate, model
from bergerflow.integrate import TerminationEvent, Trajectory
from bergerflow.model import _COLLAPSE_ROWS, _NORMALIZED_ROWS, State


@pytest.fixture(scope="module")
def results():
    return acceptance.run_checks()


def test_suite_is_complete(results):
    # every name, in the order the producers yield them: verify's bytes keep that order
    assert [r.name for r in results] == [name for names, _ in acceptance.ALL_CHECKS for name in names]


@pytest.mark.parametrize(
    "name",
    [name for names, _ in acceptance.ALL_CHECKS for name in names],
)
def test_criterion(results, name):
    result = next(r for r in results if r.name == name)
    verdict = "PASS" if result.passed else "FAIL"
    line = (
        f"{verdict} {result.name}: measured={result.measured:.3e} "
        f"threshold={result.threshold:.3e}"
    )
    if result.note:
        line += f" ({result.note})"
    print(line)
    assert result.passed, line


@pytest.mark.parametrize("name_filter,kept", [("", ["first", "second", "third_x"]), ("_x", ["third_x"])])
def test_a_producer_that_raises_fails_only_the_checks_it_has_not_reported(monkeypatch, name_filter, kept):
    def producer():
        yield acceptance.CheckResult("first", 0.0, 1.0)
        raise ZeroDivisionError("planted")

    last = acceptance.ALL_CHECKS[-1]
    monkeypatch.setattr(acceptance, "ALL_CHECKS", [(("first", "second", "third_x"), producer), last])
    results = acceptance.run_checks(name_filter)
    assert [r.name for r in results] == kept + [n for n in last[0] if name_filter in n]
    failed = [r for r in results if r.error]
    assert [r.name for r in failed] == [n for n in kept if n != "first"]
    assert all(r.error == "ZeroDivisionError: planted" and not r.passed for r in failed)
    assert all(r.passed for r in results if not r.error)


# Planted errors in the collapse fate, each of which the collapse checks
# must report as failed results, not as errors, and fail no other of the
# four: the basin margin at 0 and at 1e-2, the old rule that called a
# collapse a point when beta <= 2 collapse_tol, a beta_inf off by 1e-4
# relative, every fiber bracket moved to (beta_inf, beta_inf + 1), and the
# point start p = 2, epsilon = 1.3 relabelled as a fiber collapse.
def basin_margin(value):
    return lambda module, monkeypatch: monkeypatch.setattr(module, "_BASIN_MARGIN", value)


def wrapped_classify(change):
    def plant(module, monkeypatch):
        classify = module._classify

        def mutant(params, tag, t_ev, y_ev, h, s0):
            return change(params, y_ev, classify(params, tag, t_ev, y_ev, h, s0))

        monkeypatch.setattr(module, "_classify", mutant)

    return plant


def factor_two_rule(params, y_ev, term):
    # where the basin rule calls a collapse a point, beta <= 1.5 collapse_tol
    # at the event, so the old rule only turns fiber collapses into points
    ctol = acceptance._DEFAULT.collapse_tol
    if term.tag == "CollapseFiber" and params.kind is FlowKind.COLLAPSE and y_ev[1] <= 2.0 * ctol:
        return TerminationEvent("CollapsePoint", term.t_event, {"alpha": y_ev[0], "beta": y_ev[1]})
    return term


def scaled_beta_inf(params, y_ev, term):
    if "beta_inf" not in term.detail:
        return term
    return TerminationEvent(term.tag, term.t_event, {**term.detail, "beta_inf": term.detail["beta_inf"] * (1.0 + 1e-4)})


def bracket_above_beta_inf(params, y_ev, term):
    if "bracket" not in term.detail:
        return term
    beta_inf = term.detail["beta_inf"]
    return TerminationEvent(term.tag, term.t_event, {**term.detail, "bracket": (beta_inf, beta_inf + 1.0)})


def point_eps13_as_fiber(params, y_ev, term):
    if params.kind is FlowKind.COLLAPSE and params.product == 2.0 and params.epsilon == 1.3:
        return TerminationEvent("CollapseFiber", term.t_event, term.detail)
    return term


@pytest.fixture
def cold_runs():
    acceptance._run.cache_clear()
    yield
    acceptance._run.cache_clear()


_POINT, _FATE = "collapse_point_events", "collapse_fate_basin_rule"


@pytest.mark.parametrize(
    "plant,failed",
    [
        pytest.param(basin_margin(0.0), {_POINT, _FATE}, id="basin-margin-0"),
        pytest.param(basin_margin(1e-2), {_FATE}, id="basin-margin-1e-2"),
        pytest.param(wrapped_classify(factor_two_rule), {_FATE}, id="factor-two-rule"),
        pytest.param(wrapped_classify(scaled_beta_inf), {"collapse_beta_inf_limit"}, id="beta-inf-scaled"),
        pytest.param(wrapped_classify(bracket_above_beta_inf), {"collapse_fiber_brackets"}, id="bracket-above"),
        pytest.param(wrapped_classify(point_eps13_as_fiber), {_POINT, _FATE}, id="point-eps13-as-fiber"),
    ],
)
def test_collapse_fate_check_fails_on_a_planted_error(monkeypatch, cold_runs, plant, failed):
    plant(importlib.import_module("bergerflow.integrate"), monkeypatch)
    results = list(acceptance.check_collapse_events())
    assert {r.name for r in results if not r.passed} == failed
    assert not any(r.error for r in results)


def test_a_bracket_that_excludes_beta_inf_fails_every_fiber_start(monkeypatch, cold_runs):
    # the 12 starts of p = -2 and the 5 of p = 2 below epsilon = 2/3, each named in the note
    wrapped_classify(bracket_above_beta_inf)(importlib.import_module("bergerflow.integrate"), monkeypatch)
    brackets = next(acceptance.check_collapse_events())
    assert brackets.measured == 17.0
    third = 2.0 / 3.0
    grid = (0.05, 0.3, 0.5, 0.6, third - 1e-8, third, third + 1e-8, 0.8, 1.0, 1.3, 3.0, 20.0)
    fibers = [f"p=2,eps={eps!r}" for eps in grid[:5]] + [f"p=-2,eps={eps!r}" for eps in grid]
    assert brackets.note == ";".join(fibers)


def test_verify_names_the_start_that_ended_in_the_wrong_event(monkeypatch, cold_runs, capsys):
    # a check that fails on its measurement carries its note; the others do not
    wrapped_classify(point_eps13_as_fiber)(importlib.import_module("bergerflow.integrate"), monkeypatch)
    assert cli.main(["verify", "--filter", "collapse"]) == 3
    out, err = capsys.readouterr()
    noted = {c["name"]: c["note"] for c in strict_json(out)["checks"] if "note" in c}
    assert noted == {_POINT: "p=2,eps=1.3:CollapseFiber", _FATE: "p=2,eps=1.3:CollapseFiber"}
    assert err == ""


# Planted errors in the field coefficients, the spinor bodies and the
# energy of each sample, each of which its check must report as a failed
# result, not as an error.  A field mutant replaces one entry of a row of
# the coefficient table.  A spinor or energy mutant rebuilds a model body
# from its text with one token replaced, and is set where every reader
# reads that body: a flow's spinor on its FlowKind member, the record
# _scalars as a model global.  The public functions and the sample builder
# of every run that starts after the plant compile the mutant.
def table_entry(rows, p, index, value):
    def plant(monkeypatch):
        row = list(rows[p])
        row[index] = value
        monkeypatch.setitem(rows, p, tuple(row))

    return plant


def mutant(owner, attr, old, new):
    def plant(monkeypatch):
        target = importlib.import_module(owner) if isinstance(owner, str) else owner
        body = getattr(target, attr)
        text = body.text
        parts = {"head": text.head, "point": text.point, "value": text.value}
        assert sum(part.count(old) for part in parts.values()) == 1, (body.__name__, old)
        parts = {key: part.replace(old, new) for key, part in parts.items()}
        rebuilt = model._body(f"{body.__name__}_mutant", text.args, **parts, **text.env)
        monkeypatch.setattr(target, attr, rebuilt)

    return plant


_SPINOR_SIGN = mutant(FlowKind.COLLAPSE, "spinor", "kappa / beta - f", "kappa / beta + f")
_ENERGY_DOUBLED = mutant("bergerflow.model", "_scalars", "PI_SQ * alpha * b2 * (", "2.0 * PI_SQ * alpha * b2 * (")


@pytest.mark.parametrize(
    "plant,name",
    [
        pytest.param(table_entry(_COLLAPSE_ROWS, 2.0, 0, -9 / 31.75), "gradient_structure", id="collapse-field-c3"),
        pytest.param(table_entry(_NORMALIZED_ROWS, -1.0, 8, 1 / 6.1), "gradient_structure", id="normalized-field-xw"),
        pytest.param(_SPINOR_SIGN, "gradient_structure", id="collapse-spinor-sign"),
        pytest.param(mutant(FlowKind.NORMALIZED, "spinor", "gr = -a / 4.0", "gr = -a / 4.01"),
                     "gradient_structure", id="normalized-spinor-gr"),
        pytest.param(_ENERGY_DOUBLED, "energy_dissipation", id="sample-energy-doubled"),
    ],
)
def test_gradient_checks_fail_on_a_planted_error(monkeypatch, cold_runs, plant, name):
    plant(monkeypatch)
    [result] = acceptance.run_checks(name)
    assert result.name == name
    assert not result.passed and not result.error
    assert result.measured > result.threshold


@pytest.mark.parametrize(
    "plant", [_SPINOR_SIGN, _ENERGY_DOUBLED], ids=["collapse-spinor-sign", "sample-energy-doubled"]
)
def test_a_planted_body_reaches_the_samples_of_a_run(monkeypatch, plant):
    # the sample builder a run compiles reads the mutant: every sample keeps
    # its state, and its scalars are the ones geometry_scalars now gives,
    # not the stock ones
    params = FlowParams(FlowKind.COLLAPSE, a=2.0, kappa=1.0, epsilon=0.8)
    stock = integrate(params, t_end=5.0)
    plant(monkeypatch)
    planted = integrate(params, t_end=5.0)
    assert [state for state, _ in planted.samples] == [state for state, _ in stock.samples]
    for (state, scalars), (_, before) in zip(planted.samples, stock.samples):
        assert scalars == model.geometry_scalars(params, state.alpha, state.beta)
        assert scalars != before


def test_a_start_with_no_closed_form_fails_its_check_by_name(monkeypatch, capsys):
    # the equilibria root 2/3 planted as 0.67: the constant-solution check
    # fails with an error naming the start it has no closed form for, and
    # verify reports it and exits 3, with no traceback
    monkeypatch.setitem(dynamics._ROOTS, 1.0, (0.67, 1.0))
    assert cli.main(["verify", "--filter", "constant_solution_drift"]) == 3
    out, err = capsys.readouterr()
    [check] = json.loads(out)["checks"]
    assert check == {
        "name": "constant_solution_drift",
        "passed": False,
        "error": "LookupError: no closed form from epsilon=0.6666666666666666 at a*kappa=1",
    }
    assert err == ""


def strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_every_verify_entry_passes_exactly_when_measured_is_at_most_threshold(capsys):
    # the one pass rule, read off the report a user sees: a reader can
    # recompute each verdict, and a check with an error never passes
    cli.main(["verify"])
    for check in strict_json(capsys.readouterr().out)["checks"]:
        if "error" in check:
            assert check["passed"] is False, check
        else:
            assert check["passed"] is (check["measured"] <= check["threshold"]), check


def ended_in(tag):
    """A plant that relabels a run's terminal event as tag."""

    def plant(traj):
        relabelled = TerminationEvent(tag, traj.termination.t_event, {})
        return Trajectory(traj.params, traj.samples, relabelled, traj.derivatives)

    return plant


def final_beta(beta):
    """A plant that moves a run's last sample to beta and keeps its event."""

    def plant(traj):
        state, scalars = traj.samples[-1]
        moved = State(state.t, state.alpha, beta)
        return Trajectory(traj.params, [*traj.samples[:-1], (moved, scalars)], traj.termination, traj.derivatives)

    return plant


_EPS1_POINT = (acceptance._collapse(2.0, 1.0, 1.0), 20.0)
_EPS23_POINT = (acceptance._collapse(2.0, 1.0, 2.0 / 3.0), 20.0)
_DIVERGENCE_03 = (acceptance._normalized(2.0, 0.5, 0.3), 2000.0)


@pytest.mark.parametrize(
    "plants,failed",
    [
        # the event-time oracles at epsilon = 1 and 2/3 planted as fiber
        # collapses and the epsilon = 0.3 divergence run as an equilibrium:
        # each check fails with an error naming the event
        pytest.param(
            {_EPS1_POINT: ended_in("CollapseFiber"), _EPS23_POINT: ended_in("CollapseFiber"),
             _DIVERGENCE_03: ended_in("Equilibrium")},
            {
                "oracle_eps1_event_time": {
                    "name": "oracle_eps1_event_time",
                    "passed": False,
                    "error": "epsilon=1.0 ended in CollapseFiber, not CollapsePoint",
                },
                "oracle_eps23_event_time": {
                    "name": "oracle_eps23_event_time",
                    "passed": False,
                    "error": "epsilon=0.6666666666666666 ended in CollapseFiber, not CollapsePoint",
                },
                "stability_divergence_beta": {
                    "name": "stability_divergence_beta",
                    "passed": False,
                    "error": "epsilon=0.3 ended in Equilibrium, not CollapseFiber",
                },
            },
            id="wrong-event",
        ),
        # the epsilon = 0.3 divergence run ends its fiber collapse at beta = 4:
        # the check fails on its measurement, 1/4, and its note names the epsilon
        pytest.param(
            {_DIVERGENCE_03: final_beta(4.0)},
            {
                "stability_divergence_beta": {
                    "name": "stability_divergence_beta",
                    "passed": False,
                    "measured": 0.25,
                    "threshold": 0.2,
                    "note": "eps=0.3",
                },
            },
            id="divergence-beta-4",
        ),
    ],
)
def test_a_planted_run_fails_exactly_its_checks(monkeypatch, capsys, plants, failed):
    # verify reports each failed check of a planted run, exits 3, and the rest still pass
    run = acceptance._run

    def planted_run(params, config, t_end):
        traj = run(params, config, t_end)
        plant = plants.get((params, t_end))
        return traj if plant is None else plant(traj)

    monkeypatch.setattr(acceptance, "_run", planted_run)
    assert cli.main(["verify"]) == 3
    out, err = capsys.readouterr()
    assert {c["name"]: c for c in strict_json(out)["checks"] if not c["passed"]} == failed
    assert err == ""
