"""Acceptance gate: runs every check in the built-in verification suite
and prints one pass/fail line per check.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
are produced, or rely on pytest's captured output on failure.
"""

import importlib
import inspect

import pytest

from bergerflow import FlowKind, acceptance
from bergerflow.integrate import TerminationEvent


@pytest.fixture(scope="module")
def results():
    return acceptance.run_checks()


def test_suite_is_complete(results):
    expected = {name for names, _ in acceptance.ALL_CHECKS for name in names}
    assert {r.name for r in results} == expected


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
        yield acceptance.CheckResult("first", True, 0.0, 1.0)
        raise ZeroDivisionError("planted")

    last = acceptance.ALL_CHECKS[-1]
    monkeypatch.setattr(acceptance, "ALL_CHECKS", [(("first", "second", "third_x"), producer), last])
    results = acceptance.run_checks(name_filter)
    assert [r.name for r in results] == kept + [n for n in last[0] if name_filter in n]
    failed = [r for r in results if r.error]
    assert [r.name for r in failed] == [n for n in kept if n != "first"]
    assert all(r.error == "ZeroDivisionError: planted" and not r.passed for r in failed)
    assert all(r.passed for r in results if not r.error)


# Planted errors in the collapse fate, each of which the check must report
# as a failed result, not as an error: the basin margin at 0 and at 1e-2,
# the old rule that called a collapse a point when beta <= 2 collapse_tol,
# and a beta_inf off by 1e-4 relative.
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


@pytest.fixture
def cold_runs():
    acceptance._run.cache_clear()
    yield
    acceptance._run.cache_clear()


@pytest.mark.parametrize(
    "plant,name",
    [
        pytest.param(basin_margin(0.0), "collapse_fate_basin_rule", id="basin-margin-0"),
        pytest.param(basin_margin(1e-2), "collapse_fate_basin_rule", id="basin-margin-1e-2"),
        pytest.param(wrapped_classify(factor_two_rule), "collapse_fate_basin_rule", id="factor-two-rule"),
        pytest.param(wrapped_classify(scaled_beta_inf), "collapse_beta_inf_limit", id="beta-inf-scaled"),
    ],
)
def test_collapse_fate_check_fails_on_a_planted_error(monkeypatch, cold_runs, plant, name):
    plant(importlib.import_module("bergerflow.integrate"), monkeypatch)
    results = {r.name: r for r in acceptance.check_collapse_fate_and_limit()}
    assert set(results) == {"collapse_fate_basin_rule", "collapse_beta_inf_limit"}
    assert not results[name].passed


# Planted errors in the field and spinor bodies and in the energy of each
# sample, each of which its check must report as a failed result, not as an
# error: one token of a model function's source is replaced, and the mutant
# is set where the check reads that function: a flow's body on its FlowKind
# member, geometry_scalars as a global of the named module.
def mutant(owner, attr, old, new):
    def plant(monkeypatch):
        target = importlib.import_module(owner) if isinstance(owner, str) else owner
        fn = getattr(target, attr)
        source = inspect.getsource(fn)
        assert source.count(old) == 1, (fn.__name__, old)
        namespace = dict(fn.__globals__)
        exec(source.replace(old, new), namespace)
        monkeypatch.setattr(target, attr, namespace[fn.__name__])

    return plant


@pytest.mark.parametrize(
    "plant,name",
    [
        pytest.param(mutant(FlowKind.COLLAPSE, "field", "-9.0 / 128.0", "-9.0 / 127.0"),
                     "gradient_structure", id="collapse-field-c3"),
        pytest.param(mutant(FlowKind.NORMALIZED, "field", "m * m / 6.0", "m * m / 6.1"),
                     "gradient_structure", id="normalized-field-xw"),
        pytest.param(mutant(FlowKind.COLLAPSE, "spinor", "kappa / beta - f", "kappa / beta + f"),
                     "gradient_structure", id="collapse-spinor-sign"),
        pytest.param(mutant(FlowKind.NORMALIZED, "spinor", "gr = -a / 4.0", "gr = -a / 4.01"),
                     "gradient_structure", id="normalized-spinor-gr"),
        pytest.param(mutant("bergerflow.integrate", "geometry_scalars", "PI_SQ * alpha * b2 * (",
                            "2.0 * PI_SQ * alpha * b2 * ("), "energy_dissipation", id="sample-energy-doubled"),
    ],
)
def test_gradient_checks_fail_on_a_planted_error(monkeypatch, cold_runs, plant, name):
    plant(monkeypatch)
    [result] = acceptance.run_checks(name)
    assert result.name == name
    assert not result.passed and not result.error
    assert result.measured > result.threshold
