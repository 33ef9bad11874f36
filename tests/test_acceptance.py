"""Acceptance gate: runs every check in the built-in verification suite
and prints one pass/fail line per check.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
are produced, or rely on pytest's captured output on failure.
"""

import pytest

from bergerflow import acceptance


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
