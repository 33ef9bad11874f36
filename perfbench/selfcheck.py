"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload (``phase`` and ``verify`` too, which BENCHMARK.json
leaves out) for a fraction of a second, untraced and traced, and asserts
that every metric named in BENCHMARK.json is emitted with its unit.
Then it injects bad outputs and asserts that they are counted as failed,
and it checks that the runner refuses a copy that holds no program.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from types import SimpleNamespace

import run
import workloads
from workloads import OUT_DIR, ROOT

TINY_SECONDS = 0.5


def declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = lambda key: {m["name"]: m["unit"] for m in bench[key]}  # noqa: E731
    return units("end_to_end"), units("per_layer"), [w["name"] for w in bench["workloads"]]


def check_metrics(result: dict, want: dict, what: str, positive: bool):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise AssertionError(
            f"{what}: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
            f"unit changes {sorted(n for n in set(got) & set(want) if got[n] != want[n])}"
        )
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise AssertionError(f"{what}: {name} = {value!r} is not a finite number")
        if positive and value <= 0:
            raise AssertionError(f"{what}: end-to-end metric {name} = {value} is not positive")


def every_metric_emitted():
    e2e, layer, names = declared()
    if not set(names) <= set(workloads.WORKLOADS):
        raise AssertionError(f"BENCHMARK.json workloads {names} not all in {workloads.WORKLOADS}")
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result, info = run.measure(name, 1, TINY_SECONDS, trace, setup_repeats=1)
            what = f"{name} --trace {int(trace)}"
            check_metrics(result, layer if trace else e2e, what, positive=not trace)
            if not result["correct"] or info["failed_ratio"] != 0.0:
                raise AssertionError(f"{what}: failures at this commit: {info['failures']}")
            print(f"ok   {what}: {len(result['metrics'])} metrics, {result['attempted']} ops")


def injected_failures_counted():
    bf = workloads.load_program()
    original = bf.integrate
    calls = {"n": 0}

    def every_third_wrong(*args, **kwargs):
        traj = original(*args, **kwargs)
        calls["n"] += 1
        if calls["n"] % 3:
            return traj
        wrong = dataclasses.replace(traj.termination, tag="ReachedTEnd")
        return dataclasses.replace(traj, termination=wrong)

    bf.integrate = every_third_wrong
    try:
        result, info = run.measure("sweep", 1, TINY_SECONDS, False, setup_repeats=1)
    finally:
        bf.integrate = original
    if result["correct"] or result["failed"] == 0 or not info["failed_ratio"] > 0:
        raise AssertionError(f"injected wrong tags were not counted: {result} {info}")
    print(f"ok   sweep: injected wrong tags counted, failed_ratio {info['failed_ratio']:.3f}")

    bad = {
        "phase": workloads.check_equilibria(1.0, [(0.5, "repelling"), (1.0, "attracting")]),
        "verify": workloads.build(bf, "verify", 1).ops[0].check(
            [SimpleNamespace(name="oracle_eps1_max_error", passed=False)]),
        "cli": workloads.check_cli_output("simulate", "t,alpha\n1,2\n"),
        "reduced": workloads.check_reduced(1.0, 0.5, [0.5, 0.4, 0.45]),
    }
    for what, error in bad.items():
        if not error:
            raise AssertionError(f"{what}: a bad output passed its check")
    print(f"ok   bad outputs rejected by the {', '.join(bad)} checks")


def refuses_missing_program():
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        raise AssertionError(f"runner did not refuse a copy without src/: {done.returncode} {done.stdout}")
    print(f"ok   copy without the program: exit {done.returncode}, no result")


def main():
    every_metric_emitted()
    injected_failures_counted()
    refuses_missing_program()
    print("selfcheck passed")


if __name__ == "__main__":
    main()
