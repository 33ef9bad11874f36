import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bergerflow
from bergerflow import IntegratorConfig, State, cli, normalizing_constant, volume
from bergerflow.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


SIMULATE = ["simulate", "--flow", "collapse", "--kappa", "1", "--epsilon", "1"]
PORTRAIT = ["portrait", "--flow", "collapse", "--kappa", "1", "--epsilon", "1"]
MISSING = "<tmp_path/missing/x.csv>"  # replaced by a path whose directory does not exist


class TestArgumentErrors:
    def test_bad_epsilon(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--flow", "collapse", "--kappa", "1",
            "--epsilon", "-1", "--t-end", "10",
        )
        assert code == 1
        assert "--epsilon" in err

    def test_bad_kappa_for_flow(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--flow", "normalized", "--kappa", "1",
            "--epsilon", "1", "--t-end", "10",
        )
        assert code == 1
        assert "--kappa" in err

    def test_bad_orientation(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--flow", "collapse", "--a", "3", "--kappa", "1",
            "--epsilon", "1", "--t-end", "10",
        )
        assert code == 1
        assert "--a" in err

    def test_infinite_epsilon(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--flow", "normalized", "--kappa", "0.5",
            "--epsilon", "inf", "--t-end", "10",
        )
        assert code == 1
        assert out == ""
        assert "--epsilon" in err

    def test_infinite_collapse_tol(self, capsys):
        # an infinite threshold would report a collapse at t=0
        code, out, err = run(
            capsys, "simulate", "--flow", "normalized", "--kappa", "0.5",
            "--epsilon", "0.8", "--t-end", "10", "--collapse-tol", "inf",
        )
        assert code == 1
        assert out == ""
        assert "--collapse-tol" in err

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--rtol", "0", "--rtol must be positive and finite, got 0.0"),
            ("--atol", "nan", "--atol must be positive and finite, got nan"),
            ("--collapse-tol", "-1", "--collapse-tol must be positive and finite, got -1.0"),
            ("--equilib-tol", "inf", "--equilib-tol must be positive and finite, or None, got inf"),
            ("--stride", "0", "--stride must be an integer >= 1, got 0"),
        ],
    )
    def test_integrator_flag_errors_name_the_flag_and_the_value(self, capsys, flag, value, message):
        code, out, err = run(capsys, *SIMULATE, "--t-end", "1", flag, value)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    @pytest.mark.parametrize(
        "argv,needle",
        [
            pytest.param(PORTRAIT + ["--seeds", "inf,1"], "--seeds", id="seed-inf"),
            pytest.param(PORTRAIT + ["--seeds", "1"], "--seeds", id="seed-not-a-pair"),
            pytest.param(PORTRAIT + ["--t-end", "-1"], "--t-end", id="portrait-t-end"),
            pytest.param(PORTRAIT + ["--t-end", "inf"], "--t-end", id="portrait-t-end-inf"),
            pytest.param(PORTRAIT + ["--x-range", "0.1,inf"], "x_range", id="x-range-inf"),
            pytest.param(PORTRAIT + ["--x-range", "2,1"], "x_range", id="x-range-reversed"),
            pytest.param(PORTRAIT + ["--x-range", "1"], "--x-range", id="x-range-not-a-pair"),
            pytest.param(PORTRAIT + ["--grid", "2,2,2"], "--grid", id="grid-not-a-pair"),
            pytest.param(PORTRAIT + ["--out", MISSING], "--out", id="portrait-out"),
            pytest.param(["verify", "--oracle-tol", "1e-8"], "--oracle-tol", id="no-oracle-tol"),
            pytest.param(["verify", "--filter", "nosuchcheck"],
                         "error: --filter 'nosuchcheck' matches no check", id="filter-no-match"),
            pytest.param(SIMULATE + ["--t-end", "0"], "--t-end", id="simulate-t-end"),
            pytest.param(SIMULATE + ["--t-end", "inf"], "--t-end", id="simulate-t-end-inf"),
            pytest.param(SIMULATE + ["--t-end", "1", "--out", MISSING], "--out", id="simulate-out"),
            # epsilon where the field at the initial state overflows or
            # divides by zero
            pytest.param(["simulate", "--flow", "collapse", "--kappa", "1", "--epsilon", "1e300",
                          "--t-end", "10"], "--epsilon", id="collapse-1-1e300"),
            pytest.param(["simulate", "--flow", "normalized", "--kappa", "0.5", "--epsilon", "1e-300",
                          "--t-end", "10"], "--epsilon", id="normalized-0.5-1e-300"),
        ],
    )
    def test_rejected_before_any_output(self, capsys, monkeypatch, tmp_path, argv, needle):
        def no_integration(*args, **kwargs):
            raise AssertionError("a rejected invocation started an integration")

        monkeypatch.setattr(cli, "integrate", no_integration)
        missing = str(tmp_path / "missing" / "x.csv")
        code, out, err = run(capsys, *(missing if a == MISSING else a for a in argv))
        assert code == 1
        assert out == ""
        assert needle in err
        assert "Traceback" not in err
        assert "Warning" not in err
        if MISSING in argv:
            assert err == f"error: --out {missing!r}: No such file or directory\n"

    def test_bad_grid_spec(self, capsys):
        code, _, err = run(
            capsys, "portrait", "--flow", "collapse", "--kappa", "1",
            "--epsilon", "1", "--grid", "nope",
        )
        assert code == 1


class TestSettingsSurface:
    def test_integrator_flags_are_the_config_fields(self):
        dests = set(vars(build_parser().parse_args(SIMULATE + ["--t-end", "1"])))
        run_dests = {"command", "fn", "flow", "a", "kappa", "epsilon", "t_end", "out"}
        assert dests - run_dests == set(IntegratorConfig.__match_args__)

    def test_each_subcommand_parses_only_the_flags_it_reads(self):
        # a flag that a subcommand would ignore is an argument error instead
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        flags = {name: {s for a in p._actions for s in a.option_strings} for name, p in sub.choices.items()}
        flow = {"-h", "--help", "--flow", "--a", "--kappa", "--epsilon"}
        run_flags = flow | {"--rtol", "--atol", "--collapse-tol", "--equilib-tol", "--stride", "--t-end", "--out"}
        assert flags == {
            "simulate": run_flags,
            "portrait": run_flags | {"--grid", "--x-range", "--y-range", "--seeds"},
            "equilibria": flow,
            "verify": {"-h", "--help", "--filter"},
        }

    def test_portrait_defaults_pass_through_the_argument_types(self):
        args = build_parser().parse_args(PORTRAIT)
        assert args.grid == (20, 20)
        assert args.x_range == (0.05, 1.5)
        assert args.y_range == (0.05, 1.5)
        assert args.seeds == [State(0.0, 1.0, 1.0), State(0.0, 0.6666666666666666, 1.0)]


class TestSimulate:
    def test_collapse_csv(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--flow", "collapse", "--kappa", "1",
            "--epsilon", "1", "--t-end", "12",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "alpha", "beta", "volume", "energy", "f", "g",
                          "dalpha", "dbeta"]
        assert rows[0][:3] == [0.0, 1.0, 1.0]
        assert rows[-1][0] == pytest.approx(12.0, abs=1e-12)
        assert rows[-1][1] == pytest.approx(0.5, abs=1e-8)
        assert "# termination=ReachedTEnd" in out

    def test_collapse_event_comment(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--flow", "collapse", "--kappa", "1",
            "--epsilon", "1", "--t-end", "20",
        )
        assert code == 0
        assert "# termination=CollapsePoint" in out
        t_event = float(out.splitlines()[-1].split("t=")[1])
        assert t_event == pytest.approx(15.999984, abs=1e-5)

    def test_normalized_constant_rows(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--flow", "normalized", "--kappa", "0.5",
            "--epsilon", "1", "--t-end", "10", "--equilib-tol", "1e-300",
        )
        assert code == 0
        _, rows = parse_csv(out)
        target = math.sqrt(normalizing_constant(1.0))
        # the round sphere is an exact rest point: the field there is
        # (0.0, 0.0), so the run ends at once with an equilibrium event
        assert out.splitlines()[-1] == "# termination=Equilibrium t=0"
        for row in rows:
            assert (row[1], row[2], row[7], row[8]) == (target, target, 0.0, 0.0)
            assert row[3] == pytest.approx(1.0, abs=1e-10)

    def test_default_equilibrium_detection(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--flow", "normalized", "--kappa", "0.5",
            "--epsilon", "1", "--t-end", "10",
        )
        assert code == 0
        assert "# termination=Equilibrium" in out

    def test_csv_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--flow", "collapse", "--kappa", "-1",
            "--epsilon", "1", "--t-end", "5",
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            _, alpha, beta, vol, *_ = row
            assert vol == pytest.approx(volume(alpha, beta), rel=1e-12)

    def test_deterministic_output(self, capsys):
        args = ["simulate", "--flow", "collapse", "--kappa", "1",
                "--epsilon", "0.8", "--t-end", "30"]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_budget_exhaustion_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(importlib.import_module("bergerflow.integrate"), "_MAX_STEPS", 5)
        code, _, err = run(
            capsys, "simulate", "--flow", "collapse", "--kappa", "1",
            "--epsilon", "1", "--t-end", "20",
        )
        assert code == 2
        assert err.startswith("integration failure: step budget of 5 exhausted at t=")

    def test_a_point_collapse_below_the_step_floor_exit_code(self, capsys):
        # at collapse_tol 1e-7 the point collapse meets the 1e-13 step floor first
        code, out, err = run(
            capsys, "simulate", "--flow", "collapse", "--kappa", "1",
            "--epsilon", "1", "--t-end", "20", "--collapse-tol", "1e-7",
        )
        assert code == 2
        assert out.splitlines()[-1].startswith("# termination=StepUnderflow t=16.0000000195")
        assert err.startswith("integration failure: step size underflow at t=16, state (1.3223e-07, 1.3223e-07), h=2.")
        assert err.endswith("e-13 below the floor 1e-13\n") and err.count("\n") == 1

    def test_unattainable_tolerance_exit_code(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--flow", "collapse", "--kappa", "1",
            "--epsilon", "1.3", "--t-end", "20", "--rtol", "1e-300", "--atol", "1e-300",
        )
        assert code == 2
        assert out.splitlines()[-1] == "# termination=StepUnderflow t=0"
        # one line naming the time, the state, the last step attempted and the floor
        head, h = err.removesuffix(" below the floor 1e-13\n").split(", h=")
        assert head == "integration failure: step size underflow at t=0, state (1.3, 1)"
        assert 1e-13 <= float(h) < 5e-13

    @pytest.mark.parametrize(
        "argv",
        [
            # valid ranges whose single grid point overflows in the
            # collapse field; the grid is evaluated before any output
            pytest.param(
                PORTRAIT + ["--grid", "1,1", "--seeds", "", "--x-range", "5e-324,5e-324",
                            "--y-range", "5e-324,5e-324"],
                id="portrait-tiny-x-y",
            ),
            pytest.param(
                PORTRAIT + ["--grid", "1,1", "--seeds", "", "--x-range", "1e200,1e200",
                            "--y-range", "1,1"],
                id="portrait-huge-x",
            ),
            pytest.param(
                PORTRAIT + ["--grid", "1,1", "--seeds", "", "--x-range", "1,1",
                            "--y-range", "1e-120,1e-120"],
                id="portrait-tiny-y",
            ),
            pytest.param(
                PORTRAIT + ["--grid", "1,1", "--seeds", "",
                            "--x-range", "4.265959041761247e113,4.265959041761247e113",
                            "--y-range", "5353.280110530487,5353.280110530487"],
                id="portrait-inf-field",
            ),
        ],
    )
    def test_arithmetic_failure_exit_code(self, capsys, argv):
        # overflow and division by zero at extreme scales are reported as
        # failures with exit code 2, not raised and not printed as nan/inf
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err
        assert "RuntimeWarning" not in err
        if argv[0] == "portrait":
            # the grid is evaluated before any integration, and the message
            # names the point where the field failed
            assert out == ""
            x, y = (float(argv[argv.index(flag) + 1].split(",")[0]) for flag in ("--x-range", "--y-range"))
            assert err.startswith("error: field evaluation failure: ")
            assert f"at grid point ({x!r}, {y!r})" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--flow", "collapse", "--kappa", "1", "--epsilon", "1e50", "--t-end", "10"],
            ["simulate", "--flow", "collapse", "--kappa", "-1", "--epsilon", "8e102", "--t-end", "10"],
            ["simulate", "--flow", "normalized", "--kappa", "0.5", "--epsilon", "3e92", "--t-end", "10"],
        ],
        ids=["collapse-1e50", "collapse-8e102", "normalized-3e92"],
    )
    def test_extreme_scales_report_alike_through_a_counting_body(self, capsys, counting_body, argv):
        # a counting copy of the flow's field sees the run's evaluations;
        # exit code, stdout and stderr must not tell the two runs apart
        fused = run(capsys, *argv)
        calls = counting_body(bergerflow.FlowKind(argv[argv.index("--flow") + 1]), "field")
        assert run(capsys, *argv) == fused
        assert calls
        assert fused[0] == 2
        assert fused[1].splitlines()[-1].startswith("# termination=StepUnderflow ")

    @pytest.mark.parametrize(
        "argv,tag",
        [
            (SIMULATE + ["--t-end", "20"], "CollapsePoint"),
            (SIMULATE + ["--t-end", "20", "--stride", "7"], "CollapsePoint"),
            (SIMULATE + ["--t-end", "12", "--stride", "7"], "ReachedTEnd"),
            (["simulate", "--flow", "collapse", "--kappa", "-1", "--epsilon", "3",
              "--t-end", "5000", "--stride", "7"], "CollapseFiber"),
            (["simulate", "--flow", "normalized", "--kappa", "0.5", "--epsilon", "1.2",
              "--t-end", "400"], "Equilibrium"),
            (SIMULATE + ["--t-end", "20", "--rtol", "1e-300", "--atol", "1e-300"], "StepUnderflow"),
        ],
        ids=["event", "event-stride-7", "t-end-stride-7", "fiber-stride-7", "equilibrium",
             "underflow"],
    )
    def test_derivative_columns_reuse_the_step(self, capsys, monkeypatch, counting_body, argv, tag):
        # the derivative the trajectory recorded fills dalpha,dbeta, the
        # event row's included, so the CLI evaluates the field only at the
        # start, where FlowParams checks it, and the run makes all the other
        # evaluations; every row keeps the bits of a fresh evaluation at its
        # state
        flags = dict(zip(argv[1::2], argv[2::2]))
        calls, in_runs, run_once = counting_body(bergerflow.FlowKind(flags["--flow"]), "field"), [], cli.integrate

        def counted_run(*args):
            before = len(calls)
            traj = run_once(*args)
            in_runs.append(len(calls) - before)
            return traj

        monkeypatch.setattr(cli, "integrate", counted_run)
        code, out, _ = run(capsys, *argv)
        monkeypatch.undo()
        assert code == (2 if tag == "StepUnderflow" else 0)
        assert out.splitlines()[-1].startswith(f"# termination={tag} ")
        assert len(in_runs) == 1
        assert len(calls) - in_runs[0] == 1
        params = bergerflow.FlowParams(
            bergerflow.FlowKind(flags["--flow"]), 2.0, float(flags["--kappa"]),
            float(flags["--epsilon"]),
        )
        rows = [ln.split(",") for ln in out.splitlines()[1:-1]]
        assert rows
        for row in rows:
            field = bergerflow.vector_field(params, (float(row[1]), float(row[2])))
            assert row[7:] == [cli._fmt(v) for v in field]

    def test_arithmetic_failure_mid_run_exit_code(self, capsys, counting_body):
        # a field that raises after the start is an integration failure:
        # the tenth evaluation, after FlowParams' and the run's start checks
        def failing(points):
            if len(points) == 10:
                raise ZeroDivisionError("planted")

        counting_body(bergerflow.FlowKind.COLLAPSE, "field", failing)
        code, out, err = run(capsys, *SIMULATE, "--t-end", "20")
        assert (code, out) == (2, "")
        assert err == "error: integration failure: ZeroDivisionError: planted\n"

    def test_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "run.csv"
        code, out, _ = run(
            capsys, "simulate", "--flow", "collapse", "--kappa", "1",
            "--epsilon", "1", "--t-end", "5", "--out", str(out_file),
        )
        assert code == 0
        assert out == ""
        header, rows = parse_csv(out_file.read_text())
        assert header[0] == "t"
        assert rows


class TestPortrait:
    def test_single_cell_grid(self, capsys):
        code, out, _ = run(
            capsys, "portrait", "--flow", "collapse", "--kappa", "1",
            "--epsilon", "1", "--grid", "1,1", "--x-range", "1,1",
            "--y-range", "1,1", "--seeds", "",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "y", "ux", "uy", "mag"]
        assert len(rows) == 1
        s = 1.0 / math.sqrt(2.0)
        assert rows[0] == pytest.approx([1.0, 1.0, -s, -s, math.sqrt(2.0) / 32.0])

    def test_seed_blocks(self, capsys):
        code, out, _ = run(
            capsys, "portrait", "--flow", "collapse", "--kappa", "1",
            "--epsilon", "1", "--grid", "2,2", "--t-end", "5",
            "--seeds", "1,1;0.5,0.5",
        )
        assert code == 0
        assert out.count("# seed=") == 2
        blocks = out.split("\n\n")
        assert len(blocks) == 3  # grid plus two seed trajectories

    def test_portrait_budget_exhaustion_keeps_the_grid(self, capsys, monkeypatch):
        monkeypatch.setattr(importlib.import_module("bergerflow.integrate"), "_MAX_STEPS", 5)
        code, out, err = run(
            capsys, "portrait", "--flow", "collapse", "--kappa", "1",
            "--epsilon", "1", "--grid", "2,2", "--seeds", "1,1",
        )
        assert code == 2
        assert err.startswith("integration failure: step budget of 5 exhausted at t=")
        header, rows = parse_csv(out)
        assert header == ["x", "y", "ux", "uy", "mag"]
        assert len(rows) == 4
        assert "# seed=" not in out

    def test_seed_underflow_exit_code(self, capsys):
        # the seed's first steps fall below the floor: its block holds only
        # the start, and after the output one line on stderr names the time,
        # the state, the last step attempted and the floor, as for simulate
        code, out, err = run(
            capsys, *PORTRAIT, "--grid", "1,1", "--seeds", "1.3,1", "--rtol", "1e-300",
            "--atol", "1e-300", "--t-end", "5",
        )
        assert code == 2
        assert out == (
            "x,y,ux,uy,mag\n"
            "0.050000000000000003,0.050000000000000003,-0.70710678118654746,-0.70710678118654746,"
            "0.88388347648318444\n\n# seed=1.3,1\nt,alpha,beta\n0,1.3,1\n"
        )
        head, h = err.removesuffix(" below the floor 1e-13\n").split(", h=")
        assert head == "integration failure: step size underflow at t=0, state (1.3, 1)"
        assert 1e-13 <= float(h) < 5e-13

    @pytest.mark.parametrize("seed", ["5e-324,5e-324", "1e-310,1e-310", "1,1e-120", "1e-300,1e300"])
    def test_seed_with_a_non_finite_field_fails_before_any_output(self, capsys, seed):
        # the field at the start overflows to inf or, at beta = 1e300, a
        # sample's beta**2 would raise OverflowError after the first seed's
        # block: each seed is checked before the grid is written
        code, out, err = run(capsys, *PORTRAIT, "--grid", "1,1", "--seeds", f"1,1;{seed}")
        assert code == 1
        assert out == ""
        x, y = (float(v) for v in seed.split(","))
        rule = " and beta**2 finite" if y > 1e154 else ""
        assert err == f"error: --seeds entry must keep the field finite{rule}, got ({x!r}, {y!r})\n"

    def test_bad_seed(self, capsys):
        code, _, err = run(
            capsys, "portrait", "--flow", "collapse", "--kappa", "1",
            "--epsilon", "1", "--seeds", "1,-1",
        )
        assert code == 1
        assert "--seeds" in err


class TestEquilibria:
    def test_normalized_json(self, capsys):
        code, out, _ = run(
            capsys, "equilibria", "--flow", "normalized", "--kappa", "0.5",
            "--epsilon", "1",
        )
        assert code == 0
        entries = json.loads(out)
        assert len(entries) == 2
        by_eps = sorted(entries, key=lambda e: e["epsilon_star"])
        assert by_eps[0]["epsilon_star"] == 2.0 / 3.0
        assert by_eps[0]["stability"] == "repelling"
        assert by_eps[1]["epsilon_star"] == 1.0
        assert by_eps[1]["stability"] == "attracting"
        x, y = by_eps[1]["point"]
        assert x == pytest.approx(math.sqrt(normalizing_constant(1.0)), rel=1e-10)
        assert x == pytest.approx(y, rel=1e-10)

    def test_collapse_is_an_error(self, capsys):
        code, _, err = run(
            capsys, "equilibria", "--flow", "collapse", "--kappa", "1",
            "--epsilon", "1",
        )
        assert code == 1
        assert "(0, k)" in err


class TestVerify:
    def test_filtered_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--filter", "oracle")
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "pass"
        names = [c["name"] for c in report["checks"]]
        assert any("oracle" in n for n in names)
        assert all(c["passed"] for c in report["checks"])

    def test_full_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "pass"
        assert len(report["checks"]) == 22

    @pytest.mark.parametrize("name_filter", ["", "stability"])
    def test_a_failed_run_fails_its_checks_and_the_rest_still_run(self, capsys, monkeypatch, name_filter):
        # the runs that need more steps than the budget allows fail their
        # producer's remaining checks; the report stays strict JSON
        acceptance = importlib.import_module("bergerflow.acceptance")
        acceptance._run.cache_clear()  # a cached trajectory would take no step
        monkeypatch.setattr(importlib.import_module("bergerflow.integrate"), "_MAX_STEPS", 200)
        code, out, err = run(capsys, "verify", "--filter", name_filter)
        acceptance._run.cache_clear()
        assert (code, err) == (3, "")
        report = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the report"))
        names = [n for names, _ in acceptance.ALL_CHECKS for n in names if name_filter in n]
        assert report["status"] == "fail"
        assert [c["name"] for c in report["checks"]] == names
        failed = {c["name"]: c for c in report["checks"] if "error" in c}
        assert {"stability_convergence", "stability_divergence_beta"} <= set(failed)
        for check in report["checks"]:
            if check["name"] in failed:
                assert list(check) == ["name", "passed", "error"]
                assert not check["passed"]
                assert check["error"].startswith("StepBudgetError: step budget of 200 exhausted at t=")
            else:
                assert list(check) == ["name", "passed", "measured", "threshold"]
        if not name_filter:  # a producer after the failed ones passes
            assert next(c for c in report["checks"] if c["name"] == "energy_monotonic_increase")["passed"]

    def test_unattainable_tolerance_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(importlib.import_module("bergerflow.acceptance"), "_ORACLE_TOL", 1e-18)
        code, out, _ = run(capsys, "verify", "--filter", "oracle_eps1_max_error")
        assert code == 3
        report = json.loads(out)
        assert report["status"] == "fail"


# The invocations whose standard output perfbench/identity.py hashes, and
# the SHA-256 of "$ bergerflow <args>\n" followed by each one's stdout.  Every
# output, verify's included, is a deterministic function of the code, so no
# byte is masked.  A change that moves any output bit fails here; an
# intended one updates the digest and says why.
_GOLDEN_INVOCATIONS = [
    ["simulate", "--flow", "collapse", "--kappa", "1", "--epsilon", "1", "--t-end", "20"],
    ["simulate", "--flow", "collapse", "--kappa", "-1", "--epsilon", "3", "--t-end", "5000"],
    ["portrait", "--flow", "collapse", "--kappa", "1", "--epsilon", "1"],
    ["equilibria", "--flow", "normalized", "--kappa", "0.5", "--epsilon", "1"],
    ["verify"],
]
_GOLDEN_SHA256 = "7ffd14f1a0e8d2cc45599d0a9ba0ae7b4cc1b9b19c754bfcfcec36adf959e948"


def test_golden_output(capsys):
    digest = hashlib.sha256()
    for args in _GOLDEN_INVOCATIONS:
        code, out, _ = run(capsys, *args)
        assert code == 0, args
        digest.update(f"$ bergerflow {' '.join(args)}\n".encode())
        digest.update(out.encode())
    assert digest.hexdigest() == _GOLDEN_SHA256


# Runs in a fresh interpreter: imports the CLI, runs simulate and portrait
# (without drawing a portrait), then equilibria, then verify, and reports
# after each of those three steps whether the module named by argv[1] was
# loaded.  It first forgets that module, which an interpreter may load
# before any code runs (3.13 loads linecache), so a True names an import
# that the package made.
_IMPORT_PROBE = """
import contextlib, io, sys
sys.modules.pop(sys.argv[1], None)
from bergerflow import cli
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))
codes = [
    run("simulate", "--flow", "collapse", "--kappa", "1", "--epsilon", "1", "--t-end", "5"),
    run("portrait", "--flow", "collapse", "--kappa", "1", "--epsilon", "1", "--grid", "3,3"),
]
loaded = [sys.argv[1] in sys.modules]
codes.append(run("equilibria", "--flow", "normalized", "--kappa", "0.5", "--epsilon", "1"))
loaded.append(sys.argv[1] in sys.modules)
codes.append(run("verify", "--filter", "energy_monotonic"))
loaded.append(sys.argv[1] in sys.modules)
print(codes, loaded)
"""


def _fresh_interpreter(code, *argv):
    """Run code in a fresh interpreter that imports this bergerflow; return
    its stripped stdout."""
    src = os.path.dirname(os.path.dirname(bergerflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, check=True,
    )
    return done.stdout.strip()


def test_a_reader_that_leaves_early_ends_the_process_quietly():
    # as `bergerflow portrait ... | head -1` does: the reader takes one line
    # and closes the pipe; the process exits 141 (128 + SIGPIPE), as a shell
    # reports for cat, with no traceback and no exit-flush message
    src = os.path.dirname(os.path.dirname(bergerflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, "-X", "dev", "-m", "bergerflow.cli", *PORTRAIT, "--grid", "300,300"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"x,y,ux,uy,mag\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert (proc.returncode, stderr) == (141, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full, whose every write fails")
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv,to_stdout",
    [
        (SIMULATE + ["--t-end", "20", "--out", "/dev/full"], False),
        (SIMULATE + ["--t-end", "20"], True),
        (["equilibria", "--flow", "normalized", "--kappa", "0.5", "--epsilon", "1"], True),
    ],
    ids=["simulate-out", "simulate-stdout", "equilibria-stdout"],
)
def test_a_failed_write_ends_in_one_line(argv, to_stdout, unbuffered):
    # a write that fails, to --out or to stdout, whether it fails at once
    # or in a buffer, ends the process with exit 1 and one stderr line
    # naming the failure: no traceback and no exit-flush message
    src = os.path.dirname(os.path.dirname(bergerflow.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED=unbuffered)
    with open("/dev/full", "wb") if to_stdout else contextlib.nullcontext(subprocess.DEVNULL) as stdout:
        argv = [sys.executable, "-X", "dev", "-m", "bergerflow.cli", *argv]
        done = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, env=env, text=True)
    assert done.returncode == 1
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: cannot write the output: ")
    assert "Traceback" not in done.stderr


def _probe_imports(module):
    """Run all four subcommands in a fresh interpreter; report whether
    module was loaded after simulate and portrait, after equilibria and
    after verify."""
    return _fresh_interpreter(_IMPORT_PROBE, module)


# dataclasses and inspect (with the tokenize and linecache it brings) cost
# a process more than its simulate run: the records and the loader of the
# generated code need neither
@pytest.mark.parametrize("module", ["scipy", "numpy", "dataclasses", "inspect", "linecache", "tokenize"])
def test_import_does_not_load(module):
    assert _probe_imports(module) == "[0, 0, 0, 0] [False, False, False]"


def test_only_verify_loads_acceptance():
    assert _probe_imports("bergerflow.acceptance") == "[0, 0, 0, 0] [False, False, True]"


def test_simulate_and_portrait_do_not_load_json():
    # only the two subcommands that print JSON import it
    assert _probe_imports("json") == "[0, 0, 0, 0] [False, True, True]"


# The import probe where numpy cannot be imported, then sample_portrait,
# the one function that needs it.
_NO_NUMPY_PROBE = "import sys\nsys.modules['numpy'] = None\n" + _IMPORT_PROBE + """
import bergerflow
params = bergerflow.FlowParams(bergerflow.FlowKind.COLLAPSE, 2.0, 1.0, 1.0)
try:
    bergerflow.sample_portrait(params, (0.5, 1.0), (0.5, 1.0), 2, 2)
except ImportError as exc:
    print(type(exc).__name__)
"""


def test_every_subcommand_runs_without_numpy():
    # numpy is no runtime dependency: only sample_portrait imports it
    assert _fresh_interpreter(_NO_NUMPY_PROBE, "bergerflow.acceptance") == (
        "[0, 0, 0, 0] [False, False, True]\nModuleNotFoundError"
    )


# Runs in a fresh interpreter: lists the modules of generated code (steps
# and sample builders) compiled after import, after equilibria, after a
# collapse simulate and after one integrate_reduced.
_STEP_PROBE = """
import contextlib, io, sys
import bergerflow
from bergerflow import cli
def steps():
    generated = ("bergerflow.integrate._", "bergerflow.model._samples")
    return sorted(n.rsplit(".", 1)[1] for n in sys.modules if n.startswith(generated))
seen = [steps()]
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["equilibria", "--flow", "normalized", "--kappa", "0.5", "--epsilon", "1"])
    seen.append(steps())
    cli.main(["simulate", "--flow", "collapse", "--kappa", "1", "--epsilon", "1", "--t-end", "5"])
    seen.append(steps())
params = bergerflow.FlowParams(bergerflow.FlowKind.NORMALIZED, 2.0, 0.5, 1.0)
bergerflow.integrate_reduced(params, epsilon0=0.8, t_end=5.0)
seen.append(steps())
print(seen)
"""


def test_a_process_compiles_only_the_steps_it_takes():
    # equilibria compiles nothing; a collapse simulate compiles the collapse
    # step and the collapse sample builder and nothing for the other kind
    assert _fresh_interpreter(_STEP_PROBE) == (
        "[[], [], ['_rk_step2_collapse_field', '_samples_spinor_collapse_scalars'],"
        " ['_rk_step1_curve_speed', '_rk_step2_collapse_field', '_samples_spinor_collapse_scalars']]"
    )


# Runs in a fresh interpreter: simulate, portrait and verify --filter
# energy, then one integrate_reduced; lists the package's .py files that
# linecache holds.
_SOURCE_PROBE = """
import contextlib, io, linecache, os
import bergerflow
from bergerflow import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["simulate", "--flow", "collapse", "--kappa", "1", "--epsilon", "1", "--t-end", "5"])
    cli.main(["portrait", "--flow", "normalized", "--kappa", "0.5", "--epsilon", "1", "--grid", "3,3"])
    cli.main(["verify", "--filter", "energy"])
params = bergerflow.FlowParams(bergerflow.FlowKind.NORMALIZED, 2.0, 0.5, 1.0)
bergerflow.integrate_reduced(params, epsilon0=0.8, t_end=5.0)
package = os.path.dirname(bergerflow.__file__) + os.sep
print(sorted(path for path in linecache.cache if path.startswith(package) and path.endswith(".py")))
"""


def test_no_run_reads_the_package_source():
    # the fused code is compiled from the bodies' text, not from the files
    assert _fresh_interpreter(_SOURCE_PROBE) == "[]"


# The input contract over generated argv.  Each flag has a short list of
# valid and one of invalid texts; None leaves the flag out, which is valid
# for an optional flag and invalid for a required one.  At most two flags
# per example draw from their invalid list, so that most runs integrate.
# Grids stay at most 5x5, and verify runs only the cheap algebraic checks
# (a missing --filter would run the whole suite).  OUT and MISSING stand
# for a writable path and one whose directory does not exist.
OUT = "<tmp_path/out.csv>"
_TOL = ([None, "1e-6", "0.5", "1e-300", "1e300"], ["0", "-1", "inf", "nan", "x"])
_T_END = (["1", "20", "1e4"], ["0", "-1", "inf", "nan", "x"])
_RANGE = ([None, "0.05,1.5", "1,1", "0.5,2"], ["2,1", "0,1", "0.1,inf", "nan,1", "1", "x,1"])
_OUT = ([None, OUT], [MISSING])
_FLOW_FLAGS = {
    "--flow": (["collapse", "normalized"], [None, "x"]),
    "--a": ([None, "2", "-2"], ["1", "inf", "x"]),
    "--kappa": (["1", "-1", "0.5", "-0.5"], [None, "0", "nan", "x"]),  # valid for one flow
    # 1e-300 is valid for the collapse flow only; 1e300 overflows the field
    # at the start of either flow
    "--epsilon": (["1", "0.5", "2", "1e-300"], [None, "0", "-1", "inf", "nan", "x", "1e300"]),
}
_FLAGS = {
    **_FLOW_FLAGS,
    "--rtol": _TOL,
    "--atol": _TOL,
    "--collapse-tol": _TOL,
    "--equilib-tol": _TOL,
    "--stride": ([None, "1", "3"], ["0", "-1", "2.5", "x"]),
}
_RUN_FLAGS = {
    "simulate": {**_FLAGS, "--t-end": (_T_END[0], [None] + _T_END[1]), "--out": _OUT},
    "portrait": {
        **_FLAGS,
        "--t-end": ([None] + _T_END[0], _T_END[1]),
        "--grid": (["1,1", "5,5", "2,3"], ["0,2", "-1,2", "5", "x,1", "1,2,3"]),  # no 20x20 default
        "--x-range": _RANGE,
        "--y-range": _RANGE,
        "--seeds": ([None, "", ";", "1,1", "0.5,0.5;1,1"], ["inf,1", "1,-1", "1", "x,1"]),
        "--out": _OUT,
    },
    "equilibria": _FLOW_FLAGS,
    "verify": {
        "--filter": (["q_consistency", "sign_flip", "gradient_structure", "tangency"], ["nosuchcheck"]),
    },
}
_CSV_HEADERS = {"t,alpha,beta,volume,energy,f,g,dalpha,dbeta", "x,y,ux,uy,mag", "t,alpha,beta"}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_RUN_FLAGS)))
    flags = _RUN_FLAGS[command]
    invalid = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv = [command]
    for flag, texts in flags.items():
        value = draw(st.sampled_from(texts[flag in invalid]))
        if value is not None:
            argv += [flag, value]
    return argv


@settings(max_examples=50, deadline=None)
@given(argv=_argvs())
def test_every_input_has_a_documented_outcome(tmp_path_factory, argv):
    base = tmp_path_factory.mktemp("argv")
    paths = {OUT: str(base / "out.csv"), MISSING: str(base / "missing" / "x.csv")}
    argv = [paths.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 1:
        assert out == ""
    if paths[OUT] in argv:
        assert out == ""
        if code == 0:
            out = (base / "out.csv").read_text()
    if argv[0] == "verify" and code in (0, 3):
        assert json.loads(out)["status"] == ("pass" if code == 0 else "fail")
    elif code == 0 and argv[0] == "equilibria":
        json.loads(out)
    elif code == 0:
        for line in out.splitlines():
            if line and not line.startswith("#") and line not in _CSV_HEADERS:
                assert all(f"{float(v):.17g}" == v for v in line.split(","))
