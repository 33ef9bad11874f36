import contextlib
import dataclasses
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
        assert "collapse_tol" in err

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
            pytest.param(["verify", "--oracle-tol", "nan"], "--oracle-tol", id="oracle-tol-nan"),
            pytest.param(["verify", "--oracle-tol", "-1"], "--oracle-tol", id="oracle-tol-negative"),
            pytest.param(["verify", "--oracle-tol", "inf"], "--oracle-tol", id="oracle-tol-inf"),
            pytest.param(["verify", "--filter", "nosuchcheck"],
                         "error: --filter 'nosuchcheck' matches no check", id="filter-no-match"),
            pytest.param(SIMULATE + ["--t-end", "0"], "--t-end", id="simulate-t-end"),
            pytest.param(SIMULATE + ["--t-end", "inf"], "--t-end", id="simulate-t-end-inf"),
            pytest.param(SIMULATE + ["--t-end", "1", "--out", MISSING], "--out", id="simulate-out"),
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
        assert dests - run_dests == {f.name for f in dataclasses.fields(IntegratorConfig)}

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
        # the run either reaches t_end or, if the field rounds to exactly
        # zero along the way, ends early with an equilibrium event
        assert rows[-1][0] <= 10.0 + 1e-12
        assert len(rows) > 10
        for row in rows:
            assert row[1] == pytest.approx(target, abs=1e-10)
            assert row[2] == pytest.approx(target, abs=1e-10)
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

    def test_unattainable_tolerance_exit_code(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--flow", "collapse", "--kappa", "1",
            "--epsilon", "1", "--t-end", "20", "--rtol", "1e-300", "--atol", "1e-300",
        )
        assert code == 2
        assert out.splitlines()[-1] == "# termination=StepUnderflow t=0"
        assert err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                ["simulate", "--flow", "collapse", "--kappa", "1", "--epsilon", "1e300",
                 "--t-end", "10"],
                id="collapse-1-1e300",
            ),
            pytest.param(
                ["simulate", "--flow", "normalized", "--kappa", "0.5", "--epsilon", "1e-300",
                 "--t-end", "10"],
                id="normalized-0.5-1e-300",
            ),
            # valid ranges whose single grid point divides by zero or
            # overflows in the field; the grid is evaluated before any output
            pytest.param(
                PORTRAIT + ["--grid", "1,1", "--seeds", "", "--x-range", "1e-100,1e-100",
                            "--y-range", "1e-100,1e-100"],
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
            assert out == ""

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
        assert len(report["checks"]) == 20

    def test_unattainable_tolerance_fails(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--filter", "oracle_eps1_max_error",
            "--oracle-tol", "1e-18",
        )
        assert code == 3
        report = json.loads(out)
        assert report["status"] == "fail"


# Runs in a fresh interpreter: imports the CLI, runs three subcommands that
# do not draw a portrait, then reports whether the module named by argv[1]
# was loaded along the way.
_IMPORT_PROBE = """
import contextlib, io, sys
from bergerflow import cli
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(argv))
codes = [
    run("simulate", "--flow", "collapse", "--kappa", "1", "--epsilon", "1", "--t-end", "5"),
    run("portrait", "--flow", "collapse", "--kappa", "1", "--epsilon", "1", "--grid", "3,3"),
    run("equilibria", "--flow", "normalized", "--kappa", "0.5", "--epsilon", "1"),
]
loaded = [sys.argv[1] in sys.modules]
codes.append(run("verify", "--filter", "energy_monotonic"))
loaded.append(sys.argv[1] in sys.modules)
print(codes, loaded)
"""


def _probe_imports(module):
    """Run all four subcommands in a fresh interpreter; report whether
    module was loaded after the first three and after verify."""
    src = os.path.dirname(os.path.dirname(bergerflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, module],
        capture_output=True, text=True, env=env, check=True,
    )
    return done.stdout.strip()


@pytest.mark.parametrize("module", ["scipy", "numpy"])
def test_import_does_not_load(module):
    assert _probe_imports(module) == "[0, 0, 0, 0] [False, False]"


def test_only_verify_loads_acceptance():
    assert _probe_imports("bergerflow.acceptance") == "[0, 0, 0, 0] [False, True]"


# The input contract over generated argv.  Each flag has a short list of
# valid and one of invalid texts; None leaves the flag out, which is valid
# for an optional flag and invalid for a required one.  At most two flags
# per example draw from their invalid list, so that most runs integrate.
# --t-end stays at most 20 and grids at most 5x5 to keep every run short;
# --out and verify are left out.
_TOL = ([None, "1e-6", "0.5", "1e-300", "1e300"], ["0", "-1", "inf", "nan", "x"])
_T_END = (["1", "20"], ["0", "-1", "inf", "nan", "x"])
_RANGE = ([None, "0.05,1.5", "1,1", "0.5,2"], ["2,1", "0,1", "0.1,inf", "nan,1", "1", "x,1"])
_FLAGS = {
    "--flow": (["collapse", "normalized"], [None, "x"]),
    "--a": ([None, "2", "-2"], ["1", "inf", "x"]),
    "--kappa": (["1", "-1", "0.5", "-0.5"], [None, "0", "nan", "x"]),  # valid for one flow
    "--epsilon": (["1", "0.5", "2", "1e-300", "1e300"], [None, "0", "-1", "inf", "nan", "x"]),
    "--rtol": _TOL,
    "--atol": _TOL,
    "--collapse-tol": _TOL,
    "--equilib-tol": _TOL,
    "--stride": ([None, "1", "3"], ["0", "-1", "2.5", "x"]),
}
_RUN_FLAGS = {
    "simulate": {"--t-end": (_T_END[0], [None] + _T_END[1])},
    "portrait": {
        "--t-end": ([None] + _T_END[0], _T_END[1]),
        "--grid": (["1,1", "5,5", "2,3"], ["0,2", "-1,2", "5", "x,1", "1,2,3"]),  # no 20x20 default
        "--x-range": _RANGE,
        "--y-range": _RANGE,
        "--seeds": ([None, "", ";", "1,1", "0.5,0.5;1,1"], ["inf,1", "1,-1", "1", "x,1"]),
    },
    "equilibria": {},
}
_CSV_HEADERS = {"t,alpha,beta,volume,energy,f,g,dalpha,dbeta", "x,y,ux,uy,mag", "t,alpha,beta"}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_RUN_FLAGS)))
    flags = {**_FLAGS, **_RUN_FLAGS[command]}
    invalid = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv = [command]
    for flag, texts in flags.items():
        value = draw(st.sampled_from(texts[flag in invalid]))
        if value is not None:
            argv += [flag, value]
    return argv


@settings(max_examples=50, deadline=None)
@given(argv=_argvs())
def test_every_input_has_a_documented_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 1:
        assert out == ""
    if code == 0 and argv[0] == "equilibria":
        json.loads(out)
    elif code == 0:
        for line in out.splitlines():
            if line and not line.startswith("#") and line not in _CSV_HEADERS:
                assert all(f"{float(v):.17g}" == v for v in line.split(","))
