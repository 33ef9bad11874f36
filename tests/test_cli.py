import json
import math
import os
import subprocess
import sys

import pytest

import bergerflow
from bergerflow import normalizing_constant, volume
from bergerflow.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


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

    def test_bad_grid_spec(self, capsys):
        code, _, err = run(
            capsys, "portrait", "--flow", "collapse", "--kappa", "1",
            "--epsilon", "1", "--grid", "nope",
        )
        assert code == 1


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
        from bergerflow import IntegratorConfig, cli

        def tiny_config(args):
            return IntegratorConfig(max_steps=5)

        monkeypatch.setattr(cli, "_build_config", tiny_config)
        code, _, err = run(
            capsys, "simulate", "--flow", "collapse", "--kappa", "1",
            "--epsilon", "1", "--t-end", "20",
        )
        assert code == 2
        assert "integration failure" in err

    @pytest.mark.parametrize(
        "flow,kappa,epsilon",
        [("collapse", "1", "1e300"), ("normalized", "0.5", "1e-300")],
    )
    def test_arithmetic_failure_exit_code(self, capsys, flow, kappa, epsilon):
        # overflow and division by zero at extreme scales are reported as
        # integration failures, not raised
        code, _, err = run(
            capsys, "simulate", "--flow", flow, "--kappa", kappa,
            "--epsilon", epsilon, "--t-end", "10",
        )
        assert code == 2
        assert "error:" in err
        assert "Traceback" not in err

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


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(bergerflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, bergerflow.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.strip() == "False"
