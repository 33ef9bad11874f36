"""bergerflow benchmark: one closed-loop client, one op at a time.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` the run reports the end-to-end metrics, untraced.  With
``--trace 1`` it reports the per-layer metrics from a traced run (see
README.md).  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it, starting with ``#``, holds the sample counts, ``failed_ratio`` and
``op_ms_p90`` where enough samples lie beyond it.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import tracing
import workloads
from workloads import ROOT, OUT_DIR, WORKLOADS

SETUP_REPEATS = 7
# Ops that a traced run borrows from the other workloads, so that every
# layer is measured whatever the workload (sweep's first ops include the
# four closed-form cases; phase and verify are not in BENCHMARK.json, so
# their layers are measured only through these ops).
COVERAGE_OPS = {"sweep": 12, "phase": 10, "verify": 1}
# Size of a traced run per second of ``--seconds``: ops of the workload, or
# CLI layer passes for ``cli``.  The count is fixed by the arguments, not by
# the machine's speed, so per-layer totals cover the same seeded work on
# every commit.
TRACED_PER_S = {"sweep": 4.0, "phase": 10.0, "verify": 0.2, "cli": 0.1}
P90_MIN_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Loop:
    """What a stretch of ops produced."""

    latencies_ms: list = field(default_factory=list)  # correct ops only
    busy_s: float = 0.0  # timed seconds of every op, failed ones included
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def add(self, other: "Loop"):
        self.latencies_ms += other.latencies_ms
        self.busy_s += other.busy_s
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


def run_op(op, loop: Loop):
    """Run, time and check one op; returns (latency ms, output or None)."""
    if op.prepare is not None:
        op.prepare()
    out = None
    start = time.perf_counter_ns()
    try:
        out = op.run()
        error = None
    except Exception as exc:  # a raising op is a failed op, not a crash
        error = f"{op.label}: {type(exc).__name__}: {exc}"
    ms = (time.perf_counter_ns() - start) / 1e6
    if error is None:
        try:
            error = op.check(out)
        except Exception as exc:
            error = f"{op.label}: output check raised {type(exc).__name__}: {exc}"
    loop.attempted += 1
    loop.busy_s += ms / 1e3
    if error is None:
        loop.latencies_ms.append(ms)
    else:
        loop.failed += 1
        if len(loop.failures) < 5:
            loop.failures.append(error)
    return ms, out


def timed_loop(wl: workloads.Workload, seconds: float, pauses=()) -> Loop:
    """Cycle through the workload's ops until ``seconds`` of op time have
    passed and a whole cycle is done.  Each callable in ``pauses`` runs once,
    untimed, at evenly spaced points of that time."""
    loop = Loop()
    pauses = list(pauses)
    marks = [k * seconds / len(pauses) for k in range(len(pauses))]
    spent = 0.0
    i = 0
    while i == 0 or i % wl.cycle or spent < seconds:
        if marks and spent >= marks[0]:
            marks.pop(0)
            pauses.pop(0)()
        start = time.monotonic()
        run_op(wl.ops[i % len(wl.ops)], loop)
        spent += time.monotonic() - start
        i += 1
    for pause in pauses:
        pause()
    return loop


def setup_probe(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first timed op."""
    argv = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
            "--workload", name, "--seed", str(seed)]
    start = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          env=workloads.child_env(), cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-400:]}")
    return float(done.stdout.split()[-1]) - start


def p50(loop: Loop, name: str) -> float:
    if not loop.latencies_ms:
        raise RuntimeError(f"no op of {name} succeeded: {loop.failures}")
    return statistics.median(loop.latencies_ms)


def p90_if_supported(latencies: list[float]):
    """The 90th percentile, or None when fewer than ten samples lie beyond it."""
    if len(latencies) < 2:
        return None
    p90 = statistics.quantiles(latencies, n=10)[-1]
    return p90 if sum(x > p90 for x in latencies) >= P90_MIN_BEYOND else None


def warm_up(wl: workloads.Workload, loop: Loop):
    """One op before timing, so lazy set-up is not timed; it is checked and
    counted, but its latency is dropped."""
    scratch = Loop()
    run_op(wl.ops[0], scratch)
    scratch.latencies_ms, scratch.busy_s = [], 0.0
    loop.add(scratch)


def run_untraced(bf, name: str, seed: int, seconds: float, setup_repeats=SETUP_REPEATS):
    setup_probe(name, seed)  # warms the .pyc cache; not a sample
    wl = workloads.build(bf, name, seed)
    total = Loop()
    warm_up(wl, total)
    # The set-up probes are spread over the run, so that a slow spell of the
    # machine does not fall on all of them.
    setup = []
    probes = [lambda: setup.append(setup_probe(name, seed))] * setup_repeats
    loop = timed_loop(wl, seconds, pauses=probes)
    total.add(loop)
    rss_kb = wl.child_maxrss_kb if name == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(loop.latencies_ms) / loop.busy_s,
        "op_ms_p50": p50(loop, name),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    info = {
        "samples": len(loop.latencies_ms),
        "op_ms_p90": p90_if_supported(loop.latencies_ms),
        "setup_samples_s": setup,
        "notes": wl.notes,
    }
    return total, {k: (v, END_TO_END[k]) for k, v in values.items()}, info


# ------------------------------------------------------------- traced run


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(program import ms, scipy import ms) from ``-X importtime`` output.

    The program's share is every top-level ``bergerflow`` import; scipy's is
    every scipy module imported by something outside scipy.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, tail = line.split("|", 2)
        name = tail[1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cumulative), name.strip()))
    program_us = scipy_us = 0
    stack = []  # ancestors, visited parent-first (the output lists children first)
    for depth, cumulative, name in reversed(rows):
        del stack[depth:]
        parent = stack[-1] if stack else ""
        if depth == 0 and (name == "bergerflow" or name.startswith("bergerflow.")):
            program_us += cumulative
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_us += cumulative
        stack.append(name)
    return program_us / 1e3, scipy_us / 1e3


def _main_op(cli, label: str, args: list[str], out: io.StringIO) -> workloads.Op:
    def run():
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            return cli.main(args)

    def check(rc):
        return f"cli.main {label}: exit {rc}" if rc else workloads.check_cli_output(label, out.getvalue())

    return workloads.Op(f"cli.main:{label}", run, check)


def run_op_traced(op, loop: Loop, tracer: tracing.Tracer):
    with tracing.traced(tracer):
        return run_op(op, loop)


def overhead_pair(op, loop: Loop, tracer: tracing.Tracer, traced_first: bool) -> float:
    """Run ``op`` untraced and traced, back to back in the given order;
    returns the traced time over the untraced time."""
    if traced_first:
        traced_ms, _ = run_op_traced(op, loop, tracer)
        plain_ms, _ = run_op(op, loop)
    else:
        plain_ms, _ = run_op(op, loop)
        traced_ms, _ = run_op_traced(op, loop, tracer)
    return traced_ms / plain_ms


def cli_layer_pass(loop: Loop, layer: dict, tracer: tracing.Tracer, parity: int = 0) -> list[float]:
    """Each fixed invocation four ways: ``cli.main`` in this process, untraced
    and traced; a plain process; and a process under ``-X importtime``, the
    two processes in alternating order.  Appends per-label readings to
    ``layer``; returns the importtime/plain wall-time ratios."""
    from bergerflow import cli

    ratios = []
    for k, (label, args) in enumerate(workloads.CLI_INVOCATIONS):
        row = layer.setdefault(label, {"wall": [], "main": [], "import": [], "scipy": [], "bytes": 0})
        out = io.StringIO()
        ms, _ = run_op(_main_op(cli, label, args, out), loop)
        row["main"].append(ms)
        row["bytes"] = len(out.getvalue().encode())
        run_op_traced(_main_op(cli, label, args, io.StringIO()), loop, tracer)
        plain = workloads.cli_process_op(label, args)
        timed = workloads.cli_process_op(label, args, importtime=True)
        if (k + parity) % 2:
            timed_ms, done = run_op(timed, loop)
            plain_ms, _ = run_op(plain, loop)
        else:
            plain_ms, _ = run_op(plain, loop)
            timed_ms, done = run_op(timed, loop)
        if done is not None:
            imp, scipy = parse_importtime(done.stderr)
            row["import"].append(imp)
            row["scipy"].append(scipy)
        row["wall"].append(plain_ms)
        ratios.append(timed_ms / plain_ms)
    return ratios


def traced_work(name: str, seconds: float) -> int:
    """How many ops (CLI layer passes, for ``cli``) a traced run pairs."""
    return max(1, round(seconds * TRACED_PER_S[name]))


def run_traced(bf, name: str, seed: int, seconds: float):
    """Per-layer run over a fixed, seeded list of ops.  Each op of the
    workload runs twice, untraced and traced, in alternating order; the
    tracer records only the traced runs.  Then the borrowed ops and one
    CLI layer pass run traced."""
    wl = workloads.build(bf, name, seed)
    total = Loop()
    warm_up(wl, total)
    tracer = tracing.Tracer()
    layer: dict = {}
    ratios = []
    if name == "cli":
        for i in range(traced_work(name, seconds)):
            ratios += cli_layer_pass(total, layer, tracer, parity=i)
    else:
        for i in range(traced_work(name, seconds)):
            op = wl.ops[i % len(wl.ops)]
            ratios.append(overhead_pair(op, total, tracer, traced_first=bool(i % 2)))
    notes = dict(wl.notes)
    for other, count in COVERAGE_OPS.items():
        if other == name:
            continue
        cov = workloads.build(bf, other, seed)
        for op in cov.ops[:count]:
            run_op_traced(op, total, tracer)
        notes.update(cov.notes)
    if name != "cli":
        cli_layer_pass(total, layer, tracer)
    metrics = layer_metrics(tracer, notes, layer, statistics.median(ratios))
    trace_path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    tracer.dump(trace_path, {"workload": name, "seed": seed, "seconds": seconds})
    info = {
        "overhead_pairs": len(ratios),
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return total, metrics, info


def layer_metrics(tr: tracing.Tracer, notes: dict, cli_layer: dict, overhead: float) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    Counts and busy times are totals over the traced ops, whose list is
    fixed by the workload, seed and ``--seconds``; ``acceptance.*`` is per
    ``run_checks`` call and ``cli.*`` the median per invocation.
    """
    calls, busy, self_ns, edges, counts = tr.calls, tr.busy_ns, tr.self_ns, tr.edges, tr.counts
    vf, gs, cs = "dynamics.vector_field", "model.geometry_scalars", "dynamics.curve_speed"
    flux, portrait = "phase.inward_flux_check", "phase.sample_portrait"
    integ, red = tracing.INTEGRATE, tracing.REDUCED

    def ms(n):
        return n / 1e6

    def ratio(a, b):
        return a / b if b else 0.0

    samples = counts["integrate.samples"] + counts["integrate.reduced.samples"]
    integ_self = self_ns[integ] + self_ns[red]
    verify_calls = calls[tracing.RUN_CHECKS]
    m = {
        "integrate.calls": (calls[integ], "count"),
        "integrate.samples": (samples, "count"),
        "integrate.reduced.calls": (calls[red], "count"),
        "integrate.self_ms": (ms(integ_self), "ms"),
        "integrate.self_us_per_sample": (ratio(integ_self / 1e3, samples), "us"),
        "integrate.oracle_err_max": (notes.get("oracle_err_max", 0.0), "abs"),
        "integrate.event_err_max": (notes.get("event_err_max", 0.0), "abs"),
        f"{vf}.calls": (calls[vf], "count"),
        f"{vf}.busy_ms": (ms(busy[vf]), "ms"),
        f"{vf}.ns_per_call": (ratio(busy[vf], calls[vf]), "ns"),
        f"{vf}.calls_per_sample": (ratio(edges[integ, vf], counts["integrate.samples"]), "calls/sample"),
        f"{cs}.calls": (calls[cs], "count"),
        f"{cs}.busy_ms": (ms(busy[cs]), "ms"),
        "dynamics.equilibria.busy_ms": (ms(busy["dynamics.equilibria"]), "ms"),
        f"{gs}.calls": (calls[gs], "count"),
        f"{gs}.busy_ms": (ms(busy[gs]), "ms"),
        f"{gs}.ns_per_call": (ratio(busy[gs], calls[gs]), "ns"),
        f"{flux}.busy_ms": (ms(busy[flux]), "ms"),
        f"{portrait}.busy_ms": (ms(busy[portrait]), "ms"),
        "phase.points_per_ms": (
            ratio(edges[flux, vf] + edges[portrait, vf], ms(busy[flux] + busy[portrait])), "points/ms"),
        "phase.containment_report.busy_ms": (ms(busy["phase.containment_report"]), "ms"),
        "phase.region_for_initial.calls": (calls["phase.region_for_initial"], "count"),
        "acceptance.integrations": (ratio(counts["acceptance.integrations"], verify_calls), "count"),
        "acceptance.integrate_ms": (ratio(ms(counts["acceptance.integrate_ns"]), verify_calls), "ms"),
    }
    for span in sorted(calls):
        if span.startswith("acceptance.check."):
            m[f"{span}.ms"] = (ms(busy[span]) / calls[span], "ms")
    med = statistics.median
    m["cli.import_ms"] = (med(x for r in cli_layer.values() for x in r["import"]), "ms")
    m["cli.import_scipy_ms"] = (med(x for r in cli_layer.values() for x in r["scipy"]), "ms")
    for label, r in cli_layer.items():
        m[f"cli.main_ms.{label}"] = (med(r["main"]), "ms")
    m["cli.startup_ms"] = (
        med(med(r["wall"]) - med(r["main"]) for r in cli_layer.values()), "ms")
    for label, r in cli_layer.items():
        m[f"cli.stdout_bytes.{label}"] = (r["bytes"], "bytes")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


# ------------------------------------------------------------------ main


def measure(name: str, seed: int, seconds: float, trace: bool, setup_repeats=SETUP_REPEATS):
    """One run; returns (result dict, info dict).  Raises ProgramMissing when
    the checkout holds no program."""
    bf = workloads.load_program()
    if trace:
        loop, metrics, info = run_traced(bf, name, seed, seconds)
    else:
        loop, metrics, info = run_untraced(bf, name, seed, seconds, setup_repeats)
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "failed_ratio": loop.failed / loop.attempted,
        "failures": loop.failures,
        **info,
    }
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bergerflow benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except workloads.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("# " + json.dumps(info, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
