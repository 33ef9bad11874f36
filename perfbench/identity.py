"""Identity record of the measured program and machine, as JSON on stdout.

    python3 perfbench/identity.py > perfbench/IDENTITY.json

It records the Python, numpy and scipy versions, the CPU model and core
count, the number of non-test source lines, the runtime dependencies from
``pyproject.toml``, and a SHA-256 digest of the standard output of the
fixed ``cli`` invocation list plus ``verify``.  The wall-clock ``measured``
value of ``oracle_eps1_runtime_seconds`` is masked before hashing, because
it differs from run to run.  The digest is for information: two commits
with the same digest print byte-identical output for these invocations.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import json
import os
import platform
import sys
import tomllib

import workloads
from workloads import ROOT, SRC

MASKED_CHECK = "oracle_eps1_runtime_seconds"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def masked_verify(text: str) -> str:
    report = json.loads(text)
    for check in report["checks"]:
        if check["name"] == MASKED_CHECK:
            check["measured"] = None
    return json.dumps(report, indent=2) + "\n"


def output_digest() -> tuple[str, list[str]]:
    digest = hashlib.sha256()
    problems = []
    invocations = workloads.CLI_INVOCATIONS + [("verify", ["verify"])]
    for label, args in invocations:
        done = workloads.run_process(workloads.cli_argv(args))
        if done.returncode != 0:
            problems.append(f"{label}: exit {done.returncode}")
        text = masked_verify(done.stdout) if label == "verify" else done.stdout
        digest.update(f"$ bergerflow {' '.join(args)}\n".encode())
        digest.update(text.encode())
    return digest.hexdigest(), problems


def main():
    workloads.load_program()
    with open(ROOT / "pyproject.toml", "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    digest, problems = output_digest()
    record = {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "source_lines": source_lines(),
        "runtime_dependencies": deps,
        "output_digest_sha256": digest,
        "digest_invocations": [" ".join(a) for _, a in workloads.CLI_INVOCATIONS] + ["verify"],
        "digest_masks": [f"verify: checks[{MASKED_CHECK}].measured"],
    }
    print(json.dumps(record, indent=2))
    if problems:
        print(f"identity: invocations failed: {problems}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
