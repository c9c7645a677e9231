"""The benchmark's own tests, at smoke size.

    python3 perfbench/selfcheck.py

From the repository root: runs every workload of ``BENCHMARK.json`` with
``--size smoke`` untraced and traced, and checks the result contract —
the last stdout line is exactly ``{correct, attempted, failed, metrics}``,
the metrics are exactly the end-to-end (untraced) or per-layer (traced)
names of ``BENCHMARK.json`` with their units, and no operation failed.
Then checks that the benchmark refuses to run, printing no result, in a
directory holding only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
SMOKE_SECONDS = "6"


def run(argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run([
        spec["command"][1], "--workload", workload, "--seed", "3",
        "--seconds", SMOKE_SECONDS, "--trace", str(trace), "--size", "smoke",
    ])
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-1500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        detail = proc.stdout.strip().splitlines()[-2]
        problems.append(f"{label}: not correct: {detail[:1500]}")
    expected = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    if got != units:
        problems.append(f"{label}: metrics {sorted(got.items())} != {sorted(units.items())}")
    return problems


def check_refuses_without_sources(spec: dict) -> list[str]:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([
            spec["command"][1], "--workload", spec["workloads"][0]["name"],
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ], cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    problems = check_refuses_without_sources(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_result(spec, workload["name"], trace)
    for problem in problems:
        print("FAIL", problem)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
