"""The mine-simulate workload: the Fig. 7 sweep in a child process.

This process spawns ``mine_runner.py`` (the process under test), times
its set-up, collects its outputs and checks them:

* F1 and NCR of every mined list are recomputed here, against the
  dataset's ``true_topk``, with the benchmark's own vectorised code, and
  must equal ``repro.metrics.average_over_classes``;
* per (dataset, method), the mean F1 over ε must reach the floor in
  ``floors.json``, and per (dataset, framework) the mean frequency RMSE
  over ε must stay under its ceiling there.  Both were recorded on the
  unmodified program with ``python3 perfbench/mine_bench.py
  record-floors`` over seeds 1-20 (F1 floor: 0.5 x the lowest mean; RMSE ceiling:
  1.5 x the highest).

Each failed check is a failed operation.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np

from common import (
    BENCH_DIR,
    WORK,
    BenchError,
    host_steal_s,
    median,
    metric,
    percentile,
    read_line,
    require_sources,
    spawn,
    stop_process,
)

#: The sweep: Anime-like and JD-like at ``scale``, every ε, k=20 — the
#: quick-scale Fig. 7 grid; ``setups`` set-up samples per run.
SWEEP = {"datasets": ["anime-like", "jd-like"], "k": 20}
SIZES = {
    "full": {"scale": 0.1, "epsilons": [2.0, 4.0, 6.0, 8.0], "setups": 5},
    "smoke": {"scale": 0.01, "epsilons": [4.0], "setups": 1},
}
FLOORS = BENCH_DIR / "floors.json"
F1_FLOOR_SHARE = 0.5
RMSE_CEILING_SHARE = 1.5


def _spawn(config: dict):
    started = time.perf_counter()
    proc = spawn(
        [sys.executable, str(BENCH_DIR / "mine_runner.py"), json.dumps(config)],
        WORK / "mine.log",
    )
    try:
        line = read_line(proc, timeout=300)
    except BenchError:
        stop_process(proc)
        raise
    if line != "READY":
        stop_process(proc)
        raise BenchError(f"mine runner said {line!r}")
    return proc, time.perf_counter() - started


def _finish(proc, timeout: float):
    """Wait for the runner; its last stdout line (JSON), if any."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop_process(proc)
        raise BenchError("mine runner timed out")
    if proc.returncode != 0:
        raise BenchError(
            f"mine runner exited {proc.returncode}: "
            + (WORK / "mine.log").read_text()[-2000:]
        )
    lines = out.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_sweeps(seed: int, seconds: float, trace: bool, size: str) -> tuple[dict, list]:
    require_sources()
    params = SIZES[size]
    config = {**SWEEP, "scale": params["scale"], "epsilons": params["epsilons"],
              "seed": seed, "seconds": seconds}
    setups = []
    for _ in range(1 if trace else params["setups"] - 1):
        proc, elapsed = _spawn({**config, "setup_only": True})
        _finish(proc, 60)
        setups.append(elapsed)
    if trace:
        config.update(trace=True, spans=str(WORK / "mine.spans.npz"))
    proc, elapsed = _spawn(config)
    setups.append(elapsed)
    return _finish(proc, 3 * seconds + 300), setups


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------

def f1_ncr(mined: list, truth: list) -> tuple[float, float]:
    """Independent F1 and NCR of one class's mined list (see the paper)."""
    truth = np.asarray(truth, dtype=np.int64)
    mined = np.asarray(mined, dtype=np.int64)
    k = truth.size
    hit = np.isin(mined, truth)
    f1 = float(np.count_nonzero(hit)) / k
    # The rank-r true item is worth k - r points; normalise by k(k+1)/2.
    points = k - np.flatnonzero(np.isin(truth, mined[hit]))
    return f1, float(points.sum()) / (k * (k + 1) / 2)


def check_outputs(runs: list, truth: dict, floors, check) -> dict:
    """Apply every output check; returns the per-(dataset, method) means."""
    from repro.metrics import average_over_classes

    f1_by, rmse_by = {}, {}
    for run in runs:
        for dataset, eps, method, mined in run["mined"]:
            classes = truth[dataset]
            scores = [f1_ncr(mined.get(label, []), top) for label, top in classes.items()]
            f1 = float(np.mean([s[0] for s in scores]))
            ncr = float(np.mean([s[1] for s in scores]))
            as_int = {int(l): v for l, v in mined.items()}
            true_int = {int(l): v for l, v in classes.items()}
            lib_f1 = average_over_classes(as_int, true_int, "f1")
            lib_ncr = average_over_classes(as_int, true_int, "ncr")
            check(
                abs(f1 - lib_f1) < 1e-12 and abs(ncr - lib_ncr) < 1e-12,
                f"{dataset} eps={eps} {method}: F1/NCR {f1:.4f}/{ncr:.4f} "
                f"vs repro.metrics {lib_f1:.4f}/{lib_ncr:.4f}",
            )
            f1_by.setdefault(f"{dataset}/{method}", []).append(f1)
        for dataset, eps, framework, rmse in run["estimates"]:
            check(np.isfinite(rmse), f"{dataset} eps={eps} {framework}: RMSE {rmse}")
            rmse_by.setdefault(f"{dataset}/{framework}", []).append(rmse)
    means = {
        "f1": {key: float(np.mean(v)) for key, v in f1_by.items()},
        "rmse": {key: float(np.mean(v)) for key, v in rmse_by.items()},
    }
    if floors is not None:
        for key, floor in floors["f1"].items():
            check(
                means["f1"].get(key, -1.0) >= floor,
                f"{key}: mean F1 {means['f1'].get(key)} below floor {floor}",
            )
        for key, ceiling in floors["rmse"].items():
            check(
                means["rmse"].get(key, np.inf) <= ceiling,
                f"{key}: mean RMSE {means['rmse'].get(key)} above ceiling {ceiling}",
            )
    return means


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    steal = host_steal_s()
    out, setups = run_sweeps(seed, seconds, trace, size)
    steal = host_steal_s() - steal
    checks = Checks()
    floors = json.loads(FLOORS.read_text()) if size == "full" else None
    runs = out["sweeps"] + ([out["traced"]] if trace else [])
    means = check_outputs(runs, out["truth"], floors, checks)
    calls = sum(len(run["calls"]) for run in runs)
    if trace:
        from ledger import mine_metrics

        metrics, extra = mine_metrics(out, WORK / "mine.spans.npz")
    else:
        sweeps = [run["sweep_s"] for run in out["sweeps"]]
        rates = [sum(n for _, n in run["calls"]) / run["sweep_s"] for run in out["sweeps"]]
        latencies = [t * 1e3 for run in out["sweeps"] for t, _ in run["calls"]]
        metrics = {
            "setup_s": metric(median(setups), "s"),
            "peak_rps": metric(median(rates), "1/s"),
            "query_p50_ms": metric(percentile(latencies, 50), "ms"),
            "sweep_s": metric(median(sweeps), "s"),
            "peak_rss_mb": metric(out["hwm_mb"], "MiB"),
        }
        # Printed, not gated, like the serve workloads' p99.
        extra = {"query_p99_ms": metric(percentile(latencies, 99), "ms")}
    return {
        "correct": not checks.failures,
        "attempted": checks.attempted + calls,
        "failed": len(checks.failures),
        "metrics": metrics,
        "detail": {
            "failures": checks.failures[:20],
            "sweeps_s": [run["sweep_s"] for run in out["sweeps"]],
            "setup_s": setups,
            "calls": calls,
            "means": means,
            "host_steal_s": steal,
            **extra,
        },
    }


def record_floors(seeds) -> dict:
    """Per-(dataset, method) F1 floors and RMSE ceilings over ``seeds``."""
    f1, rmse = {}, {}
    for seed in seeds:
        out, _ = run_sweeps(seed, 0.0, False, "full")
        means = check_outputs(out["sweeps"], out["truth"], None, Checks())
        for key, value in means["f1"].items():
            f1.setdefault(key, []).append(value)
        for key, value in means["rmse"].items():
            rmse.setdefault(key, []).append(value)
    return {
        "seeds": list(seeds),
        "f1": {k: round(F1_FLOOR_SHARE * min(v), 4) for k, v in sorted(f1.items())},
        "rmse": {k: round(RMSE_CEILING_SHARE * max(v), 1) for k, v in sorted(rmse.items())},
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["record-floors"]:
        raise SystemExit("usage: python3 perfbench/mine_bench.py record-floors")
    FLOORS.write_text(json.dumps(record_floors(range(1, 21))) + "\n")
