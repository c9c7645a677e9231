"""Shared plumbing: paths, process control, /proc readers, statistics."""

from __future__ import annotations

import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The checkout root: the benchmark always runs from it.
ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Scratch output of a run (span tables, collector logs); git-ignored.
WORK = ROOT / ".perfbench"

CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Every child process this run started, so none outlives it.
_CHILDREN: list[subprocess.Popen] = []


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, dead child)."""


def require_sources() -> None:
    """Fail unless the program's sources sit in the checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program sources at {SRC / 'repro'}; run from the repository root"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("REPRO_OBS", None)
    return env


def split_cpus() -> tuple[set, set]:
    """(generator CPUs, CPUs for the process under test).

    The benchmark's own process keeps the first allowed CPU and the
    process under test gets the rest, so the two never trade places on a
    CPU mid-run (the largest source of run-to-run spread on small hosts).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


GENERATOR_CPUS, CHILD_CPUS = split_cpus()


def _child_setup() -> None:
    # A parent started in the background may ignore SIGINT, and children
    # inherit that; restore it so the child stops (cleanly) on SIGINT.
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    os.sched_setaffinity(0, CHILD_CPUS)


def spawn(argv: list, log_path: Path) -> subprocess.Popen:
    """Start a child with the program on its path, stdout piped, stderr
    to ``log_path``; it is stopped by :func:`stop_all` at the latest."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=log,
            env=child_env(),
            preexec_fn=_child_setup,
        )
    _CHILDREN.append(proc)
    return proc


def stop_all() -> None:
    for proc in _CHILDREN:
        stop_process(proc, timeout=10.0)


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """The child's next stdout line, or :class:`BenchError` on timeout/EOF."""
    deadline = time.monotonic() + timeout
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not selector.select(left):
                raise BenchError(f"no output from pid {proc.pid} within {timeout}s")
            line = proc.stdout.readline()
            if not line:
                raise BenchError(f"pid {proc.pid} exited (code {proc.poll()})")
            return line.decode().strip()


def stop_process(proc: subprocess.Popen, timeout: float = 30.0) -> int:
    """SIGINT, then SIGKILL after ``timeout``; always reaps the child."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None and not proc.stdout.closed:
        proc.stdout.close()
    return proc.returncode


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def host_steal_s() -> float:
    """CPU time the hypervisor took from this host's CPUs (``/proc/stat``),
    summed over CPUs — recorded with each run as a noise witness."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / CLK_TCK


def proc_hwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return float(statistics.median(values))


def host_record(**config) -> dict:
    """Where and with what the run happened (printed before the result)."""
    import numpy

    from repro.mechanisms.backends import backend_info

    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu_model,
        "nproc": len(GENERATOR_CPUS | CHILD_CPUS),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": backend_info(),
        "engine_threads": os.environ.get("REPRO_THREADS", "serial"),
        "generator_cpus": sorted(GENERATOR_CPUS),
        "process_under_test_cpus": sorted(CHILD_CPUS),
        "commit": _commit(),
        **config,
    }


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True), flush=True)
