"""The serve workloads: one collector process under open- then closed-loop load.

The collector is ``python -m repro.serve`` with its default flags (one
shard, thread executor; ``--port 0`` only picks a free port), or the
traced launcher ``collector_traced.py`` in a ``--trace 1`` run.  This
process is the load generator: one asyncio thread, two connections —
*ingest* and *query* — onto one ``pts-cp`` session (c=5, d=256, ε=1;
Zipf(1.05) items over a Dirichlet(5) class mix).

Phases, after the warm-up frame:

1. **Open loop** (21 s, 1050 queries): ingest sends a block every
   ``SEND_PERIOD`` at the workload's fixed rate whatever the collector
   does; an ``estimate`` query is due every ``QUERY_PERIOD`` on the
   query connection.  Each request is timed from its due time.
2. **Closed loop** (the rest): back-to-back bursts of the workload's
   fixed ``burst`` size, each a fresh ingest connection that writes as
   fast as TCP flow control lets it and ends with BYE.  Between bursts,
   with the collector idle, a fixed NumPy loop (:class:`HostProbe`)
   reads the host's speed on the collector's CPU for 0.1 s.
   ``peak_rps`` is the BYE-acked reports of all bursts over their summed
   wall time, each burst's time scaled to the reference host speed by
   the probe readings on either side of it; the unscaled rate is printed
   as ``raw_peak_rps``.

Checks (each a failed operation when it fails): every BYE ack equals the
reports sent on that connection; every query succeeds; the final
estimate's RMSE stays within ``RMSE_SE_LIMIT`` closed-form standard
errors (``repro.core.variance.cp_variance_matrix`` at the true counts);
the generator kept its own schedule (``LATE_P99_LIMIT_MS``; time a send
waits behind collector backpressure is the collector's, not counted) and
the collector its backlog (STATS ``pending`` at most the high-water mark).
"""

from __future__ import annotations

import asyncio
import os
import sys
import time

import numpy as np

from common import (
    BENCH_DIR,
    CHILD_CPUS,
    GENERATOR_CPUS,
    WORK,
    BenchError,
    host_steal_s,
    median,
    metric,
    percentile,
    proc_cpu_s,
    proc_hwm_mb,
    read_line,
    spawn,
    stop_process,
)

#: Fixed open-loop rates (reports/s).  simulate: about half the 2-CPU
#: reference host's closed-loop peak (~21M/s).  protocol: about a sixth
#: of its peak (~300k/s) — at half, one 65,536-report flush (~240 ms of
#: privatisation) holds every query behind it and p99 turns bimodal
#: (25-295 ms over ten runs), which no gate can compare.
#: ``burst``: reports per closed-loop burst, about half a second of
#: collector work at each mode's peak.
WORKLOADS = {
    "serve-protocol": {"mode": "protocol", "rate": 50_000, "burst": 1 << 18},
    "serve-simulate": {"mode": "simulate", "rate": 10_000_000, "burst": 1 << 23},
}
SESSION = {
    "session": "bench",
    "framework": "pts-cp",
    "epsilon": 1.0,
    "n_classes": 5,
    "n_items": 256,
}
#: The collector's command-line flags: the defaults, on a free port.
COLLECTOR_FLAGS = ["--port", "0"]
#: The collector's default backpressure mark (``repro-serve --high-water``).
HIGH_WATER = 262_144
#: Population size, set-up samples and open-loop queries (``QUERY_PERIOD``
#: apart, so the full open loop lasts 21 s whatever ``--seconds`` is; the
#: closed loop gets the rest) per run size (``--size``).
SIZES = {
    "full": {"pool": 1 << 20, "setups": 5, "queries": 1050},
    "smoke": {"pool": 1 << 16, "setups": 1, "queries": 100},
}
FRAME_REPORTS = 4096
CLOSED_BLOCK = 65_536
SEND_PERIOD = 0.005
QUERY_PERIOD = 0.020
#: Traced runs: closed-loop warm-up of the untraced reference collector.
WARM_SECONDS = 3.0
#: Host-speed probe: seconds per reading, and the rate (loops/s) that
#: counts as reference speed — the probe's median on the 2-CPU
#: reference host, so scaled rates read near raw ones there.
PROBE_SECONDS = 0.1
PROBE_REFERENCE = 280.0
#: Longest wait for the collector to go idle before a probe reading.
IDLE_WAIT_S = 2.0
RMSE_SE_LIMIT = 2.0
#: Limit on the generator's own send lateness (collector backpressure
#: excluded).  A generator that cannot keep the schedule falls further
#: behind with every send (1.1 s p99 when overloaded); host stalls alone
#: left it at most 42 ms late at p99.  Five query periods separate them.
LATE_P99_LIMIT_MS = 100.0


class Pool:
    """The generated report population, replayed block by block.

    Every send takes a whole block, and the tally of blocks sent gives
    the exact true ``(c, d)`` counts at the end without per-send work.
    """

    def __init__(self, seed: int, size: int) -> None:
        rng = np.random.default_rng(seed)
        c, d = SESSION["n_classes"], SESSION["n_items"]
        ranks = np.arange(1, d + 1, dtype=np.float64)
        item_probs = ranks**-1.05
        item_probs /= item_probs.sum()
        class_probs = rng.dirichlet(np.full(c, 5.0))
        self.labels = rng.choice(c, size=size, p=class_probs).astype(np.int32)
        self.items = rng.choice(d, size=size, p=item_probs).astype(np.int32)
        self._sent: dict[int, np.ndarray] = {}

    def block(self, index: int, size: int):
        n_blocks = self.labels.size // size
        tally = self._sent.setdefault(size, np.zeros(n_blocks, dtype=np.int64))
        index %= n_blocks
        tally[index] += 1
        cut = slice(index * size, (index + 1) * size)
        return self.labels[cut], self.items[cut]

    def truth(self) -> np.ndarray:
        c, d = SESSION["n_classes"], SESSION["n_items"]
        weights = np.zeros(self.labels.size)
        for size, tally in self._sent.items():
            weights[: tally.size * size] += np.repeat(tally, size)
        flat = self.labels.astype(np.int64) * d + self.items
        return np.bincount(flat, weights=weights, minlength=c * d).reshape(c, d)


class HostProbe:
    """The host's speed on the collector's CPU, read between bursts.

    The CPU a run gets swings by a third or more for seconds to minutes
    at a time (other tenants of the host), far more than the collector's
    own run-to-run spread.  This loop of benchmark-owned NumPy work (a
    uniform fill of 8 MiB and a sort of 512 KiB; no program code, so no
    change to the program moves it) runs on the collector's CPU while the
    collector is idle, and its rate tracked the protocol collector's
    burst rate with correlation 0.87 over 150 bursts on the 2-vCPU Xeon
    reference host.  Scaling each burst's time by it cut the spread of 20-burst
    averages from 0.11 to 0.02 (coefficient of variation).
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._rng = rng
        self._fill = np.empty(1 << 20)
        self._keys = rng.random(1 << 16)
        for _ in range(3):  # fault the buffers in before any reading
            self._loop()
        self.readings: list[float] = []
        self.collector_cpu_s = 0.0

    def _loop(self) -> None:
        self._rng.random(out=self._fill)
        np.sort(self._keys)

    def read(self, collector: "Collector") -> float:
        """Wait for the collector to go idle, then one reading (loops/s)."""
        pid = collector.proc.pid
        cpu = proc_cpu_s(pid)
        deadline = time.perf_counter() + IDLE_WAIT_S
        while time.perf_counter() < deadline:
            time.sleep(0.02)
            now = proc_cpu_s(pid)
            if now == cpu:
                break
            cpu = now
        os.sched_setaffinity(0, CHILD_CPUS)
        try:
            start = time.perf_counter()
            loops = 0
            while (elapsed := time.perf_counter() - start) < PROBE_SECONDS:
                self._loop()
                loops += 1
        finally:
            os.sched_setaffinity(0, GENERATOR_CPUS)
        # Collector CPU during the reading (0 when it stayed idle).
        self.collector_cpu_s += proc_cpu_s(pid) - cpu
        self.readings.append(loops / elapsed)
        return self.readings[-1]


class Collector:
    """One collector child process and the address it serves on."""

    def __init__(self, traced: bool, tag: str) -> None:
        self.spans = WORK / f"{tag}.spans.npz"
        self.registry = WORK / f"{tag}.registry.json"
        self.log = WORK / f"{tag}.log"
        if traced:
            argv = [
                sys.executable, str(BENCH_DIR / "collector_traced.py"),
                str(self.spans), str(self.registry), *COLLECTOR_FLAGS,
            ]
        else:
            argv = [sys.executable, "-m", "repro.serve", *COLLECTOR_FLAGS]
        self.started = time.perf_counter()
        self.proc = spawn(argv, self.log)
        try:
            line = read_line(self.proc, timeout=120)
            self.host, port = line.rsplit(" ", 1)[1].rsplit(":", 1)
            self.port = int(port)
        except (BenchError, ValueError, IndexError) as error:
            self.stop()
            raise BenchError(f"collector did not start: {error}; {self.tail()}")

    def tail(self) -> str:
        try:
            return self.log.read_text()[-2000:]
        except OSError:
            return ""

    def stop(self) -> int:
        code = stop_process(self.proc)
        if code != 0:
            raise BenchError(f"collector exited with {code}: {self.tail()}")
        return code


async def _connect(collector: Collector, mode: str):
    from repro.serve import ReportClient

    return await ReportClient.connect(
        collector.host, collector.port, mode=mode, **SESSION
    )


async def _sleep_until(due: float) -> None:
    delay = due - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)


class Run:
    """Counters and samples of one workload run."""

    def __init__(self, pool_size: int) -> None:
        self.pool_size = pool_size
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: Open-loop sends: the generator's own lateness, and the time
        #: each waited behind the previous send's backpressure.
        self.late_ms: list[float] = []
        self.blocked_ms: list[float] = []
        self.query_ms: list[float] = []
        #: Closed-loop bursts: (BYE-acked reports, wall s, host speed as a
        #: share of ``PROBE_REFERENCE``).
        self.bursts: list[tuple[int, float, float]] = []
        #: Traced runs: the untraced reference collector, the population
        #: copy it is fed from (its own tally), and its bursts.
        self.reference = None
        self.reference_pool = None
        self.reference_bursts: list[tuple[int, float, float]] = []
        self.probe = HostProbe()
        self.setup: list[float] = []
        #: Phase boundaries (monotonic ns) and collector CPU seconds.
        self.clock: dict = {}
        self.collector = None
        self.late_p99_ms = self.backlog = self.hwm_mb = None
        self.rmse = self.expected_rmse = self.reports = None
        self.stats: dict = {}
        self.health: dict = {}

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


async def _open_loop(run: Run, pool: Pool, ingest, query, rate: int, seconds: float):
    from repro.serve import ServeError

    block = max(1, int(round(rate * SEND_PERIOD)))
    start = time.perf_counter()
    end = start + seconds
    sent = 0

    async def writes():
        # A send starts at its due time or, when the previous send was
        # still waiting on collector backpressure, when that one ended.
        # Lateness past that point is the generator's own (a busy loop or
        # a descheduled process); the wait before it is the collector's.
        nonlocal sent
        index, free = 0, start
        while (due := start + index * SEND_PERIOD) < end:
            await _sleep_until(due)
            began = time.perf_counter()
            run.late_ms.append((began - max(due, free)) * 1e3)
            run.blocked_ms.append(max(0.0, free - due) * 1e3)
            labels, items = pool.block(index, block)
            await ingest.send(labels, items, chunk_size=FRAME_REPORTS)
            free = time.perf_counter()
            run.attempted += 1
            sent += block
            index += 1

    async def queries():
        index = 0
        while (due := start + index * QUERY_PERIOD) < end:
            await _sleep_until(due)
            try:
                await query.estimate()
            except ServeError as error:
                run.check(False, f"query {index}: {error}")
            else:
                run.attempted += 1
            run.query_ms.append((time.perf_counter() - due) * 1e3)
            index += 1

    await asyncio.gather(writes(), queries())
    return sent


async def _closed_loop(run: Run, pool: Pool, collector: Collector, spec: dict, seconds: float):
    """Fixed-size bursts on ``collector`` until ``seconds`` have passed; in
    a traced run each is followed by one on the untraced reference
    collector, so drift in host speed cancels out of
    ``trace.overhead_share``.  Each burst is timed from connect to BYE
    acked, so it holds the same work however fast the collector is."""
    targets = [(collector, pool, run.bursts)]
    if run.reference is not None:
        targets.append((run.reference, run.reference_pool, run.reference_bursts))
    blocks = max(1, spec["burst"] // CLOSED_BLOCK)
    end = time.perf_counter() + seconds
    burst = 0
    before = run.probe.read(collector)
    while burst == 0 or time.perf_counter() < end:
        for target, source, out in targets:
            client = await _connect(target, spec["mode"])
            start = time.perf_counter()
            for index in range(blocks):
                labels, items = source.block(index, CLOSED_BLOCK)
                await client.send(labels, items, chunk_size=FRAME_REPORTS)
            acked = await client.close()
            elapsed = time.perf_counter() - start
            sent = blocks * CLOSED_BLOCK
            run.check(acked == sent, f"burst {burst}: sent {sent}, BYE acked {acked}")
            after = run.probe.read(target)
            out.append((acked, elapsed, (before + after) / (2 * PROBE_REFERENCE)))
            before = after
        burst += 1


def _session_stats(stats: dict) -> dict:
    for entry in stats["sessions"]:
        if entry["session"] == SESSION["session"]:
            return entry
    raise BenchError("collector STATS does not list the bench session")


def _expected_rmse(truth: np.ndarray) -> float:
    """Closed-form standard error of the PTS-CP estimate at the truth."""
    from repro.core.variance import cp_variance_matrix
    from repro.mechanisms.correlated import CorrelatedPerturbation
    from repro.mechanisms.budget import split_budget

    eps1, eps2 = split_budget(SESSION["epsilon"], 0.5)
    mech = CorrelatedPerturbation(eps1, eps2, SESSION["n_classes"], SESSION["n_items"])
    variance = cp_variance_matrix(
        truth, truth.sum(axis=1), truth.sum(), mech.p1, mech.q1, mech.p2, mech.q2
    )
    return float(np.sqrt(variance.mean()))


async def _drive(run: Run, pool: Pool, collector: Collector, ingest, spec: dict, seconds: float):
    mode, rate, clock = spec["mode"], spec["rate"], run.clock
    query = await _connect(collector, mode)
    # Warm-up: one frame, then a session-scoped query on the same
    # connection, so the session holds data before the first estimate.
    labels, items = pool.block(0, FRAME_REPORTS)
    await ingest.send(labels, items, chunk_size=FRAME_REPORTS)
    warm = FRAME_REPORTS
    await ingest.stats()

    clock["start_ns"] = time.perf_counter_ns()
    clock["cpu_start"] = proc_cpu_s(collector.proc.pid)
    clock["steal_start"] = host_steal_s()
    open_seconds = spec["queries"] * QUERY_PERIOD
    sent = await _open_loop(run, pool, ingest, query, rate, open_seconds)
    backlog = _session_stats(await query.server_stats())["pending"]
    acked = await ingest.close()
    run.check(acked == warm + sent, f"ingest: sent {warm + sent}, BYE acked {acked}")
    run.late_p99_ms = percentile(run.late_ms, 99)
    run.backlog = backlog
    run.check(
        run.late_p99_ms <= LATE_P99_LIMIT_MS,
        f"generator lateness p99 {run.late_p99_ms:.1f} ms > {LATE_P99_LIMIT_MS} ms",
    )
    run.check(
        backlog <= HIGH_WATER,
        f"end-of-phase backlog {backlog} > high-water {HIGH_WATER}",
    )
    await _closed_loop(run, pool, collector, spec, seconds - open_seconds)
    clock["end_ns"] = time.perf_counter_ns()
    clock["cpu_end"] = proc_cpu_s(collector.proc.pid)
    clock["steal_end"] = host_steal_s()

    estimate = await query.estimate()
    clock["stats_ns"] = time.perf_counter_ns()
    run.stats = await query.server_stats()
    run.health = await query.health()
    query_acked = await query.close()
    run.check(query_acked == 0, f"query connection acked {query_acked} reports")
    truth = pool.truth()
    rmse = float(np.sqrt(np.mean((estimate - truth) ** 2)))
    run.rmse, run.expected_rmse = rmse, _expected_rmse(truth)
    run.check(
        np.isfinite(rmse) and rmse <= RMSE_SE_LIMIT * run.expected_rmse,
        f"RMSE {rmse:.1f} > {RMSE_SE_LIMIT} x closed-form SE {run.expected_rmse:.1f}",
    )
    run.reports = int(truth.sum())


async def _setup_sample(traced: bool, tag: str, mode: str, keep: bool):
    """Spawn a collector and time spawn -> first HELLO acked."""
    collector = Collector(traced, tag)
    try:
        ingest = await _connect(collector, mode)
    except BaseException:
        collector.stop()
        raise
    elapsed = time.perf_counter() - collector.started
    if keep:
        return collector, ingest, elapsed
    await ingest.close()
    collector.stop()
    return None, None, elapsed


async def _measure(spec: dict, seed: int, seconds: float, traced: bool, size: dict):
    pool = Pool(seed, size["pool"])
    run = Run(pool.labels.size)
    setups = 1 if traced else size["setups"]
    for sample in range(setups):
        last = sample == setups - 1
        collector, ingest, elapsed = await _setup_sample(
            traced and last, "collector", spec["mode"], keep=last
        )
        run.setup.append(elapsed)
    run.collector = collector
    try:
        if traced:
            run.reference, reference_ingest, _ = await _setup_sample(
                False, "reference", spec["mode"], keep=True
            )
            # Warm the reference as the open loop warms the traced
            # collector (session buffers grown, allocator and sockets
            # settled), so the first bursts do not bias the comparison.
            run.reference_pool = Pool(seed, size["pool"])
            warm_until = time.perf_counter() + WARM_SECONDS
            sent = 0
            while time.perf_counter() < warm_until:
                labels, items = run.reference_pool.block(
                    sent // CLOSED_BLOCK, CLOSED_BLOCK
                )
                await reference_ingest.send(labels, items, chunk_size=FRAME_REPORTS)
                sent += CLOSED_BLOCK
            acked = await reference_ingest.close()
            run.check(acked == sent, f"reference warm-up: sent {sent}, BYE acked {acked}")
        spec = {**spec, "queries": size["queries"]}
        await _drive(run, pool, collector, ingest, spec, seconds)
        run.hwm_mb = proc_hwm_mb(collector.proc.pid)
    finally:
        collector.stop()
        if run.reference is not None:
            run.reference.stop()
    return run


def _peak(bursts: list, pool_size: int, scaled: bool = True) -> tuple[float, float]:
    """Reports acked per second over the whole closed loop, and the time
    one pass over the pool takes at that rate.  ``scaled``: each burst's
    wall time in reference-speed seconds (see :class:`HostProbe`)."""
    acked = sum(burst[0] for burst in bursts)
    seconds = sum(
        elapsed * (speed if scaled else 1.0) for _, elapsed, speed in bursts
    )
    rate = acked / seconds
    return rate, pool_size / rate


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    spec, size = WORKLOADS[name], SIZES[size]
    if not trace:
        run = asyncio.run(_measure(spec, seed, seconds, False, size))
        peak, sweep = _peak(run.bursts, run.pool_size)
        metrics = {
            "setup_s": metric(median(run.setup), "s"),
            "peak_rps": metric(peak, "1/s"),
            "query_p50_ms": metric(percentile(run.query_ms, 50), "ms"),
            "sweep_s": metric(sweep, "s"),
            "peak_rss_mb": metric(run.hwm_mb, "MiB"),
        }
        result = _result(run, metrics, spec)
        # Printed, not gated: host CPU steal swings it run to run.
        result["detail"]["query_p99_ms"] = metric(percentile(run.query_ms, 99), "ms")
        result["detail"]["raw_peak_rps"] = _peak(run.bursts, run.pool_size, False)[0]
        return result
    # Traced: the traced collector over the full schedule, with the
    # generator's own encode/send paths wrapped too.
    from layers import install_client
    from ledger import serve_metrics
    from tracing import Recorder, layer_totals

    recorder = Recorder()
    install_client(recorder)
    try:
        run = asyncio.run(_measure(spec, seed, seconds, True, size))
    finally:
        recorder.unwrap_all()
    window = (run.clock["start_ns"], run.clock["end_ns"])
    client = layer_totals(recorder.table(), window)
    traced_peak = _peak(run.bursts, run.pool_size)[0]
    reference_peak = _peak(run.reference_bursts, run.pool_size)[0]
    metrics, ledger = serve_metrics(run, client, reference_peak, traced_peak)
    run.check(
        ledger["bench_stage_s"]["drain"] > 0 or ledger["drained_reports"] == 0,
        "drain time is zero although reports drained",
    )
    result = _result(run, metrics, spec)
    result["detail"]["ledger"] = ledger
    return result


def _result(run: Run, metrics: dict, spec: dict) -> dict:
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "detail": {
            "failures": run.failures[:20],
            "queries": len(run.query_ms),
            "query_ms_deciles": [
                round(percentile(run.query_ms, q), 3) for q in range(10, 100, 10)
            ] if run.query_ms else None,
            "sends": len(run.late_ms),
            "late_p99_ms": run.late_p99_ms,
            "backpressure_p99_ms": percentile(run.blocked_ms, 99) if run.blocked_ms else None,
            "backlog": run.backlog,
            "rmse": run.rmse,
            "closed_form_se": run.expected_rmse,
            "reports": run.reports,
            "bursts": run.bursts,
            "probe_loops_per_s": {
                "reference": PROBE_REFERENCE,
                "median": median(run.probe.readings),
                "min": min(run.probe.readings),
                "max": max(run.probe.readings),
                "collector_cpu_s": run.probe.collector_cpu_s,
            },
            "setup_s": run.setup,
            "rate": spec["rate"],
            "mode": spec["mode"],
            "health": run.health.get("status"),
            "host_steal_s": run.clock["steal_end"] - run.clock["steal_start"],
        },
    }
