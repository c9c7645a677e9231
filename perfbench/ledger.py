"""Per-layer metrics of a ``--trace 1`` run, from the recorded spans.

Every workload reports every per-layer metric; a layer the workload does
not exercise reports 0.  Collector layers are thread-CPU self seconds
over the measured phases (the ledger's denominator is the collector's
CPU time from ``/proc``); mining layers are wall self seconds over the
traced sweep (one thread, so wall time is the denominator).
"""

from __future__ import annotations

import json

from common import metric
from layers import ONEHOT_BYTES_PER_CELL, layer_sum
from tracing import layer_totals, load

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("client.encode_s", "s", "lower"),
    ("client.send_wait_s", "s", "lower"),
    ("client.late_p99_ms", "ms", "lower"),
    ("serve.loop_s", "s", "lower"),
    ("serve.read_s", "s", "lower"),
    ("serve.decode_s", "s", "lower"),
    ("serve.decode_calls", "count", "lower"),
    ("serve.flush_s", "s", "lower"),
    ("serve.flush_calls", "count", "lower"),
    ("serve.reports_per_flush", "count", "higher"),
    ("serve.sort_s", "s", "lower"),
    ("serve.query_s", "s", "lower"),
    ("serve.reply_encode_s", "s", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.stall_s", "s", "lower"),
    ("stream.drain_s", "s", "lower"),
    ("stream.ingest_s", "s", "lower"),
    ("stream.ingest_ns_per_report", "ns", "lower"),
    ("stream.reports_per_ingest", "count", "higher"),
    ("stream.estimate_s", "s", "lower"),
    ("mechanisms.privatize_s", "s", "lower"),
    ("mechanisms.aggregate_s", "s", "lower"),
    ("mechanisms.onehot_cells", "count", "lower"),
    ("mechanisms.onehot_bytes_computed", "B", "lower"),
    ("collector.cpu_s", "s", "lower"),
    ("collector.busy_share", "ratio", "lower"),
    ("xcheck.decode_gap_s", "s", "lower"),
    ("xcheck.sort_gap_s", "s", "lower"),
    ("xcheck.drain_gap_s", "s", "lower"),
    ("xcheck.query_gap_s", "s", "lower"),
    ("topk.split_s", "s", "lower"),
    ("topk.split_cells", "count", "lower"),
    ("frameworks.group_split_s", "s", "lower"),
    ("topk.support_s", "s", "lower"),
    ("topk.prune_s", "s", "lower"),
    ("topk.final_s", "s", "lower"),
    ("topk.candidates_s", "s", "lower"),
    ("topk.classwise_s", "s", "lower"),
    ("topk.pem_s", "s", "lower"),
    ("frameworks.estimate_s", "s", "lower"),
    ("online_topk.ingest_s", "s", "lower"),
    ("online_topk.advance_s", "s", "lower"),
    ("mine.hec_s", "s", "lower"),
    ("mine.ptj_s", "s", "lower"),
    ("mine.ptj_opt_s", "s", "lower"),
    ("mine.pts_s", "s", "lower"),
    ("mine.pts_opt_s", "s", "lower"),
    ("datasets.generate_s", "s", "lower"),
    ("ledger.unaccounted_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)

#: Layer metric -> span-name prefix for plain self-time sums.
_SELF_TIME = {
    "serve.loop_s": "serve.loop",
    "serve.read_s": "serve.read",
    "serve.decode_s": "serve.decode",
    "serve.flush_s": "serve.flush",
    "serve.sort_s": "serve.sort",
    "serve.query_s": "serve.query",
    "serve.reply_encode_s": "serve.reply_encode",
    "stream.drain_s": "stream.drain",
    "stream.ingest_s": "stream.ingest",
    "stream.estimate_s": "stream.estimate",
    "mechanisms.privatize_s": "mechanisms.privatize",
    "mechanisms.aggregate_s": "mechanisms.aggregate",
    "topk.split_s": "topk.split",
    "frameworks.group_split_s": "frameworks.group_split",
    "topk.support_s": "topk.support",
    "topk.prune_s": "topk.prune",
    "topk.final_s": "topk.final",
    "topk.candidates_s": "topk.candidates",
    "topk.classwise_s": "topk.classwise",
    "topk.pem_s": "topk.pem",
    "frameworks.estimate_s": "frameworks.estimate",
    "online_topk.ingest_s": "online_topk.ingest",
    "online_topk.advance_s": "online_topk.advance",
    "mine.hec_s": "mine.hec",
    "mine.ptj_s": "mine.ptj",
    "mine.ptj_opt_s": "mine.ptj_opt",
    "mine.pts_s": "mine.pts",
    "mine.pts_opt_s": "mine.pts_opt",
}

#: Collector histograms (series prefix) the cross-check compares against.
_COLLECTOR_SERIES = {
    "decode": "serve_decode_seconds",
    "sort": "serve_flush_sort_seconds",
    "drain": "shard_drain_seconds",
    "query": "serve_query_seconds",
}


def _calls(totals: dict, prefix: str) -> int:
    return int(layer_sum(totals, prefix, "calls"))


def _count(totals: dict, prefix: str) -> int:
    return int(layer_sum(totals, prefix, "count"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _histogram_sum(snapshot: dict, series: str) -> float:
    return sum(
        float(entry["sum"])
        for key, entry in snapshot.get("histograms", {}).items()
        if key.split("{", 1)[0] == series
    )


def _counter_sum(snapshot: dict, series: str) -> float:
    return sum(
        float(value)
        for key, value in snapshot.get("counters", {}).items()
        if key.split("{", 1)[0] == series
    )


def _report(values: dict) -> dict:
    """Every per-layer metric, 0 where this workload has no such layer."""
    units = {name: unit for name, unit, _ in PER_LAYER}
    missing = set(values) - set(units)
    if missing:
        raise KeyError(f"unlisted per-layer metrics {sorted(missing)}")
    return {name: metric(values.get(name, 0.0), units[name]) for name in units}


def self_times(totals: dict, field: str) -> dict:
    return {name: layer_sum(totals, prefix, field) for name, prefix in _SELF_TIME.items()}


def serve_metrics(run, client_totals: dict, reference_peak: float, traced_peak: float) -> tuple[dict, dict]:
    """Per-layer metrics of a traced serve run, plus the cross-check detail."""
    clock, collector = run.clock, run.collector
    table = load(collector.spans)
    window = (clock["start_ns"], clock["end_ns"])
    totals = layer_totals(table, window)
    values = self_times(totals, "self_cpu_s")

    encode_cpu = layer_sum(client_totals, "client.encode", "self_cpu_s")
    encode_wall = layer_sum(client_totals, "client.encode", "wall_s")
    send_wall = layer_sum(client_totals, "call/client.send", "wall_s")
    values["client.encode_s"] = encode_cpu
    values["client.send_wait_s"] = send_wall - encode_wall
    values["client.late_p99_ms"] = run.late_p99_ms

    values["serve.decode_calls"] = _calls(totals, "serve.decode")
    values["serve.flush_calls"] = _calls(totals, "serve.flush")
    values["serve.reports_per_flush"] = _ratio(
        _count(totals, "serve.flush"), values["serve.flush_calls"]
    )
    snapshot = run.stats["metrics"]
    hits = _counter_sum(snapshot, "serve_query_cache_hits_total")
    misses = _counter_sum(snapshot, "serve_query_cache_misses_total")
    values["serve.cache_hit_ratio"] = _ratio(hits, hits + misses)
    session = [s for s in run.stats["sessions"] if s["session"] == "bench"][0]
    values["serve.stall_s"] = float(session["stall_seconds"])

    ingest_calls = _calls(totals, "stream.ingest")
    ingest_reports = _count(totals, "stream.ingest")
    values["stream.ingest_ns_per_report"] = 1e9 * _ratio(
        layer_sum(totals, "stream.ingest", "cpu_s"), ingest_reports
    )
    values["stream.reports_per_ingest"] = _ratio(ingest_reports, ingest_calls)
    cells = _count(totals, "mechanisms.onehot")
    values["mechanisms.onehot_cells"] = cells
    values["mechanisms.onehot_bytes_computed"] = cells * ONEHOT_BYTES_PER_CELL

    cpu = clock["cpu_end"] - clock["cpu_start"]
    wall = (clock["end_ns"] - clock["start_ns"]) / 1e9
    values["collector.cpu_s"] = cpu
    values["collector.busy_share"] = _ratio(cpu, wall)
    covered = sum(entry["self_cpu_s"] for entry in totals.values())
    values["ledger.unaccounted_share"] = 1.0 - _ratio(covered, cpu)
    values["trace.overhead_share"] = 1.0 - _ratio(traced_peak, reference_peak)

    # Cross-check: the benchmark's stage totals against the collector's
    # own histograms, over the same span of the collector's life.
    lifetime = layer_totals(table, (0, clock["stats_ns"]))
    with open(collector.registry) as handle:
        process_snapshot = json.load(handle)
    bench = {
        "decode": layer_sum(lifetime, "serve.decode", "wall_s"),
        "sort": layer_sum(lifetime, "serve.sort", "wall_s"),
        "query": layer_sum(lifetime, "serve.query:worker", "wall_s"),
        "drain": layer_sum(layer_totals(table), "stream.drain:drain", "wall_s"),
    }
    own = {
        stage: _histogram_sum(
            process_snapshot if stage == "drain" else snapshot, series
        )
        for stage, series in _COLLECTOR_SERIES.items()
    }
    for stage in bench:
        values[f"xcheck.{stage}_gap_s"] = bench[stage] - own[stage]
    detail = {
        "bench_stage_s": bench,
        "collector_stage_s": own,
        "drained_reports": ingest_reports,
        "window_s": wall,
        "covered_cpu_s": covered,
        "reference_peak_rps": reference_peak,
        "traced_peak_rps": traced_peak,
        "layers": {k: round(v["self_cpu_s"], 4) for k, v in sorted(totals.items())},
    }
    return _report(values), detail


def mine_metrics(out: dict, spans_path) -> tuple[dict, dict]:
    """Per-layer metrics of a traced mining sweep."""
    table = load(spans_path)
    totals = layer_totals(table, tuple(out["window_ns"]))
    values = self_times(totals, "self_wall_s")
    values["topk.split_cells"] = _count(totals, "topk.split")
    values["datasets.generate_s"] = out["generate_s"]
    traced = out["traced"]["sweep_s"]
    reference = sum(run["sweep_s"] for run in out["sweeps"]) / len(out["sweeps"])
    covered = sum(entry["self_wall_s"] for entry in totals.values())
    values["ledger.unaccounted_share"] = 1.0 - _ratio(covered, traced)
    values["trace.overhead_share"] = _ratio(traced, reference) - 1.0
    detail = {
        "traced_sweep_s": traced,
        "reference_sweep_s": reference,
        "covered_s": covered,
        "layers": {k: round(v["self_wall_s"], 4) for k, v in sorted(totals.items())},
    }
    return _report(values), detail
