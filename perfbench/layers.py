"""Which entry points the traced runs wrap, and the layer metrics they feed.

Span names are ``<layer metric>[:<entry point>]``; a layer metric sums the
self time of every span whose name starts with it.  The collector side is
installed by ``collector_traced.py`` (inside the collector process), the
mining side by ``mine_runner.py``; both only wrap, never change, the
program's functions.
"""

from __future__ import annotations

#: One-hot kernel bytes per cell, computed from the NumPy reference
#: kernel's array sizes: a float64 uniform written and read back (8 + 8),
#: the bool comparison result (1), the set-bit overwrite (1) and the
#: uint8 output copy (1).
ONEHOT_BYTES_PER_CELL = 19


def _result(args, kwargs, result):
    return int(result or 0)


def _sorted_reports(args, kwargs, result):
    return int(result[0].size)


def _onehot_cells(args, kwargs, result):
    return int(result.size)


def _split_cells(args, kwargs, result):
    return int(sum(part.size for part in result))


def install_collector(recorder) -> None:
    """Wrap the collector's serve / stream / mechanisms entry points."""
    import asyncio.base_events

    from repro.mechanisms import adaptive, correlated, engine, grr, kernels, ue
    from repro.mechanisms import validity
    from repro.serve import collector, protocol, registry, ringbuf
    from repro.stream import drain, session

    wrap = recorder.wrap
    # serve: event loop, connection loop, frame reader, registry, ring.
    wrap(asyncio.base_events.BaseEventLoop, "_run_once", "serve.loop")
    wrap(collector.ReportCollector, "_serve_connection", "serve.connection")
    wrap(collector.ReportCollector, "stats", "serve.telemetry:stats")
    wrap(collector.ReportCollector, "health", "serve.telemetry:health")
    wrap(protocol.FrameReader, "read_batch", "serve.read:batch")
    wrap(protocol.FrameReader, "read_frame", "serve.read:frame")
    wrap(protocol, "reply_frame", "serve.reply_encode")
    wrap(registry.HostedSession, "buffer_frames", "serve.decode", _result)
    wrap(registry.HostedSession, "flush", "serve.flush", _result)
    wrap(registry.HostedSession, "query", "serve.query:loop")
    wrap(registry.HostedSession, "_query_sync", "serve.query:worker")
    wrap(registry.HostedSession, "settle", "serve.settle")
    wrap(ringbuf.FlushArena, "class_sort", "serve.sort", _sorted_reports)
    # stream: drain adapter and the framework session.
    for method in ("submit", "drain", "snapshot"):
        wrap(drain.AggregatorDrain, method, f"stream.drain:{method}")
    wrap(session.OnlineFrameworkSession, "ingest_batch", "stream.ingest", _result)
    wrap(session.OnlineFrameworkSession, "estimate", "stream.estimate")
    # mechanisms: oracle batch API, engine blocks, the one-hot kernel.
    for cls in (
        grr.GeneralizedRandomResponse,
        ue.UnaryEncoding,
        validity.ValidityPerturbation,
        correlated.CorrelatedPerturbation,
        adaptive.AdaptiveMechanism,
    ):
        wrap(cls, "privatize_many", "mechanisms.privatize")
        wrap(cls, "aggregate_batch", "mechanisms.aggregate")
    recorder.wrap_everywhere(kernels.perturb_onehot_batch, "mechanisms.onehot", _onehot_cells)
    recorder.wrap_everywhere(engine.batch_support, "mechanisms.engine:batch")
    recorder.wrap_everywhere(engine.grouped_batch_support, "mechanisms.engine:grouped")


def install_client(recorder) -> None:
    """Wrap the load generator's encode and send paths."""
    from repro.serve import client, protocol

    recorder.wrap(protocol.ReportsEncoder, "pack", "client.encode")
    recorder.wrap(client.ReportClient, "send", "client.send")


def install_mine(recorder) -> None:
    """Wrap the one-shot mining and estimation entry points."""
    from repro.core.frameworks import base as frameworks_base
    from repro.core.topk import candidate, classwise, pem, pruning, reporting
    from repro.stream import topk_session

    everywhere = recorder.wrap_everywhere
    everywhere(reporting.split_counts_over_iterations, "topk.split", _split_cells)
    everywhere(frameworks_base.split_counts_into_groups, "frameworks.group_split")
    everywhere(reporting.iteration_support, "topk.support")
    everywhere(pruning.bucket_prune_once, "topk.prune:bucket")
    everywhere(pruning.prefix_prune_once, "topk.prune:prefix")
    everywhere(pruning.estimate_final, "topk.final")
    everywhere(candidate.generate_candidates, "topk.candidates")
    everywhere(classwise.mine_class_topk, "topk.classwise")
    recorder.wrap(pem.PEMMiner, "mine_counts", "topk.pem")
    recorder.wrap(
        frameworks_base.MulticlassFramework, "estimate_frequencies", "frameworks.estimate"
    )
    session = topk_session.OnlineTopKSession
    recorder.wrap(session, "ingest_batch", "online_topk.ingest", _result)
    recorder.wrap(session, "advance_round", "online_topk.advance")
    recorder.wrap(session, "run", "online_topk.run")


def layer_sum(totals: dict, prefix: str, field: str = "self_cpu_s") -> float:
    """Sum ``field`` over every span named ``prefix`` or ``prefix:*``."""
    return sum(
        entry[field]
        for name, entry in totals.items()
        if name == prefix or name.startswith(prefix + ":")
    )
