"""ShardedAggregator: fan-out, merge reduction, error propagation, and
the telemetry and trace spans its shard threads record."""

import threading

import numpy as np
import pytest

from repro.exceptions import AggregationError, ConfigurationError
from repro.mechanisms import (
    GeneralizedRandomResponse,
    HadamardResponse,
    OptimalLocalHashing,
    OptimizedUnaryEncoding,
    Rappor,
    SymmetricUnaryEncoding,
)
from repro.obs import metrics as obs_metrics
from repro.obs import render_snapshot
from repro.obs.trace import TraceContext, get_tracer, tracing_enabled
from repro.stream import CountAccumulator, ShardedAggregator, make_session


def _report_batches(rng, batches=6, size=50, domain=5):
    return [rng.integers(0, domain, size) for _ in range(batches)]


class TestFanOut:
    def test_sharded_equals_single_accumulator(self, rng):
        """Protocol reports aggregate to identical counts however sharded."""
        mech = GeneralizedRandomResponse(1.0, 5, rng=rng)
        batches = [mech.privatize_many(b) for b in _report_batches(rng)]
        single = mech.accumulator()
        for batch in batches:
            single.ingest_batch(batch)
        for n_shards in (1, 2, 4):
            with ShardedAggregator(mech.accumulator, n_shards=n_shards) as agg:
                futures = [agg.submit(batch) for batch in batches]
                total = agg.drain()
                merged = agg.merged()
            assert [f.result() for f in futures] == [len(b) for b in batches]
            assert total == sum(len(b) for b in batches)
            np.testing.assert_array_equal(merged.support(), single.support())

    def test_seeded_session_shards_replay_exactly(self):
        """Round-robin sharding of seeded simulate-mode sessions equals
        feeding each identically seeded session its own batches."""
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 3, 24_000)
        items = rng.integers(0, 16, 24_000)
        batches = [
            (labels[start : start + 4_000], items[start : start + 4_000])
            for start in range(0, 24_000, 4_000)
        ]

        def sessions():
            return [
                make_session("pts", epsilon=2.0, n_classes=3, n_items=16,
                             rng=np.random.default_rng(seed))
                for seed in (11, 12)
            ]

        with ShardedAggregator(sessions()) as agg:
            agg.ingest(batches)
            merged = agg.merged()
        reference = sessions()
        for index, batch in enumerate(batches):
            reference[index % 2].ingest_batch(batch)
        expected = reference[0].merge(reference[1])
        assert merged.n_ingested == expected.n_ingested == 24_000
        np.testing.assert_array_equal(merged.estimate(), expected.estimate())

    def test_tuple_batches_reach_sessions(self, rng):
        shards = [
            make_session("ptj", epsilon=1.0, n_classes=2, n_items=4,
                         rng=np.random.default_rng(seed))
            for seed in (1, 2)
        ]
        with ShardedAggregator(shards) as agg:
            agg.submit((np.asarray([0, 1, 0]), np.asarray([1, 2, 3])))
            agg.submit((np.asarray([1, 1]), np.asarray([0, 0])))
            merged = agg.merged()
        assert merged.n_ingested == 5
        assert merged.estimate().shape == (2, 4)

    def test_tuple_batches_reach_accumulators(self, rng):
        """An accumulator's own tuple batch form survives the fan-out
        (OLH's (a, b, r) columns must not be splatted apart)."""
        mech = OptimalLocalHashing(1.0, 9, rng=rng)
        reports = np.asarray([mech.privatize(int(v)) for v in rng.integers(0, 9, 40)])
        single = mech.accumulator()
        single.ingest_batch(reports)
        with ShardedAggregator(mech.accumulator, n_shards=2) as agg:
            agg.submit((reports[:20, 0], reports[:20, 1], reports[:20, 2]))
            agg.submit(reports[20:])
            merged = agg.merged()
        assert merged.n == single.n
        np.testing.assert_array_equal(merged.support(), single.support())

    def test_pinned_shard(self, rng):
        with ShardedAggregator(lambda: CountAccumulator(4), n_shards=3) as agg:
            agg.submit(np.asarray([0, 1]), shard=2)
            agg.drain()
            parts = agg.partials()
        assert parts[2].n == 2
        assert parts[0].n == parts[1].n == 0

    def test_single_shard_merged_is_a_snapshot(self, rng):
        """merged() must detach from the live shard even with one shard,
        so a mid-stream snapshot stays frozen while ingestion continues."""
        with ShardedAggregator(lambda: CountAccumulator(4), n_shards=1) as agg:
            agg.submit(np.asarray([0, 1]))
            snapshot = agg.merged()
            assert snapshot.n == 2
            agg.submit(np.asarray([2, 3, 3]))
            agg.drain()
        assert snapshot.n == 2
        np.testing.assert_array_equal(snapshot.support(), [1, 1, 0, 0])

    def test_single_shard_session_merged_is_a_snapshot(self):
        shards = [
            make_session("ptj", epsilon=1.0, n_classes=2, n_items=4,
                         rng=np.random.default_rng(1))
        ]
        with ShardedAggregator(shards) as agg:
            agg.submit((np.asarray([0, 1]), np.asarray([0, 1])))
            snapshot = agg.merged()
            agg.submit((np.asarray([1]), np.asarray([2])))
            agg.drain()
        assert snapshot.n_ingested == 2

    def test_partials_drain_first(self, rng):
        with ShardedAggregator(lambda: CountAccumulator(4), n_shards=2) as agg:
            for _ in range(4):
                agg.submit(np.asarray([1, 2, 3]))
            parts = agg.partials()
        assert sum(p.n for p in parts) == 12


class TestLifecycle:
    def test_submit_after_close_rejected(self):
        agg = ShardedAggregator(lambda: CountAccumulator(4), n_shards=1)
        agg.close()
        with pytest.raises(ConfigurationError):
            agg.submit(np.asarray([0]))

    def test_shard_errors_surface_at_drain(self):
        with ShardedAggregator(lambda: CountAccumulator(4), n_shards=2) as agg:
            agg.submit(np.asarray([0, 99]))  # outside the domain
            with pytest.raises(Exception):
                agg.drain()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ShardedAggregator([])
        with pytest.raises(ConfigurationError):
            ShardedAggregator(lambda: CountAccumulator(4), n_shards=0)
        with pytest.raises(ConfigurationError):
            ShardedAggregator([CountAccumulator(4)], n_shards=2)
        with pytest.raises(ConfigurationError):
            with ShardedAggregator([CountAccumulator(4)]) as agg:
                agg.submit(np.asarray([0]), shard=5)


def _session_batches(n=24_000, size=4_000, c=3, d=16, seed=1):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, c, n)
    items = rng.integers(0, d, n)
    return [
        (labels[start : start + size], items[start : start + size])
        for start in range(0, n, size)
    ]


def _seeded_sessions(framework, seeds=(11, 12)):
    return [
        make_session(framework, epsilon=2.0, n_classes=3, n_items=16,
                     rng=np.random.default_rng(seed))
        for seed in seeds
    ]


class TestExactMerge:
    @pytest.mark.parametrize(
        "mechanism",
        [
            GeneralizedRandomResponse,
            OptimizedUnaryEncoding,
            SymmetricUnaryEncoding,
            OptimalLocalHashing,
            HadamardResponse,
            Rappor,
        ],
        ids=["grr", "oue", "sue", "olh", "hadamard", "rappor"],
    )
    def test_mechanism_accumulators_shard_exactly(self, mechanism):
        """Every oracle's report batches aggregate to the single-state
        support on three shard threads."""
        rng = np.random.default_rng(0)
        mech = mechanism(1.0, 16, rng=rng)
        batches = [mech.privatize_many(rng.integers(0, 16, 300)) for _ in range(5)]
        single = mech.accumulator()
        for batch in batches:
            single.ingest_batch(batch)
        with ShardedAggregator(mech.accumulator, n_shards=3) as agg:
            total = agg.ingest(batches)
            merged = agg.merged()
        assert total == merged.n == single.n == 1500
        np.testing.assert_array_equal(merged.support(), single.support())

    @pytest.mark.parametrize("framework", ["hec", "ptj", "pts", "pts-cp"])
    def test_every_framework_shards_replay_exactly(self, framework):
        """Seeded sessions of each framework, sharded round-robin, equal
        the same sessions fed their batches one after another."""
        batches = _session_batches()
        with ShardedAggregator(_seeded_sessions(framework)) as agg:
            agg.ingest(batches)
            merged = agg.merged()
        reference = _seeded_sessions(framework)
        for index, batch in enumerate(batches):
            reference[index % 2].ingest_batch(batch)
        expected = reference[0].merge(reference[1])
        assert merged.n_ingested == expected.n_ingested == 24_000
        np.testing.assert_array_equal(merged.estimate(), expected.estimate())

    def test_multi_shard_merged_is_a_snapshot(self):
        """With several shards, merged() still hands back a state that
        later ingestion does not reach."""
        with ShardedAggregator(lambda: CountAccumulator(4), n_shards=3) as agg:
            agg.ingest([np.asarray([0, 1]), np.asarray([2]), np.asarray([3])])
            frozen = agg.merged()
            agg.ingest([np.asarray([0, 0, 0])] * 3)
            assert agg.merged().n == 13
            assert [part.n for part in agg.partials()] == [5, 4, 4]
        assert frozen.n == 4
        np.testing.assert_array_equal(frozen.support(), [1, 1, 1, 1])


class TestThreadContract:
    def test_waiting_on_a_submit_future_needs_no_drain(self):
        with ShardedAggregator(lambda: CountAccumulator(4), n_shards=2) as agg:
            futures = [agg.submit(np.asarray([0, 1, 2])) for _ in range(3)]
            assert futures[0].result() == 3
            assert [f.result() for f in futures] == [3, 3, 3]
            assert agg.merged().n == 9

    def test_close_drains_pending_batches(self):
        aggregator = ShardedAggregator(lambda: CountAccumulator(4), n_shards=2)
        futures = [aggregator.submit(np.asarray([1, 2])) for _ in range(4)]
        aggregator.close()
        assert all(future.done() for future in futures)
        assert sum(part.n for part in aggregator._shards) == 8

    def test_close_releases_shard_threads(self):
        before = set(threading.enumerate())
        aggregator = ShardedAggregator(lambda: CountAccumulator(4), n_shards=3)
        aggregator.ingest([np.asarray([0])] * 6)
        assert len(set(threading.enumerate()) - before) == 3
        aggregator.close()
        aggregator.close()  # idempotent
        assert not set(threading.enumerate()) - before

    def test_failed_batch_leaves_earlier_ingestion_intact(self):
        """A rejected batch raises at drain and changes no counts; the
        aggregator keeps serving later batches."""
        with ShardedAggregator(lambda: CountAccumulator(4), n_shards=1) as agg:
            assert agg.ingest([np.asarray([0, 1, 2, 3])]) == 4
            agg.submit(np.asarray([99]))  # outside the domain
            with pytest.raises(AggregationError):
                agg.drain()
            assert agg.merged().n == 4
            assert agg.ingest([np.asarray([1])]) == 1
            np.testing.assert_array_equal(agg.merged().support(), [1, 2, 1, 1])

    @pytest.mark.parametrize("keyword", ["executor", "transport"])
    def test_executor_and_transport_keywords_are_gone(self, keyword):
        """Shards run on threads only; the old knobs are not parameters."""
        with pytest.raises(TypeError, match=keyword):
            ShardedAggregator(lambda: CountAccumulator(4), **{keyword: "thread"})


@pytest.fixture
def registry():
    """The process registry, cleared and enabled for one test."""
    reg = obs_metrics.get_registry()
    was_enabled = reg.enabled
    reg.clear()
    reg.enable()
    yield reg
    reg.clear()
    reg._enabled = was_enabled


def _ingested(snapshot):
    return sum(
        value
        for key, value in snapshot["counters"].items()
        if key.startswith("stream_ingested_total")
    )


class TestShardTelemetry:
    def test_shard_thread_counts_land_in_the_process_registry(self, registry):
        """Shard threads share the process registry: session ingest
        counters and the drain counter both see every report once."""
        with ShardedAggregator(_seeded_sessions("pts")) as agg:
            total = agg.ingest(_session_batches(n=12_000, size=3_000))
        snapshot = registry.snapshot()
        assert total == 12_000
        assert _ingested(snapshot) == 12_000
        assert snapshot["counters"]["shard_drained_reports_total"] == 12_000

    def test_repeated_drains_accumulate(self, registry):
        with ShardedAggregator(_seeded_sessions("ptj")) as agg:
            agg.ingest(_session_batches(n=6_000, size=3_000, seed=7))
            agg.ingest(_session_batches(n=6_000, size=3_000, seed=8))
        snapshot = registry.snapshot()
        assert _ingested(snapshot) == 12_000
        assert snapshot["counters"]["shard_drained_reports_total"] == 12_000
        [drains] = [
            state for key, state in snapshot["histograms"].items()
            if key.startswith("shard_drain_seconds")
        ]
        assert drains["count"] == 2

    def test_drain_histogram_carries_no_executor_label(self, registry):
        with ShardedAggregator(lambda: CountAccumulator(4), n_shards=2) as agg:
            agg.ingest([np.asarray([0, 1])] * 2)
        keys = [
            key for key in registry.snapshot()["histograms"]
            if key.startswith("shard_drain_seconds")
        ]
        assert keys == ["shard_drain_seconds"]
        rendered = render_snapshot(registry.snapshot())
        assert "shard_drain_seconds_count 1" in rendered
        assert "executor" not in rendered

    def test_imbalance_gauge_counts_pinned_batches(self, registry):
        with ShardedAggregator(lambda: CountAccumulator(4), n_shards=2) as agg:
            for _ in range(3):
                agg.submit(np.asarray([0]), shard=0)
            agg.drain()
        assert registry.snapshot()["gauges"]["shard_imbalance_batches"] == 3

    def test_nothing_recorded_while_registry_disabled(self):
        registry = obs_metrics.get_registry()
        assert not registry.enabled
        before = registry.snapshot()
        with ShardedAggregator(_seeded_sessions("pts")) as agg:
            assert agg.ingest(_session_batches(n=6_000, size=3_000)) == 6_000
        assert registry.snapshot() == before


class TestShardTracing:
    def test_shard_spans_join_the_submitted_trace(self):
        """Each traced batch records one shard.ingest span in the process
        tracer, a child of the context handed to submit()."""
        tracer = get_tracer()
        tracer.clear()
        root = TraceContext.root()
        with tracing_enabled():
            with ShardedAggregator(lambda: CountAccumulator(4), n_shards=2) as agg:
                for _ in range(4):
                    agg.submit(np.asarray([0, 1]), trace=root)
                assert agg.drain() == 8
            spans = tracer.drain_spans()
        tracer.clear()
        shard_spans = [s for s in spans if s["name"] == "shard.ingest"]
        assert len(shard_spans) == 4
        assert {s["trace_id"] for s in shard_spans} == {root.trace_id}
        assert {s["parent_id"] for s in shard_spans} == {root.span_id}
        assert sorted(s["args"]["shard"] for s in shard_spans) == [0, 0, 1, 1]

    def test_untraced_submits_record_no_spans(self):
        tracer = get_tracer()
        tracer.clear()
        with tracing_enabled():
            with ShardedAggregator(lambda: CountAccumulator(4), n_shards=2) as agg:
                agg.ingest([np.asarray([0, 1])] * 4)
        assert len(tracer.ring) == 0

    def test_trace_is_ignored_while_tracer_disabled(self):
        tracer = get_tracer()
        assert not tracer.enabled
        before = tracer.ring.total
        with ShardedAggregator(lambda: CountAccumulator(4), n_shards=2) as agg:
            for _ in range(2):
                agg.submit(np.asarray([3]), trace=TraceContext.root())
            assert agg.drain() == 2
        assert tracer.ring.total == before
