"""Trace propagation and telemetry merge through BatchRunner
(repro.engine.batch)."""

from collections import Counter

import pytest

from repro.engine import (
    AnalysisRequest,
    BatchRunner,
    clear_context_cache,
    context_cache_info,
)
from repro.engine.batch import _execute_chunk
from repro.generation import generate_taskset
from repro.obs import (
    format_traceparent,
    merge_worker_telemetry,
    new_span_id,
    new_trace_id,
    registry,
    span,
    span_log,
)

from ..conftest import random_feasible_candidate


def _population(rng, count=8):
    return [random_feasible_candidate(rng) for _ in range(count)]


def _engine_counters(test="qpa"):
    """(analyses count, iteration-histogram raw cells) for one test."""
    analyses = registry().get("repro_engine_analyses_total")
    iterations = registry().get("repro_engine_test_iterations")
    return (
        analyses.labels(test).value,
        iterations.labels(test).raw(),
    )


def _pda_counters():
    """(``repro_kernel_pda_iterations`` count, ``first_overflow`` calls)."""
    return (
        registry().get("repro_kernel_pda_iterations").count,
        registry()
        .get("repro_kernel_primitive_calls_total")
        .labels("first_overflow")
        .value,
    )


class TestCounterParity:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_counters_match_sequential_exactly(self, rng, jobs):
        """Parallel runs must produce bit-for-bit the same engine
        counters and iteration histograms as jobs=1 over the same
        requests."""
        sets = _population(rng)
        requests = [AnalysisRequest(source=ts, test="qpa") for ts in sets]

        before = _engine_counters()
        sequential = BatchRunner(jobs=1).run(list(requests))
        after_seq = _engine_counters()

        parallel = BatchRunner(jobs=jobs, chunk_size=3).run(list(requests))
        after_par = _engine_counters()

        assert parallel == sequential
        seq_analyses = after_seq[0] - before[0]
        par_analyses = after_par[0] - after_seq[0]
        assert par_analyses == seq_analyses == len(requests)

        def hist_delta(a, b):
            counts_a, sum_a, count_a = a
            counts_b, sum_b, count_b = b
            return (
                [y - x for x, y in zip(counts_a, counts_b)],
                sum_b - sum_a,
                count_b - count_a,
            )

        seq_hist = hist_delta(before[1], after_seq[1])
        par_hist = hist_delta(after_seq[1], after_par[1])
        assert par_hist == seq_hist

    def test_mixed_tests_parity(self, rng):
        sets = _population(rng, count=6)
        requests = [
            AnalysisRequest(source=ts, test=test)
            for ts in sets
            for test in ("qpa", "devi")
        ]
        sequential = BatchRunner(jobs=1).run(list(requests))
        parallel = BatchRunner(jobs=2, chunk_size=4).run(list(requests))
        assert parallel == sequential


class TestChunkTelemetry:
    """Exercise the worker entry point in-process: deterministic
    coverage of the merge path even where multiprocessing falls back."""

    def _chunk(self, rng, traceparent, count=3):
        sets = _population(rng, count=count)
        entries = [
            (index, ts, "qpa", {}) for index, ts in enumerate(sets)
        ]
        return _execute_chunk((entries, traceparent))

    def test_chunk_spans_join_the_parent_trace(self, rng):
        tid, sid = new_trace_id(), new_span_id()
        results, telemetry = self._chunk(
            rng, format_traceparent(tid, sid)
        )
        assert len(results) == 3
        spans = telemetry["spans"]
        chunk = [s for s in spans if s["name"] == "worker.chunk"]
        assert len(chunk) == 1
        assert chunk[0]["trace_id"] == tid
        assert chunk[0]["parent_id"] == sid
        analyze = [s for s in spans if s["name"] == "engine.analyze"]
        assert len(analyze) == 3
        for record in analyze:
            assert record["trace_id"] == tid
            assert record["parent_id"] == chunk[0]["span_id"]

    def test_chunk_without_traceparent_starts_fresh_trace(self, rng):
        results, telemetry = self._chunk(rng, None, count=1)
        chunk = [
            s for s in telemetry["spans"] if s["name"] == "worker.chunk"
        ][0]
        assert chunk["parent_id"] is None
        assert len(chunk["trace_id"]) == 32

    def test_chunk_telemetry_merges_into_parent(self, rng):
        results, telemetry = self._chunk(rng, None, count=2)
        # Workers never touch the parent-side engine counters — the
        # parity invariant — so their delta must not contain them.
        assert "repro_engine_analyses_total" not in (
            telemetry["metrics"] or {}
        )
        cursor = span_log().last_seq
        merge_worker_telemetry(telemetry)
        merged, _ = span_log().since(cursor, limit=1 << 30)
        names = [r["name"] for r in merged]
        assert names.count("engine.analyze") == 2
        worker_tag = telemetry["worker"]
        assert all(r["attrs"].get("worker") == worker_tag for r in merged)

    def test_chunk_kernel_metrics_ride_back(self, rng):
        _, telemetry = self._chunk(rng, None, count=2)
        delta = telemetry["metrics"] or {}
        assert "repro_kernel_primitive_calls_total" in delta
        before = (
            registry()
            .get("repro_kernel_primitive_calls_total")
            .labels("qpa")
            .value
        )
        merge_worker_telemetry(telemetry)
        after = (
            registry()
            .get("repro_kernel_primitive_calls_total")
            .labels("qpa")
            .value
        )
        assert after - before == 2


class TestBatchTracePropagation:
    def test_parallel_spans_share_the_submitting_trace(self, rng):
        sets = _population(rng, count=4)
        requests = [AnalysisRequest(source=ts, test="qpa") for ts in sets]
        cursor = span_log().last_seq
        with span("test.batch.root") as root:
            BatchRunner(jobs=2, chunk_size=2).run(requests)
        records, _ = span_log().since(cursor, limit=1 << 30)
        mine = [r for r in records if r["trace_id"] == root.trace_id]
        names = {r["name"] for r in mine}
        assert "engine.batch" in names
        assert "engine.analyze" in names
        analyze = [r for r in mine if r["name"] == "engine.analyze"]
        assert len(analyze) == len(requests)

    def test_sequential_processor_demand_spans(self, rng):
        """A sequential processor-demand batch is traced and counted
        like the same number of direct analyses: one ``engine.analyze``
        span per request, each with its ``kernel.pda`` walk."""
        sets = _population(rng, count=3)
        requests = [
            AnalysisRequest(source=ts, test="processor-demand")
            for ts in sets
        ]
        before = _pda_counters()
        cursor = span_log().last_seq
        with span("test.batch.root") as root:
            BatchRunner(jobs=1).run(requests)
        records, _ = span_log().since(cursor, limit=1 << 30)
        after = _pda_counters()
        mine = [r for r in records if r["trace_id"] == root.trace_id]
        assert Counter(r["name"] for r in mine) == {
            "test.batch.root": 1,
            "engine.batch": 1,
            "engine.analyze": 3,
            "engine.preflight": 3,
            "kernel.pda": 3,
        }
        for record in mine:
            if record["name"] == "engine.analyze":
                children = [
                    r["name"] for r in mine if r["parent_id"] == record["span_id"]
                ]
                assert children.count("kernel.pda") == 1
        assert [b - a for a, b in zip(before, after)] == [3, 3]


class TestBatchContextCache:
    def test_sequential_battery_misses_once_per_set(self, monkeypatch):
        """Each set's requests run back to back, so a battery needs one
        context per set even when the LRU holds fewer sets than the
        batch."""
        monkeypatch.setattr("repro.engine.context._CACHE_MAX", 4)
        clear_context_cache()
        sets = [
            generate_taskset(n=5, utilization=0.9, seed=seed)
            for seed in range(6)
        ]
        requests = [
            AnalysisRequest(source=ts, test=test)
            for ts in sets
            for test in ("devi", "processor-demand")
        ]
        BatchRunner(jobs=1).run(requests)
        assert context_cache_info()["misses"] == 6
        clear_context_cache()
