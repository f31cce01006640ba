"""Unit tests for trace identity, span export, and worker telemetry
(repro.obs.trace)."""

import json

import pytest

from repro.obs import (
    SpanLog,
    capture_worker_baseline,
    collect_worker_telemetry,
    continue_trace,
    current_traceparent,
    event_log,
    format_traceparent,
    merge_worker_telemetry,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    profile_spans,
    registry,
    remote_parent,
    render_profile,
    render_trace_tree,
    set_enabled,
    set_span_export,
    span,
    span_log,
    state_delta,
)


class TestIdentifiers:
    def test_trace_id_shape(self):
        tid = new_trace_id()
        assert len(tid) == 32
        int(tid, 16)

    def test_span_id_shape(self):
        sid = new_span_id()
        assert len(sid) == 16
        int(sid, 16)

    def test_ids_are_unique(self):
        assert len({new_trace_id() for _ in range(64)}) == 64
        assert len({new_span_id() for _ in range(64)}) == 64


class TestTraceparent:
    def test_roundtrip(self):
        tid, sid = new_trace_id(), new_span_id()
        assert parse_traceparent(format_traceparent(tid, sid)) == (tid, sid)

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00-abc-def-01",  # bad lengths
            "00-" + "g" * 32 + "-" + "a" * 16 + "-01",  # non-hex
            "00-" + "0" * 32 + "-" + "a" * 16 + "-01",  # all-zero trace
            "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # all-zero span
            "ff-" + "a" * 32 + "-" + "b" * 16 + "-01",  # unknown version
            "00-" + "a" * 32 + "-" + "b" * 16,  # missing flags
        ],
    )
    def test_malformed_headers_dropped(self, header):
        assert parse_traceparent(header) is None

    def test_case_insensitive(self):
        header = "00-" + "AB" * 16 + "-" + "CD" * 8 + "-01"
        assert parse_traceparent(header) == ("ab" * 16, "cd" * 8)


class TestSpanIdentity:
    def test_root_span_originates_a_trace(self):
        with span("test.root") as handle:
            assert len(handle.trace_id) == 32
            assert len(handle.span_id) == 16
            assert handle.parent_id is None

    def test_child_inherits_trace_id(self):
        with span("test.outer") as outer:
            with span("test.inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
                assert inner.span_id != outer.span_id

    def test_continue_trace_adopts_remote_parent(self):
        tid, sid = new_trace_id(), new_span_id()
        with continue_trace(format_traceparent(tid, sid)):
            assert remote_parent() == (tid, sid)
            with span("test.continued") as handle:
                assert handle.trace_id == tid
                assert handle.parent_id == sid
        assert remote_parent() is None

    def test_continue_trace_none_shadows_outer_remote(self):
        tid, sid = new_trace_id(), new_span_id()
        with continue_trace(format_traceparent(tid, sid)):
            with continue_trace(None):
                assert remote_parent() is None
                with span("test.fresh") as handle:
                    assert handle.trace_id != tid
                    assert handle.parent_id is None

    def test_local_parent_wins_over_remote(self):
        tid, sid = new_trace_id(), new_span_id()
        with continue_trace(format_traceparent(tid, sid)):
            with span("test.outer") as outer:
                with span("test.inner") as inner:
                    assert inner.parent_id == outer.span_id
                    assert inner.trace_id == tid

    def test_current_traceparent_reflects_open_span(self):
        assert current_traceparent() is None
        with span("test.here") as handle:
            assert current_traceparent() == format_traceparent(
                handle.trace_id, handle.span_id
            )

    def test_current_traceparent_falls_back_to_remote(self):
        tid, sid = new_trace_id(), new_span_id()
        with continue_trace(format_traceparent(tid, sid)):
            assert current_traceparent() == format_traceparent(tid, sid)


class TestSpanExport:
    def test_finished_span_lands_in_log(self):
        cursor = span_log().last_seq
        with span("test.exported", k=3) as handle:
            pass
        records, _ = span_log().since(cursor)
        record = [r for r in records if r["name"] == "test.exported"][-1]
        assert record["trace_id"] == handle.trace_id
        assert record["span_id"] == handle.span_id
        assert record["parent_id"] is None
        assert record["attrs"] == {"k": 3}
        assert record["duration"] >= 0

    def test_nested_span_record_names_its_parent(self):
        # The span log is the one channel for a finished span: a nested
        # record carries its parent, duration and attributes.
        cursor = span_log().last_seq
        with span("test.outer") as outer:
            with span("test.inner", tag=7) as inner:
                pass
        records, _ = span_log().since(cursor)
        record = [r for r in records if r["name"] == "test.inner"][-1]
        assert record["span_id"] == inner.span_id
        assert record["parent_id"] == outer.span_id
        assert record["trace_id"] == outer.trace_id
        assert record["attrs"] == {"tag": 7}
        assert record["duration"] >= 0

    def test_export_toggle(self):
        previous = set_span_export(False)
        try:
            cursor = span_log().last_seq
            with span("test.dark"):
                pass
            records, _ = span_log().since(cursor)
            assert not [r for r in records if r["name"] == "test.dark"]
        finally:
            set_span_export(previous)

    def test_disabled_obs_blocks_record(self):
        log = SpanLog()
        previous = set_enabled(False)
        try:
            assert log.record({"name": "x"}) is None
        finally:
            set_enabled(previous)
        assert len(log) == 0


class TestSpanLog:
    def _record(self, log, **extra):
        base = {
            "trace_id": "a" * 32,
            "span_id": new_span_id(),
            "parent_id": None,
            "name": "t",
            "start": 1.0,
            "duration": 0.5,
            "attrs": {},
        }
        base.update(extra)
        return log.record(base)

    def test_since_cursor_discipline(self):
        log = SpanLog(capacity=4)
        for index in range(6):
            self._record(log, name=f"s{index}")
        records, cursor = log.since(0)
        # capacity 4: oldest two evicted, cursor still absolute
        assert [r["name"] for r in records] == ["s2", "s3", "s4", "s5"]
        assert cursor == 6
        more, cursor2 = log.since(cursor)
        assert more == [] and cursor2 == 6

    def test_for_trace_filters(self):
        log = SpanLog()
        self._record(log, trace_id="b" * 32, name="other")
        self._record(log, name="mine")
        spans = log.for_trace("a" * 32)
        assert [r["name"] for r in spans] == ["mine"]
        assert log.for_trace("c" * 32) == []

    def test_trace_summaries_rollup(self):
        log = SpanLog()
        self._record(log, name="child", start=2.0, duration=0.2,
                     parent_id="f" * 16)
        self._record(log, name="root", start=1.0, duration=0.9)
        self._record(log, trace_id="b" * 32, name="late", start=5.0,
                     duration=0.1)
        summaries = log.trace_summaries()
        assert [s["trace"] for s in summaries] == ["b" * 32, "a" * 32]
        rollup = summaries[1]
        assert rollup["spans"] == 2
        assert rollup["root"] == "root"  # earliest start wins
        assert rollup["duration"] == pytest.approx(0.9)

    def test_ingest_preserves_identity_tags_worker(self):
        log = SpanLog()
        original = {
            "trace_id": "a" * 32,
            "span_id": "b" * 16,
            "parent_id": "c" * 16,
            "name": "remote",
            "start": 3.0,
            "duration": 0.25,
            "attrs": {"k": 1},
            "seq": 999,
        }
        log.ingest(original, worker="1234")
        records, _ = log.since(0)
        merged = records[-1]
        assert merged["span_id"] == "b" * 16
        assert merged["start"] == 3.0
        assert merged["attrs"] == {"k": 1, "worker": "1234"}
        assert merged["seq"] == 1  # re-assigned locally
        assert original["attrs"] == {"k": 1}  # input not mutated

    def test_journal_writes_jsonl(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        log = SpanLog()
        log.attach_journal(str(path))
        try:
            self._record(log, name="journaled")
        finally:
            log.detach_journal()
        lines = path.read_text().splitlines()
        assert json.loads(lines[-1])["name"] == "journaled"
        assert log.journal_path is None


class TestWorkerTelemetry:
    def test_collect_and_merge_roundtrip(self):
        counter = registry().counter(
            "test_trace_merge_total", "merge test counter", ["side"]
        )
        baseline = capture_worker_baseline()
        counter.labels("worker").inc(3)
        with span("test.worker.unit"):
            pass
        telemetry = collect_worker_telemetry(baseline, worker="w1")
        assert telemetry["worker"] == "w1"
        assert telemetry["metrics"]["test_trace_merge_total"]["series"] == [
            [["worker"], 3]
        ]
        names = [r["name"] for r in telemetry["spans"]]
        assert "test.worker.unit" in names

        before = counter.labels("worker").value
        cursor = span_log().last_seq
        merge_worker_telemetry(telemetry)
        assert counter.labels("worker").value == before + 3
        merged, _ = span_log().since(cursor)
        replayed = [r for r in merged if r["name"] == "test.worker.unit"]
        assert replayed and replayed[0]["attrs"]["worker"] == "w1"

    def test_merge_is_defensive(self):
        # Malformed documents must never raise into the result path.
        merge_worker_telemetry(None)
        merge_worker_telemetry({})
        merge_worker_telemetry(
            {"worker": "x", "metrics": "bogus", "events": 7, "spans": "no"}
        )
        merge_worker_telemetry(
            {"metrics": {}, "events": ["notadict"], "spans": [42]}
        )

    def test_histogram_delta_merge(self):
        histogram = registry().histogram(
            "test_trace_merge_seconds",
            "merge test histogram",
            buckets=(0.1, 1.0),
        )
        baseline = capture_worker_baseline()
        histogram.observe(0.05)
        histogram.observe(5.0)
        telemetry = collect_worker_telemetry(baseline, worker="w2")
        before_count = histogram.count
        before_sum = histogram.sum
        merge_worker_telemetry(telemetry)
        assert histogram.count == before_count + 2
        assert histogram.sum == pytest.approx(before_sum + 5.05)

    def test_state_delta_drops_unchanged_series(self):
        counter = registry().counter(
            "test_trace_delta_total", "delta test counter", ["k"]
        )
        counter.labels("static").inc()
        before = registry().export_state()
        counter.labels("moved").inc(2)
        delta = state_delta(before, registry().export_state())
        series = dict(
            (tuple(key), value)
            for key, value in delta["test_trace_delta_total"]["series"]
        )
        assert series == {("moved",): 2}

    def test_event_merge_tags_worker(self):
        baseline = capture_worker_baseline()
        event_log().emit("test", "trace.merge.event", payload={"n": 1})
        telemetry = collect_worker_telemetry(baseline, worker="w3")
        cursor = event_log().last_seq
        merge_worker_telemetry(telemetry)
        events, _ = event_log().since(cursor)
        match = [e for e in events if e.name == "trace.merge.event"]
        assert match and match[-1].payload["worker"] == "w3"


def _span_record(name, span_id, parent_id, duration, trace="a" * 32):
    return {
        "trace_id": trace,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start": 0.0,
        "duration": duration,
        "attrs": {},
    }


class TestProfiler:
    def test_self_time_subtracts_direct_children(self):
        spans = [
            _span_record("root", "1" * 16, None, 1.0),
            _span_record("mid", "2" * 16, "1" * 16, 0.7),
            _span_record("leaf", "3" * 16, "2" * 16, 0.4),
        ]
        report = profile_spans(spans)
        rows = {r["span"]: r for r in report["rows"]}
        assert rows["root"]["self_seconds"] == pytest.approx(0.3)
        assert rows["mid"]["self_seconds"] == pytest.approx(0.3)
        assert rows["leaf"]["self_seconds"] == pytest.approx(0.4)
        assert report["wall_seconds"] == pytest.approx(1.0)
        assert report["traces"] == 1
        # sorted by self time, descending
        assert report["rows"][0]["span"] == "leaf"

    def test_self_time_floored_at_zero(self):
        spans = [
            _span_record("root", "1" * 16, None, 0.1),
            _span_record("child", "2" * 16, "1" * 16, 0.5),
        ]
        rows = {r["span"]: r for r in profile_spans(spans)["rows"]}
        assert rows["root"]["self_seconds"] == 0.0

    def test_dangling_parent_counts_as_root(self):
        spans = [_span_record("orphan", "9" * 16, "f" * 16, 0.2)]
        report = profile_spans(spans)
        assert report["wall_seconds"] == pytest.approx(0.2)

    def test_render_profile_empty(self):
        assert "no spans recorded" in render_profile(profile_spans([]))

    def test_render_profile_table(self):
        text = render_profile(
            profile_spans([_span_record("kernel.qpa", "1" * 16, None, 0.5)])
        )
        assert "kernel.qpa" in text
        assert "self(s)" in text


class TestRenderTree:
    def test_tree_indents_children(self):
        spans = [
            _span_record("root", "1" * 16, None, 1.0),
            _span_record("child", "2" * 16, "1" * 16, 0.5),
        ]
        lines = render_trace_tree(spans).splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")

    def test_dangling_parent_renders_as_root(self):
        spans = [_span_record("orphan", "2" * 16, "f" * 16, 0.5)]
        lines = render_trace_tree(spans).splitlines()
        assert lines[0].startswith("orphan")
