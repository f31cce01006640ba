"""Unit tests for tracing spans (repro.obs.trace)."""

from repro.obs import (
    current_span,
    event_log,
    registry,
    set_enabled,
    span,
)


def _span_count(name):
    family = registry().get("repro_span_seconds")
    return family.labels(name).count


class TestSpans:
    def test_span_records_duration_into_histogram(self):
        before = _span_count("test.scope")
        with span("test.scope") as handle:
            pass
        assert _span_count("test.scope") == before + 1
        assert handle.duration is not None
        assert handle.duration >= 0

    def test_nesting_links_parent_and_depth(self):
        with span("test.outer") as outer:
            assert current_span() is outer
            assert outer.parent is None
            assert outer.depth == 0
            with span("test.inner", k="v") as inner:
                assert current_span() is inner
                assert inner.parent is outer
                assert inner.depth == 1
                assert inner.attrs == {"k": "v"}
            assert current_span() is outer
        assert current_span() is None

    def test_duration_recorded_on_exception(self):
        before = _span_count("test.crash")
        try:
            with span("test.crash"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert _span_count("test.crash") == before + 1
        assert current_span() is None

    def test_disabled_span_yields_none(self):
        previous = set_enabled(False)
        try:
            with span("test.disabled") as handle:
                assert handle is None
        finally:
            set_enabled(previous)


class TestSpanEvents:
    def test_events_off_by_default(self):
        before = event_log().last_seq
        with span("test.quiet"):
            pass
        assert event_log().last_seq == before
