"""Unit tests for the reference walks' interval queue."""

from .reference_walks import IntervalQueue


class TestIntervalQueue:
    def test_orders_by_interval(self):
        q: IntervalQueue[str] = IntervalQueue()
        q.push(5, "b")
        q.push(3, "a")
        q.push(9, "c")
        assert [q.pop() for _ in range(3)] == [(3, "a"), (5, "b"), (9, "c")]

    def test_fifo_on_ties(self):
        q: IntervalQueue[str] = IntervalQueue()
        for payload in "abc":
            q.push(7, payload)
        assert [q.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_peek_and_len(self):
        q: IntervalQueue[int] = IntervalQueue()
        assert q.peek() is None
        assert not q
        q.push(2, 42)
        assert q.peek() == (2, 42)
        assert len(q) == 1
        q.pop()
        assert len(q) == 0
