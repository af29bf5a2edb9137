"""Trace ring: bounding, overwrite accounting, sinks, JSONL."""

import pytest

from repro.telemetry.trace import TraceEvent, TraceRing, parse_jsonl


def ev(i, kind="run"):
    return TraceEvent(ts_ns=i, kind=kind, framework="ebpf",
                      prog=f"p{i}", data={"i": i})


class TestBounding:
    def test_holds_up_to_capacity(self):
        ring = TraceRing(capacity=4)
        for i in range(4):
            ring.emit(ev(i))
        assert len(ring) == 4
        assert ring.dropped == 0
        assert ring.emitted == 4

    def test_overflow_drops_oldest(self):
        ring = TraceRing(capacity=4)
        for i in range(10):
            ring.emit(ev(i))
        assert len(ring) == 4
        assert ring.dropped == 6
        assert ring.emitted == 10
        assert [e.ts_ns for e in ring.events()] == [6, 7, 8, 9]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceRing(capacity=0)

    def test_clear_keeps_counters(self):
        ring = TraceRing(capacity=2)
        for i in range(3):
            ring.emit(ev(i))
        ring.clear()
        assert len(ring) == 0
        assert ring.emitted == 3
        assert ring.dropped == 1


class TestFiltering:
    def test_kind_filter_and_limit(self):
        ring = TraceRing(capacity=16)
        for i in range(6):
            ring.emit(ev(i, kind="run" if i % 2 else "load"))
        runs = ring.events(kind="run")
        assert [e.ts_ns for e in runs] == [1, 3, 5]
        assert [e.ts_ns for e in ring.events(limit=2)] == [4, 5]
        assert [e.ts_ns
                for e in ring.events(kind="run", limit=1)] == [5]

    def test_limit_zero_returns_nothing(self):
        ring = TraceRing(capacity=16)
        for i in range(6):
            ring.emit(ev(i))
        assert ring.events(limit=0) == []
        assert ring.events(kind="run", limit=0) == []

    def test_limit_beyond_held_returns_all(self):
        ring = TraceRing(capacity=16)
        for i in range(3):
            ring.emit(ev(i))
        assert [e.ts_ns for e in ring.events(limit=10)] == [0, 1, 2]

    def test_negative_limit_rejected(self):
        ring = TraceRing(capacity=16)
        for i in range(3):
            ring.emit(ev(i))
        with pytest.raises(ValueError):
            ring.events(limit=-1)


class TestSinks:
    def test_sink_sees_every_emission(self):
        ring = TraceRing(capacity=2)
        seen = []
        ring.add_sink("test", seen.append)
        for i in range(5):
            ring.emit(ev(i))
        # the sink observed all 5 even though the ring holds only 2
        assert [e.ts_ns for e in seen] == [0, 1, 2, 3, 4]

    def test_remove_sink(self):
        ring = TraceRing()
        seen = []
        ring.add_sink("test", seen.append)
        ring.emit(ev(0))
        ring.remove_sink("test")
        ring.remove_sink("test")   # no-op when absent
        ring.emit(ev(1))
        assert len(seen) == 1


class TestJsonl:
    def test_round_trip(self):
        ring = TraceRing()
        ring.emit(ev(3, kind="load"))
        ring.emit(TraceEvent(7, "oops", "", "bpf:crash",
                             {"category": "page_fault"}))
        back = parse_jsonl(ring.to_jsonl())
        assert back == ring.events()

    def test_empty_ring_exports_empty_text(self):
        assert TraceRing().to_jsonl() == ""
        assert parse_jsonl("") == []

    def test_parse_skips_blank_lines(self):
        text = ev(1).to_json() + "\n\n" + ev(2).to_json() + "\n"
        assert [e.ts_ns for e in parse_jsonl(text)] == [1, 2]
