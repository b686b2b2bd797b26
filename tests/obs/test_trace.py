"""Span tracer: nesting, disabled no-op, threads, JSONL round-trip."""

import json
import threading

import pytest

from repro.obs import NULL_SPAN, NULL_TRACER, Tracer, load_trace


def test_span_records_duration_and_name():
    tracer = Tracer()
    with tracer.span("work", size=3):
        pass
    (event,) = tracer.events
    assert event["type"] == "span"
    assert event["name"] == "work"
    assert event["dur"] >= 0.0
    assert event["parent_id"] is None
    assert event["attrs"] == {"size": 3}


def test_span_ended_back_dates_a_root_span():
    import time

    tracer = Tracer()
    before = time.time()
    tracer.span_ended("cli.parse", 2.0)
    (event,) = tracer.events
    assert event["name"] == "cli.parse"
    assert event["parent_id"] is None
    assert 2.0 <= event["dur"] < 2.5
    assert event["ts"] <= before - 1.5
    disabled = Tracer(enabled=False)
    disabled.span_ended("cli.parse", 2.0)
    assert disabled.events == []


def test_span_nesting_records_parentage():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    inner_event, outer_event = tracer.events
    assert inner_event["name"] == "inner"
    assert inner_event["parent_id"] == outer.span_id
    assert outer_event["parent_id"] is None
    assert inner.span_id != outer.span_id


def test_sibling_spans_share_parent():
    tracer = Tracer()
    with tracer.span("root") as root:
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    a, b, _ = tracer.events
    assert a["parent_id"] == root.span_id
    assert b["parent_id"] == root.span_id


def test_span_set_attaches_attrs_mid_flight():
    tracer = Tracer()
    with tracer.span("work") as span:
        span.set(rows=10)
    (event,) = tracer.events
    assert event["attrs"] == {"rows": 10}


def test_span_records_exception_and_propagates():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("explodes"):
            raise ValueError("boom")
    (event,) = tracer.events
    assert event["error"] == "ValueError"


def test_point_event():
    tracer = Tracer()
    tracer.event("verdict", app="x", flagged=True)
    (event,) = tracer.events
    assert event["type"] == "event"
    assert event["attrs"] == {"app": "x", "flagged": True}
    assert "dur" not in event


def test_disabled_tracer_is_a_shared_noop():
    tracer = Tracer(enabled=False)
    span = tracer.span("anything", big=1)
    assert span is NULL_SPAN
    with span:
        pass
    tracer.event("anything")
    assert tracer.events == []
    assert NULL_TRACER.enabled is False


def test_threads_trace_independently():
    tracer = Tracer()

    def worker(name):
        with tracer.span(name):
            with tracer.span(f"{name}.child"):
                pass

    threads = [threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    events = tracer.events
    assert len(events) == 8
    roots = {e["name"]: e for e in events if e["parent_id"] is None}
    assert set(roots) == {"t0", "t1", "t2", "t3"}
    for e in events:
        if e["parent_id"] is not None:
            parent_name = e["name"].split(".")[0]
            assert e["parent_id"] == roots[parent_name]["span_id"]


def test_drain_and_absorb_merge_worker_buffers():
    parent, worker = Tracer(), Tracer()
    with worker.span("worker.work"):
        pass
    events = worker.drain()
    assert worker.events == []
    parent.absorb(events)
    assert [e["name"] for e in parent.events] == ["worker.work"]


def test_dump_and_load_roundtrip(tmp_path):
    tracer = Tracer()
    with tracer.span("a", k="v"):
        pass
    tracer.event("b")
    path = tmp_path / "trace.jsonl"
    assert tracer.dump(path) == 2
    assert load_trace(path) == tracer.events


def test_load_trace_skips_crash_truncated_tail(tmp_path):
    tracer = Tracer()
    with tracer.span("kept"):
        pass
    path = tmp_path / "trace.jsonl"
    tracer.dump(path)
    with open(path, "a") as handle:
        handle.write('{"type": "span", "name": "torn')  # crash mid-write
    events = load_trace(path)
    assert [e["name"] for e in events] == ["kept"]


def test_dumped_lines_are_independent_json(tmp_path):
    tracer = Tracer()
    for i in range(3):
        tracer.event("e", i=i)
    path = tmp_path / "trace.jsonl"
    tracer.dump(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        json.loads(line)


def test_dump_bytes_match_per_event_json_dumps(tmp_path):
    """One shared encoder writes what ``json.dumps(event, default=str)`` did."""
    tracer = Tracer()
    tracer.event("e", path=tmp_path, value=0.1, label="\u00e9")
    with tracer.span("s", n=3):
        pass
    path = tmp_path / "trace.jsonl"
    tracer.dump(path)
    want = "".join(json.dumps(event, default=str) + "\n" for event in tracer.events)
    assert path.read_text() == want


def test_dump_overwrites_by_default(tmp_path):
    path = tmp_path / "trace.jsonl"
    first = Tracer()
    first.event("old")
    first.dump(path)
    second = Tracer()
    second.event("new")
    assert second.dump(path) == 1
    (event,) = load_trace(path)
    assert event["name"] == "new"


class _Unprintable:
    """An attribute whose serialization fails partway through a dump."""

    def __str__(self) -> str:
        raise RuntimeError("serialization failed mid-dump")


def _old_trace(path):
    old = Tracer()
    old.event("old-1")
    old.event("old-2")
    old.dump(path)
    return path.read_text()


def test_dump_failing_partway_keeps_previous_trace(tmp_path):
    """A crash mid-dump must not destroy the trace already on disk."""
    path = tmp_path / "trace.jsonl"
    before = _old_trace(path)
    tracer = Tracer()
    tracer.event("new-1")
    tracer.event("new-2", payload=_Unprintable())
    with pytest.raises(RuntimeError, match="mid-dump"):
        tracer.dump(path)
    assert path.read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.jsonl"]


def test_dump_failing_at_fsync_keeps_previous_trace(tmp_path, monkeypatch):
    """The replace happens only after the new trace is durable."""
    path = tmp_path / "trace.jsonl"
    before = _old_trace(path)
    tracer = Tracer()
    tracer.event("new")

    def failing_fsync(fd):
        raise OSError("disk gone")

    monkeypatch.setattr("os.fsync", failing_fsync)
    with pytest.raises(OSError, match="disk gone"):
        tracer.dump(path)
    monkeypatch.undo()
    assert path.read_text() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.jsonl"]


def test_dump_append_accumulates_earlier_events(tmp_path):
    """The periodic-dump pattern: drain + append never loses history."""
    path = tmp_path / "trace.jsonl"
    tracer = Tracer()
    tracer.event("first")
    tracer.absorb(tracer.drain())  # no-op shuffle; events stay ordered
    tracer.dump(path, append=True)
    tracer.drain()
    tracer.event("second")
    assert tracer.dump(path, append=True) == 1  # returns THIS buffer's count
    names = [event["name"] for event in load_trace(path)]
    assert names == ["first", "second"]


def test_dump_append_to_missing_file_creates_it(tmp_path):
    path = tmp_path / "deep" / "trace.jsonl"
    tracer = Tracer()
    tracer.event("only")
    assert tracer.dump(path, append=True) == 1
    assert [e["name"] for e in load_trace(path)] == ["only"]


def test_event_accepts_explicit_shared_timestamp():
    """Callers fanning one observation out to several sinks pass one
    time.time() so every copy carries the identical timestamp."""
    tracer = Tracer()
    tracer.event("verdict", ts=123.25, host="h")
    (event,) = tracer.events
    assert event["ts"] == 123.25
    assert event["attrs"] == {"host": "h"}
    tracer.drain()
    tracer.event("verdict")  # default remains wall-clock
    (event,) = tracer.events
    assert event["ts"] > 1_000_000_000.0
