"""The structured event stream: ordered flushing, JSONL round-trips,
the summary digest, and the --progress renderer."""

import io
import itertools

import pytest

from repro.obs.events import (
    encode_event,
    EVENTS_SCHEMA,
    InputOrderSink,
    JsonlEventSink,
    percentile,
    ProgressSink,
    read_events,
    render_events_summary,
    RunEventLog,
    summarize_events,
)


class ListSink:
    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(record)


def _log(sink):
    """A bus feeding the ordered stage, with a fake clock so ``t`` is
    deterministic."""
    ticks = itertools.count()
    return RunEventLog([InputOrderSink([sink])],
                       clock=lambda: float(next(ticks)))


def _run_start(log, kind, names):
    log.publish("run-start", kind=kind, apps=len(names), names=names)


def _trace(sink):
    return [(r["event"], r.get("app")) for r in sink.records]


# -- ordered flushing ---------------------------------------------------------


def test_events_flush_in_input_order_despite_completion_order():
    """App b finishes first, but its block must wait for app a: the
    stream is identical to what a serial run would produce."""
    sink = ListSink()
    log = _log(sink)
    _run_start(log, "timing", ["a", "b", "c"])
    log.publish("app-start", app="b")
    log.publish("app-done", app="b", status="analyzed", duration_s=0.5)
    assert _trace(sink) == [("run-start", None)]  # a still open
    log.publish("app-start", app="a")
    log.publish("app-done", app="a", status="analyzed", duration_s=0.25)
    # a's close releases both a's and b's blocks, in input order
    assert _trace(sink) == [
        ("run-start", None),
        ("app-start", "a"), ("app-done", "a"),
        ("app-start", "b"), ("app-done", "b"),
    ]
    log.publish("cache-hit", app="c")
    log.publish("app-done", app="c", status="cached")
    log.publish("run-end", analyzed=2, cached=1, faulted=0, wall_seconds=1.0)
    assert _trace(sink)[-3:] == [
        ("cache-hit", "c"), ("app-done", "c"), ("run-end", None),
    ]


def test_timestamps_are_relative_and_schema_stamped():
    sink = ListSink()
    log = _log(sink)
    _run_start(log, "timing", ["a"])
    log.publish("app-done", app="a", status="analyzed", duration_s=1.0)
    assert all(r["schema"] == EVENTS_SCHEMA for r in sink.records)
    # the first event anchors t=0; later events carry the fake-clock delta
    assert sink.records[0]["t"] == 0.0
    assert all(r["t"] >= 0.0 for r in sink.records)


def test_events_for_unknown_apps_are_dropped():
    sink = ListSink()
    log = _log(sink)
    _run_start(log, "timing", ["a"])
    log.publish("app-start", app="ghost")
    log.publish("app-done", app="ghost", status="analyzed")
    log.publish("app-done", app="a", status="analyzed")
    assert [r.get("app") for r in sink.records[1:]] == ["a"]


def test_run_end_force_flushes_unclosed_apps():
    """A fail-fast abort leaves apps open; run_end still flushes their
    buffered prefix so the stream is a faithful record."""
    sink = ListSink()
    log = _log(sink)
    _run_start(log, "timing", ["a", "b"])
    log.publish("app-start", app="a")
    log.publish("app-start", app="b")
    log.publish("app-done", app="a", status="analyzed", duration_s=0.1)
    log.publish("run-end", analyzed=1, cached=0, faulted=0, wall_seconds=0.2)
    assert _trace(sink) == [
        ("run-start", None),
        ("app-start", "a"), ("app-done", "a"),
        ("app-start", "b"),        # buffered prefix, no app-done
        ("run-end", None),
    ]


def test_duplicate_app_done_is_ignored():
    sink = ListSink()
    log = _log(sink)
    _run_start(log, "timing", ["a"])
    log.publish("app-done", app="a", status="analyzed")
    log.publish("app-done", app="a", status="faulted")
    done = [r for r in sink.records if r["event"] == "app-done"]
    assert len(done) == 1 and done[0]["status"] == "analyzed"


# -- sinks --------------------------------------------------------------------


def test_jsonl_sink_roundtrips_through_read_events(tmp_path):
    path = tmp_path / "events.jsonl"
    sink = JsonlEventSink(str(path))
    log = _log(sink)
    _run_start(log, "timing", ["a"])
    log.publish("app-start", app="a")
    log.publish("app-done", app="a", status="analyzed", duration_s=0.125)
    log.publish("run-end", analyzed=1, cached=0, faulted=0, wall_seconds=0.5)
    log.close()
    records = read_events(str(path))
    assert [r["event"] for r in records] == [
        "run-start", "app-start", "app-done", "run-end",
    ]
    assert records[2] == {
        "schema": EVENTS_SCHEMA, "event": "app-done", "t": records[2]["t"],
        "app": "a", "status": "analyzed", "duration_s": 0.125,
    }
    # canonical lines: sorted keys, compact separators
    first_line = path.read_text().splitlines()[0]
    assert first_line == encode_event(records[0])


def test_read_events_rejects_bad_json_and_foreign_schemas(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"schema": 1, "event": "run-start", "t": 0.0}\n{oops\n')
    with pytest.raises(ValueError, match="line 2 is not valid JSON"):
        read_events(str(path))
    path.write_text('{"schema": 99, "event": "run-start", "t": 0.0}\n')
    with pytest.raises(ValueError, match="line 1 is not a nadroid event"):
        read_events(str(path))


def test_progress_sink_line_format():
    stream = io.StringIO()
    sink = ProgressSink(stream)
    sink.emit({"event": "run-start", "apps": 3})
    sink.emit({"event": "app-done", "status": "analyzed"})
    sink.emit({"event": "app-done", "status": "cached"})
    sink.emit({"event": "app-done", "status": "faulted"})
    assert stream.getvalue().splitlines() == [
        "[progress] 1/3 apps, 0 faults, 0 cache hits",
        "[progress] 2/3 apps, 0 faults, 1 cache hit",
        "[progress] 3/3 apps, 1 fault, 1 cache hit",
    ]


# -- summary ------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0.50) == 20.0
    assert percentile(values, 0.95) == 40.0
    assert percentile([7.0], 0.95) == 7.0


def test_summarize_events_builds_the_funnel():
    sink = ListSink()
    log = _log(sink)
    _run_start(log, "timing", ["a", "b", "c"])
    log.publish("app-start", app="a")
    log.publish("app-done", app="a", status="analyzed", duration_s=0.2)
    log.publish("cache-hit", app="b")
    log.publish("app-done", app="b", status="cached", duration_s=0.1)
    log.publish("app-start", app="c")
    log.publish("retry", app="c", kind="oom")
    log.publish("timeout", app="c", seconds=5.0)
    log.publish("fault", app="c", kind="timeout")
    log.publish("app-done", app="c", status="faulted")
    log.publish("run-end", analyzed=1, cached=1, faulted=1, wall_seconds=0.4)
    summary = summarize_events(sink.records)
    assert summary["runs"] == 1 and summary["apps"] == 3
    assert (summary["analyzed"], summary["cached"], summary["faulted"]) \
        == (1, 1, 1)
    assert summary["retries"] == 1 and summary["timeouts"] == 1
    assert summary["fault_kinds"] == {"timeout": 1}
    assert summary["latency"]["apps"] == 2
    assert summary["latency"]["p50_s"] == pytest.approx(0.1)
    assert summary["latency"]["max_s"] == pytest.approx(0.2)

    text = render_events_summary(summary)
    assert "1 run(s), 3 apps" in text
    assert "fault[timeout]: 1" in text
    assert "p50 100.0ms" in text


def test_render_summary_without_completed_apps():
    summary = summarize_events([
        {"schema": 1, "event": "run-start", "t": 0.0,
         "kind": "timing", "apps": 2},
    ])
    assert summary["latency"] is None
    assert "per-app latency: no completed apps" \
        in render_events_summary(summary)
