"""The run-event bus end to end: publish-time stamps, the jobs identity
of the ordered stream, agreement between every fold of one run, and
driver phases as records."""

import io
import json

import pytest

from repro.obs import (
    InputOrderSink,
    LiveAggregator,
    MemoryEventSink,
    ProgressSink,
    RunEventLog,
    summarize_events,
    trace_from_events,
)
from repro.obs.telemetry import telemetry_response
from repro.resilience import FaultPlan, FaultPolicy, FaultSpec
from repro.resilience.faultinject import ENV_VAR
from repro.runner import CorpusRunner, ResultCache

APPS = ["todolist", "clipstack", "swiftnotes", "photoaffix"]

#: fields that legitimately differ between two runs of the same input
VOLATILE = ("t", "duration_s", "wall_seconds")


def _ordered_run(runner_kwargs, runs=1):
    sink = MemoryEventSink()
    runner = CorpusRunner(events=RunEventLog([InputOrderSink([sink])]),
                          **runner_kwargs)
    for _ in range(runs):
        runner.run("timing", APPS, {})
    return sink.records


def test_app_records_are_stamped_when_published():
    """``app-start`` is stamped when the app is spawned, not when the
    ordered stage releases it: each analyzed app's start plus its
    worker-measured duration lands before its ``app-done``, and the
    real-time trace built from the stream ends with the run."""
    records = _ordered_run({"jobs": 2})
    starts = {r["app"]: r["t"] for r in records
              if r["event"] == "app-start"}
    done = [r for r in records if r["event"] == "app-done"]
    assert [r["status"] for r in done] == ["analyzed"] * len(APPS)
    for record in done:
        assert starts[record["app"]] + record["duration_s"] \
            <= record["t"] + 0.001, record["app"]
    trace = trace_from_events(records)["traceEvents"]
    run_end = next(e["ts"] for e in trace if e["name"] == "run-end")
    lanes = [e for e in trace if e["ph"] == "X"]
    assert len(lanes) == len(APPS)
    assert all(e["ts"] + e["dur"] <= run_end for e in lanes)


def test_warm_run_lanes_end_with_the_run(tmp_path):
    """A cache hit's ``duration_s`` is the replayed build time; its lane
    must still end at its ``app-done`` stamp, inside the warm run."""
    records = _ordered_run({"jobs": 2,
                            "cache": ResultCache(tmp_path / "cache")},
                           runs=2)
    second = max(i for i, r in enumerate(records)
                 if r["event"] == "run-start")
    warm = records[second:]
    assert {r["status"] for r in warm if r["event"] == "app-done"} \
        == {"cached"}
    trace = trace_from_events(warm)["traceEvents"]
    run_end = next(e["ts"] for e in trace if e["name"] == "run-end")
    lanes = [e for e in trace if e["ph"] == "X"]
    assert len(lanes) == len(APPS)
    assert all(e["ts"] + e["dur"] <= run_end for e in lanes)


@pytest.fixture()
def raise_env(monkeypatch):
    plan = FaultPlan(faults=(
        FaultSpec(app="clipstack", stage="detection", action="raise"),
    ))
    monkeypatch.setenv(ENV_VAR, json.dumps(plan.to_dict()))


def _strip(records):
    return [{key: value for key, value in record.items()
             if key not in VOLATILE} for record in records]


def test_jobs_4_stream_equals_jobs_1_stream(raise_env, tmp_path):
    """The documented identity: apart from ``t``, ``duration_s`` and
    ``wall_seconds``, a ``--jobs 4`` stream is the ``--jobs 1`` stream,
    faults and cache hits included."""
    policy = FaultPolicy(keep_going=True)
    streams = {
        jobs: _ordered_run({"jobs": jobs, "policy": policy,
                            "cache": ResultCache(tmp_path / str(jobs))},
                           runs=2)
        for jobs in (1, 4)
    }
    serial = _strip(streams[1])
    assert _strip(streams[4]) == serial
    events = [record["event"] for record in serial]
    assert "fault" in events and "cache-hit" in events
    # cold run then warm run: the faulted app re-runs (errors are never
    # cached) while the others replay
    assert [r["status"] for r in serial if r["event"] == "app-done"] == \
        ["analyzed", "faulted", "analyzed", "analyzed",
         "cached", "faulted", "cached", "cached"]


def test_every_fold_of_one_run_agrees(tmp_path):
    """The aggregator, the retained stream and the ``[progress]`` line
    fold the same records, so they report the same funnel."""
    aggregator = LiveAggregator()
    memory = MemoryEventSink()
    lines = io.StringIO()
    bus = RunEventLog([InputOrderSink([memory, ProgressSink(lines)]),
                       aggregator])
    runner = CorpusRunner(jobs=2, cache=ResultCache(tmp_path), events=bus)
    runner.run("timing", APPS[:3], {})
    runner.run("timing", APPS, {})

    summary = summarize_events(memory.records)
    progress = json.loads(telemetry_response(aggregator, "/progress")[2])
    apps = progress["apps"]
    assert (apps["total"], progress["runs"]) == \
        (summary["apps"], summary["runs"])
    assert {key: apps[key] for key in ("analyzed", "cached", "faulted")} \
        == {key: summary[key] for key in ("analyzed", "cached", "faulted")}
    assert progress["retries"] == summary["retries"]
    assert progress["latency"] == summary["latency"]
    assert (summary["analyzed"], summary["cached"]) == (4, 3)

    last = lines.getvalue().splitlines()[-1]
    assert last == (f"[progress] {apps['done']}/{summary['apps']} apps, "
                    f"{summary['faulted']} faults, "
                    f"{summary['cached']} cache hits")

    metrics = telemetry_response(aggregator, "/metrics")[2]
    # per-app analysis counters, summed over both runs' app-done records
    passes = sum(snapshot.counters["datalog.passes"]
                 for snapshot in runner.last_metrics.apps.values()) \
        + sum(snapshot.counters["datalog.passes"]
              for name, snapshot in runner.last_metrics.apps.items()
              if name in APPS[:3])
    assert f"nadroid_datalog_passes_total {passes}\n" in metrics
    assert "nadroid_runner_apps_analyzed_total 4\n" in metrics
    assert "nadroid_runner_cache_hits_total 3\n" in metrics


def test_driver_phase_is_a_record_on_the_bus():
    """A driver names its phase with one ``phase`` record: it leads the
    ordered stream and becomes the ``/progress`` phase."""
    from repro.corpus.generator import GeneratorConfig
    from repro.harness import run_generated

    aggregator = LiveAggregator()
    memory = MemoryEventSink()
    runner = CorpusRunner(
        events=RunEventLog([InputOrderSink([memory]), aggregator]))
    run_generated(runner, GeneratorConfig(seed=3, count=2))
    phases = [r for r in memory.records if r["event"] == "phase"]
    assert phases == [memory.records[0]]
    assert phases[0]["phase"] == "generated:2"
    assert aggregator.progress()["phase"] == "generated:2"
