"""The parallel pool's long-lived workers: one process per job slot per
run, replaced on death or timeout, all reaped when the run ends.

Forked workers inherit the monkeypatched task table, so a test task can
report the pid that ran it.
"""

import json
import multiprocessing
import os

import pytest

from repro.corpus import app
from repro.resilience import (
    FaultError,
    FaultPlan,
    FaultPolicy,
    FaultSpec,
    timeout_fault,
    worker_lost_fault,
)
from repro.resilience.faultinject import ENV_VAR
from repro.resilience.pool import run_parallel, run_tasks
from repro.runner import runner as runner_module

NAMES = ["a", "b", "c", "d", "e", "f", "g", "h"]


def _pid_task(name, params):
    return {"pid": os.getpid()}


def _pid_analyze_task(name, params):
    return {"pid": os.getpid(),
            **runner_module._task_analyze(name, params)}


@pytest.fixture(autouse=True)
def pid_tasks(monkeypatch):
    monkeypatch.setitem(runner_module._TASKS, "pid", _pid_task)
    monkeypatch.setitem(runner_module._TASKS, "pid-analyze",
                        _pid_analyze_task)


def plant(monkeypatch, action, app_name="c"):
    plan = FaultPlan(faults=(FaultSpec(app=app_name, stage="task",
                                       action=action),))
    monkeypatch.setenv(ENV_VAR, json.dumps(plan.to_dict()))


def pids(outcome, names):
    return [outcome.envelopes[name]["data"]["pid"] for name in names]


def test_workers_are_one_per_job_slot():
    started = []
    outcome = run_tasks(
        "pid", NAMES, {}, jobs=2,
        observer=lambda event, name, _: started.append(name)
        if event == "start" else None,
    )
    assert sorted(started) == NAMES  # "start" fires once per dispatch
    assert os.getpid() not in pids(outcome, NAMES)
    assert len(set(pids(outcome, NAMES))) <= 2
    assert multiprocessing.active_children() == []


def test_lost_worker_costs_one_app_and_is_replaced(monkeypatch):
    plant(monkeypatch, "kill")
    outcome = run_tasks("pid", NAMES, {}, jobs=2,
                        policy=FaultPolicy(max_retries=1, keep_going=True))
    assert outcome.retries == 1
    assert outcome.faults == {"c": worker_lost_fault("c")}
    later = NAMES[3:]
    assert all("data" in outcome.envelopes[name] for name in later)
    # the worker that died running "c" is gone; a replacement picked up
    # the queued apps
    assert set(pids(outcome, later)) - set(pids(outcome, ["a", "b"]))
    assert multiprocessing.active_children() == []


def test_watchdog_timeout_leaves_later_apps_analyzed(monkeypatch):
    plant(monkeypatch, "hang")
    outcome = run_tasks("pid", NAMES, {}, jobs=2,
                        policy=FaultPolicy(timeout=0.5, keep_going=True))
    assert outcome.faults == {"c": timeout_fault("c", 0.5)}
    assert all("data" in outcome.envelopes[name]
               for name in NAMES if name != "c")
    assert multiprocessing.active_children() == []


def test_fail_fast_reaps_every_worker(monkeypatch):
    plant(monkeypatch, "raise")
    with pytest.raises(FaultError, match="'c'"):
        run_tasks("pid", NAMES, {}, jobs=2)
    assert multiprocessing.active_children() == []


def test_interrupt_from_the_observer_reaps_every_worker():
    def observer(event, name, payload):
        if event == "ok" and name == "d":
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_tasks("pid", NAMES, {}, jobs=2, observer=observer)
    assert multiprocessing.active_children() == []


def test_repeat_analysis_in_one_worker_is_byte_identical():
    # One worker analyzes todolist, two other apps, then todolist again:
    # whatever state the first three tasks left behind must not change
    # the fourth's payload.
    sources = {
        name: [[f"{name}.mjava", app(name).source()]]
        for name in ("todolist", "clipstack", "swiftnotes")
    }
    sources["todolist-again"] = sources["todolist"]
    names = list(sources)
    outcome = run_parallel("pid-analyze", names, {"sources": sources},
                           jobs=1, policy=FaultPolicy())
    assert len(set(pids(outcome, names))) == 1

    def canonical(name):
        data = dict(outcome.envelopes[name]["data"])
        del data["pid"]
        data["result"] = dict(data["result"], timings={})
        return json.dumps(data, sort_keys=True)

    assert canonical("todolist") == canonical("todolist-again")
