"""Simulator forks: the sealed program is shared, the run state is copied,
and validation verdicts stay pinned."""

import copy

import pytest

from repro.android.manifest import Manifest
from repro.corpus import app
from repro.harness.table1 import analyze_corpus_app
from repro.ir import Method, Module
from repro.lowering import compile_app
from repro.runtime import (
    FifoScheduler,
    IntrinsicTable,
    ScriptedScheduler,
    Simulator,
    validate_warning,
)
from repro.runtime.validator import _systematic_search
from repro.threadify import threadify

# onPause frees, onResume does not restore, the next click crashes
BACK_BUTTON_BUG = """
class F { void use() { } }
class A extends Activity {
  F f;
  void onCreate(Bundle b) { f = new F(); }
  void onClick(View v) { f.use(); }
  void onPause() { f = null; }
}
"""

CRASH_SCRIPT = ["A#onCreate", "A#onStart", "A#onResume", "A#onPause",
                "A#onResume", "A#onClick"]

ASYNC_TASK = """
class A extends Activity {
  static String log = "";
  void onCreate(Bundle b) { new T().execute(); }
}
class T extends AsyncTask {
  void onPreExecute() { A.log = A.log + "P"; }
  void doInBackground() { A.log = A.log + "B"; }
  void onPostExecute() { A.log = A.log + "E"; }
}
"""


def make_sim(source):
    program = threadify(compile_app(source, seal=False))
    return Simulator(program.module, program.manifest)


def run_until(sim, predicate, limit=500):
    scheduler = FifoScheduler()
    for _ in range(limit):
        if predicate(sim):
            return sim
        sim.apply(scheduler.choose(sim, sim.choices()))
    raise AssertionError("the run never reached the wanted state")


def frames(sim):
    return [frame for thread in sim.threads.values() for frame in thread.frames]


def snapshot(sim):
    return copy.deepcopy((
        sim.heap._fields, sim.heap._statics, sim.heap.monitors,
        sim.world.main_queue, sim.world.activity_state,
        sim.world.fire_counts, [str(e) for e in sim.exceptions],
        sim.trace, sim.hit_watchpoints, sim.total_steps,
        {tid: (len(t.frames), t.steps) for tid, t in sim.threads.items()},
    ))


def test_fork_shares_the_sealed_program():
    sim = run_until(make_sim(ASYNC_TASK), lambda s: len(frames(s)) >= 2)
    fork = copy.deepcopy(sim)
    assert fork.module is sim.module
    assert fork.manifest is sim.manifest
    assert fork.intrinsics is sim.intrinsics
    assert fork.interpreter.module is sim.module
    assert fork.interpreter.heap is fork.heap
    own = {id(method) for method in sim.module.methods()}
    for mine, theirs in zip(frames(fork), frames(sim)):
        assert mine is not theirs
        assert mine.method is theirs.method
        assert id(mine.method) in own


def test_fork_keeps_waiting_on_frame_identity():
    sim = run_until(make_sim(ASYNC_TASK), lambda s: any(
        t.waiting_on_frame is not None for t in s.threads.values()))
    fork = copy.deepcopy(sim)
    for tid, thread in fork.threads.items():
        if thread.waiting_on_frame is None:
            continue
        owner, frame = thread.waiting_on_frame
        assert any(frame is f for f in fork.threads[owner].frames)
        assert frame is not sim.threads[tid].waiting_on_frame[1]


def test_stepping_a_fork_leaves_the_parent_unchanged():
    sim = make_sim(BACK_BUTTON_BUG)
    before = snapshot(sim)
    fork = copy.deepcopy(sim)
    fork.watchpoints.add(0)
    fork.run(ScriptedScheduler(CRASH_SCRIPT), max_decisions=300)
    assert fork.trace and fork.total_steps > 0
    assert snapshot(sim) == before
    assert sim.watchpoints == set()
    assert fork.heap is not sim.heap and fork.world is not sim.world


def test_npe_raised_in_a_fork_lands_in_the_fork():
    sim = make_sim(BACK_BUTTON_BUG)
    fork = copy.deepcopy(sim)
    fork.run(ScriptedScheduler(CRASH_SCRIPT), max_decisions=300)
    assert fork.npe_events
    assert {e.method_qname for e in fork.npe_events} == {"A.onClick"}
    assert sim.exceptions == []
    # and a fork of the fork starts from its own record
    again = copy.deepcopy(fork)
    assert [str(e) for e in again.exceptions] == \
        [str(e) for e in fork.exceptions]
    assert again.exceptions is not fork.exceptions


def test_forks_never_copy_program_objects(monkeypatch):
    def refuse(self, memo):
        raise AssertionError(f"a fork deep-copied a {type(self).__name__}")

    for cls in (Module, Method, Manifest, IntrinsicTable):
        monkeypatch.setattr(cls, "__deepcopy__", refuse, raising=False)
    sim = make_sim(BACK_BUTTON_BUG)
    copy.deepcopy(sim)
    found, explored, _ = _systematic_search(sim, {"f"}, max_branches=10,
                                            max_decisions=400)
    assert explored > 0, "the search never forked"


def test_sealed_lookups_are_memoized():
    module = make_sim(BACK_BUTTON_BUG).module
    assert module.superclasses("A") is module.superclasses("A")
    resolved = module.resolve_method("A", "onClick")
    assert resolved is module.lookup_method("A", "onClick")
    assert module.resolve_method("A", "noSuchMethod") is None


def npe(where, uid, what):
    return (f"NullPointerException at {where} (uid {uid}, thread 0) "
            f"{what} on null")


CONSOLE_MENU = npe("ConsoleActivity.onCreateContextMenu", 342,
                   "call createPortForward")
LOOKUP_CLICK = npe("LookupActivity$2.onClick", 370, "call lookup")

# (field, use uid, free uid) -> (confirmed, schedules tried, exception),
# recorded at 40 random / 15 systematic / 800 decisions before forks
# shared the program
PINNED = {
    "connectbot": {
        ("bound", 341, 396): (True, 1, CONSOLE_MENU),
        ("bound", 344, 396): (True, 1, CONSOLE_MENU),
        ("emulation", 449, 402): (True, 2, npe(
            "ConsoleActivity.onOptionsItemSelected", 345,
            "call requestReconnect")),
        ("hostBridge", 428, 398): (True, 7, npe(
            "ConsoleActivity$1$1.run", 429, "call dispatchKey")),
        ("prompted", 366, 359): (False, 55, None),
        ("relay", 444, 400): (True, 1, CONSOLE_MENU),
        ("transport", 351, 379): (True, 16, npe(
            "ConsoleActivity.onKeyDown", 353, "call flush2")),
    },
    "aard": {
        ("debugProbe", 339, 343): (False, 55, None),
        ("dictionaryService", 369, 364): (True, 1, LOOKUP_CLICK),
        ("lookupResult", 379, 366): (True, 10, LOOKUP_CLICK),
        ("volumeMenu", 383, 390): (False, 55, None),
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_validation_verdicts_are_pinned(name):
    result = analyze_corpus_app(app(name))
    program = result.program

    def make():
        return Simulator(program.module, program.manifest)

    verdicts = {}
    for warning in result.remaining():
        verdict = validate_warning(make, warning, random_attempts=40,
                                   systematic_branches=15, max_decisions=800)
        key = (warning.fieldref.field_name, warning.use_uid, warning.free_uid)
        verdicts[key] = (verdict.confirmed, verdict.schedules_tried,
                         verdict.exception)
    assert verdicts == PINNED[name]
