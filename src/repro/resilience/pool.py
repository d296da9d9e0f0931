"""Fault-isolating task pool: long-lived forked workers, one per job slot.

The first runner pushed every pending app through one
``ProcessPoolExecutor`` and called ``future.result()`` bare -- a single
parse error, ``RecursionError`` or OOM-killed worker
(``BrokenProcessPool``) aborted the whole run and threw away every other
app's result.  This pool keeps per-app blast radius:

* each run forks at most ``jobs`` workers, once ``params`` is known, so
  sources reach them by fork and are never pickled; each worker loops
  over app names sent down its ``Pipe`` and exits when the run ends;
* a worker that dies mid-task (kill injection, OOM, segfault) surfaces
  as EOF on its pipe and loses exactly the app it was running, which
  classifies as :class:`WorkerLostFault`; a replacement is forked while
  work remains;
* a **watchdog** enforces the per-app deadline by ``terminate()``-ing
  the overrunning worker, recording a canonical
  :class:`~repro.resilience.errors.TimeoutFault` and forking a
  replacement;
* **transient** faults (worker lost) are re-submitted up to
  ``max_retries`` times; deterministic faults (parse/analysis crashes,
  timeouts) never are;
* under ``keep_going`` every fault becomes an error envelope
  ``{"error": {...}}`` and the remaining apps complete; otherwise the
  first final fault aborts the run with a one-line actionable
  :class:`~repro.resilience.errors.FaultError`, and every worker, idle
  or busy, is terminated and reaped.

The serial path (:func:`run_serial`) implements the same contract
in-process, with the cooperative deadline of
:mod:`repro.resilience.deadline` standing in for the watchdog, so
``--jobs 1`` and ``--jobs N`` produce byte-identical fault records.
Both run many apps in one process, so per-process tables (the intrinsic
table, sealed-module memos) warm up once per worker, not once per app.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Dict, List, Optional, Sequence

from .deadline import deadline_scope
from .errors import (
    Fault,
    fault_from_dict,
    fault_from_exception,
    FaultError,
    timeout_fault,
    worker_lost_fault,
)
from .faultinject import mark_worker_process


@dataclass(frozen=True)
class FaultPolicy:
    """How a corpus run treats app-level failures.

    The default matches the historical contract (fail fast, no deadline)
    except that failures now carry a one-line actionable message instead
    of an opaque pool traceback.
    """

    #: per-app deadline in seconds (``None`` = no deadline)
    timeout: Optional[float] = None
    #: re-submissions allowed for *transient* faults (worker lost)
    max_retries: int = 1
    #: record faults and keep running (True) or abort on the first (False)
    keep_going: bool = False


#: optional pool observer: called as ``observer(event, name, payload)``
#: with events ``"start"`` (first attempt dispatched, payload ``None``),
#: ``"retry"`` (transient fault re-submitted, payload the fault),
#: ``"fault"`` (final fault recorded under keep-going, payload the
#: fault) and ``"ok"`` (payload the success envelope).  Fail-fast
#: aborts raise :class:`FaultError` without a ``"fault"`` callback.
Observer = Callable[[str, str, Any], None]


@dataclass
class PoolOutcome:
    """What one batch of tasks actually did."""

    #: app name -> success envelope or ``{"error": fault_dict}``
    envelopes: Dict[str, Dict[str, Any]]
    #: app name -> final fault, for the apps that failed
    faults: Dict[str, Fault]
    #: transient re-submissions performed
    retries: int = 0


def _finalize(
    name: str,
    fault: Fault,
    attempt: int,
    policy: FaultPolicy,
    outcome: PoolOutcome,
    observer: Optional[Observer] = None,
) -> bool:
    """Apply the retry/keep-going policy to one fault.

    Returns True when the task should be re-submitted; raises
    :class:`FaultError` on fail-fast; otherwise records the error
    envelope.
    """
    if fault.transient and attempt <= policy.max_retries:
        outcome.retries += 1
        if observer is not None:
            observer("retry", name, fault)
        return True
    if not policy.keep_going:
        raise FaultError(fault)
    outcome.envelopes[name] = {"error": fault.to_dict()}
    outcome.faults[name] = fault
    if observer is not None:
        observer("fault", name, fault)
    return False


# -- serial path -------------------------------------------------------------


def run_serial(
    kind: str,
    names: Sequence[str],
    params: Dict[str, Any],
    policy: FaultPolicy,
    observer: Optional[Observer] = None,
) -> PoolOutcome:
    """The in-process twin of :func:`run_parallel` (``--jobs 1``)."""
    from ..runner.runner import execute_app_task_observed

    outcome = PoolOutcome(envelopes={}, faults={})
    for name in names:
        attempt = 1
        while True:
            if attempt == 1 and observer is not None:
                observer("start", name, None)
            try:
                with deadline_scope(policy.timeout):
                    envelope = execute_app_task_observed(kind, name, params)
            except Exception as exc:
                from . import current_stage

                fault = fault_from_exception(exc, name,
                                             stage=current_stage())
                if _finalize(name, fault, attempt, policy, outcome,
                             observer):
                    attempt += 1
                    continue
                break
            outcome.envelopes[name] = envelope
            if observer is not None:
                observer("ok", name, envelope)
            break
    return outcome


# -- parallel path -----------------------------------------------------------


def _worker_main(conn, kind: str, params: Dict[str, Any]) -> None:
    """Worker loop: receive an app name, run its task, send back
    ``("ok", envelope)`` or a pre-classified ``("error", fault_dict)``,
    and wait for the next name; ``None`` ends the loop.

    An injected ``kill`` (or a real OOM) exits without sending anything;
    the parent reads EOF and classifies the loss itself.
    """
    mark_worker_process()
    from ..runner.runner import execute_app_task_observed

    try:
        while True:
            name = conn.recv()
            if name is None:
                return
            try:
                envelope = execute_app_task_observed(kind, name, params)
                conn.send(("ok", envelope))
            except Exception as exc:
                from . import current_stage

                fault = fault_from_exception(exc, name,
                                             stage=current_stage())
                conn.send(("error", fault.to_dict()))
    except (KeyboardInterrupt, EOFError):
        # A terminal Ctrl-C delivers SIGINT to the whole process group,
        # so every worker gets one alongside the parent.  Exit quietly
        # -- the parent is aborting anyway and classifies the EOF as a
        # lost worker; re-raising would spray one multiprocessing
        # traceback per live worker over the user's terminal.  EOF
        # means the parent itself is gone.
        pass
    finally:
        conn.close()


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class _Worker:
    """One long-lived worker process and the task it is running."""

    __slots__ = ("proc", "conn", "name", "attempt", "deadline_at")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        #: the app in flight, ``None`` while idle
        self.name: Optional[str] = None
        self.attempt = 0
        #: when the app in flight overruns (set only under a timeout)
        self.deadline_at = 0.0

    def stop(self, terminate: bool) -> None:
        """Terminate the worker (busy, overrunning or aborted) or ask an
        idle one to exit, then reap it."""
        if terminate:
            self.proc.terminate()
        else:
            try:
                self.conn.send(None)
            except OSError:  # already dead; join reaps it
                pass
        self.conn.close()
        self.proc.join()


def run_parallel(
    kind: str,
    names: Sequence[str],
    params: Dict[str, Any],
    jobs: int,
    policy: FaultPolicy,
    observer: Optional[Observer] = None,
) -> PoolOutcome:
    """Run tasks on at most ``jobs`` long-lived forked workers."""
    ctx = _pool_context()
    outcome = PoolOutcome(envelopes={}, faults={})
    queue = deque((name, 1) for name in names)
    workers: List[_Worker] = []

    def fork() -> _Worker:
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main, args=(child_conn, kind, params)
        )
        proc.start()
        child_conn.close()
        workers.append(_Worker(proc, parent_conn))
        return workers[-1]

    def dispatch(worker: _Worker) -> None:
        name, attempt = queue.popleft()
        if attempt == 1 and observer is not None:
            observer("start", name, None)
        worker.name, worker.attempt = name, attempt
        if policy.timeout is not None:
            worker.deadline_at = time.monotonic() + policy.timeout
        try:
            worker.conn.send(name)
        except OSError:
            pass  # died while idle: the wait reads EOF, a lost worker

    def settle(name: str, fault: Fault, attempt: int) -> None:
        if _finalize(name, fault, attempt, policy, outcome, observer):
            queue.append((name, attempt + 1))

    def retire(worker: _Worker, fault: Fault) -> None:
        """Drop a lost or overrunning worker and settle its app; the
        loop forks a replacement while work remains."""
        workers.remove(worker)
        worker.stop(terminate=True)
        settle(worker.name, fault, worker.attempt)

    try:
        while True:
            for worker in workers:
                if worker.name is None and queue:
                    dispatch(worker)
            while queue and len(workers) < jobs:
                dispatch(fork())
            busy = {w.conn: w for w in workers if w.name is not None}
            if not busy:
                break
            wait_timeout = None
            if policy.timeout is not None:
                wait_timeout = max(0.0, min(
                    w.deadline_at for w in busy.values()
                ) - time.monotonic())
            for conn in connection_wait(list(busy), timeout=wait_timeout):
                worker = busy[conn]
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError):
                    retire(worker, worker_lost_fault(worker.name))
                    continue
                name, worker.name = worker.name, None
                if status == "ok":
                    outcome.envelopes[name] = payload
                    if observer is not None:
                        observer("ok", name, payload)
                else:
                    settle(name, fault_from_dict(payload), worker.attempt)
            if policy.timeout is not None:
                now = time.monotonic()
                for worker in [w for w in workers if w.name is not None
                               and now >= w.deadline_at]:
                    retire(worker, timeout_fault(worker.name,
                                                 policy.timeout))
    except BaseException:
        for worker in workers:
            worker.stop(terminate=True)
        raise
    for worker in workers:
        worker.stop(terminate=False)
    return outcome


def run_tasks(
    kind: str,
    names: Sequence[str],
    params: Dict[str, Any],
    jobs: int,
    policy: Optional[FaultPolicy] = None,
    observer: Optional[Observer] = None,
) -> PoolOutcome:
    """Execute tasks under ``policy``, parallel when ``jobs > 1`` and
    more than one task is pending."""
    policy = policy or FaultPolicy()
    if jobs > 1 and len(names) > 1:
        return run_parallel(kind, names, params, min(jobs, len(names)),
                            policy, observer)
    return run_serial(kind, names, params, policy, observer)
