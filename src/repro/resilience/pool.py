"""Fault-isolating task pool: one killable process per pending app.

The previous runner pushed every pending app through one
``ProcessPoolExecutor`` and called ``future.result()`` bare -- a single
parse error, ``RecursionError`` or OOM-killed worker
(``BrokenProcessPool``) aborted the whole run and threw away every other
app's result.  This pool restores per-app blast radius:

* each task runs in its **own** ``multiprocessing.Process`` (bounded to
  ``jobs`` concurrent), so a dying worker loses exactly one app;
* a **watchdog** enforces the per-app deadline by ``terminate()``-ing
  the overrunning process and recording a canonical
  :class:`~repro.resilience.errors.TimeoutFault`;
* **transient** faults (worker lost) are re-submitted up to
  ``max_retries`` times; deterministic faults (parse/analysis crashes,
  timeouts) never are;
* under ``keep_going`` every fault becomes an error envelope
  ``{"error": {...}}`` and the remaining apps complete; otherwise the
  first final fault aborts the run with a one-line actionable
  :class:`~repro.resilience.errors.FaultError`.

Results travel over a per-task ``Pipe``; a child that dies before
sending (kill injection, OOM, segfault) surfaces as EOF on that pipe and
classifies as :class:`WorkerLostFault`.  The serial path
(:func:`run_serial`) implements the same contract in-process, with the
cooperative deadline of :mod:`repro.resilience.deadline` standing in for
the watchdog, so ``--jobs 1`` and ``--jobs N`` produce byte-identical
fault records.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
#: with events ``"start"`` (first attempt spawned, payload ``None``),
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


def _child_main(conn, kind: str, name: str, params: Dict[str, Any]) -> None:
    """Worker entry point: run one task, send ``("ok", envelope)`` or a
    pre-classified ``("error", fault_dict)`` back over the pipe.

    An injected ``kill`` (or a real OOM) exits without sending anything;
    the parent reads EOF and classifies the loss itself.
    """
    mark_worker_process()
    from ..runner.runner import execute_app_task_observed

    try:
        envelope = execute_app_task_observed(kind, name, params)
        conn.send(("ok", envelope))
    except KeyboardInterrupt:
        # A terminal Ctrl-C delivers SIGINT to the whole process group,
        # so every worker gets one alongside the parent.  Exit quietly
        # -- the parent is aborting anyway and classifies the EOF as a
        # lost worker; re-raising would spray one multiprocessing
        # traceback per live worker over the user's terminal.
        pass
    except Exception as exc:
        from . import current_stage

        fault = fault_from_exception(exc, name, stage=current_stage())
        conn.send(("error", fault.to_dict()))
    finally:
        conn.close()


def _pool_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class _Active:
    """Bookkeeping for one running worker."""

    __slots__ = ("proc", "conn", "deadline_at", "attempt")

    def __init__(self, proc, conn, deadline_at: Optional[float],
                 attempt: int) -> None:
        self.proc = proc
        self.conn = conn
        self.deadline_at = deadline_at
        self.attempt = attempt

    def reap(self) -> None:
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
    """Fan tasks out, one killable process each, at most ``jobs`` live."""
    ctx = _pool_context()
    outcome = PoolOutcome(envelopes={}, faults={})
    queue = deque((name, 1) for name in names)
    active: Dict[str, _Active] = {}

    def spawn(name: str, attempt: int) -> None:
        if attempt == 1 and observer is not None:
            observer("start", name, None)
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_child_main, args=(child_conn, kind, name, params)
        )
        proc.start()
        child_conn.close()
        deadline_at = (
            time.monotonic() + policy.timeout
            if policy.timeout is not None else None
        )
        active[name] = _Active(proc, parent_conn, deadline_at, attempt)

    def abort_all() -> None:
        for entry in active.values():
            entry.proc.terminate()
            entry.reap()
        active.clear()

    def settle(name: str, fault: Fault, attempt: int) -> None:
        try:
            if _finalize(name, fault, attempt, policy, outcome, observer):
                queue.append((name, attempt + 1))
        except FaultError:
            abort_all()
            raise

    try:
        while queue or active:
            while queue and len(active) < jobs:
                spawn(*queue.popleft())
            by_conn = {entry.conn: name for name, entry in active.items()}
            wait_timeout = None
            now = time.monotonic()
            deadlines = [
                entry.deadline_at for entry in active.values()
                if entry.deadline_at is not None
            ]
            if deadlines:
                wait_timeout = max(0.0, min(deadlines) - now)
            ready = connection_wait(list(by_conn), timeout=wait_timeout)
            for conn in ready:
                name = by_conn[conn]
                entry = active.pop(name)
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError):
                    status, payload = "lost", None
                entry.reap()
                if status == "ok":
                    outcome.envelopes[name] = payload
                    if observer is not None:
                        observer("ok", name, payload)
                elif status == "error":
                    settle(name, fault_from_dict(payload), entry.attempt)
                else:
                    settle(name, worker_lost_fault(name), entry.attempt)
            now = time.monotonic()
            for name in list(active):
                entry = active[name]
                if entry.deadline_at is not None and now >= entry.deadline_at:
                    del active[name]
                    entry.proc.terminate()
                    entry.reap()
                    settle(name, timeout_fault(name, policy.timeout),
                           entry.attempt)
    except BaseException:
        abort_all()
        raise
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
