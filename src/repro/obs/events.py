"""The run-event bus and the folds over it (``--events-out``,
``--progress``, live telemetry, ``events summarize``).

A corpus run reports what happened exactly one way: the runner (and a
driver announcing a phase) publishes one schema-versioned record per
fact to a :class:`RunEventLog`, the bus.  Every view of the run is a
sink folding those records::

    {"schema": 1, "event": "app-done", "t": 1.234567, "app": "...",
     "status": "analyzed", "duration_s": 0.021}

Event vocabulary (schema-stable -- new fields may be added, event names
and existing fields never change meaning):

``run-start``
    ``kind`` (task kind), ``apps`` (input app count).
``app-start`` / ``cache-hit`` / ``retry`` / ``timeout`` / ``fault``
    per-app lifecycle; ``fault`` carries ``kind`` (the fault taxonomy
    kind), ``timeout`` precedes its ``fault`` and carries ``seconds``.
``app-done``
    closes every app with ``status`` (``analyzed`` | ``cached`` |
    ``faulted``) and ``duration_s`` (the worker-measured analysis wall
    time, replayed from the cache envelope on hits; absent on faults).
``run-end``
    run totals: ``analyzed``, ``cached``, ``faulted``, ``wall_seconds``.
``phase``
    ``phase``: a driver names the stage it is entering (e.g.
    ``generated:200``); shown as the ``/progress`` phase.

``t`` is stamped by the bus when the record is *published*: seconds
since the bus's first record, so an app's ``app-start`` and
``app-done`` bracket its real analysis window.

In memory only, ``run-start`` also carries ``names`` (the de-duplicated
input app order) and ``app-done``/``run-end`` carry ``obs`` (the
counters and gauges the live aggregator merges).  The ordered stage
strips both (:data:`IN_MEMORY_FIELDS`), so stream artifacts never see
them.

**Determinism.**  :class:`InputOrderSink` is the ordered stage in front
of the artifact sinks (JSONL, ``--progress``, the ``--trace-out``
memory): it buffers records per app and releases whole-app blocks
strictly in input-app order.  A ``--jobs 4`` run therefore produces the
same record sequence as ``--jobs 1`` (only ``t``, ``duration_s`` and
``wall_seconds`` differ); a serial run streams fully live and a
parallel run streams its completed prefix.  File order is input-app
order, so ``t`` is not monotone across a parallel stream's lines.

:class:`Funnel` is the one fold that counts a run; :func:`summarize_events`,
:class:`ProgressSink` and the live aggregator all read from it.
"""

from __future__ import annotations

import json
import math
import time
from typing import Any, Dict, Iterable, List, Optional, TextIO

#: bump when an existing event or field changes meaning (never for
#: purely additive fields)
EVENTS_SCHEMA = 1

EVENT_TYPES = (
    "run-start", "app-start", "app-done", "cache-hit",
    "fault", "retry", "timeout", "run-end", "phase",
)

#: record fields that exist only on the bus; the ordered stage strips them
IN_MEMORY_FIELDS = ("names", "obs")


def encode_event(record: Dict[str, Any]) -> str:
    """One canonical JSONL line (sorted keys, no trailing newline)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class JsonlEventSink:
    """Append events to a file, one line each, flushed per event so the
    stream can be tailed while the run is still going."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[TextIO] = None

    def emit(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            self._handle = open(self.path, "w", encoding="utf-8")
        self._handle.write(encode_event(record) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class MemoryEventSink:
    """Retain the event records in memory, in emission order.

    Attached automatically when a driver needs the stream after the run
    without forcing a ``--events-out`` file -- e.g. ``--trace-out``
    turns the retained records into instant events on the Chrome trace
    timeline.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def emit(self, record: Dict[str, Any]) -> None:
        self.records.append(dict(record))


class ProgressSink:
    """The opt-in ``--progress`` stderr line, read off the run funnel.

    One line per closed app: ``[progress] 12/27 apps, 1 fault, 3 cache
    hits``.  Off by default so golden stderr expectations stay
    byte-identical.
    """

    def __init__(self, stream: TextIO) -> None:
        self._stream = stream
        self._funnel = Funnel()

    def emit(self, record: Dict[str, Any]) -> None:
        funnel = self._funnel
        funnel.fold(record)
        if record.get("event") == "app-done":
            faults = funnel.statuses["faulted"]
            hits = funnel.statuses["cached"]
            print(
                f"[progress] {funnel.done}/{funnel.apps} apps, "
                f"{faults} fault{'s' if faults != 1 else ''}, "
                f"{hits} cache hit{'s' if hits != 1 else ''}",
                file=self._stream, flush=True,
            )


def _close_all(sinks: Iterable[Any]) -> None:
    for sink in sinks:
        close = getattr(sink, "close", None)
        if close is not None:
            close()


class RunEventLog:
    """The run-event bus: stamps each published record and fans it out.

    :meth:`publish` is the only way a run reports a fact.  The bus adds
    ``schema`` and ``t`` (publish time) and hands the one record to every
    sink; sinks must not mutate it.  Sequential runs may share one bus
    (a driver that fans out twice appends two runs to the same stream;
    ``t`` keeps counting from the first record).
    """

    def __init__(self, sinks: Iterable[Any],
                 clock=time.monotonic) -> None:
        self.sinks = list(sinks)
        self._clock = clock
        self._t0: Optional[float] = None

    def publish(self, event: str, **fields: Any) -> None:
        now = self._clock()
        if self._t0 is None:
            self._t0 = now
        record = {"schema": EVENTS_SCHEMA, "event": event,
                  "t": round(now - self._t0, 6)}
        record.update(fields)
        for sink in self.sinks:
            sink.emit(record)

    def close(self) -> None:
        _close_all(self.sinks)


class InputOrderSink:
    """The ordered stage: re-emits a run's records in input-app order.

    Records naming an app are buffered per app and released as one block
    once that app -- and every app before it in ``run-start``'s
    ``names`` -- has its ``app-done``.  Records for unknown or already
    closed apps are dropped; records without an app pass straight
    through.  ``run-end`` first releases every buffered block (a
    fail-fast abort can leave apps open), so the stream stays a faithful
    prefix of the run.  :data:`IN_MEMORY_FIELDS` never reach the sinks.
    """

    def __init__(self, sinks: Iterable[Any]) -> None:
        self.sinks = list(sinks)
        self._names: List[str] = []
        self._buffers: Dict[str, List[Dict[str, Any]]] = {}
        self._final: set = set()
        self._next = 0

    def _forward(self, record: Dict[str, Any]) -> None:
        for sink in self.sinks:
            sink.emit(record)

    def _flush_ready(self) -> None:
        while self._next < len(self._names):
            name = self._names[self._next]
            if name not in self._final:
                break
            for record in self._buffers.pop(name, ()):
                self._forward(record)
            self._next += 1

    def emit(self, record: Dict[str, Any]) -> None:
        event = record.get("event")
        app = record.get("app")
        stored = {key: value for key, value in record.items()
                  if key not in IN_MEMORY_FIELDS}
        if event == "run-start":
            self._names = list(record.get("names", ()))
            self._buffers = {name: [] for name in self._names}
            self._final = set()
            self._next = 0
        elif app is not None:
            if app in self._buffers and app not in self._final:
                self._buffers[app].append(stored)
                if event == "app-done":
                    self._final.add(app)
                    self._flush_ready()
            return
        elif event == "run-end":
            self._final.update(self._names)
            self._flush_ready()
        self._forward(stored)

    def close(self) -> None:
        _close_all(self.sinks)


# -- reading ------------------------------------------------------------------


def read_events(path: str) -> List[Dict[str, Any]]:
    """Parse an events JSONL file; raises ValueError on malformed lines
    or on records without the expected schema stamp."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(
                    f"line {lineno} is not valid JSON: {exc}"
                ) from exc
            if not isinstance(record, dict) \
                    or record.get("schema") != EVENTS_SCHEMA:
                raise ValueError(
                    f"line {lineno} is not a nadroid event "
                    f"(expected schema {EVENTS_SCHEMA})"
                )
            records.append(record)
    return records


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile over a non-empty list (deterministic)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class Funnel:
    """The run funnel, folded one record at a time.

    Counts runs, input apps, closed apps by status, retries, timeouts and
    fault kinds, and keeps every reported ``duration_s`` for the latency
    quantiles.  Every run summary -- ``events summarize``, the
    ``[progress]`` line, ``/progress`` and the ``telemetry.*`` counters
    -- reads from this one fold.
    """

    def __init__(self) -> None:
        self.runs = 0
        self.apps = 0
        self.done = 0
        self.statuses: Dict[str, int] = {
            "analyzed": 0, "cached": 0, "faulted": 0,
        }
        self.retries = 0
        self.timeouts = 0
        self.fault_kinds: Dict[str, int] = {}
        self.durations: List[float] = []

    def fold(self, record: Dict[str, Any]) -> None:
        event = record.get("event")
        if event == "run-start":
            self.runs += 1
            self.apps += int(record.get("apps", 0))
        elif event == "retry":
            self.retries += 1
        elif event == "timeout":
            self.timeouts += 1
        elif event == "fault":
            kind = str(record.get("kind", "unknown"))
            self.fault_kinds[kind] = self.fault_kinds.get(kind, 0) + 1
        elif event == "app-done":
            self.done += 1
            status = str(record.get("status"))
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if record.get("duration_s") is not None:
                self.durations.append(float(record["duration_s"]))

    def latency(self) -> Optional[Dict[str, Any]]:
        """p50/p95/max over the reported durations (``None`` if none)."""
        if not self.durations:
            return None
        return {
            "apps": len(self.durations),
            "p50_s": percentile(self.durations, 0.50),
            "p95_s": percentile(self.durations, 0.95),
            "max_s": max(self.durations),
        }

    def summary(self) -> Dict[str, Any]:
        """The ``events summarize --json`` digest."""
        return {
            "runs": self.runs, "apps": self.apps,
            "analyzed": self.statuses["analyzed"],
            "cached": self.statuses["cached"],
            "faulted": self.statuses["faulted"],
            "retries": self.retries, "timeouts": self.timeouts,
            "fault_kinds": dict(self.fault_kinds),
            "latency": self.latency(),
        }


def summarize_events(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """The funnel and latency digest of one event stream."""
    funnel = Funnel()
    for record in records:
        funnel.fold(record)
    return funnel.summary()


def render_events_summary(summary: Dict[str, Any]) -> str:
    """Human rendering of :func:`summarize_events`."""
    lines = [
        f"{summary['runs']} run(s), {summary['apps']} apps",
        f"  analyzed : {summary['analyzed']}",
        f"  cached   : {summary['cached']}",
        f"  faulted  : {summary['faulted']}",
    ]
    if summary["retries"]:
        lines.append(f"  retries  : {summary['retries']}")
    if summary["timeouts"]:
        lines.append(f"  timeouts : {summary['timeouts']}")
    for kind in sorted(summary["fault_kinds"]):
        lines.append(f"  fault[{kind}]: {summary['fault_kinds'][kind]}")
    latency = summary["latency"]
    if latency:
        lines.append(
            f"per-app latency over {latency['apps']} apps: "
            f"p50 {latency['p50_s'] * 1000:.1f}ms  "
            f"p95 {latency['p95_s'] * 1000:.1f}ms  "
            f"max {latency['max_s'] * 1000:.1f}ms"
        )
    else:
        lines.append("per-app latency: no completed apps")
    return "\n".join(lines)
