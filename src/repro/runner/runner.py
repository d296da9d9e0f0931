"""Parallel, cached corpus-analysis runner.

The corpus drivers (Table 1, Figure 5, Tables 2/3, the timing study) all
reduce to *one independent analysis per app* followed by aggregation, so
they share this runner: a fan-out over apps on long-lived forked workers
(the fault-isolating pool of :mod:`repro.resilience.pool`) with a
content-addressed on-disk result cache in front (see
:mod:`repro.runner.cache`).

Every task is the same chain: :func:`resolve_input` finds the app's
input (the call that also addresses its cache entry),
:func:`repro.core.analyze_app` lowers and analyzes it, and a per-kind
projection keeps what the driver aggregates.

Determinism contract: results are keyed and re-ordered by the input app
order and every payload is serialized in a canonical form (warnings sorted
by :func:`repro.runner.serialize.warning_sort_key`), so a ``--jobs 4`` run
is byte-identical to a serial run no matter which worker finishes first.
``tests/test_runner.py`` pins this property.

Observability: every task executes under a fresh :class:`repro.obs
.Recorder` whose snapshot (span tree rooted at ``app:<name>`` plus the
analysis counters) rides back across the process boundary -- and into the
cache, so cache hits replay the metrics recorded when the entry was
built.  The runner exposes them as :attr:`CorpusRunner.last_metrics`.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..android.manifest import Manifest
from ..core import AnalysisConfig, AnalysisResult, analyze_app
from ..corpus import app, AppSpec
from ..corpus.generator import (
    generate_app, generated_app_index, GeneratorConfig,
)
from ..corpus.injector import injected_source
from ..ir import Module
from ..obs import add as obs_add, merge_snapshots, MetricsSnapshot
from ..obs import Recorder, RunEventLog
from ..obs import span as obs_span, track_memory, use as obs_use
from ..resilience import (
    active_plan,
    checkpoint,
    Fault,
    FaultPolicy,
    Observer,
    run_tasks,
    task_scope,
)
from .cache import cache_key, ResultCache
from .serialize import (
    config_fingerprint, result_data_to_dict, result_to_data, row_to_dict,
)


@dataclass(frozen=True)
class AppInput:
    """One task's app as :func:`resolve_input` finds it: the sources the
    cache key addresses and the task lowers and analyzes."""

    module_name: str
    #: one source text, or ``(path, text)`` files
    sources: Union[str, Sequence[Tuple[str, str]]]
    #: builds the manifest from the lowered module (``None``: inferred)
    manifest_for: Optional[Callable[[Module], Optional[Manifest]]] = None
    #: the registry :class:`~repro.corpus.AppSpec` or the
    #: :class:`~repro.corpus.GeneratedApp` the input was resolved from
    origin: Any = None
    #: counters the input itself adds to the app's metrics snapshot
    counters: Tuple[Tuple[str, int], ...] = ()

    def key_text(self) -> str:
        """The source text whose content addresses the cache entry."""
        if isinstance(self.sources, str):
            return self.sources
        # Request-supplied files: the canonical concatenation of every
        # file's path and text, so any edit -- or a rename -- re-analyzes,
        # while the same app posted in a different batch (or by a
        # different client) still hits.
        return "\x00".join(f"{path}\n{text}" for path, text in self.sources)

    def analyze(self, config: Optional[AnalysisConfig]) -> AnalysisResult:
        for name, value in self.counters:
            obs_add(name, value)
        return analyze_app(self.sources, self.manifest_for, config,
                           self.module_name)


def corpus_input(spec: AppSpec) -> AppInput:
    """The input of a registry app."""
    return AppInput(spec.name, spec.source(), spec.manifest_for, spec)


def resolve_input(kind: str, app_name: str,
                  params: Dict[str, Any]) -> AppInput:
    """The one source resolver: the cache key and the task both call it."""
    if kind == "analyze":
        # the service path: sources arrive *in* the params
        # (``{"sources": {app: [[path, text], ...]}}``)
        return AppInput("app", [tuple(entry)
                                for entry in params["sources"][app_name]])
    if kind in ("generated", "gen-timing"):
        # Generated apps have no registry entry: regenerate the app from
        # the (config, index) coordinates carried in the params.
        gen = generate_app(GeneratorConfig.from_dict(params["generator"]),
                           generated_app_index(app_name))
        return AppInput(gen.name, gen.source, origin=gen,
                        counters=(("generator.labels", len(gen.labels)),))
    spec = app(app_name)
    if kind == "table2":
        # the injected variant keeps its app's manifest
        return AppInput(f"{app_name}-injected", injected_source(app_name),
                        spec.manifest_for, spec)
    return corpus_input(spec)


def _task(kind: str, project: Callable[..., Dict[str, Any]]):
    """The task of ``kind``: resolve the app's input, analyze it, and
    keep ``project(input, result, params)`` as the payload."""

    def task(app_name: str, params: Dict[str, Any]) -> Dict[str, Any]:
        app_input = resolve_input(kind, app_name, params)
        result = app_input.analyze(params.get("config"))
        return project(app_input, result, params)

    return task


def _table1_row(app_input: AppInput, result: AnalysisResult,
                params: Dict[str, Any]) -> Dict[str, Any]:
    from ..harness.table1 import build_row

    return row_to_dict(build_row(
        app_input.origin, result,
        validate=params.get("validate", True),
        random_attempts=params.get("random_attempts", 40),
    ))


def _figure5(app_input: AppInput, result: AnalysisResult,
             params: Dict[str, Any]) -> Dict[str, Any]:
    from ..harness.figure5 import figure5_app_data

    return figure5_app_data(result)


def _table2(app_input: AppInput, result: AnalysisResult,
            params: Dict[str, Any]) -> Dict[str, Any]:
    from ..harness.table2 import table2_app_data

    return table2_app_data(app_input.origin.name, result)


def _table3(app_input: AppInput, result: AnalysisResult,
            params: Dict[str, Any]) -> Dict[str, Any]:
    from ..harness.table3 import table3_app_data

    return table3_app_data(app_input.origin, result)


def _timings(app_input: AppInput, result: AnalysisResult,
             params: Dict[str, Any]) -> Dict[str, Any]:
    return {"timings": dict(result.timings)}


def _result_data(app_input: AppInput, result: AnalysisResult,
                 params: Dict[str, Any]) -> Dict[str, Any]:
    return result_data_to_dict(result_to_data(result))


def _job_result(app_input: AppInput, result: AnalysisResult,
                params: Dict[str, Any]) -> Dict[str, Any]:
    return {"result": _result_data(app_input, result, params)}


_TASKS = {
    kind: _task(kind, project)
    for kind, project in (
        ("table1", _table1_row),
        ("figure5", _figure5),
        ("table2", _table2),
        ("table3", _table3),
        ("timing", _timings),
        ("generated", _result_data),
        ("gen-timing", _timings),
        # one service/CLI analysis job unit (the ``repro serve`` daemon)
        ("analyze", _job_result),
    )
}

TASK_KINDS = tuple(sorted(_TASKS))


def execute_app_task_observed(kind: str, app_name: str,
                              params: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-process entry point: run one task under a fresh recorder.

    Returns an envelope ``{"data": <task payload>, "obs": <snapshot>}``.
    The span tree is rooted at ``app:<name>``, so a ``--trace`` render of
    a ``--jobs N`` run nests each worker's spans under its own app root
    instead of interleaving them.
    """
    recorder = Recorder()
    # opt-in tracemalloc gauges (mem.app.peak_kb and
    # mem.stage.<span>.peak_kb) ride the same snapshot
    memory = track_memory(recorder) if params.get("memory") else nullcontext()
    with task_scope(app_name), obs_use(recorder), memory:
        with obs_span(f"app:{app_name}", kind=kind):
            checkpoint("task")
            data = _TASKS[kind](app_name, params)
    return {"data": data, "obs": recorder.snapshot().to_dict()}


def _envelope_duration(envelope: Dict[str, Any]) -> Optional[float]:
    """The worker-measured wall time of an envelope's root app span."""
    try:
        spans = envelope["obs"]["spans"]
        duration = spans[0]["duration_s"]
    except (KeyError, IndexError, TypeError):
        return None
    return float(duration) if duration is not None else None


def _envelope_snapshot(envelope: Dict[str, Any]) -> Optional[MetricsSnapshot]:
    """The metrics snapshot an envelope carried back, if any."""
    obs = envelope.get("obs")
    if not isinstance(obs, dict):
        return None
    return MetricsSnapshot.from_dict(obs)


def _publisher(events: RunEventLog, policy: FaultPolicy) -> Observer:
    """The run's one pool observer: each pool callback becomes the
    records it stands for on the bus.  The runner also calls it with
    ``"cached"`` (payload the replayed envelope) for each cache hit."""

    def publish_done(name: str, status: str,
                     envelope: Optional[Dict[str, Any]] = None) -> None:
        fields: Dict[str, Any] = {}
        if envelope is not None:
            duration = _envelope_duration(envelope)
            if duration is not None:
                fields["duration_s"] = round(duration, 6)
            snapshot = _envelope_snapshot(envelope)
            if snapshot is not None:
                fields["obs"] = snapshot
        events.publish("app-done", app=name, status=status, **fields)

    def observe(event: str, name: str, payload: Any) -> None:
        if event == "start":
            events.publish("app-start", app=name)
        elif event == "retry":
            events.publish("retry", app=name, kind=payload.kind)
        elif event == "fault":
            if payload.kind == "timeout" and policy.timeout is not None:
                events.publish("timeout", app=name, seconds=policy.timeout)
            events.publish("fault", app=name, kind=payload.kind)
            publish_done(name, "faulted")
        elif event == "cached":
            events.publish("app-start", app=name)
            events.publish("cache-hit", app=name)
            publish_done(name, "cached", payload)
        elif event == "ok":
            publish_done(name, "analyzed", payload)

    return observe


@dataclass
class RunStats:
    """What one driver invocation actually did."""

    analyzed: int = 0
    cached: int = 0
    wall_seconds: float = 0.0
    jobs: int = 1
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    #: apps that ended in a fault (error envelope) instead of a result
    faulted: int = 0
    #: transient-fault re-submissions performed
    retries: int = 0
    #: faults that were per-app deadline expiries
    timeouts: int = 0
    #: cache entries quarantined as ``.json.corrupt`` during this run
    cache_corrupt: int = 0
    #: fault-kind histogram, e.g. ``{"parse": 1, "timeout": 1}``
    fault_kinds: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.analyzed + self.cached

    def to_snapshot(self) -> MetricsSnapshot:
        """The run's fan-out/cache behaviour as a metrics snapshot --
        the structured form behind every stderr summary and
        ``--metrics-out`` payload."""
        counters = {
            "runner.apps.analyzed": self.analyzed,
            "runner.apps.cached": self.cached,
            "runner.cache.hits": self.cache_hits,
            "runner.cache.misses": self.cache_misses,
            "runner.cache.stores": self.cache_stores,
        }
        # Fault-tolerance counters appear only on runs that needed them,
        # keeping fault-free metrics payloads byte-stable across versions.
        if self.faulted:
            counters["runner.apps.faulted"] = self.faulted
        if self.retries:
            counters["runner.retries"] = self.retries
        if self.timeouts:
            counters["runner.timeouts"] = self.timeouts
        if self.cache_corrupt:
            counters["runner.cache.corrupt"] = self.cache_corrupt
        for kind in sorted(self.fault_kinds):
            counters[f"runner.faults.{kind}"] = self.fault_kinds[kind]
        return MetricsSnapshot(
            counters=counters,
            gauges={
                "runner.jobs": float(self.jobs),
                "runner.wall_seconds": self.wall_seconds,
            },
        )

    def describe(self) -> str:
        from ..obs import describe_run

        return describe_run(self.to_snapshot())


@dataclass
class RunMetrics:
    """Observability bundle for one driver invocation."""

    #: fan-out and cache behaviour of the run itself
    run: MetricsSnapshot
    #: per-app analysis snapshots, in input-app order (cache hits replay
    #: the snapshot recorded when the entry was built)
    apps: Dict[str, MetricsSnapshot] = field(default_factory=dict)

    def totals(self) -> MetricsSnapshot:
        """Counters/gauges summed over every app in the run."""
        return merge_snapshots(self.apps.values())


class CorpusRunner:
    """Fan per-app analysis tasks out over processes, behind the cache.

    ``jobs <= 1`` runs in-process (no executor), which is also the
    fallback when only one app misses the cache.  ``cache=None`` disables
    caching entirely.

    ``policy`` governs fault tolerance (per-app timeout, transient
    retries, keep-going vs fail-fast); the default fails fast with a
    one-line :class:`~repro.resilience.FaultError`.  Apps that end in a
    fault under ``keep_going`` come back as ``{"error": {...}}``
    payloads -- drivers skip them -- and the normalized faults are
    exposed, in input-app order, as :attr:`last_faults`.

    ``events`` attaches a :class:`repro.obs.RunEventLog`, the run-event
    bus: the runner publishes each fact of a run to it once (run-start,
    per-app lifecycle with the app's metrics, run-end), and its sinks --
    the ordered ``--events-out``/``--progress`` stage, the live
    ``--serve-telemetry`` aggregator -- fold the records.  Sinks only
    observe: results, reports and bench counters are byte-identical with
    and without them.  ``memory=True`` turns on tracemalloc peak gauges
    in every worker; it joins the cache fingerprint, so instrumented and
    plain runs never share entries.
    """

    def __init__(self, jobs: int = 1,
                 cache: Optional[ResultCache] = None,
                 policy: Optional[FaultPolicy] = None,
                 events: Optional[RunEventLog] = None,
                 memory: bool = False) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.policy = policy or FaultPolicy()
        self.events = events
        self.memory = bool(memory)
        self.last_stats: Optional[RunStats] = None
        self.last_metrics: Optional[RunMetrics] = None
        self.last_faults: List[Fault] = []

    def announce_phase(self, phase: str) -> None:
        """Publish a driver ``phase`` record (the ``/progress`` phase)."""
        if self.events is not None:
            self.events.publish("phase", phase=phase)

    @staticmethod
    def _fingerprint(params: Dict[str, Any]) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "config": config_fingerprint(params.get("config"))
        }
        for name, value in params.items():
            # "sources" is content-addressed per app via resolve_input;
            # hashing the whole map here would key every entry on its
            # *batch* composition and defeat cross-request cache hits.
            if name not in ("config", "sources"):
                out[name] = value
        # An active fault-injection plan changes analysis outcomes, so
        # its digest joins the key: injected results can never poison --
        # or be satisfied by -- the regular cache.
        plan = active_plan()
        if plan is not None:
            out["fault_plan"] = plan.digest()
        return out

    def run(
        self,
        kind: str,
        app_names: Sequence[str],
        params: Optional[Dict[str, Any]] = None,
    ) -> Tuple[List[Dict[str, Any]], RunStats]:
        """Execute ``kind`` for every app; results follow the input order."""
        if kind not in _TASKS:
            raise ValueError(f"unknown task kind {kind!r}; "
                             f"expected one of {TASK_KINDS}")
        start = time.perf_counter()
        params = dict(params or {})
        if self.memory:
            # only set when on, so plain runs keep their cache keys
            params["memory"] = True
        fingerprint = self._fingerprint(params)
        cache_base = (
            (self.cache.hits, self.cache.misses, self.cache.stores,
             self.cache.corrupt)
            if self.cache is not None else (0, 0, 0, 0)
        )

        names = list(dict.fromkeys(app_names))
        events = self.events
        observer = None
        if events is not None:
            events.publish("run-start", kind=kind, apps=len(names),
                           names=names)
            observer = _publisher(events, self.policy)

        envelopes: Dict[str, Dict[str, Any]] = {}
        keys: Dict[str, str] = {}
        pending: List[str] = []
        for name in names:
            if self.cache is not None:
                key = cache_key(
                    kind, resolve_input(kind, name, params).key_text(),
                    fingerprint)
                keys[name] = key
                hit = self.cache.lookup(key)
                if hit is not None:
                    envelopes[name] = hit
                    if observer is not None:
                        observer("cached", name, hit)
                    continue
            pending.append(name)

        retries = 0
        faults: Dict[str, Fault] = {}
        if pending:
            outcome = run_tasks(kind, pending, params, self.jobs,
                                self.policy, observer)
            envelopes.update(outcome.envelopes)
            retries = outcome.retries
            faults = outcome.faults
            if self.cache is not None:
                for name in pending:
                    # Error envelopes are never cached: a transient
                    # fault must not replay from disk as a permanent one.
                    if name not in faults:
                        self.cache.store(keys[name], envelopes[name])

        stats = RunStats(
            analyzed=len(pending) - len(faults),
            cached=len(envelopes) - len(pending),
            wall_seconds=time.perf_counter() - start,
            jobs=self.jobs,
            faulted=len(faults),
            retries=retries,
        )
        for fault in faults.values():
            stats.fault_kinds[fault.kind] = \
                stats.fault_kinds.get(fault.kind, 0) + 1
        stats.timeouts = stats.fault_kinds.get("timeout", 0)
        if self.cache is not None:
            stats.cache_hits = self.cache.hits - cache_base[0]
            stats.cache_misses = self.cache.misses - cache_base[1]
            stats.cache_stores = self.cache.stores - cache_base[2]
            stats.cache_corrupt = self.cache.corrupt - cache_base[3]
        if events is not None:
            events.publish(
                "run-end",
                analyzed=stats.analyzed,
                cached=stats.cached,
                faulted=stats.faulted,
                wall_seconds=round(stats.wall_seconds, 6),
                obs=stats.to_snapshot(),
            )
        self.last_stats = stats
        self.last_faults = [faults[name] for name in app_names
                            if name in faults]
        self.last_metrics = RunMetrics(
            run=stats.to_snapshot(),
            apps={
                name: MetricsSnapshot.from_dict(envelopes[name]["obs"])
                for name in app_names
                if name in envelopes and "obs" in envelopes[name]
            },
        )
        return [
            envelopes[name]["data"] if "data" in envelopes[name]
            else {"error": envelopes[name]["error"]}
            for name in app_names
        ], stats
