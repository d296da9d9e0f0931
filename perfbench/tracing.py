"""The traced run's instruments, all outside ``src/``.

* :class:`Tracer` records one span per layer call -- name, start, end,
  parent and a trace id shared by every span of one app or batch -- keeps
  them in memory, writes them as JSON lines when the run ends, and
  derives each layer's self time.
* :class:`TimingCache` is a :class:`~repro.runner.ResultCache` that times
  the runner's cache reads and writes; the benchmark passes it in as
  ``cache=``.
* :func:`traced_analysis` rebuilds ``lower_sources`` and
  ``analyze_module`` from their public parts with a span around each
  layer.  The workloads assert that its report is byte-equal to the
  untraced path's, so both provably run the same program.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.lockset import LocksetAnalysis
from repro.analysis.pointsto import run_pointsto
from repro.android.framework import FRAMEWORK_CLASS_NAMES, install_framework
from repro.core import AnalysisConfig
from repro.filters.base import FilterContext
from repro.filters.pipeline import FilterPipeline
from repro.filters.sound import SOUND_FILTERS
from repro.filters.unsound import UNSOUND_FILTERS
from repro.ir import Module, verify_module
from repro.lang import parse_program, SourceError
from repro.lowering import Lowerer
from repro.race.detector import detect_uaf_warnings
from repro.runner import ResultCache
from repro.runner.serialize import ResultData, warning_sort_key
from repro.threadify.transform import threadify


@dataclass
class SpanRecord:
    name: str
    trace: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class LayerTime:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """In-memory span recorder for the benchmark's own layer boundaries."""

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, trace: Optional[str] = None) -> Iterator[SpanRecord]:
        parent = self._open[-1] if self._open else None
        if trace is None:
            trace = self.spans[parent].trace if parent is not None else ""
        record = SpanRecord(name, trace, parent, time.perf_counter())
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                self.spans[parent].children_s += record.duration

    def layers(self) -> Dict[str, LayerTime]:
        """Calls, total and self time per span name.  Self time is a span's
        duration minus the part of it its child spans cover."""
        out: Dict[str, LayerTime] = {}
        for record in self.spans:
            layer = out.setdefault(record.name, LayerTime())
            layer.calls += 1
            layer.total_s += record.duration
            layer.self_s += record.duration - record.children_s
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, record in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": record.name, "trace": record.trace,
                    "parent": record.parent, "start": record.start,
                    "end": record.end,
                }, separators=(",", ":")) + "\n")


class TimingCache(ResultCache):
    """A result cache whose reads and writes land as tracer spans.

    ``outcomes`` lists, per lookup, whether it hit; the runner looks up
    one key per distinct input app in input order, which is how the
    benchmark tells which apps of a batch were analyzed.
    """

    def __init__(self, root: Path, tracer: Tracer) -> None:
        super().__init__(root)
        self.tracer = tracer
        self.outcomes: List[bool] = []

    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        with self.tracer.span("runner.cache.lookup"):
            payload = super().lookup(key)
        self.outcomes.append(payload is not None)
        return payload

    def store(self, key: str, payload: Dict[str, Any]) -> None:
        with self.tracer.span("runner.cache.store"):
            super().store(key, payload)


@dataclass
class TracedAnalysis:
    """What :func:`traced_analysis` produced for one app."""

    data: ResultData
    #: the threadified program (the validator builds simulators from it)
    program: Any
    #: IR instructions of the lowered, verified module
    instructions: int


def traced_analysis(
    tracer: Tracer,
    files: Sequence[Tuple[str, str]],
    module_name: str,
    config: AnalysisConfig,
    manifest_for: Optional[Callable[[Module], Any]] = None,
) -> TracedAnalysis:
    """``lower_sources(..., seal=False)`` then ``analyze_module``, rebuilt
    from their public parts with one span per layer.

    Run it under an ``obs`` recorder to collect the program's own counters
    exactly as the worker path does.
    """
    module = Module(module_name)
    with tracer.span("android.framework"):
        install_framework(module)
    with tracer.span("lang.parse"):
        parsed = [(fname, parse_program(text, fname)) for fname, text in files]
    with tracer.span("lowering.lower"):
        lowerer = Lowerer(module)
        for fname, program in parsed:
            lowerer.filename = fname
            lowerer.declare_program(program)
        for fname, program in parsed:
            lowerer.filename = fname
            lowerer.lower_program(program)
    with tracer.span("ir.verify"):
        problems = verify_module(module, known_external=FRAMEWORK_CLASS_NAMES)
    if problems:
        raise SourceError("IR verification failed:\n  " + "\n  ".join(problems))
    instructions = sum(1 for _ in module.instructions())
    manifest = manifest_for(module) if manifest_for is not None else None

    with tracer.span("threadify.model"):
        program = threadify(module, manifest)
    with tracer.span("analysis.pointsto"):
        pointsto = run_pointsto(program.module, k=config.k)
    with tracer.span("analysis.lockset"):
        lockset = LocksetAnalysis(program.module, pointsto)
    with tracer.span("race.detect"):
        warnings = detect_uaf_warnings(program, pointsto, config.detector,
                                       lockset)
    with tracer.span("filters.filter"):
        ctx = FilterContext(program, pointsto, lockset, config.filters)
        unsound = () if config.filters.sound_only else UNSOUND_FILTERS
        report = FilterPipeline(ctx, SOUND_FILTERS, unsound).apply(
            warnings,
            with_individual_stats=config.collect_individual_filter_stats,
        )
    obs.add("funnel.potential", report.potential)
    obs.add("funnel.after_sound", report.after_sound)
    obs.add("funnel.remaining", report.after_unsound)

    data = ResultData(
        warnings=sorted(warnings, key=warning_sort_key),
        report=report,
        model_counts=program.forest.counts(),
    )
    return TracedAnalysis(data=data, program=program,
                          instructions=instructions)
