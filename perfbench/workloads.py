"""The three workloads, each a closed loop driven by one client.

``corpus-cold``, ``corpus-warm``
    The registry apps plus a seeded generated corpus, submitted whole as
    one batch through ``execute_job`` on a ``CorpusRunner`` with
    ``jobs=2`` -- one ``CorpusRunner.run`` over the corpus, as the CI
    sweep does, on the path ``repro serve`` takes.  ``corpus-cold``
    resubmits the same corpus every pass, each time from an empty cache;
    ``corpus-warm`` primes the cache untimed, then resubmits the whole
    set each round after one app in twenty has been replaced by a fresh
    generated app.
``validate``
    Table 1 validation, serial and in-process: ``analyze_corpus_app`` and
    ``validate_warning`` (40 / 15 / 800) on every surviving warning of a
    fixed app set.  The seed only sets the order.  A pass over the set
    is one batch; a run measures whole passes, so every run validates
    the same warnings.

Untraced, a workload runs lane U only and yields the end-to-end samples.
Traced, lane T runs next to lane U on the same inputs (which one goes
first alternates): T repeats U's work with a span around every layer
call and must produce byte-identical reports.  The apps the runner
analyzed are also re-analyzed in-process, untraced by U (the worker
entry point) and traced by T (:func:`tracing.traced_analysis`), which is
where the frontend and analysis layers get their times.
"""

from __future__ import annotations

import random
import shutil
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.core import analyze_app, AnalysisConfig
from repro.harness.table1 import analyze_corpus_app
from repro.lang import tokenize
from repro.report import (
    build_app_report,
    build_report,
    fault_app_report,
    report_to_json,
)
from repro.resilience import FaultPolicy
from repro.runner import (
    CorpusRunner,
    result_data_from_dict,
    result_to_data,
    ResultCache,
)
from repro.runtime import Simulator, validate_warning
from repro.service.jobs import execute_job, JobSpec

from .inputs import (
    check_corpus_app,
    check_validated_app,
    CorpusInputs,
    Feed,
    Item,
    MAX_DECISIONS,
    RANDOM_ATTEMPTS,
    Scale,
    SYSTEMATIC_BRANCHES,
)
from .tracing import TimingCache, traced_analysis, Tracer

#: runner fan-out of the corpus workloads, fixed so every host does the
#: same work
JOBS = 2

#: apps of the untimed warm-up batch: enough misses to start the pool
WARM_UP_APPS = 2 * JOBS

#: counters the program already exports per app that the traced run sums
PROGRAM_COUNTERS = ("pointsto.worklist.popped", "datalog.passes",
                    "datalog.derived_facts")


@dataclass
class Tally:
    """Operations attempted/failed and outputs checked/wrong."""

    attempted: int = 0
    failed: int = 0
    checked: int = 0
    wrong: int = 0
    problems: List[str] = field(default_factory=list)

    def judge(self, problem: Optional[str]) -> None:
        self.checked += 1
        if problem is not None:
            self.wrong += 1
            self.problems.append(problem)

    def fault(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(what)


@dataclass
class Samples:
    """Untraced end-to-end samples of lane U."""

    seconds: float = 0.0
    apps: int = 0
    batch_s: List[float] = field(default_factory=list)


@dataclass
class Layers:
    """Traced-run totals behind the per-layer metrics."""

    apps: int = 0                 #: apps lane T submitted
    traced_s: float = 0.0         #: lane T wall time
    untraced_s: float = 0.0       #: lane U wall time for the same work
    counts: Dict[str, float] = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


@dataclass
class Context:
    seed: int
    seconds: float
    scale: Scale
    workdir: Path
    golden: Dict[str, Dict[str, int]]
    tracer: Optional[Tracer]
    feed: Feed = field(default_factory=Feed)
    tally: Tally = field(default_factory=Tally)
    samples: Samples = field(default_factory=Samples)
    layers: Layers = field(default_factory=Layers)
    info: Dict[str, str] = field(default_factory=dict)

    def spent(self) -> float:
        """Measured seconds so far (untraced: lane U; traced: both lanes)."""
        return (self.samples.seconds + self.layers.traced_s
                + self.layers.untraced_s)


# -- corpus workloads -----------------------------------------------------------


class Lane:
    """A ``CorpusRunner`` behind a cache directory of its own."""

    def __init__(self, root: Path,
                 make_cache: Callable[[Path], ResultCache]) -> None:
        self.root = root
        self.make_cache = make_cache
        self.runner = CorpusRunner(jobs=JOBS,
                                   policy=FaultPolicy(keep_going=True))

    def fresh_cache(self, copy_of: Optional["Lane"] = None) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        if copy_of is not None:
            shutil.copytree(copy_of.root, self.root)
        self.runner.cache = self.make_cache(self.root)


def _params(spec: JobSpec) -> Dict:
    """The runner params ``execute_job`` builds for a spec."""
    return {
        "config": spec.config(),
        "sources": {app.name: [list(pair) for pair in app.files]
                    for app in spec.apps},
    }


def _submit(lane: Lane, spec: JobSpec) -> Tuple[float, object, str]:
    """Lane U: one batch through the service's job path, untraced."""
    start = time.perf_counter()
    job = execute_job(spec, lane.runner)
    text = job.report_json()
    return time.perf_counter() - start, job.report, text


def _submit_traced(ctx: Context, lane: Lane, spec: JobSpec,
                   trace: str) -> Tuple[float, str, List[str]]:
    """Lane T: ``execute_job`` rebuilt from its public parts, with spans.

    Returns the batch's wall time, its report text and the apps the
    runner analyzed (cache misses).
    """
    tracer, layers = ctx.tracer, ctx.layers
    cache = lane.runner.cache
    cache.outcomes.clear()
    names = [app.name for app in spec.apps]
    with tracer.span("batch", trace) as batch:
        with tracer.span("runner.run") as run:
            payloads, stats = lane.runner.run("analyze", names, _params(spec))
        metrics = lane.runner.last_metrics
        app_reports = []
        for app, payload in zip(spec.apps, payloads):
            if "error" in payload:
                app_reports.append(fault_app_report(payload["error"]))
                continue
            with tracer.span("runner.decode"):
                result = result_data_from_dict(payload["result"])
            with tracer.span("report.render"):
                app_reports.append(build_app_report(
                    app.name, result, source=app.files[0][0],
                    metrics=metrics.apps.get(app.name),
                ))
        with tracer.span("report.render"):
            text = report_to_json(build_report(app_reports))
    misses = [name for name, hit in zip(names, cache.outcomes) if not hit]

    run_counters = metrics.run.counters
    for name in ("runner.cache.hits", "runner.cache.misses",
                 "runner.cache.stores"):
        layers.add(name, run_counters.get(name, 0))
    parallel = JOBS > 1 and len(misses) > 1
    if parallel:
        layers.add("runner.spawns", len(misses) + stats.retries)
    busy = 0.0
    for name in misses:
        snapshot = metrics.apps.get(name)
        if snapshot is None:
            continue
        for counter in PROGRAM_COUNTERS:
            layers.add(counter, snapshot.counters.get(counter, 0))
        busy += snapshot.total_span_seconds()
    layers.add("runner.overhead_s",
               run.duration - busy / (JOBS if parallel else 1))
    layers.add("report.bytes", len(text.encode("utf-8")))
    return batch.duration, text, misses


def _attribute(ctx: Context, spec: JobSpec, misses: Sequence[str],
               expected, trace: str) -> None:
    """Re-analyze the runner's misses in-process: untraced as the worker
    task does (lane U's twin), traced layer by layer (lane T).
    Lane T's per-app report must equal lane U's byte for byte."""
    tracer, layers = ctx.tracer, ctx.layers
    params = _params(spec)
    files = dict(params["sources"])
    config = params["config"]
    for name in misses:
        path, text = files[name][0]
        start = time.perf_counter()
        with obs.use(obs.Recorder()):  # what the worker runs for a task
            analyze_app([(path, text)], config=config)
        layers.untraced_s += time.perf_counter() - start

        recorder = obs.Recorder()
        with tracer.span("app", f"{trace}:{name}") as root:
            with obs.use(recorder):
                analysis = traced_analysis(tracer, [(path, text)], "app",
                                           config)
        layers.traced_s += root.duration
        mine = report_to_json(build_report([build_app_report(
            name, analysis.data, source=path, metrics=recorder.snapshot(),
        )]))
        theirs = report_to_json(build_report([expected.apps[name]]))
        ctx.tally.judge(None if mine == theirs else
                        f"{name}: traced in-process report differs from "
                        f"the untraced runner report")
        layers.add("lang.tokens", len(tokenize(text, path)))
        layers.add("ir.instructions", analysis.instructions)


def _judge_batch(ctx: Context, batch: Sequence[Item], report) -> None:
    """Check every app of a batch against its oracle."""
    for item in batch:
        app_report = report.apps.get(item.name)
        if app_report is None:
            ctx.tally.judge(f"{item.name}: missing from the report")
            continue
        if app_report.fault is not None:
            ctx.tally.fault(f"{item.name}: {app_report.fault}")
        ctx.tally.judge(check_corpus_app(item, app_report))


class CorpusBench:
    """Lane U (always) and lane T (traced runs) over one corpus."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.inputs = CorpusInputs.build(ctx.seed, ctx.scale, ctx.golden)
        self.u = Lane(ctx.workdir / "cache-u", ResultCache)
        self.t = (Lane(ctx.workdir / "cache-t",
                       lambda root: TimingCache(root, ctx.tracer))
                  if ctx.tracer is not None else None)
        self.steps = 0
        registry = sum(1 for item in self.inputs.items
                       if item.golden is not None)
        ctx.info.update(
            apps=f"{len(self.inputs.items)} ({registry} registry + "
                 f"{len(self.inputs.items) - registry} generated)",
            batch=str(len(self.inputs.items)), jobs=str(JOBS),
            loop="closed, 1 client",
        )

    def fresh_caches(self) -> None:
        self.u.fresh_cache()
        if self.t is not None:
            self.t.fresh_cache()

    def warm_up(self) -> None:
        """One small untimed batch, so lazy imports and first-touch costs
        of this process land before timing starts."""
        self.u.fresh_cache()
        batch = self.inputs.items[:WARM_UP_APPS]
        _, report, _ = _submit(self.u, self.ctx.feed.job_spec(batch))
        _judge_batch(self.ctx, batch, report)

    def prime(self) -> None:
        """Fill lane U's cache with the whole set, untimed (outputs are
        still checked); lane T starts from a copy of it."""
        self.u.fresh_cache()
        batch = self.inputs.items
        _, report, _ = _submit(self.u, self.ctx.feed.job_spec(batch))
        _judge_batch(self.ctx, batch, report)
        if self.t is not None:
            self.t.fresh_cache(copy_of=self.u)

    def step(self) -> None:
        """Submit the whole set as one batch on every lane and check what
        came back."""
        ctx = self.ctx
        self.steps += 1
        trace = f"b{self.steps}"
        batch = list(self.inputs.items)
        spec = ctx.feed.job_spec(batch)
        try:
            if self.t is None:
                seconds, report, text = _submit(self.u, spec)
            elif self.steps % 2:
                seconds, report, text = _submit(self.u, spec)
                t_seconds, t_text, misses = _submit_traced(ctx, self.t, spec,
                                                           trace)
            else:
                t_seconds, t_text, misses = _submit_traced(ctx, self.t, spec,
                                                           trace)
                seconds, report, text = _submit(self.u, spec)
        except Exception:  # a batch that raises is a failed operation
            ctx.tally.fault(f"batch {trace}: {traceback.format_exc()}",
                            len(batch))
            return
        ctx.tally.attempted += len(batch)
        _judge_batch(ctx, batch, report)
        if self.t is None:
            samples = ctx.samples
            samples.seconds += seconds
            samples.apps += len(batch)
            samples.batch_s.append(seconds)
            return
        ctx.tally.attempted += len(batch)
        ctx.tally.judge(None if t_text == text else
                        f"batch {trace}: traced report differs from the "
                        f"untraced report")
        ctx.layers.apps += len(batch)
        ctx.layers.traced_s += t_seconds
        ctx.layers.untraced_s += seconds
        try:
            _attribute(ctx, spec, misses, report, trace)
        except Exception:
            ctx.tally.fault(f"batch {trace}: in-process re-analysis: "
                            f"{traceback.format_exc()}", len(misses))

    def done(self) -> None:
        """Tell the feed how far the run went into the generator streams."""
        self.ctx.feed.generated = self.inputs.next_index
        self.ctx.feed.edits = self.inputs.next_edit


def corpus_cold(ctx: Context) -> None:
    bench = CorpusBench(ctx)
    bench.warm_up()
    passes = 0
    while ctx.spent() < ctx.seconds:
        passes += 1
        bench.fresh_caches()
        bench.step()
    bench.done()
    ctx.info["passes"] = str(passes)


def corpus_warm(ctx: Context) -> None:
    bench = CorpusBench(ctx)
    bench.prime()
    rounds = 0
    while ctx.spent() < ctx.seconds:
        rounds += 1
        bench.inputs.edit()
        bench.step()
    bench.done()
    ctx.info["edits"] = f"{bench.inputs.next_edit} apps over {rounds} rounds"


# -- validate -------------------------------------------------------------------


@dataclass
class Validated:
    """One app through the Table 1 path: analysis, then every surviving
    warning validated."""

    confirmed: Set[str] = field(default_factory=set)
    #: schedules tried per warning
    tried: List[int] = field(default_factory=list)
    #: warnings whose validation manifested the use-after-free
    confirmed_warnings: int = 0
    #: the app's report (built only when a traced run compares lanes)
    text: str = ""
    seconds: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)
    surviving: Set[str] = field(default_factory=set)


def _validate_all(run: Validated, make_sim, warnings, span) -> None:
    for warning in warnings:
        with span():
            verdict = validate_warning(
                make_sim, warning, random_attempts=RANDOM_ATTEMPTS,
                systematic_branches=SYSTEMATIC_BRANCHES,
                max_decisions=MAX_DECISIONS,
            )
        run.tried.append(verdict.schedules_tried)
        if verdict.confirmed:
            run.confirmed_warnings += 1
            run.confirmed.add(warning.fieldref.field_name)


def _validate_untraced(ctx: Context, spec) -> Validated:
    """Lane U: the Table 1 path for one app."""
    run = Validated()
    start = time.perf_counter()
    recorder = obs.Recorder()
    with obs.use(recorder):
        result = analyze_corpus_app(spec)
    program = result.program

    def make_sim():
        return Simulator(program.module, program.manifest)

    _validate_all(run, make_sim, result.remaining(), nullcontext)
    run.seconds = time.perf_counter() - start
    run.counts = dict(result.counts())
    run.surviving = {w.fieldref.field_name for w in result.remaining()}
    if ctx.tracer is not None:
        run.text = report_to_json(build_report([build_app_report(
            spec.name, result_to_data(result), source=spec.filename,
            metrics=recorder.snapshot(),
        )]))
    return run


def _validate_traced(ctx: Context, spec, trace: str) -> Validated:
    """Lane T: the same app, rebuilt layer by layer with spans."""
    tracer, layers = ctx.tracer, ctx.layers
    run = Validated()
    recorder = obs.Recorder()
    with tracer.span("app", trace) as root:
        with obs.use(recorder):
            analysis = traced_analysis(
                tracer, [("<source>", spec.source())], spec.name,
                AnalysisConfig(), spec.manifest_for,
            )
        program = analysis.program

        def make_sim():
            layers.add("runtime.sim_builds", 1)
            with tracer.span("runtime.sim_build"):
                return Simulator(program.module, program.manifest)

        _validate_all(run, make_sim, analysis.data.remaining(),
                      lambda: tracer.span("runtime.validate"))
    layers.traced_s += root.duration
    layers.add("runtime.validated", len(run.tried))
    layers.add("runtime.schedules_tried", sum(run.tried))
    layers.add("runtime.confirmed", run.confirmed_warnings)
    snapshot = recorder.snapshot()
    for counter in PROGRAM_COUNTERS:
        layers.add(counter, snapshot.counters.get(counter, 0))
    layers.add("lang.tokens", len(tokenize(spec.source())))
    layers.add("ir.instructions", analysis.instructions)
    run.text = report_to_json(build_report([build_app_report(
        spec.name, analysis.data, source=spec.filename, metrics=snapshot,
    )]))
    layers.add("report.bytes", len(run.text.encode("utf-8")))
    return run


def validate(ctx: Context) -> None:
    names = list(ctx.scale.validate_apps)
    random.Random(ctx.seed).shuffle(names)
    ctx.info.update(apps=f"{len(names)} Table 1 apps",
                    params=f"{RANDOM_ATTEMPTS}/{SYSTEMATIC_BRANCHES}/"
                           f"{MAX_DECISIONS}",
                    loop="closed, 1 client, serial in-process")
    with obs.use(obs.Recorder()):  # untimed warm-up of this process
        analyze_corpus_app(ctx.feed.registry_app(names[0]))
    passes = 0
    # Whole passes only, so every run validates the same warnings.
    while ctx.spent() < ctx.seconds:
        passes += 1
        pass_s = 0.0
        for index, name in enumerate(names):
            spec = ctx.feed.registry_app(name)
            traced = None
            try:
                if ctx.tracer is None:
                    plain = _validate_untraced(ctx, spec)
                elif index % 2:
                    traced = _validate_traced(ctx, spec, f"p{passes}:{name}")
                    plain = _validate_untraced(ctx, spec)
                else:
                    plain = _validate_untraced(ctx, spec)
                    traced = _validate_traced(ctx, spec, f"p{passes}:{name}")
            except Exception:  # an app that raises is a failed operation
                ctx.tally.fault(f"{name}: {traceback.format_exc()}")
                continue
            ctx.tally.attempted += 1 + len(plain.tried)
            ctx.tally.judge(check_validated_app(
                spec, ctx.golden[name], plain.counts, plain.surviving,
                plain.confirmed))
            if traced is None:
                samples = ctx.samples
                samples.seconds += plain.seconds
                samples.apps += 1
                pass_s += plain.seconds
                continue
            ctx.tally.attempted += 1 + len(traced.tried)
            ctx.tally.judge(
                None if (traced.text, traced.confirmed, sorted(traced.tried))
                == (plain.text, plain.confirmed, sorted(plain.tried))
                else f"{name}: traced run disagrees with the untraced run")
            ctx.layers.apps += 1
            ctx.layers.untraced_s += plain.seconds
        if ctx.tracer is None:
            ctx.samples.batch_s.append(pass_s)
    ctx.info["passes"] = str(passes)


WORKLOADS: Dict[str, Callable[[Context], None]] = {
    "corpus-cold": corpus_cold,
    "corpus-warm": corpus_warm,
    "validate": validate,
}
