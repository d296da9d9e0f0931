"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload corpus-cold|corpus-warm|validate \\
        --seed N --seconds S --trace 0|1

``--workload all`` runs the three workloads one after another, each in a
process of its own, and exits with the worst exit code.

With ``--trace 0`` the last line of stdout is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric of
a traced run, and the lines above it list each layer's self time.  The
metric definitions and the layer -> end-to-end mapping are in
``perfbench/README.md``.  The exit code is 0 when every output passed its
oracle and no operation failed, 1 otherwise, and 2 when the program's
sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("corpus-cold", "corpus-warm", "validate")

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "apps_per_s": "1/s",
    "batch_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metrics from span self times: metric -> span name
LAYER_SPANS = {
    "lang.parse_s": "lang.parse",
    "android.framework_s": "android.framework",
    "lowering.lower_s": "lowering.lower",
    "ir.verify_s": "ir.verify",
    "threadify.model_s": "threadify.model",
    "analysis.pointsto_s": "analysis.pointsto",
    "analysis.lockset_s": "analysis.lockset",
    "race.detect_s": "race.detect",
    "filters.filter_s": "filters.filter",
    "report.render_s": "report.render",
    "runner.run_s": "runner.run",
    "runner.cache.lookup_s": "runner.cache.lookup",
    "runner.cache.store_s": "runner.cache.store",
    "runner.decode_s": "runner.decode",
    "runtime.validate_s": "runtime.validate",
    "runtime.sim_build_s": "runtime.sim_build",
}
#: per-layer metrics summed by the workloads (``Layers.counts``)
LAYER_TOTALS = (
    "lang.tokens", "ir.instructions", "pointsto.worklist.popped",
    "datalog.passes", "datalog.derived_facts", "report.bytes",
    "runner.overhead_s", "runner.spawns", "runner.cache.hits",
    "runner.cache.misses", "runner.cache.stores", "runtime.sim_builds",
    "runtime.schedules_tried", "runtime.confirmed",
)
#: per-layer ratios: metric -> unit
LAYER_RATIOS = {
    "lang.tokens_per_s": "1/s",
    "runner.cache.hit_ratio": "ratio",
    "runtime.confirm_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}

#: per-layer metric -> unit; spans and totals are per app lane T submitted
PER_LAYER = {
    **{name: "s/app" for name in LAYER_SPANS},
    **{name: "s/app" if name.endswith("_s") else "count/app"
       for name in LAYER_TOTALS},
    **LAYER_RATIOS,
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(ctx, setup_s: float, peak_rss_mb: float) -> Dict[str, float]:
    samples = ctx.samples
    return {
        "setup_s": setup_s,
        "apps_per_s": _ratio(samples.apps, samples.seconds),
        "batch_p50_ms": 1000 * statistics.median(samples.batch_s),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(ctx) -> Dict[str, float]:
    layers = ctx.tracer.layers()
    counts = ctx.layers.counts
    apps = ctx.layers.apps
    out: Dict[str, float] = {}
    for metric, span in LAYER_SPANS.items():
        out[metric] = _ratio(layers[span].self_s if span in layers else 0.0,
                             apps)
    for metric in LAYER_TOTALS:
        out[metric] = _ratio(counts.get(metric, 0), apps)
    parse = layers.get("lang.parse")
    out["lang.tokens_per_s"] = _ratio(counts.get("lang.tokens", 0),
                                      parse.total_s if parse else 0.0)
    lookups = counts.get("runner.cache.hits", 0) + \
        counts.get("runner.cache.misses", 0)
    out["runner.cache.hit_ratio"] = _ratio(counts.get("runner.cache.hits", 0),
                                           lookups)
    out["runtime.confirm_ratio"] = _ratio(counts.get("runtime.confirmed", 0),
                                          counts.get("runtime.validated", 0))
    out["trace.overhead_frac"] = _ratio(
        ctx.layers.traced_s - ctx.layers.untraced_s, ctx.layers.untraced_s)
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest worker child,
    whichever is larger.  A forked worker's figure already counts the
    pages it shares with this process, so the two are not added."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure_setup(workload: str, workdir: Path, probes: int) -> float:
    """Median of ``probes`` fresh-interpreter set-ups."""
    times: List[float] = []
    for index in range(probes):
        scratch = workdir / f"probe-{index}"
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(scratch)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
        shutil.rmtree(scratch, ignore_errors=True)
    return statistics.median(times)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input size (tiny: the self-test's)")
    parser.add_argument("--input-log", type=Path,
                        help="write the digests of every source handed to "
                             "the program here (self-test)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return max(subprocess.run([
            sys.executable, __file__, "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale,
        ]).returncode for name in WORKLOAD_NAMES)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or \
            not (ROOT / "benchmarks" / "golden_report.json").is_file():
        print(f"perfbench: the program's sources (src/repro) and "
              f"benchmarks/golden_report.json must sit next to "
              f"{HERE.name}/; run from a full checkout", file=sys.stderr)
        return 2

    workdir = OUT / f"run-{os.getpid()}"
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    from perfbench.inputs import load_golden, SCALES
    from perfbench.tracing import Tracer
    from perfbench.workloads import Context, WORKLOADS

    scale = SCALES[args.scale]
    ctx = Context(seed=args.seed, seconds=args.seconds, scale=scale,
                  workdir=workdir, golden=load_golden(ROOT),
                  tracer=Tracer() if args.trace else None)
    WORKLOADS[args.workload](ctx)

    if args.trace:
        metrics = per_layer(ctx)
        units = PER_LAYER
        spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        ctx.tracer.write(spans)
    else:
        rss = peak_rss_mb()  # before the probes, which are children too
        metrics = end_to_end(
            ctx, measure_setup(args.workload, workdir, scale.setup_probes),
            rss)
        units = END_TO_END
    if args.input_log is not None:
        args.input_log.write_text(json.dumps(ctx.feed.to_dict()))

    tally = ctx.tally
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  " +
          "  ".join(f"{key} {value}" for key, value in ctx.info.items()))
    if args.trace:
        print(f"  spans: {len(ctx.tracer.spans)} written to "
              f"{spans.relative_to(ROOT)}")
        print(f"  {'layer':<24}{'calls':>8}{'total_s':>12}{'self_s':>12}")
        for name, layer in sorted(ctx.tracer.layers().items(),
                                  key=lambda kv: -kv[1].self_s):
            print(f"  {name:<24}{layer.calls:>8}{layer.total_s:>12.4f}"
                  f"{layer.self_s:>12.4f}")
    for name, value in metrics.items():
        print(f"  {name:<26}{value:>14.6g} {units[name]}")
    print(f"  {'failed_frac':<26}{_ratio(tally.failed, tally.attempted):>14.6g}"
          f" ({tally.failed}/{tally.attempted})")
    print(f"  {'wrong_frac':<26}{_ratio(tally.wrong, tally.checked):>14.6g}"
          f" ({tally.wrong}/{tally.checked})")
    for problem in tally.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)

    correct = tally.wrong == 0 and tally.checked > 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct and tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
