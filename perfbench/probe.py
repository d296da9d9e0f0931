"""Set-up probe: import ``repro`` and make one warm-up call, in a fresh
interpreter, and print the seconds that took.

Usage: ``python3 perfbench/probe.py WORKLOAD SCRATCH_DIR``.  ``run.py``
runs it several times per benchmark run and reports the median as
``setup_s``.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(workload: str, scratch: Path) -> float:
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    from repro.corpus import app

    if workload == "validate":
        from repro.harness.table1 import analyze_corpus_app
        from repro.runtime import Simulator

        result = analyze_corpus_app(app("todolist"))
        Simulator(result.program.module, result.program.manifest)
    else:
        from repro.resilience import FaultPolicy
        from repro.runner import CorpusRunner, ResultCache
        from repro.service.jobs import AppSource, execute_job, JobSpec

        spec = app("todolist")
        runner = CorpusRunner(jobs=2, cache=ResultCache(scratch),
                              policy=FaultPolicy(keep_going=True))
        job = execute_job(JobSpec(apps=(AppSource(
            spec.name, ((spec.filename, spec.source()),)),)), runner)
        job.report_json()
    return time.perf_counter() - start


if __name__ == "__main__":
    print(repr(main(sys.argv[1], Path(sys.argv[2]))))
