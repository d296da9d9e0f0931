"""Fast self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload at the tiny scale with two seeds, untraced, and once
traced, and checks that

* both seeds report the same metric names and units, and exactly the
  ones ``BENCHMARK.json`` declares;
* every output passed its oracle and no operation failed
  (``wrong_frac`` and ``failed_frac`` are 0);
* the program received only source text: every source the benchmark
  handed over is a registry app's or one the seeded generator produces,
  and ``validate`` only named apps of its fixed set.

Exits 0 when all checks hold, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

SEEDS = (3, 4)


def run(workload: str, seed: int, trace: int, log: Path) -> Tuple[int, Dict]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny", "--input-log", str(log)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


class Expected:
    """Digests of the source texts a tiny corpus run may hand over: the
    registry apps of the tiny scale, and the apps of the seed's corpus and
    edit generator streams up to where the run says it went.  Each
    stream is generated once per seed and extended only when a later run
    went further."""

    def __init__(self) -> None:
        from repro.corpus import app
        from perfbench.inputs import SCALES, source_digest

        self.registry = {source_digest(app(name).source())
                         for name in SCALES["tiny"].registry}
        self.streams: Dict[int, List[str]] = {}

    def _stream(self, seed: int, count: int) -> List[str]:
        from repro.corpus.generator import generate_app
        from perfbench.inputs import generator_config, source_digest

        made = self.streams.setdefault(seed, [])
        config = generator_config(seed, 0)
        made.extend(source_digest(generate_app(config, index).source)
                    for index in range(len(made), count))
        return made[:count]

    def sources(self, seed: int, fed: Dict) -> Set[str]:
        from perfbench.inputs import EDIT_SEED_OFFSET

        return (self.registry
                | set(self._stream(seed, fed["generated"]))
                | set(self._stream(seed + EDIT_SEED_OFFSET, fed["edits"])))


def main() -> int:
    from perfbench.inputs import SCALES

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    expected = Expected()

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as scratch:
        log = Path(scratch) / "inputs.json"
        for entry in spec["workloads"]:
            workload = entry["name"]
            runs = [(seed, 0) for seed in SEEDS] + [(SEEDS[0], 1)]
            for seed, trace in runs:
                code, result = run(workload, seed, trace, log)
                tag = f"{workload} seed {seed} trace {trace}"
                check(code == 0, f"{tag}: exit code 0")
                check(result["correct"], f"{tag}: wrong_frac is 0")
                check(result["failed"] == 0 and result["attempted"] > 0,
                      f"{tag}: failed_frac is 0")
                units = {name: m["unit"]
                         for name, m in result["metrics"].items()}
                check(units == declared[trace],
                      f"{tag}: metric names and units match BENCHMARK.json")
                fed = json.loads(log.read_text())
                if workload == "validate":
                    check(bool(fed["registry"]) and not fed["sources"] and
                          set(fed["registry"]) <=
                          set(SCALES["tiny"].validate_apps),
                          f"{tag}: only the fixed Table 1 apps were named")
                else:
                    check(bool(fed["sources"]) and not fed["registry"] and
                          set(fed["sources"]) <= expected.sources(seed, fed),
                          f"{tag}: the program received only generated "
                          f"or registry source text")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
