"""Seeded workload inputs, the feed that hands them to the program, and the
oracle checks that judge the program's outputs.

The seed is the benchmark's argument; the program only ever receives the
source text built from it (through :class:`Feed`), never the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro.corpus import app as registry_app, all_apps
from repro.corpus.generator import GeneratedApp, GeneratorConfig, generate_app
from repro.report.score import OBSERVED_MISSED, score_generated
from repro.runner.serialize import ResultData
from repro.service.jobs import AppSource, JobSpec

#: generator knobs of the corpus workloads (wider than the defaults, so
#: generated apps carry more patterns and filler than the CI corpus)
MAX_PATTERNS = 8
MAX_FILLER_CLASSES = 4

#: Table 1 apps the ``validate`` workload runs: four whose warnings get
#: confirmed (connectbot, aard, qksms, firefox) and five whose schedule
#: searches exhaust their budget.  mms, k9mail and music stay out: they
#: alone would take about 54 s of every run.
VALIDATE_APPS = ("zxing", "connectbot", "photoaffix", "aard", "kisslauncher",
                 "dns66", "solitaire", "qksms", "firefox")

#: Table 1's validation parameters
RANDOM_ATTEMPTS = 40
SYSTEMATIC_BRANCHES = 15
MAX_DECISIONS = 800

#: one app in this many is replaced by a fresh generated app per round of
#: ``corpus-warm`` (the stand-in for edits between re-runs)
EDIT_ONE_IN = 20

#: edits are generated under ``seed + EDIT_SEED_OFFSET``, so they never
#: collide with the corpus's own generated apps
EDIT_SEED_OFFSET = 1_000_000


@dataclass(frozen=True)
class Scale:
    """Input size of one benchmark run."""

    registry: Optional[Sequence[str]]   #: None = every registry app
    generated: int
    validate_apps: Sequence[str]
    setup_probes: int


SCALES = {
    "full": Scale(registry=None, generated=300,
                  validate_apps=VALIDATE_APPS, setup_probes=7),
    # the self-test size: seconds per workload, same code paths
    "tiny": Scale(registry=("todolist", "swiftnotes", "clipstack"),
                  generated=6,
                  validate_apps=("kisslauncher", "aard"), setup_probes=1),
}


def generator_config(seed: int, count: int) -> GeneratorConfig:
    return GeneratorConfig(seed=seed, count=count, max_patterns=MAX_PATTERNS,
                           max_filler_classes=MAX_FILLER_CLASSES)


def load_golden(root: Path) -> Dict[str, Dict[str, int]]:
    """Per-app Table 1 counts pinned by ``benchmarks/golden_report.json``."""
    with open(root / "benchmarks" / "golden_report.json",
              encoding="utf-8") as handle:
        payload = json.load(handle)
    return {name: dict(entry["counts"])
            for name, entry in payload["apps"].items()}


@dataclass
class Item:
    """One app of a corpus workload: its source plus its oracle."""

    name: str
    path: str
    text: str
    #: registry apps: the golden counts the report must reproduce
    golden: Optional[Dict[str, int]] = None
    #: generated apps: the app whose ground-truth labels must all be found
    generated: Optional[GeneratedApp] = None


@dataclass
class CorpusInputs:
    """The registry apps plus a seeded generated corpus.

    The whole set is one batch, submitted in one ``CorpusRunner.run`` as
    the CI sweep does.  Its order is stratified: both kinds are shuffled
    by the seed and the registry apps (larger than generated ones) are
    spread evenly among the generated apps, so the seed does not decide
    whether the large apps bunch up at the end of the batch and leave one
    worker with the whole tail.

    ``next_index`` and ``next_edit`` count the corpus and edit apps taken
    from the seed's two generator streams so far.
    """

    items: List[Item]
    rng: random.Random
    config: GeneratorConfig
    edit_config: GeneratorConfig
    next_index: int = 0
    next_edit: int = 0

    @classmethod
    def build(cls, seed: int, scale: Scale,
              golden: Dict[str, Dict[str, int]]) -> "CorpusInputs":
        rng = random.Random(seed)
        registry = (all_apps() if scale.registry is None
                    else [registry_app(name) for name in scale.registry])
        registry = [Item(spec.name, spec.filename, spec.source(),
                         golden=golden[spec.name]) for spec in registry]
        rng.shuffle(registry)
        inputs = cls(items=[], rng=rng,
                     config=generator_config(seed, scale.generated),
                     edit_config=generator_config(seed + EDIT_SEED_OFFSET, 0))
        generated = [inputs._generated(inputs.config, inputs._take())
                     for _ in range(scale.generated)]
        rng.shuffle(generated)
        for j, item in enumerate(registry):
            before = round((j + 0.5) * len(generated) / len(registry))
            while len(inputs.items) - j < before:
                inputs.items.append(generated.pop())
            inputs.items.append(item)
        inputs.items.extend(generated)
        return inputs

    def _take(self) -> int:
        self.next_index += 1
        return self.next_index - 1

    @staticmethod
    def _generated(config: GeneratorConfig, index: int) -> Item:
        gen = generate_app(config, index)
        return Item(gen.name, f"{gen.name}.mjava", gen.source, generated=gen)

    def edit(self) -> None:
        """Replace one in :data:`EDIT_ONE_IN` apps by a fresh generated app.

        Only generated slots are edited (a slot keeps its name, its source
        and labels change), so the registry apps keep their golden oracle.
        """
        slots = [i for i, item in enumerate(self.items)
                 if item.generated is not None]
        count = min(len(slots), max(1, round(len(self.items) / EDIT_ONE_IN)))
        for index in self.rng.sample(slots, count):
            edit = self._generated(self.edit_config, self.next_edit)
            self.next_edit += 1
            old = self.items[index]
            self.items[index] = Item(old.name, old.path, edit.text,
                                     generated=edit.generated)


class Feed:
    """The only door from the benchmark into the program's inputs.

    Every source text handed over is logged by digest, so the self-test
    can prove the program received generated (or registry) source text
    and nothing derived from the seed by other means.  ``generated`` and
    ``edits`` say how far into the seed's two generator streams the run
    went, so the self-test regenerates exactly those apps.
    """

    def __init__(self) -> None:
        self.sources: Set[str] = set()
        self.registry: Set[str] = set()
        self.generated = 0
        self.edits = 0

    def job_spec(self, items: Sequence[Item]) -> JobSpec:
        for item in items:
            self.sources.add(source_digest(item.text))
        return JobSpec(apps=tuple(AppSource(item.name, ((item.path, item.text),))
                                  for item in items))

    def registry_app(self, name: str):
        self.registry.add(name)
        return registry_app(name)

    def to_dict(self) -> Dict[str, object]:
        return {"sources": sorted(self.sources),
                "registry": sorted(self.registry),
                "generated": self.generated, "edits": self.edits}


def source_digest(text: str) -> str:
    """Digest under which :class:`Feed` logs a source text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- oracles ------------------------------------------------------------------


def check_corpus_app(item: Item, app_report) -> Optional[str]:
    """``None`` when one app's report passes its oracle, else the reason."""
    if app_report.fault is not None:
        return f"{item.name}: faulted ({app_report.fault.get('kind')})"
    if item.golden is not None:
        counts = dict(app_report.counts)
        if counts != item.golden:
            return f"{item.name}: counts {counts} != golden {item.golden}"
        return None
    score = score_generated([item.generated],
                            [ResultData(warnings=list(app_report.warnings))])
    missed = [s.label.label_id for s in score.labels
              if s.observed == OBSERVED_MISSED]
    if missed:
        return f"{item.name}: ground-truth labels missed: {missed}"
    return None


def check_validated_app(spec, golden: Dict[str, int], counts: Dict[str, int],
                        surviving: Set[str],
                        confirmed: Set[str]) -> Optional[str]:
    """Table 1 oracle: golden counts, and confirmed fields must equal the
    true UAF fields among the surviving ones."""
    if counts != golden:
        return f"{spec.name}: counts {counts} != golden {golden}"
    expected = set(spec.true_uaf_fields) & surviving
    if confirmed != expected:
        return (f"{spec.name}: confirmed {sorted(confirmed)} != "
                f"expected {sorted(expected)}")
    return None
