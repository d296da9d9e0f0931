"""Generated-corpus driver: analyze a seeded synthetic corpus and score
the pipeline against its ground-truth labels.

The generator (:mod:`repro.corpus.generator`) emits apps whose injected
use/free pairs are known exactly -- class, field, source lines, expected
pair type and expected surviving-vs-filtered status.  This driver fans
the generated apps out over the shared :class:`repro.runner.CorpusRunner`
(worker processes regenerate each app's source from ``(config, index)``,
so only the small generator config crosses the process boundary) and
hands the per-app :class:`~repro.runner.serialize.ResultData` views plus
the labels to :func:`repro.report.score.score_generated`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core import AnalysisConfig
from ..corpus.generator import generate_corpus, GeneratedApp, GeneratorConfig
from ..runner import CorpusRunner
from ..runner.serialize import result_data_from_dict, ResultData


def run_generated(
    runner: CorpusRunner,
    gconfig: GeneratorConfig,
    config: Optional[AnalysisConfig] = None,
) -> Tuple[List[GeneratedApp], List[Optional[ResultData]]]:
    """Generate the corpus and analyze every app through the runner.

    Returns the generated apps (with their labels) and the per-app
    results in the same order; a faulted app (``--keep-going``) yields
    ``None`` in the results list.
    """
    apps = generate_corpus(gconfig)
    # a generated-corpus run is the canonical long run: name it on the
    # live /progress endpoint before the fan-out starts
    runner.announce_phase(f"generated:{len(apps)}")
    payloads, _ = runner.run(
        "generated",
        [app.name for app in apps],
        {"config": config, "generator": gconfig.to_dict()},
    )
    results: List[Optional[ResultData]] = [
        None if "error" in payload else result_data_from_dict(payload)
        for payload in payloads
    ]
    return apps, results
