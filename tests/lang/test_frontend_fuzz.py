"""Seeded mutation fuzz of the whole frontend: lex, parse and lower.

Bad input must end in a located :class:`SourceError`, never in a raw
exception, or the runner would class it as an analysis fault.
"""

import random

import pytest

from repro.corpus import all_apps
from repro.lang import SourceError
from repro.lowering import lower_sources

#: Characters and fragments spliced into corpus sources: quotes,
#: escapes, comment openers, digits and suffixes, and non-ASCII probes
#: ('²' is a digit but not a decimal one, '½' is numeric, 'é' a letter).
ALPHABET = list('"\\/*(){};=+-!&|<>.,@ \n\t0123456789aLxé²½١#$_') + [
    "/*", "*/", "//", '"\\q', "12abc", "= =", "new ", "if (",
]
MUTATIONS = 300


def mutate(rng, source):
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(source) + 1)
        op = rng.randrange(4)
        if op == 0:  # delete a short span
            source = source[:i] + source[i + rng.randint(1, 8):]
        elif op == 1:  # insert a fragment
            source = source[:i] + rng.choice(ALPHABET) + source[i:]
        elif op == 2:  # replace one character
            source = source[:i] + rng.choice(ALPHABET) + source[i + 1:]
        else:  # duplicate a span of the source elsewhere
            j = rng.randrange(len(source) + 1)
            source = source[:i] + source[j:j + rng.randint(1, 20)] + source[i:]
    return source


def test_mutated_corpus_sources_fail_only_with_source_errors():
    rng = random.Random(20181)
    sources = [(spec.filename, spec.source()) for spec in all_apps()]
    outcomes = {"ok": 0, "LexError": 0, "ParseError": 0, "LoweringError": 0,
                "SourceError": 0}
    for _ in range(MUTATIONS):
        filename, source = rng.choice(sources)
        mutated = mutate(rng, source)
        try:
            lower_sources([(filename, mutated)], seal=False)
        except SourceError as exc:
            outcomes[type(exc).__name__] += 1
            assert exc.filename == filename
        except Exception as exc:
            pytest.fail(f"raw {type(exc).__name__} on mutated {filename}: "
                        f"{exc}\n--- source ---\n{mutated}")
        else:
            outcomes["ok"] += 1
    # the mix must exercise every stage, or the fuzz proves little
    assert min(outcomes["LexError"], outcomes["ParseError"],
               outcomes["LoweringError"], outcomes["ok"]) > 0, outcomes
