"""Golden-snapshot regression test: pinned Table 1 counts for fast apps.

Five cheap corpus apps have their exact per-app Table 1 numbers pinned
here, so a detector or filter regression fails tier-1 immediately instead
of hiding behind the slow benchmark suite.  If a deliberate analyzer
change moves these numbers, re-derive them with::

    PYTHONPATH=src python -c "
    from repro.corpus import app
    from repro.harness import run_table1
    for n in ('todolist','clipstack','photoaffix','dashclock','connectbot'):
        [r] = run_table1(validate=False, apps=[app(n)])
        print(n, r.counts, {k: v for k, v in r.pair_types.items() if v})"

and update GOLDEN (plus the validated connectbot block) in the same PR.
"""

import pytest

from repro.corpus import app
from repro.harness import render_table1, run_table1

#: app -> (counts, non-zero pair types)
GOLDEN = {
    "todolist": (
        {"EC": 5, "PC": 0, "T": 1,
         "potential": 5, "after_sound": 0, "after_unsound": 0},
        {},
    ),
    "clipstack": (
        {"EC": 6, "PC": 0, "T": 1,
         "potential": 5, "after_sound": 0, "after_unsound": 0},
        {},
    ),
    "photoaffix": (
        {"EC": 11, "PC": 0, "T": 1,
         "potential": 10, "after_sound": 4, "after_unsound": 2},
        {"EC-EC": 2},
    ),
    "dashclock": (
        {"EC": 9, "PC": 0, "T": 1,
         "potential": 11, "after_sound": 5, "after_unsound": 0},
        {},
    ),
    "connectbot": (
        {"EC": 15, "PC": 5, "T": 1,
         "potential": 14, "after_sound": 7, "after_unsound": 7},
        {"EC-EC": 2, "EC-PC": 2, "PC-PC": 3},
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_per_app_counts_match_golden(name):
    counts, pair_types = GOLDEN[name]
    [row] = run_table1(validate=False, apps=[app(name)])
    assert row.counts == counts
    assert {k: v for k, v in row.pair_types.items() if v} == pair_types


def test_connectbot_validated_golden():
    """Dynamic confirmation is seeded and must stay deterministic."""
    [row] = run_table1(validate=True, apps=[app("connectbot")])
    assert row.true_harmful == 6
    assert sorted(set(row.confirmed_fields)) == [
        "bound", "emulation", "hostBridge", "relay", "transport",
    ]
    assert row.fp_breakdown == {
        "path-insensitivity": 1, "points-to": 0,
        "not-reachable": 0, "missing-hb": 0,
    }


def test_rendered_subset_snapshot():
    """The rendered rows for the two cleanest apps, pinned verbatim."""
    rows = run_table1(
        validate=False, apps=[app("todolist"), app("swiftnotes")]
    )
    rendered = render_table1(rows).splitlines()
    assert rendered[2].split() == [
        "train", "todolist", "5", "0", "1", "5", "0", "0",
        "0", "0", "0", "0", "0", "0", "0", "0",
    ]
    assert rendered[3].split() == [
        "test", "swiftnotes", "4", "0", "1", "0", "0", "0",
        "0", "0", "0", "0", "0", "0", "0", "0",
    ]
