"""The elimination's back-clear index against the scan it replaced.

When a new pivot column is held by older pivot rows, ``_echelon`` clears
those rows, found through an index built at the first back-clear.  The
unindexed elimination (``references.unindexed_echelon``) scans every older
row instead.  On back-clear-heavy random rows over Q, F_7 and F_32003 the
two must give the same pivot rows, value, order and type; an elimination
with no back-clear builds no index.
"""

import random

import pytest

from shortloc import linalg
from shortloc.homology import betti
from shortloc.linalg import QQ, Field
from shortloc.modules import simple_module
from shortloc.presets import preset

from references import unindexed_echelon

FIELDS = pytest.mark.parametrize("field", [QQ, Field.prime(7), Field.prime(32003)], ids=str)


def heavy_rows(rng, field, ncols):
    """Rows of growing width at random columns.

    The elimination takes the sparsest rows first, so a wider row's pivot
    often falls at a column that an older pivot row holds, and back-clears.
    """
    p, rows = field.characteristic, []
    for k in range(rng.randint(ncols // 2, 2 * ncols)):
        cols = rng.sample(range(ncols), min(ncols, 1 + k // 2 + rng.randint(0, 2)))
        row = {c: rng.choice([-3, -2, -1, 1, 2, 3, 6]) for c in cols}
        rows.append({c: x % p for c, x in row.items()} if p else row)
    return rows


@FIELDS
def test_the_indexed_elimination_matches_the_unindexed_one(field):
    rng, cleared, inputs = random.Random(11), 0, 0
    for _ in range(150):
        ncols = rng.randint(4, 40)
        rows = heavy_rows(rng, field, ncols)
        counts = []
        want = unindexed_echelon(field, [dict(r) for r in rows], ncols, counts)
        got = linalg._echelon(field, [dict(r) for r in rows], ncols)
        assert list(got) == list(want)
        assert [list(row.items()) for row in got.values()] == \
            [list(row.items()) for row in want.values()]
        assert all(type(x) is int for row in got.values() for x in row.values())
        cleared += len(counts)
        inputs += len(counts) >= 10
    assert cleared >= 3000 and inputs >= 100


def test_an_elimination_without_a_back_clear_builds_no_index(monkeypatch):
    # The index is built lazily: a ladder of S over ex15_1 makes eliminations
    # with no back-clear, and those read no set at all.
    made = []

    class Counted(set):
        def __init__(self, *args):
            made.append(1)
            super().__init__(*args)
    monkeypatch.setattr(linalg, "set", Counted, raising=False)
    rows = [{0: 1, 3: 2}, {1: 1}, {2: 5, 3: 1}]  # each pivot lies in no older row
    assert sorted(linalg._echelon(QQ, rows, 4)) == [0, 1, 2]
    assert len(made) == 1  # the ``used`` set alone
    made.clear()
    # The second row's pivot 2 is held by the first row, which is cleared there.
    assert linalg._echelon(QQ, [{0: 1, 2: 1}, {2: 1, 3: 1}], 4) == {0: {0: 1, 3: -1},
                                                                   2: {2: 1, 3: 1}}
    assert len(made) >= 2


@pytest.mark.parametrize("field", [QQ, Field.prime(32003)], ids=str)
def test_a_back_clearing_ladder_keeps_its_betti_numbers(field):
    # ex9_4's ladders back-clear at every rung; the numbers are 2^(i+1) - 1.
    values = betti(simple_module(preset("ex9_4", field=field)), 9).values
    assert values == tuple(2 ** (i + 1) - 1 for i in range(10))
