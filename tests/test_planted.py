"""Structure of planted joins (``tests/planted.py``) against the answers
their construction fixes."""

import numpy as np
import pytest

from geokit.geometry import rstar, sstar, vstar
from geokit.pencils import invariant_zeros

from planted import exact_answers, planted_join, squaring_down_zeros


@pytest.mark.parametrize("n1, n2, m2, p2, s", [
    (4, 8, 2, 2, 0),
    pytest.param(4, 8, 1, 2, 0, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3: the V* chain of this 12-state join (m = 2, p = 3) "
        "loses one dimension per step and gives dim V* 0 and no zeros, where "
        "dim V* is 4 and the SISO block plants 4 zeros"))),
    pytest.param(4, 8, 3, 2, 0, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3: sstar gives dim 12 on this 12-state join "
        "(m = 4, p = 3), where 8 is exact"))),
])
def test_join_has_the_planted_structure(n1, n2, m2, p2, s):
    sys = planted_join(n1, n2, m2, p2, s)
    got = {"vstar": vstar(sys).dim, "rstar": rstar(sys).dim, "sstar": sstar(sys).dim,
           "zeros": len(invariant_zeros(sys))}
    assert got == exact_answers(n1, n2, m2, p2)


# the joins of ROADMAP item 8: two SISO sizes, three generic sizes, four
# generic shapes (wide, tall, square, wide), five seeds
GRID = [(n1, n2, m2, p2, s) for n1 in (4, 8) for n2 in (8, 16, 32)
        for m2, p2 in ((3, 2), (1, 2), (2, 2), (3, 1)) for s in range(5)]


def test_unit_norm_scales_a_alone():
    raw, unit = planted_join(4, 8, 3, 2, 1), planted_join(4, 8, 3, 2, 1, unit_norm=True)
    assert np.isclose(np.linalg.norm(unit.A, 2), 1.0)
    assert np.allclose(unit.A * np.linalg.norm(raw.A, 2), raw.A)
    assert all(np.array_equal(getattr(unit, k), getattr(raw, k)) for k in "BCD")


@pytest.mark.parametrize("unit_norm", [False, True], ids=["raw", "unit-norm"])
def test_squaring_down_finds_the_planted_zero_count(unit_norm):
    # the oracle shares no code with geokit's staircase, so it can tell
    # which of geokit's zero counts on the grid are wrong
    assert len(GRID) == 120
    wrong = [join for join in GRID if len(squaring_down_zeros(planted_join(*join, unit_norm)))
             != exact_answers(*join[:4])["zeros"]]
    assert wrong == []
