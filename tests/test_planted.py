"""Structure of planted joins (``tests/planted.py``) against the answers
their construction fixes."""

import pytest

from geokit.geometry import rstar, sstar, vstar
from geokit.pencils import invariant_zeros

from planted import exact_answers, planted_join


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
