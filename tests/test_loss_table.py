"""The default start precision against the committed loss table.

``tests/data/loss_table.json`` holds the digit losses that
``tools/loss_table.py`` measured over (a, n) for the Chebyshev, orbit and
Fredholm routes, their fits and the margin; ``precision.LOSS_FIT`` and
``precision.LOSS_MARGIN_DIGITS`` are copies of those, so that nothing is
read at import.
"""

import json
import math
from pathlib import Path

import pytest

from gue_gap_lab import (PrecisionPolicy, build_recurrence_table, gap_probability_fredholm,
                         precision)
from gue_gap_lab.difference_eqs import orbit_recurrence_table

TABLE = json.loads((Path(__file__).parent / "data" / "loss_table.json").read_text())
CELLS = [(route, a, n) for route, t in TABLE["routes"].items() for a, n, _, _ in t["cells"]]


def test_constants_are_the_committed_fit():
    assert set(TABLE["routes"]) == set(precision.LOSS_FIT) == {"chebyshev", "orbit", "fredholm"}
    for route, t in TABLE["routes"].items():
        assert precision.LOSS_FIT[route] == tuple(t["fit"])
    assert precision.LOSS_MARGIN_DIGITS == TABLE["margin_digits"]
    assert PrecisionPolicy().target_certified_digits == TABLE["target_digits"]


@pytest.mark.parametrize("route, a, n", CELLS)
def test_default_start_certifies_each_cell_without_escalation(route, a, n):
    if route == "chebyshev":
        build = build_recurrence_table(a, n, jets=True)
    elif route == "fredholm":
        build = gap_probability_fredholm(n, a)
    else:
        build = orbit_recurrence_table(a, n)
    assert build.escalations == 0
    assert build.certified_digits >= TABLE["target_digits"]


def test_default_start_is_target_plus_loss_plus_margin():
    policy = PrecisionPolicy(target_certified_digits=60)
    for route, a, n in [("chebyshev", 0.7, 4), ("orbit", 3, 200), ("orbit", 1e-300, 0),
                        ("fredholm", 8, 60)]:
        digits = 60 + precision.loss_digits(route, a, n) + precision.LOSS_MARGIN_DIGITS
        assert policy.start_bits(route, a, n) == math.ceil(digits * math.log2(10))
    # the loss grows with n and with a, and a that is not finite costs most
    assert precision.loss_digits("chebyshev", 1, 0) < precision.loss_digits("chebyshev", 1, 40)
    assert precision.loss_digits("orbit", 1, 40) < precision.loss_digits("orbit", 3, 40)
    assert precision.loss_digits("fredholm", 1, 40) < precision.loss_digits("fredholm", 3, 40)
    assert precision.loss_digits("orbit", float("nan"), 4) == precision.loss_digits("orbit", 1e100, 4)
    # a is taken as given: any text a builder takes, and an int past the doubles
    assert precision.loss_digits("orbit", "1/3", 4) == precision.loss_digits("orbit", 1 / 3, 4)
    assert precision.loss_digits("orbit", 10 ** 400, 4) == precision.loss_digits("orbit", 1e100, 4)
