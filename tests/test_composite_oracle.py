"""assembly.composite_rule against its first form in reference_math: bit
for bit.

composite_rule_sorted concatenates the pieces and then sorts them by node
with a stable sort, so tied nodes keep their piece order on every CPU.
The package must give the same nodes and weights, in the same order, on a
seeded sweep of 1-4 breaks (some within 1e-15 of each other or of an end,
some repeated or out of order), 1 to 120 points per piece and weight
exponents in (-1, 2.5).
"""

import numpy as np
import pytest

from fracspec.assembly import composite_rule
from reference_math import composite_rule_sorted


def _break(rng) -> float:
    kind = rng.integers(5)
    if kind == 0:
        return float(rng.uniform(1e-9, 1e-6))
    if kind == 1:
        return float(1.0 - rng.uniform(1e-9, 1e-6))
    if kind == 2:
        # within a few ulps of an end
        return float(rng.integers(1, 10) * 1e-15) if rng.random() < 0.5 else 1.0 - float(
            rng.integers(1, 10) * 1e-15
        )
    return float(rng.uniform(0.0, 1.0))


def _cases(count: int, seed: int = 2501):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        breaks = [_break(rng) for _ in range(int(rng.integers(1, 5)))]
        if rng.random() < 0.3:
            # a neighbour within 1e-15, or the same break twice
            b = breaks[int(rng.integers(len(breaks)))]
            breaks.append(min(b + float(rng.integers(0, 10)) * 1e-16, 1.0 - 1e-16))
        rng.shuffle(breaks)
        a, b = rng.uniform(-0.999, 2.5, size=2)
        out.append(((float(a), float(b)), int(rng.integers(1, 121)), breaks))
    return out


_EDGES = [
    ((0.0, 0.0), 7, [0.5, 0.5 + 1e-15]),
    ((-0.5, 1.5), 40, [0.5, np.nextafter(0.5, 1.0)]),
    ((0.3, -0.7), 25, [1e-300]),
    ((2.4, -0.99), 60, [1e-300, 0.5, 1.0 - 1e-16]),
    ((-0.99, 2.4), 119, [1e-15, 2e-15, 1.0 - 2e-15, 1.0 - 1e-15]),
    ((1.3, 0.2), 1, [0.25, 0.75, 0.25]),
]


@pytest.mark.parametrize("chunk", range(4))
def test_composite_rule_matches_sorted_form(chunk):
    for p, n, breaks in _cases(1000)[chunk::4] + (_EDGES if chunk == 0 else []):
        rule = composite_rule(p, n, breaks)
        nodes, weights = composite_rule_sorted(p, n, breaks)
        assert np.array_equal(rule.nodes, nodes), (p, n, breaks)
        assert np.array_equal(rule.weights, weights), (p, n, breaks)
