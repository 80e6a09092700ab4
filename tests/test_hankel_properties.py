"""Property: every input form of one exact symmetric matrix gives the same certified eigenvalue."""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from jetflow.errors import PrecisionError  # noqa: E402
from jetflow.hankel import smallest_eigenvalue  # noqa: E402

# k / 2**e with |k| < 2**10: float64 holds every such entry exactly
_DYADIC = st.builds(lambda k, e: Fraction(k, 2 ** e), st.integers(-1023, 1023), st.integers(0, 6))


@st.composite
def symmetric_dyadic(draw):
    size = draw(st.integers(1, 4))
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = draw(_DYADIC)
    return rows


def _outcome(D):
    """The certified value, or the PrecisionError that an exact zero pivot at a dyadic shift raises."""
    try:
        return smallest_eigenvalue(D, 64).Lambda
    except PrecisionError:
        return PrecisionError


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(symmetric_dyadic())
def test_fraction_object_and_float_inputs_agree(rows):
    floats = np.array([[float(x) for x in row] for row in rows])
    assert all(Fraction(float(x)) == x for row in rows for x in row)
    expected = _outcome(rows)
    assert _outcome(np.array(rows, dtype=object)) == expected
    assert _outcome(floats) == expected
