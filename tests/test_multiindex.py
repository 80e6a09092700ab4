import math

import numpy as np
import pytest

from jetflow.multiindex import MultiIndexTable, graded_numbering, graded_powers, jet_dimension


def test_dimension_values():
    assert jet_dimension(1, 5) == 6
    assert jet_dimension(2, 2) == 6
    assert jet_dimension(3, 3) == 20
    assert jet_dimension(1, 0) == 1


def test_dimension_validation():
    with pytest.raises(ValueError):
        jet_dimension(0, 3)
    with pytest.raises(ValueError):
        jet_dimension(1, -1)


def test_1d_ordering():
    t = graded_numbering(1, 3)
    assert t.entries == ((0,), (1,), (2,), (3,))


def test_first_entries_are_zero_then_elementary():
    t = graded_numbering(2, 1)
    assert t.entries == ((0, 0), (1, 0), (0, 1))
    t = graded_numbering(3, 2)
    assert t.entries[0] == (0, 0, 0)
    for k in range(3):
        e = tuple(1 if i == k else 0 for i in range(3))
        assert t.entries[1 + k] == e
        assert t.position(e) == 1 + k


def test_degree_2_block():
    t = graded_numbering(2, 2)
    assert len(t.entries) == 6
    assert t.entries[3:] == ((2, 0), (1, 1), (0, 2))


def test_lengths_match_dimension():
    for d in range(1, 5):
        for n in range(9):
            assert len(graded_numbering(d, n).entries) == jet_dimension(d, n)


def test_prefix_property():
    for d in range(1, 5):
        for n in range(8):
            small = graded_numbering(d, n).entries
            big = graded_numbering(d, n + 1).entries
            assert big[: len(small)] == small


def test_graded():
    t = graded_numbering(3, 5)
    degs = [sum(a) for a in t.entries]
    assert degs == sorted(degs)
    assert list(t.degrees) == degs


def test_position_roundtrip():
    t = graded_numbering(2, 4)
    for i, alpha in enumerate(t.entries):
        assert t.position(alpha) == i
    with pytest.raises(KeyError):
        t.position((5, 0))


def test_factorials():
    t = graded_numbering(2, 3)
    for i, alpha in enumerate(t.entries):
        assert t.factorials[i] == math.factorial(alpha[0]) * math.factorial(alpha[1])


def test_table_is_frozen():
    t = graded_numbering(2, 2)
    assert isinstance(t, MultiIndexTable)
    with pytest.raises(AttributeError):
        t.d = 3


def brute_force_powers(X, n):
    table = graded_numbering(X.shape[1], n)
    return np.array([[np.prod(x ** np.array(alpha)) for alpha in table.entries] for x in X])


def test_graded_powers_match_brute_force_complex_3d():
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, (7, 3)) + 1j * rng.uniform(-1, 1, (7, 3))
    P = graded_powers(X, 4)
    assert P.shape == (7, jet_dimension(3, 4))
    assert np.abs(P - brute_force_powers(X, 4)).max() < 1e-14


def test_graded_powers_order_zero_is_ones():
    X = np.array([[0.5, -2.0], [3.0, 0.0]])
    P = graded_powers(X, 0)
    assert P.shape == (2, 1)
    assert np.array_equal(P, np.ones((2, 1)))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_graded_powers_keep_dtype(dtype):
    X = np.array([[0.5, -2.0], [3.0, 0.25]], dtype=dtype)
    P = graded_powers(X, 3)
    assert P.dtype == dtype
    assert np.array_equal(P, brute_force_powers(X, 3))


def test_graded_powers_reject_non_matrix():
    with pytest.raises(ValueError):
        graded_powers(np.ones(3), 2)


def test_parents_step_down_one_coordinate():
    t = graded_numbering(3, 3)
    for i, (j, k) in enumerate(t.parents, start=1):
        step = tuple(a - b for a, b in zip(t.entries[i], t.entries[j]))
        assert step == tuple(int(c == k) for c in range(3))
