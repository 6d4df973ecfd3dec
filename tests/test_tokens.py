import tracemalloc

import numpy as np
import pytest

from conftest import assert_ownership_rule
from tokenmorph import (
    DimensionMismatchError,
    InvalidParameterError,
    InvalidWeightsError,
    TokenSet,
    index_lerp,
)
from tokenmorph.tokens import read_only_array


def test_default_weights_are_uniform():
    ts = TokenSet(np.zeros((4, 2)))
    np.testing.assert_array_equal(ts.weights, np.full(4, 0.25))
    assert ts.has_uniform_weights()


def test_one_dimensional_input_becomes_column():
    ts = TokenSet([0.0, 1.0, 2.0])
    assert ts.points.shape == (3, 1)
    assert ts.n == 3 and ts.m == 1


def test_explicit_weights_accepted():
    ts = TokenSet([[0.0], [1.0]], [0.25, 0.75])
    np.testing.assert_array_equal(ts.weights, [0.25, 0.75])
    assert not ts.has_uniform_weights()


def test_zero_weight_atom_rejected():
    with pytest.raises(InvalidWeightsError):
        TokenSet([[0.0], [1.0]], [0.0, 1.0])


def test_negative_weight_rejected():
    with pytest.raises(InvalidWeightsError):
        TokenSet([[0.0], [1.0]], [-0.5, 1.5])


def test_weights_must_sum_to_one():
    with pytest.raises(InvalidWeightsError):
        TokenSet([[0.0], [1.0]], [0.5, 0.499])


def test_weight_sum_tolerance_is_tight():
    with pytest.raises(InvalidWeightsError):
        TokenSet([[0.0], [1.0]], [0.5, 0.5 + 1e-10])


@pytest.mark.parametrize("weights", [[1.0], [[0.5, 0.5]], [0.25, 0.25, 0.5], 1.0])
def test_weights_of_the_wrong_shape_rejected(weights):
    with pytest.raises(InvalidWeightsError, match=r"shape \(2,\)"):
        TokenSet([[0.0], [1.0]], weights)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_weights_rejected(bad):
    with pytest.raises(InvalidWeightsError, match="finite"):
        TokenSet([[0.0], [1.0]], [0.5, bad])


def test_empty_set_rejected():
    with pytest.raises(InvalidParameterError):
        TokenSet(np.zeros((0, 3)))


def test_nonfinite_coordinates_rejected():
    with pytest.raises(InvalidParameterError):
        TokenSet([[np.nan, 0.0]])
    with pytest.raises(InvalidParameterError):
        TokenSet([[np.inf, 0.0]])


def test_arrays_are_read_only():
    ts = TokenSet(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ts.points[0, 0] = 1.0
    with pytest.raises(ValueError):
        ts.weights[0] = 1.0


def test_construction_copies_input():
    raw = np.zeros((2, 2))
    ts = TokenSet(raw)
    raw[0, 0] = 99.0
    assert ts.points[0, 0] == 0.0
    # A read-only array that owns its memory is adopted instead.
    assert_ownership_rule(lambda points: TokenSet(points).points, [[0.0, 1.0], [2.0, 3.0]])
    assert_ownership_rule(lambda w: TokenSet(np.zeros((2, 1)), w).weights, [0.25, 0.75])


def test_read_only_array_builds_lists_and_casts_once():
    from_list = read_only_array([[1, 2], [3, 4]])
    assert from_list.dtype == np.float64 and from_list.flags.owndata
    assert not from_list.flags.writeable
    ints = np.arange(4)
    cast = read_only_array(ints)
    assert cast.dtype == np.float64 and cast.flags.owndata and not cast.flags.writeable
    assert ints.flags.writeable  # the caller's array is left as it was
    assert read_only_array(cast) is cast
    assert read_only_array(cast, np.intp).dtype == np.intp
    # The array np.asarray builds is the one copy: no second one is made.
    values, ints = [0.5] * 100_000, np.arange(100_000, dtype=np.int32)
    for value in (values, ints):
        assert 8 * 100_000 <= _peak_bytes(read_only_array, value) < 1.5 * 8 * 100_000
    # A token set of 1-D points makes one copy in column shape, also of a
    # read-only array that it would adopt in (n, 1) shape.
    weights = np.full(100_000, 1e-5)
    weights.setflags(write=False)
    owned = np.arange(100_000.0)
    owned.setflags(write=False)
    for value in (values, ints, np.arange(100_000.0), owned):
        peak = _peak_bytes(lambda points: TokenSet(points, weights), value)
        assert 8 * 100_000 <= peak < 1.5 * 8 * 100_000
        points = TokenSet(value, weights).points
        assert points.shape == (100_000, 1) and points.flags.owndata
        assert not points.flags.writeable and not np.shares_memory(points, value)
    assert owned.shape == (100_000,) and not owned.flags.writeable


def _peak_bytes(build, value) -> int:
    tracemalloc.start()
    try:
        build(value)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_read_only_array_copies_another_objects_array():
    # np.asarray returns the array an __array__ method hands out, which
    # its object may still write to: it is copied, not frozen.
    class Holder:
        def __init__(self):
            self.data = np.zeros(3)

        def __array__(self, dtype=None, copy=None):
            return self.data

    holder = Holder()
    kept = read_only_array(holder)
    assert kept is not holder.data and holder.data.flags.writeable
    assert kept.flags.owndata and not kept.flags.writeable


def test_index_lerp_hands_over_its_points(copies):
    a = TokenSet([[0.0, 0.0], [2.0, 2.0]])
    b = TokenSet([[4.0, 0.0], [6.0, 2.0]])
    copies.clear()
    index_lerp(a, b, 0.5)
    assert copies == []


def test_index_lerp_endpoints_and_midpoint():
    a = TokenSet([[0.0, 0.0], [2.0, 2.0]])
    b = TokenSet([[4.0, 0.0], [6.0, 2.0]])
    np.testing.assert_array_equal(index_lerp(a, b, 0.0).points, a.points)
    np.testing.assert_array_equal(index_lerp(a, b, 1.0).points, b.points)
    np.testing.assert_array_equal(
        index_lerp(a, b, 0.5).points, [[2.0, 0.0], [4.0, 2.0]]
    )


def test_index_lerp_requires_matching_shapes():
    with pytest.raises(DimensionMismatchError):
        index_lerp(TokenSet([[0.0]]), TokenSet([[0.0, 1.0]]), 0.5)
    with pytest.raises(DimensionMismatchError):
        index_lerp(TokenSet([[0.0]]), TokenSet([[0.0], [1.0]]), 0.5)
