"""Covering arithmetic: elevation counts, intersection scaling, and the
two merging count recipes."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repvol.covers import (
    TorusCoverDatum,
    colored_merge_counts,
    cover_intersection,
    elevation_count,
    merge_copy_counts,
)


def test_elevation_count_divides():
    assert elevation_count(TorusCoverDatum(torus_degree=4, curve_degree=2)) == 2
    assert elevation_count(TorusCoverDatum(torus_degree=6, curve_degree=6)) == 1
    assert elevation_count(TorusCoverDatum(torus_degree=5, curve_degree=1)) == 5


def test_elevation_count_rejects_nondivisor():
    with pytest.raises(ValueError, match="does not divide"):
        elevation_count(TorusCoverDatum(torus_degree=5, curve_degree=2))


@given(st.integers(1, 40), st.integers(1, 40))
def test_elevation_error_exactly_when_nondivisor(deg_t, deg_s):
    if deg_t % deg_s == 0:
        assert elevation_count(TorusCoverDatum(deg_t, deg_s)) == deg_t // deg_s
    else:
        with pytest.raises(ValueError):
            elevation_count(TorusCoverDatum(deg_t, deg_s))


def test_cover_intersection_worked_cases():
    assert cover_intersection(1, 2, 3, 6) == 1
    assert cover_intersection(1, 1, 1, 1) == 1
    assert cover_intersection(3, 4, 2, 6) == 4


def test_cover_intersection_rejects_nonintegral():
    with pytest.raises(ValueError, match="not an integer"):
        cover_intersection(1, 2, 2, 8)


def test_cover_intersection_rejects_nonpositive():
    with pytest.raises(ValueError):
        cover_intersection(0, 1, 1, 1)
    with pytest.raises(ValueError):
        cover_intersection(1, -2, 1, 1)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: merge_copy_counts([2.5, 4], 1), "cover degree must be a positive integer, got 2.5"),
        (lambda: merge_copy_counts([2, 4], "1"), "curve degree must be a positive integer, got '1'"),
        (lambda: merge_copy_counts([True, 2], 1), "cover degree must be a positive integer, got True"),
        (lambda: colored_merge_counts([2], [False]), "l must be a positive integer, got False"),
        (lambda: colored_merge_counts([2.9], [1]), "k must be a positive integer, got 2.9"),
        (lambda: colored_merge_counts([2], [1.5]), "l must be a positive integer, got 1.5"),
        (lambda: TorusCoverDatum(2.5, 1), "torus degree must be a positive integer, got 2.5"),
        (lambda: TorusCoverDatum(4, "3"), "curve degree must be a positive integer, got '3'"),
        (lambda: TorusCoverDatum(True, 1), "torus degree must be a positive integer, got True"),
        (lambda: cover_intersection(1.5, 2, 2, 4), "intersection number must be a positive integer, got 1.5"),
        (lambda: cover_intersection(1, 2, 2, 4.0), "degree of the torus cover must be a positive integer, got 4.0"),
    ],
)
def test_non_integers_are_refused_not_truncated(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 9),
)
def test_cover_intersection_composes(d1, d1p, d2, d2p, d3, d3p, i):
    # chaining two covers equals applying the product degrees, whenever
    # the intermediate value is integral
    first = i * d1 * d2
    if first % d3 != 0:
        return
    mid = first // d3
    second = mid * d1p * d2p
    if second % d3p != 0:
        return
    assert cover_intersection(
        i, d1 * d1p, d2 * d2p, d3 * d3p
    ) == cover_intersection(cover_intersection(i, d1, d2, d3), d1p, d2p, d3p)


def test_merge_copy_counts_worked_example():
    counts = merge_copy_counts([2, 3], 1)
    assert counts.common_degree == 6
    assert counts.copies == (3, 2)
    assert counts.per_torus_elevations == 6


def test_merge_copy_counts_m_divides_everything():
    counts = merge_copy_counts([4, 6], 2)
    assert counts.common_degree == 12
    assert counts.copies == (3, 2)
    # per-torus elevations: D / m
    assert counts.per_torus_elevations == 6


def test_merge_copy_counts_rejects_bad_m():
    with pytest.raises(ValueError, match="divide"):
        merge_copy_counts([4, 6], 3)
    with pytest.raises(ValueError):
        merge_copy_counts([], 1)


@given(st.lists(st.integers(1, 30), min_size=1, max_size=5), st.integers(1, 6))
def test_merge_copy_counts_matching_property(degrees, m):
    if any(dd % m for dd in degrees):
        with pytest.raises(ValueError):
            merge_copy_counts(degrees, m)
        return
    counts = merge_copy_counts(degrees, m)
    common = math.lcm(*degrees)
    assert counts.common_degree == common
    # every block contributes the same total count of torus elevations
    for degree, copies in zip(degrees, counts.copies):
        assert copies * degree == common
        assert copies * (degree // m) == counts.per_torus_elevations


def test_colored_merge_counts_rejects_length_mismatch():
    with pytest.raises(ValueError, match="same length"):
        colored_merge_counts([2, 3], [1])


def test_colored_merge_counts_worked_example():
    counts = colored_merge_counts([2, 3], [1, 2])
    assert counts.common_degree == 6
    assert counts.central_positive == 6
    assert counts.central_negative == 6
    assert counts.corridor_copies == (3, 4)
    assert counts.matched_elevations == (6, 12)


@given(
    st.lists(
        st.tuples(st.integers(1, 20), st.integers(1, 20)), min_size=1, max_size=4
    )
)
def test_colored_merge_counts_matching_property(pairs):
    k = [a for a, _ in pairs]
    l = [b for _, b in pairs]
    counts = colored_merge_counts(k, l)
    common = math.lcm(*k)
    assert counts.common_degree == common
    # corridor copies must match the central-block elevation counts on
    # both sides of every corridor
    for k_i, l_i, copies, matched in zip(
        k, l, counts.corridor_copies, counts.matched_elevations
    ):
        assert copies * k_i == l_i * common
        assert matched == l_i * common == copies * k_i
