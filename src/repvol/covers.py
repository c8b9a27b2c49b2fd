"""Elevation and copy-count arithmetic for covers of glued pieces.

Everything here is bookkeeping over positive integers: how many times a
torus or a piece lifts to a finite cover, and how many copies of each
piece are needed so that matching curves elevate with a common degree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import _HOMES
from .exact import Refusal, _Record, _positive

__all__ = [*_HOMES["covers"]]


class TorusCoverDatum(_Record):
    """Covering degrees at one torus: the torus cover and a curve cover."""

    torus_degree: int
    curve_degree: int

    def __post_init__(self) -> None:
        _positive(self.torus_degree, "torus degree")
        _positive(self.curve_degree, "curve degree")


def elevation_count(datum: TorusCoverDatum) -> int:
    """Number of elevations of the curve to the covering torus.

    Each elevation covers the curve with the same degree, so the curve
    degree must divide the torus degree.
    """
    if datum.torus_degree % datum.curve_degree != 0:
        raise Refusal(
            f"curve degree {datum.curve_degree} does not divide "
            f"torus degree {datum.torus_degree}"
        )
    return datum.torus_degree // datum.curve_degree


def cover_intersection(
    intersection: int, degree_f: int, degree_s: int, degree_torus: int
) -> int:
    """Intersection number of elevated curves on a covering torus:
    i(f, s) * deg(f-cover) * deg(s-cover) / deg(torus-cover).
    Must come out a positive integer."""
    _positive(intersection, "intersection number")
    _positive(degree_f, "degree of the f-cover")
    _positive(degree_s, "degree of the s-cover")
    _positive(degree_torus, "degree of the torus cover")
    value = Fraction(intersection * degree_f * degree_s, degree_torus)
    if value.denominator != 1:
        raise Refusal(
            f"elevated intersection number {value} is not an integer"
        )
    return value.numerator


class MergeCounts(_Record):
    """Copy counts merging covers of degrees d_i over a common torus."""

    common_degree: int
    copies: tuple[int, ...]
    per_torus_elevations: int


def merge_copy_counts(degrees: Sequence[int], m: int) -> MergeCounts:
    """Merge covers of degrees d_i along a torus whose matching curves
    are covered with degree m.

    Taking D = lcm(d_i) and D/d_i copies of the i-th cover, every glued
    torus receives D/m elevations on each side; m must divide every d_i
    for the per-piece elevation counts (d_i/m) to make sense.
    """
    if not degrees:
        raise Refusal("at least one cover degree is required")
    degs = [_positive(x, "cover degree") for x in degrees]
    m = _positive(m, "curve degree")
    for x in degs:
        if x % m != 0:
            raise Refusal(f"curve degree {m} does not divide cover degree {x}")
    common = math.lcm(*degs)
    copies = tuple(common // x for x in degs)
    per_torus = common // m
    return MergeCounts(common_degree=common, copies=copies, per_torus_elevations=per_torus)


class ColoredMergeCounts(_Record):
    """Copy counts for a two-colored merge around a central piece."""

    common_degree: int
    central_positive: int
    central_negative: int
    corridor_copies: tuple[int, ...]
    matched_elevations: tuple[int, ...]


def colored_merge_counts(k: Sequence[int], l: Sequence[int]) -> ColoredMergeCounts:
    """Counts for gluing corridor pieces to both signs of a central piece.

    Corridor i meets the central piece in k_i curves on one side and
    carries multiplicity l_i.  With K = lcm(k_i), take K copies of each
    sign of the central piece and l_i * K / k_i copies of corridor i;
    then corridor i contributes l_i * K matched elevations, the same
    count the K central copies expose on each sign.
    """
    if len(k) != len(l):
        raise Refusal("k and l must have the same length")
    if not k:
        raise Refusal("at least one corridor is required")
    ks = [_positive(x, "k") for x in k]
    ls = [_positive(x, "l") for x in l]
    common = math.lcm(*ks)
    corridor = tuple(li * (common // ki) for ki, li in zip(ks, ls))
    matched = tuple(c * ki for c, ki in zip(corridor, ks))
    return ColoredMergeCounts(
        common_degree=common,
        central_positive=common,
        central_negative=common,
        corridor_copies=corridor,
        matched_elevations=matched,
    )
