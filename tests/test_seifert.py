"""Seifert invariant bookkeeping: notation parsing, Euler number,
orbifold characteristic, geometry classification, fillings, covers."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repvol.seifert import (
    GeometryTag,
    ParseError,
    SeifertInvariants,
    base_cover,
    circle_bundle,
    classify_geometry,
    dehn_fill,
    euler_number,
    fiber_cover,
    format_seifert,
    orbifold_chi,
    parse_seifert,
)


# Python's limit on the digits of an integer it converts from text.
DIGITS = sys.get_int_max_str_digits()


def pair_strategy():
    # lowest-terms pairs (a, b), a >= 1, b != 0 allowed to be anything coprime
    def build(a, b):
        g = math.gcd(a, abs(b))
        return (a // g if g else a, b // g if g else b)

    return (
        st.tuples(st.integers(1, 9), st.integers(-9, 9))
        .map(lambda ab: build(*ab))
        .filter(lambda ab: math.gcd(ab[0], abs(ab[1])) == 1)
    )


invariants = st.builds(
    SeifertInvariants,
    genus=st.integers(0, 4),
    pairs=st.lists(pair_strategy(), max_size=4).map(tuple),
)


# ---------------------------------------------------------------- parsing


def test_parse_worked_example():
    inv = parse_seifert("(1; 1/2, 1/2)")
    assert inv.genus == 1
    assert inv.pairs == ((2, 1), (2, 1))
    assert inv.boundary_count == 0


def test_parse_bare_integer_pair():
    inv = parse_seifert("(2; 1)")
    assert inv.pairs == ((1, 1),)
    assert euler_number(inv) == 1


def test_parse_empty_pair_list():
    inv = parse_seifert("(3;)")
    assert inv.genus == 3
    assert inv.pairs == ()


def test_parse_negative_coefficients_and_whitespace():
    inv = parse_seifert(" ( 0 ; -1/2 , 3/5 , 7 ) ")
    assert inv.genus == 0
    assert sorted(inv.pairs) == [(1, 7), (2, -1), (5, 3)]


def test_parse_rejects_negative_genus():
    with pytest.raises(ParseError, match="non-orientable"):
        parse_seifert("(-1; 1/2)")


def test_parse_rejects_zero_denominator():
    with pytest.raises(ParseError):
        parse_seifert("(1; 1/0)")


def test_parse_rejects_non_lowest_terms():
    with pytest.raises(ParseError, match="lowest terms"):
        parse_seifert("(1; 2/4)")


def test_parse_rejects_negative_multiplicity():
    with pytest.raises(ParseError):
        parse_seifert("(1; 1/-2)")


@pytest.mark.parametrize(
    "bad",
    ["", "1; 1/2", "(1 1/2)", "(1;", "(1; 1/2,)", "(1; 1/2))", "(x; 1/2)", "(1; /2)"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_seifert(bad)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_seifert("(-1; 1/2)")
    assert info.value.position == 1
    with pytest.raises(ParseError) as info:
        parse_seifert("(1; 2/4)")
    assert info.value.position >= 0
    assert "position" in str(info.value)


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("(1; x)", "unexpected character 'x'", 4),
        ("(1;\t1/2) x", "unexpected character 'x'", 9),
        ("1 - 2", "unexpected character '-'", 2),
        ("1; 1/2", "expected '(', found 1", 0),
        ("", "expected '(', found end of input", 0),
        ("   ", "expected '(', found end of input", 3),
        ("(; 1/2)", "expected genus, found ;", 1),
        ("(", "expected genus, found end of input", 1),
        ("(-1; 1/2)", "negative genus (non-orientable bases are not supported)", 1),
        ("(1 1/2)", "expected ';', found 1", 3),
        ("(1", "expected ';', found end of input", 2),
        ("(1; /2)", "expected numerator of pair 1, found /", 4),
        ("(1; 1/2, /3)", "expected numerator of pair 2, found /", 9),
        ("(1;", "expected numerator of pair 1, found end of input", 3),
        ("(1; 1/2,", "expected numerator of pair 2, found end of input", 8),
        ("(1; 1/)", "expected multiplicity of pair 1, found )", 6),
        ("(1; 1/", "expected multiplicity of pair 1, found end of input", 6),
        ("(1; 2/4)", "pair 1: 2/4 is not in lowest terms", 6),
        ("(1; 1/3, 0/2)", "pair 2: 0/2 is not in lowest terms", 11),
        ("(1; 1/0)", "pair 1: multiplicity must be positive, got 0", 6),
        ("(1; 1/-2)", "pair 1: multiplicity must be positive, got -2", 6),
        ("(1; 1/2,)", "trailing comma", 7),
        ("(1; 1/2 1/3)", "expected ',' or ')', found 1", 8),
        ("(1; 3/4/5)", "expected ',' or ')', found /", 7),
        ("(1; 1/2", "expected ',' or ')', found end of input", 7),
        ("(1; 1/2))", "unexpected trailing ')'", 8),
        ("(1;) 2", "unexpected trailing '2'", 5),
        # integers longer than Python converts, named at their position
        pytest.param("(" + "9" * 5000 + ";)", f"genus is too long to read: over {DIGITS} digits", 1, id="long-genus"),
        pytest.param(
            "(1; -" + "9" * 5000 + "/2)", f"numerator of pair 1 is too long to read: over {DIGITS} digits", 4, id="long-numerator"
        ),
        pytest.param(
            "(1; 1/2, 1/" + "9" * 5000 + ")", f"multiplicity of pair 2 is too long to read: over {DIGITS} digits", 11, id="long-multiplicity"
        ),
    ],
)
def test_parse_error_text_and_position(text, message, position):
    with pytest.raises(ParseError) as info:
        parse_seifert(text)
    assert str(info.value) == f"{message} (at position {position})"
    assert info.value.position == position


def test_format_round_trip_worked_example():
    assert format_seifert(parse_seifert("(1; 1/2, 1/2)")) == "(1; 1/2, 1/2)"
    assert format_seifert(parse_seifert("(3;)")) == "(3;)"


@given(invariants)
def test_format_parse_round_trip(inv):
    assert parse_seifert(format_seifert(inv)) == inv


def test_equality_ignores_pair_order():
    left = SeifertInvariants(genus=1, pairs=((2, 1), (3, -1)))
    right = SeifertInvariants(genus=1, pairs=((3, -1), (2, 1)))
    assert left == right
    assert hash(left) == hash(right)


# ---------------------------------------------------------------- invariants


def test_euler_number_sums_slopes():
    inv = parse_seifert("(1; 1/2, -1/3, 1/6)")
    assert euler_number(inv) == Fraction(1, 2) - Fraction(1, 3) + Fraction(1, 6)


def test_orbifold_chi():
    inv = parse_seifert("(1; 1/2, 1/2)")
    assert orbifold_chi(inv) == Fraction(-1)
    assert orbifold_chi(parse_seifert("(0; 1/2, 1/3, 1/7)")) == (
        2 - (1 - Fraction(1, 2)) - (1 - Fraction(1, 3)) - (1 - Fraction(1, 7))
    )


def _primes_from(start, count):
    primes = []
    k = start
    while len(primes) < count:
        if all(k % q for q in range(2, math.isqrt(k) + 1)):
            primes.append(k)
        k += 1
    return primes


@pytest.mark.parametrize(
    "genus, pairs",
    [
        (0, ()),
        (3, ()),
        (1, ((1, 5),)),
        (2, ((1, -3), (2, 1), (1, 1))),
        (1, ((3, -2), (5, -4), (7, 3))),
        (2, ((4, 1), (4, 3), (4, -1), (6, 5), (6, 1))),
        (1, ((6, 1), (10, -3), (15, 7))),
        (4, tuple((p, (-1) ** k * (k + 1)) for k, p in enumerate(_primes_from(10**6, 40)))),
    ],
    ids=["no_pairs", "no_pairs_genus_three", "a_one", "a_one_mixed", "negative_b", "repeated_moduli", "shared_factors", "large_lcm"],
)
def test_euler_number_and_chi_match_fraction_sums(genus, pairs):
    _check_against_fraction_sums(SeifertInvariants(genus=genus, pairs=pairs))


def _check_against_fraction_sums(inv):
    """e, chi and the geometry, as the integer sums over lcm(a_i) give
    them, against plain ``Fraction`` sums; returns the geometry."""
    e = sum((Fraction(b, a) for a, b in inv.pairs), Fraction(0))
    chi = 2 - 2 * inv.genus - sum((1 - Fraction(1, a) for a, _ in inv.pairs), Fraction(0))
    for got, expected in ((euler_number(inv), e), (orbifold_chi(inv), chi)):
        assert type(got) is Fraction and repr(got) == repr(expected) and hash(got) == hash(expected)
    geometry = classify_geometry(inv)
    assert geometry is (GeometryTag.SL2R_TILDE if e != 0 and chi < 0 else GeometryTag.OTHER)
    return geometry


@pytest.mark.parametrize("seed", range(4))
def test_geometry_matches_fraction_sums_on_seeded_symbols(seed):
    rng = random.Random(f"geometry-{seed}")
    seen = set()
    for _ in range(300):
        pairs = []
        for _ in range(rng.randint(0, 5)):  # the no-pair case included
            a = rng.choice([1, 1, 2, 3, 4, 6, rng.randint(1, 60)])  # a_i = 1 often
            b = rng.choice([b for b in range(-3 * a, 3 * a + 1) if math.gcd(a, abs(b)) == 1])
            pairs.append((a, b))
        seen.add(_check_against_fraction_sums(SeifertInvariants(rng.randint(0, 3), tuple(pairs))))
    assert seen == set(GeometryTag)


def test_classify_geometry():
    assert classify_geometry(parse_seifert("(1; 1/2, 1/2)")) is GeometryTag.SL2R_TILDE
    # e = 0: not sl2r-tilde
    assert classify_geometry(parse_seifert("(1; 1/2, -1/2)")) is GeometryTag.OTHER
    # chi = 0: torus base, no exceptional fibers
    assert classify_geometry(parse_seifert("(1; 1)")) is GeometryTag.OTHER


def test_invariants_require_closed():
    inv = SeifertInvariants(genus=1, pairs=(), boundary_count=1)
    with pytest.raises(ValueError, match="closed"):
        euler_number(inv)
    with pytest.raises(ValueError, match="closed"):
        classify_geometry(inv)
    inv = SeifertInvariants(genus=2, pairs=((2, 1), (3, 1)), boundary_count=2)
    for derive in (euler_number, orbifold_chi):
        with pytest.raises(ValueError, match=rf"^{derive.__name__} requires a closed space, got boundary count 2$"):
            derive(inv)


# ---------------------------------------------------------------- fillings


def test_dehn_fill_closes_boundary():
    filled = dehn_fill(1, 1, [(2, 1)], existing_pairs=((2, 1),))
    assert filled == parse_seifert("(1; 1/2, 1/2)")
    assert filled.is_closed


def test_dehn_fill_partial():
    partial = dehn_fill(0, 2, [(3, 1)])
    assert partial.boundary_count == 1
    assert partial.pairs == ((3, 1),)


def test_dehn_fill_rejects_excess_and_bad_pairs():
    with pytest.raises(ValueError, match="exceed"):
        dehn_fill(0, 1, [(2, 1), (3, 1)])
    with pytest.raises(ValueError, match="lowest terms"):
        dehn_fill(0, 1, [(4, 2)])
    with pytest.raises(ValueError):
        dehn_fill(0, 1, [(0, 1)])


# ---------------------------------------------------------------- covers


def test_circle_bundle():
    inv = circle_bundle(2, -3)
    assert inv.genus == 2
    assert euler_number(inv) == -3
    assert classify_geometry(inv) is GeometryTag.SL2R_TILDE


def test_fiber_cover_divides_euler_number():
    inv = circle_bundle(2, 6)
    assert euler_number(fiber_cover(inv, 3)) == 2
    assert fiber_cover(inv, 3).genus == 2
    with pytest.raises(ValueError, match="divide"):
        fiber_cover(inv, 4)


def test_fiber_cover_requires_bundle():
    with pytest.raises(ValueError):
        fiber_cover(parse_seifert("(1; 1/2, 1/2)"), 1)


def test_base_cover_scales_genus_and_euler():
    inv = circle_bundle(2, -1)
    cover = base_cover(inv, 5)
    assert cover.genus == 5 * (2 - 1) + 1
    assert euler_number(cover) == -5


@given(st.integers(2, 5), st.integers(1, 6), st.integers(1, 5))
def test_base_cover_multiplies_chi(genus, euler, degree):
    inv = circle_bundle(genus, euler)
    assert orbifold_chi(base_cover(inv, degree)) == degree * orbifold_chi(inv)
