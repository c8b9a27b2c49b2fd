"""Tests for the exact scalar tower: gaussian rationals, pi-scalars,
and the volume value types."""

import copy
import enum
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repvol.exact import (
    GAUSSIAN_I,
    GAUSSIAN_ONE,
    GAUSSIAN_ZERO,
    PI_ONE,
    PI_ZERO,
    ExactVolume,
    GaussianRational,
    NumericVolume,
    PiScalar,
    _fraction,
    _shown,
    render_volume,
    volume_sum,
)
from repvol.covers import TorusCoverDatum, colored_merge_counts, cover_intersection, merge_copy_counts
from repvol.ehn import foliation_exists
from repvol.jsj import Edge, FilledSeifert, motegi_case, motegi_spec
from repvol.seifert import SeifertInvariants, base_cover, circle_bundle, dehn_fill, fiber_cover

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=20
)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_shown_shortens_only_strings_over_64_characters():
    assert _shown("9" * 64) == repr("9" * 64)
    assert _shown("it's" * 20) == '"' + "it's" * 8 + '…" (80 characters)'
    assert _shown("y" * 65) == f"'{'y' * 32}…' (65 characters)"
    assert _shown(1e-07) == "1e-07"
    assert _shown(["x"] * 40) == "['x', 'x', 'x', 'x', 'x', 'x', '… (200 characters)"


@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert x + (y + z) == (x + y) + z
    assert x + GAUSSIAN_ZERO == x
    assert x * GAUSSIAN_ONE == x


@given(gaussians, gaussians)
def test_gaussian_division_inverts_multiplication(x, y):
    if not y:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert (x / y) * y == x


def test_gaussian_i_squares_to_minus_one():
    assert GAUSSIAN_I * GAUSSIAN_I == GaussianRational(Fraction(-1))


def test_gaussian_str():
    assert str(GaussianRational(Fraction(1, 2))) == "1/2"
    assert str(GaussianRational(Fraction(0), Fraction(-3))) == "-3i"
    assert str(GaussianRational(Fraction(1), Fraction(2))) == "(1+2i)"
    assert str(GaussianRational(Fraction(1), Fraction(-2))) == "(1-2i)"


def test_pi_scalar_zero_is_canonical():
    # zero carries power 0 no matter how it was made
    z = PiScalar(GAUSSIAN_ZERO, 5)
    assert z == PI_ZERO
    assert z.pi_power == 0
    assert not z
    assert PiScalar(0, 5) == PI_ZERO
    assert len({z, PiScalar(0, 5), PI_ZERO, PiScalar(GAUSSIAN_ZERO, -3)}) == 1
    assert hash(PiScalar(0, 5)) == hash(PI_ZERO)


def test_pi_scalar_add_same_power():
    a = PiScalar.of(Fraction(1, 3), pi_power=2)
    b = PiScalar.of(Fraction(2, 3), pi_power=2)
    assert a + b == PiScalar.of(1, pi_power=2)


def test_pi_scalar_add_zero_any_power():
    a = PiScalar.of(Fraction(5), pi_power=-2)
    assert a + PI_ZERO == a
    assert PI_ZERO + a == a


def test_pi_scalar_add_mismatched_powers_raises():
    a = PiScalar.of(1, pi_power=1)
    b = PiScalar.of(1, pi_power=2)
    with pytest.raises(ValueError, match="pi-power mismatch"):
        a + b


def test_pi_scalar_mul_adds_powers():
    a = PiScalar.of(Fraction(3), pi_power=1)
    b = PiScalar.of(Fraction(1, 2), pi_power=-3)
    assert a * b == PiScalar.of(Fraction(3, 2), pi_power=-2)
    assert a / b == PiScalar.of(6, pi_power=4)


def test_pi_scalar_cancellation_to_zero():
    a = PiScalar.of(Fraction(2), pi_power=7)
    assert (a - a) == PI_ZERO
    assert (a - a).pi_power == 0


def test_pi_scalar_str():
    assert str(PI_ZERO) == "0"
    assert str(PI_ONE) == "1"
    assert str(PiScalar.of(1, pi_power=-2)) == "pi^-2"
    assert str(PiScalar.of(Fraction(3, 2), pi_power=-2)) == "3/2*pi^-2"
    assert str(PiScalar.of(2, pi_power=1)) == "2*pi"


@given(st.integers(-5, 5), st.integers(-5, 5), rationals, rationals)
def test_pi_scalar_mul_power_arithmetic(p, q, x, y):
    a = PiScalar.of(x, pi_power=p)
    b = PiScalar.of(y, pi_power=q)
    prod = a * b
    if x and y:
        assert prod.pi_power == p + q
    else:
        assert prod == PI_ZERO


def test_exact_volume_rejects_negative():
    with pytest.raises(ValueError):
        ExactVolume(Fraction(-1, 4))


def test_render_volume_exact():
    assert render_volume(ExactVolume(Fraction(0))) == "0"
    assert render_volume(ExactVolume(Fraction(1, 4))) == "1/4 * 4*pi^2"
    assert render_volume(ExactVolume(Fraction(1))) == "1 * 4*pi^2"


def test_render_volume_decimal_suffix():
    text = render_volume(ExactVolume(Fraction(1)), decimal=True)
    assert text.startswith("1 * 4*pi^2 = ")
    assert abs(float(text.split("= ")[1]) - 39.4784176043574) < 1e-9


def test_render_volume_numeric():
    assert render_volume(NumericVolume(2.029883212819)) == "2.02988321282"


def test_volume_sum_stays_exact():
    total = volume_sum([ExactVolume(Fraction(1, 4)), ExactVolume(Fraction(1))])
    assert total == ExactVolume(Fraction(5, 4))


def test_volume_sum_mixes_to_numeric():
    total = volume_sum([ExactVolume(Fraction(1)), NumericVolume(1.0)])
    assert isinstance(total, NumericVolume)
    assert abs(total.value - (39.4784176043574 + 1.0)) < 1e-9


def test_volume_sum_empty_is_exact_zero():
    assert volume_sum([]) == ExactVolume(Fraction(0))


# ---------------------------------------------------------------- scalar contract


def test_int_fraction_and_gaussian_inputs_normalize_alike():
    gaussians = [GaussianRational(2), GaussianRational(Fraction(2)), GaussianRational.of(2)]
    assert all(g == gaussians[0] and hash(g) == hash(gaussians[0]) for g in gaussians)
    assert all(type(g.re) is Fraction and type(g.im) is Fraction for g in gaussians)
    scalars = [
        PiScalar(2, 1),
        PiScalar(Fraction(2), 1),
        PiScalar(GaussianRational(2), 1),
        PiScalar.of(2, pi_power=1),
        PiScalar.of(Fraction(2), pi_power=1),
        PiScalar.of(GaussianRational(2), pi_power=1),
    ]
    assert all(s == scalars[0] and hash(s) == hash(scalars[0]) for s in scalars)
    assert all(type(s.coeff) is GaussianRational for s in scalars)


def test_scalars_are_immutable():
    g = GaussianRational(1, 2)
    p = PiScalar(g, 1)
    for obj, field in ((g, "re"), (g, "im"), (p, "coeff"), (p, "pi_power")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    with pytest.raises(AttributeError):
        g.extra = 1
    assert g == GaussianRational(1, 2) and p == PiScalar(GaussianRational(1, 2), 1)


def test_scalar_repr_copy_and_pickle():
    g = GaussianRational(Fraction(1, 2), -3)
    p = PiScalar(g, -2)
    assert repr(g) == "GaussianRational(re=Fraction(1, 2), im=Fraction(-3, 1))"
    assert repr(p) == f"PiScalar(coeff={g!r}, pi_power=-2)"
    for value in (g, p):
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


def test_post_init_hook_sees_every_arithmetic_result(monkeypatch):
    # The benchmark counts scalar constructions by patching __post_init__
    # on the class; every result must be built through it.
    seen = set()
    for cls in (GaussianRational, PiScalar):
        original = cls.__post_init__

        def counted(self, _original=original):
            seen.add(id(self))
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    x, y = GaussianRational(1, 2), GaussianRational(Fraction(1, 3))
    a, b = PiScalar(x, 1), PiScalar(y, 2)
    results = [
        x + y, x - y, x * y, x / y, -x, 1 - x, 2 / x, GaussianRational.of(3), x.conjugate(),
        a + a, a - a, a * b, a / b, -a, 1 - PiScalar(y), PiScalar.of(Fraction(1, 2)), PiScalar.of(2, pi_power=1),
    ]
    for value in results:
        assert id(value) in seen, value


def test_small_ints_read_one_shared_scalar_each(monkeypatch):
    # PiScalar.of(k) for an int |k| <= 16 returns a scalar built once, at
    # import; it cannot be told from a fresh one but by identity.
    for k in range(-16, 17):
        shared, fresh = PiScalar.of(k), PiScalar(GaussianRational(k))
        assert PiScalar.of(k) is shared
        assert shared == fresh and hash(shared) == hash(fresh) and repr(shared) == repr(fresh)
        for twin in (copy.copy(shared), copy.deepcopy(shared), pickle.loads(pickle.dumps(shared))):
            assert twin == fresh and hash(twin) == hash(fresh) and repr(twin) == repr(fresh)
    assert PiScalar.of(0) is PI_ZERO
    # every other input is built through __post_init__, as before
    built = []
    original = PiScalar.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PiScalar, "__post_init__", counted)
    others = [PiScalar.of(3, pi_power=1), PiScalar.of(True), PiScalar.of(Fraction(3)), PiScalar.of(17), PiScalar.of(-17)]
    assert len(built) == len(others) and all(b is x for b, x in zip(built, others))
    assert [(x.coeff, x.pi_power) for x in others] == [
        (GaussianRational(3), 1),
        (GAUSSIAN_ONE, 0),
        (GaussianRational(3), 0),
        (GaussianRational(17), 0),
        (GaussianRational(-17), 0),
    ]


# ---------------------------------------------------------------- differential check of GaussianRational
#
# A GaussianRational is held as three ints; the reference below is the
# plain (re, im) pair of Fractions, with the operations written out.


def ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    if not norm:
        raise ZeroDivisionError
    return (x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm


def ref_str(x):
    re, im = x
    if not im:
        return str(re)
    if not re:
        return f"{im}i"
    return f"({re}{'+' if im > 0 else '-'}{abs(im)}i)"


def pair(g):
    """The (re, im) pair of a result, checking that it is a normalized
    GaussianRational: equal, with an equal hash, to the value built from
    that pair."""
    assert type(g) is GaussianRational
    assert type(g.re) is Fraction and type(g.im) is Fraction
    twin = GaussianRational(g.re, g.im)
    assert g == twin and hash(g) == hash(twin)
    return g.re, g.im


wide_rationals = st.fractions(max_denominator=10**6) | st.integers(-(10**9), 10**9).map(Fraction)
wide_gaussians = st.tuples(wide_rationals, wide_rationals)
# an int or a Fraction operand, possibly zero
plain_operands = st.integers(-(10**6), 10**6) | st.fractions(max_denominator=10**4) | st.just(0)


@given(wide_gaussians, wide_gaussians)
def test_gaussian_arithmetic_matches_fraction_pairs(x, y):
    gx, gy = GaussianRational(*x), GaussianRational(*y)
    assert pair(gx) == x and pair(gy) == y
    assert pair(gx + gy) == ref_add(x, y)
    assert pair(gx - gy) == ref_sub(x, y)
    assert pair(gx * gy) == ref_mul(x, y)
    assert pair(-gx) == (-x[0], -x[1])
    assert pair(gx.conjugate()) == (x[0], -x[1])
    if y == (0, 0):
        with pytest.raises(ZeroDivisionError, match="^division by zero gaussian rational$"):
            gx / gy
    else:
        assert pair(gx / gy) == ref_div(x, y)


@given(wide_gaussians, plain_operands)
def test_gaussian_mixed_operands_match_fraction_pairs(x, k):
    g, r = GaussianRational(*x), (Fraction(k), Fraction(0))
    assert pair(g + k) == pair(k + g) == ref_add(x, r)
    assert pair(g - k) == ref_sub(x, r)
    assert pair(k - g) == ref_sub(r, x)
    assert pair(g * k) == pair(k * g) == ref_mul(x, r)
    for divide, num, den in ((lambda: g / k, x, r), (lambda: k / g, r, x)):
        if den == (0, 0):
            with pytest.raises(ZeroDivisionError, match="^division by zero gaussian rational$"):
                divide()
        else:
            assert pair(divide()) == ref_div(num, den)


@given(wide_gaussians, wide_gaussians)
def test_gaussian_equality_hash_and_text_match_fraction_pairs(x, y):
    gx, gy = GaussianRational(*x), GaussianRational(*y)
    assert (gx == gy) == (x == y)
    assert gx == GaussianRational.of(x[0]) + GaussianRational(0, x[1])
    assert hash(gx) == hash(x)
    assert bool(gx) == (x != (0, 0))
    assert repr(gx) == f"GaussianRational(re={x[0]!r}, im={x[1]!r})"
    assert str(gx) == ref_str(x)
    for clone in (pickle.loads(pickle.dumps(gx)), copy.copy(gx), copy.deepcopy(gx)):
        assert clone == gx and hash(clone) == hash(gx) and repr(clone) == repr(gx)
    # a GaussianRational never equals a plain number, even an equal one
    assert not gx == x[0] and not x[0] == gx


@given(wide_gaussians)
def test_gaussian_fields_cannot_be_set(x):
    g = GaussianRational(*x)
    for name in ("re", "im", "_a", "_b", "_den", "other"):
        with pytest.raises(AttributeError):
            setattr(g, name, 1)
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert pair(g) == x


# ---------------------------------------------------------------- _fraction

# negative, zero and beyond-64-bit ints; the denominator is positive
wide_ints = st.one_of(st.integers(-50, 50), st.integers(-(2**130), 2**130))
wide_denominators = st.one_of(st.integers(1, 50), st.integers(1, 2**130))


@given(wide_ints, wide_denominators, wide_ints, wide_denominators)
def test_fraction_constructor_matches_fraction(n, d, m, k):
    built, plain = _fraction(n, d), Fraction(n, d)
    assert type(built) is Fraction
    assert built == plain and hash(built) == hash(plain)
    assert (repr(built), str(built)) == (repr(plain), str(plain))
    assert (built.numerator, built.denominator) == (plain.numerator, plain.denominator)
    for clone in (pickle.loads(pickle.dumps(built)), copy.copy(built), copy.deepcopy(built)):
        assert type(clone) is Fraction and repr(clone) == repr(plain)
    other = Fraction(m, k)
    for result, expected in (
        (built + other, plain + other),
        (built - other, plain - other),
        (built * other, plain * other),
        (-built, -plain),
        (abs(built), abs(plain)),
        (built + m, plain + m),
        (m * built, m * plain),
    ):
        assert repr(result) == repr(expected)
    if m:
        assert repr(built / other) == repr(plain / other)
    assert (built < other, built == other, bool(built)) == (plain < other, plain == other, bool(plain))
    assert (math.floor(built), math.ceil(built), float(built)) == (math.floor(plain), math.ceil(plain), float(plain))


# ---------------------------------------------------------------- the integer rule


class _Small(enum.IntEnum):
    TWO = 2


# values that stand for an integer, or look like one, but are no int
NOT_INTEGERS = {
    "digit_string": "2",
    "spaced_string": " 3 ",
    "integral_float": 2.0,
    "float": 2.5,
    "bool": True,
    "none": None,
    "nan": math.nan,
    "infinity": math.inf,
    "fraction": Fraction(2),
    "int_enum": _Small.TWO,
    "long_string": "9" * 5000,
}
_EDGE = (("P", "t"), ("Q", "t"))
# every caller of _integer: a build that puts the value in one place, and
# the name of that place in the refusal
INTEGER_READERS = {
    "genus": (lambda v: SeifertInvariants(v), "genus"),
    "boundary_count": (lambda v: SeifertInvariants(1, (), v), "boundary_count"),
    "pair_multiplicity": (lambda v: SeifertInvariants(1, [(2, 1), (v, 1)]), "pairs[1][0]"),
    "pair_numerator": (lambda v: SeifertInvariants(1, [(3, v)]), "pairs[0][1]"),
    "gluing": (lambda v: Edge(*_EDGE, ((0, 1), (1, v))), "gluing[1][1]"),
    "killed_slope": (lambda v: Edge(*_EDGE, ((0, 1), (1, 0)), killed_slope=(v, 1)), "killed_slope[0]"),
    "killed_slope_b": (lambda v: Edge(*_EDGE, ((0, 1), (1, 0)), killed_slope_b=(1, v)), "killed_slope_b[1]"),
    "filled_seifert": (lambda v: FilledSeifert("P", [("t", (v, 1))], 0), "fillings['t'][0]"),
    "dehn_fill_genus": (lambda v: dehn_fill(v, 1, [(2, 1)]), "genus"),
    "dehn_fill_slope": (lambda v: dehn_fill(1, 1, [(3, v)]), "fillings[0][1]"),
    "circle_bundle_genus": (lambda v: circle_bundle(v, 2), "genus"),
    "circle_bundle_euler": (lambda v: circle_bundle(1, v), "euler"),
    "motegi_case": (lambda v: motegi_case(v, 3, 2, 5), "p1"),
    "motegi_spec": (lambda v: motegi_spec(2, 3, v, 5), "p2"),
    "foliation_exists": (lambda v: foliation_exists(v, []), "genus"),
}
# every caller of _positive, which reads by the same rule before the sign
POSITIVE_READERS = {
    "torus_degree": (lambda v: TorusCoverDatum(v, 1), "torus degree"),
    "curve_degree": (lambda v: TorusCoverDatum(4, v), "curve degree"),
    "intersection": (lambda v: cover_intersection(v, 1, 1, 1), "intersection number"),
    "degree_f": (lambda v: cover_intersection(1, v, 1, 1), "degree of the f-cover"),
    "degree_s": (lambda v: cover_intersection(1, 1, v, 1), "degree of the s-cover"),
    "degree_torus": (lambda v: cover_intersection(2, 1, 1, v), "degree of the torus cover"),
    "merge_degree": (lambda v: merge_copy_counts([v], 1), "cover degree"),
    "merge_curve": (lambda v: merge_copy_counts([2], v), "curve degree"),
    "colored_k": (lambda v: colored_merge_counts([v], [1]), "k"),
    "colored_l": (lambda v: colored_merge_counts([1], [v]), "l"),
    "fiber_cover": (lambda v: fiber_cover(circle_bundle(1, 4), v), "cover degree"),
    "base_cover": (lambda v: base_cover(circle_bundle(1, 4), v), "cover degree"),
}


@pytest.mark.parametrize("value", NOT_INTEGERS.values(), ids=NOT_INTEGERS)
@pytest.mark.parametrize("reader", INTEGER_READERS, ids=str)
def test_an_integer_is_an_int_and_nothing_else(reader, value):
    # _integer converts nothing: no string, float, bool, None, Fraction or
    # int subclass reads as an integer, and each is refused with one text,
    # the value shortened as _shown shows it
    build, what = INTEGER_READERS[reader]
    with pytest.raises(TypeError) as info:
        build(value)
    assert str(info.value) == f"{what} {_shown(value)} is not an integer"
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("value", NOT_INTEGERS.values(), ids=NOT_INTEGERS)
@pytest.mark.parametrize("reader", POSITIVE_READERS, ids=str)
def test_a_positive_integer_is_a_positive_int(reader, value):
    build, name = POSITIVE_READERS[reader]
    with pytest.raises(ValueError) as info:
        build(value)
    assert str(info.value) == f"{name} must be a positive integer, got {_shown(value)}"
    assert len(str(info.value)) < 200


def test_every_reader_answers_on_ints():
    # the base values of both tables are valid, so each refusal above is the value's
    for build, _ in (*INTEGER_READERS.values(), *POSITIVE_READERS.values()):
        build(2)
