"""The exact text of each public refusal that no other in-process test
reaches: one row per refusal, each built from a valid call with one
fault."""

import dataclasses
import random
import sys
from fractions import Fraction

import pytest

from repvol.ehn import VolumeWitness, foliation_exists, spectrum_contains, witnesses_for
from repvol.exact import ExactVolume, GaussianRational, NumericVolume, PiScalar, Refusal, _shown, render_volume, volume_sum
from repvol.jsj import (
    Edge,
    FilledSeifert,
    GraphManifoldSpec,
    Piece,
    SmallImage,
    additivity_sum,
    load_graph_document,
    motegi_case,
    motegi_spec,
    rw_consistency,
    validate_spec,
)
from repvol.liecs import (
    ExteriorForm,
    GramForm,
    LieAlgebraSpec,
    algebra_from_json,
    bracket_two_form,
    d,
    exactness_split,
    is_ad_invariant,
    mc_differential,
    sl2c_algebra,
)
from repvol.seifert import SeifertInvariants, base_cover, circle_bundle, dehn_fill, fiber_cover, parse_seifert

ONE = PiScalar.of(1)
ZERO = PiScalar.of(0)


def _algebra(*brackets, basis=("X", "Y")):
    return lambda: LieAlgebraSpec(basis=basis, brackets=brackets, check_jacobi=False)


def _form(dim, degree, *terms):
    return lambda: ExteriorForm(dim, degree, terms)


def _mono(dim, *indices):
    return ExteriorForm.monomial(dim, indices)


def _json(brackets, basis=("X", "Y")):
    return lambda: algebra_from_json({"basis": list(basis), "brackets": brackets})


def _hyperbolic_pair(**edge):
    """Two labelled hyperbolic pieces glued along slot t, the edge's
    other fields given."""
    pieces = tuple(Piece(id=name, kind="hyperbolic", slots=("t",), label="h") for name in "PQ")
    glued = Edge(a=("P", "t"), b=("Q", "t"), gluing=((0, 1), (1, 0)), **edge)
    return GraphManifoldSpec(pieces, (glued,))


def _filled_pair():
    """Two genus-1 pieces glued so that both kill (2, 1), as in the README."""
    seifert = SeifertInvariants(genus=1, pairs=((2, 1),), boundary_count=1)
    pieces = tuple(Piece(id=name, kind="seifert", slots=("t",), seifert=seifert) for name in "PQ")
    glued = Edge(a=("P", "t"), b=("Q", "t"), gluing=((3, -4), (2, -3)), killed_slope=(2, 1))
    return GraphManifoldSpec(pieces, (glued,))


def _witness(**changes):
    """A witness of 4 on (2; 1), with ``changes`` to its fields."""
    witness = witnesses_for(parse_seifert("(2; 1)"), Fraction(4))[0]
    fields = {name: getattr(witness, name) for name in witness.__match_args__}
    return lambda: VolumeWitness(**{**fields, **changes})


@dataclasses.dataclass(frozen=True)
class Unknown:
    """An assignment of no kind ``additivity_sum`` knows."""

    piece_id: str


REFUSALS = {
    # LieAlgebraSpec and index_of
    "basis_names_repeated": (_algebra(basis=("X", "X")), "basis names must be distinct"),
    "bracket_pair_out_of_range": (_algebra(((0, 2), (ONE, ZERO))), "bracket pair (0, 2) out of range or unordered"),
    "bracket_pair_unordered": (_algebra(((1, 0), (ONE, ZERO))), "bracket pair (1, 0) out of range or unordered"),
    "bracket_repeated": (_algebra(((0, 1), (ONE, ZERO)), ((0, 1), (ZERO, ONE))), "duplicate bracket entry for (0, 1)"),
    # every listed pair is remembered, a zero bracket's too, so no order drops one listing
    "bracket_repeated_zero_first": (_algebra(((0, 1), (ZERO, ZERO)), ((0, 1), (ZERO, ONE))), "duplicate bracket entry for (0, 1)"),
    "bracket_repeated_zero_last": (_algebra(((0, 1), (ZERO, ONE)), ((0, 1), (ZERO, ZERO))), "duplicate bracket entry for (0, 1)"),
    "bracket_repeated_zeros": (_algebra(((0, 1), (ZERO, ZERO)), ((0, 1), (ZERO, ZERO))), "duplicate bracket entry for (0, 1)"),
    "bracket_vector_length": (_algebra(((0, 1), (ONE,))), "bracket vector for (0, 1) has wrong length"),
    "constant_with_pi": (_algebra(((0, 1), (PiScalar.of(1, pi_power=1), ZERO))), "structure constants must be pi-free"),
    "index_of_unknown_name": (lambda: sl2c_algebra().index_of("Q"), "unknown basis element 'Q'"),
    # index integers by the one integer rule: a float, a bool or a string is refused
    "bracket_pair_float": (_algebra(((0.0, 1), (ONE, ZERO))), "brackets[0][0][0] 0.0 is not an integer"),
    "bracket_pair_bool": (_algebra(((0, True), (ONE, ZERO))), "brackets[0][0][1] True is not an integer"),
    "mc_differential_bool": (lambda: mc_differential(sl2c_algebra(), True), "basis index True is not an integer"),
    "mc_differential_float": (lambda: mc_differential(sl2c_algebra(), 1.0), "basis index 1.0 is not an integer"),
    "bracket_two_form_string": (lambda: bracket_two_form(sl2c_algebra(), "1"), "basis index '1' is not an integer"),
    "bracket_index_float": (lambda: sl2c_algebra().bracket(0.0, 1), "basis index 0.0 is not an integer"),
    "bracket_index_bool": (lambda: sl2c_algebra().bracket(True, 2), "basis index True is not an integer"),
    "bracket_index_range": (lambda: sl2c_algebra().bracket(5, 7), "basis index 5 out of range"),
    "bracket_index_negative": (lambda: sl2c_algebra().bracket(0, -1), "basis index -1 out of range"),
    # ExteriorForm and its operators
    "form_degree_negative": (_form(3, -1), "degree -1 must be non-negative"),
    "form_dim_negative": (_form(-1, 0), "dim -1 must be non-negative"),
    "form_dim_float": (_form(3.0, 1), "dim 3.0 is not an integer"),
    "form_degree_bool": (_form(3, True, ((0,), 1)), "degree True is not an integer"),
    "form_index_float": (_form(3, 1, ((0.0,), 1)), "terms[0][0][0] 0.0 is not an integer"),
    "form_index_bool": (_form(3, 2, ((0, 2), 1), ((0, True), 1)), "terms[1][0][1] True is not an integer"),
    "form_index_degree": (_form(3, 2, ((0,), 1)), "index tuple (0,) has wrong degree"),
    "form_indices_decreasing": (_form(3, 2, ((1, 0), 1)), "index tuple (1, 0) must be strictly increasing"),
    "form_indices_repeated": (_form(3, 2, ((1, 1), 1)), "index tuple (1, 1) must be strictly increasing"),
    "plus_dimension": (lambda: _mono(3, 0) + _mono(4, 0), "forms live on algebras of different dimension"),
    "minus_dimension": (lambda: _mono(3, 0) - _mono(4, 0), "forms live on algebras of different dimension"),
    "wedge_dimension": (lambda: _mono(3, 0).wedge(_mono(4, 1)), "forms live on algebras of different dimension"),
    "plus_degree": (lambda: _mono(3, 0) + _mono(3, 0, 1), "degree mismatch: 1 vs 2"),
    "minus_degree": (lambda: _mono(3, 0, 1) - _mono(3, 2), "degree mismatch: 2 vs 1"),
    "d_dimension": (lambda: d(sl2c_algebra(), _mono(4, 0)), "form dimension does not match the algebra"),
    "gram_dimension": (lambda: is_ad_invariant(sl2c_algebra(), GramForm(((1,),))), "Gram dimension does not match the algebra"),
    "gram_not_square": (lambda: GramForm(((1, 0),)), "Gram matrix must be square"),
    "split_not_a_three_form": (
        lambda: exactness_split(sl2c_algebra(), _mono(3, 0), ExteriorForm.zero(3, 1)),
        "exactness_split expects 3-forms",
    ),
    # algebra_from_json
    "json_basis_empty": (_json([], basis=()), "basis must not be empty"),
    "json_bracket_with_itself": (_json([["X", "X", {}]]), "brackets[0]: bracket [X, X] must be zero, not listed"),
    "json_coefficient_name": (_json([["X", "Y", {"Q": 1}]]), "brackets[0][2]: entry uses unknown basis names ('Q')"),
    # jsj
    "piece_unknown": (lambda: motegi_spec(2, 3, 2, 5).piece("E3"), "unknown piece 'E3'"),
    "additivity_fillings": (
        lambda: additivity_sum(
            _filled_pair(),
            [FilledSeifert(piece_id="P", fillings={"u": (2, 1)}, coeff=Fraction(1, 4)), SmallImage(piece_id="Q")],
        ),
        "piece P: fillings must cover slots ['t']",
    ),
    "additivity_unknown_assignment": (
        lambda: additivity_sum(_hyperbolic_pair(killed_slope=(1, 0)), [SmallImage("P"), Unknown("Q")]),
        "unknown assignment Unknown(piece_id='Q')",
    ),
    "motegi_second_gcd": (lambda: motegi_spec(2, 3, 2, 4), "gcd(p2, q2) must be 1, got gcd(2, 4)"),
    "motegi_case_fraction": (lambda: motegi_case(2.5, 3, 2, 5), "p1 2.5 is not an integer"),
    "motegi_case_bool": (lambda: motegi_case(True, 3, 2, 5), "p1 True is not an integer"),
    "motegi_spec_fraction": (lambda: motegi_spec(2, 3, 2.5, 5), "p2 2.5 is not an integer"),
    "motegi_spec_bool": (lambda: motegi_spec(2, 3, 2, True), "q2 True is not an integer"),
    # seifert covers
    "fiber_cover_degree": (lambda: fiber_cover(circle_bundle(1, 2), 0), "cover degree must be a positive integer, got 0"),
    "base_cover_degree": (lambda: base_cover(circle_bundle(1, 2), -1), "cover degree must be a positive integer, got -1"),
    "fiber_cover_fraction": (
        lambda: fiber_cover(circle_bundle(1, 5), 2.5),
        "cover degree must be a positive integer, got 2.5",
    ),
    "fiber_cover_bool": (lambda: fiber_cover(circle_bundle(1, 5), True), "cover degree must be a positive integer, got True"),
    "base_cover_string": (lambda: base_cover(circle_bundle(1, 5), "5"), "cover degree must be a positive integer, got '5'"),
    "base_cover_genus": (lambda: base_cover(circle_bundle(0, 2), 2), "base_cover requires base genus >= 1"),
    # ehn
    "witness_length": (_witness(n_values=(0, 0)), "witness length does not match exceptional data"),
    "witness_coefficient": (_witness(coeff=Fraction(3)), "witness coefficient does not match its data"),
    # exact
    "volume_sum_not_a_volume": (lambda: volume_sum([ExactVolume(Fraction(1)), 1]), "not a volume value: 1"),
    "volume_sum_past_float": (
        lambda: volume_sum([NumericVolume(1e308)] * 2),
        "volume is too large for a float: over 1.79769e+308",
    ),
    "render_not_a_volume": (lambda: render_volume(Fraction(1)), "not a volume value: Fraction(1, 1)"),
    # the texts a graph document's direct numeric volume is refused with
    "numeric_volume_nan": (lambda: NumericVolume(float("nan")), "bad numeric nan"),
    "numeric_volume_infinite": (lambda: NumericVolume(float("inf")), "bad numeric inf"),
    "numeric_volume_bool": (lambda: NumericVolume(True), "bad numeric True"),
    "numeric_volume_string": (lambda: NumericVolume("x"), "bad numeric 'x'"),
    "numeric_volume_list": (lambda: NumericVolume([1]), "bad numeric [1]"),
    "numeric_volume_past_float": (
        lambda: NumericVolume(10**400),
        "bad numeric 10000000000000000000000000000000… (401 characters)",
    ),
    # an integer reader refuses a float infinity as it refuses NaN
    "genus_infinite": (lambda: SeifertInvariants(float("inf")), "genus inf is not an integer"),
    # dehn_fill reads its fillings as the constructor reads pairs
    "dehn_fill_float": (lambda: dehn_fill(1, 1, [(2.5, 1)]), "fillings[0][0] 2.5 is not an integer"),
    "dehn_fill_not_a_pair": (lambda: dehn_fill(1, 1, [5]), "fillings [5] are not all [a, b]"),
    "dehn_fill_lowest_terms": (lambda: dehn_fill(1, 1, [(4, 2)]), "filling 1: 2/4 is not in lowest terms"),
    # a whole list value that is no list, read by the one whole-list rule
    "pairs_not_a_list": (lambda: SeifertInvariants(1, 5), "pairs 5 are not all [a, b]"),
    "dehn_fill_not_a_list": (lambda: dehn_fill(1, 1, 5), "fillings 5 are not all [a, b]"),
    "fillings_not_a_list": (lambda: FilledSeifert("P", 5, 1), "fillings 5 are not all [slot, [a, b]]"),
    # a caller's rational with an exponent, which Fraction would expand, is
    # refused as the CLI's options refuse it
    "exponent_exact_volume": (lambda: ExactVolume("1e999"), "not a rational number: '1e999'"),
    "exponent_filled_coeff": (
        lambda: FilledSeifert("P", {"t": (2, 1)}, "1E999"),
        "not a rational number: '1E999'",
    ),
    "exponent_gaussian": (lambda: GaussianRational("1e999"), "not a rational number: '1e999'"),
    "exponent_pi_scalar": (lambda: PiScalar.of("-1e999"), "not a rational number: '-1e999'"),
    "exponent_ratio": (
        lambda: rw_consistency(["a", "b"], [("a", "b", "1e999")]),
        "not a rational number: '1e999'",
    ),
    "exponent_slope": (lambda: foliation_exists(1, ["1/2", "1e999"]), "not a rational number: '1e999'"),
    "exponent_contains": (
        lambda: spectrum_contains(parse_seifert("(2; 1)"), "1e999"),
        "not a rational number: '1e999'",
    ),
    "exponent_witnesses": (
        lambda: witnesses_for(parse_seifert("(2; 1)"), "4e0"),
        "not a rational number: '4e0'",
    ),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_text(call, message):
    with pytest.raises(Refusal) as info:
        call()
    assert str(info.value) == message


def test_validate_spec_lists_the_problems_of_a_piece_and_a_side_b_slope():
    missing = Piece(id="S", kind="seifert", slots=())
    assert validate_spec(GraphManifoldSpec((missing,), ())) == ["piece S: seifert piece without invariants"]
    assert validate_spec(_hyperbolic_pair(killed_slope_b=(2, 4))) == ["edge 0: killed_slope_b (2, 4) is not primitive"]


def test_volume_values_convert_as_given():
    assert ExactVolume(1) == ExactVolume(Fraction(1))
    assert NumericVolume(2.5).to_float() == 2.5


def test_numeric_volume_stores_a_float():
    assert NumericVolume(3).value == 3.0
    assert type(NumericVolume(3).value) is float
    assert NumericVolume(-2).value == -2.0  # kept, as graph documents keep it


# ---------------------------------------------------------------- one string path for rationals

SPECTRUM = parse_seifert("(1; 1/2, 1/2)")
# Each library reader of a caller's rational, as the value it read.
STRING_READERS = {
    "ExactVolume": lambda s: ExactVolume(s).coeff,
    "GaussianRational": lambda s: GaussianRational(s).re,
    "PiScalar.of": lambda s: PiScalar.of(s).coeff.re,
    "FilledSeifert": lambda s: FilledSeifert("P", {}, s).coeff,
    # a - b - a closes with product s, which is 1 exactly when consistent
    "rw_consistency": lambda s: rw_consistency(["a", "b"], [("a", "b", s), ("b", "a", 1)]).product or 1,
    "foliation_exists": lambda s: foliation_exists(1, [s, -1]),
    "spectrum_contains": lambda s: spectrum_contains(SPECTRUM, s),
    "witnesses_for": lambda s: witnesses_for(SPECTRUM, s),
}


def _outcome(read, value):
    """What ``read`` gives for ``value``, or the text of its refusal."""
    try:
        return read(value)
    except ValueError as exc:  # such as a value outside the spectrum, named as read
        return str(exc)


def _document_coeff(s):
    doc = {"pieces": [], "assignments": [{"piece": "P", "assign": "filled", "fillings": [], "coeff": s}]}
    return load_graph_document(doc).cases[0][2][0].coeff


def _strings():
    """Seeded strings, each with the rational it spells (or ``None``) and
    the text its refusal ends with."""
    rng = random.Random(41)
    rows = []
    for k in range(12):
        n, q = rng.randint(1, 10**6), rng.randint(1, 999)
        rows += [
            (f"integer-{k}", str(n), Fraction(n)),
            (f"decimal-{k}", f"{n}.{q:03d}", Fraction(n * 1000 + q, 1000)),
            (f"ratio-{k}", f"{n}/{q}", Fraction(n, q)),
            (f"junk-{k}", "".join(rng.choices("xyzq!?/ .", k=rng.randint(1, 9))), None),
        ]
    rows += [("member", "1/4", Fraction(1, 4)), ("member-decimal", "1.00", Fraction(1))]
    rows += [("exponent", "1e999", None), ("exponent-one", "4e0", None), ("zero-denominator", "1/0", None)]
    rows += [("x-100000", "x" * 100_000, None), ("junk-100000", "".join(rng.choices("xyzq!?", k=100_000)), None)]
    digits = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=4999))
    too_long = f"the value is too long to read: over {sys.get_int_max_str_digits()} digits"
    return [pytest.param(text, value, _shown(text), id=name) for name, text, value in rows] + [
        pytest.param(digits, None, too_long, id="digits-5000")
    ]


@pytest.mark.parametrize("text, value, tail", _strings())
def test_one_string_path_for_every_rational_reader(text, value, tail):
    # accepted text reads as its rational everywhere; refused text gets one
    # text in every library reader, and a document's coeff the same after
    # its path, shortened
    if value is not None:
        for name, read in STRING_READERS.items():
            assert _outcome(read, text) == _outcome(read, value), name
        assert _document_coeff(text) == value
        return
    refusals = {}
    for name, read in {**STRING_READERS, "document coeff": _document_coeff}.items():
        with pytest.raises(ValueError) as info:
            read(text)
        refusals[name] = str(info.value)
        assert len(refusals[name]) < 200, name
    document = refusals.pop("document coeff")
    assert set(refusals.values()) == {f"not a rational number: {tail}"}
    assert document in (f"assignments[0]: malformed entry (bad coeff {tail})", f"assignments[0]: {tail}")
