"""Symbolic layer: structure constants, exterior forms, the 3-form
identity for both canned algebras, and the characteristic-polynomial
coefficients."""

import itertools
import json
import operator
import pickle
import random
from fractions import Fraction
from functools import partial
from importlib import resources

import pytest
from dense_linalg import dense_echelon
from hypothesis import given, settings
from hypothesis import strategies as st

from repvol import liecs
from repvol.exact import GaussianRational, PI_ZERO, PiScalar
from repvol.liecs import (
    ExteriorForm,
    GramForm,
    JacobiViolation,
    LieAlgebraSpec,
    algebra_from_json,
    bracket_two_form,
    chern_poly_coeffs,
    cs_three_form,
    d,
    exactness_split,
    format_form,
    is_ad_invariant,
    iso_sl2r_algebra,
    iso_sl2r_gram,
    mc_differential,
    sl2c_algebra,
    sl2c_gram,
    validate_jacobi,
)
from repvol.liecs import _jacobi_triples

X, Y, Z, W = 0, 1, 2, 3


def mono(dim, indices, coeff=1):
    return ExteriorForm.monomial(dim, indices, coeff)


# ---------------------------------------------------------------- algebras


def test_iso_sl2r_bracket_table():
    spec = iso_sl2r_algebra()
    assert spec.basis == ("X", "Y", "Z", "W")

    def vec(**named):
        out = [PI_ZERO] * 4
        for name, value in named.items():
            out[spec.index_of(name)] = PiScalar.of(value)
        return tuple(out)

    assert spec.bracket(X, Y) == vec(Y=-2)
    assert spec.bracket(X, Z) == vec(Z=2)
    assert spec.bracket(X, W) == vec(Y=2, Z=2)
    assert spec.bracket(Y, Z) == vec(X=-1)
    assert spec.bracket(Y, W) == vec(X=-1)
    assert spec.bracket(Z, W) == vec(X=-1)
    # antisymmetry is derived, not stored
    assert spec.bracket(Y, X) == vec(Y=2)


def test_canned_algebras_satisfy_jacobi():
    assert validate_jacobi(iso_sl2r_algebra()) is None
    assert validate_jacobi(sl2c_algebra()) is None


def test_jacobi_violation_reported_with_first_triple():
    # corrupt [Y, Z] from -X to -2X: the (X, Y, Z) triple still closes
    # (that change only rescales the algebra), but (X, Y, W) breaks
    doc = {
        "basis": ["X", "Y", "Z", "W"],
        "brackets": [
            ["X", "Y", {"Y": -2}],
            ["X", "Z", {"Z": 2}],
            ["X", "W", {"Y": 2, "Z": 2}],
            ["Y", "Z", {"X": -2}],
            ["Y", "W", {"X": -1}],
            ["Z", "W", {"X": -1}],
        ],
    }
    spec = algebra_from_json(doc)
    violation = validate_jacobi(spec)
    assert isinstance(violation, JacobiViolation)
    assert violation.triple == ("X", "Y", "W")
    assert any(r for r in violation.residual)


def test_jacobi_violation_in_three_dimensions():
    # scaling only [X, Z] is not an automorphism: J(X, Y, Z) = -X
    doc = {
        "basis": ["X", "Y", "Z"],
        "brackets": [
            ["X", "Y", {"Y": -2}],
            ["X", "Z", {"Z": 3}],
            ["Y", "Z", {"X": -1}],
        ],
    }
    violation = validate_jacobi(algebra_from_json(doc))
    assert violation is not None
    assert violation.triple == ("X", "Y", "Z")
    assert [str(r) for r in violation.residual] == ["-1", "0", "0"]


def test_rescaled_bracket_still_satisfies_jacobi():
    # the corresponding single-bracket rescale of the 3-dim algebra is
    # isomorphic to the original, so it must validate cleanly
    doc = {
        "basis": ["X", "Y", "Z"],
        "brackets": [
            ["X", "Y", {"Y": -2}],
            ["X", "Z", {"Z": 2}],
            ["Y", "Z", {"X": -2}],
        ],
    }
    assert validate_jacobi(algebra_from_json(doc)) is None


def test_jacobi_violation_found_in_a_wide_table():
    # the scan skips triples whose three pairs all bracket to zero, and
    # still reports the first failing triple: sl2 on e1000..e1002 with
    # [X, Z] scaled, as in the three-dimensional case above
    n = 2000

    def vec(**named):
        return tuple(named.get(f"e{i}", 0) for i in range(n))

    spec = LieAlgebraSpec(
        basis=tuple(f"e{i}" for i in range(n)),
        brackets=(
            ((0, 1), vec(e1=-2)),
            ((1000, 1001), vec(e1001=-2)),
            ((1000, 1002), vec(e1002=3)),
            ((1001, 1002), vec(e1000=-1)),
        ),
        check_jacobi=False,
    )
    violation = validate_jacobi(spec)
    assert violation.triple == ("e1000", "e1001", "e1002")
    assert violation.residual == tuple(PiScalar.of(-1 if i == 1000 else 0) for i in range(n))


def test_lie_algebra_spec_rejects_non_jacobi_by_default():
    with pytest.raises(JacobiViolation):
        LieAlgebraSpec(
            basis=("A", "B", "C"),
            brackets=(
                ((0, 1), (PI_ZERO, PI_ZERO, PiScalar.of(1))),
                ((0, 2), (PiScalar.of(1), PI_ZERO, PI_ZERO)),
                ((1, 2), (PI_ZERO, PiScalar.of(1), PI_ZERO)),
            ),
        )


def test_an_empty_row_is_a_zero_bracket():
    # a row lists the nonzero constants of its bracket: an empty row, one of
    # zeros and a dense zero vector are the same zero bracket, not kept
    empty = LieAlgebraSpec(basis=("X", "Y"), brackets=(((0, 1), ()),))
    assert empty.brackets == ()
    assert empty.bracket(0, 1) == (PI_ZERO, PI_ZERO)
    for row in (((1, 0), (0, PI_ZERO)), (0, 0)):
        assert LieAlgebraSpec(basis=("X", "Y"), brackets=(((0, 1), row),)) == empty


def test_algebra_from_json_fraction_strings():
    doc = {"basis": ["A", "B"], "brackets": [["B", "A", {"A": "1/2"}]]}
    spec = algebra_from_json(doc)
    # stored under (A, B) with the sign flipped
    assert spec.bracket(0, 1) == (PiScalar.of(Fraction(-1, 2)), PI_ZERO)
    assert validate_jacobi(spec) is None


def test_algebra_from_json_reads_decimals_and_long_ints():
    # a JSON float reads through its repr, as a decimal string does
    doc = {"basis": ["A", "B"], "brackets": [["A", "B", {"A": 1.5, "B": "0.25"}]]}
    assert algebra_from_json(doc).bracket(0, 1) == (PiScalar.of(Fraction(3, 2)), PiScalar.of(Fraction(1, 4)))
    # more digits than int() converts to text: an int is read as itself
    long = 10**5000 + 1
    doc = {"basis": ["A", "B"], "brackets": [["A", "B", {"A": long}]]}
    assert algebra_from_json(doc).bracket(0, 1) == (PiScalar.of(long), PI_ZERO)


@pytest.mark.parametrize("name, build", [("sl2c.json", sl2c_algebra), ("iso_sl2r.json", iso_sl2r_algebra)])
def test_shipped_algebras_equal_the_built_ones(name, build):
    # check_jacobi differs by design: the loader leaves the check to its caller
    shipped = algebra_from_json(json.loads(resources.files("repvol").joinpath("data", name).read_text("utf-8")))
    built = build()
    assert (shipped.basis, shipped.brackets) == (built.basis, built.brackets)


def test_algebra_from_json_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown basis names"):
        algebra_from_json({"basis": ["A"], "brackets": [["A", "Q", {"A": 1}]]})


@pytest.mark.parametrize(
    "doc, path",
    [
        ({"brackets": []}, "basis: missing"),
        ({"basis": ["A", 1]}, "basis[1]: expected a string"),
        ({"basis": ["A", "B"], "brackets": {"A": 1}}, "brackets: expected a list"),
        ({"basis": ["A", "B"], "brackets": [["A", "B"]]}, "brackets[0]: bracket entry"),
        ({"basis": ["A", "B"], "brackets": [[["A"], "B", {}]]}, "brackets[0][0]: entry uses unknown"),
        ({"basis": ["A", "B"], "brackets": [["A", "B", {"A": "1/0"}]]}, "brackets[0][2].A: bad structure constant"),
        ({"basis": ["A", "B"], "brackets": [["A", "B", {"A": "1e999999999"}]]}, "brackets[0][2].A: bad"),
        ({"basis": ["A", "B"], "brackets": [["A", "B", {"A": True}]]}, "brackets[0][2].A: bad"),
    ],
)
def test_algebra_from_json_names_the_bad_path(doc, path):
    with pytest.raises(ValueError) as info:
        algebra_from_json(doc)
    assert str(info.value).startswith(path)


# ---------------------------------------------------------------- forms


def test_wedge_antisymmetry_and_sign():
    f = mono(4, (0,))
    g = mono(4, (1,))
    assert f.wedge(g) == mono(4, (0, 1))
    assert g.wedge(f) == mono(4, (0, 1), -1)
    assert f.wedge(f).is_zero()


def test_wedge_triple_associativity():
    a, b, c = mono(4, (0,)), mono(4, (2,)), mono(4, (1,))
    left = a.wedge(b).wedge(c)
    right = a.wedge(b.wedge(c))
    assert left == right == mono(4, (0, 1, 2), -1)


@given(
    st.lists(st.sampled_from([(0,), (1,), (2,), (3,)]), min_size=2, max_size=3),
    st.integers(-3, 3),
)
def test_wedge_scalar_linearity(indices, scale):
    forms = [mono(4, i) for i in indices]
    prod = forms[0]
    for f in forms[1:]:
        prod = prod.wedge(f)
    scaled_first = forms[0].scaled(scale)
    for f in forms[1:]:
        scaled_first = scaled_first.wedge(f)
    assert scaled_first == prod.scaled(scale)


def test_degree_beyond_dimension_is_zero():
    top = mono(3, (0, 1, 2))
    assert d(sl2c_algebra(), top).is_zero()
    assert ExteriorForm.zero(3, 4).is_zero()


def test_zero_forms_past_the_top_degree_keep_their_degree():
    # d and wedge cap the degree at the dimension; mc_differential is a
    # 2-form even on a line
    top = d(sl2c_algebra(), mono(3, (0, 1, 2)))
    assert top == ExteriorForm(3, 3)
    assert repr(top) == "ExteriorForm(dim=3, degree=3, terms=())"
    past = mono(3, (0, 1)).wedge(mono(3, (1, 2)))
    assert past == ExteriorForm(3, 3)
    assert repr(past) == "ExteriorForm(dim=3, degree=3, terms=())"
    assert repr(mono(4, (0, 1)).wedge(mono(4, (1, 2, 3)))) == "ExteriorForm(dim=4, degree=4, terms=())"
    line = LieAlgebraSpec(basis=("X",), brackets=())
    assert mc_differential(line, 0) == ExteriorForm(1, 2)
    assert repr(mc_differential(line, 0)) == "ExteriorForm(dim=1, degree=2, terms=())"


def test_monomial_reads_its_indices_once():
    form = ExteriorForm.monomial(3, (i for i in (0, 1)))
    assert form == mono(3, (0, 1))
    assert repr(form) == repr(mono(3, [0, 1]))


# ---------------------------------------------------------------- golden MC


def test_golden_differentials():
    spec = iso_sl2r_algebra()
    assert mc_differential(spec, X) == (
        mono(4, (Y, Z)) + mono(4, (Y, W)) + mono(4, (Z, W))
    )
    assert mc_differential(spec, Y) == (
        mono(4, (X, Y), 2) + mono(4, (X, W), -2)
    )
    assert mc_differential(spec, Z) == (
        mono(4, (X, Z), -2) + mono(4, (X, W), -2)
    )
    assert mc_differential(spec, W).is_zero()


def test_sl2_differentials():
    spec = sl2c_algebra()
    assert mc_differential(spec, 0) == mono(3, (1, 2))
    assert mc_differential(spec, 1) == mono(3, (0, 1), 2)
    assert mc_differential(spec, 2) == mono(3, (0, 2), -2)


def test_bracket_two_form_cross_check():
    # [omega, omega] contributions carry twice the structure constants,
    # so comparing with the differential checks two code paths agree
    for spec in (iso_sl2r_algebra(), sl2c_algebra()):
        for i in range(spec.dim):
            assert bracket_two_form(spec, i) == mc_differential(spec, i).scaled(-2)


@pytest.mark.parametrize(
    "spec",
    [sl2c_algebra(), LieAlgebraSpec(basis=("A", "B"), brackets=())],
    ids=["sl2c", "abelian"],
)
def test_bracket_two_form_refuses_an_index_out_of_range(spec):
    for i in (-1, spec.dim):
        for build in (bracket_two_form, mc_differential):
            with pytest.raises(ValueError, match=rf"^basis index {i} out of range$"):
                build(spec, i)
    if not spec.brackets:
        assert bracket_two_form(spec, spec.dim - 1) == ExteriorForm.zero(spec.dim, 2)


def test_d_squares_to_zero_on_basis():
    for spec in (iso_sl2r_algebra(), sl2c_algebra()):
        for i in range(spec.dim):
            assert d(spec, mc_differential(spec, i)).is_zero()


@given(
    st.booleans(),
    st.integers(1, 2),
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4), min_size=6, max_size=6),
)
def test_d_squares_to_zero_on_random_forms(use_iso, degree, coeffs):
    # d o d = 0 on one-forms is the Jacobi identity; on two-forms it
    # also exercises the Leibniz signs
    spec = iso_sl2r_algebra() if use_iso else sl2c_algebra()
    form = ExteriorForm.zero(spec.dim, degree)
    monomials = list(itertools.combinations(range(spec.dim), degree))
    for indices, coeff in zip(monomials, coeffs):
        form = form + mono(spec.dim, indices, coeff)
    assert d(spec, d(spec, form)).is_zero()


# ---------------------------------------------------------------- Gram forms


def test_iso_sl2r_gram_entries():
    gram = iso_sl2r_gram()
    expected = {
        (X, X): 2,
        (Y, Z): 1,
        (Y, W): 1,
        (Z, W): -1,
        (W, W): -1,
    }
    for i in range(4):
        for j in range(4):
            want = expected.get((i, j), expected.get((j, i), 0))
            assert gram.entries[i][j] == PiScalar.of(want), (i, j)


def test_gram_requires_symmetry():
    with pytest.raises(ValueError, match="symmetric"):
        GramForm(((PiScalar.of(0), PiScalar.of(1)), (PiScalar.of(2), PiScalar.of(0))))


def test_canned_grams_are_ad_invariant():
    assert is_ad_invariant(iso_sl2r_algebra(), iso_sl2r_gram())
    assert is_ad_invariant(sl2c_algebra(), sl2c_gram())


def _mixed_power_gram():
    # f(X, X) = 2 carries no pi while f(Y, Z) = pi does
    pi = PiScalar.of(1, pi_power=1)
    return GramForm(((2, 0, 0), (0, 0, pi), (0, pi, 0)))


@pytest.mark.parametrize("compute", [is_ad_invariant, cs_three_form])
def test_mixed_power_gram_is_refused(compute):
    with pytest.raises(ValueError, match=r"^pi-power mismatch in addition: 1 vs 0$"):
        compute(sl2c_algebra(), _mixed_power_gram())


def test_d_of_a_mixed_power_form_is_refused():
    pi = PiScalar.of(1, pi_power=1)
    beta = mono(4, (X, Y)) + mono(4, (X, Z), pi)
    with pytest.raises(ValueError, match=r"^pi-power mismatch in addition: 0 vs 1$"):
        d(iso_sl2r_algebra(), beta)


def test_sum_of_two_pi_powers_on_one_index_is_refused():
    pi = PiScalar.of(1, pi_power=1)
    plain, tagged = mono(4, (X, Y)), mono(4, (X, Y), pi)
    with pytest.raises(ValueError, match=r"^pi-power mismatch in addition: 0 vs 1$"):
        plain + tagged
    with pytest.raises(ValueError, match=r"^pi-power mismatch in addition: 1 vs 0$"):
        tagged + plain


def test_constructor_checks_every_term_before_summing():
    # the first two terms clash in pi power on (0,), the third is out of
    # range: the malformed term is reported, though it comes later
    terms = [((0,), PiScalar.of(1, 1)), ((0,), 1), ((5,), 1)]
    with pytest.raises(ValueError, match=r"^index tuple \(5,\) out of range$"):
        ExteriorForm(3, 1, terms)
    with pytest.raises(ValueError, match=r"^pi-power mismatch in addition: 1 vs 0$"):
        ExteriorForm(3, 1, terms[:2])


def test_wedge_with_two_pi_powers_on_one_index_is_refused():
    # (phi^X + phi^Y) ^ (phi^X + pi phi^Y) = pi phi^XY - phi^XY: the product
    # met first on XY is the pi one, and with the operands swapped the
    # pi-free one
    pi = PiScalar.of(1, pi_power=1)
    plain, tagged = mono(4, (X,)) + mono(4, (Y,)), mono(4, (X,)) + mono(4, (Y,), pi)
    with pytest.raises(ValueError, match=r"^pi-power mismatch in addition: 1 vs 0$"):
        plain.wedge(tagged)
    with pytest.raises(ValueError, match=r"^pi-power mismatch in addition: 0 vs 1$"):
        tagged.wedge(plain)


def test_public_scalars_stay_pi_scalars():
    spec = iso_sl2r_algebra()
    assert all(type(c) is PiScalar for c in spec.bracket(X, W))
    assert all(type(c) is PiScalar for c in spec.bracket(W, X))
    assert all(type(c) is PiScalar for _, row in spec.brackets for _, c in row)
    violation = validate_jacobi(
        algebra_from_json(
            {"basis": ["X", "Y", "Z"], "brackets": [["X", "Y", {"Y": -2}], ["X", "Z", {"Z": 3}], ["Y", "Z", {"X": -1}]]}
        )
    )
    assert violation.residual == (PiScalar.of(-1), PI_ZERO, PI_ZERO)
    assert all(type(r) is PiScalar for r in violation.residual)
    # d carries each term's pi power onto the terms it produces
    low = d(spec, mono(4, (X, Y), PiScalar.of(3, pi_power=-2)))
    assert {c.pi_power for _, c in low.terms} == {-2}
    for form in (
        cs_three_form(spec, iso_sl2r_gram()),
        cs_three_form(sl2c_algebra(), sl2c_gram()),
        low,
        mc_differential(spec, X),
    ):
        assert form.terms and all(type(c) is PiScalar for _, c in form.terms)


def test_cs_three_form_warns_on_non_invariant_gram():
    spec = sl2c_algebra()
    bad = GramForm(
        tuple(
            tuple(PiScalar.of(1 if i == j else 0) for j in range(3))
            for i in range(3)
        )
    )
    assert not is_ad_invariant(spec, bad)
    with pytest.warns(UserWarning, match="not ad-invariant"):
        cs_three_form(spec, bad)


# ---------------------------------------------------------------- dense oracles


def dense_constants(n, brackets):
    """c[i][j][k] = c^i_jk over all index orders, from {(j, k): {i: c}}, j < k."""
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (j, k), vec in brackets.items():
        for i, value in vec.items():
            c[i][j][k] = value
            c[i][k][j] = -value
    return c


def dense_first_jacobi_violation(n, c):
    """First triple x < y < z, with the residual sum_l c^l_pq c^m_lr summed
    over the three cyclic orders (p, q, r), where the residual is nonzero."""
    for x, y, z in itertools.combinations(range(n), 3):
        residual = [
            sum(
                c[l][p][q] * c[m][l][r]
                for p, q, r in ((x, y, z), (y, z, x), (z, x, y))
                for l in range(n)
            )
            for m in range(n)
        ]
        if any(residual):
            return (x, y, z), residual
    return None


def dense_ad_invariant(n, c, f):
    """f([a,b],c) + f(b,[a,c]) = 0 on every basis triple, by full sums."""

    def pair(v, w):
        return sum(v[i] * f[i][j] * w[j] for i in range(n) for j in range(n))

    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    bracket = [[[c[i][a][b] for i in range(n)] for b in range(n)] for a in range(n)]
    return all(
        pair(bracket[a][b], basis[e]) + pair(basis[b], bracket[a][e]) == 0
        for a in range(n)
        for b in range(n)
        for e in range(n)
    )


def killing(n, c):
    """B(a, b) = tr(ad_a ad_b) = sum c^i_ak c^k_bi: ad-invariant on a Lie algebra."""
    return [
        [sum(c[i][a][k] * c[k][b][i] for i in range(n) for k in range(n)) for b in range(n)]
        for a in range(n)
    ]


def table_spec(n, brackets):
    return LieAlgebraSpec(
        basis=tuple(f"e{i}" for i in range(n)),
        brackets=tuple(
            (pair, tuple(vec.get(i, 0) for i in range(n))) for pair, vec in sorted(brackets.items())
        ),
        check_jacobi=False,
    )


SL2 = {(0, 1): {1: -2}, (0, 2): {2: 2}, (1, 2): {0: -1}}
LIE_TABLES = [
    (3, SL2),
    (4, {(0, 1): {1: -2}, (0, 2): {2: 2}, (0, 3): {1: 2, 2: 2}, (1, 2): {0: -1}, (1, 3): {0: -1}, (2, 3): {0: -1}}),
    (6, {**SL2, **{(j + 3, k + 3): {i + 3: v for i, v in vec.items()} for (j, k), vec in SL2.items()}}),
]


@st.composite
def bracket_tables(draw):
    """Random small integer tables; most of them fail the Jacobi identity."""
    n = draw(st.integers(3, 5))
    brackets = {}
    for pair in itertools.combinations(range(n), 2):
        vec = draw(st.dictionaries(st.integers(0, n - 1), st.integers(-2, 2).filter(bool), max_size=2))
        if vec:
            brackets[pair] = vec
    return n, brackets


@settings(max_examples=100, deadline=None)
@given(bracket_tables())
def test_validate_jacobi_matches_dense_oracle(table):
    n, brackets = table
    spec = table_spec(n, brackets)
    c = dense_constants(n, brackets)
    for j in range(n):
        for k in range(n):
            assert spec.bracket(j, k) == tuple(PiScalar.of(c[i][j][k]) for i in range(n))
    violation = validate_jacobi(spec)
    expected = dense_first_jacobi_violation(n, c)
    if expected is None:
        assert violation is None
    else:
        triple, residual = expected
        assert violation.triple == tuple(f"e{i}" for i in triple)
        assert violation.residual == tuple(PiScalar.of(r) for r in residual)


# Blocks of the seeded algebras below: (size, {(j, k): {i: c}}, j < k).
JACOBI_BLOCKS = (*LIE_TABLES[:2], (3, {(0, 1): {2: 1}}), (1, {}))  # sl2, iso-sl2r, Heisenberg, abelian


def seeded_algebra(rng):
    """A table {(j, k): {i: c}} of dimension 3-9: sl2, iso-sl2r, Heisenberg
    and abelian blocks, each scaled by a rational, on shuffled basis
    vectors, with up to two constants then changed by a small int.  Over
    3,000 draws 1,718 fail the Jacobi identity, at 78 distinct first
    triples, and 2,672 skip some triples."""
    n = rng.randint(3, 9)
    blocks = []
    while (room := n - sum(size for size, _ in blocks)) > 0:
        blocks.append(rng.choice([block for block in JACOBI_BLOCKS if block[0] <= room]))
    position = rng.sample(range(n), n)
    brackets = {}
    offset = 0
    for size, table in blocks:
        scale = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        for (j, k), vec in table.items():
            a, b = position[j + offset], position[k + offset]
            sign = 1 if a < b else -1
            brackets[(min(a, b), max(a, b))] = {position[i + offset]: sign * scale * v for i, v in vec.items()}
        offset += size
    for _ in range(rng.choice((0, 1, 1, 2))):
        j, k = sorted(rng.sample(range(n), 2))
        i = rng.randrange(n)
        vec = brackets.setdefault((j, k), {})
        vec[i] = vec.get(i, 0) + rng.choice((-2, -1, 1, 2))
    return n, {pair: {i: c for i, c in vec.items() if c} for pair, vec in brackets.items()}


def full_scan_jacobi(spec):
    """The reference for validate_jacobi: every triple a < b < c in order,
    with its residual {m: (re, im)} over the table's denominator squared;
    the first nonzero one, or None."""
    table = spec._table
    for a, b, c in itertools.combinations(range(spec.dim), 3):
        res = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for l, (p, q) in table.get((x, y), {}).items():
                for m, (r, s) in table.get((l, z), {}).items():
                    re, im = res.get(m, (0, 0))
                    res[m] = (re + p * r - q * s, im + p * s + q * r)
        if any(re or im for re, im in res.values()):
            return (a, b, c), res
    return None


def test_validate_jacobi_matches_the_full_scan():
    rng = random.Random("jacobi triples")
    violations = set()
    for _ in range(3000):
        n, brackets = seeded_algebra(rng)
        spec = table_spec(n, brackets)
        violation = validate_jacobi(spec)
        expected = full_scan_jacobi(spec)
        if expected is None:
            assert violation is None
            continue
        triple, res = expected
        square = spec._den**2
        assert violation.triple == tuple(f"e{i}" for i in triple)
        assert violation.residual == tuple(
            PiScalar(GaussianRational(Fraction(res[m][0], square), Fraction(res[m][1], square)))
            if m in res
            else PI_ZERO
            for m in range(n)
        )
        violations.add(triple)
    assert len(violations) > 50


def nonzero_products(n, brackets):
    """The count of (x, y, l, z), x < y, with c^l_xy != 0 and [l, z] != 0."""
    c = dense_constants(n, brackets)
    return sum(
        1
        for x, y in itertools.combinations(range(n), 2)
        for l in range(n)
        if c[l][x][y]
        for z in range(n)
        if any(c[m][l][z] for m in range(n))
    )


def test_jacobi_triples_never_exceed_the_nonzero_products():
    rng = random.Random("jacobi work")
    tables = [(n, brackets) for n, brackets in LIE_TABLES] + [seeded_algebra(rng) for _ in range(300)]
    for n, brackets in tables:
        triples = _jacobi_triples(table_spec(n, brackets))
        assert triples == sorted(set(triples))
        assert len(triples) <= nonzero_products(n, brackets)


def sl2_sum_text(k):
    """The JSON text of sl2 copied k times: 3k basis vectors and 3k brackets."""
    doc = {"basis": [f"{c}{b}" for b in range(k) for c in "XYZ"], "brackets": []}
    for b in range(k):
        doc["brackets"] += [[f"X{b}", f"Y{b}", {f"Y{b}": -2}], [f"X{b}", f"Z{b}", {f"Z{b}": 2}], [f"Y{b}", f"Z{b}", {f"X{b}": -1}]]
    return json.dumps(doc)


@pytest.mark.parametrize("k", [50, 100, 200])
def test_sl2_sum_from_json_loads_and_checks_in_work_linear_in_k(k, monkeypatch):
    # The check visits one triple per copy, and loading builds no scalar:
    # algebra_from_json writes each constant once, and a small int
    # constant is a shared scalar.
    text = sl2_sum_text(k)
    built = []
    original = PiScalar.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PiScalar, "__post_init__", counted)
    spec = algebra_from_json(json.loads(text))
    assert built == []
    visited = []

    def spy(spec):
        visited.append(_jacobi_triples(spec))
        return visited[-1]

    monkeypatch.setattr(liecs, "_jacobi_triples", spy)
    assert validate_jacobi(spec) is None
    assert visited == [[(3 * b, 3 * b + 1, 3 * b + 2) for b in range(k)]]


def test_sl2_sum_from_json_converts_each_constant_once(monkeypatch):
    # a bracket row holds only its nonzero constants, so loading sl2^k
    # calls PiScalar.of once per constant listed, 3k times in all; a dense
    # vector per bracket made that 9k^2 + 3k calls
    calls = []
    original = PiScalar.of

    def counted(value, pi_power=0):
        calls.append(value)
        return original(value, pi_power)

    monkeypatch.setattr(PiScalar, "of", staticmethod(counted))
    counts = {}
    for k in (100, 200, 400, 800):
        doc = json.loads(sl2_sum_text(k))
        calls.clear()
        algebra_from_json(doc)
        counts[k] = len(calls)
    assert counts == {k: 3 * k for k in counts}


def test_small_int_tables_construct_no_scalars(monkeypatch):
    # sl2 + sl2 in the basis X'_a = sum_j P[j][a] X_j, P = 1 + (ones above
    # the diagonal): 36% of its constants are nonzero, all ints |c| <= 4,
    # like its Gram form and a 2-form.  Counted as the benchmark counts
    # exact.pi_scalars_built, by a hook on PiScalar.__post_init__, the
    # algebra and its Gram form build no scalar, and the 2-form only its
    # summed terms: every input is one of PiScalar.of's shared scalars.
    brackets = {
        (0, 1): [2, -2, 0, 0, 0, 0], (0, 2): [4, -4, 2, 0, 0, 0], (0, 3): [2, -2, 2, 0, 0, 0],
        (1, 2): [3, -4, 2, 0, 0, 0], (1, 3): [1, -2, 2, 0, 0, 0], (2, 3): [-1, 0, 0, 0, 0, 0],
        (3, 4): [-2, 2, -2, 2, -2, 0], (3, 5): [-4, 4, -4, 4, -4, 2], (4, 5): [-3, 3, -3, 3, -4, 2],
    }
    dense = tuple((pair, tuple(brackets.get(pair, [0] * 6))) for pair in itertools.combinations(range(6), 2))
    gram = [
        [2, 2, 0, 0, 0, 0], [2, 2, 1, 1, 0, 0], [0, 1, 2, 1, 0, 0],
        [0, 1, 1, 2, 2, 0], [0, 0, 0, 2, 2, 1], [0, 0, 0, 0, 1, 2],
    ]
    beta = (((0, 1), 2), ((0, 1), -1), ((2, 5), -2), ((3, 4), 1))
    built = []
    original = PiScalar.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(PiScalar, "__post_init__", counted)
    spec = LieAlgebraSpec(basis=tuple("ABCDEF"), brackets=dense)
    gram_form = GramForm(gram)
    assert built == []
    form = ExteriorForm(6, 2, beta)
    assert built == [c for _, c in form.terms]
    monkeypatch.undo()
    assert spec.brackets == tuple(
        (pair, tuple((i, PiScalar(GaussianRational(c))) for i, c in enumerate(vec) if c))
        for pair, vec in sorted(brackets.items())
    )
    assert gram_form.entries == tuple(tuple(PiScalar(GaussianRational(x)) for x in row) for row in gram)
    assert is_ad_invariant(spec, gram_form)
    assert form.terms == (((0, 1), PiScalar.of(1)), ((2, 5), PiScalar.of(-2)), ((3, 4), PiScalar.of(1)))


@st.composite
def algebras_with_grams(draw):
    """A Lie algebra or a random table, with a multiple of its Killing
    form (invariant by construction on a Lie algebra), that form with
    one symmetric pair of entries changed, or a random symmetric matrix."""
    lie = draw(st.booleans())
    n, brackets = draw(st.sampled_from(LIE_TABLES)) if lie else draw(bracket_tables())
    c = dense_constants(n, brackets)
    kind = draw(st.sampled_from(["killing", "perturbed", "random"]))
    if kind == "random":
        f = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                f[i][j] = f[j][i] = draw(st.integers(-2, 2))
    else:
        scale = draw(st.integers(-3, 3).filter(bool))
        f = [[scale * x for x in row] for row in killing(n, c)]
        if kind == "perturbed":
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            delta = draw(st.integers(-2, 2).filter(bool))
            f[i][j] += delta
            if i != j:
                f[j][i] += delta
    return n, brackets, f, lie and kind == "killing"


@settings(max_examples=100, deadline=None)
@given(algebras_with_grams())
def test_is_ad_invariant_matches_dense_oracle(drawn):
    n, brackets, f, invariant_by_construction = drawn
    got = is_ad_invariant(table_spec(n, brackets), GramForm(f))
    assert got == dense_ad_invariant(n, dense_constants(n, brackets), f)
    if invariant_by_construction:
        assert got


def sparse_spec(n, brackets):
    """``table_spec`` with each row given by its nonzero (i, c), pairs and
    indices in reverse order: the constructor sorts both."""
    return LieAlgebraSpec(
        basis=tuple(f"e{i}" for i in range(n)),
        brackets=tuple((pair, tuple(reversed(vec.items()))) for pair, vec in reversed(brackets.items())),
        check_jacobi=False,
    )


def assert_dense_and_sparse_agree(n, brackets):
    dense, sparse = table_spec(n, brackets), sparse_spec(n, brackets)
    assert sparse == dense
    assert vars(sparse) == vars(dense)
    assert LieAlgebraSpec(*dense._values()) == dense
    c = dense_constants(n, brackets)
    for j, k in itertools.permutations(range(n), 2):
        assert sparse.bracket(j, k) == tuple(PiScalar.of(c[i][j][k]) for i in range(n))


@settings(max_examples=100, deadline=None)
@given(algebras_with_grams())
def test_dense_and_sparse_rows_build_equal_specs(drawn):
    assert_dense_and_sparse_agree(*drawn[:2])


def test_dense_and_sparse_rows_agree_on_seeded_rational_tables():
    rng = random.Random("dense and sparse rows")
    for _ in range(200):
        assert_dense_and_sparse_agree(*seeded_algebra(rng))


# ---------------------------------------------------------------- 3-form identities


def test_three_form_iso_sl2r_decomposition():
    spec = iso_sl2r_algebra()
    form = cs_three_form(spec, iso_sl2r_gram())
    expected = (
        mono(4, (X, Y, Z), Fraction(2, 3))
        + mono(4, (X, Y, W), Fraction(2, 3))
        + mono(4, (X, Z, W), Fraction(2, 3))
    )
    assert form == expected

    target = mono(4, (X, Y, Z), Fraction(2, 3))
    beta = exactness_split(spec, form, target)
    assert beta is not None
    assert d(spec, beta) == form - target

    stated = mono(4, (Y, W), Fraction(1, 3)) + mono(4, (Z, W), Fraction(-1, 3))
    assert d(spec, stated) == form - target


def test_volume_form_itself_is_not_exact():
    spec = iso_sl2r_algebra()
    vol = mono(4, (X, Y, Z))
    assert exactness_split(spec, vol, ExteriorForm.zero(4, 3)) is None


def test_three_form_sl2_coefficient():
    spec = sl2c_algebra()
    form = cs_three_form(spec, sl2c_gram())
    assert form == mono(3, (0, 1, 2), PiScalar.of(1, pi_power=-2))


def test_sl2_volume_form_has_no_primitive():
    # d vanishes identically on 2-forms of sl2, so nothing of positive
    # coefficient can split off
    spec = sl2c_algebra()
    form = cs_three_form(spec, sl2c_gram())
    assert exactness_split(spec, form, ExteriorForm.zero(3, 3)) is None


def test_three_form_closed():
    for spec, gram in (
        (iso_sl2r_algebra(), iso_sl2r_gram()),
        (sl2c_algebra(), sl2c_gram()),
    ):
        assert d(spec, cs_three_form(spec, gram)).is_zero()


def test_exactness_split_returns_none_not_raise_on_gap():
    # target with a wrong coefficient leaves a non-exact difference
    spec = iso_sl2r_algebra()
    form = cs_three_form(spec, iso_sl2r_gram())
    target = mono(4, (X, Y, Z), Fraction(1, 3))
    assert exactness_split(spec, form, target) is None


def test_exactness_split_refuses_two_pi_powers_on_one_index():
    # d(phi^XY + phi^YW) + pi^-2 * d(phi^YZ + phi^YW): the two parts touch
    # disjoint 3-indices, but the zero-pinned primitives of both powers use
    # phi^YW, and a form holds one pi power per index
    spec = iso_sl2r_algebra()
    low = PiScalar(1, -2)
    beta_0 = mono(4, (X, Y)) + mono(4, (Y, W))
    beta_low = mono(4, (Y, Z), low) + mono(4, (Y, W), low)
    difference = d(spec, beta_0) + d(spec, beta_low)
    with pytest.raises(
        ValueError,
        match=r"^primitive needs pi powers -2 and 0 on the 2-index phiY\^phiW; a form holds one pi power per index$",
    ):
        exactness_split(spec, difference, ExteriorForm.zero(4, 3))


@pytest.mark.parametrize(
    "form, target",
    [
        # forms of a 3-dim algebra against the 4-dim iso-sl2r
        (ExteriorForm.zero(3, 3), ExteriorForm.zero(3, 3)),
        (mono(5, (0, 1, 4)), ExteriorForm.zero(5, 3)),
        (ExteriorForm.zero(4, 3), mono(5, (0, 1, 4))),
    ],
)
def test_exactness_split_rejects_forms_of_another_dimension(form, target):
    with pytest.raises(ValueError, match="^form dimension does not match the algebra$"):
        exactness_split(iso_sl2r_algebra(), form, target)


# ---------------------------------------------------------------- exactness across pi powers


ISO_SL2R = LIE_TABLES[1][1]
# name -> (dimension, bracket table, Gram matrix): sl2 with its pi^-2 trace
# form, iso-sl2r with its pi-free form.
BLOCKS = {
    "sl2": (3, SL2, sl2c_gram().entries),
    "iso": (4, ISO_SL2R, iso_sl2r_gram().entries),
}


def unimodular(draw, n):
    """An integer matrix P of determinant +-1 and its integer inverse Q,
    as a product of drawn elementary column operations."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1).filter(lambda j: j != i))
        t = draw(st.integers(-2, 2))
        # P <- P (I + t e_ij) adds t * column i to column j;
        # Q <- (I - t e_ij) Q subtracts t * row j from row i.
        for row in p:
            row[j] += t * row[i]
        q[i] = [x - t * y for x, y in zip(q[i], q[j])]
    assert all(
        sum(p[i][k] * q[k][j] for k in range(n)) == int(i == j) for i in range(n) for j in range(n)
    )
    return p, q


def changed_block(n, brackets, gram, p, q):
    """The bracket table and Gram matrix of a block in the basis
    Y_a = sum_b p[b][a] X_b."""
    c = dense_constants(n, brackets)
    table = {}
    for a, b in itertools.combinations(range(n), 2):
        image = [
            sum(p[j][a] * p[k][b] * c[i][j][k] for j in range(n) for k in range(n))
            for i in range(n)
        ]
        vec = {m: sum(q[m][i] * image[i] for i in range(n)) for m in range(n)}
        vec = {m: v for m, v in vec.items() if v}
        if vec:
            table[(a, b)] = vec
    entries = [
        [
            sum((gram[j][k] * (p[j][a] * p[k][b]) for j in range(n) for k in range(n)), PI_ZERO)
            for b in range(n)
        ]
        for a in range(n)
    ]
    return table, entries


def gaussians():
    part = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.builds(GaussianRational, part, part | st.just(Fraction(0)))


@st.composite
def multi_stratum_cases(draw):
    """A sum of three sl2 / iso-sl2r blocks, each optionally in a
    unimodular basis, with its Chern-Simons form T and a 2-form per
    stratum: beta_0 (pi^0) on the pairs between two blocks and beta_-2
    (pi^-2) on the pairs between another two, so the images d(beta_0)
    and d(beta_-2) share no 3-index with each other or with T.  Some
    cases add a monomial gamma to one stratum's part of the difference."""
    kinds = [draw(st.sampled_from(sorted(BLOCKS))) for _ in range(3)]
    brackets, blocks, offset = {}, [], 0
    n = sum(BLOCKS[kind][0] for kind in kinds)
    gram = [[PI_ZERO] * n for _ in range(n)]
    for kind in kinds:
        size, table, entries = BLOCKS[kind]
        if draw(st.booleans()):
            table, entries = changed_block(size, table, entries, *unimodular(draw, size))
        for (j, k), vec in table.items():
            brackets[(j + offset, k + offset)] = {i + offset: v for i, v in vec.items()}
        for a in range(size):
            for b in range(size):
                gram[a + offset][b + offset] = entries[a][b]
        blocks.append(range(offset, offset + size))
        offset += size
    spec = table_spec(n, brackets)
    block_pairs = list(itertools.combinations(range(3), 2))
    first, second = draw(st.permutations(block_pairs))[:2]
    strata = {}
    for power, (u, v) in ((0, first), (-2, second)):
        pairs = [(x, y) for x in blocks[u] for y in blocks[v]]
        coeffs = draw(st.dictionaries(st.sampled_from(pairs), gaussians(), min_size=1, max_size=4))
        strata[power] = d(spec, ExteriorForm(n, 2, tuple((pair, PiScalar(c, power)) for pair, c in coeffs.items())))
    gamma_power = draw(st.sampled_from([None, 0, -2]))
    if gamma_power is not None:
        u, v = first if gamma_power == 0 else second
        if draw(st.booleans()):
            u, v = v, u
        x, z = draw(st.lists(st.sampled_from(blocks[u]), min_size=2, max_size=2, unique=True))
        indices = tuple(sorted((x, z, draw(st.sampled_from(blocks[v])))))
        coeff = draw(gaussians().filter(bool))
        strata[gamma_power] = strata[gamma_power] + mono(n, indices, PiScalar(coeff, gamma_power))
    return spec, GramForm(gram), strata, gamma_power


def dense_primitive(spec, rhs):
    """Dense Gauss-Jordan oracle for d(sum x_jk phi^jk) = rhs over
    gaussian rationals: one column per 2-index and one row per 3-index,
    both in ``combinations`` order, reduced by the shared
    ``dense_echelon``, free unknowns zero.  Returns {pair: nonzero x_jk},
    or None when rhs is not exact."""
    n = spec.dim
    zero = GaussianRational(0)
    pairs = list(itertools.combinations(range(n), 2))
    width = len(pairs)
    images = [dict(d(spec, mono(n, pair)).terms) for pair in pairs]
    rows = [
        [images[c].get(t, PI_ZERO).coeff for c in range(width)] + [rhs.get(t, zero)]
        for t in itertools.combinations(range(n), 3)
    ]
    pivots = dense_echelon(rows, width)
    if any(row[width] for row in rows[len(pivots):]):
        return None
    return {pairs[c]: rows[r][width] for r, c in enumerate(pivots) if rows[r][width]}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(multi_stratum_cases())
def test_exactness_split_solves_each_pi_power_like_the_dense_oracle(case):
    spec, gram, strata, gamma_power = case
    three = cs_three_form(spec, gram)
    difference = strata[0] + strata[-2]
    expected = {}
    for power, part in strata.items():
        solution = dense_primitive(spec, {t: c.coeff for t, c in part.terms})
        expected[power] = solution
        if gamma_power != power:
            # an exact part d(beta) always has a primitive
            assert solution is not None
    got = exactness_split(spec, three + difference, three)
    if None in expected.values():
        assert got is None
        return
    assert not set(expected[0]) & set(expected[-2])
    terms = [(pair, PiScalar(c, power)) for power, solution in expected.items() for pair, c in solution.items()]
    assert got == ExteriorForm(spec.dim, 2, tuple(terms))
    assert d(spec, got) == difference


# ---------------------------------------------------------------- derived forms


def checked(dim, degree, terms):
    """The unmerged terms summed by the public constructor, or the
    ValueError it raises."""
    try:
        return ExteriorForm(dim, degree, tuple(terms))
    except ValueError as exc:
        return exc


def sorting_sign(left, right):
    """The increasing tuple of left + right and the sign of the
    permutation sorting it, or None when they share an index."""
    joined = left + right
    if len(set(joined)) < len(joined):
        return None
    inversions = sum(1 for x, y in itertools.combinations(joined, 2) if x > y)
    return tuple(sorted(joined)), -1 if inversions % 2 else 1


def wedge_terms(a, b):
    for left, cl in a.terms:
        for right, cr in b.terms:
            merged = sorting_sign(left, right)
            if merged is not None:
                yield merged[0], cl * cr * merged[1]


def d_terms(spec, form):
    """d(phi^I) = sum_t (-1)^t d(phi^{I_t}) ^ phi^{I minus I_t}, with
    d(phi^i) = - sum_{j<k} c^i_jk phi^j ^ phi^k, from ``spec.bracket``."""
    for indices, coeff in form.terms:
        for t, i in enumerate(indices):
            rest = indices[:t] + indices[t + 1 :]
            for pair in itertools.combinations(range(spec.dim), 2):
                merged = sorting_sign(pair, rest)
                if merged is not None:
                    yield merged[0], -spec.bracket(*pair)[i] * coeff * ((-1) ** t * merged[1])


def three_form_terms(spec, gram):
    """-(1/9) sum f_il c^i_jk phi^j ^ phi^k ^ phi^l over i, j < k and l."""
    ninth = PiScalar.of(Fraction(-1, 9))
    for i, l in itertools.product(range(spec.dim), repeat=2):
        for pair in itertools.combinations(range(spec.dim), 2):
            merged = sorting_sign(pair, (l,))
            if merged is not None:
                yield merged[0], gram.entries[i][l] * spec.bracket(*pair)[i] * ninth * merged[1]


def checked_primitive(spec, part):
    """The dense oracle's primitive of ``part``, one pi power at a time,
    summed by ``checked``; None when some power has none."""
    terms = []
    for power in sorted({c.pi_power for _, c in part.terms}):
        solution = dense_primitive(spec, {t: c.coeff for t, c in part.terms if c.pi_power == power})
        if solution is None:
            return None
        terms += [(pair, PiScalar(x, power)) for pair, x in solution.items()]
    return checked(spec.dim, 2, terms)


def seeded_unimodular(rng, n):
    """An integer matrix P of determinant +-1 and its inverse Q, from
    seeded elementary column operations."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(n), 2)
        t = rng.randint(-2, 2)
        for row in p:
            row[j] += t * row[i]
        q[i] = [x - t * y for x, y in zip(q[i], q[j])]
    return p, q


def seeded_sl2_sum(rng):
    """sl2 + sl2, each block in a seeded unimodular basis and the six
    basis vectors shuffled.  The Gram form is sl2c_gram (pi^-2) on one
    block and the pi-free trace form on the other, so T mixes pi powers."""
    trace = [[PiScalar.of(x) for x in row] for row in ((2, 0, 0), (0, 0, 1), (0, 1, 0))]
    blocks = [
        changed_block(3, SL2, entries, *seeded_unimodular(rng, 3)) for entries in (sl2c_gram().entries, trace)
    ]
    position = {old: new for new, old in enumerate(rng.sample(range(6), 6))}
    brackets, gram = {}, [[PI_ZERO] * 6 for _ in range(6)]
    for offset, (table, entries) in zip((0, 3), blocks):
        for (j, k), vec in table.items():
            a, b = position[j + offset], position[k + offset]
            sign = 1 if a < b else -1
            brackets[(min(a, b), max(a, b))] = {position[i + offset]: sign * v for i, v in vec.items()}
        for j, k in itertools.product(range(3), repeat=2):
            gram[position[j + offset]][position[k + offset]] = entries[j][k]
    spec = table_spec(6, brackets)
    assert validate_jacobi(spec) is None
    return spec, GramForm(gram)


def seeded_form(rng, dim, degree, power_of):
    """Up to four terms, repeats and zeros included, each with the pi
    power ``power_of`` gives its indices."""
    keys = list(itertools.combinations(range(dim), degree))
    terms = []
    for key in [rng.choice(keys) for _ in range(rng.randint(0, 4))] if keys else []:
        coeff = GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.choice((0, 0, 1, -2)))
        terms.append((key, PiScalar(coeff, power_of(key))))
    return ExteriorForm(dim, degree, tuple(terms))


def derived_cases(kind, rng):
    """(name, derived route, checked result) on one algebra: every form
    the package derives, as a call not yet made, and the same terms
    unmerged and summed by the public constructor."""
    if kind == "sl2c":
        spec, gram = sl2c_algebra(), sl2c_gram()
    elif kind == "iso":
        spec, gram = iso_sl2r_algebra(), iso_sl2r_gram()
    else:
        spec, gram = seeded_sl2_sum(rng)
    n = spec.dim
    powers = {}

    def power_of(key):
        return powers.setdefault(key, rng.choice((0, 0, -2, 1)))

    cases = []
    for degree in range(n + 2):
        a, b = seeded_form(rng, n, degree, power_of), seeded_form(rng, n, degree, power_of)
        other = seeded_form(rng, n, rng.randint(0, n), power_of)
        top, zero = min(degree + other.degree, n), ExteriorForm.zero(n, degree + 1)
        negated = tuple((i, -c) for i, c in b.terms)
        cases += [
            ("a + b", partial(operator.add, a, b), checked(n, degree, a.terms + b.terms)),
            # a sum with a zero form takes the other's degree
            ("0 + a", partial(operator.add, zero, a), checked(n, degree, a.terms)),
            ("a + 0", partial(operator.add, a, zero), checked(n, degree if a.terms else degree + 1, a.terms)),
            ("-b", b.__neg__, checked(n, degree, negated)),
            ("a - b", partial(operator.sub, a, b), checked(n, degree, a.terms + negated)),
            ("wedge", partial(a.wedge, other), checked(n, top, wedge_terms(a, other))),
            ("d", partial(d, spec, a), checked(n, min(degree + 1, n), d_terms(spec, a))),
        ]
        pi_power = PiScalar(GaussianRational(Fraction(rng.randint(1, 5), 2)), rng.choice((-2, 1)))
        for f in (0, pi_power, Fraction(-2, 3)):
            scaled = checked(n, degree, ((i, c * f) for i, c in a.terms))
            cases.append(("scaled", partial(a.scaled, f), scaled))
    for i in range(n):
        column = [(pair, spec.bracket(*pair)[i]) for pair in itertools.combinations(range(n), 2)]
        cases += [
            ("mc_differential", partial(mc_differential, spec, i), checked(n, 2, ((p, -x) for p, x in column))),
            ("bracket_two_form", partial(bracket_two_form, spec, i), checked(n, 2, ((p, x * 2) for p, x in column))),
        ]
    three, zero = checked(n, 3, three_form_terms(spec, gram)), ExteriorForm.zero(n, 3)
    cases.append(("cs_three_form", partial(cs_three_form, spec, gram), three))
    cases.append(
        ("exactness_split", partial(exactness_split, spec, three, zero), checked_primitive(spec, three))
    )
    for power in (0, -2, 1):
        exact_part = checked(n, 3, d_terms(spec, seeded_form(rng, n, 2, lambda key, power=power: power)))
        # T - (T - d(beta)) where T and d(beta) agree in pi power, else d(beta) - 0
        target = checked(n, 3, three.terms + tuple((i, -c) for i, c in exact_part.terms))
        form, target = (exact_part, zero) if isinstance(target, ValueError) else (three, target)
        split = partial(exactness_split, spec, form, target)
        cases.append(("exactness_split", split, checked_primitive(spec, exact_part)))
    return cases


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", ["sl2c", "iso", "sl2+sl2"])
def test_derived_forms_skip_the_checks_and_match_the_checked_route(kind, seed, monkeypatch):
    cases = derived_cases(kind, random.Random(seed))
    checks = []
    check = ExteriorForm.__post_init__

    def counted(self):
        checks.append(self)
        check(self)

    monkeypatch.setattr(ExteriorForm, "__post_init__", counted)
    got = []
    for _, route, _ in cases:
        try:
            got.append(route())
        except ValueError as exc:
            got.append(exc)
    monkeypatch.undo()
    assert checks == []
    for (name, _, want), form in zip(cases, got):
        if not isinstance(want, ExteriorForm):
            assert type(form) is type(want), name
            continue
        for twin in (want, ExteriorForm(form.dim, form.degree, form.terms), pickle.loads(pickle.dumps(form))):
            assert form == twin, name
            assert repr(form) == repr(twin), name


def test_format_form():
    spec = iso_sl2r_algebra()
    form = mono(4, (X, Y), Fraction(2)) + mono(4, (Z, W), Fraction(-1, 3))
    assert format_form(spec, form) == "2 * phiX^phiY + -1/3 * phiZ^phiW"
    assert format_form(spec, ExteriorForm.zero(4, 2)) == "0"
    assert format_form(spec, ExteriorForm(4, 0, (((), Fraction(5, 2)),))) == "5/2"


# ---------------------------------------------------------------- polynomials


def test_chern_coefficients_worked_example():
    a = GaussianRational(Fraction(0), Fraction(2))
    matrix = [
        [a, GaussianRational(Fraction(1))],
        [GaussianRational(Fraction(3)), -a],
    ]
    c1, c2 = chern_poly_coeffs(matrix, kind="chern")
    assert c1 == PI_ZERO
    assert c2 == PiScalar.of(Fraction(-1, 4), pi_power=-2)


def test_pontrjagin_coefficient_worked_example():
    matrix = [
        [Fraction(0), Fraction(2), Fraction(-1)],
        [Fraction(-2), Fraction(0), Fraction(3)],
        [Fraction(1), Fraction(-3), Fraction(0)],
    ]
    (p1,) = chern_poly_coeffs(matrix, kind="pontrjagin")
    assert p1 == PiScalar.of(Fraction(7, 2), pi_power=-2)


def test_chern_rejects_trace():
    with pytest.raises(ValueError, match="traceless"):
        chern_poly_coeffs([[1, 0], [0, 1]], kind="chern")


def test_pontrjagin_rejects_symmetric_part():
    with pytest.raises(ValueError, match="antisymmetric"):
        chern_poly_coeffs(
            [[0, 1, 0], [1, 0, 0], [0, 0, 0]], kind="pontrjagin"
        )


@given(
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)
def test_chern_trace_identity_random(ar, ai, br, bi, cr, ci):
    diag = GaussianRational(ar, ai)
    matrix = [
        [diag, GaussianRational(br, bi)],
        [GaussianRational(cr, ci), -diag],
    ]
    c1, c2 = chern_poly_coeffs(matrix, kind="chern")
    tr_sq = diag * diag + diag * diag + 2 * GaussianRational(br, bi) * GaussianRational(cr, ci)
    assert c1 == PI_ZERO
    assert c2 == PiScalar(tr_sq, 0) * PiScalar.of(Fraction(1, 8), pi_power=-2)


@given(
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)
def test_pontrjagin_trace_identity_random(x, y, z):
    matrix = [
        [Fraction(0), x, y],
        [-x, Fraction(0), z],
        [-y, -z, Fraction(0)],
    ]
    (p1,) = chern_poly_coeffs(matrix, kind="pontrjagin")
    tr_sq = -2 * (x * x + y * y + z * z)
    assert p1 == PiScalar.of(-tr_sq * Fraction(1, 8), pi_power=-2)
