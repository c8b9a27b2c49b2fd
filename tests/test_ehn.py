"""Volume spectra: foliation criterion, canonical enumeration versus the
brute-force window oracle, maxima, and witnesses."""

import itertools
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repvol import ehn
from repvol.cli import main
from repvol.ehn import (
    VolumeWitness,
    foliation_exists,
    seifert_volume_max,
    spectrum_contains,
    spectrum_size_bound,
    volume_set,
    volume_set_bruteforce,
    witnesses_for,
)
from repvol.seifert import (
    SeifertInvariants,
    euler_number,
    orbifold_chi,
    parse_seifert,
)


def sl2r_invariants(max_genus=2, max_fibers=3, max_a=4, min_a=2):
    """Strategy for closed invariants carrying the relevant geometry."""

    def pair(a_b):
        a, b = a_b
        return math.gcd(a, abs(b)) == 1

    pairs = st.tuples(st.integers(min_a, max_a), st.integers(-max_a, max_a)).filter(pair)
    return (
        st.builds(
            SeifertInvariants,
            genus=st.integers(1, max_genus),
            pairs=st.lists(pairs, max_size=max_fibers).map(tuple),
        )
        .filter(lambda inv: euler_number(inv) != 0)
        .filter(lambda inv: orbifold_chi(inv) < 0)
    )


# ---------------------------------------------------------------- foliation


def test_foliation_exists_worked_cases():
    # genus 1, integer slopes: needs floor sum <= 0 <= ceil sum
    assert foliation_exists(1, [Fraction(1, 2), Fraction(-1, 2)])
    assert foliation_exists(1, [Fraction(1, 2), Fraction(1, 2)])
    assert not foliation_exists(1, [Fraction(3), Fraction(1, 2)])
    assert foliation_exists(2, [Fraction(3), Fraction(-3)])


def test_foliation_reads_slopes_once():
    # both sums come from one reading, so an iterator answers as its list does
    slopes = [Fraction(-3, 2)]
    assert not foliation_exists(1, slopes)
    assert not foliation_exists(1, (s for s in slopes))
    assert foliation_exists(1, iter([Fraction(1, 2), "-1/2"]))


def test_foliation_requires_positive_genus():
    with pytest.raises(ValueError):
        foliation_exists(0, [Fraction(1, 2)])


@given(
    st.integers(1, 3),
    st.lists(
        st.fractions(min_value=-6, max_value=6, max_denominator=6), max_size=4
    ),
)
def test_foliation_monotone_in_genus_and_order_free(genus, slopes):
    # both inequalities only loosen as the genus grows
    if foliation_exists(genus, slopes):
        assert foliation_exists(genus + 1, slopes)
    assert foliation_exists(genus, list(reversed(slopes))) == foliation_exists(
        genus, slopes
    )


# ---------------------------------------------------------------- spectra


def test_volume_set_worked_example():
    inv = parse_seifert("(1; 1/2, 1/2)")
    assert volume_set(inv) == [Fraction(0), Fraction(1, 4), Fraction(1)]


def test_volume_set_genus_two_bundle():
    inv = parse_seifert("(2; 1)")
    assert volume_set(inv) == [Fraction(0), Fraction(1), Fraction(4)]


def test_volume_set_rejects_other_geometry():
    with pytest.raises(ValueError, match="sl2r-tilde"):
        volume_set(parse_seifert("(1; 1/2, -1/2)"))  # e = 0
    with pytest.raises(ValueError, match="sl2r-tilde"):
        volume_set(parse_seifert("(0; 1/2, 1/2, 1/2)"))  # chi = 1/2 > 0


def test_bruteforce_matches_worked_example():
    inv = parse_seifert("(1; 1/2, 1/2)")
    assert volume_set_bruteforce(inv) == [Fraction(0), Fraction(1, 4), Fraction(1)]


@settings(max_examples=25, deadline=None)
@given(sl2r_invariants())
def test_canonical_equals_bruteforce(inv):
    assert volume_set(inv) == volume_set_bruteforce(inv)


def _window_spectrum(inv):
    """The spectrum over the oracle's default window, from the defining
    inequalities and (sum(n_i/a_i) - n)^2 / |e| in Fractions; shares no
    code with ``repvol.ehn``."""
    g = inv.genus
    bound = 2 + 2 * g + sum(a for a, _ in inv.pairs)
    e = sum((Fraction(b, a) for a, b in inv.pairs), Fraction(0))
    window = range(-bound, bound + 1)
    values = set()
    for n_values in itertools.product(window, repeat=len(inv.pairs)):
        slopes = [Fraction(r, a) for r, (a, _) in zip(n_values, inv.pairs)]
        floor_sum = sum(math.floor(x) for x in slopes)
        ceil_sum = sum(math.ceil(x) for x in slopes)
        for n in window:
            if floor_sum - n <= 2 * g - 2 and ceil_sum - n >= 2 - 2 * g:
                values.add((sum(slopes, Fraction(0)) - n) ** 2 / abs(e))
    return sorted(values)


@settings(max_examples=20, deadline=None)
@given(sl2r_invariants(max_genus=2, max_fibers=2, max_a=3))
def test_bruteforce_matches_the_window_formula(inv):
    found = volume_set_bruteforce(inv)
    assert found == _window_spectrum(inv)
    assert all(type(v) is Fraction for v in found)


def test_bruteforce_builds_no_value_through_the_runtime_constructor(monkeypatch):
    from repvol import seifert

    inv = parse_seifert("(2; 1/2, -2/3, 1/5)")
    expected = volume_set(inv)

    def refuse(n, d):
        raise AssertionError("exact._fraction called")

    monkeypatch.setattr(ehn, "_fraction", refuse)
    monkeypatch.setattr(seifert, "_fraction", refuse)
    with pytest.raises(AssertionError):
        volume_set(inv)
    assert volume_set_bruteforce(inv) == expected


@pytest.mark.parametrize(
    "inv",
    [
        parse_seifert("(1; 1/2, -1/2)"),
        parse_seifert("(0; 1/2, 1/2, 1/2)"),
        parse_seifert("(0; 1/2, 1/3, 1/7)"),
        SeifertInvariants(genus=1, pairs=((2, 1),), boundary_count=1),
    ],
    ids=["zero_euler_number", "positive_chi", "genus_zero", "open_boundary"],
)
def test_bruteforce_refuses_what_volume_set_refuses(inv):
    with pytest.raises(ValueError) as refused:
        volume_set(inv)
    with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
        volume_set_bruteforce(inv)


@settings(max_examples=40, deadline=None)
@given(sl2r_invariants(max_genus=3, max_fibers=4, max_a=6))
def test_maximum_closed_form(inv):
    chi = orbifold_chi(inv)
    expected = chi * chi / abs(euler_number(inv))
    assert seifert_volume_max(inv) == expected
    assert volume_set(inv)[-1] == expected


@settings(max_examples=40, deadline=None)
@given(sl2r_invariants(max_genus=3, max_fibers=5, max_a=9, min_a=1))
def test_maximum_is_the_top_of_the_spectrum(inv):
    # fibres with a_i = 1 put the maximum's residue a_i - 1 at 0
    assert seifert_volume_max(inv) == volume_set(inv)[-1]


def test_maximum_mismatch_raises(monkeypatch):
    inv = parse_seifert("(2; 1/4, 1/4, 1/4, 1/6, 1/6, 1/6, 1/12)")
    monkeypatch.setattr(ehn, "orbifold_chi", lambda inv: orbifold_chi(inv) - 1)
    with pytest.raises(RuntimeError, match="volume maximum mismatch"):
        seifert_volume_max(inv)


@settings(max_examples=40, deadline=None)
@given(sl2r_invariants(max_genus=3, max_fibers=4, max_a=6), st.data())
def test_spectrum_contains_matches_volume_set(inv, data):
    spectrum = volume_set(inv)
    assert len(spectrum) <= spectrum_size_bound(inv)
    members = set(spectrum)
    near = [c + delta for c in spectrum for delta in (Fraction(-1, 7), Fraction(1, 2), Fraction(1))]
    probes = data.draw(st.lists(st.sampled_from(spectrum + near), min_size=1, max_size=12))
    for coeff in probes + [Fraction(-1), spectrum[-1] * 4]:
        assert spectrum_contains(inv, coeff) == (coeff in members)


def test_zero_always_in_spectrum():
    # residues all zero with m = 0 always satisfies the constraints
    for text in ("(1; 1/2, 1/2)", "(2; 1)", "(1; 1/3, 1/3, -2/5)"):
        assert Fraction(0) in volume_set(parse_seifert(text))


def _add_fibre_oracle(layer, offsets):
    """The fold before it stopped early, kept verbatim: every offset of every sum."""
    out = dict(layer)  # residue 0 keeps both the sum and the count
    for s, count in layer.items():
        count += 1
        for d in offsets:
            if out.get(s + d, -1) < count:
                out[s + d] = count
    return out


@pytest.mark.parametrize("kind", ["equal", "coprime", "mixed"])
def test_the_early_stop_fold_matches_the_full_fold(kind):
    # seeded moduli: equal ones overlap their sums the most, pairwise
    # coprime ones never, mixed ones in between; every layer is compared
    rng = random.Random(f"early stop fold {kind}")
    for _ in range(300):
        size = rng.randint(1, 5)
        if kind == "equal":
            moduli = [rng.randint(1, 12)] * size
        elif kind == "coprime":
            moduli = rng.sample([2, 3, 5, 7, 11, 13, 17], min(size, 4))
        else:
            moduli = [rng.randint(1, 12) for _ in range(size)]
        lcm, layer = math.lcm(*moduli), {0: 0}
        for a in moduli:
            offsets = range(lcm // a, lcm, lcm // a)
            expected = _add_fibre_oracle(layer, offsets)
            layer = ehn._add_fibre(layer, offsets)
            assert layer == expected, moduli


# ---------------------------------------------------------------- witnesses


def test_witness_worked_example():
    inv = parse_seifert("(2; 1)")
    found = witnesses_for(inv, Fraction(4))
    assert [(w.n_values, w.n, w.zeta, w.z_values) for w in found] == [
        ((0,), -2, Fraction(2), (Fraction(-2),)),
        ((0,), 2, Fraction(-2), (Fraction(2),)),
    ]


def test_witnesses_cover_every_coefficient():
    inv = parse_seifert("(1; 1/2, 1/2)")
    for coeff in volume_set(inv):
        found = witnesses_for(inv, coeff)
        assert found
        for w in found:
            assert w.coeff == coeff


def test_witnesses_reject_missing_coefficient():
    inv = parse_seifert("(1; 1/2, 1/2)")
    with pytest.raises(ValueError, match="not in the volume spectrum"):
        witnesses_for(inv, Fraction(1, 3))


def test_witness_validation_rejects_corrupt_data():
    inv = parse_seifert("(2; 1)")
    good = witnesses_for(inv, Fraction(4))[0]
    with pytest.raises(ValueError, match="zeta"):
        VolumeWitness(
            inv=inv,
            n_values=good.n_values,
            n=good.n,
            zeta=good.zeta + 1,
            z_values=good.z_values,
            coeff=good.coeff,
        )
    with pytest.raises(ValueError, match="floor inequality"):
        VolumeWitness(
            inv=inv,
            n_values=(7,),
            n=0,
            zeta=Fraction(7),
            z_values=(Fraction(0),),
            coeff=Fraction(49),
        )


@settings(max_examples=15, deadline=None)
@given(sl2r_invariants(max_genus=2, max_fibers=2, max_a=3))
def test_every_spectrum_value_has_a_witness(inv):
    spectrum = volume_set(inv)
    rng = random.Random(0)
    for coeff in rng.sample(spectrum, min(3, len(spectrum))):
        for w in witnesses_for(inv, coeff):
            assert w.coeff == coeff  # __post_init__ re-validated everything


def residue_product_witnesses(inv):
    """Coefficient -> sorted (n_values, n) pairs, by walking every residue
    tuple with every allowed offset.  A plain test oracle for the sumset
    path; it shares no code with ``repvol.ehn``."""
    g = inv.genus
    e = euler_number(inv)
    moduli = [a for a, _ in inv.pairs]
    by_coeff = {}
    for residues in itertools.product(*(range(a) for a in moduli)):
        slope_sum = sum(Fraction(r, a) for r, a in zip(residues, moduli))
        positive = sum(1 for r in residues if r > 0)
        for m in range(2 - 2 * g, 2 * g - 2 + positive + 1):
            coeff = (slope_sum - m) ** 2 / abs(e)
            by_coeff.setdefault(coeff, []).append((residues, m))
    return {c: sorted(pairs, key=lambda p: (p[1], p[0])) for c, pairs in by_coeff.items()}


@settings(max_examples=30, deadline=None)
@given(sl2r_invariants(max_genus=2, max_fibers=3, max_a=5))
def test_witnesses_match_residue_product_oracle(inv):
    oracle = residue_product_witnesses(inv)
    assert volume_set(inv) == sorted(oracle)
    for coeff, expected in oracle.items():
        found = witnesses_for(inv, coeff)
        assert [(w.n_values, w.n) for w in found] == expected
        assert all(w.coeff == coeff for w in found)


@pytest.mark.parametrize(
    "coeff",
    [Fraction(-1, 4), Fraction(1, 2)],
    ids=["negative", "not_a_perfect_square"],
)
def test_witnesses_reject_coefficient_off_the_square_lattice(coeff):
    # (1; 1/2, 1/2) has e = 1 and lcm = 2, so a coefficient c needs 4c = t^2
    inv = parse_seifert("(1; 1/2, 1/2)")
    with pytest.raises(ValueError, match="not in the volume spectrum"):
        witnesses_for(inv, coeff)


def test_roadmap_symbol_spectrum_and_witnesses():
    inv = parse_seifert("(2; 1/4, 1/4, 1/4, 1/6, 1/6, 1/6, 1/12)")
    chi = orbifold_chi(inv)
    spectrum = volume_set(inv)
    assert len(spectrum) == 93
    assert spectrum[-1] == seifert_volume_max(inv) == chi * chi / abs(euler_number(inv))
    assert len(witnesses_for(inv, spectrum[-1])) == 2


def test_forty_fibres_finish_through_the_sumset():
    # 2^40 residue tuples: only a path that never walks them can return
    inv = parse_seifert("(1; " + ", ".join(["1/2"] * 40) + ")")
    chi = orbifold_chi(inv)
    spectrum = volume_set(inv)
    assert spectrum[-1] == seifert_volume_max(inv) == chi * chi / abs(euler_number(inv))
    assert [(w.n_values, w.n) for w in witnesses_for(inv, spectrum[-1])] == [
        ((1,) * 40, 0),
        ((1,) * 40, 40),
    ]


def _fraction_witness_fields(inv, n_values, n):
    """zeta, z-values and coefficient of (n_values, n) from the defining
    formulas, in Fractions; shares no code with ``repvol.ehn``."""
    e = sum((Fraction(b, a) for a, b in inv.pairs), Fraction(0))
    total = sum((Fraction(r, a) for r, (a, _) in zip(n_values, inv.pairs)), Fraction(0)) - n
    zeta = total / e
    z_values = tuple(Fraction(r, a) - Fraction(b, a) * zeta for r, (a, b) in zip(n_values, inv.pairs))
    return zeta, z_values, total * total / abs(e)


def _assert_witnesses_exact(inv, coeff):
    found = witnesses_for(inv, coeff)
    assert found
    for w in found:
        zeta, z_values, value = _fraction_witness_fields(inv, w.n_values, w.n)
        assert (w.inv, w.zeta, w.z_values, w.coeff, value) == (inv, zeta, z_values, coeff, coeff)
        assert type(w.n) is int and all(type(r) is int for r in w.n_values)
        assert all(type(x) is Fraction for x in (w.zeta, w.coeff, *w.z_values))
        # the public constructor re-derives and checks every field
        assert VolumeWitness(
            inv=inv, n_values=w.n_values, n=w.n, zeta=w.zeta, z_values=w.z_values, coeff=w.coeff
        ) == w


@settings(max_examples=25, deadline=None)
@given(sl2r_invariants(max_genus=2, max_fibers=4, max_a=6), st.data())
def test_integer_witnesses_match_fraction_formulas(inv, data):
    spectrum = volume_set(inv)
    for coeff in data.draw(st.lists(st.sampled_from(spectrum), min_size=1, max_size=3, unique=True)):
        _assert_witnesses_exact(inv, coeff)


def test_witnesses_on_seeded_symbols_match_fraction_formulas():
    # the fields share one table per root t, and e < 0 folds its sign
    # into the numerators; half of the symbols here have e < 0
    rng = random.Random("witness fields")
    signs = []
    while len(signs) < 40:
        pairs = []
        for _ in range(rng.randint(1, 4)):
            a = rng.randint(2, 7)
            pairs.append((a, rng.choice([b for b in range(-2 * a, 2 * a + 1) if math.gcd(a, abs(b)) == 1])))
        inv = SeifertInvariants(genus=rng.randint(1, 2), pairs=tuple(pairs))
        e = sum((Fraction(b, a) for a, b in pairs), Fraction(0))
        if e == 0:
            continue
        spectrum = volume_set(inv)
        for coeff in {spectrum[-1], *rng.sample(spectrum, min(2, len(spectrum)))}:
            _assert_witnesses_exact(inv, coeff)
        signs.append(e < 0)
    assert 10 <= sum(signs) <= 30


def test_witness_from_lists_equals_and_hashes_like_the_enumerated_one():
    inv = parse_seifert("(1; 1/2, 1/3)")
    (enumerated,) = [w for w in witnesses_for(inv, Fraction(0)) if w.n_values == (0, 0)]
    built = VolumeWitness(inv=inv, n_values=[0, 0], n=0, zeta=Fraction(0), z_values=[0, 0], coeff=Fraction(0))
    assert type(built.n_values) is tuple and type(built.z_values) is tuple
    assert built == enumerated and hash(built) == hash(enumerated)
    assert len({built, enumerated}) == 1


@pytest.mark.parametrize(
    "text, coeff, count",
    [
        ("(1; " + ", ".join(["1/2"] * 14) + ")", Fraction(121, 28), 756),
        ("(2; 1/4, 1/4, 1/4, 1/6, 1/6, 1/6, 1/12)", Fraction(507, 16), 1268),
        ("(1; 1/20000, 1/20000)", Fraction(399960001, 40000), 40000),  # the middle coefficient
    ],
    ids=["fourteen_halves", "roadmap_symbol", "two_of_order_20000"],
)
def test_integer_witnesses_match_fraction_formulas_on_large_sets(text, coeff, count):
    inv = parse_seifert(text)
    assert len(witnesses_for(inv, coeff)) == count
    _assert_witnesses_exact(inv, coeff)


@settings(max_examples=60, deadline=None)
@given(
    sl2r_invariants(max_genus=2, max_fibers=3, max_a=6),
    st.data(),
    st.sampled_from(["none", "zeta", "z_values", "coeff"]),
)
def test_constructor_accepts_exactly_the_defining_data(inv, data, corrupt):
    # any integers, not only canonical residues; the oracle is written here
    n_values = tuple(data.draw(st.integers(-2 * a, 2 * a)) for a, _ in inv.pairs)
    n = data.draw(st.integers(-6, 6))
    zeta, z_values, coeff = _fraction_witness_fields(inv, n_values, n)
    g = inv.genus
    admissible = (
        sum(math.floor(Fraction(r, a)) for r, (a, _) in zip(n_values, inv.pairs)) - n <= 2 * g - 2
        and sum(math.ceil(Fraction(r, a)) for r, (a, _) in zip(n_values, inv.pairs)) - n >= 2 - 2 * g
    )
    if corrupt == "zeta":
        zeta += Fraction(1, 3)
    elif corrupt == "z_values" and z_values:
        z_values = (z_values[0] - 1, *z_values[1:])
    elif corrupt == "coeff":
        coeff += 1
    valid = admissible and (corrupt == "none" or (corrupt == "z_values" and not z_values))
    fields = dict(inv=inv, n_values=n_values, n=n, zeta=zeta, z_values=z_values, coeff=coeff)
    if valid:
        assert VolumeWitness(**fields).coeff == coeff
    else:
        with pytest.raises(ValueError, match="witness"):
            VolumeWitness(**fields)


# ---------------------------------------------------------------- budget and geometry


def test_spectrum_contains_refuses_a_spectrum_over_the_budget():
    inv = parse_seifert("(1; 1/1000003, 1/1000033)")
    with pytest.raises(ValueError, match=r"^spectrum too large: up to 3000108000297 values, over the limit of 1000000$"):
        spectrum_contains(inv, Fraction(0))
    # just under the budget it answers: (1; 1/2) has bound 2 * 2 = 4
    assert spectrum_contains(parse_seifert("(1; 1/2)"), Fraction(0))


@pytest.mark.parametrize(
    "call, derived",
    [
        # the spectrum paths test the geometry on integers over the lcm;
        # only the maximum's closed-form cross-check reads e and chi
        (lambda inv: volume_set(inv), []),
        (lambda inv: spectrum_contains(inv, Fraction(0)), []),
        (lambda inv: witnesses_for(inv, Fraction(0)), []),
        (lambda inv: seifert_volume_max(inv), ["euler_number", "orbifold_chi"]),
        (lambda inv: main(["seifert", "sv", "(1; 1/2, 1/3)"]), ["euler_number", "orbifold_chi"]),
    ],
    ids=["volume_set", "spectrum_contains", "witnesses_for", "seifert_volume_max", "cli_sv"],
)
def test_geometry_is_derived_once_per_call(monkeypatch, call, derived):
    from repvol import seifert

    calls = []
    for name in ("euler_number", "orbifold_chi"):
        def counted(inv, _name=name, _real=getattr(seifert, name)):
            calls.append(_name)
            return _real(inv)
        # classify_geometry reads seifert's names, the ehn paths their own
        monkeypatch.setattr(seifert, name, counted)
        monkeypatch.setattr(ehn, name, counted)
    call(parse_seifert("(1; 1/2, 1/3)"))
    assert sorted(calls) == derived


@pytest.mark.parametrize(
    "text, n_values, z_values",
    [("(1; 1/2, -1/2)", (0, 0), (0, 0)), ("(2;)", (), ())],
    ids=["cancelling_fibres", "no_fibres"],
)
def test_witness_constructor_refuses_zero_euler_number(text, n_values, z_values):
    # e = 0: the field formulas divide by e, so the geometry is refused first
    inv = parse_seifert(text)
    with pytest.raises(ValueError, match=r"^volume spectrum needs sl2r-tilde geometry \(e = 0, "):
        VolumeWitness(inv=inv, n_values=n_values, n=0, zeta=0, z_values=z_values, coeff=0)


# ---------------------------------------------------------------- one fibre table per space

# Each public entry point, asked on a space with one coefficient.
TABLE_CALLS = {
    "volume_set": lambda inv, coeff: volume_set(inv),
    "seifert_volume_max": lambda inv, coeff: seifert_volume_max(inv),
    "spectrum_contains": lambda inv, coeff: spectrum_contains(inv, coeff),
    "witnesses_for": lambda inv, coeff: witnesses_for(inv, coeff),
}


def test_one_fold_serves_every_call_on_a_space(monkeypatch):
    folds = []
    real = ehn._add_fibre
    monkeypatch.setattr(ehn, "_add_fibre", lambda layer, offsets: folds.append(offsets) or real(layer, offsets))
    inv = parse_seifert("(1; 1/2, -1/3, 2/5, 1/4)")
    for _ in range(2):
        spectrum = volume_set(inv)
        top = seifert_volume_max(inv)
        assert spectrum_contains(inv, top) and spectrum_contains(inv, spectrum[len(spectrum) // 2])
        assert witnesses_for(inv, top) and witnesses_for(inv, spectrum[len(spectrum) // 2])
    # one _add_fibre call per fibre: the layers are folded once in all
    assert len(folds) == len(inv.pairs)


def _seeded_symbols(count):
    rng = random.Random("one fibre table")
    symbols = []
    while len(symbols) < count:
        pairs = []
        for _ in range(rng.randint(1, 4)):
            a = rng.randint(2, 6)
            pairs.append((a, rng.choice([b for b in range(-a, a + 1) if b and math.gcd(a, abs(b)) == 1])))
        genus = rng.randint(1, 2)
        if sum((Fraction(b, a) for a, b in pairs), Fraction(0)) != 0:
            symbols.append((genus, tuple(pairs)))
    return symbols


@pytest.mark.parametrize("genus, pairs", _seeded_symbols(20))
def test_every_call_order_answers_as_on_a_fresh_space(genus, pairs):
    spectrum = volume_set(SeifertInvariants(genus, pairs))
    coeff = spectrum[len(spectrum) // 3]
    expected = {name: call(SeifertInvariants(genus, pairs), coeff) for name, call in TABLE_CALLS.items()}
    for order in itertools.permutations(TABLE_CALLS):
        inv = SeifertInvariants(genus, pairs)
        for name in order:
            assert TABLE_CALLS[name](inv, coeff) == expected[name], (order, name)


def _refusal(call):
    with pytest.raises(ValueError) as refused:
        call()
    return str(refused.value)


def test_the_header_paths_never_fold(monkeypatch):
    def refuse(layer, offsets):
        raise AssertionError("folded")

    monkeypatch.setattr(ehn, "_add_fibre", refuse)
    inv = parse_seifert("(1; 1/2, 1/3, -1/7)")
    chi, e = orbifold_chi(inv), euler_number(inv)
    assert seifert_volume_max(inv) == chi * chi / abs(e)
    assert spectrum_size_bound(inv) == 42 * 4  # min(2 * 3 * 7, 86) sums, 4g - 3 + 3 offsets
    witness = VolumeWitness(inv=inv, n_values=(0, 0, 0), n=0, zeta=Fraction(0), z_values=(0, 0, 0), coeff=Fraction(0))
    assert witness.coeff == 0
    assert inv._table is not None and inv._table.layers is None
    # the budget is checked before any fold, on every call
    big = parse_seifert("(1; 1/1000003, 1/1000033)")
    texts = {_refusal(lambda: spectrum_contains(big, Fraction(0))) for _ in range(2)}
    assert texts == {"spectrum too large: up to 3000108000297 values, over the limit of 1000000"}
    assert big._table.layers is None


@pytest.mark.parametrize(
    "inv",
    [
        parse_seifert("(1; 1/2, -1/2)"),
        parse_seifert("(0; 1/2, 1/2, 1/2)"),
        parse_seifert("(0; 1/2, 1/3, 1/7)"),
        SeifertInvariants(genus=1, pairs=((2, 1),), boundary_count=1),
    ],
    ids=["zero_euler_number", "positive_chi", "genus_zero", "open_boundary"],
)
def test_a_refused_space_keeps_no_table_and_refuses_alike(monkeypatch, inv):
    def refuse(layer, offsets):
        raise AssertionError("folded")

    monkeypatch.setattr(ehn, "_add_fibre", refuse)
    zeros = (0,) * len(inv.pairs)
    calls = [
        *(lambda call=call: call(inv, Fraction(0)) for call in TABLE_CALLS.values()),
        lambda: spectrum_size_bound(inv),
        lambda: VolumeWitness(inv=inv, n_values=zeros, n=0, zeta=0, z_values=zeros, coeff=0),
    ]
    texts = [_refusal(call) for call in calls for _ in range(2)]
    assert len(set(texts)) == 1
    assert inv._table is None


def test_a_space_with_its_table_keeps_the_record_contract():
    import copy
    import pickle

    text = "(1; 1/2, -1/3, 2/5)"
    inv = parse_seifert(text)
    top = seifert_volume_max(inv)
    found = witnesses_for(inv, top)
    assert inv._table.layers is not None and inv._table.index is not None
    fresh = parse_seifert(text)
    assert (repr(inv), inv, hash(inv)) == (repr(fresh), fresh, hash(fresh))
    assert witnesses_for(fresh, top) == found
    (first, *_) = found
    fields = dict(n_values=first.n_values, n=first.n, zeta=first.zeta, z_values=first.z_values, coeff=top)
    assert VolumeWitness(inv=parse_seifert(text), **fields) == first
    clones = [lambda x, p=p: pickle.loads(pickle.dumps(x, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in (*clones, copy.copy, copy.deepcopy):
        twin = clone(inv)
        assert (repr(twin), twin, hash(twin)) == (repr(inv), inv, hash(inv))
        # the table comes along in the instance __dict__, with no hooks
        assert vars(twin) == vars(inv)
        assert witnesses_for(twin, top) == found
    # an equal space listing its pairs in another order keeps its own
    # table, and its witnesses follow its own order
    swapped = SeifertInvariants(inv.genus, inv.pairs[::-1])
    assert swapped == inv
    assert {(w.n, w.n_values[::-1]) for w in witnesses_for(swapped, top)} == {(w.n, w.n_values) for w in found}


def test_the_class_index_is_built_once_per_space(monkeypatch):
    # witnesses_for sorts each layer into its classes once per space and
    # keeps them in the table; a fold, the spectrum and the membership test
    # never sort a layer, since a graphs pass folds thousands of small spaces
    sorted_steps = []
    classes = ehn._classes
    monkeypatch.setattr(ehn, "_classes", lambda layer, d: sorted_steps.append(d) or classes(layer, d))
    inv = parse_seifert("(1; 1/2, -1/3, 2/5)")
    spectrum = volume_set(inv)
    assert all(spectrum_contains(inv, value) for value in spectrum)
    assert sorted_steps == [] and inv._table.index is None
    found = [witnesses_for(inv, value) for value in (spectrum[-1], spectrum[0], spectrum[-1])]
    assert found[0] == found[2] and found[1]
    assert sorted_steps == inv._table.steps == [15, 10, 6]
    assert inv._table.index == tuple(map(classes, inv._table.layers, inv._table.steps))
    fresh = parse_seifert("(1; 1/2, -1/3, 2/5)")
    assert spectrum_contains(fresh, spectrum[0]) and volume_set(fresh) == spectrum
    assert sorted_steps == [15, 10, 6] and fresh._table.index is None


def test_a_witness_off_its_root_is_an_internal_error(monkeypatch):
    # the self-check compares each witness's own t with its root's
    real = ehn._t_of
    monkeypatch.setattr(ehn, "_t_of", lambda *args: real(*args) + 1)
    with pytest.raises(RuntimeError, match=r"^witness \(\d+, \d+\), -?\d+ fails its own constraints$"):
        witnesses_for(parse_seifert("(1; 1/2, 1/3)"), Fraction(0))


# ---------------------------------------------------------------- budgets

HUGE = SeifertInvariants(1, ((1000003, 1), (1000033, 1)))


def test_each_budget_refuses_before_any_fold_or_window_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(ehn, "_add_fibre", refuse)
    monkeypatch.setattr(itertools, "product", refuse)
    values = "spectrum too large: up to 3000108000297 values, over the limit of 1000000"
    assert _refusal(lambda: volume_set(HUGE)) == values
    assert _refusal(lambda: witnesses_for(HUGE, Fraction(1, 4))) == values
    assert _refusal(lambda: volume_set_bruteforce(HUGE)) == (
        "spectrum too large: up to 48001944019683 oracle (tuple, n) pairs, over the limit of 1000000"
    )
    assert HUGE._table.layers is None


def test_limit_admits_each_function_at_exactly_its_count():
    # (1; 1/2, 1/2): spectrum bound 9 values, oracle window 867 pairs
    inv = parse_seifert("(1; 1/2, 1/2)")
    spectrum = [Fraction(0), Fraction(1, 4), Fraction(1)]
    assert volume_set(inv, limit=9) == spectrum
    assert volume_set_bruteforce(inv, limit=867) == spectrum
    assert witnesses_for(inv, Fraction(1), limit=9) == witnesses_for(inv, Fraction(1))
    values = "spectrum too large: up to 9 values, over the limit of 8"
    assert _refusal(lambda: volume_set(inv, limit=8)) == values
    assert _refusal(lambda: witnesses_for(inv, Fraction(1), limit=8)) == values
    assert _refusal(lambda: volume_set_bruteforce(inv, limit=866)) == (
        "spectrum too large: up to 867 oracle (tuple, n) pairs, over the limit of 866"
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda inv, limit: volume_set(inv, limit=limit),
        lambda inv, limit: witnesses_for(inv, Fraction(1), limit=limit),
        lambda inv, limit: volume_set_bruteforce(inv, limit=limit),
    ],
    ids=["volume_set", "witnesses_for", "volume_set_bruteforce"],
)
@pytest.mark.parametrize("limit, shown", [("5", "'5'"), (None, "None"), (2.5, "2.5"), (True, "True")])
def test_limit_follows_the_integer_rule(call, limit, shown):
    with pytest.raises(TypeError) as refused:
        call(parse_seifert("(1; 1/2, 1/2)"), limit)
    assert str(refused.value) == f"limit {shown} is not an integer"


def test_a_witness_list_over_the_limit_is_refused_before_it_is_built(monkeypatch):
    # coefficient 1/16 of (1; 8 x 1/2): 256 witnesses, spectrum bound 81
    inv = parse_seifert("(1; " + ", ".join(["1/2"] * 8) + ")")
    assert len(witnesses_for(inv, Fraction(1, 16), limit=256)) == 256
    monkeypatch.setattr(ehn, "VolumeWitness", None)  # building one would fail
    assert _refusal(lambda: witnesses_for(inv, Fraction(1, 16), limit=255)) == (
        "spectrum too large: up to 256 witnesses, over the limit of 255"
    )
    thirty = parse_seifert("(1; " + ", ".join(["1/2"] * 30) + ")")
    assert _refusal(lambda: witnesses_for(thirty, Fraction(15, 4))) == (
        "spectrum too large: up to 691988432 witnesses, over the limit of 1000000"
    )


def _tree_size(inv, coeff, limit=ehn.MAX_VALUES):
    """``ehn._tree_size`` on ``coeff``, from the starts ``witnesses_for`` walks from."""
    _, offsets = ehn._offsets(inv, coeff, limit)
    table = ehn._indexed(inv)
    hi = 2 * inv.genus - 2
    return ehn._tree_size(table, [(t + m * table.lcm, m - hi) for t, m in offsets])


def test_witness_count_matches_the_list():
    # 300 seeded symbols; those with sl2r-tilde geometry give up to three
    # coefficients each
    rng = random.Random("witness count")
    compared = 0
    for _ in range(300):
        pairs = []
        for _ in range(rng.randint(0, 5)):
            a = rng.randint(1, 6)
            pairs.append((a, rng.choice([b for b in range(-2 * a, 2 * a + 1) if math.gcd(a, abs(b)) == 1])))
        inv = SeifertInvariants(rng.randint(1, 3), tuple(pairs))
        if euler_number(inv) == 0 or orbifold_chi(inv) >= 0:
            continue
        spectrum = volume_set(inv)
        for coeff in rng.sample(spectrum, min(3, len(spectrum))):
            assert _tree_size(inv, coeff) == len(witnesses_for(inv, coeff))
            compared += 1
    assert compared == 757


def _witness_count_oracle(steps, lcm, hi, offsets):
    """The witness count by a forward fold of every residue tuple, as the
    budget once counted it: residue sum -> {nonzero count: tuples}, summed
    over the offsets (t, m) on the counts of at least m - hi."""
    tuples = {0: {0: 1}}
    for step in steps:
        out = {s: dict(row) for s, row in tuples.items()}  # residue 0
        for s, row in tuples.items():
            for d in range(step, lcm, step):
                target = out.setdefault(s + d, {})
                for count, n in row.items():
                    target[count + 1] = target.get(count + 1, 0) + n
        tuples = out
    return sum(n for t, m in offsets for count, n in tuples[t + m * lcm].items() if count >= m - hi)


def _oracle_count(inv, coeff, limit=ehn.MAX_VALUES):
    _, offsets = ehn._offsets(inv, coeff, limit)
    table = ehn._fold(inv)
    return _witness_count_oracle(table.steps, table.lcm, 2 * inv.genus - 2, offsets)


def _seeded_moduli_symbols():
    # equal moduli, where residue sums overlap most, and pairwise coprime
    # moduli, where they never do
    rng = random.Random("tree count")
    symbols = []
    while len(symbols) < 40:
        a = rng.randint(2, 7)
        equal = [a] * rng.randint(2, 6)
        coprime = rng.sample([2, 3, 5, 7, 11, 13], rng.randint(1, 4))
        for moduli in (equal, coprime):
            pairs = tuple((a, rng.choice([b for b in range(-2 * a, 2 * a + 1) if math.gcd(a, abs(b)) == 1])) for a in moduli)
            inv = SeifertInvariants(rng.randint(1, 2), pairs)
            if euler_number(inv) != 0 and orbifold_chi(inv) < 0:
                symbols.append(inv)
    return symbols


def test_tree_count_matches_the_tuple_fold():
    rng = random.Random("tree count coefficients")
    compared = 0
    for inv in _seeded_moduli_symbols():
        spectrum = volume_set(inv)
        for coeff in rng.sample(spectrum, min(4, len(spectrum))):
            assert _tree_size(inv, coeff) == _oracle_count(inv, coeff), (inv, coeff)
            compared += 1
    assert compared == 160


@pytest.mark.parametrize(
    "text",
    [
        "(1; " + ", ".join(["1/2"] * 20) + ")",
        "(1; " + ", ".join(["1/3"] * 13) + ")",
        "(1; 1/1001, 1/1003)",
        "(2; 1/31, 1/37, 1/41, 1/43)",
        "(1; 1/2000, 1/2000)",
    ],
    ids=["twenty_halves", "thirteen_thirds", "1001_1003", "four_primes", "2000_2000"],
)
def test_tree_count_matches_the_tuple_fold_at_the_top(text):
    # one oracle fold each, over every residue tuple: one to four million
    # on the last three, where the tree count visits a few states per
    # layer; two of them have spectrum bounds over the default budget
    inv, limit = parse_seifert(text), 10**8
    top = seifert_volume_max(inv)
    count = _tree_size(inv, top, limit)
    assert count == _oracle_count(inv, top, limit) == len(witnesses_for(inv, top, limit=limit))


def _witness_walk_oracle(inv, coeff):
    """The witnesses of ``coeff`` by the walk that tested every residue of
    each fibre at each frame, as ``witnesses_for`` once walked ehn's own
    layers; each witness built by the public constructor from the
    defining formulas, in the order ``witnesses_for`` lists them."""
    coeff, offsets = ehn._offsets(inv, coeff, ehn.MAX_VALUES)
    table = ehn._fold(inv)
    lcm, steps, layers = table.lcm, table.steps, table.layers
    hi, p = 2 * inv.genus - 2, len(steps)
    found = []
    for t, m in offsets:
        residues = [0] * (p + 1)
        stack = [(p, t + m * lcm, m - hi, 0)]
        while stack:
            k, s, need, r = stack.pop()
            residues[k] = r
            if k == 1:
                residues[0] = s // steps[0]
                found.append((m, tuple(residues[:p])))
                continue
            below = layers[k - 1]
            if below.get(s, need - 1) >= need:
                stack.append((k - 1, s, need, 0))
            need, step = need - 1, steps[k - 1]
            for r, d in enumerate(range(step, lcm, step), 1):
                if below.get(s - d, need - 1) >= need:
                    stack.append((k - 1, s - d, need, r))
    witnesses = []
    for m, residues in sorted(found):
        zeta, z_values, _ = _fraction_witness_fields(inv, residues, m)
        witnesses.append(VolumeWitness(inv=inv, n_values=residues, n=m, zeta=zeta, z_values=z_values, coeff=coeff))
    return witnesses


def test_the_class_walk_matches_the_residue_walk():
    # a fibre of order 2 or 3 before two or three fibres of mixed order up
    # to 60: layers[1] has two or three keys, so the inner layers are sparse
    # and most residues of each outer fibre reach no key of the layer below
    rng = random.Random("class walk")
    symbols = compared = witnesses = 0
    while symbols < 40:
        moduli = [rng.choice([2, 3]), *(rng.randint(2, 60) for _ in range(rng.randint(2, 3)))]
        pairs = tuple((a, rng.choice([b for b in range(-2 * a, 2 * a + 1) if math.gcd(a, abs(b)) == 1])) for a in moduli)
        inv = SeifertInvariants(rng.randint(1, 2), pairs)
        if euler_number(inv) == 0:
            continue
        spectrum = volume_set(inv)
        for coeff in {spectrum[-1], spectrum[len(spectrum) // 2], rng.choice(spectrum)}:
            found = witnesses_for(inv, coeff)
            assert found == _witness_walk_oracle(inv, coeff), (inv, coeff)
            compared += 1
            witnesses += len(found)
        symbols += 1
    assert (compared, witnesses) == (120, 4142)


def test_a_coefficient_without_a_root_never_folds(monkeypatch):
    # the coefficient and its t^2 roots are read from the header: a
    # malformed coefficient is refused, and an off-lattice one answered,
    # with the layers of (1; 1/2000, 1/2000) never folded
    def refuse(layer, offsets):
        raise AssertionError("folded")

    monkeypatch.setattr(ehn, "_add_fibre", refuse)
    inv = parse_seifert("(1; 1/2000, 1/2000)")
    assert _refusal(lambda: spectrum_contains(inv, "x")) == "not a rational number: 'x'"
    assert _refusal(lambda: witnesses_for(inv, "x")) == "not a rational number: 'x'"
    assert spectrum_contains(inv, Fraction(1, 7)) is False
    assert _refusal(lambda: witnesses_for(inv, Fraction(1, 7))) == "coefficient 1/7 is not in the volume spectrum"
    assert inv._table.layers is None


# ---------------------------------------------------------------- work counts


def _lines_run(call, *args, code=None):
    """The lines of ``repvol.ehn`` that ``call(*args)`` runs, only those of
    ``code`` if given, counted by a ``sys.settrace`` line collector as
    ``tests/coverage.py`` collects them: a work count, not a time."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename == ehn.__file__ and (code is None or frame.f_code is code):
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        call(*args)
    finally:
        sys.settrace(previous)
    return lines


def _fold_and_walk(a):
    inv = parse_seifert(f"(1; 1/{a}, 1/{a})")
    spectrum = volume_set(inv)
    assert len(spectrum) == 2 * a - 1
    assert len(witnesses_for(inv, spectrum[len(spectrum) // 2])) == 2 * a


def test_the_fold_and_the_walk_grow_linearly():
    # (1; 1/a, 1/a): the spectrum and the witnesses of its middle
    # coefficient; a fold over every offset, or a walk testing every
    # residue of the first fibre, grows fourfold per doubling of a
    counts = [_lines_run(_fold_and_walk, a) for a in (2500, 5000, 10000, 20000)]
    assert all(later <= 2.2 * earlier for earlier, later in itertools.pairwise(counts)), counts


def test_the_walk_over_a_sparse_inner_layer_grows_linearly():
    # (1; 1/2, 1/a, 1/a) at its middle coefficient, folded before the
    # count: layers[1] has two keys, so a walk testing every residue of
    # each fibre grows fourfold per doubling of a, with 7a/2 witnesses
    counts = []
    for a in (1000, 2000, 4000, 8000):
        inv = parse_seifert(f"(1; 1/2, 1/{a}, 1/{a})")
        spectrum = volume_set(inv)
        middle = spectrum[len(spectrum) // 2]
        assert len(witnesses_for(inv, middle)) == 7 * a // 2
        counts.append(_lines_run(witnesses_for, inv, middle))
    assert all(later <= 2.2 * earlier for earlier, later in itertools.pairwise(counts)), counts


def test_the_tree_count_grows_linearly():
    # (1; 1/a, 1/a, 1/a) at its middle coefficient: the tree count alone,
    # where stepping every state by every residue grows fourfold per doubling
    counts = []
    for a in (150, 300, 600, 1200):
        inv = parse_seifert(f"(1; 1/{a}, 1/{a}, 1/{a})")
        spectrum = volume_set(inv)
        counts.append(_lines_run(_tree_size, inv, spectrum[len(spectrum) // 2], code=ehn._tree_size.__code__))
    assert all(later <= 2.2 * earlier for earlier, later in itertools.pairwise(counts)), counts
