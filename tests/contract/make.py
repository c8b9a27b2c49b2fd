"""Generator of the library contract corpus, ``library.json``.

The corpus holds SHA-256 digests of reprs: each entry digests one input
and everything the library returns, raises or warns on it.  The
``forms`` key covers ``repvol.liecs`` on seeded algebras of dimension 1
to 12: Lie algebras built as direct sums of small blocks, moved to a
basis with Gaussian-rational entries (so structure constants and Gram
entries carry imaginary parts and non-unit denominators), Gram forms
whose entries mix pi powers, and tables that fail the Jacobi identity.
For each it records ``validate_jacobi`` (the triple and its residual),
``spec.bracket``, ``is_ad_invariant``, ``cs_three_form`` (with any
warning), ``mc_differential``, ``bracket_two_form``, ``d``, the form
operators and ``exactness_split`` (the primitive, ``None``, or the
refusal text).

The ``scalars`` key covers ``repvol.exact``'s scalars and the trace
code of ``repvol.liecs``: every operator of ``GaussianRational`` and
``PiScalar`` on seeded operands (equal and unequal denominators, real
values, zero, and int and ``Fraction`` operands on either side, pi
powers -2, 0 and 1), with its result or its refusal; equality, hashing,
``str`` and the reprs of copy and pickle round trips; ``chern_poly_coeffs``
on seeded traceless 2x2 and antisymmetric 3x3 matrices, with one shared
pi power or mixed powers; and the canned ``sl2c_gram`` and
``iso_sl2r_gram``.

The ``graphs`` key covers ``repvol.jsj``: seeded chain, tree and cycle
documents with top-level assignments, named ``cases`` with
``killed_slopes``, or none, whose pieces are filled, direct (exact or
numeric) or small-image, some with one planted fault; one malformed
document per loader refusal; and seeded ratio graphs, with one graph
per ``rw_consistency`` refusal.  For each it
records ``load_graph_document`` (the records' repr or the refusal
text), and per case ``validate_spec`` and ``additivity_sum``, or
``rw_consistency``.

The ``spectra`` key covers ``repvol.ehn``: seeded closed symbols of
genus 1 to 3 with up to four fibres, multiplicities 1 to 6 included, and
one symbol per refusal (e = 0, chi = 0, chi > 0, genus 0, an open
boundary, a spectrum over the budget, and a member coefficient with more
witnesses than the budget).  For each it records ``volume_set``,
``seifert_volume_max``, ``volume_set_bruteforce`` (on the symbols whose
window is small), ``spectrum_contains`` and the full ``witnesses_for``
list, in its order, on seeded members and non-members of the spectrum,
and ``foliation_exists`` on the symbol's slopes given as ints, floats,
``Fraction``s and ``"p/q"`` strings, at its genus and at genus 0.

The ``covers`` key covers ``repvol.covers``: seeded
``merge_copy_counts``, ``colored_merge_counts``, ``elevation_count``
(through ``TorusCoverDatum``) and ``cover_intersection`` calls, with
dividing and non-dividing degrees, and one call per refusal (an empty
list, lists of unequal length, and zero, negative, bool, float and
string values).  For each it records the result or the refusal text.

The ``motegi`` key covers ``repvol.jsj``'s torus-knot family: seeded
``motegi_case`` and ``motegi_spec`` calls, coprime or not, and one call
per refusal (a parameter below 2, a float, a bool, a string that is no
integer), with ``validate_spec`` run on each spec built.

Inputs are built with ``GaussianRational`` arithmetic from
``random.Random`` seeded by name, so the same code always writes the
same file.  The corpus is written once and read through; a later change
to it is a deliberate contract change.  Rewrite it with

    PYTHONPATH=src python tests/contract/make.py [--out PATH]

and, before that, list what a change would move with

    PYTHONPATH=src python tests/contract/make.py --diff [PATH]

which regenerates the corpus in memory and prints one line
``<key> <added|removed|moved> <entry>`` per entry that differs from the
corpus at PATH (by default the committed ``library.json``), or
``no change``.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import pickle
import itertools
import json
import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

from repvol.covers import (
    TorusCoverDatum,
    colored_merge_counts,
    cover_intersection,
    elevation_count,
    merge_copy_counts,
)
from repvol.ehn import (
    foliation_exists,
    seifert_volume_max,
    spectrum_contains,
    volume_set,
    volume_set_bruteforce,
    witnesses_for,
)
from repvol.exact import GaussianRational, PiScalar
from repvol.jsj import additivity_sum, load_graph_document, motegi_case, motegi_spec, rw_consistency, validate_spec
from repvol.liecs import (
    ExteriorForm,
    chern_poly_coeffs,
    iso_sl2r_gram,
    sl2c_gram,
    GramForm,
    LieAlgebraSpec,
    bracket_two_form,
    cs_three_form,
    d,
    exactness_split,
    is_ad_invariant,
    mc_differential,
    validate_jacobi,
)
from repvol.seifert import SeifertInvariants

LIBRARY = Path(__file__).with_name("library.json")

# ---------------------------------------------------------------- scalars

G = GaussianRational
ZERO, ONE = G(), G(1)
# Basis-change entries: units, imaginary parts and denominators.
ENTRIES = [ONE, G(-1), G(0, 1), G(Fraction(1, 2), Fraction(1, 2)), G(Fraction(1, 3)), G(0, Fraction(-2, 5))]
DIAGONAL = [ONE, ONE, G(2), G(0, 1), G(Fraction(1, 2))]
SCALARS = [ONE, G(Fraction(-3, 2)), G(0, 1), G(Fraction(2, 3), Fraction(-1, 3))]

# ---------------------------------------------------------------- algebras

# name -> (dim, {(j, k): {i: c}}, invariant Gram matrix)
BLOCKS = {
    "sl2": (3, {(0, 1): {1: -2}, (0, 2): {2: 2}, (1, 2): {0: -1}}, ((2, 0, 0), (0, 0, 1), (0, 1, 0))),
    "so3": (3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    "iso": (
        4,
        {(0, 1): {1: -2}, (0, 2): {2: 2}, (0, 3): {1: 2, 2: 2}, (1, 2): {0: -1}, (1, 3): {0: -1}, (2, 3): {0: -1}},
        ((2, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, -1), (0, 1, -1, -1)),
    ),
    "heis": (3, {(0, 1): {2: 1}}, ((0, 0, 0), (0, 0, 0), (0, 0, 0))),
    "aff": (2, {(0, 1): {1: 1}}, ((1, 0), (0, 0))),
    "ab": (1, {}, ((1,),)),
}


def _blocks(rng, dim):
    """Seeded blocks filling exactly ``dim`` basis vectors."""
    blocks = []
    while dim:
        name = rng.choice([b for b in BLOCKS if BLOCKS[b][0] <= dim])
        blocks.append(name)
        dim -= BLOCKS[name][0]
    return blocks


def _direct_sum(rng, blocks, powers):
    """Dimension, full structure tensor c[i][j][k] and Gram matrix of
    (value, pi power) pairs, with a seeded scalar and pi power per block."""
    n = sum(BLOCKS[b][0] for b in blocks)
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    gram = [[(ZERO, 0)] * n for _ in range(n)]
    offset = 0
    for name in blocks:
        size, table, unit = BLOCKS[name]
        scale, power = rng.choice(SCALARS), rng.choice(powers)
        for (j, k), vec in table.items():
            for i, v in vec.items():
                c[offset + i][offset + j][offset + k] = G(v)
                c[offset + i][offset + k][offset + j] = G(-v)
        for i, j in itertools.product(range(size), repeat=2):
            gram[offset + i][offset + j] = (scale * unit[i][j], power)
        offset += size
    return n, c, gram


def _basis_change(rng, n, c, gram):
    """The tensor and Gram matrix in the basis X'_a = sum_j P[j][a] X_j,
    with P upper bidiagonal; Q = P^-1 is computed by back substitution."""
    p = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        p[i][i] = rng.choice(DIAGONAL)
        if i + 1 < n:
            p[i][i + 1] = rng.choice(ENTRIES + [ZERO])
    q = [[ZERO] * n for _ in range(n)]
    for col in range(n):
        for i in range(n - 1, -1, -1):
            total = ONE if i == col else ZERO
            for j in range(i + 1, n):
                total = total - p[i][j] * q[j][col]
            q[i][col] = total / p[i][i]
    column = [[(j, p[j][a]) for j in range(n) if p[j][a]] for a in range(n)]
    bracket = {(j, k): [(l, c[l][j][k]) for l in range(n) if c[l][j][k]] for j, k in itertools.product(range(n), repeat=2)}
    new = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for a, b in itertools.permutations(range(n), 2):
        old = {}
        for (j, x), (k, y) in itertools.product(column[a], column[b]):
            for l, v in bracket[(j, k)]:
                old[l] = old.get(l, ZERO) + x * y * v
        for i in range(n):
            total = ZERO
            for l, v in old.items():
                if q[i][l]:
                    total = total + q[i][l] * v
            new[i][a][b] = total
    moved = [[None] * n for _ in range(n)]
    for a, b in itertools.combinations_with_replacement(range(n), 2):
        total, power = ZERO, 0
        for (j, x), (k, y) in itertools.product(column[a], column[b]):
            value, g_power = gram[j][k]
            if value:
                # blocks of other pi powers mix here: the last one sets it
                total, power = total + x * y * value, g_power
        moved[a][b] = moved[b][a] = (total, power)
    return new, moved


def _spec(n, c, check=False):
    brackets = tuple(
        ((j, k), tuple(PiScalar(c[i][j][k]) for i in range(n)))
        for j, k in itertools.combinations(range(n), 2)
        if any(c[i][j][k] for i in range(n))
    )
    return LieAlgebraSpec(basis=tuple(f"e{i}" for i in range(n)), brackets=brackets, check_jacobi=check)


def _gram(gram):
    return GramForm(tuple(tuple(PiScalar(v, p) for v, p in row) for row in gram))


def _form(rng, n, degree, powers, count=4):
    """Up to ``count`` seeded terms on increasing index tuples, repeats
    included, each index with one pi power drawn from ``powers``."""
    keys = list(itertools.combinations(range(n), degree))
    terms, power = [], {}
    for _ in range(rng.randint(1, count) if keys else 0):
        key, coeff = rng.choice(keys), rng.choice(SCALARS + ENTRIES)
        terms.append((key, PiScalar(coeff, power.setdefault(key, rng.choice(powers)))))
    return ExteriorForm(n, degree, tuple(terms))


# ---------------------------------------------------------------- outcomes


def _outcome(call, *args):
    """repr of the result, or the text of the refusal, plus any warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            text = repr(call(*args))
        except (ValueError, TypeError, RuntimeError, ZeroDivisionError) as exc:
            text = f"{type(exc).__name__}: {exc}"
    return text + "".join(f"\nwarning: {w.message}" for w in caught)


def _jacobi(spec):
    violation = validate_jacobi(spec)
    return "None" if violation is None else f"{violation.triple!r} {violation.residual!r}"


def _value(call, *args):
    """call(*args), or None when it refuses."""
    try:
        return call(*args)
    except ValueError:
        return None


def _digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


# Per case: (dimension, pi powers drawn for Gram blocks and forms, dense basis change)
CASES = [(dim, powers, dense) for dim in range(1, 13) for powers in ((0,), (0, 0, 1, -2)) for dense in (False, True)]


def _algebra_case(name, rng, dim, powers, dense):
    """Digests for one algebra, keyed by ``<name>/<what>``."""
    n, c, gram = _direct_sum(rng, _blocks(rng, dim), powers)
    if dense:
        c, gram = _basis_change(rng, n, c, gram)
    if len(powers) > 1 and n > 1:
        # one symmetric pair of entries moved to another pi power
        i, j = rng.sample(range(n), 2)
        gram[i][j] = gram[j][i] = (gram[i][j][0] or ONE, rng.choice(powers))
    spec, form = _spec(n, c), _gram(gram)
    out = {}
    seen = repr(spec)

    def record(what, text, *inputs):
        out[f"{name}/{what}"] = _digest(seen, *inputs, text)

    record("jacobi", _jacobi(spec))
    record("bracket", repr([spec.bracket(j, k) for j, k in itertools.permutations(range(n), 2)]))
    record("mc_differential", repr([mc_differential(spec, i) for i in range(n)]))
    record("bracket_two_form", repr([bracket_two_form(spec, i) for i in range(n)]))
    record("is_ad_invariant", _outcome(is_ad_invariant, spec, form), repr(form))
    record("cs_three_form", _outcome(cs_three_form, spec, form), repr(form))
    for degree in range(min(n, 3) + 1):
        beta = _form(rng, n, degree, powers)
        record(f"d{degree}", _outcome(d, spec, beta), repr(beta))
        other = _form(rng, n, rng.randint(0, min(n, 3)), powers)
        twin = _form(rng, n, degree, powers)
        factor = PiScalar(rng.choice(SCALARS), rng.choice(powers))
        record(f"add{degree}", _outcome(lambda: beta + twin), repr(twin))
        record(f"sub{degree}", _outcome(lambda: beta - twin), repr(twin))
        record(f"neg{degree}", _outcome(lambda: -beta))
        record(f"scaled{degree}", _outcome(beta.scaled, factor), repr(factor))
        record(f"wedge{degree}", _outcome(beta.wedge, other), repr(other))
        record(f"constructor{degree}", _outcome(ExteriorForm, n, degree, beta.terms + twin.terms), repr(twin))
    if n < 3:
        return out
    zero = ExteriorForm.zero(n, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            three = cs_three_form(spec, form)
        except ValueError:
            three = _form(rng, n, 3, powers)
    record("split_zero", _outcome(exactness_split, spec, three, zero), repr(three))
    for k in range(3):
        # one pi power on the primitive, then a primitive mixing powers
        beta = _form(rng, n, 2, powers[:1] if k == 0 else powers, count=3 + 2 * k)
        exact = _value(d, spec, beta)
        if exact is not None:
            record(f"split{k}", _outcome(exactness_split, spec, exact, zero), repr(beta))
            target = _value(lambda: three - exact)
            if target is not None:
                record(f"split_target{k}", _outcome(exactness_split, spec, three, target), repr(beta))
    pairs, image, found = list(itertools.combinations(range(n), 2)), {}, 0
    for _ in range(30):
        # d(phi^A +- phi^C) + pi^-2 d(phi^B +- phi^C): when the two parts
        # touch disjoint 3-indices, the pinned primitives of the two
        # powers may share a 2-index, which exactness_split refuses
        a, b, shared = rng.sample(pairs, 3)
        for pair in (a, b, shared):
            if pair not in image:
                image[pair] = d(spec, ExteriorForm.monomial(n, pair))
        low = image[a] + image[shared].scaled(rng.choice((1, -1)))
        high = image[b] + image[shared].scaled(rng.choice((1, -1)))
        if low.terms and high.terms and not {i for i, _ in low.terms} & {i for i, _ in high.terms}:
            form = low + high.scaled(PiScalar(1, -2))
            record(f"split_two_powers{found}", _outcome(exactness_split, spec, form, zero), repr(form))
            found += 1
            if found == 3:
                break
    return out


def _broken_case(name, rng, dim):
    """A seeded table that is mostly not a Lie algebra."""
    n = dim
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for j, k in rng.sample(list(itertools.combinations(range(n), 2)), min(dim, 6)):
        i = rng.randrange(n)
        c[i][j][k] = rng.choice(ENTRIES)
        c[i][k][j] = -c[i][j][k]
    spec = _spec(n, c)
    return {
        f"{name}/jacobi": _digest(repr(spec), _jacobi(spec)),
        f"{name}/checked": _digest(repr(spec), _outcome(_spec, n, c, True)),
    }


def forms_digests() -> dict[str, str]:
    out = {}
    for dim, powers, dense in CASES:
        name = f"lie{dim}-{'mixed' if len(powers) > 1 else 'plain'}-{'dense' if dense else 'blocks'}"
        out.update(_algebra_case(name, random.Random(name), dim, powers, dense))
    for dim in range(3, 13):
        name = f"broken{dim}"
        out.update(_broken_case(name, random.Random(name), dim))
    return dict(sorted(out.items()))


# ---------------------------------------------------------------- scalar operators

# Powers of pi that the paper's forms carry: pi^-2 on the hyperbolic
# side, pi^0 and pi^1 on the way there.
POWERS = (-2, 0, 1)
OPERATORS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}


def _gaussian_operands(rng):
    """Seeded ``GaussianRational``s: zero, reals, pure imaginaries, and
    runs of values over one shared denominator and over coprime ones."""
    small = lambda: rng.randint(-9, 9)
    out = [G(), G(1), G(-1), G(0, 1)]
    for _ in range(3):
        out.append(G(Fraction(small(), rng.randint(1, 12))))
        out.append(G(0, Fraction(small() or 1, rng.randint(1, 12))))
    for den in (6, 35):  # equal denominators
        for _ in range(3):
            out.append(G(Fraction(small(), den), Fraction(small(), den)))
    for den in (4, 9, 25):  # pairwise coprime denominators
        out.append(G(Fraction(small(), den), Fraction(small() or 1, rng.randint(1, 7))))
    return out


def _pi_operands(rng, gaussians):
    """Seeded ``PiScalar``s: each of a few coefficients, zero among them,
    at every power in ``POWERS``."""
    coefficients = [G(), G(1)] + rng.sample(gaussians[4:], 4)
    return [PiScalar(c, p) for c in coefficients for p in POWERS]


def _scalar_rows(x, others):
    """The text lines of one operand: each operator on (x, y) and, for y of
    another type, on (y, x), with the repr of its result or the refusal;
    equality both ways; then str, truth, negation, the hash rule, and the
    reprs of copy, deep copy and pickle round trips."""
    rows = []
    for y in others:
        for name, op in OPERATORS.items():
            rows.append(f"{x!r} {name} {y!r}: {_outcome(op, x, y)}")
            if type(y) is not type(x):
                rows.append(f"{y!r} {name} {x!r}: {_outcome(op, y, x)}")
        rows.append(f"{x!r} == {y!r}: {x == y} {y == x} {x != y}")
    fields = (x.re, x.im, x.conjugate()) if type(x) is G else (x.coeff, x.pi_power)
    clones = [copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))]
    rows.append(f"str {x} bool {bool(x)} neg {-x!r} fields {fields!r} hash {hash(x) == hash(fields[:2])}")
    rows.append(f"clones {[repr(c) for c in clones]} {[c == x and hash(c) == hash(x) for c in clones]}")
    return rows


def _matrix(rng, gaussians, n, mode):
    """A seeded traceless 2x2 (``n`` = 2) or antisymmetric 3x3 matrix of
    ``PiScalar``s.  ``mode`` "shared" gives every entry one pi power,
    "paired" one per entry and its negative (so that the shape checks
    pass and the sums see the mixed powers), "scattered" one per entry."""
    shared = rng.choice(POWERS)
    power = lambda: shared if mode == "shared" else rng.choice(POWERS)
    pick = lambda: rng.choice(gaussians)
    if n == 2:
        a, p = pick(), power()
        q = p if mode == "paired" else power()
        return [[PiScalar(a, p), PiScalar(pick(), power())], [PiScalar(pick(), power()), PiScalar(-a, q)]]
    rows = [[PiScalar(G(), power()) for _ in range(3)] for _ in range(3)]
    for i, j in itertools.combinations(range(3), 2):
        c, p = pick(), power()
        q = p if mode == "paired" else power()
        rows[i][j], rows[j][i] = PiScalar(c, p), PiScalar(-c, q)
    return rows


def scalars_digests() -> dict[str, str]:
    rng = random.Random("scalars")
    gaussians = _gaussian_operands(rng)
    plain = [0, 1, -3, rng.randint(2, 99), Fraction(0), Fraction(-2, 3), Fraction(rng.randint(1, 50), rng.randint(2, 50))]
    pis = _pi_operands(rng, gaussians)
    out = {"grams": _digest(repr(sl2c_gram()), repr(iso_sl2r_gram()))}
    for i, x in enumerate(gaussians):
        out[f"gaussian{i}"] = _digest(*_scalar_rows(x, gaussians + plain))
    for i, x in enumerate(pis):
        rows = _scalar_rows(x, pis + gaussians[:8] + plain)
        rows += [f"of {v!r} {x.pi_power}: {_outcome(PiScalar.of, v, x.pi_power)}" for v in (x, x.coeff, *plain[:3])]
        out[f"pi{i}"] = _digest(*rows)
    for n, kind in ((2, "chern"), (3, "pontrjagin")):
        for mode in ("shared", "paired", "scattered"):
            for k in range(12):
                matrix = _matrix(rng, gaussians, n, mode)
                out[f"{kind}-{mode}{k}"] = _digest(repr(matrix), _outcome(chern_poly_coeffs, matrix, kind))
    refused = [
        ([[1, 2], [3, 4]], "chern"),
        ([[1, 0, 0], [0, 0, 0], [0, 0, -1]], "chern"),
        ([[0, 1], [-1, 0], [0, 0]], "chern"),
        ([[0, 1], [-1, 0]], "pontrjagin"),
        ([[0, 1, 2], [1, 0, 3], [-2, -3, 0]], "pontrjagin"),
        ([[0, 1], [-1, 0]], "euler"),
        ([[0, Fraction(1, 2)], [Fraction(-1, 2), 0]], "chern"),
        ([[0, 1, 0], [-1, 0, G(0, 2)], [0, G(0, -2), 0]], "pontrjagin"),
    ]
    for k, (matrix, kind) in enumerate(refused):
        out[f"plain{k}"] = _digest(repr(matrix), kind, _outcome(chern_poly_coeffs, matrix, kind))
    return dict(sorted(out.items()))


# ---------------------------------------------------------------- graphs

# Determinant -1 gluings, (section, fiber) coordinates side a -> side b.
GLUINGS = ([[1, 0], [0, -1]], [[-1, 0], [0, 1]], [[0, 1], [1, 0]], [[3, -4], [2, -3]], [[2, 1], [1, 0]])
# One document in three plants one of these faults (some find nothing to break).
FAULTS = (
    "determinant", "nonprimitive", "slope_b_mismatch", "duplicate_id", "self_glue", "unknown_piece",
    "unlabeled", "unglued", "missing_assignment", "wrong_filling", "no_slope", "coeff_off",
    "filled_hyperbolic", "genus0", "budget", "zero_multiplicity", "negative_exact",
)


def _slope(rng, gluing):
    """A primitive slope (a, b) whose section coordinate is nonzero on
    both sides of ``gluing``, so that it fills to a multiplicity."""
    while True:
        a, b = rng.randint(1, 3), rng.randint(-3, 3)
        if math.gcd(a, abs(b)) == 1 and _pushed(gluing, [a, b])[0]:
            return [a, b]


def _pushed(gluing, slope):
    (m00, m01), (m10, m11) = gluing
    return [m00 * slope[0] + m01 * slope[1], m10 * slope[0] + m11 * slope[1]]


def _topology(rng, shape, n):
    if shape == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if shape == "cycle":
        # n = 1 is one piece glued to itself along two slots
        return [(i, (i + 1) % n) for i in range(n)] if n != 2 else [(0, 1)]
    return [(rng.randrange(i), i) for i in range(1, n)]


def _assignments(rng, pieces, edges, slopes, declared_b=True):
    """One assignment per piece for these killed slopes (side a), with a
    spectrum member as the coefficient of each filled piece that has one.
    A case's ``killed_slopes`` replace the edges' side-b slopes too, so
    ``declared_b`` is false for them."""
    fill = {}
    for edge, slope in zip(edges, slopes):
        if slope:
            fill[tuple(edge["a"])] = slope
            fill[tuple(edge["b"])] = declared_b and edge.get("killed_slope_b") or _pushed(edge["gluing"], slope)
    out = []
    for piece in pieces:
        pid = piece["id"]
        if piece["kind"] == "hyperbolic":
            if rng.random() < 0.3:
                out.append({"piece": pid, "assign": "direct", "numeric": round(rng.uniform(0.5, 4.0), 6)})
            else:
                out.append({"piece": pid, "assign": "direct", "exact": str(Fraction(rng.randint(0, 9), rng.randint(1, 5)))})
            continue
        slopes_here = {slot: fill.get((pid, slot)) for slot in piece["slots"]}
        if rng.random() < 0.35 or None in slopes_here.values():
            out.append({"piece": pid, "assign": "small_image"})
            continue
        # a filling is given up to sign, so flip some
        fillings = {slot: [-x for x in s] if rng.random() < 0.3 else list(s) for slot, s in slopes_here.items()}
        pairs = [tuple(p) for p in piece["pairs"]] + [(abs(a), b if a >= 0 else -b) for a, b in slopes_here.values()]
        coeff = Fraction(rng.randint(0, 7), rng.randint(1, 4))
        if piece["genus"] >= 1 and all(a > 0 for a, _ in pairs):
            e = sum((Fraction(b, a) for a, b in pairs), Fraction(0))
            residues = [rng.randrange(a) for a, _ in pairs]
            m = rng.randint(2 - 2 * piece["genus"], 2 * piece["genus"] - 2 + sum(1 for r in residues if r))
            t = sum((Fraction(r, a) for r, (a, _) in zip(residues, pairs)), Fraction(0)) - m
            if e:
                coeff = t * t / abs(e)
        form = rng.random()
        shown = [[slot, s] for slot, s in fillings.items()] if form < 0.3 else fillings
        out.append({"piece": pid, "assign": "filled", "fillings": shown, "coeff": str(coeff)})
    rng.shuffle(out)
    return out


def _graph_document(rng, shape, n, form, fault):
    """A seeded graph document; ``form`` is "assignments", "cases" or
    "bare", and ``fault`` one of ``FAULTS`` or None."""

    def pairs_of():
        moduli = rng.sample(range(1, 6), rng.randint(0, 2))
        return [[a, rng.choice([b for b in range(-a, a + 1) if math.gcd(a, abs(b)) == 1])] for a in moduli]

    slots = [[] for _ in range(n)]
    edges = []
    for u, v in _topology(rng, shape, n):
        for end in (u, v):
            slots[end].append(f"s{len(slots[end])}")
        su, sv = slots[u][-2 if u == v else -1], slots[v][-1]
        gluing = rng.choice(GLUINGS)
        edge = {"a": [f"P{u}", su], "b": [f"P{v}", sv], "gluing": gluing}
        roll = rng.random()
        if roll < 0.85:
            edge["killed_slope"] = _slope(rng, gluing)
            if roll < 0.25:
                edge["killed_slope_b"] = [-x for x in _pushed(gluing, edge["killed_slope"])]
        edges.append(edge)
    pieces = []
    for i in range(n):
        if rng.random() < 0.3:
            pieces.append({"id": f"P{i}", "kind": "hyperbolic", "label": f"cusped {i}", "slots": slots[i]})
        else:
            genus = rng.choice((1, 1, 1, 2))
            pieces.append({"id": f"P{i}", "kind": "seifert", "genus": genus, "pairs": pairs_of(), "slots": slots[i]})
    seifert = [p for p in pieces if p["kind"] == "seifert"] or pieces
    target = rng.choice(seifert)
    if fault == "determinant" and edges:
        rng.choice(edges)["gluing"] = [[1, 0], [0, 1]]
    elif fault == "nonprimitive" and edges:
        rng.choice(edges)["killed_slope"] = [2, 4]
    elif fault == "slope_b_mismatch" and edges:
        edge = rng.choice(edges)
        edge["killed_slope"], edge["killed_slope_b"] = [1, 0], [1, 1]
    elif fault == "duplicate_id":
        pieces.append({"id": pieces[0]["id"], "kind": "hyperbolic", "label": "twin", "slots": []})
    elif fault == "self_glue" and edges:
        rng.choice(edges)["b"] = list(edges[0]["a"])
    elif fault == "unknown_piece" and edges:
        rng.choice(edges)["a"] = ["Nowhere", "s0"]
    elif fault == "unlabeled":
        pieces.append({"id": "U", "kind": "hyperbolic", "slots": []})
    elif fault == "unglued":
        target["slots"] = target["slots"] + ["loose"]
    elif fault == "genus0" and target["kind"] == "seifert":
        target["genus"] = 0
    elif fault == "budget" and target["kind"] == "seifert":
        target["pairs"] = [[1000003, 1], [1000033, 1]]
    elif fault == "no_slope" and edges:
        rng.choice(edges).pop("killed_slope", None)
    elif fault == "zero_multiplicity" and edges:
        edge = rng.choice(edges)
        edge["killed_slope"] = [0, 1]
        edge.pop("killed_slope_b", None)
    doc = {"pieces": pieces, "edges": edges}
    slopes = [edge.get("killed_slope") for edge in edges]
    if form == "cases":
        cases = [{"name": "declared", "assignments": _assignments(rng, pieces, edges, slopes)}]
        other = [_slope(rng, edge["gluing"]) if rng.random() < 0.9 else None for edge in edges]
        cases.append({"name": "other", "killed_slopes": other, "assignments": _assignments(rng, pieces, edges, other, False)})
        doc["cases"] = cases
        assignments = cases[0]["assignments"]
    elif form == "assignments":
        doc["assignments"] = assignments = _assignments(rng, pieces, edges, slopes)
    else:
        assignments = []
    if fault == "missing_assignment" and assignments:
        assignments.pop()
    filled = [a for a in assignments if a["assign"] == "filled"]
    if fault == "wrong_filling" and filled:
        fillings = filled[0]["fillings"]
        if isinstance(fillings, dict) and fillings:
            fillings[next(iter(fillings))] = [7, 1]
    elif fault == "coeff_off" and filled:
        filled[0]["coeff"] = str(Fraction(filled[0]["coeff"]) + Fraction(1, 7))
    elif fault == "filled_hyperbolic":
        direct = [a for a in assignments if a["assign"] == "direct"]
        if direct:
            direct[0].update(assign="filled", fillings={}, coeff="0")
    elif fault == "negative_exact":
        direct = [a for a in assignments if "exact" in a]
        if direct:
            direct[0]["exact"] = "-1/2"
    return doc


def _set_in(doc, value, *keys):
    """A copy of ``doc`` with the value at ``keys`` replaced, or deleted
    when ``value`` is ``_DELETE``."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    return doc


_DELETE = object()
LONG = "9" * 5000  # over Python's 4300-digit limit for int(str)
# falsy values other than null: each is no pair, so none declares "no slope"
FALSY = (("zero", 0), ("false", False), ("empty_string", ""), ("empty_list", []), ("empty_object", {}))


def _malformed():
    """(name, document): one malformed document per loader refusal, each
    made from one small valid document."""
    base = {
        "pieces": [
            {"id": "P", "kind": "seifert", "genus": 1, "pairs": [[2, 1]], "slots": ["t"]},
            {"id": "H", "kind": "hyperbolic", "label": "cusped", "slots": ["t"]},
        ],
        "edges": [{"a": ["P", "t"], "b": ["H", "t"], "gluing": [[3, -4], [2, -3]], "killed_slope": [2, 1]}],
        "cases": [
            {
                "name": "filled",
                "killed_slopes": [[2, 1]],
                "assignments": [
                    {"piece": "P", "assign": "filled", "fillings": {"t": [2, 1]}, "coeff": "1/4"},
                    {"piece": "H", "assign": "direct", "exact": "0"},
                ],
            }
        ],
    }
    top = json.loads(json.dumps(base))
    top["assignments"] = top.pop("cases")[0]["assignments"]
    a0 = ("cases", 0, "assignments", 0)
    a1 = ("cases", 0, "assignments", 1)
    rows = [
        ("valid", base),
        ("valid_top_level", top),
        ("document_list", [base]),
        ("document_string", "pieces"),
        ("pieces_missing", _set_in(base, _DELETE, "pieces")),
        ("pieces_not_a_list", _set_in(base, {"id": "P"}, "pieces")),
        ("edges_not_a_list", _set_in(base, "e", "edges")),
        ("cases_not_a_list", _set_in(base, "c", "cases")),
        ("assignments_not_a_list", _set_in(top, 3, "assignments")),
        ("case_assignments_not_a_list", _set_in(base, {"piece": "P"}, "cases", 0, "assignments")),
        ("piece_not_an_object", _set_in(base, "P", "pieces", 0)),
        ("edge_not_an_object", _set_in(base, ["P", "t"], "edges", 0)),
        ("case_not_an_object", _set_in(base, 1, "cases", 0)),
        ("assignment_not_an_object", _set_in(base, None, *a1)),
        ("piece_id_missing", _set_in(base, _DELETE, "pieces", 0, "id")),
        ("piece_kind_missing", _set_in(base, _DELETE, "pieces", 1, "kind")),
        ("piece_slots_missing", _set_in(base, _DELETE, "pieces", 0, "slots")),
        ("piece_genus_missing", _set_in(base, _DELETE, "pieces", 0, "genus")),
        ("piece_kind_unknown", _set_in(base, "torus", "pieces", 1, "kind")),
        ("piece_slots_string", _set_in(base, "tu", "pieces", 1, "slots")),
        ("piece_slots_object", _set_in(base, {"t": 1}, "pieces", 1, "slots")),
        ("piece_slots_int", _set_in(base, 4, "pieces", 0, "slots")),
        ("piece_slots_duplicate", _set_in(base, ["t", "t"], "pieces", 1, "slots")),
        ("genus_null", _set_in(base, None, "pieces", 0, "genus")),
        ("genus_string", _set_in(base, "one", "pieces", 0, "genus")),
        ("genus_nan", _set_in(base, float("nan"), "pieces", 0, "genus")),
        ("genus_infinite", _set_in(base, float("inf"), "pieces", 0, "genus")),
        ("genus_negative", _set_in(base, -1, "pieces", 0, "genus")),
        ("genus_over_digit_limit", _set_in(base, LONG, "pieces", 0, "genus")),
        ("pairs_string", _set_in(base, "21", "pieces", 0, "pairs")),
        ("pairs_row_short", _set_in(base, [[2]], "pieces", 0, "pairs")),
        ("pairs_row_string", _set_in(base, ["21"], "pieces", 0, "pairs")),
        ("pairs_row_int", _set_in(base, [5], "pieces", 0, "pairs")),
        ("pairs_not_an_integer", _set_in(base, [["x", 1]], "pieces", 0, "pairs")),
        ("pairs_not_coprime", _set_in(base, [[2, 1], [4, 2]], "pieces", 0, "pairs")),
        ("pairs_zero_multiplicity", _set_in(base, [[0, 1]], "pieces", 0, "pairs")),
        ("pairs_multiplicity_over_digit_limit", _set_in(base, [[LONG, 1]], "pieces", 0, "pairs")),
        ("pairs_numerator_over_digit_limit", _set_in(base, [[2, 1], [1, "-" + LONG]], "pieces", 0, "pairs")),
        ("edge_a_missing", _set_in(base, _DELETE, "edges", 0, "a")),
        ("edge_b_missing", _set_in(base, _DELETE, "edges", 0, "b")),
        ("edge_gluing_missing", _set_in(base, _DELETE, "edges", 0, "gluing")),
        ("edge_a_string", _set_in(base, "Pt", "edges", 0, "a")),
        ("edge_a_object", _set_in(base, {"P": 1, "t": 2}, "edges", 0, "a")),
        ("edge_a_short", _set_in(base, ["P"], "edges", 0, "a")),
        ("edge_b_long", _set_in(base, ["H", "t", "x"], "edges", 0, "b")),
        ("edge_a_int", _set_in(base, 7, "edges", 0, "a")),
        ("edge_a_name_list", _set_in(base, [["P"], "t"], "edges", 0, "a")),
        ("edge_b_name_object", _set_in(base, ["H", {"t": 1}], "edges", 0, "b")),
        ("gluing_one_row", _set_in(base, [[3, -4]], "edges", 0, "gluing")),
        ("gluing_rows_long", _set_in(base, [[0, 1, 2], [1, 0, 0]], "edges", 0, "gluing")),
        ("gluing_strings", _set_in(base, ["34", "23"], "edges", 0, "gluing")),
        ("gluing_int", _set_in(base, 5, "edges", 0, "gluing")),
        ("gluing_entry_null", _set_in(base, [[1, None], [0, 1]], "edges", 0, "gluing")),
        ("gluing_entry_string", _set_in(base, [["a", 1], [1, 0]], "edges", 0, "gluing")),
        ("gluing_row_int", _set_in(base, [1, [1, 0]], "edges", 0, "gluing")),
        ("gluing_over_digit_limit", _set_in(base, [[1, 0], [LONG, -1]], "edges", 0, "gluing")),
        ("killed_slope_string", _set_in(base, "21", "edges", 0, "killed_slope")),
        ("killed_slope_long", _set_in(base, [2, 1, 7], "edges", 0, "killed_slope")),
        ("killed_slope_not_an_integer", _set_in(base, ["x", 1], "edges", 0, "killed_slope")),
        ("killed_slope_over_digit_limit", _set_in(base, [2, LONG], "edges", 0, "killed_slope")),
        ("killed_slope_b_string", _set_in(base, "21", "edges", 0, "killed_slope_b")),
        ("killed_slope_b_over_digit_limit", _set_in(base, [LONG, 1], "edges", 0, "killed_slope_b")),
        *[(f"killed_slope_{name}", _set_in(base, value, "edges", 0, "killed_slope")) for name, value in FALSY],
        *[(f"killed_slope_b_{name}", _set_in(base, value, "edges", 0, "killed_slope_b")) for name, value in FALSY],
        ("case_name_missing", _set_in(base, _DELETE, "cases", 0, "name")),
        ("case_killed_slopes_count", _set_in(base, [[2, 1], [1, 0]], "cases", 0, "killed_slopes")),
        ("case_killed_slopes_int", _set_in(base, 3, "cases", 0, "killed_slopes")),
        ("case_killed_slope_string", _set_in(base, ["21"], "cases", 0, "killed_slopes")),
        ("case_killed_slope_short", _set_in(base, [[2]], "cases", 0, "killed_slopes")),
        ("case_killed_slope_not_an_integer", _set_in(base, [["x", 1]], "cases", 0, "killed_slopes")),
        ("case_killed_slope_over_digit_limit", _set_in(base, [[LONG, 1]], "cases", 0, "killed_slopes")),
        *[(f"case_killed_slope_{name}", _set_in(base, [value], "cases", 0, "killed_slopes")) for name, value in FALSY],
        ("assignment_piece_missing", _set_in(base, _DELETE, *a1, "piece")),
        ("assignment_kind_missing", _set_in(base, _DELETE, *a1, "assign")),
        ("assignment_kind_unknown", _set_in(base, "mystery", *a1, "assign")),
        ("direct_without_volume", _set_in(base, _DELETE, *a1, "exact")),
        ("direct_exact_bad", _set_in(base, "x", *a1, "exact")),
        ("direct_exact_exponent", _set_in(base, "1e999999999", *a1, "exact")),
        ("direct_exact_zero_denominator", _set_in(base, "1/0", *a1, "exact")),
        ("direct_exact_negative", _set_in(base, "-1/2", *a1, "exact")),
        ("direct_exact_over_digit_limit", _set_in(base, LONG, *a1, "exact")),
        ("direct_numeric_string", _set_in(_set_in(base, _DELETE, *a1, "exact"), "x", *a1, "numeric")),
        ("direct_numeric_infinite", _set_in(_set_in(base, _DELETE, *a1, "exact"), float("inf"), *a1, "numeric")),
        ("direct_numeric_list", _set_in(_set_in(base, _DELETE, *a1, "exact"), [1], *a1, "numeric")),
        ("filled_fillings_missing", _set_in(base, _DELETE, *a0, "fillings")),
        ("filled_coeff_missing", _set_in(base, _DELETE, *a0, "coeff")),
        ("filled_coeff_bad", _set_in(base, "a/b", *a0, "coeff")),
        ("filled_coeff_zero_denominator", _set_in(base, "1/0", *a0, "coeff")),
        ("filled_coeff_exponent", _set_in(base, "1e999999999", *a0, "coeff")),
        ("fillings_string", _set_in(base, "t", *a0, "fillings")),
        ("fillings_slope_string", _set_in(base, {"t": "21"}, *a0, "fillings")),
        ("fillings_slope_short", _set_in(base, [["t", [2]]], *a0, "fillings")),
        ("fillings_row_long", _set_in(base, [["t", [2, 1], 0]], *a0, "fillings")),
        ("fillings_row_int", _set_in(base, [5], *a0, "fillings")),
        ("fillings_slope_int", _set_in(base, [["t", 5]], *a0, "fillings")),
        ("fillings_not_an_integer", _set_in(base, {"t": [2, "x"]}, *a0, "fillings")),
        ("fillings_over_digit_limit", _set_in(base, {"t": [LONG, 1]}, *a0, "fillings")),
        ("fillings_list_over_digit_limit", _set_in(base, [["t", [2, LONG]]], *a0, "fillings")),
    ]
    return rows


def _graph_outcomes(name, doc):
    """Digests of loading ``doc`` and of each case's validation and sum."""
    seen = json.dumps(doc, sort_keys=True)
    try:
        document = load_graph_document(doc)
    except ValueError as exc:
        return {f"{name}/load": _digest(seen, f"ValueError: {exc}")}
    out = {f"{name}/load": _digest(seen, repr(document))}
    for i, (case, spec, assignments) in enumerate(document.cases):
        out[f"{name}/case{i}/validate"] = _digest(seen, case, repr(validate_spec(spec)))
        out[f"{name}/case{i}/additivity"] = _digest(seen, case, _outcome(additivity_sum, spec, assignments))
    return out


def _ratio_graph(rng, v, planted):
    """Vertices and edges with ratios read off seeded potentials; the
    planted copy scales one ratio."""
    potential = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(v)]
    names = [f"v{i}" for i in range(v)]
    pairs = [(rng.randrange(i), i) for i in range(1, v)]
    pairs += [(rng.randrange(v), rng.randrange(v)) for _ in range(rng.randint(0, v))]
    edges = [(names[a], names[b], potential[b] / potential[a]) for a, b in pairs]
    if planted and edges:
        k = rng.randrange(len(edges))
        a, b, r = edges[k]
        edges[k] = (a, b, r * rng.choice((Fraction(3, 2), Fraction(2, 3), Fraction(5, 4))))
    rng.shuffle(edges)
    return names + names[: rng.randint(0, 2)], edges


def graphs_digests() -> dict[str, str]:
    out = {}
    for shape in ("chain", "tree", "cycle"):
        for n in (1, 2, 3, 5, 8, 13, 21):
            for form in ("assignments", "cases", "bare"):
                for variant in range(3):
                    name = f"graph-{shape}{n}-{form}-{variant}"
                    rng = random.Random(name)
                    fault = rng.choice(FAULTS) if variant == 2 else None
                    out.update(_graph_outcomes(name, _graph_document(rng, shape, n, form, fault)))
    for name, doc in _malformed():
        out.update(_graph_outcomes(f"malformed-{name}", doc))
    for v in (1, 2, 3, 5, 8, 13, 40):
        for planted in (False, True):
            name = f"rw{v}-{'planted' if planted else 'consistent'}"
            vertices, edges = _ratio_graph(random.Random(name), v, planted)
            out[f"{name}"] = _digest(repr((vertices, edges)), _outcome(rw_consistency, vertices, edges))
    refused = {
        "rw-unknown-vertex": (["u"], [("u", "w", Fraction(2))]),
        "rw-zero-ratio": (["u", "w"], [("u", "w", Fraction(0))]),
        "rw-negative-ratio": (["u", "w"], [("u", "w", Fraction(-1, 2))]),
        "rw-int-ratios": (["u", "w", "x"], [("u", "w", 2), ("w", "x", 3), ("u", "x", 5)]),
        "rw-self-loop": (["u"], [("u", "u", Fraction(2))]),
        "rw-unhashable-vertex": ([["u"]], []),
        "rw-unhashable-end": (["u"], [(["u"], "u", Fraction(2))]),
    }
    for name, (vertices, edges) in refused.items():
        out[name] = _digest(repr((vertices, edges)), _outcome(rw_consistency, vertices, edges))
    return dict(sorted(out.items()))


# ---------------------------------------------------------------- covers

# values no degree may take: zero, negative, bool, float and string
BAD_DEGREES = (0, -3, True, 2.0, "4")


def _elevations(torus, curve):
    return elevation_count(TorusCoverDatum(torus, curve))


def covers_digests() -> dict[str, str]:
    out = {}

    def record(name, call, *args):
        out[name] = _digest(repr(args), _outcome(call, *args))

    for k in range(30):
        rng = random.Random(f"covers{k}")
        m = rng.choice((1, 2, 3, 4))
        degrees = [m * rng.randint(1, 6) if rng.random() < 0.8 else rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
        record(f"merge{k}", merge_copy_counts, degrees, m)
        ks = [rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
        ls = [rng.randint(1, 5) for _ in ks]
        record(f"colored{k}", colored_merge_counts, ks, ls)
        curve = rng.randint(1, 6)
        torus = curve * rng.randint(1, 5) if rng.random() < 0.7 else rng.randint(1, 30)
        record(f"elevation{k}", _elevations, torus, curve)
        args = [rng.randint(1, 5), rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 12)]
        record(f"intersection{k}", cover_intersection, *args)
    record("merge-empty", merge_copy_counts, [], 1)
    record("colored-empty", colored_merge_counts, [], [])
    record("colored-unequal", colored_merge_counts, [2, 3], [1])
    for k, bad in enumerate(BAD_DEGREES):
        record(f"merge-bad-degree{k}", merge_copy_counts, [4, bad], 2)
        record(f"merge-bad-curve{k}", merge_copy_counts, [4, 6], bad)
        record(f"colored-bad-k{k}", colored_merge_counts, [2, bad], [1, 1])
        record(f"colored-bad-l{k}", colored_merge_counts, [2, 3], [bad, 1])
        record(f"elevation-bad-torus{k}", _elevations, bad, 1)
        record(f"elevation-bad-curve{k}", _elevations, 4, bad)
        for i in range(4):
            args = [2, 3, 4, 6]
            args[i] = bad
            record(f"intersection-bad{i}-{k}", cover_intersection, *args)
    return dict(sorted(out.items()))


# ---------------------------------------------------------------- motegi

# one parameter list per refusal of motegi_case or motegi_spec
REFUSED_MOTEGI = {
    "one": (1, 3, 2, 5),
    "zero": (2, 3, 0, 5),
    "negative": (2, 3, 2, -5),
    "float": (2.5, 3, 2, 5),
    "bool": (2, True, 2, 5),
    "string": (2, 3, "x", 5),
    "not_coprime_first": (2, 4, 2, 5),
    "not_coprime_second": (2, 3, 3, 6),
}


def _motegi_outcomes(params):
    """motegi_case's and motegi_spec's outcomes, and validate_spec's on the spec."""
    outcomes = [_outcome(motegi_case, *params)]
    try:
        spec = motegi_spec(*params)
    except (ValueError, TypeError) as exc:
        return outcomes + [f"{type(exc).__name__}: {exc}"]
    return outcomes + [repr(spec), repr(validate_spec(spec))]


def motegi_digests() -> dict[str, str]:
    out = {}
    for k in range(40):
        rng = random.Random(f"motegi{k}")
        params = tuple(rng.randint(2, 9) for _ in range(4))
        out[f"motegi{k}"] = _digest(repr(params), *_motegi_outcomes(params))
    # the one order not over 15, and the shipped document's parameters
    for name, params in {"smallest": (2, 2, 2, 2), "shipped": (2, 3, 2, 5)}.items():
        out[name] = _digest(repr(params), *_motegi_outcomes(params))
    for name, params in REFUSED_MOTEGI.items():
        out[f"refused-{name}"] = _digest(repr(params), *_motegi_outcomes(params))
    return dict(sorted(out.items()))


# ---------------------------------------------------------------- spectra

# (name, genus, pairs, boundary count): one symbol per refusal
REFUSED_SYMBOLS = (
    ("euler_zero", 1, ((2, 1), (2, -1)), 0),
    ("chi_zero", 1, ((1, 1),), 0),
    ("chi_positive", 0, ((2, 1), (3, 1)), 0),
    ("genus_zero", 0, ((2, 1), (3, 1), (7, 1)), 0),
    ("open", 1, ((2, 1),), 1),
    ("budget", 1, ((1000003, 1), (1000033, 1)), 0),
)
# volume_set_bruteforce runs where its window has at most this many tuples
ORACLE_TUPLES = 40000


def _symbol(rng):
    """A seeded closed symbol: genus 1 to 3, up to four fibres with
    multiplicities 1 to 6 and numerators in lowest terms."""
    pairs = []
    for _ in range(rng.randint(0, 4)):
        a = rng.randint(1, 6)
        pairs.append((a, rng.choice([b for b in range(-2 * a, 2 * a + 1) if math.gcd(a, abs(b)) == 1])))
    return SeifertInvariants(rng.randint(1, 3), tuple(pairs))


def _slope_forms(inv):
    """The slopes b/a of ``inv`` as ints (floored), floats, ``Fraction``s
    and ``"p/q"`` strings, each list labelled."""
    return {
        "ints": [b // a for a, b in inv.pairs],
        "floats": [b / a for a, b in inv.pairs],
        "fractions": [Fraction(b, a) for a, b in inv.pairs],
        "strings": [f"{b}/{a}" for a, b in inv.pairs],
    }


def _spectrum_case(name, inv, rng):
    """Digests for one symbol, keyed by ``<name>/<what>``."""
    seen = repr(inv)
    out = {}

    def record(what, text, *inputs):
        out[f"{name}/{what}"] = _digest(seen, *inputs, text)

    values = _value(volume_set, inv)
    record("volume_set", _outcome(volume_set, inv))
    record("max", _outcome(seifert_volume_max, inv))
    width = 2 * (2 + 2 * inv.genus + sum(a for a, _ in inv.pairs)) + 1
    if width ** len(inv.pairs) <= ORACLE_TUPLES:
        record("bruteforce", _outcome(volume_set_bruteforce, inv))
    members = rng.sample(values, min(3, len(values))) if values else [Fraction(1, 4)]
    probes = members + [members[0] + Fraction(1, 7), Fraction(0), 1]
    record("contains", repr([_outcome(spectrum_contains, inv, c) for c in probes]), repr(probes))
    for k, coeff in enumerate(probes[:4]):
        record(f"witnesses{k}", _outcome(witnesses_for, inv, coeff), repr(coeff))
    for form, slopes in _slope_forms(inv).items():
        for genus in (inv.genus, 0):
            record(f"foliation-{form}-genus{genus}", _outcome(foliation_exists, genus, slopes), repr(slopes))
    return out


def spectra_digests() -> dict[str, str]:
    out = {}
    for k in range(60):
        name = f"symbol{k}"
        rng = random.Random(name)
        out.update(_spectrum_case(name, _symbol(rng), rng))
    for name, genus, pairs, boundary in REFUSED_SYMBOLS:
        inv = SeifertInvariants(genus, pairs, boundary)
        outcomes = [_outcome(seifert_volume_max, inv), _outcome(spectrum_contains, inv, Fraction(1, 4))]
        outcomes += [_outcome(call, inv) for call in (volume_set, volume_set_bruteforce)]
        outcomes += [_outcome(witnesses_for, inv, Fraction(1, 4))]
        out[f"refused-{name}"] = _digest(repr(inv), *outcomes)
    # 15/4 is in the 31-value spectrum of (1; 30 x 1/2), with 691988432 witnesses
    thirty = SeifertInvariants(1, ((2, 1),) * 30)
    out["refused-witnesses"] = _digest(repr(thirty), _outcome(witnesses_for, thirty, Fraction(15, 4)))
    slopes = {
        "not-a-number": ["x"],
        "zero-denominator": ["1/0"],
        "none": [None],
        "nan": [float("nan")],
        "mixed": [1, 0.5, Fraction(-1, 3), "2/7", "-3"],
    }
    for name, row in slopes.items():
        out[f"foliation-{name}"] = _digest(repr(row), _outcome(foliation_exists, 1, row))
    return dict(sorted(out.items()))


def corpus_diff(old: dict, new: dict) -> dict[str, dict[str, list[str]]]:
    """Per key of either corpus, the names of the entries ``new`` adds to
    ``old``, removes from it and gives another digest, each sorted; a key
    with none of these is left out."""
    out = {}
    for key in sorted(old.keys() | new.keys()):
        before, after = old.get(key, {}), new.get(key, {})
        change = {
            "added": sorted(after.keys() - before.keys()),
            "removed": sorted(before.keys() - after.keys()),
            "moved": sorted(name for name in before.keys() & after.keys() if before[name] != after[name]),
        }
        if any(change.values()):
            out[key] = change
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(LIBRARY))
    parser.add_argument("--diff", nargs="?", const=str(LIBRARY), metavar="PATH", help="compare with PATH; write nothing")
    args = parser.parse_args(argv)
    corpus = {
        "covers": covers_digests(),
        "forms": forms_digests(),
        "graphs": graphs_digests(),
        "motegi": motegi_digests(),
        "scalars": scalars_digests(),
        "spectra": spectra_digests(),
    }
    if args.diff is None:
        Path(args.out).write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", "utf-8")
        return
    lines = [
        f"{key} {kind} {name}"
        for key, change in corpus_diff(json.loads(Path(args.diff).read_text("utf-8")), corpus).items()
        for kind, names in change.items()
        for name in names
    ]
    print("\n".join(lines) or "no change")


if __name__ == "__main__":
    main()
