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

Inputs are built with ``GaussianRational`` arithmetic from
``random.Random`` seeded by name, so the same code always writes the
same file.  The corpus is written once and read through; a later change
to it is a deliberate contract change.  Rewrite it with

    PYTHONPATH=src python tests/contract/make.py [--out PATH]
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import warnings
from fractions import Fraction
from pathlib import Path

from repvol.exact import GaussianRational, PiScalar
from repvol.liecs import (
    ExteriorForm,
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
        except (ValueError, RuntimeError) as exc:
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


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(LIBRARY))
    args = parser.parse_args(argv)
    corpus = {"forms": forms_digests()}
    Path(args.out).write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", "utf-8")


if __name__ == "__main__":
    main()
