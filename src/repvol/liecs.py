"""Structure-constant Lie algebras, invariant forms, and the left-invariant
Chern-Simons 3-form of the Maurer-Cartan connection.

Conventions, fixed once and covered by golden-value tests:

* Basis k-forms are indexed by strictly increasing tuples and evaluate to 1
  on their own index tuple (determinant convention, no factorial factors).
* The structure equation reads  d(phi^i) = - sum_{j<k} c^i_jk phi^j^phi^k,
  where [X_j, X_k] = sum_i c^i_jk X_i.
* In the pairing f(alpha ^ beta) of Lie-algebra-valued forms the sum over
  shuffles is averaged (divided by the number of shuffles), while the
  graded bracket [omega, omega] is the plain shuffle sum.  With that,
  T_f(omega) = f(d omega ^ omega) + (1/3) f(omega ^ [omega, omega]) of the
  Maurer-Cartan form decomposes as (2/3) * (volume form) + (exact form)
  for the unit-tangent-bundle geometry, the classical normalization.

Inside, scalars are Gaussian integers (re, im) over one denominator per
table or sum, summed by ``_add`` under the pi-power rule of ``exact._pi_power``.
Scalar objects are built only for public values: ``_terms`` makes the
terms of derived forms, which ``ExteriorForm._trusted`` builds past the checks.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Mapping
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import linalg
from .exact import (
    GaussianRational,
    PI_ONE,
    PI_ZERO,
    PiScalar,
    _Record,
    _document,
    _field,
    _gaussian,
    _list,
    _name,
    _pi,
    _pi_power,
    _set,
    _shown,
    parse_rational,
)
from .linalg import Pair

__all__ = [
    "LieAlgebraSpec",
    "JacobiViolation",
    "GramForm",
    "ExteriorForm",
    "validate_jacobi",
    "is_ad_invariant",
    "mc_differential",
    "bracket_two_form",
    "d",
    "cs_three_form",
    "exactness_split",
    "chern_poly_coeffs",
    "format_form",
    "iso_sl2r_algebra",
    "iso_sl2r_gram",
    "sl2c_algebra",
    "sl2c_gram",
    "algebra_from_json",
]

ScalarLike = Union[int, Fraction, GaussianRational, PiScalar]
_Sums = dict[tuple[int, ...], list[int]]  # index tuple -> [re, im, pi power]
_NO_TERMS: Mapping[int, Pair] = {}  # a zero bracket's column


def _pair(g: GaussianRational, den: int) -> Pair:
    """g * den as an int pair; ``den`` is a multiple of g's denominator."""
    f = den // g._den
    return g._a * f, g._b * f


def _ints(terms: Sequence[tuple[tuple[int, ...], PiScalar]]) -> tuple[int, list]:
    """(lcm of the denominators, [(indices, re, im, pi power)] over it)."""
    den = math.lcm(*[c.coeff._den for _, c in terms])
    return den, [(i, *_pair(c.coeff, den), c.pi_power) for i, c in terms]


def _vector(column: Mapping[int, Pair], den: int, dim: int) -> tuple[PiScalar, ...]:
    """The pi-free coordinate vector of length ``dim`` whose entry i is
    ``column[i]`` over ``den``, and zero where ``column`` has none."""
    return tuple(_pi(_gaussian(*column[i], den), 0) if i in column else PI_ZERO for i in range(dim))


def _add(acc: _Sums, key: tuple[int, ...], re: int, im: int, power: int) -> None:
    """acc[key] += (re + im*i) * pi^power, the power by ``_pi_power``."""
    old = acc.setdefault(key, [0, 0, power])
    if old[2] != power:
        old[2] = _pi_power(old[0] or old[1], old[2], re or im, power)
    old[0] += re
    old[1] += im


class JacobiViolation(ValueError):
    """Raised or reported when a bracket table fails the Jacobi identity."""

    def __init__(self, triple: tuple[str, str, str], residual: tuple[PiScalar, ...]):
        self.triple = triple
        self.residual = residual
        super().__init__(f"Jacobi identity fails on {triple}")


class LieAlgebraSpec(_Record):
    """Finite-dimensional Lie algebra given by its structure constants.

    ``brackets`` maps an index pair (j, k) with j < k to the coordinate
    vector of [X_j, X_k]; missing pairs are zero brackets.  Coefficients
    must be pi-free scalars.  The Jacobi identity is checked on
    construction unless ``check_jacobi=False`` (used when loading
    untrusted tables that a caller wants to diagnose).

    Two tables derived once hold the nonzero constants as int pairs over
    the shared denominator ``_den``: ``_table``, (j, k) -> {i: c^i_jk} for
    both index orders, and ``_by_target``, the pairs ((j, k), c^i_jk) with
    j < k per target i.  So the checks, the three-form and ``d`` cost what
    the nonzero constants do; ``validate_jacobi`` visits at most one basis
    triple per nonzero product c^l_xy c^m_lz.  The constructor converts
    each bracket vector once, by ``PiScalar.of``, and keeps its nonzero
    entries from that pass; the pi-free check and both tables read only
    those.  The cost that remains is that dense read: ``brackets`` stays
    the public field of length-dim vectors, so construction reads
    (brackets) x dim entries, about 5.8 M for k copies of sl2 at k = 800.
    """

    basis: tuple[str, ...]
    brackets: tuple[tuple[tuple[int, int], tuple[PiScalar, ...]], ...]
    check_jacobi: bool = True
    _den: int
    _table: dict[tuple[int, int], dict[int, Pair]]
    _by_target: list[list[tuple[tuple[int, int], Pair]]]

    def __post_init__(self) -> None:
        names = tuple(self.basis)
        if len(set(names)) != len(names):
            raise ValueError("basis names must be distinct")
        _set(self, "basis", names)
        dim = len(names)
        # (j, k) -> (its converted vector, [(i, c^i_jk)] over the nonzero c),
        # for the nonzero brackets
        table: dict[tuple[int, int], tuple[tuple[PiScalar, ...], list[tuple[int, PiScalar]]]] = {}
        for (j, k), vec in self.brackets:
            if not (0 <= j < k < dim):
                raise ValueError(f"bracket pair ({j}, {k}) out of range or unordered")
            if (j, k) in table:
                raise ValueError(f"duplicate bracket entry for ({j}, {k})")
            if len(vec) != dim:
                raise ValueError(f"bracket vector for ({j}, {k}) has wrong length")
            coeffs = tuple(map(PiScalar.of, vec))
            entries = [(i, c) for i, c in enumerate(coeffs) if c is not PI_ZERO and c.coeff]
            if any(c.pi_power for _, c in entries):
                raise ValueError("structure constants must be pi-free")
            if entries:
                table[(j, k)] = coeffs, entries
        table = dict(sorted(table.items()))
        _set(self, "brackets", tuple([(pair, coeffs) for pair, (coeffs, _) in table.items()]))
        den = math.lcm(*[c.coeff._den for _, entries in table.values() for _, c in entries])
        structure: dict[tuple[int, int], dict[int, Pair]] = {}
        by_target: list[list[tuple[tuple[int, int], Pair]]] = [[] for _ in range(dim)]
        for (j, k), (_, entries) in table.items():
            column = {i: _pair(c.coeff, den) for i, c in entries}
            structure[(j, k)] = column
            structure[(k, j)] = {i: (-a, -b) for i, (a, b) in column.items()}
            for i, c in column.items():
                by_target[i].append(((j, k), c))
        _set(self, "_den", den)
        _set(self, "_table", structure)
        _set(self, "_by_target", by_target)
        if self.check_jacobi:
            violation = validate_jacobi(self)
            if violation is not None:
                raise violation

    @property
    def dim(self) -> int:
        return len(self.basis)

    def bracket(self, j: int, k: int) -> tuple[PiScalar, ...]:
        """Coordinates of [X_j, X_k] for any index order."""
        return _vector(self._table.get((j, k), _NO_TERMS), self._den, self.dim)

    def index_of(self, name: str) -> int:
        try:
            return self.basis.index(name)
        except ValueError:
            raise ValueError(f"unknown basis element {name!r}") from None


def _jacobi_triples(spec: LieAlgebraSpec) -> list[tuple[int, int, int]]:
    """The sorted basis triples whose Jacobi residual can be nonzero.

    A term [[x,y],z] is nonzero only if some l in the support of [x,y] has
    [l,z] != 0, so each triple comes from a nonzero product c^l_xy c^m_lz:
    there are at most as many triples as such products."""
    table = spec._table
    partners: list[set[int]] = [set() for _ in range(spec.dim)]
    for l, z in table:
        partners[l].add(z)
    triples: set[tuple[int, int, int]] = set()
    for (x, y), column in table.items():
        if x < y:
            reach = set().union(*[partners[l] for l in column])
            reach.difference_update((x, y))
            triples.update([(x, y, z) if z > y else (x, z, y) if z > x else (z, x, y) for z in reach])
    return sorted(triples)


def validate_jacobi(spec: LieAlgebraSpec) -> Optional[JacobiViolation]:
    """None when the Jacobi identity holds; otherwise the first violation.

    Basis triples a < b < c are scanned in order; the residual of the
    cyclic sum [[x,y],z] has m-th coordinate sum_l c^l_xy c^m_lz, over
    the table's denominator squared.  Only the triples of
    ``_jacobi_triples`` are visited: every other residual is zero.
    """
    n = spec.dim
    table = spec._table
    for a, b, c in _jacobi_triples(spec):
        res: dict[int, Pair] = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for l, (p, q) in table.get((x, y), _NO_TERMS).items():
                for m, (r, s) in table.get((l, z), _NO_TERMS).items():
                    re, im = res.get(m, (0, 0))
                    res[m] = (re + p * r - q * s, im + p * s + q * r)
        if any(re or im for re, im in res.values()):
            return JacobiViolation((spec.basis[a], spec.basis[b], spec.basis[c]), _vector(res, spec._den**2, n))
    return None


def _terms(sums: _Sums, den: int) -> tuple[tuple[tuple[int, ...], PiScalar], ...]:
    """Form terms of sums over ``den``: zero totals dropped, by index."""
    return tuple((i, _pi(_gaussian(re, im, den), p)) for i, (re, im, p) in sorted(sums.items()) if re or im)


def _summed(terms: tuple, rest: tuple = (), sign: int = 1) -> tuple[tuple[tuple[int, ...], PiScalar], ...]:
    """Form terms of ``terms`` + sign * ``rest``, added on each index in that
    order: the one such sum, for the constructor and for ``+`` and ``-``."""
    den, ints = _ints(terms + rest)
    acc: _Sums = {}
    for t, (indices, re, im, p) in enumerate(ints):
        s = 1 if t < len(terms) else sign
        _add(acc, indices, s * re, s * im, p)
    return _terms(acc, den)


class ExteriorForm(_Record):
    """Left-invariant form: scalar coefficients on increasing index tuples.
    The constructor checks every term of caller input, then sums the terms
    on one index by ``_summed``, as ``+`` and ``-`` do; the operators, ``d``
    and the other derived forms are built by ``_trusted`` without the checks."""

    dim: int
    degree: int
    terms: tuple[tuple[tuple[int, ...], PiScalar], ...] = ()

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError(f"degree {self.degree} must be non-negative")
        # degree > dim is allowed; such a form is necessarily zero since no
        # strictly increasing index tuple of that length fits in range.
        terms = []
        for indices, coeff in self.terms:
            indices = tuple(indices)
            coeff = PiScalar.of(coeff)
            if len(indices) != self.degree:
                raise ValueError(f"index tuple {indices} has wrong degree")
            if any(not 0 <= i < self.dim for i in indices):
                raise ValueError(f"index tuple {indices} out of range")
            if list(indices) != sorted(set(indices)):
                raise ValueError(f"index tuple {indices} must be strictly increasing")
            terms.append((indices, coeff))
        _set(self, "terms", _summed(tuple(terms)))

    @staticmethod
    def zero(dim: int, degree: int) -> "ExteriorForm":
        return ExteriorForm(dim, degree)

    @staticmethod
    def monomial(dim: int, indices: Sequence[int], coeff: ScalarLike = 1) -> "ExteriorForm":
        indices = tuple(indices)
        return ExteriorForm(dim, len(indices), ((indices, PiScalar.of(coeff)),))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        return self._plus(other, 1)

    def __neg__(self) -> "ExteriorForm":
        return ExteriorForm._trusted(dim=self.dim, degree=self.degree, terms=tuple((i, -c) for i, c in self.terms))

    def __sub__(self, other: "ExteriorForm") -> "ExteriorForm":
        return self._plus(other, -1)

    def _plus(self, other: "ExteriorForm", sign: int) -> "ExteriorForm":
        """self + sign * other, with the terms added in that order."""
        if self.dim != other.dim:
            raise ValueError("forms live on algebras of different dimension")
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        degree = self.degree if self.terms else other.degree
        return ExteriorForm._trusted(dim=self.dim, degree=degree, terms=_summed(self.terms, other.terms, sign))

    def scaled(self, factor: ScalarLike) -> "ExteriorForm":
        f = PiScalar.of(factor)
        x, y, power = f.coeff._a, f.coeff._b, f.pi_power
        den, terms = _ints(self.terms)
        sums = {i: [a * x - b * y, a * y + b * x, p + power] for i, a, b, p in terms}
        return ExteriorForm._trusted(dim=self.dim, degree=self.degree, terms=_terms(sums, den * f.coeff._den))

    def wedge(self, other: "ExteriorForm") -> "ExteriorForm":
        if self.dim != other.dim:
            raise ValueError("forms live on algebras of different dimension")
        # past the top degree no merge fits, so the result is zero
        (left_den, left), (right_den, right) = _ints(self.terms), _ints(other.terms)
        acc: _Sums = {}
        for li, a, b, p in left:
            for ri, c, e, q in right:
                merged = _merge_indices(li, ri)
                if merged is not None:
                    _add(acc, merged[0], merged[1] * (a * c - b * e), merged[1] * (a * e + b * c), p + q)
        degree = min(self.degree + other.degree, self.dim)
        return ExteriorForm._trusted(dim=self.dim, degree=degree, terms=_terms(acc, left_den * right_den))


def _merge_indices(left: tuple[int, ...], right: tuple[int, ...]) -> Optional[tuple[tuple[int, ...], int]]:
    """Merge two increasing tuples; None when they share an index.

    The sign is the parity of the permutation sorting the concatenation:
    since both parts increase, its inversions are the pairs x in
    ``left``, y in ``right`` with x > y.
    """
    inversions = 0
    for y in right:
        for x in left:
            if x == y:
                return None
            if x > y:
                inversions += 1
    return tuple(sorted(left + right)), -1 if inversions & 1 else 1


def mc_differential(spec: LieAlgebraSpec, i: int) -> ExteriorForm:
    """d(phi^i) = - sum_{j<k} c^i_jk phi^j ^ phi^k: ``d`` of the monomial
    phi^i, but a 2-form even when dim = 1, where ``d`` caps the degree."""
    if not 0 <= i < spec.dim:
        raise ValueError(f"basis index {i} out of range")
    return _d(spec, (((i,), PI_ONE),), 2)


def _add_d_monomial(acc: _Sums, by_target: list, indices: tuple, re: int, im: int, power: int) -> None:
    """acc += (re + im*i) * pi^power * d(phi^I), where d(phi^i) = - sum
    c^i_jk phi^jk and d(phi^I) = sum_t (-1)^t d(phi^{I_t}) ^ phi^{I - I_t}."""
    for t, idx in enumerate(indices):
        rest = indices[:t] + indices[t + 1 :]
        parity = -1 if t % 2 else 1
        for pair, (a, b) in by_target[idx]:
            merged = _merge_indices(pair, rest)
            if merged is not None:
                # the term is -sign * (-1)^t * c * coeff
                s = -1 if merged[1] == parity else 1
                _add(acc, merged[0], s * (a * re - b * im), s * (a * im + b * re), power)


def bracket_two_form(spec: LieAlgebraSpec, i: int) -> ExteriorForm:
    """i-th coordinate of [omega, omega] as a 2-form (shuffle sum, so the
    coefficient on phi^j^phi^k is 2 c^i_jk).  Independent route used to
    cross-check ``mc_differential`` against the structure equation."""
    if not 0 <= i < spec.dim:
        raise ValueError(f"basis index {i} out of range")
    sums = {pair: [2 * a, 2 * b, 0] for pair, (a, b) in spec._by_target[i]}
    return ExteriorForm._trusted(dim=spec.dim, degree=2, terms=_terms(sums, spec._den))


def d(spec: LieAlgebraSpec, form: ExteriorForm) -> ExteriorForm:
    """Exterior derivative of a left-invariant form, zero from the top degree on."""
    if form.dim != spec.dim:
        raise ValueError("form dimension does not match the algebra")
    return _d(spec, form.terms, min(form.degree + 1, spec.dim))


def _d(spec: LieAlgebraSpec, terms: Sequence[tuple[tuple[int, ...], PiScalar]], degree: int) -> ExteriorForm:
    """The ``degree``-form sum of coeff * d(phi^I) over ``terms``."""
    den, ints = _ints(terms)
    acc: _Sums = {}
    for indices, re, im, p in ints:
        _add_d_monomial(acc, spec._by_target, indices, re, im, p)
    return ExteriorForm._trusted(dim=spec.dim, degree=degree, terms=_terms(acc, spec._den * den))


class GramForm(_Record):
    """Symmetric bilinear form on the algebra, as a matrix of scalars;
    ``_rows``, derived once, holds row i as ``{j: (re, im, pi power)}``
    over the nonzero entries, over the shared denominator ``_den``."""

    entries: tuple[tuple[PiScalar, ...], ...]
    _den: int
    _rows: list[dict[int, tuple[int, int, int]]]

    def __post_init__(self) -> None:
        rows = tuple(tuple(PiScalar.of(x) for x in row) for row in self.entries)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"Gram matrix is not symmetric at ({i}, {j})")
        _set(self, "entries", rows)
        den = math.lcm(*[g.coeff._den for row in rows for g in row])
        _set(self, "_den", den)
        table = [{j: (*_pair(g.coeff, den), g.pi_power) for j, g in enumerate(row) if g} for row in rows]
        _set(self, "_rows", table)

    @property
    def dim(self) -> int:
        return len(self.entries)


def is_ad_invariant(spec: LieAlgebraSpec, gram: GramForm) -> bool:
    """f([a,b],c) + f(b,[a,c]) = 0 on all basis triples.

    For each a this is the matrix identity ad_a^T G + G ad_a = 0.  With
    N = ad_a^T G, that is N_bc = sum_i c^i_ab G_ic, and since G is
    symmetric the identity reads N + N^T = 0.
    """
    if gram.dim != spec.dim:
        raise ValueError("Gram dimension does not match the algebra")
    ad_t_g: dict[int, _Sums] = {}
    for (a, b), column in spec._table.items():
        n_a = ad_t_g.setdefault(a, {})
        for i, (p, q) in column.items():
            for c, (r, s, power) in gram._rows[i].items():
                _add(n_a, (b, c), p * r - q * s, p * s + q * r, power)
    for n_a in ad_t_g.values():
        for (b, c), (re, im, power) in n_a.items():
            o_re, o_im, o_power = n_a.get((c, b), (0, 0, power))
            _pi_power(re or im, power, o_re or o_im, o_power)
            if re + o_re or im + o_im:
                return False
    return True


def cs_three_form(spec: LieAlgebraSpec, gram: GramForm) -> ExteriorForm:
    """T_f(omega) = f(d omega ^ omega) + (1/3) f(omega ^ [omega, omega])
    for the Maurer-Cartan form omega = sum phi^i (x) X_i.

    Each pairing averages over its shuffles: a (2,1) pairing carries 1/3.
    """
    if not is_ad_invariant(spec, gram):
        warnings.warn("Gram form is not ad-invariant; the 3-form is basis-dependent", stacklevel=2)
    # Both pairings are multiples of S = sum f_il c^i_jk phi^j^phi^k^phi^l
    # (a 2-form and a 1-form commute): d(phi^i) carries -c^i_jk and
    # [omega, omega] carries +2 c^i_jk, each pairing averages with 1/3,
    # so T = (1/3)(-S) + (1/3)(1/3)(2 S) = -(1/9) S: S negated, over 9.
    acc: _Sums = {}
    for i, pairs in enumerate(spec._by_target):
        for (j, k), (a, b) in pairs:
            for l, (r, s, p) in gram._rows[i].items():
                merged = _merge_indices((j, k), (l,))
                if merged is not None:
                    _add(acc, merged[0], -merged[1] * (a * r - b * s), -merged[1] * (a * s + b * r), p)
    return ExteriorForm._trusted(dim=spec.dim, degree=3, terms=_terms(acc, 9 * spec._den * gram._den))


def exactness_split(spec: LieAlgebraSpec, form: ExteriorForm, target: ExteriorForm) -> Optional[ExteriorForm]:
    """A 2-form beta with d(beta) = form - target, or None if there is none.

    The linear system is solved exactly; free coefficients are pinned to
    zero in a fixed basis order, so the primitive is deterministic.  The
    system has one sparse row per 3-index that some d(phi^jk) or the
    difference touches, one column per 2-index in ``combinations`` order,
    and one right-hand column per pi power of the difference, so a single
    elimination solves every power.

    An ``ExteriorForm`` holds one pi power per index, so when the pinned
    primitives of two powers share a 2-index, beta cannot be written down:
    a ``ValueError`` names that index and both powers, and no other
    primitive is searched for.  A ``form`` or ``target`` on an algebra of
    another dimension is a ``ValueError`` too, as in ``d``.
    """
    n = spec.dim
    if form.dim != n or target.dim != n:
        raise ValueError("form dimension does not match the algebra")
    difference = form - target
    if difference.degree != 3 and not difference.is_zero():
        raise ValueError("exactness_split expects 3-forms")
    pairs = list(itertools.combinations(range(n), 2))
    width = len(pairs)
    powers = sorted({coeff.pi_power for _, coeff in difference.terms})
    # With d(phi^jk) = A / s and the difference b / f, solve (f A) x = s b.
    den, terms = _ints(difference.terms)
    rows: dict[tuple[int, ...], dict[int, Pair]] = {}
    for col, pair in enumerate(pairs):
        image: _Sums = {}
        _add_d_monomial(image, spec._by_target, pair, den, 0, 0)
        for indices, (re, im, _) in image.items():
            if re or im:
                rows.setdefault(indices, {})[col] = (re, im)
    for indices, re, im, p in terms:
        rows.setdefault(indices, {})[width + powers.index(p)] = (re * spec._den, im * spec._den)
    # Shortest rows first: each pivot then comes from a short row, which
    # fills in less; the primitive is the same in any row order.  The rows
    # are popped, so the ones the solver replaces are freed at once.
    system = [rows.pop(t) for t in sorted(rows, key=lambda t: (len(rows[t]), t))]
    solutions = linalg.solve_sparse(system, width, len(powers))
    if solutions is None:
        return None
    found: dict[tuple[int, int], PiScalar] = {}
    for p, sol in zip(powers, solutions):
        for c, x in sol.items():
            if pairs[c] in found:
                index = "^".join(f"phi{spec.basis[i]}" for i in pairs[c])
                raise ValueError(
                    f"primitive needs pi powers {found[pairs[c]].pi_power} and {p} on the 2-index {index}; "
                    "a form holds one pi power per index"
                )
            found[pairs[c]] = _pi(x, p)
    beta = ExteriorForm._trusted(dim=n, degree=2, terms=tuple(sorted(found.items())))
    if d(spec, beta) != difference:
        raise RuntimeError("primitive verification failed after solving")
    return beta


def format_form(spec: LieAlgebraSpec, form: ExteriorForm) -> str:
    """Render as ``c * phiX^phiY`` terms joined by `` + ``, basis order."""
    if form.is_zero():
        return "0"
    parts = []
    for indices, coeff in form.terms:
        if indices:
            monomial = "^".join(f"phi{spec.basis[i]}" for i in indices)
            parts.append(f"{coeff} * {monomial}")
        else:
            parts.append(str(coeff))
    return " + ".join(parts)


# Matrix models used to derive the canned Gram forms.  sl2 basis:
#   X = [[1, 0], [0, -1]],  Y = [[0, 0], [1, 0]],  Z = [[0, 1], [0, 0]].
_SL2_MATS = {
    "X": ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1))),
    "Y": ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))),
    "Z": ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))),
}


def _trace_of_product(a, b):
    """Tr(ab) = sum of a_ij * b_ji over square matrices of scalars, added
    in order of i and then j, so a pi-power mismatch is met term by term."""
    n = range(len(a))
    return sum(a[i][j] * b[j][i] for i in n for j in n)


def sl2c_algebra() -> LieAlgebraSpec:
    """sl2: [X,Y] = -2Y, [X,Z] = 2Z, [Y,Z] = -X."""
    z = PI_ZERO
    s = PiScalar.of
    return LieAlgebraSpec(
        basis=("X", "Y", "Z"),
        brackets=(
            ((0, 1), (z, s(-2), z)),
            ((0, 2), (z, z, s(2))),
            ((1, 2), (s(-1), z, z)),
        ),
    )


def iso_sl2r_algebra() -> LieAlgebraSpec:
    """Four-dimensional isometry algebra of the unit tangent geometry.

    Basis X, Y, Z, W where W = Z - Y - T and T spans the central
    translation direction:
        [X,Y] = -2Y   [X,Z] = 2Z    [X,W] = 2Y + 2Z
        [Y,Z] = -X    [Y,W] = -X    [Z,W] = -X
    """
    z = PI_ZERO
    s = PiScalar.of
    return LieAlgebraSpec(
        basis=("X", "Y", "Z", "W"),
        brackets=(
            ((0, 1), (z, s(-2), z, z)),
            ((0, 2), (z, z, s(2), z)),
            ((0, 3), (z, s(2), s(2), z)),
            ((1, 2), (s(-1), z, z, z)),
            ((1, 3), (s(-1), z, z, z)),
            ((2, 3), (s(-1), z, z, z)),
        ),
    )


def iso_sl2r_gram() -> GramForm:
    """Gram matrix of R(A1, A2) = Tr(m1 m2) + t1 t2 on the basis X, Y, Z, W.

    Elements are pairs (m, t) with m in sl2 and t the translation
    coordinate; W = Z - Y - T has m = Z - Y and t = -1.  The matrix is
    derived here rather than written out, and pinned by unit tests.
    """
    x, y, zmat = _SL2_MATS["X"], _SL2_MATS["Y"], _SL2_MATS["Z"]
    z_minus_y = tuple(
        tuple(zmat[i][j] - y[i][j] for j in range(2)) for i in range(2)
    )
    reps = [
        (x, Fraction(0)),
        (y, Fraction(0)),
        (zmat, Fraction(0)),
        (z_minus_y, Fraction(-1)),
    ]
    entries = tuple(
        tuple(
            PiScalar.of(_trace_of_product(m1, m2) + t1 * t2)
            for (m2, t2) in reps
        )
        for (m1, t1) in reps
    )
    return GramForm(entries)


def sl2c_gram() -> GramForm:
    """Multiple of the trace form on sl2 entering the hyperbolic-volume
    identity: normalized so the Chern-Simons 3-form of the Maurer-Cartan
    connection is exactly (1/pi^2) phiX^phiY^phiZ (pinned by tests)."""
    names = ("X", "Y", "Z")
    unit = PiScalar(GaussianRational(Fraction(3, 2)), -2)
    entries = tuple(
        tuple(
            unit * PiScalar.of(_trace_of_product(_SL2_MATS[a], _SL2_MATS[b]))
            for b in names
        )
        for a in names
    )
    return GramForm(entries)


def _coeff_from_json(value, path: str) -> PiScalar:
    if isinstance(value, int) and not isinstance(value, bool):
        return PiScalar.of(value)
    return PiScalar.of(
        parse_rational(value, path, "bad structure constant {} (use int or 'p/q')")
    )


def algebra_from_json(doc: Mapping) -> LieAlgebraSpec:
    """Build an (unvalidated) algebra from a JSON document of the shape

        {"basis": ["X", "Y"], "brackets": [["X", "Y", {"X": 1}], ...]}

    Brackets not listed are zero.  Run ``validate_jacobi`` on the result;
    loading does not reject non-Lie tables so they can be diagnosed.  A
    malformed document raises ``ValueError`` naming the path of the bad
    part, such as ``brackets[0][2]: expected an object of coefficients``.
    """
    doc = _document(doc, "basis", "brackets")
    names = _list(_field(doc, "basis"), "basis", "names")
    basis = tuple(_name(name, f"basis[{i}]") for i, name in enumerate(names))
    if not basis:
        raise ValueError("basis must not be empty")
    index = {name: i for i, name in enumerate(basis)}
    entries = _list(doc.get("brackets", []), "brackets", "[left, right, coeffs] entries")
    table: dict[tuple[int, int], list[PiScalar]] = {}
    for e, entry in enumerate(entries):
        path = f"brackets[{e}]"
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ValueError(f"{path}: bracket entry {_shown(entry)} must be [left, right, coeffs]")
        left, right, coeffs = entry
        for pos, name in ((0, left), (1, right)):
            if not isinstance(name, str) or name not in index:
                raise ValueError(f"{path}[{pos}]: entry uses unknown basis names ({_shown(name)})")
        if not isinstance(coeffs, Mapping):
            raise ValueError(f"{path}[2]: expected an object of coefficients")
        j, k = index[left], index[right]
        if j == k:
            raise ValueError(f"{path}: bracket [{left}, {left}] must be zero, not listed")
        sign = 1
        if j > k:
            j, k, sign = k, j, -1
        vec = table.setdefault((j, k), [PI_ZERO] * len(basis))
        for name, value in coeffs.items():
            if name not in index:
                raise ValueError(f"{path}[2]: entry uses unknown basis names ({_shown(name)})")
            coeff = _coeff_from_json(value, f"{path}[2].{name}")
            vec[index[name]] = vec[index[name]] + (coeff if sign > 0 else -coeff)
    return LieAlgebraSpec(
        basis=basis,
        brackets=tuple((pair, tuple(vec)) for pair, vec in sorted(table.items())),
        check_jacobi=False,
    )


def chern_poly_coeffs(
    matrix: Sequence[Sequence[ScalarLike]], kind: str
) -> tuple[PiScalar, ...]:
    """Nontrivial coefficients of the characteristic-polynomial expansion.

    ``chern``: 2x2 traceless input A; expands det(lambda I - A/(2 i pi))
    = lambda^2 + C1 lambda + C2, checks C1 = 0 and C2 = Tr(A^2)/(8 pi^2),
    and returns (C1, C2).

    ``pontrjagin``: 3x3 antisymmetric input A; expands
    det(lambda I - A/(2 pi)) = lambda^3 + P1 lambda, checks the two other
    coefficients vanish and P1 = -Tr(A^2)/(8 pi^2), and returns (P1,).
    """
    rows = [[PiScalar.of(x) for x in row] for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")

    if kind == "chern":
        if n != 2:
            raise ValueError("chern expects a 2x2 matrix")
        if rows[0][0] + rows[1][1]:
            raise ValueError("chern expects a traceless matrix")
        # Entries of A / (2 i pi): divide by 2i and lower the pi power.
        half_i = PiScalar(GaussianRational(Fraction(0), Fraction(2)), 1)
        m = [[x / half_i for x in row] for row in rows]
        c1 = -(m[0][0] + m[1][1])
        c2 = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        if c1:
            raise RuntimeError("C1 must vanish for a traceless matrix")
        expected = _trace_of_product(rows, rows) * PiScalar(GaussianRational(Fraction(1, 8)), -2)
        if c2 != expected:
            raise RuntimeError(
                f"chern coefficient mismatch: expansion {c2}, trace identity {expected}"
            )
        return (c1, c2)

    if kind == "pontrjagin":
        if n != 3:
            raise ValueError("pontrjagin expects a 3x3 matrix")
        for i in range(n):
            for j in range(n):
                if rows[i][j] + rows[j][i]:
                    raise ValueError("pontrjagin expects an antisymmetric matrix")
        two_pi = PiScalar(GaussianRational(Fraction(2)), 1)
        m = [[x / two_pi for x in row] for row in rows]
        e1 = m[0][0] + m[1][1] + m[2][2]
        e2 = PI_ZERO
        for i, j in itertools.combinations(range(3), 2):
            e2 = e2 + (m[i][i] * m[j][j] - m[i][j] * m[j][i])
        e3 = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if e1 or e3:
            raise RuntimeError("odd coefficients must vanish for an antisymmetric matrix")
        expected = -(_trace_of_product(rows, rows) * PiScalar(GaussianRational(Fraction(1, 8)), -2))
        if e2 != expected:
            raise RuntimeError(
                f"pontrjagin coefficient mismatch: expansion {e2}, trace identity {expected}"
            )
        return (e2,)

    raise ValueError(f"unknown kind {kind!r} (use 'chern' or 'pontrjagin')")
