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

Sums inside the loops are (coefficient, pi power) pairs added by
``exact._pi_sum``, the rule ``PiScalar`` addition follows too.  ``_form``
builds every derived form from such sums and ``_terms`` makes its terms;
only caller input is checked by ``ExteriorForm(...)``.
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Mapping
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import linalg
from .exact import (
    GAUSSIAN_ONE,
    GaussianRational,
    PI_ONE,
    PI_ZERO,
    PiScalar,
    _Record,
    _document,
    _field,
    _list,
    _name,
    _new,
    _pi,
    _pi_sum,
    _set,
    parse_rational,
)

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


# The empty column of the structure table: a zero bracket.
_NO_TERMS: Mapping[int, GaussianRational] = {}


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

    Two tables are derived once from ``brackets``, holding only nonzero
    constants as pi-free ``GaussianRational``s: ``_table``, the sparse
    antisymmetric map (j, k) -> {i: c^i_jk} over both index orders, and
    ``_by_target``, the pairs ((j, k), c^i_jk) with j < k listed per
    target index i.  Invariance, the three-form and the differential read
    them, so their cost follows the nonzero structure constants rather
    than powers of the dimension, and no ``PiScalar`` is built inside
    their loops.  The Jacobi scan visits only triples holding a pair
    with a nonzero bracket, at most ``dim`` per such pair.  The
    exactness system of ``exactness_split`` keeps one column per 2-index
    but stores only the nonzero entries of its rows.
    """

    basis: tuple[str, ...]
    brackets: tuple[tuple[tuple[int, int], tuple[PiScalar, ...]], ...]
    check_jacobi: bool = True
    _table: dict[tuple[int, int], dict[int, GaussianRational]]
    _by_target: list[list[tuple[tuple[int, int], GaussianRational]]]

    def __post_init__(self) -> None:
        names = tuple(self.basis)
        if len(set(names)) != len(names):
            raise ValueError("basis names must be distinct")
        _set(self, "basis", names)
        dim = len(names)
        table: dict[tuple[int, int], tuple[PiScalar, ...]] = {}
        for (j, k), vec in self.brackets:
            if not (0 <= j < k < dim):
                raise ValueError(f"bracket pair ({j}, {k}) out of range or unordered")
            if (j, k) in table:
                raise ValueError(f"duplicate bracket entry for ({j}, {k})")
            if len(vec) != dim:
                raise ValueError(f"bracket vector for ({j}, {k}) has wrong length")
            coeffs = tuple(PiScalar.of(c) for c in vec)
            for c in coeffs:
                if c and c.pi_power != 0:
                    raise ValueError("structure constants must be pi-free")
            if any(coeffs):
                table[(j, k)] = coeffs
        _set(self, "brackets", tuple(sorted(table.items())))
        structure: dict[tuple[int, int], dict[int, GaussianRational]] = {}
        by_target: list[list[tuple[tuple[int, int], GaussianRational]]] = [[] for _ in range(dim)]
        for (j, k), coeffs in self.brackets:
            column = {i: c.coeff for i, c in enumerate(coeffs) if c}
            structure[(j, k)] = column
            structure[(k, j)] = {i: -c for i, c in column.items()}
            for i, c in column.items():
                by_target[i].append(((j, k), c))
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
        column = self._table.get((j, k), _NO_TERMS)
        return tuple(_pi(column[i], 0) if i in column else PI_ZERO for i in range(self.dim))

    def index_of(self, name: str) -> int:
        try:
            return self.basis.index(name)
        except ValueError:
            raise ValueError(f"unknown basis element {name!r}") from None


def validate_jacobi(spec: LieAlgebraSpec) -> Optional[JacobiViolation]:
    """None when the Jacobi identity holds; otherwise the first violation.

    Basis triples a < b < c are scanned in order; the residual of the
    cyclic sum [[x,y],z] has m-th coordinate sum_l c^l_xy c^m_lz.  It
    vanishes unless one of the three pairs has a nonzero bracket, so only
    those triples are visited.
    """
    n = spec.dim
    table = spec._table
    triples = {tuple(sorted((j, k, c))) for (j, k), _ in spec.brackets for c in range(n) if c not in (j, k)}
    for a, b, c in sorted(triples):
        res: dict[int, GaussianRational] = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for l, c_xy in table.get((x, y), _NO_TERMS).items():
                for m, c_lz in table.get((l, z), _NO_TERMS).items():
                    old = res.get(m)
                    res[m] = c_xy * c_lz if old is None else old + c_xy * c_lz
        if any(res.values()):
            names = (spec.basis[a], spec.basis[b], spec.basis[c])
            return JacobiViolation(names, tuple(_pi(res[m], 0) if m in res else PI_ZERO for m in range(n)))
    return None


# Sums keyed by index tuple, each a (coefficient, pi power) pair.
_Sums = dict[tuple[int, ...], tuple[GaussianRational, int]]


def _accumulate(acc: _Sums, key: tuple[int, ...], value: GaussianRational, power: int) -> None:
    """acc[key] += value * pi^power, by ``_pi_sum``."""
    old = acc.get(key)
    acc[key] = (value, power) if old is None else _pi_sum(*old, value, power)


def _terms(sums: _Sums) -> tuple[tuple[tuple[int, ...], PiScalar], ...]:
    """Form terms: zero totals dropped, one ``PiScalar`` per index, by index."""
    return tuple(sorted((key, _pi(v, p)) for key, (v, p) in sums.items() if v))


def _form(dim: int, degree: int, sums: _Sums) -> "ExteriorForm":
    """Internal constructor from sums on valid, increasing keys: no ``__post_init__``."""
    form = _new(ExteriorForm)
    _set(form, "dim", dim)
    _set(form, "degree", degree)
    _set(form, "terms", _terms(sums))
    return form


class ExteriorForm(_Record):
    """Left-invariant form: scalar coefficients on increasing index tuples.
    The constructor checks caller input and sums the terms on one index;
    the operators, ``d`` and the other derived forms sum their own terms
    and are built by ``_form`` without the checks."""

    dim: int
    degree: int
    terms: tuple[tuple[tuple[int, ...], PiScalar], ...] = ()

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError(f"degree {self.degree} must be non-negative")
        # degree > dim is allowed; such a form is necessarily zero since no
        # strictly increasing index tuple of that length fits in range.
        acc: _Sums = {}
        for indices, coeff in self.terms:
            indices = tuple(indices)
            coeff = PiScalar.of(coeff)
            if len(indices) != self.degree:
                raise ValueError(f"index tuple {indices} has wrong degree")
            if any(not 0 <= i < self.dim for i in indices):
                raise ValueError(f"index tuple {indices} out of range")
            if list(indices) != sorted(set(indices)):
                raise ValueError(f"index tuple {indices} must be strictly increasing")
            _accumulate(acc, indices, coeff.coeff, coeff.pi_power)
        _set(self, "terms", _terms(acc))

    @staticmethod
    def zero(dim: int, degree: int) -> "ExteriorForm":
        return ExteriorForm(dim, degree)

    @staticmethod
    def monomial(dim: int, indices: Sequence[int], coeff: ScalarLike = 1) -> "ExteriorForm":
        indices = tuple(indices)
        return ExteriorForm(dim, len(indices), ((indices, PiScalar.of(coeff)),))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, indices: Sequence[int]) -> PiScalar:
        key = tuple(indices)
        return next((c for i, c in self.terms if i == key), PI_ZERO)

    def __add__(self, other: "ExteriorForm") -> "ExteriorForm":
        if self.dim != other.dim:
            raise ValueError("forms live on algebras of different dimension")
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        acc: _Sums = {}
        for indices, c in self.terms + other.terms:
            _accumulate(acc, indices, c.coeff, c.pi_power)
        return _form(self.dim, self.degree if self.terms else other.degree, acc)

    def __neg__(self) -> "ExteriorForm":
        return _form(self.dim, self.degree, {i: (-c.coeff, c.pi_power) for i, c in self.terms})

    def __sub__(self, other: "ExteriorForm") -> "ExteriorForm":
        return self + (-other)

    def scaled(self, factor: ScalarLike) -> "ExteriorForm":
        f = PiScalar.of(factor)
        return _form(
            self.dim, self.degree, {i: (c.coeff * f.coeff, c.pi_power + f.pi_power) for i, c in self.terms}
        )

    def wedge(self, other: "ExteriorForm") -> "ExteriorForm":
        if self.dim != other.dim:
            raise ValueError("forms live on algebras of different dimension")
        # past the top degree no merge fits, so the result is zero
        acc: _Sums = {}
        for left, cl in self.terms:
            for right, cr in other.terms:
                merged = _merge_indices(left, right)
                if merged is None:
                    continue
                indices, sign = merged
                value = cl.coeff * cr.coeff
                _accumulate(acc, indices, value if sign > 0 else -value, cl.pi_power + cr.pi_power)
        return _form(self.dim, min(self.degree + other.degree, self.dim), acc)


def _merge_indices(
    left: tuple[int, ...], right: tuple[int, ...]
) -> Optional[tuple[tuple[int, ...], int]]:
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


def _add_d_monomial(
    acc: _Sums,
    by_target: list[list[tuple[tuple[int, int], GaussianRational]]],
    indices: tuple[int, ...],
    coeff: GaussianRational,
    power: int,
) -> None:
    """acc += coeff * pi^power * d(phi^I), summed by ``_accumulate``,
    where d(phi^I) = sum_t (-1)^t d(phi^{I_t}) ^ phi^{I minus I_t} and
    d(phi^i) = - sum c^i_jk phi^jk."""
    negated = -coeff
    for t, idx in enumerate(indices):
        rest = indices[:t] + indices[t + 1 :]
        parity = -1 if t % 2 else 1
        for pair, c in by_target[idx]:
            merged = _merge_indices(pair, rest)
            if merged is None:
                continue
            key, sign = merged
            # the term is -sign * (-1)^t * c * coeff
            _accumulate(acc, key, c * (negated if sign == parity else coeff), power)


def bracket_two_form(spec: LieAlgebraSpec, i: int) -> ExteriorForm:
    """i-th coordinate of [omega, omega] as a 2-form (shuffle sum, so the
    coefficient on phi^j^phi^k is 2 c^i_jk).  Independent route used to
    cross-check ``mc_differential`` against the structure equation."""
    if not 0 <= i < spec.dim:
        raise ValueError(f"basis index {i} out of range")
    return _form(spec.dim, 2, {pair: (c * 2, 0) for pair, c in spec._by_target[i]})


def d(spec: LieAlgebraSpec, form: ExteriorForm) -> ExteriorForm:
    """Exterior derivative of a left-invariant form, zero from the top degree on."""
    if form.dim != spec.dim:
        raise ValueError("form dimension does not match the algebra")
    return _d(spec, form.terms, min(form.degree + 1, spec.dim))


def _d(spec: LieAlgebraSpec, terms: Sequence[tuple[tuple[int, ...], PiScalar]], degree: int) -> ExteriorForm:
    """The ``degree``-form sum of coeff * d(phi^I) over ``terms``."""
    acc: _Sums = {}
    for indices, coeff in terms:
        _add_d_monomial(acc, spec._by_target, indices, coeff.coeff, coeff.pi_power)
    return _form(spec.dim, degree, acc)


class GramForm(_Record):
    """Symmetric bilinear form on the algebra, as a matrix of scalars;
    ``_rows``, derived once, holds row i as ``{j: (coefficient, pi
    power)}`` over the nonzero entries."""

    entries: tuple[tuple[PiScalar, ...], ...]
    _rows: list[dict[int, tuple[GaussianRational, int]]]

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
        row_terms = [{j: (g.coeff, g.pi_power) for j, g in enumerate(row) if g} for row in rows]
        _set(self, "_rows", row_terms)

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
        for i, c_ab in column.items():
            for c, (g, p) in gram._rows[i].items():
                _accumulate(n_a, (b, c), c_ab * g, p)
    for n_a in ad_t_g.values():
        for (b, c), total in n_a.items():
            if (c, b) in n_a:
                total = _pi_sum(*total, *n_a[(c, b)])
            if total[0]:
                return False
    return True


def cs_three_form(spec: LieAlgebraSpec, gram: GramForm) -> ExteriorForm:
    """T_f(omega) = f(d omega ^ omega) + (1/3) f(omega ^ [omega, omega])
    for the Maurer-Cartan form omega = sum phi^i (x) X_i.

    Each pairing averages over its shuffles: a (2,1) pairing carries 1/3.
    """
    if gram.dim != spec.dim:
        raise ValueError("Gram dimension does not match the algebra")
    if not is_ad_invariant(spec, gram):
        warnings.warn(
            "Gram form is not ad-invariant; the 3-form is basis-dependent",
            stacklevel=2,
        )
    # Both pairings are multiples of S = sum f_il c^i_jk phi^j^phi^k^phi^l
    # (a 2-form and a 1-form commute): d(phi^i) carries -c^i_jk and
    # [omega, omega] carries +2 c^i_jk, each pairing averages with 1/3,
    # so T = (1/3)(-S) + (1/3)(1/3)(2 S) = -(1/9) S.
    acc: _Sums = {}
    for i, pairs in enumerate(spec._by_target):
        for (j, k), c in pairs:
            for l, (f_il, p) in gram._rows[i].items():
                merged = _merge_indices((j, k), (l,))
                if merged is None:
                    continue
                key, sign = merged
                value = c * f_il
                _accumulate(acc, key, value if sign > 0 else -value, p)
    scale = GaussianRational(Fraction(-1, 9))
    return _form(spec.dim, 3, {key: (v * scale, p) for key, (v, p) in acc.items()})


def exactness_split(
    spec: LieAlgebraSpec, form: ExteriorForm, target: ExteriorForm
) -> Optional[ExteriorForm]:
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
    # Structure constants are pi-free, so every entry is a plain gaussian
    # rational.
    rows: dict[tuple[int, ...], dict[int, GaussianRational]] = {}
    for col, pair in enumerate(pairs):
        image: _Sums = {}
        _add_d_monomial(image, spec._by_target, pair, GAUSSIAN_ONE, 0)
        for indices, (coeff, _) in image.items():
            if coeff:
                rows.setdefault(indices, {})[col] = coeff
    for indices, coeff in difference.terms:
        rows.setdefault(indices, {})[width + powers.index(coeff.pi_power)] = coeff.coeff
    # Shortest rows first: each pivot then comes from a short row, which
    # fills in less.  The reduced form, so the primitive, is the same in
    # any row order.
    system = [rows[t] for t in sorted(rows, key=lambda t: (len(rows[t]), t))]
    solutions = linalg.solve_sparse(system, width, len(powers))
    if solutions is None:
        return None
    sums: _Sums = {}
    for p, sol in zip(powers, solutions):
        for c, x in sol.items():
            if pairs[c] in sums:
                index = "^".join(f"phi{spec.basis[i]}" for i in pairs[c])
                raise ValueError(
                    f"primitive needs pi powers {sums[pairs[c]][1]} and {p} on the 2-index {index}; "
                    "a form holds one pi power per index"
                )
            sums[pairs[c]] = (x, p)
    beta = _form(n, 2, sums)
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


def _mat_mul2(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def _trace2(m) -> Fraction:
    return m[0][0] + m[1][1]


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
            PiScalar.of(_trace2(_mat_mul2(m1, m2)) + t1 * t2)
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
            unit * PiScalar.of(_trace2(_mat_mul2(_SL2_MATS[a], _SL2_MATS[b])))
            for b in names
        )
        for a in names
    )
    return GramForm(entries)


def _coeff_from_json(value, path: str) -> PiScalar:
    if isinstance(value, int) and not isinstance(value, bool):
        return PiScalar.of(value)
    return PiScalar.of(
        parse_rational(value, path, "bad structure constant {!r} (use int or 'p/q')")
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
            raise ValueError(f"{path}: bracket entry {entry!r} must be [left, right, coeffs]")
        left, right, coeffs = entry
        for pos, name in ((0, left), (1, right)):
            if not isinstance(name, str) or name not in index:
                raise ValueError(f"{path}[{pos}]: entry uses unknown basis names ({name!r})")
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
                raise ValueError(f"{path}[2]: entry uses unknown basis names ({name!r})")
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

    def tr_square() -> PiScalar:
        total = PI_ZERO
        for i in range(n):
            for j in range(n):
                total = total + rows[i][j] * rows[j][i]
        return total

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
        expected = tr_square() * PiScalar(GaussianRational(Fraction(1, 8)), -2)
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
        expected = -(tr_square() * PiScalar(GaussianRational(Fraction(1, 8)), -2))
        if e2 != expected:
            raise RuntimeError(
                f"pontrjagin coefficient mismatch: expansion {e2}, trace identity {expected}"
            )
        return (e2,)

    raise ValueError(f"unknown kind {kind!r} (use 'chern' or 'pontrjagin')")
