"""Sparse exact elimination against a dense Gauss-Jordan oracle.

The oracle below reduces full dense rows, scanning columns in order,
swapping in the first row with a nonzero entry and pinning free
variables to zero.  ``solve``, ``nullspace`` and ``invert`` must return
exactly what it returns: the same pinned solution, the same kernel basis
and the same inverse, not merely some valid answer."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repvol import linalg
from repvol.exact import GAUSSIAN_ONE, GAUSSIAN_ZERO, GaussianRational

# ---------------------------------------------------------------- oracle


def dense_echelon(rows, width):
    pivots = []
    r = 0
    for c in range(width):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def dense_solve(matrix, rhs, zero):
    width = len(matrix[0])
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    pivots = dense_echelon(rows, width)
    if any(row[width] for row in rows[len(pivots):]):
        return None
    solution = [zero] * width
    for r, c in enumerate(pivots):
        solution[c] = rows[r][width]
    return solution


def dense_nullspace(matrix, zero, one):
    width = len(matrix[0])
    rows = [list(row) for row in matrix]
    pivots = dense_echelon(rows, width)
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        vec = [zero] * width
        vec[free] = one
        for r, c in enumerate(pivots):
            vec[c] = zero - rows[r][free]
        basis.append(vec)
    return basis


def dense_invert(matrix, zero, one):
    n = len(matrix)
    rows = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(matrix)]
    if len(dense_echelon(rows, n)) != n:
        return None
    return [row[n:] for row in rows]


# ---------------------------------------------------------------- inputs

# Half the entries are zero, so sparse rows and rank drops are common.
rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
)
FIELDS = {
    "rational": (rationals, Fraction(0), Fraction(1)),
    "gaussian": (st.builds(GaussianRational, rationals, rationals), GAUSSIAN_ZERO, GAUSSIAN_ONE),
}


def _product(left, right, zero):
    return [
        [sum((a * b for a, b in zip(row, col)), zero) for col in zip(*right)]
        for row in left
    ]


@st.composite
def matrices(draw, rows, cols):
    """(matrix, field): drawn entrywise, or as a product through a
    narrower inner dimension so the rank is at most that width."""
    field = draw(st.sampled_from(sorted(FIELDS)))
    scalars, zero, _ = FIELDS[field]
    if draw(st.booleans()):
        matrix = [[draw(scalars) for _ in range(cols)] for _ in range(rows)]
    else:
        inner = draw(st.integers(0, max(0, min(rows, cols) - 1)))
        left = [[draw(scalars) for _ in range(inner)] for _ in range(rows)]
        right = [[draw(scalars) for _ in range(cols)] for _ in range(inner)]
        matrix = _product(left, right, zero) if inner else [[zero] * cols for _ in range(rows)]
    return matrix, field


@st.composite
def systems(draw):
    """Wide, tall and square systems; the right-hand side is either in
    the column space by construction or drawn freely, which makes the
    rank-deficient ones mostly inconsistent."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    matrix, field = draw(matrices(rows, cols))
    scalars, zero, _ = FIELDS[field]
    if draw(st.booleans()):
        x = [[draw(scalars)] for _ in range(cols)]
        rhs = [row[0] for row in _product(matrix, x, zero)]
    else:
        rhs = [draw(scalars) for _ in range(rows)]
    return matrix, rhs, field


# ---------------------------------------------------------------- tests


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_matches_dense_oracle(system):
    matrix, rhs, field = system
    _, zero, _ = FIELDS[field]
    got = linalg.solve(matrix, rhs, zero=zero)
    assert got == dense_solve(matrix, rhs, zero)
    if got is not None:
        assert _product(matrix, [[x] for x in got], zero) == [[b] for b in rhs]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7).flatmap(lambda r: st.integers(1, 7).flatmap(lambda c: matrices(r, c))))
def test_nullspace_matches_dense_oracle(drawn):
    matrix, field = drawn
    _, zero, one = FIELDS[field]
    basis = linalg.nullspace(matrix, zero=zero, one=one)
    assert basis == dense_nullspace(matrix, zero, one)
    for vec in basis:
        assert all(not x for row in _product(matrix, [[x] for x in vec], zero) for x in row)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: matrices(n, n)))
def test_invert_matches_dense_oracle(drawn):
    matrix, field = drawn
    _, zero, one = FIELDS[field]
    got = linalg.invert(matrix, zero=zero, one=one)
    assert got == dense_invert(matrix, zero, one)
    if got is not None:
        n = len(matrix)
        assert _product(matrix, got, zero) == [[one if i == j else zero for j in range(n)] for i in range(n)]


def test_inconsistent_system_is_none():
    matrix = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert linalg.solve(matrix, [Fraction(1), Fraction(3)]) is None
    assert linalg.solve(matrix, [Fraction(1), Fraction(2)]) == [Fraction(1), Fraction(0)]


def test_empty_and_singular_edges():
    assert linalg.solve([], []) == []
    assert linalg.nullspace([]) == []
    assert linalg.invert([[Fraction(0)]]) is None
    assert linalg.nullspace([[Fraction(0), Fraction(0)]]) == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]
