"""Sparse exact elimination against the dense Gauss-Jordan oracle.

``solve_sparse`` must return exactly what ``dense_linalg.dense_solve``
returns for each right-hand column: the same pinned solution, not merely
some valid answer, and None as soon as one column is inconsistent.  The
systems are drawn over the rationals or the Gaussian rationals, and each
row is scaled by its denominators into the Gaussian-integer pairs that
``solve_sparse`` reads, which leaves its solution as it was."""

import math
import random
from fractions import Fraction

from dense_linalg import dense_solve
from hypothesis import given, settings
from hypothesis import strategies as st

from repvol import linalg
from repvol.exact import GAUSSIAN_ZERO, GaussianRational

# ---------------------------------------------------------------- inputs

# Half the entries are zero, so sparse rows and rank drops are common.
rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
)
FIELDS = {
    "rational": (rationals, Fraction(0)),
    "gaussian": (st.builds(GaussianRational, rationals, rationals), GAUSSIAN_ZERO),
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
    scalars, zero = FIELDS[field]
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
    """Wide, tall and square systems with one to three right-hand
    columns; each column is either in the column space by construction
    or drawn freely, which makes the rank-deficient ones mostly
    inconsistent."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    matrix, field = draw(matrices(rows, cols))
    scalars, zero = FIELDS[field]
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            x = [[draw(scalars)] for _ in range(cols)]
            columns.append([row[0] for row in _product(matrix, x, zero)])
        else:
            columns.append([draw(scalars) for _ in range(rows)])
    return matrix, columns, field


def _sparse_rows(matrix, columns):
    width = len(matrix[0])
    rows = [{c: x for c, x in enumerate(row) if x} for row in matrix]
    for k, rhs in enumerate(columns):
        for row, b in zip(rows, rhs):
            if b:
                row[width + k] = b
    return [_integer_row(row) for row in rows]


def _integer_row(row):
    """The row times the lcm of its denominators, as (re, im) int pairs."""
    values = {c: GaussianRational.of(x) for c, x in row.items()}
    den = math.lcm(*[part.denominator for v in values.values() for part in (v.re, v.im)])
    return {c: (int(v.re * den), int(v.im * den)) for c, v in values.items()}


def _gaussians(values):
    return [GaussianRational.of(x) for x in values]


# ---------------------------------------------------------------- tests


@settings(max_examples=150, deadline=None)
@given(systems())
def test_solve_sparse_matches_dense_oracle(system):
    matrix, columns, field = system
    _, zero = FIELDS[field]
    width = len(matrix[0])
    got = linalg.solve_sparse(_sparse_rows(matrix, columns), width, len(columns))
    dense = [dense_solve(matrix, rhs, zero) for rhs in columns]
    if None in dense:
        assert got is None
        return
    assert got == [{c: GaussianRational.of(x) for c, x in enumerate(solution) if x} for solution in dense]
    for solution, rhs in zip(got, columns):
        x = [[solution.get(c, zero)] for c in range(width)]
        assert _gaussians(row[0] for row in _product(matrix, x, zero)) == _gaussians(rhs)


def test_inconsistent_system_is_none():
    one, two = Fraction(1), Fraction(2)
    matrix = [[one, two], [two, Fraction(4)]]
    assert linalg.solve_sparse(_sparse_rows(matrix, [[one, Fraction(3)]]), 2, 1) is None
    assert linalg.solve_sparse(_sparse_rows(matrix, [[one, two]]), 2, 1) == [{0: GaussianRational.of(one)}]
    # one inconsistent column makes the whole answer None
    assert linalg.solve_sparse(_sparse_rows(matrix, [[one, two], [one, Fraction(3)]]), 2, 2) is None


def test_empty_and_singular_edges():
    assert linalg.solve_sparse([], 3, 2) == [{}, {}]
    # a zero matrix: every unknown is free, so only zero right-hand sides solve
    assert linalg.solve_sparse([{}, {}], 2, 1) == [{}]
    assert linalg.solve_sparse([{2: Fraction(1)}, {}], 2, 1) is None


def test_dense_complex_rows_stay_as_small_as_the_solution():
    # Reducing a row only by the integer gcd of its parts leaves it a
    # Gaussian multiple that about doubles in size at every step: here
    # 5237-bit entries for a solution of 57 bits.  Their gcd in Z[i] keeps
    # each row the field's row over the lcm of its denominators.
    rng = random.Random(7)
    n = 12
    rows = [{j: (rng.randint(-3, 3) or 1, rng.randint(-3, 3)) for j in range(n + 1)} for _ in range(n)]
    matrix = [[GaussianRational(*row[j]) for j in range(n)] for row in rows]
    rhs = [GaussianRational(*row[n]) for row in rows]
    (solution,) = linalg.solve_sparse(rows, n, 1)
    assert solution == {c: x for c, x in enumerate(dense_solve(matrix, rhs, GAUSSIAN_ZERO)) if x}
    size = max(part.bit_length() for x in solution.values() for q in (x.re, x.im) for part in (q.numerator, q.denominator))
    assert max(abs(v).bit_length() for row in rows for pair in row.values() for v in pair) <= size
