"""Exact Gaussian elimination over any field-like scalar type.

Scalars only need +, -, *, /, unary minus and truthiness as the zero
test, which covers ``Fraction`` and ``GaussianRational``.  Pivoting scans
columns in order and free variables are set to zero, so results are
deterministic.

Rows are sparse while they are reduced: each is a ``{column: nonzero}``
dict, and an elimination step touches only the nonzero entries of the
pivot row.  The public functions take and return dense lists; a caller
holding sparse rows (``liecs.exactness_split``) calls ``_echelon`` and
``_solutions`` itself, with one column per right-hand side.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, TypeVar

F = TypeVar("F")

__all__ = ["solve", "nullspace", "invert"]


def _sparse(row: Sequence[F]) -> dict[int, F]:
    return {c: x for c, x in enumerate(row) if x}


def _echelon(rows: list[dict[int, F]], width: int) -> list[int]:
    """Reduce the sparse ``rows`` in place to reduced row echelon form over
    columns ``0 .. width - 1`` (higher columns ride along).  Returns the
    pivot columns; row ``r`` holds the pivot of ``pivots[r]``."""
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot_row = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        pivot = {k: x / inv for k, x in rows[r].items()}
        rows[r] = pivot
        for i, row in enumerate(rows):
            if i == r or c not in row:
                continue
            factor = row[c]
            for k, y in pivot.items():
                x = row.get(k)
                value = -(factor * y) if x is None else x - factor * y
                if value:
                    row[k] = value
                else:
                    del row[k]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _solutions(
    rows: list[dict[int, F]], pivots: list[int], width: int, count: int
) -> Optional[list[dict[int, F]]]:
    """Read ``rows`` after ``_echelon(rows, width)``, with right-hand sides
    in columns ``width .. width + count - 1``.  None when a non-pivot row
    keeps a right-hand entry (the system is inconsistent); otherwise one
    ``{unknown: nonzero value}`` solution per right-hand side, with every
    free unknown zero."""
    if any(rows[len(pivots):]):
        return None
    return [{c: row[k] for row, c in zip(rows, pivots) if k in row} for k in range(width, width + count)]


def solve(
    matrix: Sequence[Sequence[F]],
    rhs: Sequence[F],
    zero: F = Fraction(0),
) -> Optional[list[F]]:
    """One solution of matrix * x = rhs, or None if inconsistent."""
    if len(matrix) != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    if not matrix:
        return []
    width = len(matrix[0])
    rows = [_sparse(row) for row in matrix]
    for row, b in zip(rows, rhs):
        if b:
            row[width] = b
    solutions = _solutions(rows, _echelon(rows, width), width, 1)
    if solutions is None:
        return None
    return [solutions[0].get(c, zero) for c in range(width)]


def nullspace(
    matrix: Sequence[Sequence[F]],
    zero: F = Fraction(0),
    one: F = Fraction(1),
) -> list[list[F]]:
    """Basis of the kernel, one vector per free column."""
    if not matrix:
        return []
    width = len(matrix[0])
    rows = [_sparse(row) for row in matrix]
    pivots = _echelon(rows, width)
    pivot_set = set(pivots)
    basis = []
    for free in range(width):
        if free in pivot_set:
            continue
        vec = [zero] * width
        vec[free] = one
        for row, c in zip(rows, pivots):
            if free in row:
                vec[c] = zero - row[free]
        basis.append(vec)
    return basis


def invert(
    matrix: Sequence[Sequence[F]],
    zero: F = Fraction(0),
    one: F = Fraction(1),
) -> Optional[list[list[F]]]:
    """Inverse of a square matrix, or None when singular."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    rows = [_sparse(row) for row in matrix]
    for i, row in enumerate(rows):
        row[n + i] = one
    pivots = _echelon(rows, n)
    if len(pivots) != n:
        return None
    return [[row.get(n + j, zero) for j in range(n)] for row in rows]
