"""Exact sparse Gaussian elimination over any field-like scalar type.

Scalars only need +, -, *, /, unary minus and truthiness as the zero
test, which covers ``Fraction`` and ``GaussianRational``.  Each row is a
``{column: nonzero}`` dict, and an elimination step touches only the
nonzero entries of the pivot row.  Pivoting scans columns in order and
free unknowns are pinned to zero, so results are deterministic.  The one
caller is ``liecs.exactness_split``.
"""

from __future__ import annotations

from typing import Optional, TypeVar

F = TypeVar("F")

__all__ = ["solve_sparse"]


def solve_sparse(rows: list[dict[int, F]], width: int, count: int) -> Optional[list[dict[int, F]]]:
    """Solve the sparse system whose unknowns are columns ``0 .. width - 1``
    and whose right-hand sides are columns ``width .. width + count - 1``.

    ``rows`` is reduced in place to reduced row echelon form.  Returns one
    ``{unknown: nonzero value}`` solution per right-hand side, with every
    free unknown zero, or None when any right-hand side is inconsistent."""
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
    # A row below the pivots keeps only right-hand entries.
    if any(rows[r:]):
        return None
    return [{c: row[k] for row, c in zip(rows, pivots) if k in row} for k in range(width, width + count)]
