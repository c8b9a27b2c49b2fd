"""Exact sparse fraction-free elimination over the Gaussian integers.

A row is a ``{column: (re, im)}`` dict of nonzero Gaussian integers.
Eliminating column c turns each other row holding c into
``pivot[c] * row - row[c] * pivot`` over the gcd of its entries in Z[i]:
the row the same steps give over a field times the lcm of its
denominators, so the pivots and the solution are the field's and the
entries stay as small as its fractions (an integer gcd alone lets a
complex row double in size at every step).  Unlike Bareiss (Math. Comp.
22, 1968), rows without c are left alone and stay sparse.  Columns are
scanned in order, free unknowns are zero; ``liecs.exactness_split`` calls it.
"""

from __future__ import annotations

from math import gcd
from typing import Optional

from .exact import GaussianRational, Pair, _gaussian

__all__ = ["solve_sparse"]


def solve_sparse(
    rows: list[dict[int, Pair]], width: int, count: int
) -> Optional[list[dict[int, GaussianRational]]]:
    """Solve the sparse system whose unknowns are columns ``0 .. width - 1``
    and whose right-hand sides are columns ``width .. width + count - 1``.
    ``rows`` is reduced in place.  Returns one ``{unknown: nonzero value}``
    solution per right-hand side, or None if any one is inconsistent."""
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pivot_row = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = [(k, y) for k, y in rows[r].items() if k != c]
        a, b = rows[r][c]
        for i, row in enumerate(rows):
            if i == r or c not in row:
                continue
            e, f = row.pop(c)
            # (a + b i) * row - (e + f i) * pivot, with nothing left in column c
            out = {k: (a * x - b * y, a * y + b * x) for k, (x, y) in row.items()}
            for k, (x, y) in pivot:
                old_re, old_im = out.pop(k, (0, 0))
                re, im = old_re - e * x + f * y, old_im - e * y - f * x
                if re or im:
                    out[k] = (re, im)
            rows[i] = _primitive(out)
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    # A row below the pivots keeps only right-hand entries.
    if any(rows[r:]):
        return None
    columns = range(width, width + count)
    return [{c: _quotient(row[k], row[c]) for row, c in zip(rows, pivots) if k in row} for k in columns]


def _primitive(row: dict[int, Pair]) -> dict[int, Pair]:
    """The row over a gcd of its entries in Z[i]: the integer gcd of the
    real entries (their gcd in Z[i] too), then Euclid's algorithm with
    rounded quotients over the others."""
    g = (gcd(*[x for x, y in row.values() if not y]), 0)
    for x in [x for x in row.values() if x[1]]:
        while x != (0, 0):
            (a, b), (c, d) = g, x
            n = c * c + d * d
            q, r = (2 * (a * c + b * d) + n) // (2 * n), (2 * (b * c - a * d) + n) // (2 * n)
            g, x = x, (a - q * c + r * d, b - q * d - r * c)
    c, d = g
    n = c * c + d * d
    if n <= 1:
        return row
    return {k: ((x * c + y * d) // n, (y * c - x * d) // n) for k, (x, y) in row.items()}


def _quotient(entry: Pair, pivot: Pair) -> GaussianRational:
    """entry / pivot = entry * conj(pivot) / |pivot|^2."""
    (x, y), (a, b) = entry, pivot
    return _gaussian(x * a + y * b, y * a - x * b, a * a + b * b)
