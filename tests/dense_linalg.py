"""Dense Gauss-Jordan oracles shared by the tests.

Each reduces full dense rows: columns are scanned in order, the first
row at or below the current one with a nonzero entry in the column is
swapped in, and free unknowns are pinned to zero.  Nothing here uses
the package's own elimination, so the tests that compare against these
functions, or build their inputs with them, share no code with
``repvol.linalg``.
"""


def dense_echelon(rows, width):
    """Reduce the dense ``rows`` in place to reduced row echelon form over
    columns ``0 .. width - 1``; returns the pivot columns."""
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
                rows[i] = [x - factor * y if y else x for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def dense_solve(matrix, rhs, zero):
    """The pinned solution of matrix * x = rhs, or None if inconsistent."""
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
    """Kernel basis, one vector per free column in column order."""
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
    """Inverse of a square matrix, or None when singular."""
    n = len(matrix)
    rows = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(matrix)]
    if len(dense_echelon(rows, n)) != n:
        return None
    return [row[n:] for row in rows]
