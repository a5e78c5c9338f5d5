"""Exact sparse Gauss-Jordan elimination over a field of duck-typed scalars.

Entries are ``fractions.Fraction`` or ``LevelScalar``: they need +, -, *, /,
negation and truthiness (zero is falsy).  A matrix is given by its columns,
each a mapping ``coord -> entry``; the coords label the rows and are any
hashable values (the monomials of a ``State``, say), and an absent or zero
entry is zero.  The mappings are only read, never changed, so a caller may
pass cached ``State.terms`` maps as they are.

``solve``, ``kernel_basis``, ``rank`` and ``invert`` all run one elimination,
``_eliminate``, on rows kept as dicts ``{column: nonzero entry}``.  Columns
are taken left to right.  A column's pivot row is the unused row with the
fewest entries, ties going to the row met first; it is scaled so that the
pivot is 1, and the column is cleared from every other row.  Only stored
entries are updated and an entry that cancels is dropped, so the cost
follows the nonzeros rather than the matrix size, and taking the sparsest
row keeps the fill-in small.

The choice of pivot row changes no answer.  The pivot columns (each column
independent of the ones before it) are a property of the matrix, and so is
the reduced row echelon form.  Hence ``solve``'s answer with its free
variables set to zero, and the kernel basis read off the reduced form, are
unique.
"""

from __future__ import annotations


def _eliminate(columns, npivot):
    """Reduce the matrix with the given columns, pivoting on the first npivot.

    The columns from npivot on (a right-hand side, an identity) are carried
    along.  Returns ``(pivots, rest)``: ``pivots`` maps each pivot column to
    its reduced row, which is 1 at the pivot; ``rest`` lists the other
    nonempty rows, which have entries in the carried columns only.
    """
    rows, index = [], {}
    for j, col in enumerate(columns):
        for coord, v in col.items():
            if v:
                i = index.get(coord)
                if i is None:
                    i = index[coord] = len(rows)
                    rows.append({})
                rows[i][j] = v
    live = list(range(len(rows)))  # rows not yet used as a pivot, in order
    pivots = {}
    for c in range(npivot):
        p = min((i for i in live if c in rows[i]), key=lambda i: len(rows[i]), default=None)
        if p is None:
            continue
        live.remove(p)
        piv = rows[p][c]
        prow = rows[p] = {j: v / piv for j, v in rows[p].items()}
        for i, row in enumerate(rows):
            f = row.pop(c, None) if i != p else None
            if f is None:
                continue
            for j, v in prow.items():
                if j == c:
                    continue
                s = row.get(j)
                s = -(f * v) if s is None else s - f * v
                if s:
                    row[j] = s
                else:
                    del row[j]
        pivots[c] = prow
    return pivots, [rows[i] for i in live if rows[i]]


def solve(columns, rhs, zero):
    """One exact solution x of sum_j x_j * columns[j] = rhs, or None.

    ``rhs`` is a mapping ``coord -> entry`` like the columns.  Free variables
    are set to zero, so the answer is determined by the column order.
    """
    n = len(columns)
    pivots, rest = _eliminate([*columns, rhs], n)
    if rest:
        return None
    x = [zero] * n
    for c, row in pivots.items():
        x[c] = row.get(n, zero)
    return x


def kernel_basis(columns, ncols, zero, one):
    """Basis of the right kernel of the matrix of ``ncols`` columns.

    One vector per free (non-pivot) column: 1 in that column, 0 in the
    other free columns, and the back-substituted values in the pivot
    columns.  The vectors are dense lists of length ``ncols``, in the order
    of their free columns, and together already in reduced echelon form.
    """
    pivots, _ = _eliminate(columns, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for c, row in pivots.items():
            v = row.get(free)
            if v:
                vec[c] = -v
        basis.append(vec)
    return basis


def rank(columns):
    """Rank of the matrix with the given columns."""
    return len(_eliminate(columns, len(columns))[0])


def invert(columns, zero, one):
    """Rows of the inverse of a square matrix; raises ValueError if singular.

    ``columns[j]`` maps each row index i to the entry in row i, column j.
    """
    n = len(columns)
    pivots, _ = _eliminate([*columns, *({i: one} for i in range(n))], n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return [[pivots[i].get(n + j, zero) for j in range(n)] for i in range(n)]
