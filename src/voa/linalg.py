"""Exact sparse Gauss-Jordan elimination over a field of duck-typed scalars.

Entries are ``int``, ``Fraction`` or ``LevelScalar``: they need +, -, *, /,
negation and truthiness (zero is falsy).  An ``int`` pivot is made a
``Fraction`` before anything is divided by it, since ``int / int`` is a
float; so every reduced row, every recorded step and every answer stays
exact.  A matrix is given by its columns, each a mapping ``coord -> entry``;
the coords label the rows and are any hashable values (the monomials of a
``State``, say), and an absent or zero entry is zero.  The mappings are only
read, never changed, so a caller may pass cached ``State.terms`` maps as
they are.

``factor``, ``kernel_basis`` and ``rank`` all run one elimination,
``_eliminate``, on rows kept as dicts ``{column: nonzero entry}``.  Columns
are taken left to right.  A column's pivot row is the unused row with the
fewest entries, ties going to the lowest row number; it is scaled so that
the pivot is 1, and the column is cleared from every other row.  An index
from each column to the rows holding an entry there, kept up to date on
fill-in and cancellation, means a step visits only those rows.  Only stored
entries are updated and an entry that cancels is dropped, so the cost
follows the nonzeros rather than the matrix size, and taking the sparsest
row keeps the fill-in small.

``factor`` records each pivot step's row operations and returns a solver
that replays them on a right-hand side, so one elimination serves every
right-hand side of the same matrix ("factor once, solve many"); ``solve``
is that solver applied to one right-hand side.  The replay does to the
right-hand side exactly what the same elimination would do to it carried
along as an extra column, skipping the steps whose pivot row holds zero
there; only the pivot choice may differ, since a carried column adds an
entry to the rows it meets.

The choice of pivot row changes no answer.  The pivot columns (each column
independent of the ones before it) are a property of the matrix, and so is
the reduced row echelon form.  Hence ``solve``'s answer with its free
variables set to zero, and the kernel basis read off the reduced form, are
unique.
"""

from __future__ import annotations

from fractions import Fraction


def _eliminate(columns):
    """Reduce the matrix with the given columns to reduced row echelon form.

    Returns ``(index, steps, pivots)``.  ``index`` maps each coord with a
    nonzero entry to its row number.  ``steps`` lists the pivot steps in
    order, each ``(column, pivot row, pivot, [(row, factor), ...])``: the
    pivot row was divided by the pivot, then factor times it was subtracted
    from each listed row.  ``pivots`` maps each pivot column to its reduced
    row, which is 1 at the pivot.
    """
    rows, index = [], {}
    holders = [set() for _ in columns]  # column -> rows with an entry there
    for j, col in enumerate(columns):
        for coord, v in col.items():
            if v:
                i = index.get(coord)
                if i is None:
                    i = index[coord] = len(rows)
                    rows.append({})
                rows[i][j] = v
                holders[j].add(i)
    used = set()  # rows already used as a pivot
    steps, pivots = [], {}
    for c, held in enumerate(holders):
        p = min(
            (i for i in held if i not in used), key=lambda i: (len(rows[i]), i), default=None
        )
        if p is None:
            continue
        used.add(p)
        piv = rows[p][c]
        if type(piv) is int:
            piv = Fraction(piv)
        prow = rows[p] = {j: v / piv for j, v in rows[p].items()}
        ops = []
        for i in sorted(held):
            if i == p:
                continue
            row = rows[i]
            f = row.pop(c)
            ops.append((i, f))
            for j, v in prow.items():
                if j == c:
                    continue
                s = row.get(j)
                if s is None:
                    row[j] = -(f * v)
                    holders[j].add(i)
                    continue
                s -= f * v
                if s:
                    row[j] = s
                else:
                    del row[j]
                    holders[j].discard(i)
        steps.append((c, p, piv, ops))
        pivots[c] = prow
    return index, steps, pivots


def factor(columns):
    """Eliminate the matrix once; return a solver for any right-hand side.

    The solver ``apply(rhs, zero)`` returns one exact solution x of
    sum_j x_j * columns[j] = rhs, or None if there is none.  ``rhs`` is a
    mapping ``coord -> entry`` like the columns.  Free variables are set to
    zero, so the answer is determined by the column order.  The solver keeps
    the row operations only, not the columns.
    """
    n = len(columns)
    index, steps, _ = _eliminate(columns)
    pivot_column = {p: c for c, p, _, _ in steps}

    def apply(rhs, zero):
        b = {}  # row -> nonzero entry
        for coord, v in rhs.items():
            if v:
                i = index.get(coord)
                if i is None:
                    return None  # a row no column reaches
                b[i] = v
        for _, p, piv, ops in steps:
            v = b.get(p)
            if v is None:
                continue
            v = b[p] = v / piv
            for i, f in ops:
                s = b.get(i)
                s = -(f * v) if s is None else s - f * v
                if s:
                    b[i] = s
                else:
                    del b[i]
        x = [zero] * n
        for i, v in b.items():
            c = pivot_column.get(i)
            if c is None:
                return None  # nonzero on a row that got no pivot
            x[c] = v
        return x

    return apply


def solve(columns, rhs, zero):
    """One exact solution x of sum_j x_j * columns[j] = rhs, or None.

    The same as ``factor(columns)(rhs, zero)``.
    """
    return factor(columns)(rhs, zero)


def kernel_basis(columns, ncols, zero, one):
    """Basis of the right kernel of the matrix of the first ``ncols`` columns.

    One vector per free (non-pivot) column: 1 in that column, 0 in the
    other free columns, and the back-substituted values in the pivot
    columns.  The vectors are dense lists of length ``ncols``, in the order
    of their free columns, and together already in reduced echelon form.
    """
    pivots = _eliminate(columns[:ncols])[2]
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
    return len(_eliminate(columns)[2])
