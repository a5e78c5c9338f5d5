"""Direct tests of the sparse elimination in voa.linalg.

Answers are checked by their defining properties (multiplying back, unit
free columns, rank + nullity).  The elimination's record itself is checked
against the row-scanning elimination it replaced, kept below as an oracle.
"""

import copy
import random
from fractions import Fraction

from voa import linalg, orbifold
from voa.liedata import abelian, orthogonal_action
from voa.scalars import K, ONE, ZERO, LevelScalar

F0, F1 = Fraction(0), Fraction(1)


def matvec(columns, x, zero=F0):
    """A x as a mapping coord -> nonzero entry."""
    out = {}
    for col, xj in zip(columns, x):
        for coord, v in col.items():
            out[coord] = out.get(coord, zero) + v * xj
    return {c: v for c, v in out.items() if v}


def random_system(rng):
    """Sparse columns over a few string coords; some columns are combinations
    of earlier ones.  Returns (columns, indices of the combination columns)."""
    coords = [f"r{i}" for i in range(rng.randint(1, 6))]
    columns, dependent = [], []
    for j in range(rng.randint(1, 7)):
        if columns and rng.random() < 0.3:
            col = {}
            for earlier in rng.sample(columns, min(2, len(columns))):
                f = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for c, v in earlier.items():
                    col[c] = col.get(c, F0) + f * v
            dependent.append(j)
        else:
            col = {c: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                   for c in rng.sample(coords, rng.randint(0, len(coords)))}
        columns.append(col)  # may hold explicit zero entries
    return columns, dependent


def free_columns(basis):
    """The column where each kernel vector has its 1 and its last nonzero."""
    out = []
    for vec in basis:
        last = max(j for j, v in enumerate(vec) if v)
        assert vec[last] == 1
        out.append(last)
    return out


def test_random_systems_by_their_properties():
    rng = random.Random(20261018)
    for _ in range(300):
        columns, dependent = random_system(rng)
        n = len(columns)
        before = copy.deepcopy(columns)

        basis = linalg.kernel_basis(columns, n, F0, F1)
        free = free_columns(basis)
        assert free == sorted(set(free))
        for vec, own in zip(basis, free):
            assert matvec(columns, vec) == {}
            for f in free:  # 1 in its own free column, 0 in the other ones
                assert vec[f] == (1 if f == own else 0)
        r = linalg.rank(columns)
        assert r + len(basis) == n
        # a combination of earlier columns never gets a pivot
        assert set(dependent) <= set(free)

        # a consistent right-hand side: x is zero off the pivot columns
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        b = matvec(columns, coeffs)
        b_before = dict(b)
        x = linalg.solve(columns, b, F0)
        assert x is not None and len(x) == n
        assert matvec(columns, x) == b
        assert all(x[f] == 0 for f in free)
        assert b == b_before
        assert columns == before


def test_solve_inconsistent_returns_none():
    columns = [{"a": F1, "b": F1}, {"a": Fraction(2), "b": Fraction(2)}]
    assert linalg.solve(columns, {"a": F1}, F0) is None
    assert linalg.solve(columns, {"c": F1}, F0) is None  # a row no column reaches
    assert linalg.solve(columns, {"a": F1, "b": F1}, F0) == [F1, F0]


def test_known_pivots_and_kernel():
    # columns 1 = 2 * column 0 and 3 = column 0 + column 2
    columns = [
        {0: F1, 1: Fraction(3)},
        {0: Fraction(2), 1: Fraction(6)},
        {1: F1, 2: Fraction(-1)},
        {0: F1, 1: Fraction(4), 2: Fraction(-1)},
    ]
    assert linalg.rank(columns) == 2
    assert linalg.kernel_basis(columns, 4, F0, F1) == [
        [Fraction(-2), F1, F0, F0],
        [Fraction(-1), F0, Fraction(-1), F1],
    ]
    assert linalg.solve(columns, {0: Fraction(2), 1: Fraction(7), 2: Fraction(-1)}, F0) == [
        Fraction(2), F0, F1, F0,
    ]


def test_empty_and_all_zero_inputs():
    assert linalg.solve([], {}, F0) == []
    assert linalg.solve([], {"a": F1}, F0) is None
    assert linalg.kernel_basis([], 0, F0, F1) == []
    assert linalg.rank([]) == 0
    zero_cols = [{}, {"a": F0}]
    assert linalg.rank(zero_cols) == 0
    assert linalg.kernel_basis(zero_cols, 2, F0, F1) == [[F1, F0], [F0, F1]]
    assert linalg.solve(zero_cols, {}, F0) == [F0, F0]
    assert linalg.solve(zero_cols, {"a": F0}, F0) == [F0, F0]
    assert linalg.solve(zero_cols, {"a": F1}, F0) is None
    assert linalg.factor([{}])({0: F1}, F0) is None


def test_level_dependent_pivot():
    # [[k, 1], [1, k]] x = (1, 0): x = (k, -1) / (k^2 - 1)
    columns = [{0: K, 1: ONE}, {0: ONE, 1: K}]
    rhs = {0: ONE}
    before = (copy.deepcopy(columns), dict(rhs))
    x = linalg.solve(columns, rhs, ZERO)
    det = K * K - ONE
    assert x == [K / det, -(ONE / det)]
    assert matvec(columns, x, ZERO) == rhs
    # at the excluded level k = 1 the system is singular
    at_one = [{c: LevelScalar.from_fraction(v.evaluate_at(1)) for c, v in col.items()}
              for col in columns]
    assert linalg.rank(at_one) == 1
    assert linalg.kernel_basis(columns, 2, ZERO, ONE) == []
    assert linalg.factor(columns)({1: ONE}, ZERO) == [-(ONE / det), K / det]
    assert (columns, rhs) == before


def left_kernel(columns, coords, zero, one):
    """Vectors y over coords with y^T A = 0: the kernel of the transpose."""
    rows = [{j: col[r] for j, col in enumerate(columns) if col.get(r)} for r in coords]
    return [dict(zip(coords, y)) for y in linalg.kernel_basis(rows, len(coords), zero, one)]


def check_answer(columns, rhs, x, zero, one):
    """x solves the system, or x is None and some y with y^T A = 0 has y.rhs != 0."""
    if x is not None:
        assert len(x) == len(columns)
        assert matvec(columns, x, zero) == {c: v for c, v in rhs.items() if v}
        return
    coords = sorted({c for col in columns for c in col} | set(rhs), key=repr)
    assert any(
        sum((y[c] * v for c, v in rhs.items()), zero)
        for y in left_kernel(columns, coords, zero, one)
    )


def random_rhs(rng, columns, draw, zero, one):
    """A right-hand side in the column space, any one on the columns' coords,
    or one that also reaches a coord past every column."""
    kind = rng.choice(("image", "any", "outside"))
    if kind == "image":
        return matvec(columns, [draw() for _ in columns], zero)
    coords = sorted({c for col in columns for c in col}) or ["r0"]
    rhs = {c: draw() for c in rng.sample(coords, rng.randint(0, len(coords)))}
    if kind == "outside":
        rhs["zz"] = one
    return rhs


def test_factor_replays_on_many_right_hand_sides():
    rng = random.Random(20261019)
    solved = unsolvable = 0
    for _ in range(200):
        columns, _ = random_system(rng)
        before = copy.deepcopy(columns)
        apply = linalg.factor(columns)
        for _ in range(5):
            rhs = random_rhs(
                rng, columns, lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)), F0, F1
            )
            rhs_before = dict(rhs)
            x = apply(rhs, F0)
            check_answer(columns, rhs, x, F0, F1)
            assert rhs == rhs_before
            solved += x is not None
            unsolvable += x is None
        assert columns == before
    assert solved > 100 and unsolvable > 100


def test_factor_over_level_dependent_entries():
    rng = random.Random(11)

    def draw():
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        return K.scale(a) + LevelScalar.from_fraction(Fraction(b, rng.randint(1, 2)))

    outcomes = set()
    for _ in range(40):
        coords = [f"r{i}" for i in range(rng.randint(1, 4))]
        columns = [{c: draw() for c in rng.sample(coords, rng.randint(0, len(coords)))}
                   for _ in range(rng.randint(1, 4))]
        before = copy.deepcopy(columns)
        apply = linalg.factor(columns)
        for _ in range(4):
            rhs = random_rhs(rng, columns, draw, ZERO, ONE)
            x = apply(rhs, ZERO)
            check_answer(columns, rhs, x, ZERO, ONE)
            outcomes.add(x is None)
        assert columns == before
    assert outcomes == {True, False}


def test_factor_edge_cases():
    columns = [{"a": F1, "b": F1}, {"a": Fraction(2), "b": Fraction(2)}, {"b": Fraction(3)}]
    before = copy.deepcopy(columns)
    apply = linalg.factor(columns)  # rank 2: "a" and "b" both get a pivot
    assert apply({"a": F1, "b": Fraction(4)}, F0) == [F1, F0, F1]
    assert apply({"c": F1}, F0) is None  # a coord outside every column
    assert apply({"a": F1, "c": F0}, F0) == [F1, F0, Fraction(-1, 3)]  # a zero there is fine
    assert apply({}, F0) == [F0, F0, F0]
    assert apply({"a": F0, "b": F0}, F0) == [F0, F0, F0]
    assert apply({"b": Fraction(-6)}, F0) == [F0, F0, Fraction(-2)]
    assert columns == before
    dependent = linalg.factor([{"a": F1, "b": F1}, {"a": Fraction(2), "b": Fraction(2)}])
    assert dependent({"a": F1}, F0) is None  # both coords reached, off the span
    assert dependent({"a": F1, "b": F1}, F0) == [F1, F0]
    empty = linalg.factor([])
    assert empty({}, F0) == []
    assert empty({"a": F0}, F0) == []
    assert empty({"a": F1}, F0) is None


# -- the row-scanning elimination as an oracle ------------------------------------


def reference_eliminate(columns):
    """``linalg._eliminate`` as it was before its column -> rows index: each
    pivot step scans every live row for the pivot and visits every row.  An
    ``int`` pivot is made a ``Fraction``, as there, so nothing becomes a float."""
    rows, index = [], {}
    for j, col in enumerate(columns):
        for coord, v in col.items():
            if v:
                i = index.get(coord)
                if i is None:
                    i = index[coord] = len(rows)
                    rows.append({})
                rows[i][j] = v
    live = list(range(len(rows)))
    steps, pivots = [], {}
    for c in range(len(columns)):
        p = min((i for i in live if c in rows[i]), key=lambda i: len(rows[i]), default=None)
        if p is None:
            continue
        live.remove(p)
        piv = rows[p][c]
        if type(piv) is int:
            piv = Fraction(piv)
        prow = rows[p] = {j: v / piv for j, v in rows[p].items()}
        ops = []
        for i, row in enumerate(rows):
            f = row.pop(c, None) if i != p else None
            if f is None:
                continue
            ops.append((i, f))
            for j, v in prow.items():
                if j == c:
                    continue
                s = row.get(j)
                s = -(f * v) if s is None else s - f * v
                if s:
                    row[j] = s
                else:
                    del row[j]
        steps.append((c, p, piv, ops))
        pivots[c] = prow
    return index, steps, pivots


def sparse_matrix(rng, draw, zero):
    """Columns over a few coords: empty and all-zero columns, and repeated
    columns and combinations of earlier ones (rank deficient)."""
    coords = list(range(rng.randint(0, 7)))
    columns = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.random()
        if kind < 0.1:
            col = {}
        elif kind < 0.2:
            col = {c: zero for c in rng.sample(coords, min(2, len(coords)))}
        elif kind < 0.4 and columns:
            col = {}
            for earlier in rng.sample(columns, min(2, len(columns))):
                f = draw()
                for c, v in earlier.items():
                    col[c] = col.get(c, zero) + f * v
        else:
            col = {c: draw() for c in rng.sample(coords, rng.randint(0, len(coords)))}
        columns.append(col)
        if rng.random() < 0.2:
            columns.append(dict(col))
    return columns


def _rows(columns):
    """The column sets of the rows, one per coord with a nonzero entry."""
    rows = {}
    for j, col in enumerate(columns):
        for coord, v in col.items():
            if v:
                rows.setdefault(coord, set()).add(j)
    return rows.values()


def test_elimination_record_matches_row_scanning_oracle():
    rng = random.Random(20261021)

    def draw_fraction():
        return Fraction(rng.choice((-2, -1, 1, 1, 2, 3)), rng.randint(1, 3))

    def draw_level():
        return K.scale(rng.randint(-1, 1)) + LevelScalar.from_fraction(rng.choice((-1, 1, 2)))

    ties = deficient = 0
    for draw, zero in [(draw_fraction, F0)] * 300 + [(draw_level, ZERO)] * 100:
        columns = sparse_matrix(rng, draw, zero)
        before = copy.deepcopy(columns)
        got = linalg._eliminate(columns)
        assert got == reference_eliminate(columns)
        assert columns == before
        lengths = [len(r) for r in _rows(columns)]
        ties += len(lengths) != len(set(lengths))  # rows of equal length
        deficient += len(got[2]) < sum(1 for col in columns if any(col.values()))
    assert ties > 100 and deficient > 100


def test_elimination_record_on_invariant_subspace_columns(monkeypatch):
    seen = []
    kernel_basis = linalg.kernel_basis

    def record(columns, ncols, zero, one):
        seen.append(columns)
        return kernel_basis(columns, ncols, zero, one)

    monkeypatch.setattr(linalg, "kernel_basis", record)
    orbifold.invariant_subspace(abelian(3), orthogonal_action(3), 6)
    assert len(seen) == 1 and len(seen[0]) > 100
    assert linalg._eliminate(seen[0]) == reference_eliminate(seen[0])


def _assert_exact(obj):
    """No float anywhere in a nest of tuples, lists, dicts and sets."""
    assert not isinstance(obj, float), obj
    if isinstance(obj, dict):
        for k, v in obj.items():
            _assert_exact(k)
            _assert_exact(v)
    elif isinstance(obj, (tuple, list, set, frozenset)):
        for x in obj:
            _assert_exact(x)


def test_int_columns_match_fraction_columns():
    rng = random.Random(20261019)

    def draw_int():
        return rng.choice((-3, -2, -1, 1, 1, 2, 5))

    int_pivots = 0
    for _ in range(300):
        columns = sparse_matrix(rng, draw_int, 0)
        as_fraction = [{c: Fraction(v) for c, v in col.items()} for col in columns]
        record = linalg._eliminate(columns)
        _assert_exact(record)
        assert record == linalg._eliminate(as_fraction)
        int_pivots += len(record[1])
        for _, _, piv, _ in record[1]:
            assert type(piv) is Fraction
        for row in record[2].values():
            assert all(type(v) is Fraction for v in row.values())
        assert linalg.rank(columns) == linalg.rank(as_fraction)
        basis = linalg.kernel_basis(columns, len(columns), 0, 1)
        _assert_exact(basis)
        assert basis == linalg.kernel_basis(as_fraction, len(columns), F0, F1)
        for _ in range(3):
            rhs = random_rhs(rng, columns, draw_int, 0, 1)
            x = linalg.solve(columns, rhs, 0)
            _assert_exact(x)
            assert x == linalg.solve(as_fraction, {c: Fraction(v) for c, v in rhs.items()}, F0)
            check_answer(columns, rhs, x, 0, 1)
    assert int_pivots > 300


def test_classical_columns_reach_elimination_exact(monkeypatch):
    from voa import classical as cl, verify

    records = []
    eliminate = linalg._eliminate

    def record(columns):
        out = eliminate(columns)
        records.append((columns, out))
        return out

    monkeypatch.setattr(linalg, "_eliminate", record)
    assert verify.classical_graded_dimension(2, 6) == 7
    q = [cl.weyl_q(2, a, b) for a, b in ((0, 0), (0, 1), (1, 1))]
    assert cl.dring_contains(q[0] * q[0] + cl.d_ring_derivative(q[1]).scale(Fraction(1, 2)), q[:2])
    assert not cl.dring_contains(q[2], q[:1])
    assert len(records) == 3
    for columns, out in records:
        assert any(type(v) is int for col in columns for v in col.values())
        _assert_exact(out)
