import dataclasses
import itertools
import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from dense_reference import structure

from voa import liedata
from voa import orbifold as ob
from voa import vertexcore as vc
from voa.liedata import (
    ActionSpec,
    abelian,
    adjoint_action,
    build_spec,
    builtin_algebra,
    mat,
    orthogonal_action,
    parse_config,
    sl2_spec,
    validate,
    validate_action,
)
from voa.vertexcore import State

DATA = Path(__file__).parent / "data"


def test_abelian_valid():
    assert validate(abelian(3)).ok


def test_sl2_valid():
    assert validate(sl2_spec()).ok


def test_altered_sl2_invariance_witness():
    # change [h,x] = 2x to 3x (antisymmetric completion keeps antisymmetry clean)
    spec = build_spec(
        3,
        ["x", "y", "h"],
        {(0, 1, 2): 1, (2, 0, 0): 3, (2, 1, 1): -2},
        {(0, 1): 1, (2, 2): 2},
    )
    rep = validate(spec)
    assert not rep.ok
    kinds = {(kind, witness) for kind, witness in rep.failures}
    assert ("form_invariance", (2, 0, 1)) in kinds  # B([h,x],y) + B(x,[h,y]) != 0


def test_sl2_structure_and_form():
    spec = sl2_spec()
    x, y, h = 0, 1, 2
    assert spec.brackets[x][y] == ((h, 1),)
    assert spec.brackets == (
        ((), ((h, 1),), ((x, -2),)),
        (((h, -1),), (), ((y, 2),)),
        (((x, 2),), ((y, -2),), ()),
    )
    assert spec.form == ((0, 1, 0), (1, 0, 0), (0, 0, 2))
    # sl2 in the basis x, y, t = h/3: a Fraction only where an entry is not integral
    third, _ = parse_config((DATA / "sl2-third.cfg").read_text())
    t = 2
    assert third.brackets == (
        ((), ((t, 3),), ((x, Fraction(-2, 3)),)),
        (((t, -3),), (), ((y, Fraction(2, 3)),)),
        (((x, Fraction(2, 3)),), ((y, Fraction(-2, 3)),), ()),
    )
    assert third.form == ((0, 1, 0), (1, 0, 0), (0, 0, Fraction(2, 9)))
    # an integral Fraction comes back as an int, and a zero entry is dropped
    two = build_spec(2, ["a", "b"], {(0, 1, 0): Fraction(4, 2), (0, 1, 1): 0},
                     {(0, 1): Fraction(-3, 1)})
    assert two.brackets == (((), ((0, 2),)), (((0, -2),), ()))
    assert two.form == ((0, -3), (-3, 0))
    # no zero constants; an int for each integral entry, else a Fraction
    for spec in (spec, third, two):
        entries = [c for row in spec.brackets for vec in row for _, c in vec]
        assert 0 not in entries
        entries += [b for row in spec.form for b in row]
        assert all(type(c) is (int if Fraction(c).denominator == 1 else Fraction)
                   for c in entries)


def test_abelian_form_identity():
    assert abelian(1).form == ((1,),)
    assert abelian(1).brackets == (((),),)


def test_adjoint_action_sl2():
    spec = sl2_spec()
    action = adjoint_action(spec)
    ad_h = action.lie_generators[2]
    # ad_h x = 2x
    assert [ad_h[i][0] for i in range(3)] == [2, 0, 0]
    # matrices satisfy the sl2 relations: [ad_x, ad_y] = ad_h
    ad_x, ad_y = action.lie_generators[0], action.lie_generators[1]

    def matmul(A, B):
        return [
            [sum(A[i][t] * B[t][j] for t in range(3)) for j in range(3)]
            for i in range(3)
        ]

    comm = [
        [matmul(ad_x, ad_y)[i][j] - matmul(ad_y, ad_x)[i][j] for j in range(3)]
        for i in range(3)
    ]
    assert comm == [list(row) for row in ad_h]
    assert validate_action(spec, action).ok


def test_orthogonal_action():
    act = orthogonal_action(2)
    assert len(act.lie_generators) == 1
    rot = act.lie_generators[0]
    assert rot in (((0, 1), (-1, 0)), ((0, -1), (1, 0)))
    assert act.finite_elements[0] == ((-1, 0), (0, 1))
    assert validate_action(abelian(2), act).ok
    assert len(orthogonal_action(4).lie_generators) == 6


def test_orthogonal_action_rank1():
    act = orthogonal_action(1)
    assert act.lie_generators == ()
    assert act.finite_elements == (((-1,),),)


@pytest.mark.parametrize("dim, n", [(3, 2), (2, 3)])
def test_mis_shaped_action_raises_value_error(dim, n):
    spec, action = abelian(dim), orthogonal_action(n)
    message = rf"^action matrix of shape {n}x{n} on an algebra of dim {dim}$"
    with pytest.raises(ValueError, match=message):
        validate_action(spec, action)
    with pytest.raises(ValueError, match=message):
        ob.invariant_subspace(spec, action, 2)
    M = action.finite_elements[0]
    with pytest.raises(ValueError, match=message):
        vc.lie_act(spec, M, State.generator(0))
    with pytest.raises(ValueError, match=message):
        vc.apply_group_element(spec, M, State.generator(0))
    ragged = ActionSpec((), (((1, 0), (1,)),))
    with pytest.raises(ValueError, match=r"^action matrix of shape 2x1/2 on an algebra of dim 2$"):
        validate_action(abelian(2), ragged)


def _dense_validate_action(spec, action):
    """The failures of validate_action, by the defining sums over all indices."""
    n, c, B = spec.dim, structure(spec), spec.form
    failures = []
    for gi, rho in enumerate(action.lie_generators):
        for a in range(n):
            for b in range(n):
                for i in range(n):
                    lhs = sum(c[a][b][l] * rho[i][l] for l in range(n))
                    rhs = sum(rho[p][a] * c[p][b][i] for p in range(n))
                    rhs += sum(rho[p][b] * c[a][p][i] for p in range(n))
                    if lhs != rhs:
                        failures.append(("derivation", (gi, a, b, i)))
                s = sum(rho[p][a] * B[p][b] + rho[p][b] * B[a][p] for p in range(n))
                if s != 0:
                    failures.append(("skew", (gi, a, b)))
    for mi, M in enumerate(action.finite_elements):
        for a in range(n):
            for b in range(n):
                for i in range(n):
                    lhs = sum(c[a][b][l] * M[i][l] for l in range(n))
                    rhs = sum(M[p][a] * M[q][b] * c[p][q][i]
                              for p in range(n) for q in range(n))
                    if lhs != rhs:
                        failures.append(("finite_bracket", (mi, a, b, i)))
                s = sum(M[p][a] * M[q][b] * B[p][q] for p in range(n) for q in range(n))
                if s != B[a][b]:
                    failures.append(("finite_form", (mi, a, b)))
    return failures


@pytest.mark.parametrize("spec", [sl2_spec(), abelian(3)], ids=["sl2", "abelian3"])
def test_validate_action_matches_dense_sums(spec):
    rng = random.Random(20261019)

    def sparse_matrix():
        return mat([[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(3)] for _ in range(3)])

    for _ in range(20):
        action = ActionSpec(tuple(sparse_matrix() for _ in range(2)),
                            tuple(sparse_matrix() for _ in range(2)))
        assert validate_action(spec, action).failures == _dense_validate_action(spec, action)
    for action in (adjoint_action(sl2_spec()), orthogonal_action(3)):
        assert validate_action(spec, action).failures == _dense_validate_action(spec, action)


def _dense_validate(spec):
    """The failures of validate, by the defining sums over all indices."""
    n, c, B = spec.dim, structure(spec), spec.form
    idx = range(n)
    failures = [("antisymmetry", (i, j, l)) for i, j, l in itertools.product(idx, repeat=3)
                if c[i][j][l] != -c[j][i][l]]
    for i, j, l, m in itertools.product(idx, repeat=4):
        # [xi_i, [xi_j, xi_l]] + [xi_j, [xi_l, xi_i]] + [xi_l, [xi_i, xi_j]]
        s = sum(c[j][l][p] * c[i][p][m] + c[l][i][p] * c[j][p][m] + c[i][j][p] * c[l][p][m]
                for p in idx)
        if s != 0:
            failures.append(("jacobi", (i, j, l, m)))
    failures += [("form_symmetry", (i, j)) for i, j in itertools.product(idx, repeat=2)
                 if B[i][j] != B[j][i]]
    for i, j, l in itertools.product(idx, repeat=3):
        # B([xi_i, xi_j], xi_l) + B(xi_j, [xi_i, xi_l])
        if sum(c[i][j][p] * B[p][l] + c[i][l][p] * B[j][p] for p in idx) != 0:
            failures.append(("form_invariance", (i, j, l)))
    det = 0
    for perm in itertools.permutations(idx):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(idx, 2))
        det += (-1) ** inversions * math.prod(B[i][perm[i]] for i in idx)
    if det == 0:
        failures.append(("form_nondegenerate", ()))
    return failures


def _random_spec(rng):
    """A random algebra of dim 2-4: sparse brackets and form, mostly not Lie."""
    n = rng.randint(2, 4)
    values = [1, -1, 2, Fraction(1, 2)]
    brackets = {(i, j, l): rng.choice(values)
                for i, j in itertools.combinations(range(n), 2)
                for l in range(n) if rng.random() < 0.3}
    form = {(i, j): rng.choice(values)
            for i in range(n) for j in range(i, n) if rng.random() < 0.5}
    return build_spec(n, [f"g{i}" for i in range(n)], brackets, form)


def test_validate_matches_dense_sums():
    rng = random.Random(5)
    sl2_generic_form = build_spec(3, ["x", "y", "h"], {(0, 1, 2): 1, (2, 0, 0): 2, (2, 1, 1): -2},
                                  {(0, 0): 1, (1, 1): 1, (2, 2): 1})
    specs = [abelian(3), sl2_spec(), sl2_generic_form] + [_random_spec(rng) for _ in range(30)]
    kinds = set()
    for spec in specs:
        failures = validate(spec).failures
        assert failures == _dense_validate(spec)
        kinds |= {kind for kind, _ in failures}
    # the set exercises every identity the brackets and form can fail
    assert {"jacobi", "form_invariance", "form_nondegenerate"} <= kinds
    assert not validate(specs[0]).failures and not validate(specs[1]).failures
    assert {kind for kind, _ in validate(sl2_generic_form).failures} == {"form_invariance"}
    # brackets kept on one side of the diagonal, which build_spec never makes,
    # fail antisymmetry at the dense sums' witnesses, in their order
    for spec in specs[1:13]:
        one_sided = dataclasses.replace(spec, brackets=tuple(
            tuple(vec if i < j else () for j, vec in enumerate(row))
            for i, row in enumerate(spec.brackets)))
        witnesses = [f for f in validate(one_sided).failures if f[0] == "antisymmetry"]
        assert witnesses == [f for f in _dense_validate(one_sided) if f[0] == "antisymmetry"]
        pairs = itertools.combinations(range(spec.dim), 2)
        assert len(witnesses) == 2 * sum(len(spec.brackets[i][j]) for i, j in pairs)


def test_validate_action_is_sparse():
    # the dense sums took about 23 s on this pair
    start = time.perf_counter()
    assert validate_action(abelian(12), orthogonal_action(12)).ok
    assert time.perf_counter() - start < 1.0


SL2_CONFIG = """
[algebra]
dim = 3
labels = x y h

[brackets]
0 1 2 = 1
2 0 0 = 2
2 1 1 = -2

[form]
0 1 = 1
2 2 = 2

[action]
lie
0 0 -2
0 0 0
0 1 0
lie
0 0 0
0 0 2
-1 0 0
lie
2 0 0
0 -2 0
0 0 0
"""


def test_parse_config_matches_builtin():
    spec, action = parse_config(SL2_CONFIG, name="sl2cfg")
    ref = sl2_spec()
    assert spec.dim == 3 and spec.labels == ("x", "y", "h")
    assert spec.brackets == ref.brackets
    assert spec.form == ref.form
    assert validate(spec).ok
    # the three blocks are the adjoint matrices ad_x, ad_y, ad_h
    assert action.lie_generators == adjoint_action(ref).lie_generators
    assert validate_action(spec, action).ok


MISSING_DIM = "[algebra]\nlabels = a b\n"


@pytest.mark.parametrize(
    "text",
    [
        MISSING_DIM,
        "[algebra]\ndim = 2\nlabels = a\n",  # label count mismatch
        "[algebra]\ndim = 2\n[brackets]\n0 1 5 = 1\n",  # index out of range
        "[algebra]\ndim = 2\n[action]\n1 0\n",  # row before block kind
        "[algebra]\ndim = 2\n[form]\n0 1 1 = 1\n",  # three indices for a form entry
        "[algebra]\ndim = two\n",  # dim not an integer
        "[algebra]\ndim = -1\n",  # negative dim
        "[algebra]\ndim = 0\n",  # zero dim
        "[algebra]\ndim = 1\nrank = 1\n",  # unknown [algebra] key
        "[algebra]\ndim = 2\n[form]\n0 0 = 1/0\n",  # zero denominator
        "[algebra]\ndim = 2\n[form]\n0 0\n",  # no '= value'
        "[algebra]\ndim = 2\n[brackets]\n0 1 x = 1\n",  # index not an integer
        "[algebra]\ndim = 1\n[action]\nlie\n1/0\n",  # zero denominator in a row
        "[algebra]\ndim = 2\n[action]\nlie\n",  # block is not 2x2
        "dim = 2\n",  # outside any section
    ],
)
def test_parse_config_errors(text):
    with pytest.raises(ValueError) as excinfo:
        parse_config(text)
    if text != MISSING_DIM:
        # the last line is the malformed one, and the message names it
        last = text.splitlines()[-1]
        assert f"line {len(text.splitlines())}: {last!r}" in str(excinfo.value)


@pytest.mark.parametrize(
    "section, lines, message",
    [
        ("form", ["0 1 = 1", "0 1 = 2"], "repeated [form] key 0 1, line 5: '0 1 = 2'"),
        ("form", ["1 1 = 1", "1  1 = 1"], "repeated [form] key 1 1, line 5: '1  1 = 1'"),
        ("brackets", ["0 1 0 = 1", "0 1 0 = 1"], "repeated [brackets] key 0 1 0, line 5"),
    ],
)
def test_parse_config_rejects_repeated_keys(section, lines, message):
    text = "\n".join(["[algebra]", "dim = 2", f"[{section}]", *lines])
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_config(text)
    # each key once is accepted
    parse_config("\n".join(["[algebra]", "dim = 2", f"[{section}]", lines[0]]))


@pytest.mark.parametrize(
    "form, key",
    [({(0, 1): 1, (1, 0): 2}, "B(1, 0)"), ({(1, 0): 2, (0, 1): 1}, "B(0, 1)")],
)
def test_build_spec_rejects_conflicting_form_entries(form, key):
    with pytest.raises(ValueError, match=rf"inconsistent form entry {re.escape(key)}"):
        build_spec(2, ["a", "b"], {}, form)
    spec = build_spec(2, ["a", "b"], {}, {(0, 1): 2, (1, 0): 2, (1, 1): 1})
    assert spec.form == ((0, 2), (2, 1))


def test_build_spec_rejects_conflicting_bracket_entries():
    with pytest.raises(ValueError, match=re.escape("inconsistent bracket entry c(1, 0, 0)")):
        build_spec(2, ["a", "b"], {(0, 1, 0): 1, (1, 0, 0): 1}, {})


@pytest.mark.parametrize("make", [
    lambda: liedata._exact(0.5),
    lambda: mat([[1, 0], [0, 0.5]]),
    lambda: build_spec(1, ["a"], {}, {(0, 0): 0.5}),
], ids=["_exact", "mat", "build_spec"])
def test_floats_are_refused(make):
    with pytest.raises(TypeError, match="float 0.5"):
        make()


def test_exact_rationals_from_ints_fractions_and_strings():
    assert [liedata._exact(c) for c in (3, Fraction(6, 2), "0.5", Fraction(1, 3))] == [
        3, 3, Fraction(1, 2), Fraction(1, 3)]
    assert type(liedata._exact(Fraction(6, 2))) is int
    assert mat([[1, "0.5"], [Fraction(1, 3), 0]]) == (
        (Fraction(1), Fraction(1, 2)), (Fraction(1, 3), Fraction(0)))
    assert build_spec(1, ["a"], {}, {(0, 0): "0.5"}).form == ((Fraction(1, 2),),)


def test_builtin_algebra():
    assert builtin_algebra("sl2").name == "sl2"
    assert builtin_algebra("heisenberg3").dim == 3
    with pytest.raises(KeyError):
        builtin_algebra("e8")


def test_spec_to_json_deterministic():
    a = liedata.spec_to_json(sl2_spec())
    b = liedata.spec_to_json(sl2_spec())
    assert a == b
    assert a["labels"] == ["x", "y", "h"]
    assert {"i": 2, "j": 2, "b": "2"} in a["form"]
