import random
import re
import time
from fractions import Fraction

import pytest

from voa import liedata
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
    assert spec.structure[x][y][h] == 1
    assert spec.structure[h][x][x] == 2
    assert spec.structure[h][y][y] == -2
    assert spec.form[x][y] == spec.form[y][x] == 1
    assert spec.form[h][h] == 2
    assert spec.form[x][x] == 0 and spec.form[x][h] == 0


def test_abelian_form_identity():
    assert abelian(1).form == ((Fraction(1),),)


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


def _dense_validate_action(spec, action):
    """The failures of validate_action, by the defining sums over all indices."""
    n, c, B = spec.dim, spec.structure, spec.form
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
    assert spec.structure == ref.structure
    assert spec.form == ref.form
    assert validate(spec).ok
    # the three blocks are the adjoint matrices ad_x, ad_y, ad_h
    assert action.lie_generators == adjoint_action(ref).lie_generators
    assert validate_action(spec, action).ok


@pytest.mark.parametrize(
    "text",
    [
        "[algebra]\nlabels = a b\n",  # missing dim
        "[algebra]\ndim = 2\nlabels = a\n",  # label count mismatch
        "[algebra]\ndim = 2\n[brackets]\n0 1 5 = 1\n",  # index out of range
        "[algebra]\ndim = 2\n[action]\n1 0\n",  # row before block kind
        "[algebra]\ndim = 2\n[form]\n0 1 1 = 1\n",  # three indices for a form entry
    ],
)
def test_parse_config_errors(text):
    with pytest.raises(ValueError):
        parse_config(text)


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
