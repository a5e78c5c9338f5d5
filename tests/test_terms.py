from fractions import Fraction

import pytest

from voa.classical import ClassicalPoly, QSymbolPoly
from voa.orbifold import FormalNOP
from voa.scalars import K, LevelScalar
from voa.terms import merge
from voa.vertexcore import State

# one container each, with its coefficient type and two keys of its own kind
CONTAINERS = [
    (State, LevelScalar, ((0, 2), (1, 1)), ((0, 1),)),
    (FormalNOP, LevelScalar, (("J[0]", 1),), (("J[0]", 0), ("J[2]", 0))),
    (ClassicalPoly, Fraction, (((0, 1), 2),), (((0, 0), 1), ((1, 2), 1))),
    (QSymbolPoly, Fraction, (("Q", 0, 1),), (("C", 0, 1, 2), ("Q", 0, 0))),
]


def sample(cls, ctype, k1, k2):
    c = K if ctype is LevelScalar else Fraction(-3, 2)
    return cls({k1: 2, k2: 1}).scale(c) + cls({k2: 1})


@pytest.mark.parametrize("cls,ctype,k1,k2", CONTAINERS, ids=[c[0].__name__ for c in CONTAINERS])
def test_linear_structure(cls, ctype, k1, k2):
    a = sample(cls, ctype, k1, k2)
    assert len(a.terms) == 2 and not a.is_zero() and a
    for z in (a - a, a + (-a), a.scale(0), cls.zero()):
        assert z.is_zero() and z.terms == {} and not z
        assert type(z) is cls
    assert a.scale(1) == a and 1 * a == a
    assert a + cls.zero() == a
    assert (a + a) == a.scale(2) and type(a.scale(2)) is cls
    # ints are coerced to the container's coefficient type; zeros are dropped
    b = cls({k1: 3, k2: 0})
    assert list(b.terms) == [k1] and type(b.terms[k1]) is ctype
    assert b.terms[k1] == (LevelScalar.from_fraction(3) if ctype is LevelScalar else 3)
    # a cancellation drops the key
    assert list((a - cls({k2: a.terms[k2]})).terms) == [k1]


def test_different_containers_never_equal():
    state, nop = State({(): 1}), FormalNOP({(): 1})
    assert state.terms == nop.terms and state != nop
    poly, qpoly = ClassicalPoly({(): 1}), QSymbolPoly({(): 1})
    assert poly.terms == qpoly.terms and poly != qpoly
    assert ClassicalPoly.constant(1) == poly


def test_merge_scales_and_cancels_in_place():
    acc = {"a": Fraction(1), "b": Fraction(2)}
    merge(acc, {"b": Fraction(-1), "c": Fraction(1)}, Fraction(2))
    assert acc == {"a": 1, "c": 2}
    assert list(acc) == ["a", "c"]
    merge(acc, {"a": Fraction(-1), "d": Fraction(5)})
    assert acc == {"c": 2, "d": 5}
    merge(acc, {"c": Fraction(7)}, Fraction(0))
    assert acc == {"c": 2, "d": 5}
