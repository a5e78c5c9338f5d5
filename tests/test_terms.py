import functools
import itertools
import operator
from fractions import Fraction

import pytest

from voa import orbifold as ob
from voa.classical import ClassicalPoly, monomial_key
from voa.orbifold import FormalNOP
from voa.scalars import K, LevelScalar
from voa.terms import merge, sort_sign, weighted_multisets
from voa.vertexcore import State

# one container each, with its coefficient type and two keys of its own kind;
# ClassicalPoly twice, over variables and over symbols
CONTAINERS = [
    (State, LevelScalar, ((0, 2), (1, 1)), ((0, 1),)),
    (FormalNOP, LevelScalar, (("J[0]", 1),), (("J[0]", 0), ("J[2]", 0))),
    (ClassicalPoly, Fraction, monomial_key(((0, 1), (0, 1))), monomial_key(((0, 0), (1, 2)))),
    (ClassicalPoly, Fraction, monomial_key((("Q", 0, 1),)),
     monomial_key((("C", 0, 1, 2), ("Q", 0, 0)))),
]
CONTAINER_IDS = ["State", "FormalNOP", "ClassicalPoly", "ClassicalPoly-symbols"]


def sample(cls, ctype, k1, k2):
    c = K if ctype is LevelScalar else Fraction(-3, 2)
    return cls({k1: 2, k2: 1}).scale(c) + cls({k2: 1})


@pytest.mark.parametrize("cls,ctype,k1,k2", CONTAINERS, ids=CONTAINER_IDS)
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
    assert list(b.terms) == [k1]
    if ctype is LevelScalar:
        assert type(b.terms[k1]) is LevelScalar
    else:
        # exact rationals: int when integral, otherwise Fraction, never float
        assert type(b.terms[k1]) is int
        assert type(cls({k1: Fraction(6, 2)}).terms[k1]) is int
        assert type(cls({k1: Fraction(-3, 2)}).terms[k1]) is Fraction
        assert type(b.scale(Fraction(-1, 2)).terms[k1]) is Fraction
        for x in (a, b, a + b, a - b, a.scale(2), a.scale(Fraction(1, 3)), a * b, -a):
            assert not any(isinstance(c, float) for c in x.terms.values())
    assert b.terms[k1] == (LevelScalar.from_fraction(3) if ctype is LevelScalar else 3)
    # a cancellation drops the key
    assert list((a - cls({k2: a.terms[k2]})).terms) == [k1]


def test_different_containers_never_equal():
    state, nop = State({(): 1}), FormalNOP({(): 1})
    assert state.terms == nop.terms and state != nop


def test_merge_cancels_in_place():
    acc = {"a": Fraction(1), "b": Fraction(2)}
    merge(acc, {"b": Fraction(-2), "c": Fraction(2)})
    assert acc == {"a": 1, "c": 2}
    assert list(acc) == ["a", "c"]
    merge(acc, {"a": Fraction(-1), "d": Fraction(5)})
    assert acc == {"c": 2, "d": 5}
    merge(acc, {})
    assert acc == {"c": 2, "d": 5}


@pytest.mark.parametrize("cls,ctype,k1,k2", CONTAINERS, ids=CONTAINER_IDS)
def test_sum_matches_left_fold(cls, ctype, k1, k2):
    a = sample(cls, ctype, k1, k2)
    b = cls({k2: 5, k1: 1})
    items = [a, b, -a, cls.constant(3), a.scale(2), -b]
    for n in range(len(items) + 1):
        want = functools.reduce(operator.add, items[:n], cls.zero())
        got = cls.sum(iter(items[:n]))
        assert got == want and list(got.terms) == list(want.terms)
    empty = cls.sum([])
    assert type(empty) is cls and empty.is_zero()
    # a cancelled key leaves the map, and comes back at its end
    x, y = cls({k1: 1}), cls({k2: 1})
    assert list(cls.sum([x, y, -x]).terms) == [k2]
    assert list(cls.sum([x, y, -x, x]).terms) == [k2, k1]


def _transposition_sign(entries):
    """Bubble sort by adjacent transpositions: (-1)^swaps, 0 on a repeat."""
    xs, swaps = list(entries), 0
    for end in range(len(xs) - 1, 0, -1):
        for t in range(end):
            if xs[t] > xs[t + 1]:
                xs[t], xs[t + 1] = xs[t + 1], xs[t]
                swaps += 1
    if any(x == y for x, y in zip(xs, xs[1:])):
        return 0
    return -1 if swaps % 2 else 1


def test_sort_sign_examples():
    assert sort_sign((0, 1, 2)) == (1, (0, 1, 2))
    assert sort_sign((2, 0, 1)) == (1, (0, 1, 2))
    assert sort_sign((1, 0)) == (-1, (0, 1))
    assert sort_sign((1, 1, 2)) == (0, (1, 1, 2))
    assert sort_sign(()) == (1, ())


def test_sort_sign_against_transpositions():
    cases = list(itertools.permutations(range(4)))
    cases += list(itertools.product(range(3), repeat=4))  # repeats among them
    for entries in cases:
        assert sort_sign(entries) == (_transposition_sign(entries), tuple(sorted(entries)))
    assert sort_sign(iter([3, 1, 2])) == (1, (1, 2, 3))


def test_weighted_multisets_through_weight_monomials():
    # rank 1: the partition numbers; rank 2: partitions into two colours
    assert [len(ob._weight_monomials(1, w)) for w in range(10)] == [
        1, 1, 2, 3, 5, 7, 11, 15, 22, 30
    ]
    assert [len(ob._weight_monomials(2, w)) for w in range(6)] == [1, 2, 5, 10, 20, 36]
    assert ob._weight_monomials(1, 3) == [((0, 1), (0, 1), (0, 1)), ((0, 2), (0, 1)), ((0, 3),)]


def test_weighted_multisets_order_prune_and_errors():
    letters = ["a", "b", "c"]
    assert weighted_multisets(letters, [1, 2, 3], 3) == [
        ("a", "a", "a"), ("a", "b"), ("c",)
    ]
    assert weighted_multisets(letters, [1, 2, 3], 0) == [()]
    # degrees: the bound prunes, it does not filter afterwards
    assert weighted_multisets(letters, [1, 2, 3], 3, [1, 1, 5], 2) == [("a", "b")]
    with pytest.raises(ValueError, match="letter 'b' has weight 0"):
        weighted_multisets(letters, [1, 0, 3], 3)


NOP_D2 = [
    (("Om[0,0]", 4),), (("Om[0,1]", 3),), (("Om[0,2]", 2),), (("Om[0,3]", 1),),
    (("Om[0,4]", 0),), (("Om[1,1]", 2),), (("Om[1,2]", 1),), (("Om[1,3]", 0),),
    (("Om[2,2]", 0),),
]
NOP_D4 = NOP_D2 + [
    (("Om[0,0]", 0), ("Om[0,0]", 2)), (("Om[0,0]", 0), ("Om[0,1]", 1)),
    (("Om[0,0]", 0), ("Om[0,2]", 0)), (("Om[0,0]", 0), ("Om[1,1]", 0)),
    (("Om[0,0]", 1), ("Om[0,0]", 1)), (("Om[0,0]", 1), ("Om[0,1]", 0)),
    (("Om[0,1]", 0), ("Om[0,1]", 0)),
]


def test_weighted_multisets_through_enumerate_nop_monomials():
    d = ob.omega_dictionary(1, 6)
    assert ob.enumerate_nop_monomials(d, 6, 4) == NOP_D4
    assert ob.enumerate_nop_monomials(d, 6, 2) == NOP_D2
    assert ob.enumerate_nop_monomials(d, 6, 1) == []
