import random
from fractions import Fraction

import pytest

from voa.scalars import (
    K,
    NEG_INFINITY,
    ONE,
    ZERO,
    LevelPolynomial,
    LevelScalar,
    PoleAtLevel,
    poly_gcd,
    rational_roots,
)


def poly(*coeffs):
    return LevelPolynomial([Fraction(c) for c in coeffs])


def scalar(num, den=(1,)):
    return LevelScalar(poly(*num), poly(*den))


def test_arith_examples():
    k_plus_1 = scalar((1, 1))
    k_minus_1 = scalar((-1, 1))
    assert k_plus_1 + k_minus_1 == scalar((0, 2))
    # common-factor cancellation
    assert scalar((-1, 0, 1)) / scalar((-1, 1)) == k_plus_1
    # inverse pair
    inv = ONE / scalar((2, 1))
    assert inv * scalar((2, 1)) == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_k_degree_examples():
    assert scalar((3, 0, 1)).k_degree() == 2
    assert (ONE / scalar((2, 1))).k_degree() == -1
    assert ZERO.k_degree() == NEG_INFINITY


def test_evaluate_examples():
    a = scalar((0, 3)) / scalar((2, 1))  # 3k/(k+2)
    assert a.evaluate_at(1) == 1
    with pytest.raises(PoleAtLevel) as err:
        (ONE / scalar((2, 1))).evaluate_at(-2)
    assert err.value.level == Fraction(-2)
    assert (K * K).evaluate_at(0) == 0


def _random_scalar(rng):
    def rpoly():
        deg = rng.randint(0, 2)
        return poly(*[rng.randint(-3, 3) for _ in range(deg + 1)])

    num = rpoly()
    den = rpoly()
    while den.is_zero():
        den = rpoly()
    return LevelScalar(num, den)


def test_field_laws_random():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ZERO
        if not a.is_zero():
            assert a * a.inverse() == ONE
        assert a + b == b + a


def test_k_degree_laws_random():
    rng = random.Random(11)
    for _ in range(80):
        a, b = _random_scalar(rng), _random_scalar(rng)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).k_degree() == a.k_degree() + b.k_degree()
        assert (a + b).k_degree() <= max(a.k_degree(), b.k_degree())


def test_normal_form_invariants():
    rng = random.Random(13)
    for _ in range(40):
        a = _random_scalar(rng)
        if a.is_zero():
            assert a == ZERO
            continue
        assert a.den.leading() == 1
        assert poly_gcd(a.num, a.den).degree == 0
        # structural equality of independently-built equal values
        b = LevelScalar(a.num.scale(Fraction(7, 3)), a.den.scale(Fraction(7, 3)))
        assert a == b and hash(a) == hash(b)


def test_text_rendering():
    assert str(scalar((2, 1))) == "2 + k"
    assert str(scalar((-1, 0, 1))) == "-1 + k^2"
    assert str(scalar((0, Fraction(3, 2)))) == "3/2*k"
    assert str(ZERO) == "0"
    assert str(scalar((0, 3)) / scalar((4, 2))) == "(3/2*k)/(2 + k)"


def test_json_round_trip():
    a = scalar((1, Fraction(1, 2)), (3, 0, 1))
    data = a.to_json()
    assert data == {"num": ["1", "1/2"], "den": ["3", "0", "1"]}
    assert LevelScalar.from_json(a.to_json()) == a
    assert LevelScalar.from_json(ZERO.to_json()) == ZERO


def test_rational_roots():
    p = poly(1, 0, -1) * poly(-1, 2) * poly(0, 1)  # (1-k^2)(2k-1)k
    assert rational_roots(p) == [
        Fraction(-1),
        Fraction(0),
        Fraction(1, 2),
        Fraction(1),
    ]
    assert rational_roots(poly(2, 0, 1)) == []
