import math
import random
from fractions import Fraction

import pytest

from voa.scalars import (
    K,
    ONE,
    ZERO,
    LevelPolynomial,
    LevelScalar,
    PoleAtLevel,
    _P_ONE,
    _P_ZERO,
    poly_gcd,
    rational_roots,
)
from voa import linalg
from voa.liedata import sl2_spec
from voa.vertexcore import State, coerce_scalar, sugawara


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


# -- independent path: the Fraction-tuple polynomial as a reference -------------


class RefPoly:
    """Ascending ``Fraction`` coefficients without trailing zeros: the
    representation ``LevelPolynomial`` had before its integer form."""

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RefPoly(out)

    def __neg__(self):
        return RefPoly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return RefPoly(out)

    def scale(self, q):
        return RefPoly(c * q for c in self.coeffs)

    def divmod(self, other):
        rem = list(self.coeffs)
        d = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            f = rem[i] / lead
            quot[i - d] = f
            for j, oc in enumerate(other.coeffs):
                rem[i - d + j] -= f * oc
        return RefPoly(quot), RefPoly(rem)

    def monic(self):
        return self.scale(1 / self.coeffs[-1]) if self.coeffs else self

    def evaluate(self, k0):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * k0 + c
        return acc

    def text(self):
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            a = abs(c)
            a = str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
            var = "" if j == 0 else ("k" if j == 1 else f"k^{j}")
            body = a if j == 0 else (var if abs(c) == 1 else f"{a}*{var}")
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts) or "0"


def ref_gcd(a, b):
    while b.coeffs:
        a, b = b, a.divmod(b)[1]
    return a.monic()


def ref_roots(p):
    """Rational roots by trying every p/q with p | a_0, q | a_n (a_0 != 0)."""
    cs = list(p.coeffs)
    roots = set()
    while cs and cs[0] == 0:
        cs.pop(0)
        roots.add(Fraction(0))
    if len(cs) > 1:
        scale = 1
        for c in cs:
            scale = scale * c.denominator // math.gcd(scale, c.denominator)
        a0, an = abs(int(cs[0] * scale)), abs(int(cs[-1] * scale))
        for num in range(1, a0 + 1):
            for den in range(1, an + 1):
                if a0 % num == 0 and an % den == 0:
                    for cand in (Fraction(num, den), Fraction(-num, den)):
                        if p.evaluate(cand) == 0:
                            roots.add(cand)
    return sorted(roots)


def ref_normal(num, den):
    """The reduced, monic-denominator pair of ``num/den``, over ``RefPoly``."""
    if not num.coeffs:
        return RefPoly(()), RefPoly((1,))
    g = ref_gcd(num, den)
    num, den = num.divmod(g)[0], den.divmod(g)[0]
    lead = den.coeffs[-1]
    return num.scale(1 / lead), den.scale(1 / lead)


def _random_coeffs(rng):
    """Up to four coefficients with denominators to 6, at times with trailing zeros."""
    cs = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.2:
        cs += [Fraction(0)] * rng.randint(1, 2)
    return cs


def _pair(rng):
    cs = _random_coeffs(rng)
    return LevelPolynomial(cs), RefPoly(cs)


def assert_matches(p, ref):
    """``p`` is in normal form and has the reference's value."""
    ints, den = p.ints, p.den
    assert type(ints) is tuple and all(type(c) is int for c in ints)
    assert type(den) is int and den > 0
    assert not ints or ints[-1] != 0
    assert math.gcd(den, *ints) == 1
    assert p.coeffs == ref.coeffs
    assert p.degree == len(ref.coeffs) - 1


def test_integer_form_matches_fraction_reference():
    rng = random.Random(20261018)
    for _ in range(300):
        (a, ra), (b, rb) = _pair(rng), _pair(rng)
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert_matches(a, ra)
        assert_matches(a + b, ra + rb)
        assert_matches(a - b, ra - rb)
        assert_matches((a + b) - a, rb)
        assert_matches(-a, -ra)
        assert_matches(a * b, ra * rb)
        assert_matches(a.scale(q), ra.scale(q))
        assert_matches(a.monic(), ra.monic())
        if b:
            quot, rem = divmod(a, b)
            rquot, rrem = ra.divmod(rb)
            assert_matches(quot, rquot)
            assert_matches(rem, rrem)
            assert_matches(poly_gcd(a * b, b), ref_gcd(ra * rb, rb))
            assert_matches(poly_gcd(a, b), ref_gcd(ra, rb) if ra.coeffs else rb.monic())
        assert a.evaluate(q) == ra.evaluate(q)
        assert rational_roots(a * b) == ref_roots(ra * rb)
        assert str(a) == ra.text()
        assert a.to_json() == [f"{c.numerator}/{c.denominator}".removesuffix("/1") for c in ra.coeffs]
        if a:
            assert a.leading() == ra.coeffs[-1]


def test_scalar_normal_form_matches_fraction_reference():
    rng = random.Random(20261019)
    for _ in range(200):
        (n, rn), (d, rd) = _pair(rng), _pair(rng)
        if not d:
            continue
        s = LevelScalar(n, d)
        rnum, rden = ref_normal(rn, rd)
        assert_matches(s.num, rnum)
        assert_matches(s.den, rden)
        assert (s.den is _P_ONE) == (len(rden.coeffs) == 1)
        (m, rm), (e, re) = _pair(rng), _pair(rng)
        if not e:
            continue
        t = LevelScalar(m, e)
        for got, (wn, wd) in (
            (s + t, ref_normal(rn * re + rm * rd, rd * re)),
            (s - t, ref_normal(rn * re - rm * rd, rd * re)),
            (s * t, ref_normal(rn * rm, rd * re)),
        ):
            assert_matches(got.num, wn)
            assert_matches(got.den, wd)


def test_equal_polynomials_hash_equal_across_construction_paths():
    rng = random.Random(20261020)
    for _ in range(200):
        cs = _random_coeffs(rng)
        p = LevelPolynomial(cs)
        r = LevelPolynomial(_random_coeffs(rng)) or LevelPolynomial.variable()
        q = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        for other in (
            (p + r) - r,
            p.scale(q).scale(1 / q),
            divmod(p * r, r)[0],
            LevelPolynomial.from_json(p.to_json()),
            LevelPolynomial(cs + [Fraction(0)]),
            -(-p),
        ):
            assert other == p and hash(other) == hash(p)
        s = LevelScalar(p, r)
        t = LevelScalar(p.scale(q), r.scale(q))
        u = LevelScalar.from_json(s.to_json())
        assert s == t == u and hash(s) == hash(t) == hash(u)


def test_zero_polynomial_normal_form():
    p = poly(Fraction(1, 2), Fraction(-3, 4))
    for z in (
        LevelPolynomial(),
        LevelPolynomial([Fraction(0), Fraction(0)]),
        p - p,
        p + (-p),
        p.scale(Fraction(0)),
        p * LevelPolynomial(),
        divmod(p * p, p)[1],
        LevelPolynomial.from_json([]),
    ):
        assert z.ints == () and z.den == 1 and z.coeffs == ()
        assert z == _P_ZERO and hash(z) == hash(_P_ZERO)
        assert not z and z.degree == -1
        assert str(z) == "0" and z.to_json() == []
    z = LevelScalar(p - p, p)
    assert z == ZERO and z.num.ints == () and z.den is _P_ONE


# -- the integer fast path against the reference ----------------------------------


def _operand(num, den=(1,)):
    """A scalar and its reference normal form, from coefficient lists."""
    n, d = [Fraction(c) for c in num], [Fraction(c) for c in den]
    return LevelScalar(LevelPolynomial(n), LevelPolynomial(d)), ref_normal(RefPoly(n), RefPoly(d))


def _fast_path_operands(rng):
    """Operands ``_pair`` almost never gives: 1, -1, small and large integers,
    polynomials over a denominator above 1, and rational functions."""
    big = 10**20 + 7
    ops = [_operand(c) for c in ((1,), (-1,), (2,), (-3,), (6,), (4,), (-9,),
                                 (big,), (-(2**70),), (Fraction(3, 2),), (0,))]
    ops += [
        _operand((Fraction(1, 3), Fraction(1, 2)), (1, 1)),  # (k/2 + 1/3)/(k+1)
        _operand((Fraction(1, 3), Fraction(1, 2))),  # k/2 + 1/3
        _operand((0, Fraction(5, 6), 0, Fraction(-1, 4))),
        _operand((2, -4, 6), (3, 3)),  # (2 - 4k + 6k^2)/(3 + 3k)
        _operand((0, 1), (1, 0, 1)),  # k/(1 + k^2)
        _operand((big, -big), (-1, 2)),
    ]
    while len(ops) < 23:
        den = _random_coeffs(rng)
        if any(den):
            ops.append(_operand(_random_coeffs(rng), den))
    return ops


def assert_scalar_matches(s, ref):
    assert_matches(s.num, ref[0])
    assert_matches(s.den, ref[1])
    assert (s.den is _P_ONE) == (len(ref[1].coeffs) == 1)


def _same_fields(a, b):
    return (a.num.ints, a.num.den, a.den.ints, a.den.den) == (b.num.ints, b.num.den, b.den.ints, b.den.den)


def test_integer_fast_path_matches_fraction_reference():
    rng = random.Random(20261020)
    ops = _fast_path_operands(rng)
    for s, rs in ops:
        assert_scalar_matches(s, rs)
        assert ONE * s is s and s * ONE is s
        for t, rt in ops:
            got = s * t
            assert_scalar_matches(got, ref_normal(rs[0] * rt[0], rs[1] * rt[1]))
            assert _same_fields(got, t * s)
            if s.den is _P_ONE and t.den is _P_ONE:
                assert got.den is _P_ONE
            if s.is_constant() and s.as_fraction().denominator == 1 and s and t:
                assert got.den is t.den  # the integer path keeps the other denominator
        for n in (0, 1, -1, 2, -3, 6, 4, -9, 10**20 + 7, -(2**70)):
            got = s.scale(n)
            assert_scalar_matches(got, ref_normal(rs[0].scale(n), rs[1]))
            assert _same_fields(got, s.scale(Fraction(n)))
            if s.den is _P_ONE:
                assert got.den is _P_ONE
        assert s.scale(1) is s


def test_integer_times_polynomial_over_a_denominator():
    s, _ = _operand((Fraction(1, 3), Fraction(1, 2)), (1, 1))  # (k/2 + 1/3)/(k+1)
    assert (s.num.ints, s.num.den) == ((2, 3), 6)
    for n, ints, den in ((6, (2, 3), 1), (4, (4, 6), 3), (-9, (-6, -9), 2)):
        for got in (s.scale(n), s * LevelScalar.from_fraction(n), LevelScalar.from_fraction(n) * s):
            assert (got.num.ints, got.num.den) == (ints, den)
            assert got.den is s.den


def test_rational_operands_match_their_scalars():
    # q * s and s / q for an int or Fraction q are the products with q's scalar
    rng = random.Random(20261021)
    for s, _ in _fast_path_operands(rng):
        for q in (1, -1, 3, -12, 10**20 + 7, Fraction(1, 2), Fraction(-7, 3), Fraction(6)):
            r = LevelScalar.from_fraction(q)
            for got, want in ((q * s, r * s), (s * q, s * r), (s / q, s / r)):
                assert got == want and hash(got) == hash(want) and str(got) == str(want)
    for q in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            K / q


def test_int_or_fraction_on_the_right():
    assert ONE * 3 == LevelScalar.from_fraction(3) and ZERO * 3 == ZERO
    # a kernel vector over Q(k) holds the int 1 in its free column
    (vec,) = linalg.kernel_basis([{0: K}, {0: K}], 2)
    assert {j: K * c for j, c in vec.items()} == {0: -K, 1: K}
    # an int-valued scalar still differs from the int, as its hash does
    assert ONE.scale(2) != 2


@pytest.mark.parametrize("make", [
    lambda: LevelScalar.from_fraction(0.1),
    lambda: K.scale(0.1),
    lambda: coerce_scalar(0.5),
    lambda: State.generator(0).scale(0.1),
    lambda: 0.5 * K,
    lambda: K * 0.5,
    lambda: K / 2.0,
    lambda: K.evaluate_at(0.1),
    lambda: LevelPolynomial.constant(0.1),
    lambda: LevelPolynomial([0.1, 1]),
    lambda: LevelPolynomial.variable().evaluate(0.1),
    lambda: sugawara(sl2_spec(), 0.1),
], ids=["from_fraction", "scale", "coerce_scalar", "State.scale", "rmul", "mul", "truediv",
        "evaluate_at", "constant", "LevelPolynomial", "evaluate", "sugawara"])
def test_floats_are_refused(make):
    # 0.1 is the binary fraction 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match="float"):
        make()


def test_ints_fractions_and_decimal_strings_stay_exact():
    tenth = LevelScalar.from_fraction(Fraction(1, 10))
    assert LevelScalar.from_fraction("0.1") == tenth == ONE / 10
    assert K.scale("0.1") == K.scale(Fraction(1, 10)) == K * tenth
    assert coerce_scalar(3) == LevelScalar.from_fraction(Fraction(3)) == ONE.scale(3)
    assert State.generator(0).scale("2.5") == State.generator(0).scale(Fraction(5, 2))
    assert LevelPolynomial(["0.1", 1]) == LevelPolynomial([Fraction(1, 10), 1])
    assert LevelPolynomial.constant("0.1") == LevelPolynomial.constant(Fraction(1, 10))
    assert K.evaluate_at("0.1") == LevelPolynomial.variable().evaluate("0.1") == Fraction(1, 10)
    assert K.evaluate_at(2) == LevelPolynomial.variable().evaluate(Fraction(2)) == 2
    assert sugawara(sl2_spec(), "2.5") == sugawara(sl2_spec(), Fraction(5, 2))
    assert sugawara(sl2_spec(), 2) == sugawara(sl2_spec(), Fraction(2))
