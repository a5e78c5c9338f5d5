"""Exact scalar arithmetic: rationals, polynomials in the level k, and the field Q(k).

Every coefficient in the package is a ``LevelScalar``: a reduced fraction of
polynomials in the formal level variable k, with rational coefficients.  The
level is never a float; numeric levels enter only through ``evaluate_at`` on
final results.

A ``LevelPolynomial`` stores integer coefficients over one positive integer
denominator, reduced so that the integers and the denominator have no common
factor (the content and primitive part of von zur Gathen & Gerhard, *Modern
Computer Algebra*, ch. 6).  Sums and products are integer work with one gcd
reduction; ``Fraction``s appear only at the edges (``coeffs``, ``leading``,
``evaluate``, rendering) and inside polynomial division.

Many ``LevelScalar`` products have a factor that is 1 or an integer constant:
a pair of state coefficients in a circle product, ``Terms.scale``, or an
entry of a column in ``linalg``'s elimination of a full stage.  Such a factor
is a unit of Q(k), so the product, and ``scale`` by an ``int``, skips the
gcds and the polynomial product: it scales the other numerator's integers and
keeps the other denominator.  ``q * s`` and ``s / q`` for an ``int`` or
``Fraction`` q are ``scale``: so ``linalg`` replays an elimination over Q on
a right-hand side over Q(k).  A ``float`` raises ``TypeError`` wherever a
number becomes a scalar.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


class PoleAtLevel(ArithmeticError):
    """Raised when a scalar is evaluated at a root of its denominator."""

    def __init__(self, level: Fraction):
        self.level = Fraction(level)
        super().__init__(f"denominator vanishes at k = {self.level}")


def _rational(q) -> Fraction:
    """q, an int, ``Fraction`` or string such as ``"0.1"``, as a ``Fraction``.
    A ``float`` raises ``TypeError``: 0.1 is 3602879701896397/36028797018963968."""
    if isinstance(q, float):
        raise TypeError(f"float {q!r} is not an exact scalar; pass an int, a Fraction or a string")
    return Fraction(q)


def rational_to_str(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class LevelPolynomial:
    """Univariate polynomial in k over Q: integer coefficients over one denominator.

    The value is ``sum(ints[i] * k**i) / den``.  Normal form: ``ints`` has no
    trailing zero, ``den`` is positive and ``gcd(*ints, den) == 1``; the zero
    polynomial is ``()`` over 1.  Equality and hashing use ``(ints, den)``.
    """

    __slots__ = ("ints", "den")

    def __init__(self, coeffs: Iterable[Fraction] = ()):
        cs = [_rational(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # over the lcm of reduced denominators, gcd(*ints, den) is already 1
        den = lcm(*[c.denominator for c in cs])
        self.ints = tuple(c.numerator * (den // c.denominator) for c in cs)
        self.den = den

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def constant(q) -> "LevelPolynomial":
        return LevelPolynomial((_rational(q),))

    @staticmethod
    def variable() -> "LevelPolynomial":
        return _wrap((0, 1), 1)

    # -- structure ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Ascending coefficients as ``Fraction``s."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.ints)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def leading(self) -> Fraction:
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.den)

    def __bool__(self) -> bool:
        return bool(self.ints)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LevelPolynomial)
            and self.ints == other.ints
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.ints, self.den))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "LevelPolynomial") -> "LevelPolynomial":
        a, b = self.ints, other.ints
        if not b:
            return self
        if not a:
            return other
        da, db = self.den, other.den
        if da != db:
            g = gcd(da, db)
            a = [c * (db // g) for c in a]
            b = [c * (da // g) for c in b]
            da *= db // g
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _mkpoly(out, da)

    def __neg__(self) -> "LevelPolynomial":
        return _wrap(tuple(-c for c in self.ints), self.den)

    def __sub__(self, other: "LevelPolynomial") -> "LevelPolynomial":
        return self + (-other)

    def __mul__(self, other: "LevelPolynomial") -> "LevelPolynomial":
        a, b = self.ints, other.ints
        if not a or not b:
            return _P_ZERO
        if len(a) > len(b):
            a, b = b, a
        if len(b) == 1:
            out = [a[0] * b[0]]
        elif len(a) == 1:
            x = a[0]
            out = [x * c for c in b]
        else:
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, c in enumerate(b, i):
                        out[j] += x * c
        return _mkpoly(out, self.den * other.den)

    def scale(self, q: Fraction) -> "LevelPolynomial":
        if not q or not self.ints:
            return _P_ZERO
        n = q.numerator
        return _mkpoly([c * n for c in self.ints], self.den * q.denominator)

    def __divmod__(self, other: "LevelPolynomial"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        ocs = other.coeffs
        d = other.degree
        lead = ocs[-1]
        quot = [_F_ZERO] * max(len(rem) - d, 0)
        for i in range(len(rem) - 1, d - 1, -1):
            c = rem[i]
            if not c:
                continue
            f = c / lead
            quot[i - d] = f
            for j, oc in enumerate(ocs):
                rem[i - d + j] -= f * oc
        return LevelPolynomial(quot), LevelPolynomial(rem[:d])

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self) -> "LevelPolynomial":
        ints = self.ints
        if not ints or ints[-1] == self.den:
            return self
        lead = ints[-1]
        if lead < 0:
            return _mkpoly([-c for c in ints], -lead)
        return _mkpoly(list(ints), lead)

    def evaluate(self, k0) -> Fraction:
        if not self.ints:
            return _F_ZERO
        k0 = _rational(k0)
        p, q = k0.numerator, k0.denominator
        # sum(c_i p^i q^(n-i)) / (q^n den), by Horner in p with powers of q
        acc, qpow = 0, 1
        for c in reversed(self.ints):
            acc = acc * p + c * qpow
            qpow *= q
        return Fraction(acc, self.den * qpow // q)

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                body = rational_to_str(abs(c))
            else:
                var = "k" if j == 1 else f"k^{j}"
                body = var if abs(c) == 1 else f"{rational_to_str(abs(c))}*{var}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"LevelPolynomial({self})"

    def to_json(self) -> list:
        return [rational_to_str(c) for c in self.coeffs]

    @staticmethod
    def from_json(data: Sequence[str]) -> "LevelPolynomial":
        return LevelPolynomial(Fraction(s) for s in data)


_F_ZERO = Fraction(0)


def _wrap(ints: tuple, den: int) -> LevelPolynomial:
    """Internal constructor for ``(ints, den)`` already in normal form."""
    p = LevelPolynomial.__new__(LevelPolynomial)
    p.ints = ints
    p.den = den
    return p


def _mkpoly(ints: list, den: int) -> LevelPolynomial:
    """Internal constructor for ``den > 0``: strips trailing zeros, divides out the gcd."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return _P_ZERO
    if den != 1:
        g = gcd(den, *ints)
        if g != 1:
            den //= g
            ints = [c // g for c in ints]
    return _wrap(tuple(ints), den)


_P_ZERO = _wrap((), 1)
_P_ONE = _wrap((1,), 1)


def poly_gcd(a: LevelPolynomial, b: LevelPolynomial) -> LevelPolynomial:
    """Monic gcd via the Euclidean algorithm."""
    # a nonzero constant divides everything
    if len(a.ints) == 1 or len(b.ints) == 1:
        return _P_ONE
    while b.ints:
        a, b = b, (a % b).monic()
        if len(b.ints) == 1:
            return _P_ONE
    return a.monic()


class LevelScalar:
    """Element of Q(k): a reduced fraction of level polynomials.

    Normal form: the denominator is monic and coprime to the numerator, and
    the zero scalar is 0/1.  Equality and hashing are structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LevelPolynomial, den: LevelPolynomial):
        num, den = _normalize(num, den)
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_fraction(q) -> "LevelScalar":
        q = _rational(q)
        if not q:
            return ZERO
        if q == 1:
            return ONE
        return _mkscalar(LevelPolynomial.constant(q), _P_ONE)

    # -- structure ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num.ints

    def __bool__(self) -> bool:
        return bool(self.num.ints)

    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def as_fraction(self) -> Fraction:
        """The value of a constant scalar, as an exact rational."""
        if not self.is_constant():
            raise ValueError(f"scalar {self} is not constant in k")
        if self.num.is_zero():
            return Fraction(0)
        return self.num.coeffs[0] / self.den.coeffs[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LevelScalar)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    # -- field arithmetic -----------------------------------------------------

    def __add__(self, other: "LevelScalar") -> "LevelScalar":
        if self.den is _P_ONE and other.den is _P_ONE:
            return _mkscalar(self.num + other.num, _P_ONE)
        if self.den == other.den:
            return LevelScalar(self.num + other.num, self.den)
        return LevelScalar(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "LevelScalar") -> "LevelScalar":
        return self + (-other)

    def __neg__(self) -> "LevelScalar":
        return _mkscalar(-self.num, self.den)

    def __mul__(self, other) -> "LevelScalar":
        if type(other) is not LevelScalar:
            return self.scale(other)  # an int or Fraction, as q * self takes it
        if other is ONE:
            return self
        if self is ONE:
            return other
        a, b = self.num, other.num
        if not a.ints or not b.ints:
            return ZERO
        # a factor that is an integer constant is a unit: only integers move
        if self.den is _P_ONE and a.den == 1 and len(a.ints) == 1:
            return _times_int(other, a.ints[0])
        if other.den is _P_ONE and b.den == 1 and len(b.ints) == 1:
            return _times_int(self, b.ints[0])
        if self.den is _P_ONE and other.den is _P_ONE:
            return _mkscalar(self.num * other.num, _P_ONE)
        # cross-reduce before multiplying to keep intermediate degrees down
        g1 = poly_gcd(self.num, other.den)
        g2 = poly_gcd(other.num, self.den)
        if g1.degree > 0 or g2.degree > 0:
            n = (self.num // g1) * (other.num // g2)
            d = (self.den // g2) * (other.den // g1)
        else:
            n = self.num * other.num
            d = self.den * other.den
        return _mkscalar(n, d)

    def __truediv__(self, other) -> "LevelScalar":
        if isinstance(other, LevelScalar):
            return self * other.inverse()
        return self.scale(1 / _rational(other))  # 1 / Fraction(0) raises ZeroDivisionError

    def inverse(self) -> "LevelScalar":
        if self.is_zero():
            raise ZeroDivisionError("division by the zero scalar")
        return LevelScalar(self.den, self.num)

    def scale(self, q) -> "LevelScalar":
        if type(q) is int:
            return _times_int(self, q) if q else ZERO
        q = _rational(q)
        if not q:
            return ZERO
        return _mkscalar(self.num.scale(q), self.den)

    __rmul__ = scale  # q * self for an int or Fraction q

    # -- evaluation -----------------------------------------------------------

    def evaluate_at(self, k0) -> Fraction:
        k0 = _rational(k0)
        d = self.den.evaluate(k0)
        if d == 0:
            raise PoleAtLevel(k0)
        return self.num.evaluate(k0) / d

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        if self.den == _P_ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"LevelScalar({self})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(data: dict) -> "LevelScalar":
        return LevelScalar(
            LevelPolynomial.from_json(data["num"]),
            LevelPolynomial.from_json(data["den"]),
        )


def _normalize(num: LevelPolynomial, den: LevelPolynomial):
    if den.is_zero():
        raise ZeroDivisionError("zero denominator polynomial")
    if num.is_zero():
        return _P_ZERO, _P_ONE
    if den is _P_ONE:
        return num, den
    g = poly_gcd(num, den)
    if g.degree > 0:
        num, den = num // g, den // g
    lead = den.leading()
    if lead != 1:
        num = num.scale(1 / lead)
        den = den.scale(1 / lead)
    if den.degree == 0:
        den = _P_ONE
    return num, den


def _mkscalar(num: LevelPolynomial, den: LevelPolynomial) -> "LevelScalar":
    """Internal constructor for inputs already in normal form."""
    if not num.ints:
        return ZERO
    s = LevelScalar.__new__(LevelScalar)
    s.num = num
    s.den = den
    return s


def _times_int(s: LevelScalar, n: int) -> LevelScalar:
    """``s`` times the nonzero integer ``n``, in normal form.

    A nonzero constant is a unit of Q(k), so the numerator's integers are
    scaled, ``gcd(n, num.den)`` is divided out, and the denominator object is
    kept: still coprime to the numerator, monic, and ``_P_ONE`` if it was.
    """
    if n == 1:
        return s
    num = s.num
    g = gcd(n, num.den)
    n //= g
    return _mkscalar(_wrap(tuple([c * n for c in num.ints]), num.den // g), s.den)


ZERO = LevelScalar(_P_ZERO, _P_ONE)
ONE = LevelScalar(_P_ONE, _P_ONE)
K = LevelScalar(LevelPolynomial.variable(), _P_ONE)


def _divisors(n: int):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rational_roots(p: LevelPolynomial) -> list:
    """All rational roots of p, exactly, via the rational root theorem."""
    ints = p.ints
    if not ints:
        return []
    roots = set()
    shift = 0
    while ints[shift] == 0:
        shift += 1
    if shift:
        roots.add(Fraction(0))
    if shift == len(ints) - 1:
        return sorted(roots)
    for pnum in _divisors(ints[shift]):
        for qden in _divisors(ints[-1]):
            for cand in (Fraction(pnum, qden), Fraction(-pnum, qden)):
                if p.evaluate(cand) == 0:
                    roots.add(cand)
    return sorted(roots)
