"""Classical invariant theory in the polynomial ring on variables x_{i,j}.

The ring is Sym of countably many copies of the base module, with x_{i,j}
the i-th coordinate of the j-th copy.  Polynomial weight counts x_{i,j} with
weight j+1, matching the vertex-algebra weight of the corresponding state.

The same ring holds the symbols of the invariants: the orthogonal
quadratics Q_{a,b} and the adjoint-sl2 cubics C_{klm}, with their
determinantal relation families.  ``substitute`` and ``substitute_sl2`` are
the ring maps from the symbols into the x_{i,j}.

A monomial is keyed by one packed integer (packed exponent vectors:
Monagan & Pearce, *Polynomial division using dynamic arrays, heaps, and
packed exponent vectors*, CASC 2007).  Its bits [0, W) hold the total
degree, and letter number t has its exponent in bits [W(t+1), W(t+2)),
with W = ``FIELD_BITS``; the empty monomial is 0.  So the product of two
monomials is the sum of their keys, and a derivative subtracts the key of
one letter.  Letters are the variables (i, j) and the symbols
("Q", a, b) and ("C", k, l, m); one registry numbers them densely in
the order of first use, which keeps the keys short.  Keys are therefore
local to the process: ``letters(key)`` spells a key out as the sorted
tuple of its letters, each repeated as often as its exponent, and
everything that orders or prints monomials goes through it.  A product
whose degree would reach 2^W (``MAX_DEGREE`` + 1) raises ``ValueError``
before any field could overflow into the next; the check reads the degree
field of each factor's keys, O(n + m) against the product's O(n m).  W = 6
allows degree 63, three times the highest degree any computation here
reaches, and keeps keys shorter (so faster to add and hash) than W = 8.
A negative index raises ``ValueError`` wherever a letter is made.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from . import linalg
from .liedata import ActionSpec, _exact
from .terms import Terms, sort_sign, weighted_multisets

# sl2 classical variable families, in the basis order of liedata.sl2_spec()
SL2_X, SL2_Y, SL2_H = 0, 1, 2

#: entries kept by each of the caches of weyl_q, sl2_q and sl2_c, which
#: hand every caller the same object (polynomials are never mutated), so a
#: substitution builds each symbol's image once
IMAGE_CACHE_SIZE = 256

#: bits of each field of a packed key, and the highest degree a key can hold
FIELD_BITS = 6
MAX_DEGREE = (1 << FIELD_BITS) - 1

#: the letter registry: letter -> the key of its monomial, and number -> letter
_KEYS = {}
_LETTERS = []


def letter_key(letter) -> int:
    """The key of the monomial of one letter, numbering the letter on first use."""
    key = _KEYS.get(letter)
    if key is None:
        _LETTERS.append(letter)
        key = _KEYS[letter] = (1 << (FIELD_BITS * len(_LETTERS))) | 1
    return key


def _check_degree(degree):
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds the packed-key bound {MAX_DEGREE}")


def monomial_key(spelled) -> int:
    """The key of the monomial with the given letters (repeats are powers)."""
    spelled = tuple(spelled)
    _check_degree(len(spelled))
    return sum(map(letter_key, spelled))


def _variables_first(letter):
    """Sort key for letters of both kinds: variables (i, j) before symbols."""
    return isinstance(letter[0], str), letter


def letters(key: int) -> tuple:
    """The sorted tuple of a key's letters, each repeated as often as its exponent.

    A key that mixes variables and symbols lists its variables first.
    """
    out = []
    rest = key >> FIELD_BITS
    while rest:
        shift = (rest & -rest).bit_length() - 1
        shift -= shift % FIELD_BITS
        e = (rest >> shift) & MAX_DEGREE
        out += [_LETTERS[shift // FIELD_BITS]] * e
        rest ^= e << shift
    try:
        return tuple(sorted(out))
    except TypeError:  # an int index met a symbol's name
        return tuple(sorted(out, key=_variables_first))


def _letter_text(letter) -> str:
    """A letter as printed: x[i,j] for a variable, Q[a,b] or C[k,l,m] for a symbol."""
    if isinstance(letter[0], str):
        return f"{letter[0]}[{','.join(map(str, letter[1:]))}]"
    return f"x[{letter[0]},{letter[1]}]"


def _variables(key: int, what: str) -> tuple:
    """``letters(key)``, refusing a key with a symbol: ValueError names it."""
    spelled = letters(key)
    if spelled and isinstance(spelled[-1][0], str):  # symbols sort last
        raise ValueError(f"{what} takes variables x[i,j], got the symbol"
                         f" {_letter_text(spelled[-1])}")
    return spelled


def _check_indices(*indices):
    if min(indices) < 0:
        raise ValueError("indices must be nonnegative")


class ClassicalPoly(Terms):
    """Exact polynomial in the variables x_{i,j} or in the symbols Q_{a,b}
    and C_{klm}; terms map monomial keys to Q.

    A key is the packed integer of the monomial, over the letters (i, j),
    ("Q", a, b) and ("C", k, l, m); no monomial mixes variables and
    symbols.  Coefficients are exact rationals: ``int`` when ``coerce`` sees
    an integral value, otherwise ``Fraction``.
    """

    __slots__ = ()

    coerce = staticmethod(_exact)
    unit_key = 0

    @staticmethod
    def variable(i: int, j: int) -> "ClassicalPoly":
        _check_indices(i, j)
        return ClassicalPoly.wrap({letter_key((i, j)): 1})

    @staticmethod
    def q(a: int, b: int) -> "ClassicalPoly":
        return ClassicalPoly.wrap({letter_key(q_symbol(a, b)): 1})

    @staticmethod
    def c(k: int, l: int, m: int) -> "ClassicalPoly":
        """The symbol C_{klm}, alternating in its indices, so zero on a repeat."""
        _check_indices(k, l, m)
        sign, order = sort_sign((k, l, m))
        return ClassicalPoly.wrap({letter_key(("C",) + order): sign} if sign else {})

    def __mul__(self, other):
        """Product over packed keys: each key product is a sum.

        Terms are accumulated as ``terms.merge`` would, one row of ``self`` at
        a time, so the keys come in the same order.
        """
        a, b = self.terms, other.terms
        if not (a and b):
            return self.wrap({})
        _check_degree(max(map(MAX_DEGREE.__and__, a)) + max(map(MAX_DEGREE.__and__, b)))
        if len(a) == 1:
            # k1 + k2 is distinct for distinct k2: no collisions
            ((k1, c1),) = a.items()
            return self.wrap({k1 + k2: c1 * c2 for k2, c2 in b.items()})
        out = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                s = get(k)
                if s is None:
                    out[k] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        return self.wrap(out)

    # -- gradings ------------------------------------------------------------

    def poly_weight(self):
        """Common weight sum(j+1) over a key; None when inhomogeneous, 0 when zero."""
        ws = {sum(j + 1 for _, j in _variables(k, "poly_weight")) for k in self.terms}
        if not ws:
            return 0
        return ws.pop() if len(ws) == 1 else None

    def families(self):
        return sorted({i for k in self.terms for i, _ in _variables(k, "families")})

    # -- derivations and substitutions ----------------------------------------

    def partial(self, i: int, j: int) -> "ClassicalPoly":
        # removing one copy of x_{i,j} maps distinct keys to distinct keys
        step = _KEYS.get((i, j))
        if step is None:
            return ClassicalPoly.zero()
        shift = step.bit_length() - 1
        out = {}
        for key, c in self.terms.items():
            e = (key >> shift) & MAX_DEGREE
            if e:
                out[key - step] = c * e
        return ClassicalPoly.wrap(out)

    def derive_variables(self, fn) -> "ClassicalPoly":
        """Derivation determined by x_{i,j} |-> fn((i, j)) (a ClassicalPoly)."""
        return ClassicalPoly.sum(
            self.partial(*v) * fn(v)
            for v in sorted({v for k in self.terms for v in _variables(k, "derive_variables")})
        )

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        spelled_terms = ((letters(key), c) for key, c in self.terms.items())
        for spelled, c in sorted(spelled_terms, key=lambda t: tuple(map(_variables_first, t[0]))):
            factors = ""
            for v, g in itertools.groupby(spelled):
                e = len(list(g))
                if isinstance(v[0], str):  # a symbol: repeats are spelled out
                    factors += _letter_text(v) * e
                else:
                    factors += _letter_text(v) + (f"^{e}" if e > 1 else "")
            parts.append(f"{c}" if not factors else f"{c}*{factors}")
        return " + ".join(parts)


# -- generators -----------------------------------------------------------------


@functools.lru_cache(maxsize=IMAGE_CACHE_SIZE)
def weyl_q(n: int, a: int, b: int) -> ClassicalPoly:
    """The orthogonal quadratic sum_i x_{i,a} x_{i,b} over n families."""
    _check_indices(a, b)
    return ClassicalPoly.sum(
        ClassicalPoly.variable(i, a) * ClassicalPoly.variable(i, b) for i in range(n)
    )


@functools.lru_cache(maxsize=IMAGE_CACHE_SIZE)
def sl2_q(i: int, j: int) -> ClassicalPoly:
    """Adjoint quadratic: h_i h_j + 2 x_i y_j + 2 x_j y_i."""
    h_i, h_j = ClassicalPoly.variable(SL2_H, i), ClassicalPoly.variable(SL2_H, j)
    x_i, x_j = ClassicalPoly.variable(SL2_X, i), ClassicalPoly.variable(SL2_X, j)
    y_i, y_j = ClassicalPoly.variable(SL2_Y, i), ClassicalPoly.variable(SL2_Y, j)
    return h_i * h_j + (x_i * y_j).scale(2) + (x_j * y_i).scale(2)


@functools.lru_cache(maxsize=IMAGE_CACHE_SIZE)
def sl2_c(k: int, l: int, m: int) -> ClassicalPoly:
    """Adjoint cubic: the 3x3 determinant with rows (h, x, y) at orders k, l, m."""
    if not (k < l < m):
        raise ValueError("need k < l < m")
    cols = (SL2_H, SL2_X, SL2_Y)
    return _determinant([[ClassicalPoly.variable(c, r) for c in cols] for r in (k, l, m)])


@functools.cache
def _signed_permutations(n):
    """Every permutation of range(n) with its sign, in lexicographic order."""
    return tuple((perm, sort_sign(perm)[0]) for perm in itertools.permutations(range(n)))


def _determinant(entries):
    """Leibniz expansion of the determinant of a square matrix (a list of rows)."""
    n = len(entries)
    return ClassicalPoly.sum(
        math.prod((entries[r][perm[r]] for r in range(n)), start=ClassicalPoly.constant(sign))
        for perm, sign in _signed_permutations(n)
    )


# -- the symbols Q_{a,b} and C_{klm}, and their relations --------------------------


def q_symbol(a: int, b: int):
    """Canonical Q symbol; Q is symmetric so indices are sorted."""
    _check_indices(a, b)
    return ("Q", min(a, b), max(a, b))


def det_relation(n: int, I, J) -> ClassicalPoly:
    """The (n+1)x(n+1) determinant in Q symbols on strictly increasing lists."""
    I, J = tuple(I), tuple(J)
    if len(I) != n + 1 or len(J) != n + 1:
        raise ValueError(f"index lists must have length {n + 1}")
    for lst in (I, J):
        if any(a < 0 for a in lst) or any(x >= y for x, y in zip(lst, lst[1:])):
            raise ValueError(f"index list {lst} is not strictly increasing and nonnegative")
    return _q_determinant(I, J)


def _q_determinant(rows, cols) -> ClassicalPoly:
    """The determinant of the matrix (Q_{a,b}) with a in rows and b in cols."""
    return _determinant([[ClassicalPoly.q(a, b) for b in cols] for a in rows])


def _substitute(p, image) -> ClassicalPoly:
    """The ring homomorphism determined by each letter's image(letter).

    p's letters are symbols or variables (i, j), and image(letter) is a
    ClassicalPoly; image is called once per distinct letter of p.
    """
    spelled = [(letters(key), c) for key, c in p.terms.items()]
    images = {v: image(v) for v in dict.fromkeys(itertools.chain.from_iterable(s for s, _ in spelled))}
    return ClassicalPoly.sum(
        math.prod(map(images.__getitem__, s), start=ClassicalPoly.constant(c))
        for s, c in spelled
    )


def substitute(p: ClassicalPoly, n: int) -> ClassicalPoly:
    """The homomorphism Q_{a,b} -> q_{a,b} into the n-family orthogonal ring."""

    def image(sym):
        if sym[0] != "Q":
            raise ValueError(f"substitute handles Q symbols only (substitute_sl2 takes C too),"
                             f" got {_letter_text(sym)}")
        return weyl_q(n, sym[1], sym[2])

    return _substitute(p, image)


def substitute_sl2(p: ClassicalPoly) -> ClassicalPoly:
    """Q_{a,b} -> adjoint quadratic, C_{klm} -> adjoint cubic."""

    def image(sym):
        if sym[0] == "Q":
            return sl2_q(*sym[1:])
        if sym[0] == "C":
            return sl2_c(*sym[1:])
        raise ValueError(f"substitute_sl2 takes Q and C symbols, got the variable"
                         f" {_letter_text(sym)}")

    return _substitute(p, image)


def sl2_relation_type1(i, j, k, l, m) -> ClassicalPoly:
    """The quadratic-cubic syzygy: alternating insertion of i into the cubic.

    q_{ij} c_{klm} - q_{kj} c_{ilm} + q_{lj} c_{ikm} - q_{mj} c_{ikl}; this is
    the pairing of the four-vector dependence identity with the j-th vector,
    and vanishes under substitution for arbitrary index tuples.
    """
    return (
        ClassicalPoly.q(i, j) * ClassicalPoly.c(k, l, m)
        - ClassicalPoly.q(k, j) * ClassicalPoly.c(i, l, m)
        + ClassicalPoly.q(l, j) * ClassicalPoly.c(i, k, m)
        - ClassicalPoly.q(m, j) * ClassicalPoly.c(i, k, l)
    )


def sl2_relation_type2(i, j, k, l, m, n) -> ClassicalPoly:
    """c_{ijk} c_{lmn} + 1/4 det of the 3x3 matrix q_{(i,j,k),(l,m,n)}."""
    det = _q_determinant((i, j, k), (l, m, n))
    return ClassicalPoly.c(i, j, k) * ClassicalPoly.c(l, m, n) + det.scale(Fraction(1, 4))


# -- polarization and invariance ---------------------------------------------------


def polarization(r: int, s: int, p: ClassicalPoly) -> ClassicalPoly:
    """The operator sum_i x_{i,r} d/dx_{i,s}, over the families appearing in p."""
    return ClassicalPoly.sum(
        ClassicalPoly.variable(i, r) * p.partial(i, s) for i in p.families()
    )


def d_ring_derivative(p: ClassicalPoly) -> ClassicalPoly:
    """The ring derivation with x_{i,j} |-> x_{i,j+1}."""
    return p.derive_variables(lambda v: ClassicalPoly.variable(v[0], v[1] + 1))


def _family_image(M):
    """(i, j) |-> sum over i2 of M[i2][i] x_{i2,j}: a matrix acting on the family index."""
    rows = range(len(M))

    def image(v):
        if isinstance(v[0], str):
            raise ValueError(f"a family matrix acts on variables x[i,j], got the symbol"
                             f" {_letter_text(v)}")
        return ClassicalPoly.sum(
            ClassicalPoly.variable(i2, v[1]).scale(M[i2][v[0]]) for i2 in rows if M[i2][v[0]]
        )

    return image


def lie_derivation(rho, p: ClassicalPoly) -> ClassicalPoly:
    """Derivation action of a Lie-algebra matrix on the family index."""
    return p.derive_variables(_family_image(rho))


def apply_finite(M, p: ClassicalPoly) -> ClassicalPoly:
    return _substitute(p, _family_image(M))


def lie_invariance_check(action: ActionSpec, p: ClassicalPoly) -> bool:
    """True iff every infinitesimal generator annihilates p and every finite
    element fixes it."""
    for rho in action.lie_generators:
        if not lie_derivation(rho, p).is_zero():
            return False
    for M in action.finite_elements:
        if apply_finite(M, p) != p:
            return False
    return True


# -- minimal generator selection for the derivation ring -----------------------------


def dring_contains(p: ClassicalPoly, generators) -> bool:
    """Whether p lies in the ring generated by the generators and their
    derivatives, decided by a graded linear solve at the weight of p."""
    w = p.poly_weight()
    if w is None:
        raise ValueError("membership test needs a weight-homogeneous polynomial")
    if p.is_zero() or w == 0:
        return True  # a unital ring contains the constants
    shifted, weights = [], []  # each generator's derivatives up to weight w
    for g in generators:
        if g.is_zero():
            continue
        gw = g.poly_weight()
        for t in range(0, w - gw + 1):
            shifted.append(g)
            weights.append(gw + t)
            g = d_ring_derivative(g)
    columns = [
        math.prod(mono, start=ClassicalPoly.constant(1)).terms
        for mono in weighted_multisets(shifted, weights, w)
        if mono
    ]
    if not columns:
        return False
    return linalg.solve(columns, p.terms) is not None


def minimal_dring_generators(candidates) -> list:
    """Greedy minimal generating subset for the derivation ring.

    Candidates are consumed in the given order (sort by (weight, degree) for
    the canonical choice); a candidate lying in the ring generated by earlier
    survivors and their derivatives is discarded.  Deterministic in the
    enumeration order.
    """
    survivors = []
    for c in candidates:
        if not dring_contains(c, survivors):
            survivors.append(c)
    return survivors
