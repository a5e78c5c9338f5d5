"""The vertex-algebra engine for universal affine and Heisenberg algebras.

States live in the level-k vacuum module and are finite linear combinations
of canonically ordered monomials

    X^{i_1}(-m_1) ... X^{i_r}(-m_r) |0>,   m_1 >= m_2 >= ... >= 1,

with ties in mode depth broken by ascending generator index, over Q(k).
The level k is always formal; kappa acts as multiplication by k.

Mode conventions: a field a(z) = sum a(n) z^{-n-1}; the n-th circle product
a o_n b is a(n)b under the state-field correspondence.  The n-th mode of
(1/m!) d^m X^i(z) is (-1)^m binom(n, m) X^i(n-m), which drives the circle
product recursion on the leftmost factor of a.  Translation is a circle
product too: by the creation property Y(a, z)|0> = e^{zD} a, a o_n |0> is a
for n = -1 and 0 for n >= 0, and D^k a = k! a o_{-k-1} |0>.

For an abelian spec (a free field: the Heisenberg algebra) a o_n b has a
closed form by Wick's theorem (Bais, Bouwknegt, Surridge and Schoutens,
Nucl. Phys. B 304 (1988) 348; Kac, *Vertex Algebras for Beginners*).  For
monomials a and b it is a sum over the partial matchings of a's factors into
b's factors.  A contracted pair, a's X^i(-d) with b's X^j(-e), contributes
(-1)^(d-1) binom(e+d-1, d-1) e k B(i, j), and b loses that factor.  Each
free factor X^i(-d) of a becomes a creation factor X^i(-q), q >= d, with
weight binom(q-1, d-1), and the free q's exceed their d's by
-n-1 + sum over the contracted pairs of (d+e) in total, so a matching with
a negative excess contributes nothing.  Every term is a product of
binomials and entries of B times k^c for c contractions.  Whether a spec
takes this path is decided once, by ``LieSpec.free_field``, which is
``LieSpec.form`` for an abelian spec.

The OPE coefficients of V_k(g, B) are polynomials in k with the structure
constants, B and binomials as coefficients, so the engine computes inside
with integer maps {(monomial, p): c}, meaning sum c k^p monomial, where c is
an int, or a Fraction only for a spec whose structure constants or form are
not integral (``LieSpec.brackets`` and ``LieSpec.form`` hold them so).  The
cached mode actions and monomial products are such maps, and so are the
images of ``_act_mono``, the one walk behind ``lie_act`` and
``apply_group_element``, which ``orbifold.invariant_subspace`` reads as they
are.  States keep ``LevelScalar`` coefficients, and each public entry point
(``circle_product``, and through it ``derivative``; ``mode_action``,
``lie_act``, ``apply_group_element``; ``orbifold.evaluate_nop``, over the
products of all its terms) converts once per call: its (state
coefficient, integer map) pairs are grouped by the coefficient's denominator
polynomial, summed in integers over one common integer denominator per
group, and each output monomial's scalar is built once (common denominators:
von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 5-6).

Leading symbols use the normalization x_{i,j} <-> (1/j!) d^j X^i, i.e. the
monomial factor at mode depth j+1 maps to the variable x_{i,j} with no extra
scalar.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from math import lcm

from . import linalg
from .classical import ClassicalPoly, monomial_key
from .liedata import LieSpec, _columns
from .scalars import (
    K, ONE, ZERO, LevelPolynomial, LevelScalar, _mkpoly, _mkscalar, _P_ONE, _rational,
)
from .terms import Terms, merge

Mono = tuple  # tuple of (generator index, mode depth >= 1) pairs


def coerce_scalar(c) -> LevelScalar:
    if isinstance(c, LevelScalar):
        return c
    if isinstance(c, int):
        return _int_scalar(c)
    return LevelScalar.from_fraction(c)


@functools.lru_cache(maxsize=None)
def _int_scalar(c: int) -> LevelScalar:
    return LevelScalar.from_fraction(c)


def mono_weight(mono: Mono) -> int:
    return sum(d for _, d in mono)


def factor_key(factor) -> tuple:
    """Sort key of a monomial factor (gen, depth): depth descending, gen ascending."""
    return -factor[1], factor[0]


class State(Terms):
    """A vertex-algebra element: finite map from PBW monomials to Q(k).

    Treated as immutable; all operations return fresh states.
    """

    __slots__ = ()

    coerce = staticmethod(coerce_scalar)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def vacuum(coeff=1) -> "State":
        return State({(): coeff})

    @staticmethod
    def generator(i: int) -> "State":
        return State({((i, 1),): 1})

    def coefficient(self, mono: Mono) -> LevelScalar:
        return self.terms.get(mono, ZERO)

    # -- gradings -------------------------------------------------------------

    def max_weight(self) -> int:
        return max((mono_weight(m) for m in self.terms), default=0)

    def degree_component(self, d: int) -> "State":
        return State({m: c for m, c in self.terms.items() if len(m) == d})

    def __repr__(self):
        if not self.terms:
            return "State(0)"
        parts = [f"{c}*{m}" for m, c in sorted(self.terms.items())]
        return "State(" + " + ".join(parts) + ")"


def weight(a: State):
    """Common weight of all terms; 0 for the zero state, None when mixed."""
    ws = {mono_weight(m) for m in a.terms}
    if not ws:
        return 0
    if len(ws) == 1:
        return ws.pop()
    return None


def degree(a: State) -> int:
    """Filtration degree: the maximal monomial length."""
    return max((len(m) for m in a.terms), default=0)


# -- cached mode actions and products -----------------------------------------
#
# The engine's values are integer maps {(mono, p): c}, meaning sum c k^p mono
# (module docstring): _mode_mono, _cp_pair, _cp_free and _cp_mono return them,
# _act_mono, the one walk behind lie_act and apply_group_element, builds them,
# and _to_state, the one conversion to LevelScalars, turns a public call's
# (state coefficient, integer map) pairs into a State once per call.  Callers
# only read the cached maps.
#
# _mode_mono and _cp_pair are unbounded lru_caches keyed by the spec, ints and
# monomial tuples, never a State (State is unhashable), so they grow with the
# monomial basis met, not with the number of states seen.  LieSpec hashes by
# identity (eq=False), so each spec object gets its own entries, and the
# caches hold every spec they have seen until voa.clear_caches().  On a miss
# for an abelian spec (spec.free_field is not None) _cp_pair returns Wick's
# closed form, _cp_free, which makes no sub-products, so only the pairs asked
# for are cached; every other spec takes the recursion on a's leftmost factor,
# which caches its sub-products too.  _cp_mono answers the vacuum on either
# side before the cache: |0> o_n b, and a o_n |0> for n >= -1 (the creation
# property); without the latter, a derivative's recursion cached u o_p |0>
# for every p and every right factor u of a.  _mode_mono caches its trivial
# cases (a mode on the vacuum, a creation mode already in front of the
# monomial): answered before the cache, each call built a fresh prepended
# tuple that the cached products no longer shared, and the engine
# benchmark's peak RSS rose by 7 %.


def _imerge(acc: dict, terms: dict, c, p: int = 0):
    """acc += c k^p terms over integer maps; drops cancellations."""
    for key, v in terms.items():
        if p:
            key = key[0], key[1] + p
        s = acc.get(key, 0) + v * c
        if s:
            acc[key] = s
        else:
            acc.pop(key, None)


def _to_state(pairs: list) -> State:
    """sum c * terms over (LevelScalar c, integer map terms) pairs, as a State.

    A lone pair is scaled by its numerator as integers (a numerator 1 passes
    its map through unscaled).  Otherwise the pairs are grouped by the
    denominator polynomial of c, by identity for the common denominator 1;
    within a group every numerator is brought to the lcm of the group's
    integer denominators and summed into one integer map.  Each map's
    monomials get one LevelScalar each, and the groups' scalars are added.
    """
    if len(pairs) == 1:
        c, terms = pairs[0]
        return State.wrap(_scalars(_scaled(terms, c.num.ints), c.num.den, c.den))
    groups = {}
    for c, terms in pairs:
        if terms:
            groups.setdefault(None if c.den is _P_ONE else c.den, []).append((c.num, terms))
    out = {}
    for den, group in groups.items():
        lcd = lcm(*[num.den for num, _ in group])
        acc = {}
        for num, terms in group:
            s = lcd // num.den
            for p, x in enumerate(num.ints):
                if x:
                    _imerge(acc, terms, x * s, p)
        built = _scalars(acc, lcd, _P_ONE if den is None else den)
        if out:
            merge(out, built)
        else:
            out = built
    return State.wrap(out)


def _scaled(terms: dict, ints) -> dict:
    """(sum ints[p] k^p) terms as an integer map; terms itself when that is 1."""
    if len(ints) == 1:
        x = ints[0]
        return terms if x == 1 else {key: v * x for key, v in terms.items()}
    acc = {}
    for p, x in enumerate(ints):
        if x:
            _imerge(acc, terms, x, p)
    return acc


def _scalars(acc: dict, lcd: int, den) -> dict:
    """{monomial: LevelScalar} of the integer map acc over the integer lcd and
    the denominator polynomial den."""
    if lcd == 1 and den is _P_ONE:
        # the common case, integers free of k: the cached small scalars
        out = {}
        for (mono, p), v in acc.items():
            if p or type(v) is not int:
                break
            out[mono] = _int_scalar(v)
        else:
            return out
    polys = {}  # monomial -> its coefficients of k^0, k^1, ...
    for (mono, p), v in acc.items():
        cs = polys.get(mono)
        if cs is None:
            polys[mono] = [v] if p == 0 else [0] * p + [v]
        else:
            if len(cs) <= p:
                cs += [0] * (p + 1 - len(cs))
            cs[p] = v
    # Fractions come only from non-integral spec or matrix entries
    rational = Fraction in set(map(type, acc.values()))
    for mono, cs in polys.items():
        if rational:
            poly = LevelPolynomial([Fraction(c) / lcd for c in cs])
        else:
            poly = _mkpoly(cs, lcd)
        polys[mono] = _mkscalar(poly, _P_ONE) if den is _P_ONE else LevelScalar(poly, den)
    return polys


@functools.lru_cache(maxsize=None)
def _mode_mono(spec: LieSpec, i: int, n: int, mono: Mono) -> dict:
    """X^i(n), of either sign, applied to a sorted monomial by the relation

    [X^i(n), X^j(-d)] = X^[i,j](n-d) + n delta_{n,d} k B(i,j), whose central
    term never fires for a creation mode (n < 0).  It is the engine's only
    rewriting rule: products, derivatives and group actions all reduce to it.
    The result is an integer map.
    """
    if not mono or n < 0 and factor_key((i, -n)) <= factor_key(mono[0]):
        return {(((i, -n),) + mono, 0): 1} if n < 0 else {}
    (j, d), rest = mono[0], mono[1:]
    # commute past the first factor, then bracket and central corrections
    acc = {}
    for (m2, p2), c2 in _mode_mono(spec, i, n, rest).items():
        _imerge(acc, _mode_mono(spec, j, -d, m2), c2, p2)
    for l, cl in spec.brackets[i][j]:
        _imerge(acc, _mode_mono(spec, l, n - d, rest), cl)
    if n == d and spec.form[i][j]:
        _imerge(acc, {(rest, 1): n * spec.form[i][j]}, 1)
    return acc


def mode_action(spec: LieSpec, i: int, n: int, v: State) -> State:
    """The action of X^{xi_i}(n) on a state of the level-k vacuum module."""
    return _to_state([(c, _mode_mono(spec, i, n, mono)) for mono, c in v.terms.items()])


def _binom_int(j: int, m: int) -> int:
    """binom(j, m) for any integer j and m >= 0."""
    return math.comb(j, m) if j >= 0 else (-1) ** m * math.comb(m - j - 1, m)


def _cp_mono(spec: LieSpec, amono: Mono, n: int, bmono: Mono) -> dict:
    if not amono:
        return {(bmono, 0): 1} if n == -1 else {}
    if not bmono and n >= -1:  # the creation property
        return {(amono, 0): 1} if n == -1 else {}
    return _cp_pair(spec, amono, n, bmono)


@functools.lru_cache(maxsize=None)
def _cp_pair(spec: LieSpec, amono: Mono, n: int, bmono: Mono) -> dict:
    form = spec.free_field
    if form is not None:
        return _cp_free(form, amono, n, bmono)
    (i, d), u = amono[0], amono[1:]
    m = d - 1
    wu = mono_weight(u)
    wb = mono_weight(bmono)
    sign = -1 if m % 2 else 1
    acc = {}
    # creation-side sum: j = n-1-p <= -1 runs over p with u o_p b nonzero
    for p in range(n, wu + wb):
        inner = _cp_mono(spec, u, p, bmono)
        if not inner:
            continue
        j = n - 1 - p
        coef = sign * _binom_int(j, m)
        for (m2, q), c2 in inner.items():
            _imerge(acc, _mode_mono(spec, i, j - m, m2), c2 * coef, q)
    # annihilation-side sum: X^i(j-m) hits b first, then u acts per monomial
    for j in range(m, m + wb + 1):
        coef = sign * _binom_int(j, m)
        for (bm, q), cb in _mode_mono(spec, i, j - m, bmono).items():
            _imerge(acc, _cp_mono(spec, u, n - j - 1, bm), cb * coef, q)
    return acc


# the lru_caches that voa.cache_stats() counts and voa.clear_caches() empties
_LRU_CACHES = (_int_scalar, _mode_mono, _cp_pair)


def _cp_free(form, amono: Mono, n: int, bmono: Mono) -> dict:
    """amono o_n bmono for an abelian spec with form B by Wick's theorem
    (module docstring).

    b's factors are matched by distinct factor, weighted by multiplicity.
    """
    left = {}  # b's unmatched factors and their multiplicities
    for f in bmono:
        left[f] = left.get(f, 0) + 1
    top = min(len(amono), len(bmono))  # the most contractions a term can have
    acc = {}  # monomial -> coefficient of k^c at index c
    unmatched = []  # a's free factors

    def spread(t, excess, coef, c, factors):
        # give the free factors t, t+1, ... their q's, the last one the rest
        if t == len(unmatched):
            mono = tuple(sorted(factors, key=factor_key))
            coefs = acc.get(mono)
            if coefs is None:
                coefs = acc[mono] = [0] * (top + 1)
            coefs[c] += coef
            return
        i, d = unmatched[t]
        for x in range(excess + 1) if t + 1 < len(unmatched) else (excess,):
            q = d + x
            spread(t + 1, excess - x, coef * math.comb(q - 1, d - 1), c, factors + [(i, q)])

    def match(r, coef, c, excess):
        if r == len(amono):
            if excess == 0 or (excess > 0 and unmatched):
                spread(0, excess, coef, c, [f for f, m in left.items() for _ in range(m)])
            return
        i, d = amono[r]
        unmatched.append((i, d))
        match(r + 1, coef, c, excess)
        unmatched.pop()
        row = form[i]
        signed = coef if d % 2 else -coef
        for (j, e), mult in left.items():
            if mult and row[j]:
                left[j, e] = mult - 1
                w = signed * mult * math.comb(e + d - 1, d - 1) * e * row[j]
                match(r + 1, w, c + 1, excess + d + e)
                left[j, e] = mult

    match(0, 1, 0, -n - 1)
    return {(mono, c): v for mono, coefs in acc.items() for c, v in enumerate(coefs) if v}


def _products(spec: LieSpec, a: State, n: int, b: State) -> list:
    """a o_n b as (coefficient, integer map) pairs, for ``_to_state``."""
    pairs = []
    for amono, ca in a.terms.items():
        for bmono, cb in b.terms.items():
            terms = _cp_mono(spec, amono, n, bmono)
            if terms:
                pairs.append((ca * cb, terms))
    return pairs


def circle_product(spec: LieSpec, a: State, n: int, b: State) -> State:
    """The n-th circle product a o_n b, exact over Q(k): a sum over pairs of
    monomials, whose products are cached per spec as integer maps."""
    return _to_state(_products(spec, a, n, b))


def wick(spec: LieSpec, a: State, b: State) -> State:
    """The Wick product :ab: = a o_{-1} b."""
    return circle_product(spec, a, -1, b)


def wick_chain(spec: LieSpec, states) -> State:
    """Right-nested iterated Wick product :a_1 (a_2 (... a_r)):."""
    states = list(states)
    if not states:
        return State.vacuum()
    out = states[-1]
    for s in reversed(states[:-1]):
        out = wick(spec, s, out)
    return out


def derivative(spec: LieSpec, a: State) -> State:
    """Translation derivative D a = a o_{-2} |0>, by the creation property
    Y(a, z)|0> = e^{zD} a."""
    return circle_product(spec, a, -2, State.vacuum())


def nth_derivative(spec: LieSpec, a: State, k: int) -> State:
    """D^k a = k! a o_{-k-1} |0>."""
    return circle_product(spec, a, -k - 1, State.vacuum(math.factorial(k)))


def ope(spec: LieSpec, a: State, b: State):
    """All singular terms: the list of (n, a o_n b) with n >= 0, descending."""
    bound = a.max_weight() + b.max_weight()
    out = []
    for n in range(bound - 1, -1, -1):
        s = circle_product(spec, a, n, b)
        if not s.is_zero():
            out.append((n, s))
    return out


def symbol_key(mono: Mono) -> int:
    """The ``ClassicalPoly`` key of a monomial, X^i(-d) -> x_{i,d-1}; one-to-one."""
    return monomial_key((g, depth - 1) for g, depth in mono)


def leading_symbol(a: State):
    """Project the top-degree part of a to its classical polynomial.

    The coefficient of each top-degree monomial must be constant in k.
    """
    if a.is_zero():
        raise ValueError("leading_symbol of the zero state is undefined")
    d = degree(a)
    return ClassicalPoly({
        symbol_key(mono): c.as_fraction() for mono, c in a.terms.items() if len(mono) == d
    })


def sugawara(spec: LieSpec, h_dual) -> State:
    """The canonical Virasoro vector at non-critical level.

    Written over a basis and its B-dual basis, so an orthonormal basis is not
    required; coefficients carry the denominator (k + h_dual).
    """
    h_dual = _rational(h_dual)
    # dual i is column i of the inverse form: the solution of B x = e_i
    apply = linalg.factor([dict(enumerate(col)) for col in zip(*spec.form)])
    inverse_columns = [apply({i: Fraction(1)}) for i in range(spec.dim)]
    if None in inverse_columns:
        raise ValueError("bilinear form is not invertible; no Sugawara vector")
    pref = ONE / ((K + LevelScalar.from_fraction(h_dual)).scale(2))
    duals = [State({((j, 1),): c for j, c in col.items()}) for col in inverse_columns]
    total = State.sum(wick(spec, State.generator(i), dual) for i, dual in enumerate(duals))
    return total.scale(pref)


def _act_mono(spec: LieSpec, images, derivation: bool, mono: Mono) -> dict:
    """The integer map of a sorted monomial's image under X^g(-d) -> sum_j c_j
    X^j(-d) over the (j, c_j) of images[g], walked from the right and extended
    as a derivation (lie_act) or an automorphism (apply_group_element).
    Creation modes carry no central term, so every p is 0."""
    out = {} if derivation else {((), 0): 1}
    for t, (g, d) in reversed(tuple(enumerate(mono))):
        new = {}
        src = {(mono[t + 1:], 0): 1} if derivation else out  # what X^g(-d)'s image acts on
        for j, cj in images[g]:
            for (m2, q), c2 in src.items():
                _imerge(new, _mode_mono(spec, j, -d, m2), c2 * cj, q)
        if derivation:  # then X^g(-d) on the image of rest
            for (m2, q), c2 in out.items():
                _imerge(new, _mode_mono(spec, g, -d, m2), c2, q)
        out = new
    return out


def apply_group_element(spec: LieSpec, M, a: State) -> State:
    """An automorphism maps a product of modes to the product of their images:
    X^g(-d) goes to sum_j M[j][g] X^j(-d), applied to each monomial from the right.
    """
    images = _columns(M, spec.dim)
    return _to_state([(c, _act_mono(spec, images, False, mono)) for mono, c in a.terms.items()])


def lie_act(spec: LieSpec, rho, a: State) -> State:
    """Infinitesimal action: X^g(-d) goes to sum_j rho[j][g] X^j(-d), as a derivation.

    Each monomial is walked from the right by
    rho(X^g(-d) rest) = rho(X^g(-d)) rest + X^g(-d) rho(rest), as an integer map.
    """
    images = _columns(rho, spec.dim)
    return _to_state([(c, _act_mono(spec, images, True, mono)) for mono, c in a.terms.items()])


# -- rendering and serialization ----------------------------------------------


def mono_text(spec: LieSpec, mono: Mono) -> str:
    if not mono:
        return "1"
    return " ".join(f"{spec.labels[g]}(-{d})" for g, d in mono)


def state_text(spec: LieSpec, a: State) -> str:
    if a.is_zero():
        return "0"
    parts = []
    for mono, c in sorted(a.terms.items()):
        cs = str(c)
        if not mono:
            parts.append(cs if " " not in cs else f"({cs})")
        elif c == ONE:
            parts.append(mono_text(spec, mono))
        else:
            parts.append(f"({cs}) {mono_text(spec, mono)}")
    return " + ".join(parts)


def ope_text(spec: LieSpec, a_name: str, b_name: str, pairs) -> str:
    lhs = f"{a_name}(z) {b_name}(w)"
    if not pairs:
        return f"{lhs} ~ regular"
    body = " + ".join(f"{state_text(spec, s)} (z-w)^-{n+1}" for n, s in pairs)
    return f"{lhs} ~ {body}"


def state_to_json(spec: LieSpec, a: State) -> dict:
    return {
        "algebra": spec.name,
        "terms": [
            {"monomial": [[g, d] for g, d in mono], "coeff": c.to_json()}
            for mono, c in sorted(a.terms.items())
        ],
    }
