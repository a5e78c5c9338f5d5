"""Invariant subspaces, quadratic generators, quantum corrections, remainders.

This is the machinery that turns a classical determinantal relation into an
exact normally ordered identity: choose a normal ordering, evaluate it in the
Heisenberg algebra, and descend through the filtration, re-expressing each
leading term in the quadratic generators until the total vanishes.  The
degree-one tail of the result, projected along total derivatives, carries the
remainder coefficient.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from . import classical as cl, linalg, vertexcore as vc
from .classical import ClassicalPoly, det_relation
from .errors import ALLOW_LARGE, DescentStuck, ParityError, check_budget
from .liedata import ActionSpec, LieSpec, _columns, abelian, sl2_spec
from .scalars import ONE, ZERO, LevelScalar, rational_roots, rational_to_str
from .terms import Terms, merge, sort_sign, weighted_multisets
from .vertexcore import State

NopMono = tuple  # tuple of (symbol name, derivative count), canonically sorted


def omega_symbol(a: int, b: int) -> str:
    return f"Om[{a},{b}]"


def j_symbol(m: int) -> str:
    return f"J[{m}]"


_OMEGA_RE = re.compile(r"^Om\[(\d+),(\d+)\]$")


class FormalNOP(Terms):
    """Formal normally ordered polynomial in abstract generator symbols.

    Terms map monomials -- tuples of (symbol, derivative count) -- to Q(k)
    coefficients.  Evaluation is right-nested Wick in the canonical factor
    order, derivatives applied first.
    """

    __slots__ = ()

    coerce = staticmethod(vc.coerce_scalar)

    def __init__(self, terms=None):
        self.terms = {}
        for mono, c in (terms or {}).items():
            merge(self.terms, {tuple(sorted(mono)): self.coerce(c)})

    def restrict_degree(self, dictionary, max_degree: int) -> "FormalNOP":
        return self.wrap({
            m: c
            for m, c in self.terms.items()
            if dictionary.monomial_degree(m) <= max_degree
        })

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
            if not mono:
                parts.append(f"({c})")
                continue
            body = " ".join(
                (f"D^{t} {s}" if t else s) for s, t in mono
            )
            parts.append(f"({c}) * :{body}:")
        return " + ".join(parts)

    def to_json(self):
        return [
            {"monomial": [[s, t] for s, t in mono], "coeff": c.to_json()}
            for mono, c in sorted(self.terms.items())
        ]


@dataclass
class GenEntry:
    state: State
    degree: int
    weight: int


class GeneratorDictionary:
    """Ordered map from symbol names to states with their degree and weight."""

    def __init__(self, spec: LieSpec):
        self.spec = spec
        self.entries = {}
        self._deriv_cache = {}
        #: (weight, max_degree, graded) -> (candidates, linalg.factor
        #: solver of their columns), filled by express_in_generators
        self._stages = {}
        #: filled by closed_in_gr: symbol -> whether the top of its derivative
        #: lies in the span of the tops of the next weight's class
        self._closure = {}
        #: filled by _symbol: letter (symbol, deriv) -> its leading symbol
        self._symbols = {}

    def add(self, symbol: str, state: State):
        w = vc.weight(state)
        if w is None:
            raise ValueError(f"generator {symbol} is not weight-homogeneous")
        self.entries[symbol] = GenEntry(state, vc.degree(state), w)
        # a re-added symbol's derivatives and leading symbols, every stage and
        # the closure depend on the entries
        self._deriv_cache.clear()
        self._stages.clear()
        self._closure.clear()
        self._symbols.clear()
        return self

    def __getitem__(self, symbol) -> GenEntry:
        if symbol not in self.entries:
            raise KeyError(f"unknown generator symbol {symbol!r}")
        return self.entries[symbol]

    def symbols(self):
        return list(self.entries)

    def subset(self, symbols) -> "GeneratorDictionary":
        sub = GeneratorDictionary(self.spec)
        for s in symbols:
            e = self[s]
            sub.add(s, e.state)
        return sub

    def factor_state(self, symbol: str, deriv: int) -> State:
        key = (symbol, deriv)
        hit = self._deriv_cache.get(key)
        if hit is None:
            hit = vc.nth_derivative(self.spec, self[symbol].state, deriv)
            self._deriv_cache[key] = hit
        return hit

    def monomial_degree(self, mono: NopMono) -> int:
        return sum(self[s].degree for s, t in mono)

    def _symbol(self, symbol: str, deriv: int) -> ClassicalPoly:
        """The leading symbol of the letter (symbol, deriv), 0 for a zero letter,
        built once until ``add``; a ValueError names a generator whose top is
        not constant in k."""
        key = (symbol, deriv)
        hit = self._symbols.get(key)
        if hit is None:
            state = self.factor_state(symbol, deriv)
            try:
                hit = vc.leading_symbol(state) if state else ClassicalPoly.zero()
            except ValueError as exc:
                raise ValueError(f"generator {symbol}: {exc}") from None
            self._symbols[key] = hit
        return hit

    def closed_in_gr(self, weight: int) -> bool:
        """Whether the dictionary is closed under the derivative in gr below weight.

        That is: for every generator s of weight v < weight and degree d, the
        leading symbol of ds (the derivation of gr applied to the symbol of
        s) is a linear combination of the symbols of the generators of weight
        v + 1 and degree d.  Then, by induction on t, the symbol of every
        derivative letter (s, t) of weight at most ``weight`` is a
        combination of derivative-free symbols of its weight and degree, and
        so is every product of symbols that holds such a letter.  Checked
        exactly over Q (a ValueError names a top not constant in k): one
        ``linalg.factor`` per class (weight, degree) and call, replayed once
        per symbol; the verdicts are kept until ``add``.
        """
        solvers = {}
        for sym, e in self.entries.items():
            if e.weight >= weight:
                continue
            closed = self._closure.get(sym)
            if closed is None:
                cls = (e.weight + 1, e.degree)
                solver = solvers.get(cls)
                if solver is None:
                    solver = solvers[cls] = linalg.factor([
                        self._symbol(f, 0).terms
                        for f, fe in self.entries.items() if (fe.weight, fe.degree) == cls
                    ])
                closed = self._closure[sym] = solver(self._symbol(sym, 1).terms, 0) is not None
            if not closed:
                return False
        return True


def evaluate_nop(nop: FormalNOP, dictionary: GeneratorDictionary) -> State:
    """Linear, right-nested Wick evaluation of a formal polynomial: a term
    c :f rest: is (c f) o_{-1} :rest:, all converted to one State at once."""
    spec = dictionary.spec
    pairs = []
    for mono, c in nop.terms.items():
        first, *rest = [dictionary.factor_state(s, t) for s, t in mono] or [State.vacuum()]
        pairs += vc._products(spec, first.scale(c), -1, vc.wick_chain(spec, rest))
    return vc._to_state(pairs)


# -- generator constructions -----------------------------------------------------


def _dgen(spec: LieSpec, g: int, t: int) -> State:
    """The t-th derivative of the generator X^g."""
    return vc.nth_derivative(spec, State.generator(g), t)


def omega(n: int, a: int, b: int) -> State:
    """sum_i :d^a alpha_i d^b alpha_i: over the rank-n Heisenberg algebra."""
    if not (0 <= a <= b):
        raise ValueError("need 0 <= a <= b")
    spec = abelian(n)
    return State.sum(vc.wick(spec, _dgen(spec, i, a), _dgen(spec, i, b)) for i in range(n))


def j_gen(n: int, m: int) -> State:
    """The non-derivative weight-(m+2) quadratic, defined for even m."""
    if m % 2:
        raise ParityError(f"j generators exist in even weight only, got {m}")
    return omega(n, 0, m)


def omega_dictionary(n: int, max_weight: int) -> GeneratorDictionary:
    """All Om[a,b] with a+b+2 <= max_weight over the rank-n Heisenberg algebra."""
    d = GeneratorDictionary(abelian(n))
    for wt in range(2, max_weight + 1):
        m = wt - 2
        for a in range(0, m // 2 + 1):
            d.add(omega_symbol(a, m - a), omega(n, a, m - a))
    return d


def j_dictionary(n: int, ms) -> GeneratorDictionary:
    d = GeneratorDictionary(abelian(n))
    for m in ms:
        d.add(j_symbol(m), j_gen(n, m))
    return d


def sl2_tilde_q(i: int, j: int) -> State:
    """:d^i X^h d^j X^h: + 2 :d^i X^x d^j X^y: + 2 :d^i X^y d^j X^x:."""
    spec = sl2_spec()
    x, y, h = 0, 1, 2
    return State.sum([
        vc.wick(spec, _dgen(spec, h, i), _dgen(spec, h, j)),
        vc.wick(spec, _dgen(spec, x, i), _dgen(spec, y, j)).scale(2),
        vc.wick(spec, _dgen(spec, y, i), _dgen(spec, x, j)).scale(2),
    ])


def sl2_tilde_c(k: int, l: int, m: int) -> State:
    """Alternating sum of :d^a X^x d^b X^y d^c X^h: over arrangements of (k,l,m)."""
    if not (k < l < m):
        raise ValueError("need k < l < m")
    spec = sl2_spec()
    x, y, h = 0, 1, 2
    return State.sum(
        vc.wick_chain(spec, [_dgen(spec, x, a), _dgen(spec, y, b), _dgen(spec, h, c)])
        .scale(sort_sign((a, b, c))[0])
        for a, b, c in itertools.permutations((k, l, m))
    )


# -- invariant subspaces -----------------------------------------------------------


#: most weight-w monomials invariant_subspace enumerates; abelian(4) at weight 8
#: (2,580 monomials) takes about 7 s, at weight 10 (10,108) about 100 s
INVARIANT_MAX_MONOMIALS = 3000


def _count_weight_monomials(n: int, w: int) -> int:
    """The number of weight-w monomials over n generators: the q^w
    coefficient of prod_{d >= 1} (1 - q^d)^(-n)."""
    counts = [1] + [0] * w
    for depth in range(1, w + 1):
        for _ in range(n):
            for j in range(depth, w + 1):
                counts[j] += counts[j - depth]
    return counts[w]


def _weight_monomials(n: int, w: int):
    """All canonical monomials of weight w, in increasing key order."""
    letters = sorted(itertools.product(range(n), range(1, w + 1)), key=vc.factor_key)
    return sorted(weighted_multisets(letters, [d for _, d in letters], w))


def invariant_subspace(spec: LieSpec, action: ActionSpec, w: int):
    """Deterministic basis of the weight-w invariants, as states over Q(k).

    Computed as the joint kernel of the infinitesimal generators intersected
    with the fixed spaces of the finite elements; all coefficients are
    level-independent rationals.  Raises ResourceError, before enumerating
    anything, when there are more than INVARIANT_MAX_MONOMIALS monomials of
    weight w.
    """
    if w < 0:
        raise ValueError("weight must be nonnegative")
    check_budget(f"weight-{w} monomials", _count_weight_monomials(spec.dim, w),
                 INVARIANT_MAX_MONOMIALS)
    basis = _weight_monomials(spec.dim, w)
    acts = [(_columns(rho, spec.dim), True) for rho in action.lie_generators]
    acts += [(_columns(M, spec.dim), False) for M in action.finite_elements]
    columns = [{} for _ in basis]  # keyed by (action index, monomial); every p is 0
    for mono, col in zip(basis, columns):
        for a, (images, derivation) in enumerate(acts):
            for (out, _), c in vc._act_mono(spec, images, derivation, mono).items():
                col[a, out] = c
            if not derivation:  # a finite element M: the image under M - 1
                col[a, mono] = col.get((a, mono), 0) - 1
    vecs = linalg.kernel_basis(columns, len(basis), Fraction(0), Fraction(1))
    return [State.wrap({basis[i]: vc.coerce_scalar(c) for i, c in enumerate(v) if c}) for v in vecs]


# -- expressing states in generators ------------------------------------------------


def enumerate_nop_monomials(dictionary: GeneratorDictionary, weight: int, max_degree: int,
                            derivatives: bool = True):
    """All canonical NOP monomials of the given weight and bounded degree.

    Without ``derivatives`` only the letters (symbol, 0) are used.
    """
    letters = sorted(
        (sym, t)
        for sym in dictionary.symbols()
        for t in range(0, weight - dictionary[sym].weight + 1)
        if derivatives or t == 0
    )
    monos = weighted_multisets(
        letters,
        [dictionary[s].weight + t for s, t in letters],
        weight,
        [dictionary[s].degree for s, _ in letters],
        max_degree,
    )
    return sorted((m for m in monos if m), key=lambda m: (dictionary.monomial_degree(m), m))


def express_in_generators(target: State, dictionary: GeneratorDictionary,
                          max_degree: int, graded: bool = False):
    """Solve target = normally ordered polynomial in the dictionary, or None.

    The linear system is solved exactly with deterministic pivoting; free
    coefficients are set to zero.  A ``graded`` stage matches only the
    degree-max_degree component of each evaluation against a target of
    exactly that degree (the descent step of the quantum-correction
    algorithm); a target monomial of another length raises ``ValueError``
    naming the lengths.  Such a stage is built in gr, the ``ClassicalPoly``
    ring: a column is the product of its letters' leading symbols, over Q,
    and the target's monomials become their ``vertexcore.symbol_key``, so no
    candidate is Wick-evaluated; every letter's top must be constant in k
    (a ValueError names the generator).  When the dictionary is
    ``closed_in_gr`` up to the target's weight, the derivative letters add
    columns but nothing to their span, so such a stage takes
    derivative-free candidates only; otherwise it takes them all.

    The system's matrix depends only on (weight, max_degree, graded), so the
    dictionary keeps each such stage: its candidate monomials and a
    ``linalg.factor`` solver of their columns.  The first call of a stage
    builds the columns and eliminates; a later call only replays the
    elimination on its target.  Adding a generator empties the stages.
    """
    w = vc.weight(target)
    if w is None:
        raise ValueError("target must be weight-homogeneous")
    if target.is_zero():
        return FormalNOP.zero()
    if graded:
        lengths = {len(mono) for mono in target.terms}
        if lengths != {max_degree}:
            raise ValueError(f"a graded stage of degree {max_degree} got target monomials"
                             f" of lengths {sorted(lengths)}")
    key = (w, max_degree, graded)
    stage = dictionary._stages.get(key)
    if stage is None:
        if graded:
            derivatives = not dictionary.closed_in_gr(w)
            candidates = [
                m for m in enumerate_nop_monomials(dictionary, w, max_degree, derivatives)
                if dictionary.monomial_degree(m) == max_degree
            ]
            columns = [math.prod(dictionary._symbol(*letter) for letter in mono).terms
                       for mono in candidates]
        else:
            candidates = enumerate_nop_monomials(dictionary, w, max_degree)
            columns = [evaluate_nop(FormalNOP({mono: ONE}), dictionary).terms
                       for mono in candidates]
        stage = dictionary._stages[key] = (candidates, linalg.factor(columns))
    candidates, solver = stage
    rhs = target.terms
    if graded:
        rhs = {vc.symbol_key(mono): c for mono, c in rhs.items()}
    sol = solver(rhs, ZERO)
    if sol is None:
        return None
    return FormalNOP({candidates[i]: c for i, c in enumerate(sol) if c})


# -- quantum corrections and remainders ----------------------------------------------


def _symbol_name(sym) -> str:
    if sym[0] == "Q":
        return omega_symbol(sym[1], sym[2])
    return f"Ct[{sym[1]},{sym[2]},{sym[3]}]"


def normal_ordering(rel: ClassicalPoly) -> FormalNOP:
    """The canonical normal ordering: each symbol monomial becomes a Wick monomial."""
    return FormalNOP({tuple((_symbol_name(sym), 0) for sym in cl.letters(key)): c
                      for key, c in rel.terms.items()})


def quantum_correction(rel: ClassicalPoly, dictionary: GeneratorDictionary) -> FormalNOP:
    """Extend a vanishing classical relation to an exactly vanishing NOP.

    Starting from a normal ordering of rel, repeatedly express the top
    filtration degree of the evaluation in the generators and subtract, until
    the evaluation is exactly zero.  Raises DescentStuck if some stage cannot
    be expressed.
    """
    top = normal_ordering(rel)
    residual = evaluate_nop(top, dictionary)
    result = top
    last_degree = None
    while not residual.is_zero():
        d = vc.degree(residual)
        if d % 2 or (last_degree is not None and d >= last_degree) or d == 0:
            raise DescentStuck(d)
        last_degree = d
        piece = residual.degree_component(d)
        correction = express_in_generators(piece, dictionary, d, graded=True)
        if correction is None:
            raise DescentStuck(d)
        result = result - correction
        residual = residual - evaluate_nop(correction, dictionary)
    return result


#: rank n -> omega_dictionary(n, REMAINDER_MAX_M + 2), shared by every
#: remainder_direct call of that rank so that each generator derivative and
#: each descent stage is computed once; a call with a larger m (by
#: ``allow_large``) rebuilds it once to weight m + 2.  Generators heavier
#: than a call's weight give its candidates no letters, and stage keys start
#: with the weight, so calls of different m neither see nor disturb each
#: other's stages
_OMEGA_CACHE = {}


def pr_coefficient(nop: FormalNOP, m: int) -> LevelScalar:
    """Coefficient of J^m after projecting the degree-<=2 part along derivatives.

    Total-derivative factors project to zero; a bare Om[a,b] factor requires
    a + b = m and projects to (-1)^a J^m (m is even, so (-1)^a = (-1)^b).
    Proof: phi(Om[a,b]) = (-1)^a gives phi(dOm[a,b]) = (-1)^(a+1) + (-1)^a = 0,
    so phi kills derivatives, and phi(J^m) = phi(Om[0,m]) = 1.
    """
    if m % 2:
        raise ParityError(f"projection defined for even weight index, got m={m}")
    total = ZERO
    for mono, c in nop.terms.items():
        if len(mono) != 1:
            raise ValueError("pr expects a degree-<=2 formal polynomial (single factors)")
        (sym, t) = mono[0]
        if t >= 1:
            continue  # image of the derivative projects to zero
        mt = _OMEGA_RE.match(sym)
        if not mt:
            raise ValueError(f"pr expects Om[a,b] symbols, got {sym!r}")
        a, b = int(mt.group(1)), int(mt.group(2))
        if a + b != m:
            raise ValueError(f"symbol {sym} has weight index {a + b}, expected {m}")
        total = total + (-c if a % 2 else c)
    return total


#: hard cap on the weight index m for direct remainder computations
REMAINDER_MAX_M = 18


def remainder_direct(n: int, I, J, allow_large: bool = False) -> Fraction:
    """The remainder coefficient computed from scratch in the Heisenberg algebra.

    Builds the determinant relation, lifts it by quantum corrections, extracts
    the degree-one tail, projects along total derivatives, and specializes the
    level to 1.  A weight index m beyond ``REMAINDER_MAX_M`` raises
    ``ResourceError`` unless ``allow_large``.
    """
    I, J = tuple(I), tuple(J)
    rel = det_relation(n, I, J)  # validates shape and monotonicity
    m = sum(I) + sum(J) + 2 * n
    if m % 2:
        raise ParityError(f"|I|+|J|+2n = {m} is odd; the remainder needs even weight index")
    check_budget("weight index m", m, REMAINDER_MAX_M, ALLOW_LARGE, allow_large)
    dictionary = _OMEGA_CACHE.get(n)
    if dictionary is None or omega_symbol(0, m) not in dictionary.entries:
        dictionary = _OMEGA_CACHE[n] = omega_dictionary(n, max(m, REMAINDER_MAX_M) + 2)
    lifted = quantum_correction(rel, dictionary)
    tail = lifted.restrict_degree(dictionary, 2)
    coeff = pr_coefficient(tail, m)
    return coeff.evaluate_at(1)


# -- decoupling relations --------------------------------------------------------------


@dataclass
class DecoupleResult:
    relation: FormalNOP
    excluded_levels: list

    def to_json(self):
        return {
            "relation": self.relation.to_json(),
            "excluded_levels": [rational_to_str(q) for q in self.excluded_levels],
        }


def _check_invariant(spec, action, state, what):
    for rho in action.lie_generators:
        if not vc.lie_act(spec, rho, state).is_zero():
            raise ValueError(f"{what} is not invariant under the infinitesimal action")
    for M in action.finite_elements:
        if vc.apply_group_element(spec, M, state) != state:
            raise ValueError(f"{what} is not fixed by a finite group element")


def decouple(spec: LieSpec, action: ActionSpec, dictionary: GeneratorDictionary,
             target: State, max_degree: int = 6):
    """Express the target in the sub-dictionary, reporting excluded levels.

    Returns a DecoupleResult, or None when no relation exists within the
    bounds.  Excluded levels are the rational roots of the denominators of
    the relation's coefficients.
    """
    _check_invariant(spec, action, target, "target")
    for sym in dictionary.symbols():
        _check_invariant(spec, action, dictionary[sym].state, f"generator {sym}")
    rel = express_in_generators(target, dictionary, max_degree)
    if rel is None:
        return None
    levels = set()
    for c in rel.terms.values():
        levels.update(rational_roots(c.den))
    return DecoupleResult(rel, sorted(levels))
