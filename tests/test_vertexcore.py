import math
import random
from fractions import Fraction

import pytest
from dense_reference import structure

from voa import classical, liedata, orbifold
from voa import vertexcore as vc
from voa.classical import ClassicalPoly, letters
from voa.scalars import K, ONE, LevelScalar
from voa.vertexcore import State

SL2 = liedata.sl2_spec()
H1 = liedata.abelian(1)
H2 = liedata.abelian(2)
H3 = liedata.abelian(3)
X, Y, H = 0, 1, 2

# an abelian spec whose form has rational and off-diagonal entries
RATIONAL_FORM, _ = liedata.parse_config(
    "[algebra]\ndim = 2\nlabels = p q\n[form]\n0 0 = -1/3\n0 1 = 3/2\n", name="rational"
)

# sl2 in the basis x, y, t = h/3: a nonabelian spec whose structure constants
# and form are not integral, so its engine caches hold Fractions
SL2_THIRD = liedata.build_spec(
    3,
    ["x", "y", "t"],
    {(X, Y, 2): 3, (2, X, X): Fraction(2, 3), (2, Y, Y): Fraction(-2, 3)},
    {(X, Y): 1, (2, 2): Fraction(2, 9)},
    name="sl2-third",
)


def st(mono, c=1):
    return State({mono: c})


# -- mode actions ---------------------------------------------------------------


def test_mode_action_examples():
    Xy = State.generator(Y)
    assert vc.mode_action(SL2, X, 0, Xy) == State.generator(H)
    assert vc.mode_action(SL2, X, 1, Xy) == State.vacuum(K)
    assert vc.mode_action(H1, 0, 2, st(((0, 1), (0, 1)))).is_zero()


def test_mode_action_creation_reorders():
    # alpha(-1) applied after alpha(-2) must sort to depth-descending order
    got = vc.mode_action(H1, 0, -1, st(((0, 2),)))
    assert got == st(((0, 2), (0, 1)))
    got = vc.mode_action(SL2, Y, -1, State.generator(X))
    # X^y(-1) X^x(-1)|0> = X^x(-1)X^y(-1)|0> + X^[y,x](-2)|0>
    assert got == st(((X, 1), (Y, 1))) + st(((H, 2),), -1)


def _reference_canonicalize_word(spec, word):
    """A word sorted by adjacent swaps with the bracket correction

    X^i(-a) X^j(-b) = X^j(-b) X^i(-a) + X^[i,j](-a-b); no central terms arise
    since a+b > 0.  Memoized per call on words; _word_state instead applies
    the word's modes to the vacuum through the engine's mode action.
    """
    c = structure(spec)
    memo = {}

    def canon(word):
        if word in memo:
            return memo[word]
        out = st(word)
        for t in range(len(word) - 1):
            g1, d1 = word[t]
            g2, d2 = word[t + 1]
            if (d1 < d2) or (d1 == d2 and g1 > g2):
                out = canon(word[:t] + ((g2, d2), (g1, d1)) + word[t + 2:])
                for l, cl in enumerate(c[g1][g2]):
                    if cl:
                        out = out + canon(word[:t] + ((l, d1 + d2),) + word[t + 2:]).scale(cl)
                break
        memo[word] = out
        return out

    return canon(word)


def _word_state(spec, word):
    """The word X^{i_1}(-m_1) ... X^{i_r}(-m_r)|0>: its creation modes applied
    to the vacuum from right to left."""
    out = State.vacuum()
    for g, d in reversed(word):
        out = vc.mode_action(spec, g, -d, out)
    return out


@pytest.mark.parametrize("spec", [H2, SL2], ids=["heisenberg2", "sl2"])
def test_canonicalize_word_matches_adjacent_swaps(spec):
    rng = random.Random(11)
    for _ in range(60):
        word = tuple((rng.randrange(spec.dim), rng.randint(1, 4))
                     for _ in range(rng.randint(0, 6)))
        assert _word_state(spec, word) == _reference_canonicalize_word(spec, word)


def test_canonicalize_long_sl2_words_match_adjacent_swaps():
    rng = random.Random(13)
    words = [tuple((rng.randrange(3), rng.randint(1, 3)) for _ in range(rng.randint(7, 8)))
             for _ in range(20)]
    # every pair of the first six factors is out of order
    words.append(((H, 1), (Y, 1), (X, 1), (H, 2), (Y, 2), (X, 2), (Y, 1), (X, 1)))
    for word in words:
        assert _word_state(SL2, word) == _reference_canonicalize_word(SL2, word)


def test_canonicalize_reversed_long_words():
    # the stack depth must not grow with the word's inversion count
    for length in (33, 300):
        word = tuple((0, d) for d in range(1, length + 1))
        assert _word_state(H1, word) == st(word[::-1])


# -- derivations and group actions against word expansions ----------------------


def _reference_derivative(spec, a):
    """Raise one factor's mode depth at a time, then sort the word."""
    out = State.zero()
    for mono, c in a.terms.items():
        for t, (g, d) in enumerate(mono):
            word = mono[:t] + ((g, d + 1),) + mono[t + 1:]
            out = out + _reference_canonicalize_word(spec, word).scale(c.scale(d))
    return out


def _reference_lie_act(spec, rho, a):
    """Replace one factor's generator at a time, then sort the word."""
    out = State.zero()
    for mono, c in a.terms.items():
        for t, (g, d) in enumerate(mono):
            for j in range(spec.dim):
                if rho[j][g]:
                    word = mono[:t] + ((j, d),) + mono[t + 1:]
                    out = out + _reference_canonicalize_word(spec, word).scale(c.scale(rho[j][g]))
    return out


def _reference_apply_group_element(spec, M, a):
    """Expand every factor's image into words, then sort each word."""
    out = State.zero()
    for mono, c in a.terms.items():
        words = [(Fraction(1), ())]
        for g, d in mono:
            words = [(cf * M[j][g], word + ((j, d),))
                     for cf, word in words for j in range(spec.dim) if M[j][g]]
        for cf, word in words:
            out = out + _reference_canonicalize_word(spec, word).scale(c.scale(cf))
    return out


_O2 = liedata.orthogonal_action(2)
_AD = liedata.adjoint_action(SL2).lie_generators
_AD_THIRD = liedata.adjoint_action(SL2_THIRD).lie_generators
_CHEVALLEY = ((0, 1, 0), (1, 0, 0), (0, 0, -1))  # x <-> y, h -> -h (or t -> -t)
_NONORTHOGONAL = ((1, 2, 0), (0, 1, -1), (3, 0, Fraction(1, 2)))


def test_rational_sl2_basis_is_valid():
    assert liedata.validate(SL2_THIRD).ok
    assert liedata.validate_action(SL2_THIRD, liedata.adjoint_action(SL2_THIRD)).ok
    # [t, x] = 2/3 x: the engine's integer maps hold a Fraction
    assert vc._mode_mono(SL2_THIRD, 2, 0, ((X, 1),)) == {(((X, 1),), 0): Fraction(2, 3)}


@pytest.mark.parametrize(
    "spec, rhos, mats",
    [
        (H2, _O2.lie_generators, _O2.finite_elements),
        (SL2, _AD, _AD + (_CHEVALLEY,)),
        (liedata.abelian(3), (_NONORTHOGONAL,), (_NONORTHOGONAL,)),
        (SL2_THIRD, _AD_THIRD, _AD_THIRD + (_CHEVALLEY, _NONORTHOGONAL)),
    ],
    ids=["heisenberg2-orthogonal", "sl2-adjoint", "heisenberg3-nonorthogonal", "sl2-third"],
)
def test_derivations_and_group_actions_match_word_expansions(spec, rhos, mats):
    rng = random.Random(29)
    states = [_random_state(rng, spec, 5) for _ in range(12)]
    states.append(states[0] + State.vacuum(K))
    for a in states:
        expected = a
        for n in range(6):
            assert vc.nth_derivative(spec, a, n) == expected
            expected = _reference_derivative(spec, expected)
        for rho in rhos:
            assert vc.lie_act(spec, rho, a) == _reference_lie_act(spec, rho, a)
        for M in mats:
            assert vc.apply_group_element(spec, M, a) == _reference_apply_group_element(spec, M, a)


@pytest.mark.parametrize(
    "spec, action",
    [
        (SL2, liedata.ActionSpec(liedata.adjoint_action(SL2).lie_generators, (_CHEVALLEY,))),
        (H3, liedata.orthogonal_action(3)),
    ],
    ids=["sl2-adjoint", "heisenberg3-orthogonal"],
)
def test_action_images_are_free_of_the_level(spec, action):
    # only creation modes act, so no central term fires and every image has p = 0
    acts = [(liedata._columns(rho, spec.dim), True) for rho in action.lie_generators]
    acts += [(liedata._columns(M, spec.dim), False) for M in action.finite_elements]
    terms = 0
    for w in range(6):
        for mono in orbifold._weight_monomials(spec.dim, w):
            for images, derivation in acts:
                image = vc._act_mono(spec, images, derivation, mono)
                assert all(p == 0 for _, p in image), (mono, image)
                terms += len(image)
    assert terms > 1000


# -- circle products -------------------------------------------------------------


def test_circle_examples():
    alpha = State.generator(0)
    assert vc.circle_product(H1, alpha, 1, alpha) == State.vacuum(K)
    assert vc.circle_product(SL2, State.generator(H), 0, State.generator(X)) == (
        State.generator(X).scale(2)
    )
    a = st(((0, 2), (0, 1)), Fraction(3, 2))
    vac = State.vacuum()
    for n in range(-3, 3):
        want = a if n == -1 else State.zero()
        assert vc.circle_product(H1, vac, n, a) == want
    for n in range(-1, 3):
        want = a if n == -1 else State.zero()
        assert vc.circle_product(H1, a, n, vac) == want


def test_circle_products_of_multi_monomial_states_are_pinned():
    from voa.orbifold import omega

    got = vc.wick(H1, vc.derivative(H1, omega(1, 0, 2)), omega(1, 1, 1))
    assert vc.state_to_json(H1, got) == {
        "algebra": "heisenberg1",
        "terms": [
            {"monomial": [[0, 3], [0, 2], [0, 2], [0, 2]], "coeff": {"num": ["2"], "den": ["1"]}},
            {"monomial": [[0, 4], [0, 2], [0, 2], [0, 1]], "coeff": {"num": ["6"], "den": ["1"]}},
            {"monomial": [[0, 7], [0, 2]], "coeff": {"num": ["0", "168"], "den": ["1"]}},
        ],
    }
    a = vc.wick(SL2, State.generator(X), State.generator(Y)) + vc.derivative(
        SL2, State.generator(H)
    )
    b = vc.wick(SL2, State.generator(Y), State.generator(H)) + st(((X, 2),), 3)
    assert vc.state_to_json(SL2, vc.circle_product(SL2, a, 1, b)) == {
        "algebra": "sl2",
        "terms": [
            {"monomial": [[0, 1], [2, 1]], "coeff": {"num": ["-3"], "den": ["1"]}},
            {"monomial": [[0, 2]], "coeff": {"num": ["-6", "6"], "den": ["1"]}},
            {"monomial": [[1, 1], [2, 1]], "coeff": {"num": ["8", "1"], "den": ["1"]}},
            {"monomial": [[1, 2]], "coeff": {"num": ["-4", "2"], "den": ["1"]}},
        ],
    }


def test_wick_and_derivative_examples():
    alpha = State.generator(0)
    assert vc.wick(H1, alpha, alpha) == st(((0, 1), (0, 1)))
    assert vc.derivative(SL2, State.generator(X)) == st(((X, 2),))
    states = [State.generator(X), State.generator(Y), State.generator(H)]
    assert vc.wick_chain(SL2, states) == vc.wick(
        SL2, states[0], vc.wick(SL2, states[1], states[2])
    )


def test_ope_examples():
    pairs = vc.ope(SL2, State.generator(X), State.generator(Y))
    assert pairs == [(1, State.vacuum(K)), (0, State.generator(H))]
    # locality order 2: the top pole of alpha(z) alpha(w) is (z-w)^-2
    assert vc.ope(H1, State.generator(0), State.generator(0))[0][0] + 1 == 2
    assert vc.ope(H1, State.generator(0), State.vacuum()) == []


def test_weight_degree_leading_symbol():
    a = st(((X, 2), (H, 1)))
    assert vc.weight(a) == 3
    assert vc.degree(st(((0, 1),) * 4)) == 4
    mixed = st(((X, 1),)) + st(((X, 2),))
    assert vc.weight(mixed) is None
    s = st(((X, 1), (Y, 1))) + State.vacuum(K)
    assert vc.leading_symbol(s) == ClassicalPoly.variable(X, 0) * ClassicalPoly.variable(Y, 0)
    squared = st(((X, 2), (X, 2), (H, 1)), 3) + st(((Y, 1),))
    top = vc.leading_symbol(squared).terms
    assert {letters(key): c for key, c in top.items()} == {((X, 1), (X, 1), (H, 0)): 3}
    with pytest.raises(ValueError):
        vc.leading_symbol(State.zero())


def test_sugawara_examples():
    L = vc.sugawara(SL2, 2)
    c_half = (K.scale(Fraction(3, 2))) / (K + LevelScalar.from_fraction(2))
    assert vc.circle_product(SL2, L, 3, L) == State.vacuum(c_half)
    assert vc.circle_product(SL2, L, 1, State.generator(H)) == State.generator(H)
    assert vc.circle_product(SL2, L, 0, L) == vc.derivative(SL2, L)
    with pytest.raises(ValueError, match="bilinear form is not invertible"):
        vc.sugawara(
            liedata.build_spec(1, ["z"], {}, {(0, 0): 0}), 2
        )


def test_group_actions():
    refl = ((-1,),)
    even = st(((0, 1), (0, 1)))
    assert vc.apply_group_element(H1, refl, even) == even
    odd = st(((0, 2), (0, 1), (0, 1)))
    assert vc.apply_group_element(H1, refl, odd) == -odd
    ad = liedata.adjoint_action(SL2)
    xy = vc.wick(SL2, State.generator(X), State.generator(Y))
    assert vc.lie_act(SL2, ad.lie_generators[H], xy).is_zero()


def test_lie_act_derivation_law():
    rng = random.Random(23)
    ad = liedata.adjoint_action(SL2)
    for _ in range(10):
        a = _random_state(rng, SL2, 3)
        b = _random_state(rng, SL2, 3)
        rho = ad.lie_generators[rng.randrange(3)]
        lhs = vc.lie_act(SL2, rho, vc.wick(SL2, a, b))
        rhs = vc.wick(SL2, vc.lie_act(SL2, rho, a), b) + vc.wick(
            SL2, a, vc.lie_act(SL2, rho, b)
        )
        assert lhs == rhs


# -- oracle identities on random states -----------------------------------------


def _random_state(rng, spec, max_weight, homogeneous=False):
    terms = {}
    target = rng.randint(1, max_weight)
    for _ in range(rng.randint(1, 2)):
        w = target if homogeneous else rng.randint(1, max_weight)
        factors = []
        while w > 0:
            d = rng.randint(1, w)
            factors.append((rng.randrange(spec.dim), d))
            w -= d
        mono = tuple(sorted(factors, key=lambda f: (-f[1], f[0])))
        c = LevelScalar.from_fraction(rng.choice([1, 2, -1, Fraction(1, 2)]))
        if rng.random() < 0.25:
            c = c * K
        terms[mono] = c
    return State(terms)


@pytest.mark.parametrize("spec", [H2, SL2], ids=["heisenberg2", "sl2"])
def test_translation_laws(spec):
    rng = random.Random(101)
    for _ in range(6):
        a, b = _random_state(rng, spec, 5), _random_state(rng, spec, 5)
        da = vc.derivative(spec, a)
        for n in range(-3, 4):
            lhs = vc.derivative(spec, vc.circle_product(spec, a, n, b))
            rhs = vc.circle_product(spec, da, n, b) + vc.circle_product(
                spec, a, n, vc.derivative(spec, b)
            )
            assert lhs == rhs
            assert vc.circle_product(spec, da, n, b) == vc.circle_product(
                spec, a, n - 1, b
            ).scale(-n)


@pytest.mark.parametrize("spec", [H2, SL2], ids=["heisenberg2", "sl2"])
def test_skew_symmetry(spec):
    # a o_n b = sum_j (-1)^(n+j+1) / j! d^j (b o_{n+j} a)
    rng = random.Random(103)
    for _ in range(5):
        a, b = _random_state(rng, spec, 4), _random_state(rng, spec, 4)
        for n in range(-2, 4):
            rhs = State.zero()
            for j in range(0, a.max_weight() + b.max_weight() + 3 - n):
                term = vc.circle_product(spec, b, n + j, a)
                if term.is_zero():
                    continue
                term = vc.nth_derivative(spec, term, j)
                sign = -1 if (n + j + 1) % 2 else 1
                rhs = rhs + term.scale(Fraction(sign, math.factorial(j)))
            assert vc.circle_product(spec, a, n, b) == rhs


@pytest.mark.parametrize("spec", [H2, SL2], ids=["heisenberg2", "sl2"])
def test_wick_mode_expansion_identity(spec):
    # (:ab:) o_n c = sum_k 1/k! :(d^k a)(b o_{n+k} c): + sum_k b o_{n-k-1} (a o_k c), n > 0
    rng = random.Random(107)
    for _ in range(4):
        a, b, c = (_random_state(rng, spec, 3) for _ in range(3))
        wab = vc.wick(spec, a, b)
        for n in (1, 2):
            lhs = vc.circle_product(spec, wab, n, c)
            rhs = State.zero()
            for k in range(0, 8):
                inner = vc.circle_product(spec, b, n + k, c)
                if not inner.is_zero():
                    da = vc.nth_derivative(spec, a, k)
                    rhs = rhs + vc.wick(spec, da, inner).scale(
                        Fraction(1, math.factorial(k))
                    )
                aoc = vc.circle_product(spec, a, k, c)
                if not aoc.is_zero():
                    rhs = rhs + vc.circle_product(spec, b, n - k - 1, aoc)
            assert lhs == rhs


def test_leading_symbol_multiplicative():
    rng = random.Random(109)
    for _ in range(8):
        a = _random_state(rng, H2, 4)
        b = _random_state(rng, H2, 4)
        w = vc.wick(H2, a, b)
        if w.is_zero() or vc.degree(w) != vc.degree(a) + vc.degree(b):
            continue
        try:
            assert vc.leading_symbol(w) == vc.leading_symbol(a) * vc.leading_symbol(b)
        except ValueError:
            pass  # k-dependent top coefficients are outside the classical projection


def test_state_json_round_trip():
    a = st(((X, 2), (Y, 1)), K) + State.vacuum(Fraction(1, 3))
    data = vc.state_to_json(SL2, a)
    assert data["algebra"] == "sl2"
    terms = {tuple(map(tuple, t["monomial"])): LevelScalar.from_json(t["coeff"])
             for t in data["terms"]}
    assert State(terms) == a


def test_state_text():
    a = st(((0, 2), (0, 1)), 1)
    assert vc.state_text(H1, a) == "a1(-2) a1(-1)"
    assert vc.state_text(H1, State.vacuum(K)) == "k"
    assert vc.state_text(H1, State.zero()) == "0"


def test_cache_stats_counts_entries():
    import voa
    from voa import remainder

    dictionary_caches = tuple(
        f"orbifold._OMEGA_CACHE.{name}"
        for name in ("_deriv_cache", "_stages", "_closure", "_symbols")
    )
    engine = ("_int_scalar", "_mode_mono", "_cp_pair")
    engine_caches = tuple(f"vertexcore.{name}" for name in engine)
    image_caches = tuple(f"classical.{name}" for name in ("weyl_q", "sl2_q", "sl2_c"))
    counted = dictionary_caches + engine_caches + image_caches
    voa.clear_caches()
    before = voa.cache_stats()
    assert before == dict.fromkeys(before, 0)
    vc.circle_product(SL2, State.generator(X), 0, State.generator(Y))
    remainder.rn(3, (0, 1, 2, 3), (0, 1, 2, 3))
    orbifold.remainder_direct(1, (0, 1), (0, 1))
    classical.weyl_q(2, 0, 1)
    classical.sl2_q(0, 1)
    classical.sl2_c(0, 1, 2)
    after = voa.cache_stats()
    assert after["remainder._MEMO"] > 0
    assert all(after[name] > 0 for name in counted)
    assert set(after) == {"remainder._MEMO", "orbifold._OMEGA_CACHE", *counted}
    assert after["vertexcore._cp_pair"] == vc._cp_pair.cache_info().currsize
    after["remainder._MEMO"] = -1
    assert voa.cache_stats()["remainder._MEMO"] > 0
    voa.clear_caches()
    assert [voa.cache_stats()[name] for name in counted] == [0] * len(counted)


def test_clear_caches_empties_every_counted_cache():
    import voa
    from voa import remainder

    xy = vc.wick(SL2, State.generator(X), State.generator(Y))

    def products():
        return (
            remainder.rn(3, (0, 1, 2, 3), (0, 1, 2, 3)),
            vc.circle_product(SL2, xy, 1, State.generator(H).scale(K)),
            classical.weyl_q(2, 0, 1),
            classical.sl2_q(0, 1),
            classical.sl2_c(0, 1, 2),
        )

    before = products()
    orbifold.remainder_direct(1, (0, 1), (0, 1))
    stats = voa.cache_stats()
    assert stats["orbifold._OMEGA_CACHE"] > 0
    assert all(stats[f"classical.{name}"] > 0 for name in ("weyl_q", "sl2_q", "sl2_c"))
    assert stats["vertexcore._cp_pair"] > 0
    voa.clear_caches()
    stats = voa.cache_stats()
    assert stats == dict.fromkeys(stats, 0)
    assert products() == before


def _binom(j, m):
    return math.prod(range(j - m + 1, j + 1)) // math.factorial(m)


def _reference_circle_product(spec, a, n, b):
    """a o_n b by the whole-state recursion on the leftmost factor of a.

    With a = X^i(-d) u and m = d - 1, the mode X^i(j-m) of (1/m!) d^m X^i
    either acts after u o_p b (j = n-1-p < 0) or hits all of b first
    (j >= m).  Products are memoized per call on whole states; the engine
    instead caches monomial pairs across calls.
    """
    memo = {}

    def cp(amono, n, b):
        if not amono:
            return b if n == -1 else State.zero()
        if b.is_zero():
            return State.zero()
        key = (amono, n, frozenset(b.terms.items()))
        if key not in memo:
            (i, d), u = amono[0], amono[1:]
            m = d - 1
            sign = -1 if m % 2 else 1
            wb = b.max_weight()
            out = State.zero()
            for p in range(n, vc.mono_weight(u) + wb):
                j = n - 1 - p
                xu = vc.mode_action(spec, i, j - m, cp(u, p, b))
                out = out + xu.scale(sign * _binom(j, m))
            for j in range(m, m + wb + 1):
                inner = cp(u, n - j - 1, vc.mode_action(spec, i, j - m, b))
                out = out + inner.scale(sign * _binom(j, m))
            memo[key] = out
        return memo[key]

    return State.sum(cp(amono, n, b).scale(c) for amono, c in a.terms.items())


@pytest.mark.parametrize(
    "spec",
    [H1, H2, H3, RATIONAL_FORM, SL2, SL2_THIRD],
    ids=["heisenberg1", "heisenberg2", "heisenberg3", "rational-form", "sl2", "sl2-third"],
)
def test_circle_product_matches_whole_state_recursion(spec):
    from voa import verify

    rng = random.Random(7)
    vacuum = State.vacuum()
    for _ in range(15):
        a, b = verify.random_state(rng, spec, 5), verify.random_state(rng, spec, 5)
        for n in range(-3, 6):
            assert vc.circle_product(spec, a, n, b) == _reference_circle_product(spec, a, n, b)
        # the vacuum as either factor: a o_n |0> is the creation property
        for n in range(-4, 4):
            for x, y in ((a, vacuum), (vacuum, b)):
                assert vc.circle_product(spec, x, n, y) == _reference_circle_product(spec, x, n, y)


def test_circle_product_caches_monomial_pairs_only():
    a = vc.wick(SL2, State.generator(X), State.generator(Y)) + vc.derivative(
        SL2, State.generator(H)
    )
    b = vc.wick(SL2, State.generator(Y), vc.wick(SL2, State.generator(H), State.generator(X)))
    assert len(a.terms) > 1 and len(b.terms) > 1
    vc._cp_pair.cache_clear()
    vc.circle_product(SL2, a, -1, b)
    assert vc._cp_pair.cache_info().currsize > 0
    with pytest.raises(TypeError):
        vc._cp_pair(SL2, a, -1, b)
    with pytest.raises(TypeError):
        hash(b)


def _monomials(dim, max_weight):
    """Every sorted monomial of weight <= max_weight over dim generators, sorted."""
    out = {()}
    for _ in range(max_weight):
        out |= {
            tuple(sorted(m + ((g, d),), key=vc.factor_key))
            for m in out
            for g in range(dim)
            for d in range(1, max_weight - vc.mono_weight(m) + 1)
        }
    return sorted(out)


@pytest.mark.parametrize("spec", [H1, RATIONAL_FORM], ids=["heisenberg1", "rational-form"])
def test_free_field_monomial_products_match_whole_state_recursion(spec):
    # Wick's closed form against the independent recursion, monomial by
    # monomial: repeated factors on both sides, the vacuum as b, and every n
    # from -3 up to the sum of the weights, where the product vanishes
    monos = _monomials(spec.dim, 3) + [((0, 1),) * 4, ((0, 2), (0, 1), (0, 1), (0, 1))]
    if spec.dim > 1:
        monos += [((1, 2), (0, 1), (1, 1)), ((0, 2), (1, 2), (1, 1), (1, 1))]
    for amono in monos[1:]:
        for bmono in monos:
            wa, wb = vc.mono_weight(amono), vc.mono_weight(bmono)
            for n in range(-3, wa + wb + 1):
                got = vc.circle_product(spec, st(amono), n, st(bmono))
                assert got == _reference_circle_product(spec, st(amono), n, st(bmono))
                if n >= wa + wb:
                    assert got.is_zero()


def test_only_abelian_specs_take_the_free_field_branch(monkeypatch):
    assert SL2.free_field is None
    assert H2.free_field == ((1, 0), (0, 1))
    assert RATIONAL_FORM.free_field == (
        (Fraction(-1, 3), Fraction(3, 2)), (Fraction(3, 2), 0)
    )
    taken = []
    real = vc._cp_free

    def spy(form, amono, n, bmono):
        taken.append(form)
        return real(form, amono, n, bmono)

    monkeypatch.setattr(vc, "_cp_free", spy)
    vc._cp_pair.cache_clear()
    rng = random.Random(17)
    for _ in range(10):
        a, b = _random_state(rng, SL2, 5), _random_state(rng, SL2, 5)
        for n in range(-2, 4):
            vc.circle_product(SL2, a, n, b)
    assert vc._cp_pair.cache_info().currsize > 0
    assert taken == []
    vc.circle_product(H2, State.generator(0), 1, State.generator(0))
    assert taken == [H2.free_field]


def test_free_field_products_fill_only_the_pair_cache():
    import voa

    voa.clear_caches()
    keys = set(voa.cache_stats())
    a = vc.wick(H2, State.generator(0), State.generator(1)) + st(((0, 3),))
    b = st(((1, 2), (0, 1), (0, 1)), K) + st(((1, 1),))
    voa.clear_caches()
    vc.circle_product(H2, a, 1, b)
    stats = voa.cache_stats()
    assert set(stats) == keys
    # Wick's closed form makes no sub-products: one entry per monomial pair
    assert stats["vertexcore._cp_pair"] == len(a.terms) * len(b.terms)
    voa.clear_caches()
    assert voa.cache_stats()["vertexcore._cp_pair"] == 0


# -- integer maps and their one conversion to scalars ----------------------------


def _scalar(q):
    return LevelScalar.from_fraction(q)


def _term_by_term(spec, a, n, b):
    """a o_n b summed one cached integer-map term at a time in LevelScalars."""
    out = State.zero()
    for amono, ca in a.terms.items():
        for bmono, cb in b.terms.items():
            for (mono, p), v in vc._cp_mono(spec, amono, n, bmono).items():
                c = ca * cb * _scalar(v)
                for _ in range(p):
                    c = c * K
                out = out + State({mono: c})
    return out


@pytest.mark.parametrize(
    "spec",
    [SL2, SL2_THIRD, H2, RATIONAL_FORM],
    ids=["sl2", "sl2-third", "heisenberg2", "rational-form"],
)
def test_products_with_mixed_denominators_match_term_by_term_sums(spec):
    # coefficients over 1, k+2 and k+3, with k-dependent numerators
    over_k2 = ONE / (K + _scalar(2))
    over_k3 = ONE / (K + _scalar(3))
    k2_plus = K * K + _scalar(Fraction(1, 7))
    a = (st(((0, 1),)) + st(((1, 1),), K * over_k2)
         + st(((0, 1), (1, 1)), k2_plus * over_k3) + st(((1, 2),), Fraction(1, 2)))
    b = (st(((1, 1),), over_k2) + st(((0, 1), (1, 1)), K)
         + st(((1, 2),), k2_plus) + st(((0, 2),), over_k3.scale(Fraction(-3, 5))))
    for n in range(-2, 4):
        got = vc.circle_product(spec, a, n, b)
        assert got == _term_by_term(spec, a, n, b)
        assert all(got.terms.values())


def test_contributions_of_different_pairs_cancel_exactly():
    # y(-1)h(-1) appears in both x(-1)y(-1) o_1 b and h(-2) o_1 b
    a1, a2, b, n = st(((X, 1), (Y, 1))), st(((H, 2),)), st(((Y, 1), (H, 1)), K), 1
    p1, p2 = vc.circle_product(SL2, a1, n, b), vc.circle_product(SL2, a2, n, b)
    mono = ((Y, 1), (H, 1))
    c1, c2 = p1.coefficient(mono), p2.coefficient(mono)
    assert c1 and c2 and not c1.is_constant()
    r = ONE / (K + _scalar(2))
    a = a1.scale(c2 * r) - a2.scale(c1 * r)
    got = vc.circle_product(SL2, a, n, b)
    assert mono not in got.terms
    assert all(got.terms.values())
    assert got == p1.scale(c2 * r) - p2.scale(c1 * r)
    assert not got.is_zero()
    # pairs from different denominator groups: k/(k(k+2)) - 1/(k+2) = 0
    m, m2 = ((X, 1),), ((Y, 2),)
    pairs = [(ONE / (K * (K + _scalar(2))), {(m, 1): 1}), (-r, {(m, 0): 1, (m2, 0): 3})]
    assert vc._to_state(pairs).terms == {m2: r.scale(-3)}
    # a Fraction value and a power of k in one group
    pairs = [(r, {(m, 0): Fraction(1, 3), (m, 2): 2}), (r.scale(2), {(m, 0): Fraction(-1, 6)})]
    assert vc._to_state(pairs).terms == {m: (K * K).scale(2) * r}


def test_engine_caches_hold_integer_maps(monkeypatch):
    import voa

    keys = set(voa.cache_stats())
    seen = {"_mode_mono": {}, "_cp_pair": {}}
    for name, entries in seen.items():
        real = getattr(vc, name)
        # the engine's recursive calls look the names up in the module
        monkeypatch.setattr(vc, name, lambda *args, real=real, entries=entries:
                            entries.setdefault(args, real(*args)))
    voa.clear_caches()
    a = vc.wick(SL2, State.generator(X), State.generator(Y)) + st(((H, 2),), K)
    b = vc.wick(SL2, State.generator(Y), State.generator(H))
    for n in range(-1, 3):
        vc.circle_product(SL2, a, n, b)
    stats = voa.cache_stats()
    assert set(stats) == keys
    for name, entries in seen.items():
        # every cache entry passed through the spy when it was made
        assert len(entries) == stats[f"vertexcore.{name}"] > 0
        for value in entries.values():
            assert type(value) is dict
            for key, c in value.items():
                assert type(key) is tuple and len(key) == 2
                assert type(key[0]) is tuple and type(key[1]) is int
                assert type(c) is int and c
    voa.clear_caches()
    stats = voa.cache_stats()
    engine = ("_int_scalar", "_mode_mono", "_cp_pair")
    assert [stats[f"vertexcore.{name}"] for name in engine] == [0] * 3
