import itertools
import math
import random
from fractions import Fraction

import pytest

import classical_reference
import tuple_reference as ref
from voa import classical as cl
from voa import liedata
from voa import orbifold as ob
from voa import verify
from voa.classical import ClassicalPoly


def var(i, j):
    return ClassicalPoly.variable(i, j)


def test_weyl_q_examples():
    assert cl.weyl_q(1, 0, 0) == var(0, 0) * var(0, 0)
    q = cl.weyl_q(3, 0, 1)
    assert q == sum((var(i, 0) * var(i, 1) for i in range(3)), ClassicalPoly.zero())


def test_sl2_q_examples():
    h0 = var(cl.SL2_H, 0)
    x0, y0 = var(cl.SL2_X, 0), var(cl.SL2_Y, 0)
    assert cl.sl2_q(0, 0) == h0 * h0 + (x0 * y0).scale(4)


def test_sl2_c_shape():
    c = cl.sl2_c(0, 1, 2)
    assert len(c.terms) == 6
    assert set(c.terms.values()) == {Fraction(1), Fraction(-1)}
    with pytest.raises(ValueError):
        cl.sl2_c(1, 1, 2)


def test_det_relation_2x2():
    rel = cl.det_relation(1, (0, 1), (0, 1))
    q = ClassicalPoly.q
    assert rel == q(0, 0) * q(1, 1) - q(0, 1) * q(0, 1)
    assert cl.substitute(rel, 1).is_zero()
    with pytest.raises(ValueError):
        cl.det_relation(1, (0, 0), (0, 1))


@pytest.mark.parametrize("n", [1, 2])
def test_det_relations_vanish_sample(n):
    for I in itertools.combinations(range(4), n + 1):
        for J in itertools.combinations(range(4), n + 1):
            assert cl.substitute(cl.det_relation(n, I, J), n).is_zero()


def test_determinant_builds_each_entry_once(monkeypatch):
    # a 3x3 determinant: nine Q symbols' keys, and every sign read from the table
    cl.det_relation(2, (0, 1, 2), (0, 1, 2))
    calls = {"q": 0, "sort_sign": 0}

    def counted(name, plain):
        def wrapper(*args):
            calls[name] += 1
            return plain(*args)
        return wrapper

    monkeypatch.setattr(cl, "q_symbol", counted("q", cl.q_symbol))
    monkeypatch.setattr(cl, "sort_sign", counted("sort_sign", cl.sort_sign))
    rel = cl.det_relation(2, (0, 1, 2), (0, 1, 3))
    assert calls == {"q": 9, "sort_sign": 0}
    assert len(rel.terms) == 6 and cl.substitute(rel, 2).is_zero()


def test_det_relation_nonzero_as_symbols():
    # the relation itself is a nonzero element of the free symbol algebra
    assert not cl.det_relation(2, (0, 1, 2), (0, 1, 2)).is_zero()


def test_sl2_relations_examples():
    assert cl.substitute_sl2(cl.sl2_relation_type1(0, 0, 0, 1, 2)).is_zero()
    assert cl.substitute_sl2(cl.sl2_relation_type2(0, 1, 2, 0, 1, 2)).is_zero()
    rel2 = cl.sl2_relation_type2(0, 1, 2, 0, 1, 2)
    c012 = ("C", 0, 1, 2)
    assert {c for key, c in rel2.terms.items() if cl.letters(key) == (c012, c012)} == {1}


def test_sl2_relations_vanish_sample():
    rng = random.Random(5)
    for _ in range(40):
        idx = [rng.randrange(4) for _ in range(5)]
        assert cl.substitute_sl2(cl.sl2_relation_type1(*idx)).is_zero()
        idx = [rng.randrange(4) for _ in range(6)]
        assert cl.substitute_sl2(cl.sl2_relation_type2(*idx)).is_zero()


def test_c_symbol_antisymmetry():
    assert ClassicalPoly.c(1, 0, 2) == ClassicalPoly.c(0, 1, 2).scale(-1)
    assert ClassicalPoly.c(2, 0, 1) == ClassicalPoly.c(0, 1, 2)
    assert ClassicalPoly.c(0, 0, 2).is_zero()


def test_polarization_examples():
    for n in (1, 2, 3):
        assert cl.polarization(1, 0, cl.weyl_q(n, 0, 0)) == cl.weyl_q(n, 0, 1).scale(2)
        assert cl.d_ring_derivative(cl.weyl_q(n, 0, 0)) == cl.weyl_q(n, 0, 1).scale(2)
    # Euler operator on a polynomial homogeneous in the j=0 variables
    p = cl.weyl_q(2, 0, 0)
    assert cl.polarization(0, 0, p) == p.scale(2)


def test_lie_invariance_examples():
    o3 = liedata.orthogonal_action(3)
    assert cl.lie_invariance_check(o3, cl.weyl_q(3, 0, 1))
    ad = liedata.adjoint_action(liedata.sl2_spec())
    assert cl.lie_invariance_check(ad, cl.sl2_c(0, 1, 2))
    assert not cl.lie_invariance_check(liedata.orthogonal_action(2), var(0, 0))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: cl.lie_invariance_check(liedata.orthogonal_action(2), cl.weyl_q(3, 0, 0)),
                 "a 2x2 family matrix does not reach the variable x[2,0]", id="lie-too-small"),
    pytest.param(lambda: cl.apply_finite([[1, 0], [0, 1]], cl.weyl_q(3, 0, 0)),
                 "a 2x2 family matrix does not reach the variable x[2,0]", id="finite-too-small"),
    pytest.param(lambda: cl.apply_finite([[1, 0], [1]], cl.weyl_q(2, 0, 0)),
                 "a 2x1/2 family matrix is not square", id="ragged"),
    pytest.param(lambda: cl.apply_finite([[1, 0]], cl.weyl_q(1, 0, 0)),
                 "a 1x2 family matrix is not square", id="not-square"),
    pytest.param(lambda: cl.apply_finite([], cl.weyl_q(2, 0, 0)),
                 "a 0x0 family matrix does not reach the variable x[0,0]", id="empty"),
])
def test_family_matrix_shape_is_checked(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_family_matrix_maps_each_family_by_its_column():
    swap_and_scale = [[0, Fraction(1, 2)], [3, 0]]  # x[0,j] -> 3 x[1,j], x[1,j] -> x[0,j]/2
    got = cl.apply_finite(swap_and_scale, var(0, 1) * var(1, 2))
    assert got == (var(1, 1) * var(0, 2)).scale(Fraction(3, 2))
    # a larger matrix acts on the families the polynomial has
    assert cl.apply_finite([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], var(0, 0)) == var(0, 0).scale(-1)


def test_polarization_preserves_invariance():
    rng = random.Random(9)
    o2 = liedata.orthogonal_action(2)
    for _ in range(15):
        p = cl.weyl_q(2, rng.randint(0, 2), rng.randint(0, 2))
        p = p * cl.weyl_q(2, rng.randint(0, 2), rng.randint(0, 2))
        r, s = rng.randint(0, 3), rng.randint(0, 3)
        assert cl.lie_invariance_check(o2, cl.polarization(r, s, p))


def test_minimal_dring_generators():
    # rank 1: of all q_{a,b} with weight <= 8 (ordered by weight, then a),
    # the greedy minimal derivation-ring generators are the q_{0,even} family
    cands = []
    for w in range(2, 9):
        m = w - 2
        for a in range(0, m // 2 + 1):
            cands.append(((w, a), cl.weyl_q(1, a, m - a)))
    cands.sort(key=lambda t: t[0])
    survivors = cl.minimal_dring_generators([p for _, p in cands])
    assert survivors == [cl.weyl_q(1, 0, m) for m in (0, 2, 4, 6)]
    assert cl.dring_contains(cl.weyl_q(1, 1, 1), [cl.weyl_q(1, 0, 0), cl.weyl_q(1, 0, 2)])
    assert not cl.dring_contains(cl.weyl_q(1, 0, 2), [cl.weyl_q(1, 0, 0)])


def test_dring_contains_rejects_weight_zero_generator():
    # a constant generator never lowers the remaining weight
    with pytest.raises(ValueError, match="weight 0"):
        cl.dring_contains(cl.weyl_q(1, 0, 0), [ClassicalPoly.constant(1)])


def test_minimal_dring_generators_rejects_weight_zero_candidate():
    # a unital ring contains the constants, so a constant candidate is dropped
    assert cl.dring_contains(ClassicalPoly.constant(3), [])
    got = cl.minimal_dring_generators([ClassicalPoly.constant(2), cl.weyl_q(1, 0, 0)])
    assert got == [cl.weyl_q(1, 0, 0)]


def test_substitute_builds_each_image_once():
    # every Q_{a,b} of the 3x3 determinant occurs in two of its six terms
    p = cl.det_relation(2, (0, 1, 2), (0, 1, 2))
    letters = [sym for key in p.terms for sym in cl.letters(key)]
    assert len(letters) > len(set(letters))
    calls = []

    def image(sym):
        calls.append(sym)
        return cl.weyl_q(3, sym[1], sym[2])

    got = cl._substitute(p, image)
    assert sorted(calls) == sorted(set(letters))
    # the same homomorphism with an image built at every occurrence
    want = ClassicalPoly.sum(
        math.prod((cl.weyl_q(3, a, b) for _, a, b in cl.letters(key)),
                  start=ClassicalPoly.constant(c))
        for key, c in p.terms.items()
    )
    assert got == want and not got.is_zero()


def weyl_image(n):
    return lambda sym: cl.weyl_q(n, sym[1], sym[2])


def sl2_image(sym):
    return cl.sl2_q(*sym[1:]) if sym[0] == "Q" else cl.sl2_c(*sym[1:])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_determinants_and_substitution_match_the_reference(n):
    # in n + 1 families the determinant relations do not vanish, so a
    # substitution that wrongly gave zero would show here
    for I in itertools.combinations(range(5), n + 1):
        for J in itertools.combinations(range(5), n + 1):
            rel = cl.det_relation(n, I, J)
            want = classical_reference.determinant([[ClassicalPoly.q(a, b) for b in J] for a in I])
            assert rel == want and list(rel.terms) == list(want.terms)
            got = cl.substitute(rel, n + 1)
            assert got == classical_reference.substitute(rel, weyl_image(n + 1))
            assert not got.is_zero()


def test_sl2_cubic_and_products_match_the_reference():
    variables = [[var(c, r) for c in (cl.SL2_H, cl.SL2_X, cl.SL2_Y)] for r in (0, 2, 3)]
    want = classical_reference.determinant(variables)
    assert cl.sl2_c(0, 2, 3) == want and list(cl.sl2_c(0, 2, 3).terms) == list(want.terms)
    q, c = ClassicalPoly.q, ClassicalPoly.c
    products = [q(0, 1) * c(0, 1, 2), q(2, 2) * c(0, 1, 3), c(0, 1, 2) * c(0, 1, 2),
                c(0, 1, 2) * c(1, 2, 3), (q(0, 0) * c(0, 2, 3)).scale(Fraction(-2, 3))
                + c(0, 1, 3) * c(0, 2, 3) + q(1, 3) * q(0, 2)]
    for p in products:
        got = cl.substitute_sl2(p)
        assert got == classical_reference.substitute(p, sl2_image) and not got.is_zero()


def test_apply_finite_matches_the_reference():
    M = [[Fraction(1, 2), 2, 0], [-1, Fraction(-1, 3), 1], [0, 3, Fraction(5, 4)]]
    image = cl._family_image(M)
    for p in (cl.weyl_q(3, 0, 1) * cl.weyl_q(3, 1, 2), cl.sl2_c(0, 1, 2),
              var(0, 0) * var(2, 1) - var(1, 1).scale(Fraction(1, 7)) + ClassicalPoly.constant(2)):
        got = cl.apply_finite(M, p)
        assert got == classical_reference.substitute(p, image) and got != p


def test_suite_classical_controls_catch_a_zero_substitution(monkeypatch):
    # every vanishing check passes on a substitution that gives zero
    monkeypatch.setattr(cl, "_substitute", lambda p, image: ClassicalPoly.zero())
    failed = {c.label for c in verify.suite_classical().checks if not c.ok}
    controls = {f"determinant relation survives {n + 1} families (n={n}, control)"
                for n in (1, 2, 3)}
    assert controls <= failed
    assert not any("vanish" in label for label in failed)


def test_substitute_twice_leaves_shared_images_unchanged():
    # weyl_q, sl2_q and sl2_c hand every caller the same cached object
    q_before = dict(cl.weyl_q(3, 0, 1).terms)
    c_before = dict(cl.sl2_c(0, 1, 2).terms)
    sl2_q_before = dict(cl.sl2_q(0, 1).terms)
    assert cl.weyl_q(3, 0, 1) is cl.weyl_q(3, 0, 1)
    det = cl.det_relation(2, (0, 1, 2), (0, 1, 3))
    syzygy = cl.sl2_relation_type1(0, 1, 0, 1, 2)
    products = (ClassicalPoly.c(0, 1, 2) * ClassicalPoly.q(0, 1)).scale(Fraction(-1, 3))
    # Horner groups that end in a single letter: c l maps to image(l).scale(c)
    q, c = ClassicalPoly.q(0, 1), ClassicalPoly.c(0, 1, 2)
    one = ClassicalPoly.constant(1)
    leaves = [(q, lambda p: cl.substitute(p, 3)), (q * (one + q), lambda p: cl.substitute(p, 3)),
              (q, cl.substitute_sl2), (c, cl.substitute_sl2),
              (c.scale(Fraction(-1, 3)) + q + c * (one + q), cl.substitute_sl2)]
    for rel, sub in [(det, lambda p: cl.substitute(p, 3)), (syzygy, cl.substitute_sl2),
                     (products, cl.substitute_sl2)] + leaves:
        first, second = sub(rel), sub(rel)
        assert first == second and first.terms is not second.terms
        assert all(first.terms is not im.terms
                   for im in (cl.weyl_q(3, 0, 1), cl.sl2_q(0, 1), cl.sl2_c(0, 1, 2)))
    assert cl.substitute(q, 3) == cl.weyl_q(3, 0, 1)
    assert cl.substitute_sl2(c) == cl.sl2_c(0, 1, 2)
    assert not cl.substitute_sl2(products).is_zero()
    assert cl.sl2_q(0, 1).terms == sl2_q_before
    assert cl.weyl_q(3, 0, 1).terms == q_before
    assert cl.sl2_c(0, 1, 2).terms == c_before
    assert all(type(v) is int for v in q_before.values())


def test_poly_gradings():
    p = cl.weyl_q(2, 1, 2)
    assert p.poly_weight() == 5  # weights j+1: (1+1) + (2+1)
    mixed = p + cl.weyl_q(2, 0, 0)
    assert mixed.poly_weight() is None


def spelled(p):
    """p's terms keyed by the sorted letter tuples of their keys."""
    return {cl.letters(key): c for key, c in p.terms.items()}


def test_monomial_keys_repeat_variables_by_exponent():
    p = var(0, 1) * var(0, 0) * var(0, 1)
    assert spelled(p) == {((0, 0), (0, 1), (0, 1)): 1}
    assert spelled(p.partial(0, 1)) == {((0, 0), (0, 1)): 2}
    assert spelled(p.partial(0, 0)) == {((0, 1), (0, 1)): 1}
    assert p.partial(1, 1).is_zero()
    assert p.poly_weight() == 5 and p.families() == [0]
    # symbol keys have the same shape
    q = ClassicalPoly.q(0, 1) * ClassicalPoly.q(0, 0) * ClassicalPoly.q(0, 1)
    assert spelled(q) == {(("Q", 0, 0), ("Q", 0, 1), ("Q", 0, 1)): 1}


def test_rendering():
    p = var(0, 1) * var(0, 1) + ClassicalPoly.constant(Fraction(-1, 2))
    assert repr(p) == "-1/2 + 1*x[0,1]^2"
    x00, x01, x10 = var(0, 0), var(0, 1), var(1, 0)
    cubic = x00 * x01 * x10 * x10 + x00 * x00 * x00 * x01
    assert repr(cubic) == "1*x[0,0]^3x[0,1] + 1*x[0,0]x[0,1]x[1,0]^2"
    q = ClassicalPoly.q(0, 2) * ClassicalPoly.c(0, 1, 3)
    assert "Q[0,2]" in repr(q) and "C[0,1,3]" in repr(q)


# -- packed keys -------------------------------------------------------------------

VARIABLES = [(i, j) for i in range(3) for j in range(3)]
SYMBOLS = [cl.q_symbol(a, b) for a in range(3) for b in range(a, 3)]
SYMBOLS += [("C", 0, 1, 2), ("C", 0, 1, 3), ("C", 1, 2, 3)]


def random_terms(rng, alphabet, nterms, max_degree):
    """Tuple-key terms over a small alphabet: letters repeat, coefficients are
    ints and Fractions."""
    out = {}
    for _ in range(nterms):
        key = tuple(sorted(rng.choice(alphabet) for _ in range(rng.randint(0, max_degree))))
        c = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
        out[key] = cl._exact(c)
    return out


def packed(terms):
    return ClassicalPoly({cl.monomial_key(key): c for key, c in terms.items()})


@pytest.mark.parametrize("alphabet", [VARIABLES, SYMBOLS],
                         ids=["ClassicalPoly", "ClassicalPoly-symbols"])
def test_packed_product_matches_tuple_keys(alphabet):
    rng = random.Random(29)
    cancelled = 0
    for _ in range(150):
        # m u * n v and m v * n u cancel; the random terms come on top
        u, v = rng.sample(alphabet, 2)
        m, n = (random_terms(rng, alphabet, 1, 2).popitem()[0] for _ in range(2))
        c1, c2 = rng.choice([1, -2, Fraction(1, 3)]), rng.choice([-1, 3, Fraction(-3, 2)])
        a = {tuple(sorted(m + (u,))): c1, tuple(sorted(m + (v,))): c2}
        b = {tuple(sorted(n + (v,))): c2, tuple(sorted(n + (u,))): -c1}
        a.update(random_terms(rng, alphabet, rng.randint(0, 5), 3))
        b.update(random_terms(rng, alphabet, rng.randint(0, 5), 3))
        want = ref.product(a, b)
        got = packed(a) * packed(b)
        # the same terms, in the same order
        assert [(cl.letters(k), c) for k, c in got.terms.items()] == list(want.items())
        assert all(type(c) in (int, Fraction) for c in got.terms.values())
        sums = {}
        for (k1, c1), (k2, c2) in itertools.product(a.items(), b.items()):
            k = tuple(sorted(k1 + k2))
            sums[k] = sums.get(k, 0) + c1 * c2
        cancelled += 0 in sums.values()
    assert cancelled > 100
    x, y = (packed({(v,): 1}) for v in alphabet[:2])
    assert spelled((x + y) * (x - y)) == {(alphabet[0],) * 2: 1, (alphabet[1],) * 2: -1}


def test_packed_partial_matches_tuple_keys():
    rng = random.Random(30)
    for _ in range(60):
        terms = random_terms(rng, VARIABLES, rng.randint(1, 8), 4)
        p = packed(terms)
        for v in VARIABLES + [(5, 7)]:
            assert spelled(p.partial(*v)) == ref.partial(terms, v), v


def test_packed_substitute_matches_tuple_keys():
    rng = random.Random(31)
    images = {v: random_terms(rng, VARIABLES, rng.randint(1, 3), 2) for v in VARIABLES}
    for _ in range(40):
        terms = random_terms(rng, VARIABLES, rng.randint(1, 5), 3)
        got = cl._substitute(packed(terms), lambda v: packed(images[v]))
        assert spelled(got) == ref.substitute(terms, images.__getitem__)

    def image(sym):
        return spelled(cl.sl2_q(*sym[1:]) if sym[0] == "Q" else cl.sl2_c(*sym[1:]))

    for _ in range(40):
        terms = random_terms(rng, SYMBOLS, rng.randint(1, 4), 2)
        want = ref.substitute(terms, image)
        assert spelled(cl.substitute_sl2(packed(terms))) == want


def test_letters_inverts_monomial_key():
    rng = random.Random(32)
    for alphabet in (VARIABLES, SYMBOLS):
        for _ in range(50):
            key = tuple(sorted(rng.choice(alphabet) for _ in range(rng.randint(0, 6))))
            assert cl.letters(cl.monomial_key(key)) == key
    assert cl.monomial_key(()) == ClassicalPoly.unit_key == 0
    assert ClassicalPoly.constant(3).terms == {0: 3}


def test_product_refuses_a_degree_past_the_field():
    def power(e):
        return ClassicalPoly.wrap({cl.monomial_key([(0, 0)] * e): 1})

    top = power(cl.MAX_DEGREE)
    assert power(30) * power(cl.MAX_DEGREE - 30) == top
    assert cl.letters(next(iter(top.terms))) == ((0, 0),) * cl.MAX_DEGREE
    with pytest.raises(ValueError, match=f"degree {cl.MAX_DEGREE + 1} exceeds"):
        top * var(1, 0)
    with pytest.raises(ValueError, match=f"degree {cl.MAX_DEGREE + 2} exceeds"):
        (top + var(0, 1)) * (var(2, 2) * var(1, 1) + ClassicalPoly.constant(1))
    with pytest.raises(ValueError, match=f"degree {cl.MAX_DEGREE + 1} exceeds"):
        cl.monomial_key([(0, 0)] * (cl.MAX_DEGREE + 1))
    assert (top * ClassicalPoly.zero()).is_zero()


def test_repr_of_fixtures_is_unchanged():
    # the texts printed when keys were sorted tuples of letters
    assert repr(cl.sl2_c(0, 1, 2)) == (
        "1*x[0,0]x[1,1]x[2,2] + -1*x[0,0]x[1,2]x[2,1] + -1*x[0,1]x[1,0]x[2,2]"
        " + 1*x[0,1]x[1,2]x[2,0] + 1*x[0,2]x[1,0]x[2,1] + -1*x[0,2]x[1,1]x[2,0]")
    assert repr(cl.sl2_q(1, 2)) == "2*x[0,1]x[1,2] + 2*x[0,2]x[1,1] + 1*x[2,1]x[2,2]"
    assert repr(cl.weyl_q(2, 0, 1) * cl.weyl_q(2, 0, 0)) == (
        "1*x[0,0]^3x[0,1] + 1*x[0,0]^2x[1,0]x[1,1] + 1*x[0,0]x[0,1]x[1,0]^2 + 1*x[1,0]^3x[1,1]")
    assert repr(cl.det_relation(2, (0, 1, 2), (0, 1, 3))) == (
        "1*Q[0,0]Q[1,1]Q[2,3] + -1*Q[0,0]Q[1,2]Q[1,3] + -1*Q[0,1]Q[0,1]Q[2,3]"
        " + 1*Q[0,1]Q[0,2]Q[1,3] + 1*Q[0,1]Q[0,3]Q[1,2] + -1*Q[0,2]Q[0,3]Q[1,1]")
    assert repr(cl.sl2_relation_type2(0, 1, 2, 0, 1, 3)) == (
        "1*C[0,1,2]C[0,1,3] + 1/4*Q[0,0]Q[1,1]Q[2,3] + -1/4*Q[0,0]Q[1,2]Q[1,3]"
        " + -1/4*Q[0,1]Q[0,1]Q[2,3] + 1/4*Q[0,1]Q[0,2]Q[1,3] + 1/4*Q[0,1]Q[0,3]Q[1,2]"
        " + -1/4*Q[0,2]Q[0,3]Q[1,1]")
    assert repr(cl.sl2_relation_type1(3, 0, 0, 1, 2)) == (
        "1*C[0,1,2]Q[0,3] + -1*C[0,1,3]Q[0,2] + 1*C[0,2,3]Q[0,1] + -1*C[1,2,3]Q[0,0]")
    assert repr(ClassicalPoly.q(0, 2) * ClassicalPoly.c(0, 1, 3) * ClassicalPoly.q(0, 2)) == (
        "1*C[0,1,3]Q[0,2]Q[0,2]")
    assert repr(cl.polarization(1, 0, cl.sl2_c(0, 2, 3)).scale(Fraction(-1, 3))) == (
        "-1/3*x[0,1]x[1,2]x[2,3] + 1/3*x[0,1]x[1,3]x[2,2] + 1/3*x[0,2]x[1,1]x[2,3]"
        " + -1/3*x[0,2]x[1,3]x[2,1] + -1/3*x[0,3]x[1,1]x[2,2] + 1/3*x[0,3]x[1,2]x[2,1]")


@pytest.mark.parametrize("build", [
    lambda: ClassicalPoly.variable(-2, 3),
    lambda: ClassicalPoly.c(-1, 0, 2),
    lambda: cl.sl2_q(-1, 0),
    lambda: cl.sl2_c(-1, 0, 1),
    lambda: cl.weyl_q(2, 0, -1),
    lambda: ClassicalPoly.q(-1, 0),
], ids=["variable", "ClassicalPoly.c", "sl2_q", "sl2_c", "weyl_q", "q_symbol"])
def test_negative_indices_are_refused(build):
    with pytest.raises(ValueError, match="^indices must be nonnegative$"):
        build()


def test_repr_of_a_mixed_polynomial_lists_variables_first():
    q, x = ClassicalPoly.q(0, 1), ClassicalPoly.variable(0, 0)
    assert repr(q * x) == "1*x[0,0]Q[0,1]"
    assert repr(q + x * x + q * ClassicalPoly.c(0, 1, 2) * x) == (
        "1*x[0,0]^2 + 1*x[0,0]C[0,1,2]Q[0,1] + 1*Q[0,1]")


_Q, _X = ClassicalPoly.q(0, 1), ClassicalPoly.variable(0, 0)
_NOT_Q = "takes variables x[i,j], got the symbol Q[0,1]"
_NOT_X = "takes Q and C symbols, got the variable x[0,0]"
_FAMILY = "a family matrix acts on variables x[i,j], got the symbol Q[0,1]"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: _Q.poly_weight(), f"poly_weight {_NOT_Q}", id="poly_weight"),
    pytest.param(lambda: (_Q * _X).poly_weight(), f"poly_weight {_NOT_Q}", id="poly_weight-mixed"),
    pytest.param(lambda: _Q.families(), f"families {_NOT_Q}", id="families"),
    pytest.param(lambda: cl.d_ring_derivative(_Q), f"derive_variables {_NOT_Q}",
                 id="d_ring_derivative"),
    pytest.param(lambda: cl.polarization(0, 1, _Q), f"families {_NOT_Q}", id="polarization"),
    pytest.param(lambda: cl.dring_contains(_Q, []), f"poly_weight {_NOT_Q}", id="dring_contains"),
    pytest.param(lambda: cl.apply_finite([[-1]], _Q), _FAMILY, id="apply_finite"),
    pytest.param(lambda: cl.lie_invariance_check(liedata.orthogonal_action(1), _Q), _FAMILY,
                 id="lie_invariance_check"),
    pytest.param(lambda: cl.substitute(_X, 2),
                 "substitute handles Q symbols only (substitute_sl2 takes C too), got x[0,0]",
                 id="substitute"),
    pytest.param(lambda: cl.substitute_sl2(_X), f"substitute_sl2 {_NOT_X}", id="substitute_sl2"),
    pytest.param(lambda: ob.normal_ordering(_X), f"normal_ordering {_NOT_X}",
                 id="normal_ordering"),
    pytest.param(lambda: ob.quantum_correction(_Q * _X, ob.omega_dictionary(1, 4)),
                 f"normal_ordering {_NOT_X}", id="quantum_correction"),
])
def test_wrong_kind_of_letter_is_named(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
