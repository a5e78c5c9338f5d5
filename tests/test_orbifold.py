import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
import dense_reference

from voa import classical as cl
from voa import liedata, linalg, orbifold as ob
from voa import vertexcore as vc
from voa.classical import det_relation
from voa.errors import DescentStuck, ParityError, ResourceError
from voa.scalars import K, ONE, LevelScalar
from voa.vertexcore import State

H1 = liedata.abelian(1)
H2 = liedata.abelian(2)
O1 = liedata.orthogonal_action(1)
O2 = liedata.orthogonal_action(2)
SL2 = liedata.sl2_spec()
AD = liedata.adjoint_action(SL2)


def st(mono, c=1):
    return State({mono: c})


# -- invariant subspaces ---------------------------------------------------------


def test_invariant_subspace_examples():
    assert ob.invariant_subspace(H1, O1, 2) == [st(((0, 1), (0, 1)))]
    basis3 = ob.invariant_subspace(H1, O1, 3)
    assert basis3 == [st(((0, 2), (0, 1)))]
    assert ob.invariant_subspace(SL2, AD, 1) == []


def test_invariant_subspace_builds_no_states_on_the_way(monkeypatch):
    # its columns come from the action's integer maps, with no scalar round trip
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(vc, "_to_state", counted("_to_state", vc._to_state))
    monkeypatch.setattr(State, "__init__", counted("State", State.__init__))
    monkeypatch.setattr(LevelScalar, "as_fraction",
                        counted("as_fraction", LevelScalar.as_fraction))
    dims = [len(ob.invariant_subspace(spec, action, 4))
            for spec, action in ((H1, O1), (H2, O2), (SL2, AD))]
    assert dims == [3, 3, 3] and calls == []
    vc.lie_act(SL2, AD.lie_generators[0], State.generator(0))
    assert "_to_state" in calls


def test_invariant_subspace_closed_under_circle_products():
    rng = random.Random(31)
    basis = []
    for w in (2, 3, 4, 5, 6):
        basis += ob.invariant_subspace(H2, O2, w)
    for _ in range(10):
        a, b = rng.choice(basis), rng.choice(basis)
        for n in (-2, -1, 0, 1, 2):
            prod = vc.circle_product(H2, a, n, b)
            if prod.is_zero():
                continue
            for rho in O2.lie_generators:
                assert vc.lie_act(H2, rho, prod).is_zero()
            for M in O2.finite_elements:
                assert vc.apply_group_element(H2, M, prod) == prod


# -- quadratic generators ----------------------------------------------------------


def test_omega_examples():
    assert ob.omega(1, 0, 0) == st(((0, 1), (0, 1)))
    # :da da: expands to the depth-2 squared monomial with unit coefficient
    assert ob.omega(1, 1, 1) == st(((0, 2), (0, 2)))
    assert ob.j_gen(1, 4) == ob.omega(1, 0, 4)
    assert vc.weight(ob.omega(2, 1, 3)) == 6
    assert vc.degree(ob.omega(2, 1, 3)) == 2
    with pytest.raises(ParityError):
        ob.j_gen(1, 3)


def test_omega_dictionary():
    d = ob.omega_dictionary(1, 6)
    assert set(d.symbols()) == {
        "Om[0,0]", "Om[0,1]", "Om[0,2]", "Om[1,1]", "Om[0,3]", "Om[1,2]",
        "Om[0,4]", "Om[1,3]", "Om[2,2]",
    }
    assert d["Om[1,3]"].weight == 6 and d["Om[1,3]"].degree == 2


def test_generator_dictionary_validation():
    d = ob.GeneratorDictionary(H1)
    mixed = ob.omega(1, 0, 0) + ob.omega(1, 0, 2)
    with pytest.raises(ValueError):
        d.add("mixed", mixed)


# -- formal polynomials and evaluation ------------------------------------------------


def test_evaluate_nop_examples():
    d = ob.omega_dictionary(1, 5)
    single = ob.FormalNOP({(("Om[0,0]", 0),): 1})
    assert ob.evaluate_nop(single, d) == ob.omega(1, 0, 0)
    dOm = ob.FormalNOP({(("Om[0,0]", 1),): 1})
    assert ob.evaluate_nop(dOm, d) == ob.omega(1, 0, 1).scale(2)
    with pytest.raises(KeyError):
        ob.evaluate_nop(ob.FormalNOP({(("Nope[0]", 0),): 1}), d)


def _reference_nops(d, max_weight, seed):
    """Formal polynomials over d with coefficients 1/(k+2), k^2 - 1, -3/2 and
    k, each with a constant term: a few monomials of every weight."""
    rng = random.Random(seed)
    coeffs = [ONE / (K + ONE.scale(2)), K * K - ONE, LevelScalar.from_fraction(Fraction(-3, 2)), K]
    for w in range(1, max_weight + 1):
        monos = ob.enumerate_nop_monomials(d, w, w)
        if monos:
            terms = {m: rng.choice(coeffs) for m in rng.sample(monos, min(6, len(monos)))}
            yield ob.FormalNOP({(): Fraction(5, 7), **terms})


@pytest.mark.parametrize("make, max_weight", [
    (lambda: ob.omega_dictionary(1, 8), 8),
    (lambda: ob.omega_dictionary(2, 6), 6),
    (lambda: _sl2_tilde_dictionary(), 7),
], ids=["omega-rank1", "omega-rank2", "sl2-tilde"])
def test_evaluate_nop_matches_per_term_reference(make, max_weight):
    # one conversion of all the terms' products gives the per-term sums
    d = make()
    nops = list(_reference_nops(d, max_weight, 27))
    assert nops
    for nop in nops:
        assert ob.evaluate_nop(nop, d) == dense_reference.evaluate_nop(nop, d)


def test_evaluate_nop_converts_once(monkeypatch):
    d = ob.omega_dictionary(1, 6)
    short = ob.FormalNOP({
        (("Om[0,0]", 0), ("Om[0,2]", 1)): K, (("Om[0,1]", 2),): ONE / (K + ONE), (): 3,
    })
    long = short + ob.FormalNOP({(("Om[0,0]", 0),) * 3: K * K})
    want = [dense_reference.evaluate_nop(nop, d) for nop in (short, long)]  # warms factor_state
    calls = []
    for name in ("_to_state", "circle_product"):
        def counted(*args, name=name, plain=getattr(vc, name)):
            calls.append(name)
            return plain(*args)
        monkeypatch.setattr(vc, name, counted)
    assert ob.evaluate_nop(short, d) == want[0]
    assert calls == ["_to_state"]
    calls.clear()
    # a longer monomial's :rest: is a Wick chain of its own, one product each
    assert ob.evaluate_nop(long, d) == want[1]
    assert sorted(calls) == ["_to_state", "_to_state", "circle_product"]


def test_lifted_nops_match_golden_file():
    # tests/golden/quantum-correction-r2.json was written at commit e89ab8b,
    # before graded stages were ClassicalPoly products: the lifted identity
    # depends on the candidate order and the pivots, which it pins
    out = []
    for I, J in [((0, 1, 2), (0, 1, 2)), ((0, 1, 2), (0, 1, 4))]:
        nop = ob.quantum_correction(det_relation(2, I, J), ob.omega_dictionary(2, 20))
        out.append({"n": 2, "I": list(I), "J": list(J), "lifted": nop.to_json()})
    golden = Path(__file__).parent / "golden" / "quantum-correction-r2.json"
    assert (json.dumps(out, indent=2) + "\n").encode() == golden.read_bytes()


def test_express_in_generators_rejects_weight_zero_generator():
    d = ob.GeneratorDictionary(H1)
    d.add("One", State.vacuum())
    d.add(ob.j_symbol(0), ob.j_gen(1, 0))
    with pytest.raises(ValueError, match=r"\('One', 0\) has weight 0"):
        ob.express_in_generators(ob.j_gen(1, 0), d, 2)
    # a graded stage too: the closure check passes over the vacuum,
    # whose derivative is zero, and the letters are refused as before
    with pytest.raises(ValueError, match=r"\('One', 0\) has weight 0"):
        ob.express_in_generators(ob.j_gen(1, 0), d, 2, graded=True)


def test_express_in_generators_examples():
    d = ob.GeneratorDictionary(H1)
    d.add("Om[0,0]", ob.omega(1, 0, 0))
    d.add("Om[0,2]", ob.omega(1, 0, 2))
    got = ob.express_in_generators(ob.omega(1, 1, 1), d, max_degree=4)
    want = ob.FormalNOP(
        {(("Om[0,0]", 2),): Fraction(1, 2), (("Om[0,2]", 0),): Fraction(-1)}
    )
    assert got == want
    # target already in the dictionary
    triv = ob.express_in_generators(ob.omega(1, 0, 2), d, max_degree=4)
    assert triv == ob.FormalNOP({(("Om[0,2]", 0),): 1})
    # no solution: the weight-4 generator is not generated by j^0 alone
    d0 = d.subset(["Om[0,0]"])
    assert ob.express_in_generators(ob.omega(1, 0, 2), d0, max_degree=4) is None


def test_readding_a_symbol_replaces_its_cached_states():
    d = ob.GeneratorDictionary(H1)
    d.add("A", ob.j_gen(1, 0))
    assert d.factor_state("A", 1) == vc.derivative(H1, ob.j_gen(1, 0))
    d.add("A", ob.j_gen(1, 2))
    assert d.factor_state("A", 1) == vc.derivative(H1, ob.j_gen(1, 2))
    assert ob.evaluate_nop(ob.FormalNOP({(("A", 1),): 1}), d) == vc.derivative(H1, ob.j_gen(1, 2))
    # a stage built before the symbol changed is not reused
    d = ob.GeneratorDictionary(H1).add("A", ob.omega(1, 0, 0))
    target = ob.omega(1, 0, 0).scale(2)
    assert ob.express_in_generators(target, d, 2) == ob.FormalNOP({(("A", 0),): 2})
    d.add("A", target)
    assert ob.express_in_generators(target, d, 2) == ob.FormalNOP({(("A", 0),): 1})


def _count_stage_work(monkeypatch):
    """Count the evaluate_nop and linalg.factor calls made from now on."""
    counts = {"evaluate_nop": 0, "factor": 0}

    def counted(name, owner):
        plain = getattr(owner, name)

        def wrapper(*args, **kw):
            counts[name] += 1
            return plain(*args, **kw)

        monkeypatch.setattr(owner, name, wrapper)

    counted("evaluate_nop", ob)
    counted("factor", linalg)
    return counts


def _assert_built_once(counts, graded):
    """One elimination; Wick evaluations only for a full stage, since a
    graded stage multiplies top components instead."""
    assert counts["factor"] == 1
    if not graded:
        assert counts["evaluate_nop"] > 0
    else:
        assert counts["evaluate_nop"] == 0


# (dictionary's max weight, max_degree, the degree of a graded stage or None
# for a full one, targets of one stage); the last stage has no solution for
# its first target
STAGES = [
    (6, 4, None, [
        ob.omega(1, 1, 3),
        vc.wick(H1, ob.omega(1, 0, 0), ob.omega(1, 0, 2)) + ob.omega(1, 2, 2).scale(K),
    ]),
    (6, 4, 4, [
        vc.wick(H1, ob.omega(1, 0, 0), ob.omega(1, 0, 2)).degree_component(4),
        vc.wick(H1, ob.omega(1, 0, 1), ob.omega(1, 0, 1)).degree_component(4).scale(K),
    ]),
    (2, 4, None, [ob.omega(1, 0, 2), vc.nth_derivative(H1, ob.omega(1, 0, 0), 2)]),
]


@pytest.mark.parametrize("max_weight, max_degree, graded_degree, targets", STAGES)
def test_express_in_generators_reuses_each_stage(
    monkeypatch, max_weight, max_degree, graded_degree, targets
):
    graded = graded_degree is not None
    assert graded_degree in (None, max_degree)
    fresh = [
        ob.express_in_generators(t, ob.omega_dictionary(1, max_weight), max_degree, graded)
        for t in targets
    ]
    if max_weight == 2:
        assert fresh[0] is None and fresh[1] is not None
    d = ob.omega_dictionary(1, max_weight)
    first, *rest = targets
    # the closure check's eliminations are made before the counts start
    d.closed_in_gr(vc.weight(first))
    counts = _count_stage_work(monkeypatch)
    assert ob.express_in_generators(first, d, max_degree, graded) == fresh[0]
    _assert_built_once(counts, graded)
    for target, want in zip(rest, fresh[1:]):
        counts.update(evaluate_nop=0, factor=0)
        assert ob.express_in_generators(target, d, max_degree, graded) == want
        assert counts == {"evaluate_nop": 0, "factor": 0}
    # adding a generator makes the next call build the stage again
    d.add("Extra", ob.omega(1, 0, 2))
    d.closed_in_gr(vc.weight(first))
    counts.update(evaluate_nop=0, factor=0)
    again = ob.express_in_generators(first, d, max_degree, graded)
    _assert_built_once(counts, graded)
    if max_weight == 2:
        assert again is not None


def test_closed_in_gr_omega_dictionary():
    # d Om[a,b] has top Om[a+1,b] + Om[a,b+1]; the weight-6 generators'
    # derivatives need weight-7 generators the dictionary does not have
    d = ob.omega_dictionary(1, 6)
    assert [d.closed_in_gr(w) for w in range(1, 8)] == [True] * 6 + [False]
    assert ob.omega_dictionary(2, 8).closed_in_gr(8)


def test_closed_in_gr_is_reset_by_add():
    d = ob.omega_dictionary(1, 6)
    assert not d.closed_in_gr(7)
    assert d._closure
    assert all(type(v) is bool for v in d._closure.values())
    for a in range(3):
        d.add(ob.omega_symbol(a, 5 - a), ob.omega(1, a, 5 - a))
    assert not d._closure
    assert d.closed_in_gr(7)


def test_exact_degree_stage_falls_back_when_not_closed():
    # dJ[0] has top 2 Om[0,1], which no J generator gives: without the
    # derivative letter D J[0] the stage would have no solution
    d = ob.j_dictionary(1, (0, 2))
    assert not d.closed_in_gr(3)
    target = vc.nth_derivative(H1, ob.j_gen(1, 0), 1).degree_component(2)
    assert ob.express_in_generators(target, d, 2, graded=True) == ob.FormalNOP(
        {((ob.j_symbol(0), 1),): 1})


def test_graded_stage_refuses_a_target_of_another_degree():
    # parts of degree 2 and 4: a graded stage takes one degree, its max_degree
    t = vc.wick(H1, ob.omega(1, 0, 0), ob.omega(1, 0, 2))
    for max_degree in (4, 2):
        with pytest.raises(ValueError, match=r"degree %d got target monomials of lengths \[2, 4\]"
                           % max_degree):
            ob.express_in_generators(t, ob.omega_dictionary(1, 6), max_degree, graded=True)
    # the degree-4 part alone is expressed
    top, d = t.degree_component(4), ob.omega_dictionary(1, 6)
    nop = ob.express_in_generators(top, d, 4, graded=True)
    assert ob.evaluate_nop(nop, d).degree_component(4) == top


def test_closed_exact_degree_stage_lists_no_derivative_letter():
    d = ob.omega_dictionary(1, 8)
    rel = det_relation(1, (0, 1), (0, 3))
    assert ob.evaluate_nop(ob.quantum_correction(rel, d), d).is_zero()
    graded = [cands for (_, _, g), (cands, _) in d._stages.items() if g]
    assert graded and all(graded)
    assert all(t == 0 for cands in graded for mono in cands for _, t in mono)
    # the same stage over a dictionary that is not closed keeps them
    j = ob.j_dictionary(1, (0, 2))
    top = ob.j_gen(1, 2).degree_component(2)
    assert ob.express_in_generators(top, j, 2, graded=True) is not None
    (cands, _), = j._stages.values()
    assert any(t for mono in cands for _, t in mono)


def _sl2_tilde_dictionary():
    d = ob.GeneratorDictionary(SL2)
    for sym, state in [("q00", ob.sl2_tilde_q(0, 0)), ("q01", ob.sl2_tilde_q(0, 1)),
                       ("q11", ob.sl2_tilde_q(1, 1)), ("c012", ob.sl2_tilde_c(0, 1, 2))]:
        d.add(sym, state)
    return d


def _sl2_bare_dictionary():
    d = ob.GeneratorDictionary(SL2)
    for i, sym in enumerate("xyh"):
        d.add(sym, State.generator(i))
    return d


@pytest.mark.parametrize("make, max_weight", [
    (lambda: ob.omega_dictionary(1, 8), 8),
    (lambda: ob.omega_dictionary(2, 6), 6),
    (_sl2_tilde_dictionary, 7),
    (_sl2_bare_dictionary, 4),
], ids=["omega-rank1", "omega-rank2", "sl2-tilde", "sl2-bare"])
def test_graded_product_matches_full_evaluation(monkeypatch, make, max_weight):
    # a graded stage column, the product of its letters' leading
    # symbols, is the leading symbol of the candidate's Wick evaluation, over Q
    d = make()
    factored = []
    plain = linalg.factor
    monkeypatch.setattr(linalg, "factor", lambda columns: factored.append(columns) or plain(columns))
    count = derivative_letters = 0
    for w in range(1, max_weight + 1):
        for deg in range(1, w + 1):
            monos = [m for m in ob.enumerate_nop_monomials(d, w, deg)
                     if d.monomial_degree(m) == deg]
            if not monos:
                continue
            top = ob.evaluate_nop(ob.FormalNOP({monos[0]: ONE}), d).degree_component(deg)
            ob.express_in_generators(top, d, deg, graded=True)
            candidates, _ = d._stages[w, deg, True]
            columns = factored[-1]  # the stage's own, after any closure check
            assert len(columns) == len(candidates) > 0
            for mono, column in zip(candidates, columns):
                full = ob.evaluate_nop(ob.FormalNOP({mono: ONE}), d)
                assert vc.degree(full) == deg
                assert column == vc.leading_symbol(full).terms, mono
                assert {type(c) for c in column.values()} <= {int, Fraction}, mono
                derivative_letters += any(t for _, t in mono)
                count += 1
    assert count > 0
    if make is _sl2_bare_dictionary:  # not closed in gr: derivative letters
        assert derivative_letters > 0


def _k_dependent_dictionary():
    """omega_dictionary(1, 6) with the top of Om[0,0] scaled by k + 1."""
    d = ob.omega_dictionary(1, 6)
    return d.add("Om[0,0]", ob.omega(1, 0, 0).scale(K + ONE))


def test_graded_stages_need_tops_constant_in_k():
    # a top scaled by k + 1 has no leading symbol over Q, so a graded stage
    # names the generator; a full stage and decouple still solve over Q(k)
    named = r"generator Om\[0,0\]: scalar .* is not constant in k"
    with pytest.raises(ValueError, match=named):
        ob.quantum_correction(det_relation(1, (0, 1), (0, 1)), _k_dependent_dictionary())
    target = vc.wick(H1, ob.omega(1, 0, 0), ob.omega(1, 0, 0)).degree_component(4)
    with pytest.raises(ValueError, match=named):
        ob.express_in_generators(target, _k_dependent_dictionary(), 4, graded=True)
    d = _k_dependent_dictionary()
    full = ob.express_in_generators(ob.omega(1, 1, 1), d.subset(["Om[0,0]", "Om[0,2]"]), 4)
    assert ob.evaluate_nop(full, d) == ob.omega(1, 1, 1)
    assert full.terms[("Om[0,0]", 2),] == ONE / (K + ONE).scale(2)
    res = ob.decouple(H1, O1, d.subset(["Om[0,0]", "Om[0,2]"]), ob.omega(1, 1, 1), 4)
    assert res.relation == full and res.excluded_levels == [Fraction(-1)]


def test_quantum_correction_evaluates_only_orderings_and_corrections(monkeypatch):
    # one full evaluation for the normal ordering and one per correction;
    # the stages it builds evaluate nothing
    rel = det_relation(1, (0, 1), (0, 1))
    d = ob.omega_dictionary(1, 6)
    d.closed_in_gr(6)  # the closure check's eliminations, before the counts start
    counts = _count_stage_work(monkeypatch)
    corrections = []
    plain = ob.express_in_generators

    def recorded(*args, **kw):
        corrections.append(plain(*args, **kw))
        return corrections[-1]

    monkeypatch.setattr(ob, "express_in_generators", recorded)
    lifted = ob.quantum_correction(rel, d)
    assert corrections and all(corrections)
    assert counts["evaluate_nop"] == 1 + len(corrections)
    assert counts["factor"] == len(corrections)
    assert lifted.terms


def test_quantum_correction_pipeline():
    rel = det_relation(1, (0, 1), (0, 1))
    d = ob.omega_dictionary(1, 6)
    lifted = ob.quantum_correction(rel, d)
    assert ob.evaluate_nop(lifted, d).is_zero()
    # top part is the normal ordering of the relation
    top = {m: c for m, c in lifted.terms.items() if len(m) == 2}
    assert top == {
        (("Om[0,0]", 0), ("Om[1,1]", 0)): ONE,
        (("Om[0,1]", 0), ("Om[0,1]", 0)): -ONE,
    }
    # degree-one tail projects to the remainder value (5/4 after k -> 1)
    tail = ob.FormalNOP({m: c for m, c in lifted.terms.items() if len(m) == 1})
    assert ob.pr_coefficient(tail, 4) == K.scale(Fraction(5, 4))
    # the classical image of the top part cancels exactly: substitute(rel) = 0
    evaluated_top = ob.evaluate_nop(ob.FormalNOP(top), d)
    assert evaluated_top.degree_component(4).is_zero()


def _factorial_adjusted_substitute(p, n):
    out = cl.ClassicalPoly.zero()
    for key, c in p.terms.items():
        term = cl.ClassicalPoly.constant(c)
        for sym in cl.letters(key):
            a, b = sym[1], sym[2]
            term = term * cl.weyl_q(n, a, b).scale(
                math.factorial(a) * math.factorial(b)
            )
        out = out + term
    return out


def test_normal_ordering_leading_symbol():
    # for a non-relation, the evaluated normal ordering has the classical
    # product as leading symbol, up to the derivative normalization
    p = cl.ClassicalPoly.q(0, 0) * cl.ClassicalPoly.q(1, 1)
    d = ob.omega_dictionary(2, 6)
    evaluated = ob.evaluate_nop(ob.normal_ordering(p), d)
    assert vc.leading_symbol(evaluated) == _factorial_adjusted_substitute(p, 2)


def test_quantum_correction_zero_relation():
    d = ob.omega_dictionary(1, 4)
    assert ob.quantum_correction(cl.ClassicalPoly.zero(), d) == ob.FormalNOP.zero()


def test_quantum_correction_stuck_without_heavier_generators():
    # the weight-6 degree-2 residue needs Om[a,b] with a + b = 4
    rel = det_relation(1, (0, 1), (0, 1))
    with pytest.raises(DescentStuck) as info:
        ob.quantum_correction(rel, ob.omega_dictionary(1, 4))
    assert info.value.degree == 2


def test_remainder_direct_shares_one_dictionary_per_rank():
    ob._OMEGA_CACHE.clear()
    for I, J in [((0, 1), (0, 1)), ((0, 1), (0, 3)), ((0, 2), (1, 3))]:
        # the same value as with a dictionary cut at the pair's own weight
        m = sum(I) + sum(J) + 2
        d = ob.omega_dictionary(1, m + 2)
        tail = ob.quantum_correction(det_relation(1, I, J), d).restrict_degree(d, 2)
        assert ob.remainder_direct(1, I, J) == ob.pr_coefficient(tail, m).evaluate_at(1)
    assert list(ob._OMEGA_CACHE) == [1]


def test_remainder_direct_allow_large_rebuilds_the_dictionary_once(monkeypatch):
    from voa.remainder import r1_closed_form

    ob._OMEGA_CACHE.clear()
    with pytest.raises(ResourceError, match="m = 20 exceeds the bound 18; pass allow_large=True"):
        ob.remainder_direct(1, (0, 9), (0, 9))
    assert ob.remainder_direct(1, (0, 1), (0, 3)) == r1_closed_form((0, 1), (0, 3))
    built = []
    plain = ob.omega_dictionary
    monkeypatch.setattr(ob, "omega_dictionary", lambda n, w: built.append(w) or plain(n, w))
    cases = [((0, 9), (0, 9)), ((0, 1), (0, 3)), ((1, 9), (0, 8)), ((0, 5), (0, 11))]
    for I, J in cases:
        got = ob.remainder_direct(1, I, J, allow_large=True)
        assert got == r1_closed_form(I, J), (I, J)
    # m = 20 rebuilt the rank's dictionary to weight 22; every later call reused it
    assert built == [22]
    assert ob.omega_symbol(0, 20) in ob._OMEGA_CACHE[1].entries


def test_each_letter_gets_one_leading_symbol(monkeypatch):
    calls = []
    plain = vc.leading_symbol
    monkeypatch.setattr(vc, "leading_symbol", lambda state: calls.append(state) or plain(state))
    d = ob.omega_dictionary(1, 10)
    for I, J in [((0, 1), (0, 1)), ((0, 1), (0, 3)), ((0, 2), (1, 3)), ((1, 2), (0, 3))]:
        ob.quantum_correction(det_relation(1, I, J), d)
    assert d.closed_in_gr(10)
    # closed_in_gr and every graded stage share the dictionary's symbols
    assert len(calls) == len(d._symbols) > 0
    assert d._symbol("Om[0,0]", 0) is d._symbols["Om[0,0]", 0]
    d.add(ob.omega_symbol(0, 10), ob.omega(1, 0, 10))
    assert not d._symbols


def test_pr_coefficient_examples():
    for m in (4, 6):
        assert ob.pr_coefficient(ob.FormalNOP({((f"Om[0,{m}]", 0),): 1}), m) == ONE
        assert ob.pr_coefficient(
            ob.FormalNOP({((f"Om[0,{m - 2}]", 2),): 1}), m
        ).is_zero()
        assert ob.pr_coefficient(ob.FormalNOP({((f"Om[1,{m - 1}]", 0),): 1}), m) == -ONE
        assert ob.pr_coefficient(ob.FormalNOP({((f"Om[2,{m - 2}]", 0),): 1}), m) == ONE
    with pytest.raises(ParityError):
        ob.pr_coefficient(ob.FormalNOP({(("Om[0,3]", 0),): 1}), 3)


def _projection_by_solve(m):
    """Om[a,b] = lambda(a,b) J^m modulo second derivatives, by a linear solve
    in the span of the weight-(m+2) quadratic symbols (a, b), a <= b."""

    def d_symbol(poly):
        out = {}
        for (a, b), c in poly.items():
            for key in ((a + 1, b), (a, b + 1)):
                key = (min(key), max(key))
                out[key] = out.get(key, Fraction(0)) + c
        return out

    columns = [{(0, m): Fraction(1)}]
    for c in range(0, (m - 2) // 2 + 1) if m >= 2 else ():
        columns.append(d_symbol(d_symbol({(c, m - 2 - c): Fraction(1)})))
    lambdas = {}
    for a in range(0, m // 2 + 1):
        sol = linalg.solve(columns, {(a, m - a): Fraction(1)}, Fraction(0))
        assert sol is not None
        lambdas[a] = sol[0]
    return lambdas


@pytest.mark.parametrize("m", range(0, 31, 2))
def test_pr_coefficient_matches_projection_solve(m):
    assert ob.REMAINDER_MAX_M <= 30  # the range covers every m remainder_direct allows
    for a, lam in _projection_by_solve(m).items():
        for sym in (f"Om[{a},{m - a}]", f"Om[{m - a},{a}]"):
            got = ob.pr_coefficient(ob.FormalNOP({((sym, 0),): 1}), m)
            assert got == ONE.scale(lam) and lam == (-1) ** a


def test_remainder_direct_examples():
    assert ob.remainder_direct(1, (0, 1), (0, 1)) == Fraction(5, 4)
    from voa.remainder import r1_closed_form

    assert ob.remainder_direct(1, (0, 1), (0, 3)) == r1_closed_form((0, 1), (0, 3))
    with pytest.raises(ParityError):
        ob.remainder_direct(1, (0, 2), (0, 1))
    with pytest.raises(ResourceError):
        ob.remainder_direct(1, (0, 9), (0, 9))


def _oracle_cases(n, max_m):
    """Every (I, J) with I <= J of length n + 1 and even m = |I| + |J| + 2n <= max_m."""
    lists = list(itertools.combinations(range(max_m), n + 1))
    return [(I, J) for I in lists for J in lists
            if I <= J and (sum(I) + sum(J)) % 2 == 0 and sum(I) + sum(J) + 2 * n <= max_m]


def test_remainder_direct_matches_recursion_up_to_m14():
    from voa.remainder import rn

    cases = [(n, I, J) for n in (1, 2) for I, J in _oracle_cases(n, 14)]
    assert len(cases) == 118
    for n, I, J in cases:
        assert ob.remainder_direct(n, I, J) == rn(n, I, J), (n, I, J)


@pytest.mark.slow
def test_remainder_direct_r3():
    # R_3 of Table 1, from scratch in the rank-3 Heisenberg algebra
    I = (0, 1, 2, 3)
    assert ob.remainder_direct(3, I, I) == Fraction(-2419, 705600)


@pytest.mark.slow
def test_remainder_direct_n2_diagonal():
    assert ob.remainder_direct(2, (0, 1, 2), (0, 1, 2)) == Fraction(149, 600)


@pytest.mark.slow
def test_remainder_direct_n2_off_diagonal_matches_recursion():
    # off-diagonal rank-2 cases probe the recursion's sign conventions against
    # the from-scratch computation, including the (I, J) symmetry
    from voa.remainder import rn

    for I, J in [((0, 1, 2), (0, 1, 4)), ((0, 2, 3), (0, 1, 2))]:
        direct = ob.remainder_direct(2, I, J)
        assert direct == rn(2, I, J)
        assert direct == ob.remainder_direct(2, J, I)


def test_decouple_examples():
    d = ob.GeneratorDictionary(H1)
    d.add(ob.j_symbol(0), ob.j_gen(1, 0))
    d.add(ob.j_symbol(2), ob.j_gen(1, 2))
    res = ob.decouple(H1, O1, d, ob.j_gen(1, 4), max_degree=6)
    assert res is not None
    assert ob.evaluate_nop(res.relation, d) == ob.j_gen(1, 4)
    assert res.excluded_levels == [Fraction(0)]
    # stability: a larger degree bound returns the same relation and roots
    res2 = ob.decouple(H1, O1, d, ob.j_gen(1, 4), max_degree=8)
    assert res2.relation == res.relation
    assert res2.excluded_levels == res.excluded_levels
    # trivial single-symbol relation
    triv = ob.decouple(H1, O1, d, ob.j_gen(1, 2), max_degree=4)
    assert triv.relation == ob.FormalNOP({((ob.j_symbol(2), 0),): 1})
    assert triv.excluded_levels == []
    # no solution is a value, not an error
    assert ob.decouple(H1, O1, d.subset([ob.j_symbol(0)]), ob.j_gen(1, 2)) is None


def test_decouple_rejects_noninvariant_target():
    d = ob.GeneratorDictionary(H1)
    d.add(ob.j_symbol(0), ob.j_gen(1, 0))
    odd = st(((0, 2), (0, 1), (0, 1)))
    with pytest.raises(ValueError, match="^target is not fixed by a finite group element$"):
        ob.decouple(H1, O1, d, odd, max_degree=4)
    # :a1 a1: is fixed by the reflection of O(2) but not by the rotation
    a1a1 = st(((0, 1), (0, 1)))
    assert vc.apply_group_element(H2, O2.finite_elements[0], a1a1) == a1a1
    d2 = ob.GeneratorDictionary(H2)
    d2.add(ob.j_symbol(0), ob.j_gen(2, 0))
    with pytest.raises(
        ValueError, match="^target is not invariant under the infinitesimal action$"
    ):
        ob.decouple(H2, O2, d2, a1a1, max_degree=4)
    d2.add("A", a1a1)
    with pytest.raises(
        ValueError, match=r"^generator A is not invariant under the infinitesimal action$"
    ):
        ob.decouple(H2, O2, d2, ob.j_gen(2, 2), max_degree=4)
    d.add("B", odd)
    with pytest.raises(ValueError, match="^generator B is not fixed by a finite group element$"):
        ob.decouple(H1, O1, d, ob.j_gen(1, 2), max_degree=4)


def test_sl2_tilde_generators():
    q = ob.sl2_tilde_q(0, 0)
    for rho in AD.lie_generators:
        assert vc.lie_act(SL2, rho, q).is_zero()
    assert vc.leading_symbol(q) == cl.sl2_q(0, 0)
    assert vc.leading_symbol(ob.sl2_tilde_q(1, 2)) == cl.sl2_q(1, 2).scale(2)
    c = ob.sl2_tilde_c(0, 1, 2)
    assert vc.weight(c) == 6
    assert vc.leading_symbol(c) == cl.sl2_c(0, 1, 2).scale(2)
    with pytest.raises(ValueError):
        ob.sl2_tilde_c(1, 0, 2)


def test_formal_nop_rendering_and_json():
    nop = ob.FormalNOP(
        {(("J[0]", 2),): Fraction(-7, 30), (("J[0]", 0), ("J[2]", 0)): ONE}
    )
    assert repr(nop) == "(1) * :J[0] J[2]: + (-7/30) * :D^2 J[0]:"
    assert nop.to_json() == [
        {"monomial": [["J[0]", 0], ["J[2]", 0]], "coeff": {"num": ["1"], "den": ["1"]}},
        {"monomial": [["J[0]", 2]], "coeff": {"num": ["-7/30"], "den": ["1"]}},
    ]
