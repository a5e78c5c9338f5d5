"""Named verification suites: one per acceptance-grade property family.

Each suite returns a SuiteResult with one Check per assertion group; the CLI
``verify`` command and the test suite both run these.  Randomized suites use
a fixed seed so output is byte-identical across runs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import classical as cl
from . import liedata, linalg, orbifold as ob, remainder as rm
from . import vertexcore as vc
from .scalars import K, LevelScalar, rational_to_str
from .terms import weighted_multisets
from .vertexcore import State

TABLE1_EXPECTED = [
    Fraction(5, 4),
    Fraction(149, 600),
    Fraction(-2419, 705600),
    Fraction(-67619, 18670176000),
    Fraction(1391081, 4879637199360000),
    Fraction(40984649, 25145492674607585280000),
]


@dataclass
class Check:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class SuiteResult:
    name: str
    checks: list = field(default_factory=list)

    def add(self, label, ok, detail=""):
        self.checks.append(Check(label, bool(ok), detail))

    @property
    def passed(self):
        return sum(1 for c in self.checks if c.ok)

    @property
    def failed(self):
        return sum(1 for c in self.checks if not c.ok)

    @property
    def ok(self):
        return self.failed == 0


# -- 1. Table reproduction ------------------------------------------------------


def suite_table1() -> SuiteResult:
    res = SuiteResult("table1")
    values = rm.table1(6)
    for (n, got), want in zip(values, TABLE1_EXPECTED):
        res.add(f"R_{n} = {want}", got == want, f"got {got}")
    return res


# -- 2. direct-vs-recursive remainder oracle -------------------------------------


def remainder_oracle_pairs():
    pairs = list(itertools.combinations(range(4), 2))
    for I in pairs:
        for J in pairs:
            if (sum(I) + sum(J)) % 2 == 0:
                yield I, J


def suite_remainder_oracle() -> SuiteResult:
    res = SuiteResult("remainder-oracle")
    cases = [(1, I, J) for I, J in remainder_oracle_pairs()]
    cases.append((2, (0, 1, 2), (0, 1, 2)))  # the rank-2 diagonal, R_2 of Table 1
    cases.append((3, (0, 1, 2, 3), (0, 1, 2, 3)))  # R_3 of Table 1
    for n, I, J in cases:
        direct = ob.remainder_direct(n, I, J)
        recursive = rm.rn(n, I, J)
        res.add(
            f"direct({I},{J}) = recursive = {recursive}",
            direct == recursive,
            f"direct {direct}",
        )
    return res


# -- 3. Sugawara -----------------------------------------------------------------


def central_charge(spec, h_dual) -> LevelScalar:
    """The Sugawara central charge dim * k / (k + h_dual)."""
    return K.scale(spec.dim) / (K + LevelScalar.from_fraction(h_dual))


def suite_sugawara(spec=None, h_dual=2) -> SuiteResult:
    res = SuiteResult("sugawara")
    spec = spec or liedata.sl2_spec()
    L = vc.sugawara(spec, h_dual)
    half_c = central_charge(spec, h_dual).scale(Fraction(1, 2))
    res.add(
        f"L o_3 L = ({spec.dim}k/(2(k+{rational_to_str(h_dual)}))) |0>",
        vc.circle_product(spec, L, 3, L) == State.vacuum(half_c),
    )
    res.add("L o_2 L = 0", vc.circle_product(spec, L, 2, L).is_zero())
    res.add("L o_1 L = 2L", vc.circle_product(spec, L, 1, L) == L.scale(2))
    res.add("L o_0 L = dL", vc.circle_product(spec, L, 0, L) == vc.derivative(spec, L))
    for g, label in enumerate(spec.labels):
        X = State.generator(g)
        res.add(f"L o_1 X^{label} = X^{label}", vc.circle_product(spec, L, 1, X) == X)
        for nn in (2, 3, 4):
            res.add(
                f"L o_{nn} X^{label} = 0",
                vc.circle_product(spec, L, nn, X).is_zero(),
            )
    return res


# -- 4. vertex-algebra axiom property suite ----------------------------------------


def _random_mono(rng, dim, max_weight):
    w = rng.randint(1, max_weight)
    factors = []
    while w > 0:
        d = rng.randint(1, w)
        factors.append((rng.randrange(dim), d))
        w -= d
    return tuple(sorted(factors, key=vc.factor_key))


_COEFF_POOL = [
    Fraction(1),
    Fraction(2),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-3),
]


def random_state(rng, spec, max_weight, homogeneous=False):
    terms = {}
    w = rng.randint(1, max_weight) if homogeneous else None
    for _ in range(rng.randint(1, 2)):
        mono = _random_mono(rng, spec.dim, w if w else max_weight)
        if homogeneous:
            while vc.mono_weight(mono) != w:
                mono = _random_mono(rng, spec.dim, w)
        c = LevelScalar.from_fraction(rng.choice(_COEFF_POOL))
        if rng.random() < 0.3:
            c = c * K
        terms[mono] = terms.get(mono, LevelScalar.from_fraction(0)) + c
    return State(terms)


#: the axiom suite's random draws: one seed, this many instances per algebra
AXIOMS_SEED = 20260811
AXIOMS_INSTANCES_PER_SPEC = 14


def suite_axioms() -> SuiteResult:
    res = SuiteResult("axioms")
    rng = random.Random(AXIOMS_SEED)
    inst = 0  # one instance = one law evaluated on one randomized input
    for spec in (liedata.abelian(2), liedata.sl2_spec()):
        # locality on generators: poles of order at most 2
        for i in range(spec.dim):
            for j in range(spec.dim):
                a, b = State.generator(i), State.generator(j)
                ok = all(
                    vc.circle_product(spec, a, n, b).is_zero() for n in range(2, 6)
                )
                inst += 4
                res.add(f"{spec.name}: locality({spec.labels[i]},{spec.labels[j]}) <= 2", ok)
        for it in range(AXIOMS_INSTANCES_PER_SPEC):
            a = random_state(rng, spec, 6)
            b = random_state(rng, spec, 6)
            c = random_state(rng, spec, 4)
            # vacuum laws
            vac = State.vacuum()
            ok = True
            for n in range(-3, 3):
                ok = ok and vc.circle_product(spec, vac, n, a) == (
                    a if n == -1 else State.zero()
                )
                inst += 1
            for n in range(-1, 3):
                ok = ok and vc.circle_product(spec, a, n, vac) == (
                    a if n == -1 else State.zero()
                )
                inst += 1
            res.add(f"{spec.name}#{it}: vacuum laws", ok)
            # translation laws
            da, db = vc.derivative(spec, a), vc.derivative(spec, b)
            ok = True
            for n in range(-3, 4):
                lhs = vc.derivative(spec, vc.circle_product(spec, a, n, b))
                rhs = vc.circle_product(spec, da, n, b) + vc.circle_product(spec, a, n, db)
                ok = ok and lhs == rhs
                ok = ok and vc.circle_product(spec, da, n, b) == vc.circle_product(
                    spec, a, n - 1, b
                ).scale(-n)
                inst += 2
            res.add(f"{spec.name}#{it}: translation laws", ok)
            # commutator formula
            ok = True
            for m in (0, 1, 2):
                for n in (-2, -1, 0, 1):
                    lhs = vc.circle_product(spec, a, m, vc.circle_product(spec, b, n, c))
                    lhs = lhs - vc.circle_product(
                        spec, b, n, vc.circle_product(spec, a, m, c)
                    )
                    rhs = State.sum(
                        vc.circle_product(
                            spec, vc.circle_product(spec, a, i, b), m + n - i, c
                        ).scale(math.comb(m, i))
                        for i in range(m + 1)
                    )
                    ok = ok and lhs == rhs
                    inst += 1
            res.add(f"{spec.name}#{it}: commutator formula", ok)
            # weight additivity on homogeneous states
            ha = random_state(rng, spec, 5, homogeneous=True)
            hb = random_state(rng, spec, 5, homogeneous=True)
            wa, wb = vc.weight(ha), vc.weight(hb)
            ok = True
            for n in range(-2, wa + wb):
                prod = vc.circle_product(spec, ha, n, hb)
                if not prod.is_zero():
                    ok = ok and vc.weight(prod) == wa + wb - n - 1
                inst += 1
            res.add(f"{spec.name}#{it}: weight additivity", ok)
            # filtration bounds
            dga, dgb = vc.degree(a), vc.degree(b)
            ok = True
            for n in range(-3, 4):
                prod = vc.circle_product(spec, a, n, b)
                bound = dga + dgb if n < 0 else dga + dgb - 1
                ok = ok and vc.degree(prod) <= bound
                inst += 1
            res.add(f"{spec.name}#{it}: filtration bounds", ok)
    res.add("instance count >= 200", inst >= 200, f"{inst} instances")
    return res


# -- 5. classical relation suite -----------------------------------------------------


#: the seed of the classical suite's random polarization inputs
CLASSICAL_SEED = 4071


def suite_classical() -> SuiteResult:
    res = SuiteResult("classical")
    for n in (1, 2, 3):
        bad = []
        total = 0
        for I in itertools.combinations(range(6), n + 1):
            for J in itertools.combinations(range(6), n + 1):
                total += 1
                if not cl.substitute(cl.det_relation(n, I, J), n).is_zero():
                    bad.append((I, J))
        res.add(
            f"determinant relations vanish (n={n}, {total} pairs)",
            not bad,
            f"failures {bad[:3]}",
        )
        # the control: in n + 1 families the same substitution is not zero
        control = cl.substitute(cl.det_relation(n, range(n + 1), range(n + 1)), n + 1)
        res.add(f"determinant relation survives {n + 1} families (n={n}, control)",
                not control.is_zero(), "the substitution gave zero")
    bad = []
    for idx in itertools.product(range(4), repeat=5):
        if not cl.substitute_sl2(cl.sl2_relation_type1(*idx)).is_zero():
            bad.append(idx)
    res.add("sl2 type-1 relations vanish (4^5 tuples)", not bad, f"failures {bad[:3]}")
    bad = []
    for idx in itertools.product(range(4), repeat=6):
        if not cl.substitute_sl2(cl.sl2_relation_type2(*idx)).is_zero():
            bad.append(idx)
    res.add("sl2 type-2 relations vanish (4^6 tuples)", not bad, f"failures {bad[:3]}")

    rng = random.Random(CLASSICAL_SEED)
    o3 = liedata.orthogonal_action(3)
    ad = liedata.adjoint_action(liedata.sl2_spec())
    bad = []
    for it in range(50):
        if it % 2 == 0:
            p = cl.weyl_q(3, rng.randint(0, 2), rng.randint(0, 2))
            if rng.random() < 0.5:
                p = p * cl.weyl_q(3, rng.randint(0, 2), rng.randint(0, 2))
            action = o3
        else:
            p = cl.sl2_q(rng.randint(0, 2), rng.randint(0, 2))
            if rng.random() < 0.4:
                p = p * cl.sl2_c(0, 1, 2)
            action = ad
        r, s = rng.randint(0, 3), rng.randint(0, 3)
        if not cl.lie_invariance_check(action, p):
            bad.append((it, "input not invariant"))
            continue
        if not cl.lie_invariance_check(action, cl.polarization(r, s, p)):
            bad.append((it, f"polarization({r},{s}) broke invariance"))
    res.add("polarization preserves invariance (50 random)", not bad, f"failures {bad[:3]}")
    return res


# -- 6. invariant dimension agreement ---------------------------------------------------


def classical_graded_dimension(n: int, w: int) -> int:
    """dim of the weight-w piece of the q-generated ring, via substitution rank."""
    syms = [(a, tot - 2 - a) for tot in range(2, w + 1) for a in range(0, (tot - 2) // 2 + 1)]
    monos = weighted_multisets(syms, [a + b + 2 for a, b in syms], w)
    return linalg.rank([
        math.prod((cl.weyl_q(n, a, b) for a, b in mono), start=cl.ClassicalPoly.constant(1)).terms
        for mono in monos
    ])


def suite_invariant_dims() -> SuiteResult:
    res = SuiteResult("invariant-dims")
    for n, top in ((1, 8), (2, 8), (3, 6), (4, 5)):
        spec, action = liedata.abelian(n), liedata.orthogonal_action(n)
        for w in range(0, top + 1):
            quantum = len(ob.invariant_subspace(spec, action, w))
            classic = classical_graded_dimension(n, w)
            res.add(f"rank {n} w={w}: dim {quantum}", quantum == classic, f"classical {classic}")
    return res


# -- 7. decoupling existence ---------------------------------------------------------


def suite_decoupling() -> SuiteResult:
    res = SuiteResult("decoupling")
    spec = liedata.abelian(1)
    action = liedata.orthogonal_action(1)
    d = ob.GeneratorDictionary(spec)
    d.add(ob.j_symbol(0), ob.j_gen(1, 0))
    d.add(ob.j_symbol(2), ob.j_gen(1, 2))
    found = ob.decouple(spec, action, d, ob.j_gen(1, 4), max_degree=6)
    res.add("j^4 decouples in {j^0, j^2} at weight 6", found is not None)
    if found is not None:
        evaluated = ob.evaluate_nop(found.relation, d)
        res.add("relation evaluates back to j^4", evaluated == ob.j_gen(1, 4))
    none = ob.decouple(
        spec, action, d.subset([ob.j_symbol(0)]), ob.j_gen(1, 2), max_degree=4
    )
    res.add("j^2 has no relation over {j^0} at weight 4", none is None)
    return res


# -- 8. sl2 orbifold generators ---------------------------------------------------------


def sl2_generator_rows(q_weight: int, c_weight: int) -> list:
    """(name, weight, invariant, leading symbol ok) for every Qt[i,j] of weight
    at most q_weight, then every Ct[k,l,m] of weight at most c_weight."""
    spec = liedata.sl2_spec()
    action = liedata.adjoint_action(spec)

    def row(name, weight, state, symbol):
        inv = all(vc.lie_act(spec, rho, state).is_zero() for rho in action.lie_generators)
        return name, weight, inv, vc.leading_symbol(state) == symbol

    rows = []
    for i in range(0, q_weight - 1):
        for j in range(i, q_weight - 1 - i):
            want = cl.sl2_q(i, j).scale(math.factorial(i) * math.factorial(j))
            rows.append(row(f"Qt[{i},{j}]", i + j + 2, ob.sl2_tilde_q(i, j), want))
    for k, l, m in itertools.combinations(range(c_weight), 3):
        if k + l + m + 3 <= c_weight:
            want = cl.sl2_c(k, l, m).scale(
                math.factorial(k) * math.factorial(l) * math.factorial(m)
            )
            rows.append(row(f"Ct[{k},{l},{m}]", k + l + m + 3, ob.sl2_tilde_c(k, l, m), want))
    return rows


def suite_sl2_orbifold() -> SuiteResult:
    res = SuiteResult("sl2-orbifold")
    for name, _, inv, sym in sl2_generator_rows(6, 8):
        res.add(f"{name} invariant", inv)
        res.add(f"{name} leading symbol", sym)
    return res


# -- registry ------------------------------------------------------------------------

ACCEPTANCE_SUITES = {
    "table1": suite_table1,
    "remainder-oracle": suite_remainder_oracle,
    "sugawara": suite_sugawara,
    "axioms": suite_axioms,
    "classical": suite_classical,
    "invariant-dims": suite_invariant_dims,
    "decoupling": suite_decoupling,
    "sl2-orbifold": suite_sl2_orbifold,
}


def run_suite(name: str) -> SuiteResult:
    if name not in ACCEPTANCE_SUITES:
        raise KeyError(
            f"unknown suite {name!r}; have {', '.join(ACCEPTANCE_SUITES)}, all"
        )
    return ACCEPTANCE_SUITES[name]()


def run_all():
    return [fn() for fn in ACCEPTANCE_SUITES.values()]
