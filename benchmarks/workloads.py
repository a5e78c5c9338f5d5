"""One cold run of one benchmark workload, in the current (fresh) interpreter.

    python3 benchmarks/workloads.py <workload> --seed N [--setup-only]
                                     [--probe] [--trace-out FILE] [--cpu CPU]

The run builds its inputs (set-up), runs the workload's computations in one
timed region, reads the process's peak resident set, and only then checks
every output against an independent reference.  It prints one JSON object
as its last line of standard output:

    {"setup_end": <CLOCK_MONOTONIC seconds>, "wall_s": ..., "probe_mean_s": ...,
     "probe_samples": ..., "peak_rss_mb": ..., "attempted": ..., "failed": ...,
     "correct": ..., "errors": [...], "layers": {...}}

``setup_end`` is read on the system-wide monotonic clock, so the parent can
subtract the moment it started this process.  With ``--probe`` a fixed
loop that does not use ``voa`` (``probe_loop``) runs from a timer signal
every ``PROBE_PERIOD_S`` of the timed region; ``probe_mean_s`` is its mean
time, a measure of how fast this CPU ran the interpreter meanwhile, and
``wall_s`` is the timed region minus the time spent in the probe.  With
``--setup-only --probe`` the loop runs ``PROBE_BURST`` times in a row right
after the set-up, and ``probe_mean_s`` is their mean.
``layers`` is present only with ``--trace-out``, which wraps the program's
public functions (see ``tracing.py``) and writes the recorded spans to FILE.

Every operation runs inside its own ``try``: an operation that raises counts
as failed and is left out of the checks.  No operation of any workload is
expected to fail, so ``correct`` is true only when none failed and every
one gave the right answer; a program that fails fast cannot read as fast.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import random
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

# Table 1 of arXiv:1011.2281: R_n at I = J = (0, 1, ..., n).
PAPER_TABLE1 = {
    1: Fraction(5, 4),
    2: Fraction(149, 600),
    3: Fraction(-2419, 705600),
    4: Fraction(-67619, 18670176000),
    5: Fraction(1391081, 4879637199360000),
    6: Fraction(40984649, 25145492674607585280000),
}

#: the monomials of the engine's law states are those of the acceptance
#: family (``verify.suite_axioms`` at its default seed, 14 instances per
#: spec); --seed rescales every coefficient, so the program sees new inputs
#: of the same size.  The laws run on the first ENGINE_LAW_INSTANCES of
#: each spec: the whole family takes 14-19 s per process, too long to repeat
ENGINE_SHAPE_SEED = 20260811
ENGINE_INSTANCES_PER_SPEC = 14
ENGINE_LAW_INSTANCES = 7
ENGINE_SCALES = [Fraction(s) for s in ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "-3", "2/3", "-3/2")]

SCAN_N = (3, 4, 5)
SCAN_EXTRA = 2  # scan_f(n, n + SCAN_EXTRA): two values of a per scan

#: 57 rank-1 pairs; the direct computation's own cap (m <= 14) gives 104
#: pairs and about three times the time, which a run cannot repeat enough
RANK1_MAX_M = 12
RANK2_CASES = [((0, 1, 2), (0, 1, 2)), ((0, 1, 2), (0, 1, 4))]
DECOUPLE_TARGETS = (4, 6, 8)  # j^m over {j^0, j^2}, degree bound m + 2

#: index ranges of the relation families; verify.suite_classical uses
#: range(6) for the determinantal and range(4) for the sl2 type-2 family,
#: about 8 s more per process than a run can repeat
DET_INDICES = range(5)
SL2_TYPE2_INDICES = range(3)
#: highest weight of the invariant dimensions, per rank.  Rank 2 at weight
#: 10 (a dense 718 x 481 kernel) alone takes 7-9 s and moved by a third
#: between runs, more than any other operation
DIMS_MAX_WEIGHT = {1: 10, 2: 9}


class Ops:
    """Runs operations, counting attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.results = []  # (label, value) of the operations that returned

    def run(self, label, fn, *args, **kw):
        self.attempted += 1
        try:
            value = fn(*args, **kw)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        self.results.append((label, value))
        return value


#: the probe fires every PROBE_PERIOD_S of wall time during the timed region;
#: a set-up-only process runs it PROBE_BURST times right after its set-up
PROBE_PERIOD_S = 0.005
PROBE_BURST = 200


def probe_loop():
    """A fixed piece of interpreter work like the program's, that does not
    use ``voa``: ``Fraction`` arithmetic, small sorted tuples as dict keys.
    About 0.44 ms on an idle 2-vCPU Xeon VM."""
    acc = Fraction(0)
    counts = {}
    for i in range(1, 60):
        acc += Fraction(i, i + 7) * Fraction(2 * i + 1, 3 * i + 5) - Fraction(1, i)
        key = tuple(sorted((i % 5, i % 3, i % 7)))
        counts[key] = counts.get(key, 0) + 1
    return acc


class Probe:
    """Runs ``probe_loop`` from SIGALRM every PROBE_PERIOD_S and keeps its times.

    Other load on the machine slows this CPU by 10-60 % in spells of seconds
    to minutes, and slows the probe and the workload alike, so the workload's
    time over the probe's mean time repeats where either time alone does not.
    The collector is off inside the probe, so a collection the workload's
    heap would cost is never charged to the probe.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0  # seconds in the handler, taken out of the wall time

    def _fire(self, signum, frame):
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        t1 = time.perf_counter()
        probe_loop()
        self.samples.append(time.perf_counter() - t1)
        if collecting:
            gc.enable()
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Checks:
    def __init__(self):
        self.bad = []

    def expect(self, ok, what):
        if not ok:
            self.bad.append(what)


# -- recursion: Table 1 from a cold memo, then zero-scans -----------------------


def setup_recursion(seed):
    from voa import remainder

    diagonals = [(n, tuple(range(n + 1))) for n in range(1, 7)]
    return {"remainder": remainder, "diagonals": diagonals}


def run_recursion(inp, ops):
    rm = inp["remainder"]
    for n, diag in inp["diagonals"]:
        ops.run(("rn", n), rm.rn, n, diag, diag)
    for n in SCAN_N:
        ops.run(("scan", n), rm.scan_f, n, n + SCAN_EXTRA)


def check_recursion(inp, ops, checks):
    rm = inp["remainder"]
    for (kind, n), value in ops.results:
        if kind == "rn":
            checks.expect(value == PAPER_TABLE1[n], f"R_{n} = {value}, paper {PAPER_TABLE1[n]}")
        else:
            want_bound = (n * n + 3 * n) // 2
            checks.expect(
                value.first_nonzero == n and value.bound_m == want_bound,
                f"scan n={n}: first nonzero {value.first_nonzero}, bound {value.bound_m}",
            )
    # determinant semantics, recomputed without the memo (n = 4 takes 0.8 s)
    for n in (2, 3):
        I = tuple(range(n + 1))
        J = tuple(range(n)) + (n + 2,)
        base = rm.rn(n, I, J, memoize=False)
        swapped = (I[1], I[0]) + I[2:]
        checks.expect(base != 0, f"R_{n}({I},{J}) is zero")
        checks.expect(rm.rn(n, swapped, J, memoize=False) == -base, f"R_{n}: swap does not negate")
        checks.expect(rm.rn(n, J, I, memoize=False) == base, f"R_{n}: (I, J) not symmetric")


# -- descent: direct remainders and decoupling relations -------------------------


def rank1_pairs():
    """Every (I, J) with I <= J whose weight index m = |I| + |J| + 2 is even
    and at most RANK1_MAX_M."""
    pairs = list(itertools.combinations(range(RANK1_MAX_M - 1), 2))
    return [
        (I, J)
        for I in pairs
        for J in pairs
        if I <= J and (sum(I) + sum(J)) % 2 == 0 and sum(I) + sum(J) + 2 <= RANK1_MAX_M
    ]


def setup_descent(seed):
    from voa import liedata, orbifold

    spec = liedata.abelian(1)
    dictionary = orbifold.GeneratorDictionary(spec)
    dictionary.add(orbifold.j_symbol(0), orbifold.j_gen(1, 0))
    dictionary.add(orbifold.j_symbol(2), orbifold.j_gen(1, 2))
    targets = [(m, orbifold.j_gen(1, m)) for m in DECOUPLE_TARGETS]
    return {
        "orbifold": orbifold,
        "rank1": rank1_pairs(),
        "spec": spec,
        "action": liedata.orthogonal_action(1),
        "dictionary": dictionary,
        "targets": targets,
    }


def run_descent(inp, ops):
    ob = inp["orbifold"]
    for I, J in inp["rank1"]:
        ops.run(("direct", 1, I, J), ob.remainder_direct, 1, I, J)
    for I, J in RANK2_CASES:
        ops.run(("direct", 2, I, J), ob.remainder_direct, 2, I, J)
    for m, target in inp["targets"]:
        ops.run(
            ("decouple", m, target), ob.decouple, inp["spec"], inp["action"],
            inp["dictionary"], target, max_degree=m + 2,
        )


def check_descent(inp, ops, checks):
    from voa import remainder

    ob = inp["orbifold"]
    for label, value in ops.results:
        if label[0] == "direct":
            _, n, I, J = label
            want = remainder.rn(n, I, J)
            checks.expect(value == want, f"direct R_{n}({I},{J}) = {value}, recursion {want}")
            continue
        _, m, target = label
        if value is None:
            checks.expect(False, f"j^{m} found no decoupling relation")
            continue
        back = ob.evaluate_nop(value.relation, inp["dictionary"])
        checks.expect(back == target, f"j^{m}: relation does not evaluate to its target")
        dens = [c.den for c in value.relation.terms.values()]
        for q in value.excluded_levels:
            checks.expect(
                any(d.evaluate(q) == 0 for d in dens),
                f"j^{m}: excluded level {q} is no root of a denominator",
            )


# -- engine: vertex-algebra laws and the Sugawara vector -------------------------


def setup_engine(seed):
    from voa import liedata, verify, vertexcore
    from voa.vertexcore import State

    shapes = random.Random(ENGINE_SHAPE_SEED)
    coeffs = random.Random(seed)

    def draw(spec, max_weight, homogeneous=False):
        st = verify.random_state(shapes, spec, max_weight, homogeneous=homogeneous)
        return State({m: c.scale(coeffs.choice(ENGINE_SCALES)) for m, c in sorted(st.terms.items())})

    families = []
    for spec in (liedata.abelian(2), liedata.sl2_spec()):
        instances = []
        for _ in range(ENGINE_INSTANCES_PER_SPEC):
            # same draw order as verify.suite_axioms: a, b, c, then ha, hb
            a, b, c = draw(spec, 6), draw(spec, 6), draw(spec, 4)
            ha, hb = draw(spec, 5, True), draw(spec, 5, True)
            instances.append((a, b, c, ha, hb))
        families.append((spec, instances[:ENGINE_LAW_INSTANCES]))
    return {"vc": vertexcore, "State": State, "liedata": liedata, "families": families}


def run_engine(inp, ops):
    vc, State = inp["vc"], inp["State"]
    cp = vc.circle_product
    for spec, instances in inp["families"]:
        name = spec.name
        for i in range(spec.dim):
            for j in range(spec.dim):
                a, b = State.generator(i), State.generator(j)
                for n in range(2, 6):
                    ops.run(("zero", name), cp, spec, a, n, b)
        for a, b, c, ha, hb in instances:
            vac = State.vacuum()
            for n in range(-3, 3):
                want = a if n == -1 else State.zero()
                ops.run(("equal", name), lambda n=n, want=want: (cp(spec, vac, n, a), want))
            for n in range(-1, 3):
                want = a if n == -1 else State.zero()
                ops.run(("equal", name), lambda n=n, want=want: (cp(spec, a, n, vac), want))
            derivatives = ops.run(("derivative",), lambda a=a, b=b: (
                vc.derivative(spec, a), vc.derivative(spec, b)
            ))
            da, db = derivatives or (None, None)  # None makes the laws fail
            for n in range(-3, 4):
                ops.run(("equal", name), lambda n=n: (
                    vc.derivative(spec, cp(spec, a, n, b)),
                    cp(spec, da, n, b) + cp(spec, a, n, db),
                ))
                ops.run(("equal", name), lambda n=n: (
                    cp(spec, da, n, b), cp(spec, a, n - 1, b).scale(-n)
                ))
            for m in (0, 1, 2):
                for n in (-2, -1, 0, 1):
                    ops.run(("equal", name), _commutator, vc, spec, a, b, c, m, n)
            wa, wb = vc.weight(ha), vc.weight(hb)
            for n in range(-2, wa + wb):
                ops.run(("weight", name, wa + wb - n - 1), cp, spec, ha, n, hb)
            dga, dgb = vc.degree(a), vc.degree(b)
            for n in range(-3, 4):
                bound = dga + dgb if n < 0 else dga + dgb - 1
                ops.run(("degree", name, bound), cp, spec, a, n, b)
    sl2 = inp["liedata"].sl2_spec()
    L = ops.run(("sugawara",), vc.sugawara, sl2, 2)
    if L is None:
        return
    ops.run(("central", L), cp, sl2, L, 3, L)
    ops.run(("zero", "sugawara"), cp, sl2, L, 2, L)
    ops.run(("equal", "sugawara"), lambda: (cp(sl2, L, 1, L), L.scale(2)))
    ops.run(("equal", "sugawara"), lambda: (cp(sl2, L, 0, L), vc.derivative(sl2, L)))
    for g in range(sl2.dim):
        X = State.generator(g)
        ops.run(("equal", "sugawara"), lambda X=X: (cp(sl2, L, 1, X), X))
        for n in (2, 3, 4):
            ops.run(("zero", "sugawara"), cp, sl2, L, n, X)


def _commutator(vc, spec, a, b, c, m, n):
    """Both sides of [a_m, b_n] c = sum_i binom(m, i) (a_i b)_{m+n-i} c."""
    cp = vc.circle_product
    lhs = cp(spec, a, m, cp(spec, b, n, c)) - cp(spec, b, n, cp(spec, a, m, c))
    rhs = vc.State.zero()
    for i in range(m + 1):
        rhs = rhs + cp(spec, cp(spec, a, i, b), m + n - i, c).scale(math.comb(m, i))
    return lhs, rhs


def check_engine(inp, ops, checks):
    from voa.scalars import K, LevelScalar

    vc, State = inp["vc"], inp["State"]
    central = K.scale(Fraction(3, 2)) / (K + LevelScalar.from_fraction(2))
    for label, value in ops.results:
        kind = label[0]
        if kind == "zero":
            checks.expect(value.is_zero(), f"{label[1]}: expected a zero product")
        elif kind == "equal":
            lhs, rhs = value
            checks.expect(lhs == rhs, f"{label[1]}: law does not hold")
        elif kind == "weight":
            checks.expect(
                value.is_zero() or vc.weight(value) == label[2],
                f"{label[1]}: weight {vc.weight(value)} != {label[2]}",
            )
        elif kind == "degree":
            checks.expect(vc.degree(value) <= label[2], f"{label[1]}: degree above {label[2]}")
        elif kind == "central":
            checks.expect(value == State.vacuum(central), "L o_3 L != (3k/(2(k+2)))|0>")
        # "derivative" and "sugawara" results are inputs of the laws above


# -- classical: relation families, polarization, invariant dimensions -----------


def setup_classical(seed):
    from voa import classical as cl, liedata, orbifold, verify

    det = [
        (n, I, J)
        for n in (1, 2, 3)
        for I in itertools.combinations(DET_INDICES, n + 1)
        for J in itertools.combinations(DET_INDICES, n + 1)
    ]
    rng = random.Random(seed)
    o3 = liedata.orthogonal_action(3)
    ad = liedata.adjoint_action(liedata.sl2_spec())
    polar = []
    for it in range(50):  # the input families of verify.suite_classical
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
        polar.append((action, p, rng.randint(0, 3), rng.randint(0, 3)))
    dims = [
        (n, liedata.abelian(n), liedata.orthogonal_action(n), w)
        for n, top in DIMS_MAX_WEIGHT.items()
        for w in range(top + 1)
    ]
    return {"cl": cl, "orbifold": orbifold, "verify": verify, "det": det, "polar": polar, "dims": dims}


def run_classical(inp, ops):
    cl, ob, verify = inp["cl"], inp["orbifold"], inp["verify"]
    for n, I, J in inp["det"]:
        ops.run(("vanish",), lambda n=n, I=I, J=J: cl.substitute(cl.det_relation(n, I, J), n))
    for idx in itertools.product(range(4), repeat=5):
        ops.run(("vanish",), lambda idx=idx: cl.substitute_sl2(cl.sl2_relation_type1(*idx)))
    for idx in itertools.product(SL2_TYPE2_INDICES, repeat=6):
        ops.run(("vanish",), lambda idx=idx: cl.substitute_sl2(cl.sl2_relation_type2(*idx)))
    for action, p, r, s in inp["polar"]:
        ops.run(("invariant",), lambda action=action, p=p, r=r, s=s: (
            cl.lie_invariance_check(action, p),
            cl.lie_invariance_check(action, cl.polarization(r, s, p)),
        ))
    for n, spec, action, w in inp["dims"]:
        ops.run(("dims", n, w), lambda spec=spec, action=action, n=n, w=w: (
            len(ob.invariant_subspace(spec, action, w)),
            verify.classical_graded_dimension(n, w),
        ))


def check_classical(inp, ops, checks):
    for label, value in ops.results:
        if label[0] == "vanish":
            checks.expect(value.is_zero(), "a classical relation does not vanish")
        elif label[0] == "invariant":
            checks.expect(value == (True, True), f"polarization invariance {value}")
        else:
            checks.expect(value[0] == value[1], f"rank {label[1]} weight {label[2]}: dims {value}")


WORKLOADS = {
    "recursion": (setup_recursion, run_recursion, check_recursion),
    "descent": (setup_descent, run_descent, check_descent),
    "engine": (setup_engine, run_engine, check_engine),
    "classical": (setup_classical, run_classical, check_classical),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probe", action="store_true", help="time the probe loop meanwhile")
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--cpu", type=int, default=None, help="pin this process to one CPU")
    args = ap.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    setup, run, check = WORKLOADS[args.workload]
    inputs = setup(args.seed)
    setup_end = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = {"setup_end": setup_end}
    if args.setup_only:
        if args.probe:
            samples = []
            for _ in range(PROBE_BURST):
                t = time.perf_counter()
                probe_loop()
                samples.append(time.perf_counter() - t)
            out["probe_mean_s"] = sum(samples) / len(samples)
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    probe = Probe()
    if args.probe:
        probe.start()
    ops = Ops()
    t0 = time.perf_counter()
    run(inputs, ops)
    wall = time.perf_counter() - t0
    probe.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        tracer.write(args.trace_out)

    checks = Checks()
    check(inputs, ops, checks)
    out.update(
        wall_s=wall - probe.spent,
        probe_mean_s=sum(probe.samples) / len(probe.samples) if probe.samples else None,
        probe_samples=len(probe.samples),
        peak_rss_mb=peak_kb / 1024,
        attempted=ops.attempted,
        failed=ops.failed,
        correct=not checks.bad and not ops.failed,
        errors=(ops.errors + checks.bad)[:20],
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
