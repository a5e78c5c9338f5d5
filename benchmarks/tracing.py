"""Spans around the calls into the program's public functions.

The tracer replaces module attributes and class methods of ``voa`` with
wrappers for the duration of one traced run; the program's own files are
not changed.  Every wrapped call pushes a frame; on return the frame's
duration, and its self time (duration minus the time of the wrapped calls
nested inside it), are added to the totals of its name.

Calls of the coarse functions are also kept as spans in memory, as
``[id, name, start, end, parent span id, operation id]`` rows written out
by ``write``.  The operation id is shared by every span under one top-level
call.  The hot functions (scalar arithmetic, circle products, Wick chains,
classical products), called millions of times, are counted and timed but
not kept as spans, so that the trace stays small.
"""

from __future__ import annotations

import json
import time

# (module, attribute path, metric prefix, keep spans)
TARGETS = [
    ("remainder", "rn", "remainder.rn", True),
    ("remainder", "scan_f", "remainder.scan_f", True),
    ("orbifold", "remainder_direct", "orbifold.remainder_direct", True),
    ("orbifold", "quantum_correction", "orbifold.quantum_correction", True),
    ("orbifold", "express_in_generators", "orbifold.express_in_generators", True),
    ("orbifold", "enumerate_nop_monomials", "orbifold.enumerate_nop_monomials", True),
    ("orbifold", "evaluate_nop", "orbifold.evaluate_nop", True),
    ("orbifold", "pr_coefficient", "orbifold.pr_coefficient", True),
    ("orbifold", "decouple", "orbifold.decouple", True),
    ("orbifold", "invariant_subspace", "orbifold.invariant_subspace", True),
    ("linalg", "solve", "linalg.solve", True),
    ("linalg", "kernel_basis", "linalg.kernel_basis", True),
    ("linalg", "rank", "linalg.rank", True),
    ("vertexcore", "circle_product", "vertexcore.circle_product", False),
    ("vertexcore", "derivative", "vertexcore.derivative", False),
    ("vertexcore", "wick_chain", "vertexcore.wick_chain", False),
    ("vertexcore", "lie_act", "vertexcore.lie_act", False),
    ("vertexcore", "apply_group_element", "vertexcore.apply_group_element", False),
    ("scalars", "LevelScalar.__mul__", "scalars.mul", False),
    ("scalars", "LevelScalar.__add__", "scalars.add", False),
    ("scalars", "poly_gcd", "scalars.gcd", False),
    ("classical", "substitute", "classical.substitute", False),
    ("classical", "substitute_sl2", "classical.substitute_sl2", False),
    ("classical", "ClassicalPoly.__mul__", "classical.poly_mul", False),
    ("classical", "polarization", "classical.polarization", True),
    ("classical", "lie_invariance_check", "classical.lie_invariance_check", True),
]


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.stats = {name: Stat() for _, _, name, _ in TARGETS}
        self.spans = []
        self.stack = []  # frames: [child time, span id or None]
        self.next_span = 0
        self.next_op = 0
        self.op = 0
        self.extra = {
            "rn_by_n": {},  # n -> inclusive seconds of top-level rn calls
            "remainder_direct_by_n": {},
            "candidates": 0,
            "solve_cells": 0,
            "solve_nonzero": 0,
            "kernel_cells": 0,
            "kernel_nonzero": 0,
            "mul_rational": 0,
        }
        self._saved = []

    # -- wrapping -----------------------------------------------------------

    def install(self):
        import importlib

        for mod_name, path, name, keep in TARGETS:
            owner = importlib.import_module(f"voa.{mod_name}")
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, keep, _OBSERVERS.get(name)))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, keep, observe):
        stat = self.stats[name]
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kw):
            span = None
            if not stack:
                tracer.next_op += 1
                tracer.op = tracer.next_op
            if keep:
                span = tracer.next_span
                tracer.next_span += 1
            frame = [0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kw)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep:
                    parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                    tracer.spans.append([span, name, start, end, parent, tracer.op])
            if observe is not None:
                # the observer's own time is left out of the caller's self time
                t = clock()
                observe(tracer.extra, args, kw, result, dur, not stack)
                if stack:
                    stack[-1][0] += clock() - t
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------------

    def layer_metrics(self):
        from voa import remainder

        s, x = self.stats, self.extra

        def share(part, whole):
            return part / whole if whole else 0.0

        memo = len(remainder._MEMO)
        rn_total = sum(x["rn_by_n"].values()) + s["remainder.scan_f"].total
        return {
            "remainder.rn_n4_s": x["rn_by_n"].get(4, 0.0),
            "remainder.rn_n5_s": x["rn_by_n"].get(5, 0.0),
            "remainder.rn_n6_s": x["rn_by_n"].get(6, 0.0),
            "remainder.scan_f_s": s["remainder.scan_f"].total,
            "remainder.memo_entries": memo,
            "remainder.us_per_memo_entry": 1e6 * share(rn_total, memo),
            "orbifold.remainder_direct_r1_s": x["remainder_direct_by_n"].get(1, 0.0),
            "orbifold.remainder_direct_r2_s": x["remainder_direct_by_n"].get(2, 0.0),
            "orbifold.quantum_correction_s": s["orbifold.quantum_correction"].total,
            "orbifold.express_in_generators_calls": s["orbifold.express_in_generators"].calls,
            "orbifold.express_in_generators_self_s": s["orbifold.express_in_generators"].self_time,
            "orbifold.enumerate_nop_monomials_s": s["orbifold.enumerate_nop_monomials"].total,
            "orbifold.candidates": x["candidates"],
            "orbifold.evaluate_nop_calls": s["orbifold.evaluate_nop"].calls,
            "orbifold.evaluate_nop_self_s": s["orbifold.evaluate_nop"].self_time,
            "orbifold.pr_coefficient_s": s["orbifold.pr_coefficient"].total,
            "orbifold.decouple_s": s["orbifold.decouple"].total,
            "orbifold.invariant_subspace_self_s": s["orbifold.invariant_subspace"].self_time,
            "linalg.solve_calls": s["linalg.solve"].calls,
            "linalg.solve_s": s["linalg.solve"].total,
            "linalg.solve_cells": x["solve_cells"],
            "linalg.solve_nonzero_share": share(x["solve_nonzero"], x["solve_cells"]),
            "linalg.kernel_basis_s": s["linalg.kernel_basis"].total,
            "linalg.kernel_basis_cells": x["kernel_cells"],
            "linalg.kernel_basis_nonzero_share": share(x["kernel_nonzero"], x["kernel_cells"]),
            "linalg.rank_s": s["linalg.rank"].total,
            "vertexcore.circle_product_calls": s["vertexcore.circle_product"].calls,
            "vertexcore.circle_product_self_s": s["vertexcore.circle_product"].self_time,
            "vertexcore.derivative_s": s["vertexcore.derivative"].total,
            "vertexcore.wick_chain_calls": s["vertexcore.wick_chain"].calls,
            "vertexcore.wick_chain_self_s": s["vertexcore.wick_chain"].self_time,
            "vertexcore.lie_act_s": s["vertexcore.lie_act"].total,
            "vertexcore.apply_group_element_s": s["vertexcore.apply_group_element"].total,
            "scalars.mul_calls": s["scalars.mul"].calls,
            "scalars.mul_self_s": s["scalars.mul"].self_time,
            "scalars.add_calls": s["scalars.add"].calls,
            "scalars.add_self_s": s["scalars.add"].self_time,
            "scalars.gcd_calls": s["scalars.gcd"].calls,
            "scalars.gcd_s": s["scalars.gcd"].total,
            "scalars.mul_rational_share": share(x["mul_rational"], s["scalars.mul"].calls),
            "classical.substitute_calls": s["classical.substitute"].calls,
            "classical.substitute_s": s["classical.substitute"].total,
            "classical.substitute_sl2_s": s["classical.substitute_sl2"].total,
            "classical.poly_mul_calls": s["classical.poly_mul"].calls,
            "classical.poly_mul_self_s": s["classical.poly_mul"].self_time,
            "classical.polarization_s": s["classical.polarization"].total,
            "classical.lie_invariance_check_s": s["classical.lie_invariance_check"].total,
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["id", "name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "totals": {
                        name: {"calls": st.calls, "total_s": st.total, "self_s": st.self_time}
                        for name, st in self.stats.items()
                    },
                },
                fh,
            )


# -- observers: counts read from the arguments and results of a call -------------


def _rn(extra, args, kw, result, dur, top):
    if top:
        n = args[0]
        extra["rn_by_n"][n] = extra["rn_by_n"].get(n, 0.0) + dur


def _remainder_direct(extra, args, kw, result, dur, top):
    n = args[0]
    extra["remainder_direct_by_n"][n] = extra["remainder_direct_by_n"].get(n, 0.0) + dur


def _enumerate(extra, args, kw, result, dur, top):
    extra["candidates"] += len(result)


def _solve(extra, args, kw, result, dur, top):
    columns, rhs = args[0], args[1]
    extra["solve_cells"] += len(columns) * len(rhs)
    extra["solve_nonzero"] += sum(1 for col in columns for v in col if v)


def _kernel_basis(extra, args, kw, result, dur, top):
    rows, ncols = args[0], args[1]
    extra["kernel_cells"] += len(rows) * ncols
    extra["kernel_nonzero"] += sum(1 for row in rows for v in row if v)


def _mul(extra, args, kw, result, dur, top):
    a, b = args  # a denominator in normal form is monic: 1 iff of degree 0
    if len(a.den.coeffs) > 1 or len(b.den.coeffs) > 1:
        extra["mul_rational"] += 1


_OBSERVERS = {
    "remainder.rn": _rn,
    "orbifold.remainder_direct": _remainder_direct,
    "orbifold.enumerate_nop_monomials": _enumerate,
    "linalg.solve": _solve,
    "linalg.kernel_basis": _kernel_basis,
    "scalars.mul": _mul,
}
