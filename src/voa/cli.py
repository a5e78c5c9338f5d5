"""Command-line surface: compute, verify, and emit exact results.

Exit codes: 0 success, 1 verification failure, 2 usage or data error.
Output is deterministic, byte-identical across runs for identical flags;
JSON is the machine format, text is a stable but non-contractual rendering.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import liedata, orbifold as ob, remainder as rm, verify as vf
from . import vertexcore as vc
from .errors import DescentStuck, ParityError, ResourceError, check_budget
from .scalars import PoleAtLevel, rational_to_str
from .vertexcore import State


def _check_weight(quantity: str, weight: int):
    """The VOA_MAX_WEIGHT budget (default 12) of the state-space commands."""
    raw = os.environ.get("VOA_MAX_WEIGHT", "12")
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"VOA_MAX_WEIGHT={raw!r} is not an integer") from None
    check_budget(quantity, weight, cap, "raise VOA_MAX_WEIGHT")


def read_algebra(name: str):
    """Resolve a built-in name or a config-file path to (spec, action or None).

    A config file is parsed but not validated; see ``load_algebra``.
    """
    try:
        return liedata.builtin_algebra(name), None
    except KeyError:
        pass
    if os.path.exists(name):
        with open(name, "r", encoding="utf-8") as fh:
            text = fh.read()
        base = os.path.splitext(os.path.basename(name))[0]
        return liedata.parse_config(text, name=base)
    raise KeyError(f"unknown algebra {name!r}: not a built-in and not a file")


def validate_algebra(spec, action) -> liedata.ValidationReport:
    """The spec's failed identities, then the action's."""
    report = liedata.validate(spec)
    if action is not None:
        report.failures += liedata.validate_action(spec, action).failures
    return report


def load_algebra(name: str):
    """``read_algebra``, raising ValueError when the algebra or its action is invalid."""
    spec, action = read_algebra(name)
    report = validate_algebra(spec, action)
    if not report.ok:
        raise ValueError(f"algebra {name} is invalid:\n{report}")
    return spec, action


def resolve_action(spec, name, config_action):
    if name == "orthogonal":
        return liedata.orthogonal_action(spec.dim)
    if name == "adjoint":
        return liedata.adjoint_action(spec)
    if name == "config":
        if config_action is None:
            raise ValueError("--action config requires an [action] block in the algebra file")
        return config_action
    raise KeyError(f"unknown action {name!r}: use orthogonal, adjoint, or config")


def _emit(args, payload: dict, text_lines):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _parse_indices(s: str):
    return tuple(int(t) for t in s.split(",") if t != "")


# -- commands ----------------------------------------------------------------------


def cmd_ope(args) -> int:
    spec, _ = load_algebra(args.algebra)
    a, b = spec.index(args.a), spec.index(args.b)
    pairs = vc.ope(spec, State.generator(a), State.generator(b))
    payload = {
        "algebra": spec.name,
        "a": args.a,
        "b": args.b,
        "terms": [{"n": n, "state": vc.state_to_json(spec, s)} for n, s in pairs],
    }
    _emit(args, payload, [vc.ope_text(spec, args.a, args.b, pairs)])
    return 0


def cmd_circle(args) -> int:
    spec, _ = load_algebra(args.algebra)
    a, b = spec.index(args.a), spec.index(args.b)
    _check_weight("result weight", 1 - args.n)
    result = vc.circle_product(spec, State.generator(a), args.n, State.generator(b))
    payload = {
        "algebra": spec.name,
        "a": args.a,
        "n": args.n,
        "b": args.b,
        "state": vc.state_to_json(spec, result),
    }
    _emit(args, payload, [vc.state_text(spec, result)])
    return 0


def cmd_sugawara_check(args) -> int:
    spec, _ = load_algebra(args.algebra)
    if args.hdual is None:
        # a config file's spec is named after the file, so look up the argument
        if args.algebra not in liedata.DUAL_COXETER:
            raise ValueError(f"no built-in dual Coxeter number for {args.algebra}; pass --hdual")
        h_dual = liedata.DUAL_COXETER[args.algebra]
    else:
        h_dual = Fraction(args.hdual)
    res = vf.suite_sugawara(spec, h_dual)
    cc = vf.central_charge(spec, h_dual)
    payload = {
        "algebra": spec.name,
        "h_dual": rational_to_str(h_dual),
        "central_charge": cc.to_json(),
        "checks": [{"label": c.label, "ok": c.ok} for c in res.checks],
    }
    lines = [f"central charge: {cc}"]
    lines += [f"{'PASS' if c.ok else 'FAIL'} {c.label}" for c in res.checks]
    _emit(args, payload, lines)
    return 0 if res.ok else 1


def cmd_invariants(args) -> int:
    spec, config_action = load_algebra(args.algebra)
    action = resolve_action(spec, args.action, config_action)
    _check_weight("weight", args.weight)
    basis = ob.invariant_subspace(spec, action, args.weight)
    payload = {
        "algebra": spec.name,
        "action": action.label,
        "weight": args.weight,
        "dimension": len(basis),
        "basis": [vc.state_to_json(spec, s) for s in basis],
    }
    lines = [f"dimension {len(basis)}"]
    lines += [vc.state_text(spec, s) for s in basis]
    _emit(args, payload, lines)
    return 0


def cmd_table1(args) -> int:
    values = rm.table1(args.n_max, allow_large=args.allow_large)
    payload = [{"n": n, "value": rational_to_str(v)} for n, v in values]
    _emit(args, payload, [f"R_{n} = {rational_to_str(v)}" for n, v in values])
    return 0


def _emit_remainder(args, compute) -> int:
    I, J = _parse_indices(args.I), _parse_indices(args.J)
    value = rational_to_str(compute(I, J))
    _emit(args, {"n": args.n, "I": list(I), "J": list(J), "value": value}, [value])
    return 0


def cmd_remainder(args) -> int:
    return _emit_remainder(args, lambda I, J: rm.rn(args.n, I, J, allow_large=args.allow_large))


def cmd_remainder_direct(args) -> int:
    return _emit_remainder(
        args, lambda I, J: ob.remainder_direct(args.n, I, J, allow_large=args.allow_large)
    )


def _parse_j_name(name: str) -> int:
    name = name.strip().lower()
    if not name.startswith("j") or not name[1:].isdigit():
        raise ValueError(f"generator name {name!r} not of the form j<even weight index>")
    return int(name[1:])


def cmd_decouple(args) -> int:
    spec, config_action = load_algebra(args.algebra)
    if spec.free_field is None:
        raise ValueError("decouple search is wired for the abelian (heisenberg) case")
    action = resolve_action(spec, args.action, config_action)
    target_m = _parse_j_name(args.target)
    _check_weight("target weight", target_m + 2)
    dict_ms = [_parse_j_name(t) for t in args.dict.split(",")]
    for m in dict_ms:
        _check_weight("dictionary weight", m + 2)
    n = spec.dim
    dictionary = ob.j_dictionary(n, dict_ms)
    target = ob.j_gen(n, target_m)
    result = ob.decouple(spec, action, dictionary, target, max_degree=args.max_degree)
    if result is None:
        _emit(args, {"found": False}, ["no relation found within bounds"])
        return 0
    payload = {"found": True}
    payload.update(result.to_json())
    lines = [
        f"{args.target} = {result.relation!r}",
        "excluded levels: "
        + (", ".join(rational_to_str(q) for q in result.excluded_levels) or "none"),
    ]
    _emit(args, payload, lines)
    return 0


def cmd_sl2_generators(args) -> int:
    _check_weight("max weight", args.max_weight)
    rows = vf.sl2_generator_rows(args.max_weight, args.max_weight)
    payload = [
        {"generator": name, "weight": w, "invariant": inv, "leading_symbol_ok": sym}
        for name, w, inv, sym in rows
    ]
    lines = [
        f"{name} weight={w} invariant={'yes' if inv else 'NO'}"
        f" leading_symbol={'ok' if sym else 'MISMATCH'}"
        for name, w, inv, sym in rows
    ]
    _emit(args, payload, lines)
    return 0 if all(inv and sym for _, _, inv, sym in rows) else 1


def cmd_verify(args) -> int:
    if args.suite == "algebra":
        if not args.algebra:
            raise ValueError("verify algebra requires --algebra <config or builtin>")
        spec, action = read_algebra(args.algebra)
        report = validate_algebra(spec, action)
        payload = {
            "algebra": liedata.spec_to_json(spec),
            "valid": report.ok,
            "failures": [list(map(str, f)) for f in report.failures],
        }
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(json.dumps(liedata.spec_to_json(spec), indent=2))
            print("valid" if report.ok else str(report))
        return 0 if report.ok else 1
    if args.suite == "all":
        results = vf.run_all()
    else:
        results = [vf.run_suite(args.suite)]
    payload = []
    failed_total = 0
    lines = []
    for r in results:
        failed_total += r.failed
        lines.append(f"{r.name}: {r.passed} passed, {r.failed} failed")
        for c in r.checks:
            if not c.ok:
                lines.append(f"  FAIL {c.label} {c.detail}")
        payload.append(
            {
                "suite": r.name,
                "passed": r.passed,
                "failed": r.failed,
                "failures": [c.label for c in r.checks if not c.ok],
            }
        )
    _emit(args, payload, lines)
    return 0 if failed_total == 0 else 1


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="voa",
        description="Exact vertex-algebra computations: OPEs, invariants, remainders.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--json", action="store_true", help="emit JSON")
        return sp

    sp = add("ope", cmd_ope, help="singular OPE terms of two generators")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("a")
    sp.add_argument("b")

    sp = add("circle", cmd_circle, help="one circle product of two generators")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("a")
    sp.add_argument("b")

    sp = add("sugawara-check", cmd_sugawara_check, help="Virasoro checks for the Sugawara vector")
    sp.add_argument("--algebra", default="sl2")
    sp.add_argument("--hdual", default=None,
                    help="dual Coxeter number (rational); defaults from the built-in table")

    sp = add("invariants", cmd_invariants, help="basis of a weight component of the invariant subalgebra")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--action", required=True, help="orthogonal | adjoint | config")
    sp.add_argument("--weight", type=int, required=True)

    sp = add("table1", cmd_table1, help="diagonal remainder values R_n")
    sp.add_argument("--n-max", dest="n_max", type=int, required=True)
    sp.add_argument("--allow-large", action="store_true",
                    help="opt in to n_max beyond the default resource bound")

    sp = add("remainder", cmd_remainder, help="R_n(I,J) by the recursion")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--I", required=True, help="comma-separated indices")
    sp.add_argument("--J", required=True, help="comma-separated indices")
    sp.add_argument("--allow-large", action="store_true",
                    help="opt in to n beyond the default resource bound")

    sp = add("remainder-direct", cmd_remainder_direct,
             help="R_n(I,J) from scratch in the Heisenberg algebra")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--I", required=True)
    sp.add_argument("--J", required=True)
    sp.add_argument("--allow-large", action="store_true",
                    help="opt in to a weight index m beyond the default resource bound")

    sp = add("decouple", cmd_decouple, help="search for a decoupling relation")
    sp.add_argument("--algebra", required=True)
    sp.add_argument("--action", default="orthogonal")
    sp.add_argument("--dict", required=True, help="comma list like j0,j2")
    sp.add_argument("--target", required=True, help="generator like j4")
    sp.add_argument("--max-degree", dest="max_degree", type=int, default=6)

    sp = add("sl2-generators", cmd_sl2_generators,
             help="orbifold generators of the adjoint sl2 invariants, with verdicts")
    sp.add_argument("--max-weight", dest="max_weight", type=int, required=True)

    sp = add("verify", cmd_verify, help="run a named verification suite")
    sp.add_argument("suite", help="all | " + " | ".join(vf.ACCEPTANCE_SUITES) + " | algebra")
    sp.add_argument("--algebra", default=None)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParityError, ResourceError, PoleAtLevel, DescentStuck,
            ValueError, KeyError, OSError, ZeroDivisionError) as exc:
        kind = type(exc).__name__
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error[{kind}]: {msg}", file=sys.stderr)
        return 2


def entry():  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
