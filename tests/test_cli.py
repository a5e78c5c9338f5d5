import json
from pathlib import Path

import pytest

from voa import cli, liedata, orbifold, remainder
from voa.scalars import rational_to_str

SL2_CONFIG = """
[algebra]
dim = 3
labels = x y h

[brackets]
0 1 2 = 1
2 0 0 = 2
2 1 1 = -2

[form]
0 1 = 1
2 2 = 2
"""


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_table1_text(capsys):
    code, out, _ = run(capsys, ["table1", "--n-max", "3"])
    assert code == 0
    assert out.splitlines() == [
        "R_1 = 5/4",
        "R_2 = 149/600",
        "R_3 = -2419/705600",
    ]


def test_table1_json(capsys):
    code, out, _ = run(capsys, ["table1", "--n-max", "2", "--json"])
    assert code == 0
    assert json.loads(out) == [
        {"n": 1, "value": "5/4"},
        {"n": 2, "value": "149/600"},
    ]


def test_remainder_commands(capsys):
    code, out, _ = run(capsys, ["remainder", "--n", "1", "--I", "0,1", "--J", "0,1"])
    assert code == 0 and out.strip() == "5/4"
    code, out, _ = run(
        capsys, ["remainder-direct", "--n", "1", "--I", "0,1", "--J", "0,1"]
    )
    assert code == 0 and out.strip() == "5/4"


def test_ope_text(capsys):
    code, out, _ = run(capsys, ["ope", "--algebra", "heisenberg1", "a1", "a1"])
    assert code == 0
    assert out.strip() == "a1(z) a1(w) ~ k (z-w)^-2"
    code, out, _ = run(capsys, ["ope", "--algebra", "sl2", "x", "y"])
    assert code == 0
    assert out.strip() == "x(z) y(w) ~ k (z-w)^-2 + h(-1) (z-w)^-1"


def test_circle_command(capsys):
    code, out, _ = run(capsys, ["circle", "--algebra", "sl2", "--n", "0", "h", "x"])
    assert code == 0
    assert out.strip() == "(2) x(-1)"


def test_sugawara_check(capsys):
    code, out, _ = run(capsys, ["sugawara-check", "--algebra", "sl2", "--hdual", "2"])
    assert code == 0
    assert "central charge: (3*k)/(2 + k)" in out
    assert "FAIL" not in out
    # the general central charge dim * k / (k + h_dual), here 2k / k
    code, out, _ = run(
        capsys, ["sugawara-check", "--algebra", "heisenberg2", "--hdual", "0", "--json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["central_charge"] == {"num": ["2"], "den": ["1"]}
    assert len(data["checks"]) == 12 and all(c["ok"] for c in data["checks"])


def test_invariants(capsys):
    code, out, _ = run(
        capsys,
        ["invariants", "--algebra", "heisenberg1", "--action", "orthogonal",
         "--weight", "4"],
    )
    assert code == 0
    assert out.splitlines()[0] == "dimension 3"


def test_decouple(capsys):
    code, out, _ = run(
        capsys,
        ["decouple", "--algebra", "heisenberg1", "--dict", "j0,j2",
         "--target", "j4", "--json"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["found"] is True
    assert data["excluded_levels"] == ["0"]
    code, out, _ = run(
        capsys,
        ["decouple", "--algebra", "heisenberg1", "--dict", "j0", "--target", "j2"],
    )
    assert code == 0
    assert "no relation found" in out


@pytest.mark.parametrize("argv", [
    ["invariants", "--action", "orthogonal", "--weight", "2"],
    ["decouple", "--dict", "j0", "--target", "j2"],
], ids=["invariants", "decouple"])
def test_zero_dimensional_algebra_is_a_data_error(capsys, tmp_path, argv):
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("[algebra]\ndim = 0\n")
    code, out, err = run(capsys, [*argv, "--algebra", str(cfg)])
    assert code == 2 and out == ""
    assert "error[ValueError]: dim 0 is not positive, line 2: 'dim = 0'" in err


def test_console_script_entry(capsys, monkeypatch):
    # pyproject.toml names cli.entry as the voa console script
    monkeypatch.setattr("sys.argv", ["voa", "table1", "--n-max", "2", "--json"])
    with pytest.raises(SystemExit) as info:
        cli.entry()
    assert info.value.code == 0
    golden = json.loads((GOLDEN / "table1.json").read_text())
    assert json.loads(capsys.readouterr().out) == golden[:2]


def test_parity_error_exit_code(capsys):
    code, _, err = run(capsys, ["remainder", "--n", "1", "--I", "0,2", "--J", "0,1"])
    assert code == 2
    assert "error[ParityError]" in err


def test_remainder_resource_bound(capsys):
    indices = ",".join(str(t) for t in range(10))
    code, _, err = run(capsys, ["remainder", "--n", "9", "--I", indices, "--J", indices])
    assert code == 2
    assert "error[ResourceError]" in err
    code, out, _ = run(
        capsys, ["remainder", "--n", "1", "--I", "0,1", "--J", "0,1", "--allow-large"]
    )
    assert code == 0
    assert out.strip() == "5/4"


def test_remainder_weight_index_bound(capsys):
    over = remainder.M_MAX_DEFAULT + 2
    argv = ["remainder", "--n", "1", "--I", "0,1", "--J", f"0,{over - 3}"]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert (f"error[ResourceError]: weight index m = {over} exceeds the bound"
            f" {remainder.M_MAX_DEFAULT}") in err
    code, out, _ = run(capsys, argv + ["--allow-large"])
    want = remainder.r1_closed_form((0, 1), (0, over - 3))
    assert code == 0 and out.strip() == rational_to_str(want)


def test_remainder_direct_resource_bound(capsys):
    code, out, err = run(capsys, ["remainder-direct", "--n", "1", "--I", "0,9", "--J", "0,9"])
    assert code == 2 and out == ""
    assert "error[ResourceError]: weight index m = 20 exceeds the bound 18" in err
    assert "--allow-large" in err
    code, out, _ = run(
        capsys, ["remainder-direct", "--n", "1", "--I", "0,9", "--J", "0,9", "--allow-large"]
    )
    assert code == 0 and out.strip() == "-1/220"


def test_unknown_algebra_exit_code(capsys):
    code, _, err = run(capsys, ["ope", "--algebra", "nope", "a", "b"])
    assert code == 2
    assert "error[KeyError]" in err


def test_resource_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("VOA_MAX_WEIGHT", "3")
    code, _, err = run(
        capsys,
        ["invariants", "--algebra", "heisenberg1", "--action", "orthogonal",
         "--weight", "4"],
    )
    assert code == 2
    assert "error[ResourceError]" in err
    code, out, err = run(capsys, ["sl2-generators", "--max-weight", "4"])
    assert code == 2 and out == ""
    assert "error[ResourceError]: max weight = 4 exceeds the bound 3" in err
    code, out, _ = run(capsys, ["sl2-generators", "--max-weight", "3", "--json"])
    assert code == 0
    assert [r["weight"] for r in json.loads(out)] == [2, 3]


def test_verify_suite(capsys):
    code, out, _ = run(capsys, ["verify", "sugawara"])
    assert code == 0
    assert out.startswith("sugawara:") and "0 failed" in out


def test_verify_all_reports_failures(capsys, monkeypatch):
    from voa import verify as vf

    def passing():
        res = vf.SuiteResult("good")
        res.add("fine", True)
        return res

    def failing():
        res = vf.SuiteResult("bad")
        res.add("fine", True)
        res.add("broken", False, "expected 1, got 2")
        return res

    monkeypatch.setattr(vf, "ACCEPTANCE_SUITES", {"good": passing, "bad": failing})
    code, out, _ = run(capsys, ["verify", "all"])
    assert code == 1
    assert out.splitlines() == [
        "good: 1 passed, 0 failed",
        "bad: 1 passed, 1 failed",
        "  FAIL broken expected 1, got 2",
    ]
    code, out, _ = run(capsys, ["verify", "all", "--json"])
    assert code == 1
    assert json.loads(out) == [
        {"suite": "good", "passed": 1, "failed": 0, "failures": []},
        {"suite": "bad", "passed": 1, "failed": 1, "failures": ["broken"]},
    ]


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, ["verify", "nonsense"])
    assert code == 2


@pytest.mark.parametrize("dim, entry", [(1, "1 1 = 1"), (2, "-1 -1 = 1")])
def test_verify_algebra_form_index_out_of_range(capsys, tmp_path, dim, entry):
    cfg = tmp_path / "badform.cfg"
    cfg.write_text(f"[algebra]\ndim = {dim}\n\n[form]\n0 0 = 1\n{entry}\n")
    code, out, err = run(capsys, ["verify", "algebra", "--algebra", str(cfg)])
    assert code == 2 and out == ""
    assert "error[ValueError]: form index out of range" in err


@pytest.mark.parametrize(
    "lines, key",
    [("0 1 = 1\n1 0 = 2", "B(1, 0)"), ("1 0 = 2\n0 1 = 1", "B(0, 1)")],
    ids=["01-then-10", "10-then-01"],
)
def test_verify_algebra_conflicting_form_entries(capsys, tmp_path, lines, key):
    cfg = tmp_path / "conflict.cfg"
    cfg.write_text(f"[algebra]\ndim = 2\n\n[form]\n{lines}\n")
    code, out, err = run(capsys, ["verify", "algebra", "--algebra", str(cfg)])
    assert code == 2 and out == ""
    assert f"error[ValueError]: inconsistent form entry {key}" in err


def test_verify_algebra_config(capsys, tmp_path):
    cfg = tmp_path / "mysl2.cfg"
    cfg.write_text(SL2_CONFIG)
    code, out, _ = run(capsys, ["verify", "algebra", "--algebra", str(cfg)])
    assert code == 0
    assert '"labels"' in out and out.rstrip().endswith("valid")


def test_json_determinism(capsys):
    _, out1, _ = run(capsys, ["ope", "--algebra", "sl2", "x", "y", "--json"])
    _, out2, _ = run(capsys, ["ope", "--algebra", "sl2", "x", "y", "--json"])
    assert out1 == out2
    data = json.loads(out1)
    assert list(data.keys()) == ["algebra", "a", "b", "terms"]


def test_sl2_generators_command(capsys):
    code, out, _ = run(capsys, ["sl2-generators", "--max-weight", "4"])
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("Qt[0,0]") for line in lines)
    assert all("invariant=yes" in line for line in lines)
    code, out, _ = run(capsys, ["sl2-generators", "--max-weight", "4", "--json"])
    assert code == 0
    rows = json.loads(out)
    assert [(r["generator"], r["weight"]) for r in rows] == [
        ("Qt[0,0]", 2), ("Qt[0,1]", 3), ("Qt[0,2]", 4), ("Qt[1,1]", 4),
    ]
    assert all(r["invariant"] and r["leading_symbol_ok"] for r in rows)


def test_decouple_dictionary_weight_budget(capsys):
    # each dictionary entry j_m has weight m + 2, checked before it is built
    code, out, err = run(
        capsys,
        ["decouple", "--algebra", "heisenberg1", "--dict", "j0,j100000", "--target", "j4"],
    )
    assert code == 2 and out == ""
    assert "error[ResourceError]: dictionary weight = 100002 exceeds the bound" in err


def test_circle_result_weight_budget(capsys, monkeypatch):
    # x_(n) y of two weight-1 generators has weight 1 - n
    monkeypatch.setenv("VOA_MAX_WEIGHT", "3")
    code, out, err = run(capsys, ["circle", "--algebra", "sl2", "--n", "-3", "x", "y"])
    assert code == 2 and out == ""
    assert "error[ResourceError]: result weight = 4 exceeds the bound 3" in err
    code, out, _ = run(capsys, ["circle", "--algebra", "sl2", "--n", "-2", "x", "y"])
    assert code == 0 and out.strip()


def test_algebra_dim_bound(capsys, tmp_path):
    over = liedata.MAX_DIM + 1
    code, out, err = run(capsys, ["ope", "--algebra", f"heisenberg{over}", "a1", "a1"])
    assert code == 2 and out == ""
    assert f"error[ResourceError]: algebra dim = {over} exceeds the bound" in err
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"[algebra]\ndim = {over}\n\n[form]\n0 0 = 1\n")
    for argv in (["ope", "--algebra", str(cfg), "g0", "g0"],
                 ["verify", "algebra", "--algebra", str(cfg)]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert f"error[ResourceError]: algebra dim = {over} exceeds the bound" in err


def test_invariants_monomial_budget(capsys, monkeypatch):
    # weight 12 is within VOA_MAX_WEIGHT, but dim 16 has 381,946,360 monomials there
    def refuse(n, w):
        raise AssertionError("the monomials were enumerated")

    monkeypatch.setattr(orbifold, "_weight_monomials", refuse)
    code, out, err = run(capsys, ["invariants", "--algebra", "heisenberg16",
                                  "--action", "orthogonal", "--weight", "12"])
    assert code == 2 and out == ""
    assert ("error[ResourceError]: weight-12 monomials = 381946360 exceeds the bound "
            f"{orbifold.INVARIANT_MAX_MONOMIALS}") in err


def test_invariants_monomial_budget_admits_rank2_weight10(capsys):
    assert orbifold._count_weight_monomials(2, 10) == 481
    code, out, _ = run(capsys, ["invariants", "--algebra", "heisenberg2",
                                "--action", "orthogonal", "--weight", "10", "--json"])
    assert code == 0
    assert json.loads(out)["dimension"] == 35


JACOBI_VIOLATING_CONFIG = """
[algebra]
dim = 3

[brackets]
0 1 2 = 1
1 2 1 = 1

[form]
0 0 = 1
1 1 = 1
2 2 = 1
"""

DEGENERATE_FORM_CONFIG = """
[algebra]
dim = 2

[form]
0 0 = 1
"""


@pytest.mark.parametrize("text, failure", [
    (JACOBI_VIOLATING_CONFIG, ["jacobi", "(0, 1, 2, 2)"]),
    (DEGENERATE_FORM_CONFIG, ["form_nondegenerate", "()"]),
], ids=["jacobi", "degenerate_form"])
def test_verify_algebra_reports_invalid_algebra(capsys, tmp_path, text, failure):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code, out, _ = run(capsys, ["verify", "algebra", "--algebra", str(cfg), "--json"])
    assert code == 1
    data = json.loads(out)
    assert data["valid"] is False and failure in data["failures"]
    code, out, _ = run(capsys, ["verify", "algebra", "--algebra", str(cfg)])
    assert code == 1 and f"FAIL {failure[0]} at {failure[1]}" in out
    # every other command refuses the file
    code, out, err = run(capsys, ["ope", "--algebra", str(cfg), "g0", "g0"])
    assert code == 2 and out == ""
    assert f"error[ValueError]: algebra {cfg} is invalid" in err


# ad_h of sl2 in the root basis: x -> 2x, y -> -2y, h -> 0
AD_H_BLOCK = "\n[action]\nlie\n2 0 0\n0 -2 0\n0 0 0\n"
# the identity is neither a derivation of sl2 nor skew for its form
IDENTITY_BLOCK = "\n[action]\nlie\n1 0 0\n0 1 0\n0 0 1\n"


def test_invariants_adjoint_and_config_actions(capsys, tmp_path):
    code, out, _ = run(capsys, ["invariants", "--algebra", "sl2", "--action", "adjoint",
                                "--weight", "2"])
    assert code == 0 and out.splitlines()[0] == "dimension 1"
    cfg = tmp_path / "sl2h.cfg"
    cfg.write_text(SL2_CONFIG + AD_H_BLOCK)
    code, out, _ = run(capsys, ["invariants", "--algebra", str(cfg), "--action", "config",
                                "--weight", "2", "--json"])
    assert code == 0
    data = json.loads(out)
    # h-weight zero at weight 2: x(-1) y(-1), h(-1) h(-1), h(-2)
    assert data["action"] == "sl2h-action" and data["dimension"] == 3
    plain = tmp_path / "sl2.cfg"
    plain.write_text(SL2_CONFIG)
    code, out, err = run(capsys, ["invariants", "--algebra", str(plain), "--action", "config",
                                  "--weight", "2"])
    assert code == 2 and out == ""
    assert "error[ValueError]: --action config requires an [action] block" in err
    code, out, err = run(capsys, ["invariants", "--algebra", "sl2", "--action", "spin",
                                  "--weight", "2"])
    assert code == 2 and out == ""
    assert "error[KeyError]: unknown action 'spin'" in err


def test_invalid_action_block(capsys, tmp_path):
    cfg = tmp_path / "sl2id.cfg"
    cfg.write_text(SL2_CONFIG + IDENTITY_BLOCK)
    code, out, err = run(capsys, ["invariants", "--algebra", str(cfg), "--action", "config",
                                  "--weight", "2"])
    assert code == 2 and out == ""
    assert "FAIL derivation at (0, 0, 1, 2)" in err
    code, out, _ = run(capsys, ["verify", "algebra", "--algebra", str(cfg), "--json"])
    assert code == 1
    kinds = {kind for kind, _ in json.loads(out)["failures"]}
    assert kinds == {"derivation", "skew"}


def test_sugawara_check_default_hdual(capsys):
    code, out, _ = run(capsys, ["sugawara-check", "--algebra", "sl2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["h_dual"] == "2" and all(c["ok"] for c in data["checks"])
    code, out, err = run(capsys, ["sugawara-check", "--algebra", "heisenberg2"])
    assert code == 2 and out == ""
    assert "error[ValueError]: no built-in dual Coxeter number for heisenberg2" in err


def test_sugawara_check_config_named_like_a_builtin(capsys, tmp_path):
    # a config file's spec is named after the file, so sl2.cfg's spec is "sl2"
    cfg = tmp_path / "sl2.cfg"
    cfg.write_text("[algebra]\ndim = 1\n[form]\n0 0 = 1\n")
    code, out, err = run(capsys, ["sugawara-check", "--algebra", str(cfg)])
    assert code == 2 and out == ""
    assert f"error[ValueError]: no built-in dual Coxeter number for {cfg}; pass --hdual" in err
    code, out, _ = run(capsys, ["sugawara-check", "--algebra", str(cfg), "--hdual", "0"])
    assert code == 0 and "FAIL" not in out


def test_verify_algebra_repeated_label(capsys, tmp_path):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("[algebra]\ndim = 2\nlabels = a a\n[form]\n0 0 = 1\n1 1 = 1\n")
    code, out, err = run(capsys, ["verify", "algebra", "--algebra", str(cfg)])
    assert code == 2 and out == ""
    assert "error[ValueError]: repeated label 'a', line 3: 'labels = a a'" in err


def test_invalid_max_weight_env(capsys, monkeypatch):
    monkeypatch.setenv("VOA_MAX_WEIGHT", "abc")
    code, out, err = run(capsys, ["circle", "--algebra", "sl2", "--n", "-1", "x", "y"])
    assert code == 2 and out == ""
    assert "error[ValueError]: VOA_MAX_WEIGHT='abc' is not an integer" in err


GOLDEN = Path(__file__).parent / "golden"

# The --json commands whose output is pinned byte for byte; the CI workflow
# also runs each one as its own process under two hash seeds against the same
# files.  Each file under tests/golden/ is the command's standard output,
# written with
#   PYTHONPATH=src PYTHONHASHSEED=1 python -m voa.cli <argv> > tests/golden/<name>.json
# at commit bcbf7e7, before the integer fast path in LevelScalar products;
# decouple-j6.json at commit 0ed7d23, before Wick's closed form for abelian
# circle products, whose deeper products it pins; verify-algebra-*.json at
# commit 3075a7e, before LieSpec held its brackets sparsely, with the config
# tests/data/sl2-third.cfg (sl2 in the basis x, y, h/3); invariants-swap.json at
# commit e568199, before invariant_subspace read the action's integer maps
# directly, with tests/data/heisenberg2-swap.cfg (a finite element that mixes
# the generators, where every built-in finite element is diagonal);
# remainder-direct-r3.json at commit 5a40151, before the classical symbols
# became ClassicalPoly terms.
GOLDEN_COMMANDS = {
    "table1": ["table1", "--n-max", "6", "--json"],
    "decouple": ["decouple", "--algebra", "heisenberg1", "--dict", "j0,j2", "--target", "j4",
                 "--json"],
    "decouple-j6": ["decouple", "--algebra", "heisenberg1", "--dict", "j0,j2", "--target", "j6",
                    "--json"],
    "invariants": ["invariants", "--algebra", "heisenberg2", "--action", "orthogonal",
                   "--weight", "4", "--json"],
    "remainder-signed": ["remainder", "--n", "3", "--I", "1,0,2,3", "--J", "0,1,2,5", "--json"],
    "remainder-n4": ["remainder", "--n", "4", "--I", "0,1,2,3,4", "--J", "0,1,2,3,6", "--json"],
    "remainder-direct": ["remainder-direct", "--n", "2", "--I", "0,1,2", "--J", "0,1,4",
                         "--json"],
    "remainder-direct-r3": ["remainder-direct", "--n", "3", "--I", "0,1,2,3", "--J", "0,1,2,3",
                            "--json"],
    "sl2-generators": ["sl2-generators", "--max-weight", "6", "--json"],
    "ope": ["ope", "--algebra", "sl2", "x", "y", "--json"],
    "circle": ["circle", "--algebra", "sl2", "--n", "-1", "y", "x", "--json"],
    "invariants-sl2": ["invariants", "--algebra", "sl2", "--action", "adjoint", "--weight", "4",
                       "--json"],
    "invariants-swap": ["invariants", "--algebra",
                        str(Path(__file__).parent / "data" / "heisenberg2-swap.cfg"),
                        "--action", "config", "--weight", "4", "--json"],
    "sugawara-check": ["sugawara-check", "--algebra", "sl2", "--json"],
    "verify-algebra-sl2": ["verify", "algebra", "--algebra", "sl2", "--json"],
    "verify-algebra-sl2-third": ["verify", "algebra", "--algebra",
                                 str(Path(__file__).parent / "data" / "sl2-third.cfg"), "--json"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_json_output_matches_golden_file(capsys, name):
    code, out, _ = run(capsys, GOLDEN_COMMANDS[name])
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()


# rank 1 with B = 2: a(z) a(w) ~ 2*k (z-w)^-2, so not heisenberg1
SCALED_FORM = "[algebra]\ndim = 1\n[form]\n0 0 = 2\n"
# rank 2 with B = diag(1, 2): so(2) is not skew for B
UNEVEN_FORM = "[algebra]\ndim = 2\n[form]\n0 0 = 1\n1 1 = 2\n"


def test_orthogonal_action_needs_an_abelian_algebra_with_a_scalar_form(capsys, tmp_path):
    code, out, err = run(capsys, ["invariants", "--algebra", "sl2", "--action", "orthogonal",
                                  "--weight", "2"])
    assert code == 2 and out == ""
    assert err.startswith("error[ValueError]: the orthogonal action needs an abelian algebra")
    assert "; sl2 is not" in err
    cfg = tmp_path / "uneven.cfg"
    cfg.write_text(UNEVEN_FORM)
    code, out, err = run(capsys, ["invariants", "--algebra", str(cfg), "--action", "orthogonal",
                                  "--weight", "2"])
    assert code == 2 and out == ""
    assert err.startswith("error[ValueError]: the orthogonal action") and "uneven is not" in err
    # a multiple of the identity is kept by O(n): only the two quadratics remain
    scaled = tmp_path / "scaled.cfg"
    scaled.write_text(SCALED_FORM)
    code, out, _ = run(capsys, ["invariants", "--algebra", str(scaled), "--action", "orthogonal",
                                "--weight", "2"])
    assert code == 0 and out.splitlines()[0] == "dimension 1"


def test_decouple_needs_the_identity_form(capsys, tmp_path):
    cfg = tmp_path / "scaled.cfg"
    cfg.write_text(SCALED_FORM)
    code, out, err = run(capsys, ["decouple", "--algebra", str(cfg), "--dict", "j0,j2",
                                  "--target", "j4", "--json"])
    assert code == 2 and out == ""
    assert err == ("error[ValueError]: decouple needs an abelian algebra with the identity form"
                   " (heisenberg<n>); scaled is not\n")
    code, out, err = run(capsys, ["decouple", "--algebra", "sl2", "--dict", "j0,j2",
                                  "--target", "j4"])
    assert code == 2 and out == ""
    assert "error[ValueError]: decouple needs" in err and "; sl2 is not" in err


def test_error_lines_carry_the_error_text(capsys, tmp_path):
    code, out, err = run(capsys, ["ope", "--algebra", str(tmp_path), "x", "y"])
    assert code == 2 and out == ""
    assert err == f"error[IsADirectoryError]: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, ["ope", "--algebra", str(bad), "x", "y"])
    assert code == 2 and out == ""
    assert err == f"error[ValueError]: {bad} is not UTF-8 text: invalid start byte at byte 0\n"
