import itertools
import math
import random
from fractions import Fraction

import pytest

from voa import linalg, remainder
from voa.errors import ParityError, ResourceError
from voa.terms import sort_sign
from voa.remainder import (
    TABLE_MAX_DEFAULT,
    ScanResult,
    r1_closed_form,
    rn,
    scan_f,
    table1,
)

TABLE = {
    1: Fraction(5, 4),
    2: Fraction(149, 600),
    3: Fraction(-2419, 705600),
    4: Fraction(-67619, 18670176000),
    5: Fraction(1391081, 4879637199360000),
    6: Fraction(40984649, 25145492674607585280000),
}

R7 = Fraction(-106186063, 159973389240949047988224000000)


# -- reference: the term-by-term Fraction recursion --------------------------


def _reference_rn(n, I, J, memo):
    """R_n(I, J) on any lists, one Fraction operation per term, expanded along
    J's least entry; the memo is keyed by the ordered (n, I, J), so R_n(I, J)
    and R_n(J, I) are computed independently."""
    sI, I2 = sort_sign(I)
    if sI == 0:
        return Fraction(0)
    sJ, J2 = sort_sign(J)
    if sJ == 0:
        return Fraction(0)
    sign = sI * sJ
    key = (n, I2, J2)
    hit = memo.get(key)
    if hit is not None:
        return sign * hit
    if n == 1:
        val = r1_closed_form(I2, J2)
    else:
        val = Fraction(0)
        j0 = J2[0]
        Jp = J2[1:]
        for r in range(n + 1):
            ir = I2[r]
            Ir = I2[:r] + I2[r + 1:]
            outer = (-1) ** r
            shift = ir + j0 + 2
            for pos in range(n):
                ik = Ir[pos]
                sub = _reference_rn(n - 1, Ir[:pos] + (ik + shift,) + Ir[pos + 1:], Jp, memo)
                if sub:
                    val -= outer * (-1) ** ir * sub / (ik + ir + 2)
                    val -= outer * (-1) ** j0 * sub / (ik + j0 + 2)
            for pos in range(n):
                jl = Jp[pos]
                sub = _reference_rn(n - 1, Ir, Jp[:pos] + (jl + shift,) + Jp[pos + 1:], memo)
                if sub:
                    val -= outer * (-1) ** ir * sub / (jl + ir + 2)
                    val -= outer * (-1) ** j0 * sub / (jl + j0 + 2)
    memo[key] = val
    return sign * val


def test_r1_examples():
    assert r1_closed_form((0, 1), (0, 1)) == Fraction(5, 4)
    assert r1_closed_form((0, 1), (0, 3)) == Fraction(14, 15)
    with pytest.raises(ParityError):
        r1_closed_form((0, 1), (0, 2))
    with pytest.raises(ValueError):
        r1_closed_form((1, 0), (0, 1))


def test_rn_base_case_delegates():
    pairs = list(itertools.combinations(range(5), 2))
    for I in pairs:
        for J in pairs:
            if (sum(I) + sum(J)) % 2 == 0:
                assert rn(1, I, J) == r1_closed_form(I, J)


def test_table1_values():
    for n, value in table1(3):
        assert value == TABLE[n]


def test_table1_resource_bound():
    with pytest.raises(ResourceError):
        table1(9)
    with pytest.raises(ResourceError):
        table1(8)
    with pytest.raises(ValueError):
        table1(0)


def test_rn_and_scan_resource_bound():
    n = TABLE_MAX_DEFAULT + 1
    diag = tuple(range(n + 1))
    with pytest.raises(ResourceError):
        rn(n, diag, diag)
    with pytest.raises(ResourceError):
        scan_f(n, n + 2)
    assert rn(2, (0, 1, 2), (0, 1, 2), allow_large=True) == TABLE[2]


def test_kernel_matches_reference_memo_through_n5():
    remainder._MEMO.clear()
    reference = {}
    for n in range(1, 6):
        diag = tuple(range(n + 1))
        assert rn(n, diag, diag) == _reference_rn(n, diag, diag, reference) == TABLE[n]
    # every memo entry, under its flat key lo + hi, is R_n in both orientations
    assert len(remainder._MEMO) == 2730
    for key, (num, den) in remainder._MEMO.items():
        half = len(key) // 2
        lo, hi = key[:half], key[half:]
        assert lo <= hi and den > 0 and math.gcd(num, den) == 1
        want = _reference_rn(half - 1, lo, hi, reference)
        assert Fraction(num, den) == want == _reference_rn(half - 1, hi, lo, reference), key


def test_memo_expands_along_the_smaller_list():
    # each entry is expanded along its lexicographically smaller list; the
    # other orientation reaches 31,788 entries here
    remainder._MEMO.clear()
    assert [value for _, value in table1(6)] == [TABLE[n] for n in range(1, 7)]
    assert len(remainder._MEMO) == 18685


def test_kernel_matches_reference_on_signed_inputs():
    rng = random.Random(7)
    reference = {}
    checked = 0
    while checked < 40:
        n = rng.randint(2, 3)
        I = rng.sample(range(2 * n + 3), n + 1)
        J = rng.sample(range(2 * n + 3), n + 1)
        if (sum(I) + sum(J)) % 2:
            continue
        want = _reference_rn(n, I, J, reference)
        assert rn(n, I, J) == want
        assert rn(n, I, J, memoize=False) == want
        assert rn(n, J, I) == want
        assert rn(n, [I[1], I[0]] + I[2:], J) == -want
        repeated = I[:-1] + [I[0]]
        if (sum(repeated) + sum(J)) % 2 == 0:
            assert rn(n, repeated, J) == 0
        checked += 1


def test_r7_regression():
    diag = tuple(range(8))
    assert rn(7, diag, diag) == R7


def test_rn_validation():
    with pytest.raises(ValueError):
        rn(1, (0, 1, 2), (0, 1))
    with pytest.raises(ParityError):
        rn(2, (0, 1, 2), (0, 1, 3))
    with pytest.raises(ValueError):
        rn(1, (-1, 1), (0, 2))


def test_rn_determinant_semantics():
    base = rn(2, (0, 1, 2), (0, 1, 2))
    assert rn(2, (1, 0, 2), (0, 1, 2)) == -base
    assert rn(2, (1, 0, 2), (1, 0, 2)) == base
    assert rn(2, (0, 1, 1), (0, 1, 3)) == 0
    assert rn(2, (0, 2, 2), (0, 1, 3)) == 0


def test_rn_symmetry_in_lists():
    rng = random.Random(3)
    for _ in range(6):
        I = tuple(sorted(rng.sample(range(6), 3)))
        J = tuple(sorted(rng.sample(range(6), 3)))
        if (sum(I) + sum(J)) % 2:
            continue
        assert rn(2, I, J) == rn(2, J, I)


def test_memoized_and_plain_agree():
    rng = random.Random(19)
    cases = []
    for _ in range(6):
        I = tuple(sorted(rng.sample(range(5), 3)))
        J = tuple(sorted(rng.sample(range(5), 3)))
        if (sum(I) + sum(J)) % 2 == 0:
            cases.append((2, I, J))
    cases += [(3, (0, 1, 2, 3), (0, 1, 2, 3)), (1, (0, 2), (1, 3))]
    for n, I, J in cases:
        assert rn(n, I, J, memoize=True) == rn(n, I, J, memoize=False)
    remainder._MEMO.clear()
    assert rn(3, (0, 1, 2, 3), (0, 1, 2, 3), memoize=False) == TABLE[3]
    assert not remainder._MEMO


def test_scan_f_examples():
    res = scan_f(1, 5)
    assert isinstance(res, ScanResult)
    assert res.values[0] == (1, Fraction(5, 4))
    assert res.first_nonzero == 1
    assert res.bound_m == 2
    assert dict(res.values)[3] == Fraction(14, 15)
    res2 = scan_f(2, 4)
    assert res2.values[0] == (2, Fraction(149, 600))
    assert res2.first_nonzero == 2
    assert res2.bound_m == (4 + 4 + 2) // 2


def test_scan_f_matches_rational_interpolant():
    # n = 1: f(a) = p(a) / ((a+2)(a+3)) with deg p <= 2; fit on 5 samples and
    # check the remaining ones
    samples = scan_f(1, 17).values
    fit, rest = samples[:5], samples[5:]
    # unknowns (p2, p1, p0, u, v) with q(a) = a^2 + u a + v:
    # p(a) - f(a) q(a) = 0  ->  p2 a^2 + p1 a + p0 - f u a - f v = f a^2
    rows = []
    rhs = {}
    for r, (a, f) in enumerate(fit):
        rows.append([Fraction(a * a), Fraction(a), Fraction(1), -f * a, -f])
        rhs[r] = f * a * a
    cols = [{r: rows[r][c] for r in range(5)} for c in range(5)]
    sol = linalg.solve(cols, rhs)
    assert sol is not None
    p2, p1, p0, u, v = (sol.get(j, 0) for j in range(5))
    for a, f in rest:
        num = p2 * a * a + p1 * a + p0
        den = Fraction(a * a) + u * a + v
        assert den != 0 and num / den == f
