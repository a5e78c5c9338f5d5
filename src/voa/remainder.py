"""The remainder coefficients R_n(I, J): closed form, recursion, table, zero-scan.

Index lists are extended off the strictly increasing cone by determinant
semantics: sorting contributes the sign of the permutation, and a repeated
entry gives zero.  The recursion substitutes entries i_k -> i_k + i_r + j_0 + 2
(and j_l likewise), which is what forces that extension.

Evaluation.  ``rn`` keys the sorted lists (lo, hi), lo <= hi, as lo + hi and
expands each entry along lo[0] (R_n is symmetric in its lists), so the
shifts stay small.  A substitution moves an entry x at position pos of a
sorted tuple T to v = x + shift, whose slot is q = bisect_left(T, v, pos + 1):
an equal T[q] makes the term zero; otherwise the sub-list sorts with the sign
(-1)^(q - pos - 1).

Scale.  A term drops i_r and j_0 and shifts an entry by i_r + j_0 + 2, so the
weight index m = sum(I) + sum(J) + 2n is the same at every level and bounds
every denominator: a = x + i_r + 2 and b = x + j_0 + 2 (and the n = 1 closed
form's 2 + x + y) add two entries of lists summing to at most m - 2.  With
L = lcm(1, ..., m), each memo entry is one int N = R_n L^n and each term
((-1)^i_r L/a + (-1)^j_0 L/b) N_sub an exact integer: no entry takes an lcm
or a gcd (von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 5), and
``rn`` builds the one ``Fraction(N, L^n)`` it returns.  L has about 1.44 m
bits, so past ``M_MAX_DEFAULT`` the integers cost more than reducing each
entry would, and m needs the opt-in.  The tests keep a term-by-term
``Fraction`` evaluation as the reference.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations
from math import lcm

from .errors import ALLOW_LARGE, ParityError, check_budget
from .terms import sort_sign

#: n (and table entries) beyond this need the explicit opt-in flag
TABLE_MAX_DEFAULT = 7
#: the weight index m beyond which ``rn`` needs the same opt-in
M_MAX_DEFAULT = 300
_LCM = list(accumulate(range(1, M_MAX_DEFAULT + 1), lcm, initial=1))  # lcm(1..m) at m


def r1_closed_form(I, J) -> Fraction:
    """The four-bracket closed form for n = 1, on strictly increasing lists."""
    I, J = tuple(I), tuple(J)
    if len(I) != 2 or len(J) != 2:
        raise ValueError("closed form needs two index pairs")
    if not (0 <= I[0] < I[1]) or not (0 <= J[0] < J[1]):
        raise ValueError("index lists must be strictly increasing and nonnegative")
    if (sum(I) + sum(J)) % 2:
        raise ParityError(f"m = {sum(I) + sum(J) + 2} is odd")
    L = lcm(*(2 + x + y for x, y in combinations(I + J, 2)))
    return Fraction(_r1(*I, *J, _Cofactors(L)), L)


def _r1(i0, i1, j0, j1, cof):
    """The closed form times L, where cof[t] = L // t: six denominators, each <= m."""
    si0, si1, sj0, sj1 = (-1 if t % 2 else 1 for t in (i0, i1, j0, j1))
    return (si0 * (sj0 - sj1) * cof[2 + i0 + i1] + si1 * (sj1 - sj0) * cof[2 + j0 + j1]
            + sj0 * sj1 * (cof[2 + i1 + j1] - cof[2 + i1 + j0])
            + si0 * si1 * (cof[2 + i0 + j0] - cof[2 + i0 + j1]))


class _Cofactors(dict):
    """t -> L // t, each computed on first use."""

    def __init__(self, L):
        self.L = L

    def __missing__(self, t):
        c = self[t] = self.L // t
        return c


# Flat keys lo + hi, lo <= hi, to N = R_n(lo, hi) L_m^n: pure functions of their keys,
# so a concurrent insert-or-get under the GIL at worst recomputes an identical value.
_MEMO = {}


def rn(n: int, I, J, memoize: bool = True, allow_large: bool = False) -> Fraction:
    """R_n(I, J) for length-(n+1) lists, by recursion on n.

    The remainder is symmetric in (I, J) (the underlying determinant is), so
    memo keys fold that symmetry in.  ``memoize=False`` evaluates in a
    private memo dropped afterwards.  n beyond ``TABLE_MAX_DEFAULT`` or a
    weight index m beyond ``M_MAX_DEFAULT`` raises ``ResourceError`` unless
    ``allow_large``.
    """
    I, J = tuple(I), tuple(J)
    if len(I) != n + 1 or len(J) != n + 1:
        raise ValueError(f"index lists must have length {n + 1}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if min(I + J) < 0:
        raise ValueError("indices must be nonnegative")
    m = sum(I + J) + 2 * n
    if m % 2:
        raise ParityError(f"m = {m} is odd")
    check_budget("n", n, TABLE_MAX_DEFAULT, ALLOW_LARGE, allow_large)
    check_budget("weight index m", m, M_MAX_DEFAULT, ALLOW_LARGE, allow_large)
    sI, I2 = sort_sign(I)
    sJ, J2 = sort_sign(J)
    if sI == 0 or sJ == 0:
        return Fraction(0)
    memo = _MEMO if memoize else {}
    lo, hi = (I2, J2) if I2 <= J2 else (J2, I2)
    key = lo + hi
    L = _LCM[m] if m <= M_MAX_DEFAULT else lcm(*range(1, m + 1))
    val = memo.get(key)
    if val is None:
        val = _rn(n, hi, lo, key, memo, _Cofactors(L))
    return Fraction(sI * sJ * val, L ** n)


def _rn(n, I, J, key, memo, cof):
    """N = R_n(I, J) * L^n for sorted lists I >= J, expanded along J[0] and
    stored under ``key`` = J + I; cof[t] = L // t for the root's L = L_m."""
    if n == 1:
        val = memo[key] = _r1(*key, cof)
        return val
    get = memo.get
    total = 0
    j0 = J[0]
    Jp = J[1:]
    for r in range(n + 1):
        ir = I[r]
        Ir = I[:r] + I[r + 1:]
        shift = ir + j0 + 2
        odd = (ir ^ j0) & 1
        for side in (0, 1):
            T = Jp if side else Ir
            for pos in range(n):
                x = T[pos]
                v = x + shift
                q = bisect_left(T, v, pos + 1)
                if q < n and T[q] == v:
                    continue
                S = T[:pos] + T[pos + 1:q] + (v,) + T[q:]
                A, B = (Ir, S) if side else (S, Jp)
                if A > B:
                    A, B = B, A
                k = A + B
                sub = get(k)
                if sub is None:
                    sub = _rn(n - 1, B, A, k, memo, cof)
                if sub:
                    # ((-1)^i_r L/a + (-1)^j_0 L/b) N_sub, times -(-1)^r from
                    # the recursion and (-1)^(q - pos - 1) from sorting
                    c = cof[x + ir + 2]
                    c = c - cof[x + j0 + 2] if odd else c + cof[x + j0 + 2]
                    total += -c * sub if (r + q - pos + ir) % 2 else c * sub
    memo[key] = total
    return total


def table1(n_max: int, allow_large: bool = False):
    """R_n at the diagonal I = J = (0, ..., n) for n = 1..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    check_budget("n_max", n_max, TABLE_MAX_DEFAULT, ALLOW_LARGE, allow_large)
    out = []
    for n in range(1, n_max + 1):
        diag = tuple(range(n + 1))
        out.append((n, rn(n, diag, diag, allow_large=allow_large)))
    return out


@dataclass
class ScanResult:
    values: list  # (a, R_n value)
    first_nonzero: int  # least a with f(a) != 0, or None
    bound_m: int  # (n^2 + 2n + a_0) / 2, or None


def scan_f(n: int, a_max: int, allow_large: bool = False) -> ScanResult:
    """Scan f(a) = R_n((0..n), (0..n-1, a)) over a >= n with a = n mod 2.

    The first nonzero value pins the strong-generation bound m with the
    generator set {j^0, j^2, ..., j^{2m-2}}.  ``allow_large`` lifts the
    budgets of ``rn``.
    """
    I = tuple(range(n + 1))
    values = []
    first = None
    for a in range(n, a_max + 1, 2):
        J = tuple(range(n)) + (a,)
        v = rn(n, I, J, allow_large=allow_large)
        values.append((a, v))
        if first is None and v != 0:
            first = a
    bound = (n * n + 2 * n + first) // 2 if first is not None else None
    return ScanResult(values, first, bound)
