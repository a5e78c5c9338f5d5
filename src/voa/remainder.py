"""The remainder coefficients R_n(I, J): closed form, recursion, table, zero-scan.

Index lists are extended off the strictly increasing cone by determinant
semantics: sorting contributes the sign of the permutation, and a repeated
entry gives zero.  The recursion substitutes entries i_k -> i_k + i_r + j_0 + 2
(and j_l likewise), which is what forces that extension.

Evaluation.  ``rn`` orders the caller's sorted lists as (lo, hi), lo <= hi,
under the flat memo key lo + hi (its length gives n).  R_n is symmetric in
its lists, so each entry is expanded along lo[0], the smaller leading entry:
the shifts stay small and sub-lists share entries.  A substitution replaces
one entry x, at position pos of a sorted tuple T, by v = x + shift > x.  So
v's slot is q = bisect_left(T, v, pos + 1): an equal entry T[q] makes the
sub-list repeated and the term zero; otherwise moving v from pos to q - 1
sorts the list with the sign (-1)^(q - pos - 1).  The term's coefficient
(-1)^i_r / (x + i_r + 2) + (-1)^j_0 / (x + j_0 + 2) is one pair of small
integers.  Memo values are reduced (numerator, denominator) int pairs: each
entry, the n = 1 closed form included, is one sum over L = lcm of its terms'
denominators, added as integers and reduced by one gcd (von zur Gathen &
Gerhard, *Modern Computer Algebra*, ch. 5); ``rn`` builds the one
``Fraction`` it returns.  The tests keep a term-by-term ``Fraction``
evaluation as the reference.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import ALLOW_LARGE, ParityError, check_budget
from .terms import sort_sign

#: n (and table entries) beyond this need the explicit opt-in flag
TABLE_MAX_DEFAULT = 7


def r1_closed_form(I, J) -> Fraction:
    """The four-bracket closed form for n = 1, on strictly increasing lists."""
    I, J = tuple(I), tuple(J)
    if len(I) != 2 or len(J) != 2:
        raise ValueError("closed form needs two index pairs")
    if not (0 <= I[0] < I[1]) or not (0 <= J[0] < J[1]):
        raise ValueError("index lists must be strictly increasing and nonnegative")
    if (sum(I) + sum(J)) % 2:
        raise ParityError(f"m = {sum(I) + sum(J) + 2} is odd")
    return Fraction(*_r1(*I, *J))


def _r1(i0, i1, j0, j1):
    """The closed form as a reduced (num, den) pair: six denominators."""
    si0, si1, sj0, sj1 = (-1 if t % 2 else 1 for t in (i0, i1, j0, j1))
    return _reduce([
        (si0 * (sj0 - sj1), 2 + i0 + i1), (sj0 * sj1, 2 + i1 + j1),
        (-sj0 * sj1, 2 + i1 + j0), (si0 * si1, 2 + i0 + j0),
        (si1 * (sj1 - sj0), 2 + j0 + j1), (-si0 * si1, 2 + i0 + j1),
    ])


def _reduce(terms):
    """sum(t / d) over (t, d) pairs with d > 0, as a reduced (num, den) pair."""
    L = lcm(*[d for _, d in terms])
    total = sum(t * (L // d) for t, d in terms)
    g = gcd(total, L)
    return total // g, L // g


# One logical map from flat keys lo + hi, lo <= hi, to R_n of the sorted lists
# as a (num, den) pair; entries are pure functions of their keys, so concurrent
# insert-or-get under the GIL at worst recomputes an identical value.
_MEMO = {}


def rn(n: int, I, J, memoize: bool = True, allow_large: bool = False) -> Fraction:
    """R_n(I, J) for length-(n+1) lists, by recursion on n.

    The remainder is symmetric in (I, J) (the underlying determinant is), so
    memo keys fold that symmetry in.  ``memoize=False`` evaluates in a
    private memo dropped afterwards.  n beyond ``TABLE_MAX_DEFAULT`` raises
    ``ResourceError`` unless ``allow_large``.
    """
    I, J = tuple(I), tuple(J)
    if len(I) != n + 1 or len(J) != n + 1:
        raise ValueError(f"index lists must have length {n + 1}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if any(t < 0 for t in I + J):
        raise ValueError("indices must be nonnegative")
    if (sum(I) + sum(J)) % 2:
        raise ParityError(f"m = {sum(I) + sum(J) + 2 * n} is odd")
    check_budget("n", n, TABLE_MAX_DEFAULT, ALLOW_LARGE, allow_large)
    sI, I2 = sort_sign(I)
    sJ, J2 = sort_sign(J)
    if sI == 0 or sJ == 0:
        return Fraction(0)
    memo = _MEMO if memoize else {}
    lo, hi = (I2, J2) if I2 <= J2 else (J2, I2)
    key = lo + hi
    val = memo.get(key)
    if val is None:
        val = _rn(n, hi, lo, key, memo)
    return sI * sJ * Fraction(*val)


def _rn(n, I, J, key, memo):
    """R_n of sorted lists I >= J along J[0], stored under ``key`` = J + I."""
    if n == 1:
        val = memo[key] = _r1(*key)
        return val
    get = memo.get
    terms = []  # (numerator, denominator) of each nonzero term
    m = n - 1
    j0 = J[0]
    Jp = J[1:]
    for r in range(n + 1):
        ir = I[r]
        Ir = I[:r] + I[r + 1:]
        shift = ir + j0 + 2
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
                    sub = _rn(m, B, A, k, memo)
                top, den = sub
                if top:
                    # (-1)^i_r / a + (-1)^j_0 / b = num / (a b), times
                    # -(-1)^r from the recursion and (-1)^(q - pos - 1)
                    # from sorting the sub-list
                    a, b = x + ir + 2, x + j0 + 2
                    num = (-b if ir % 2 else b) + (-a if j0 % 2 else a)
                    if (r + q - pos) % 2:
                        num = -num
                    terms.append((num * top, a * b * den))
    val = memo[key] = _reduce(terms)
    return val


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


def scan_f(n: int, a_max: int) -> ScanResult:
    """Scan f(a) = R_n((0..n), (0..n-1, a)) over a >= n with a = n mod 2.

    The first nonzero value pins the strong-generation bound m with the
    generator set {j^0, j^2, ..., j^{2m-2}}.
    """
    I = tuple(range(n + 1))
    values = []
    first = None
    for a in range(n, a_max + 1, 2):
        J = tuple(range(n)) + (a,)
        v = rn(n, I, J)
        values.append((a, v))
        if first is None and v != 0:
            first = a
    bound = (n * n + 2 * n + first) // 2 if first is not None else None
    return ScanResult(values, first, bound)
