"""Reference computations for the tests: dense structure constants and the
term-by-term evaluation of a formal polynomial."""

from voa import vertexcore as vc
from voa.scalars import ZERO
from voa.vertexcore import State


def structure(spec):
    """c[i][j][l] with [xi_i, xi_j] = sum_l c[i][j][l] xi_l, zeros included."""
    n = spec.dim
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(spec.brackets):
        for j, vec in enumerate(row):
            for l, v in vec:
                c[i][j][l] = v
    return c


def evaluate_nop(nop, dictionary):
    """Each monomial's right-nested Wick chain, scaled term by term by its
    LevelScalar coefficient and summed in a dict."""
    acc = {}
    for mono, c in nop.terms.items():
        chain = vc.wick_chain(dictionary.spec, [dictionary.factor_state(s, t) for s, t in mono])
        for m, v in chain.terms.items():
            acc[m] = acc.get(m, ZERO) + c * v
    return State({m: v for m, v in acc.items() if v})
