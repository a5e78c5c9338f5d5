"""The classical determinant and substitution by single-term products.

The Leibniz expansion multiplies its entries as polynomials, and the
substitution expands each term of p as the product of its letters' images.
``classical`` runs both on packed keys; it is checked against these.
"""

import itertools
import math

from voa import classical as cl
from voa.classical import ClassicalPoly


def determinant(entries):
    """Leibniz expansion of the determinant of a square matrix (a list of rows)."""
    n = len(entries)
    return ClassicalPoly.sum(
        math.prod((entries[r][perm[r]] for r in range(n)), start=ClassicalPoly.constant(sign))
        for perm, sign in cl._signed_permutations(n)
    )


def substitute(p, image):
    """The ring homomorphism taking each letter to image(letter), term by term."""
    spelled = [(cl.letters(key), c) for key, c in p.terms.items()]
    distinct = dict.fromkeys(itertools.chain.from_iterable(s for s, _ in spelled))
    images = {v: image(v) for v in distinct}
    return ClassicalPoly.sum(
        math.prod(map(images.__getitem__, s), start=ClassicalPoly.constant(c))
        for s, c in spelled
    )
