"""Sparse term maps: the linear structure shared by every container.

A state, a formal normally ordered polynomial and a classical polynomial
(in the variables or in the Q/C symbols) are each a finite map from
monomial keys to exact coefficients.  The map is a dict that never holds
a zero value, and every operation drops the terms that cancel.  Subclasses supply their keys
(with ``unit_key``, the key of the empty monomial), their products and
their rendering; ``coerce`` turns an input coefficient
(an int, say) into the subclass's coefficient type.  The classical
polynomials coerce to ``int`` or ``Fraction``, and their arithmetic may
leave an integral ``Fraction`` (``Fraction(3, 2) * 2``), which compares,
hashes and prints like the ``int``.

Two helpers build the keys: ``sort_sign`` sorts an index list with the sign
of the sorting permutation, and ``weighted_multisets`` lists the monomials of
one weight over an alphabet of weighted letters.
"""

from __future__ import annotations


def merge(acc: dict, terms: dict):
    """acc += terms; drops cancellations."""
    for mono, c in terms.items():
        s = acc.get(mono)
        s = c if s is None else s + c
        if s:
            acc[mono] = s
        elif mono in acc:
            del acc[mono]


class Terms:
    """A finite map from keys to nonzero coefficients.

    Treated as immutable; all operations return fresh objects.  Objects of
    different subclasses never compare equal.
    """

    __slots__ = ("terms",)

    coerce = None  # coefficient coercion, set by each subclass
    unit_key = ()  # the key of the empty monomial

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            coerce = self.coerce
            for key, c in terms.items():
                c = coerce(c)
                if c:
                    self.terms[key] = c

    @classmethod
    def wrap(cls, terms: dict):
        """The object over a dict already free of zeros, not copied or coerced."""
        obj = cls.__new__(cls)
        obj.terms = terms
        return obj

    @classmethod
    def sum(cls, items):
        """The sum of the items, accumulated in place in one dict.

        Keys come in the order of a left fold of ``+`` over the items.
        """
        acc = {}
        for item in items:
            merge(acc, item.terms)
        return cls.wrap(acc)

    @classmethod
    def zero(cls):
        return cls.wrap({})

    @classmethod
    def constant(cls, c):
        return cls({cls.unit_key: c})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        merge(out, other.terms)
        return self.wrap(out)

    def __neg__(self):
        return self.wrap({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self.coerce(c)
        if not c:
            return self.wrap({})
        return self.wrap({k: v * c for k, v in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)


def sort_sign(entries):
    """(sign, sorted tuple): the sign of the permutation that sorts the
    entries, or 0 when an entry repeats."""
    entries = tuple(entries)
    ordered = tuple(sorted(entries))
    if len(set(ordered)) < len(ordered):
        return 0, ordered
    inversions = sum(1 for t, x in enumerate(entries) for y in entries[t + 1:] if x > y)
    return (-1) ** inversions, ordered


def weighted_multisets(letters, weights, total, degrees=None, max_degree=0):
    """Every multiset of letters whose weights sum to ``total``.

    ``letters``, ``weights`` and ``degrees`` are parallel sequences.  Each
    multiset is a tuple of letters in the order of ``letters``, and they come
    in lexicographic order of their index tuples; the empty multiset is the
    one of total 0.  With ``degrees``, a multiset whose degrees sum past
    ``max_degree`` is pruned as it is built.  A letter of weight below 1
    would repeat without end and raises ``ValueError``.
    """
    for letter, w in zip(letters, weights):
        if w < 1:
            raise ValueError(f"letter {letter!r} has weight {w}; weights must be positive")
    if degrees is None:
        degrees = [0] * len(letters)
    out = []
    prefix = []

    def extend(start, wleft, dleft):
        if wleft == 0:
            out.append(tuple(prefix))
            return
        for idx in range(start, len(letters)):
            w, d = weights[idx], degrees[idx]
            if w <= wleft and d <= dleft:
                prefix.append(letters[idx])
                extend(idx, wleft - w, dleft - d)
                prefix.pop()

    extend(0, total, max_degree)
    return out
