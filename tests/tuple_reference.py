"""The classical rings' product, derivative and substitution on tuple keys.

Here a key is the sorted tuple of a monomial's letters, each repeated as
often as its exponent: the spelled-out form ``classical.letters`` gives of a
packed key.  Terms are plain dicts ``{key: coefficient}`` without zeros, and
a cancelled key leaves the dict, as in ``terms.merge``.  The packed rings
are checked against these.
"""


def _add(acc, key, c):
    s = acc.get(key, 0) + c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def product(a, b):
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            _add(out, tuple(sorted(k1 + k2)), c1 * c2)
    return out


def partial(terms, var):
    """The derivative by the letter var."""
    out = {}
    for key, c in terms.items():
        e = key.count(var)
        if e:
            t = key.index(var)
            out[key[:t] + key[t + 1:]] = c * e
    return out


def substitute(terms, image):
    """The ring homomorphism taking each letter to image(letter), a terms dict."""
    out = {}
    for key, c in terms.items():
        term = {(): c}
        for letter in key:
            term = product(term, image(letter))
        for k, v in term.items():
            _add(out, k, v)
    return out
