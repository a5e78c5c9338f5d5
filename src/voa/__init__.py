"""Exact computation kernel for affine and Heisenberg vertex algebras.

Circle products, Wick products and OPEs over the rational-function field
Q(k); classical invariant theory for the orthogonal and adjoint-sl2 actions;
invariant subspaces, quantum corrections, decoupling relations; and the
remainder recursion with its closed n=1 form.

The package root holds only ``__version__``, ``cache_stats()`` and
``clear_caches()``, so importing one module loads only what that module
uses.  Everything else is imported from its module, for example
``from voa import remainder`` or ``from voa.vertexcore import State``.
"""

__version__ = "0.1.0"


def cache_stats() -> dict:
    """Entry counts of the process-wide caches, as a new dict.

    Each ``lru_cache`` is reported as ``"<module>.<name>"`` with its current
    size, and the derivative, descent-stage, closure and leading-symbol
    caches of the dictionaries in ``orbifold._OMEGA_CACHE`` are summed over
    those dictionaries.  Reading the counts changes no cache.  It imports the
    modules it counts, so the first call loads the engine, the classical
    images, the descent and the recursion.
    """
    from . import classical, orbifold, remainder, vertexcore

    dictionaries = list(orbifold._OMEGA_CACHE.values())
    return {
        "remainder._MEMO": len(remainder._MEMO),
        "orbifold._OMEGA_CACHE": len(dictionaries),
        "orbifold._OMEGA_CACHE._deriv_cache": sum(len(d._deriv_cache) for d in dictionaries),
        "orbifold._OMEGA_CACHE._stages": sum(len(d._stages) for d in dictionaries),
        "orbifold._OMEGA_CACHE._closure": sum(len(d._closure) for d in dictionaries),
        "orbifold._OMEGA_CACHE._symbols": sum(len(d._symbols) for d in dictionaries),
        **{
            f"{f.__module__.removeprefix('voa.')}.{f.__name__}": f.cache_info().currsize
            for f in vertexcore._LRU_CACHES + classical._LRU_CACHES
        },
    }


def clear_caches() -> None:
    """Empty every cache that ``cache_stats`` counts.

    The caches hold pure functions of their keys, so later calls recompute
    the same values.
    """
    from . import classical, orbifold, remainder, vertexcore

    remainder._MEMO.clear()
    orbifold._OMEGA_CACHE.clear()
    for f in vertexcore._LRU_CACHES + classical._LRU_CACHES:
        f.cache_clear()
