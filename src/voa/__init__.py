"""Exact computation kernel for affine and Heisenberg vertex algebras.

Circle products, Wick products and OPEs over the rational-function field
Q(k); classical invariant theory for the orthogonal and adjoint-sl2 actions;
invariant subspaces, quantum corrections, decoupling relations; and the
remainder recursion with its closed n=1 form.
"""

from .scalars import (
    K,
    ONE,
    ZERO,
    LevelPolynomial,
    LevelScalar,
    PoleAtLevel,
)
from .errors import DescentStuck, ParityError, ResourceError
from .liedata import (
    ActionSpec,
    LieSpec,
    abelian,
    adjoint_action,
    orthogonal_action,
    sl2_spec,
    validate,
    validate_action,
)
from .vertexcore import (
    State,
    apply_group_element,
    circle_product,
    degree,
    derivative,
    leading_symbol,
    lie_act,
    mode_action,
    ope,
    sugawara,
    weight,
    wick,
    wick_chain,
)
from .classical import (
    ClassicalPoly,
    d_ring_derivative,
    det_relation,
    dring_contains,
    lie_invariance_check,
    minimal_dring_generators,
    polarization,
    sl2_c,
    sl2_q,
    sl2_relation_type1,
    sl2_relation_type2,
    substitute,
    substitute_sl2,
    weyl_q,
)
from .orbifold import (
    DecoupleResult,
    FormalNOP,
    GeneratorDictionary,
    decouple,
    evaluate_nop,
    express_in_generators,
    invariant_subspace,
    j_gen,
    omega,
    pr_coefficient,
    quantum_correction,
    remainder_direct,
    sl2_tilde_c,
    sl2_tilde_q,
)
from .remainder import ScanResult, r1_closed_form, rn, scan_f, table1
from . import orbifold, remainder, vertexcore

__version__ = "0.1.0"

_LRU_CACHES = (
    vertexcore._int_scalar,
    vertexcore._mode_mono,
    vertexcore._cp_pair,
    weyl_q,
    sl2_q,
    sl2_c,
)


def cache_stats() -> dict:
    """Entry counts of the process-wide caches, as a new dict.

    Each ``lru_cache`` is reported as ``"<module>.<name>"`` with its current
    size, and the derivative, descent-stage, closure and leading-symbol
    caches of the dictionaries in ``orbifold._OMEGA_CACHE`` are summed over
    those dictionaries.  Reading the counts changes no cache.
    """
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
            for f in _LRU_CACHES
        },
    }


def clear_caches() -> None:
    """Empty every cache that ``cache_stats`` counts.

    The caches hold pure functions of their keys, so later calls recompute
    the same values.
    """
    remainder._MEMO.clear()
    orbifold._OMEGA_CACHE.clear()
    for f in _LRU_CACHES:
        f.cache_clear()
