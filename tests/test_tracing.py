"""The benchmark tracer still finds every name it wraps.

``benchmarks/tracing.py`` looks each traced function up by name, so a name
deleted from ``voa`` makes ``Tracer.install`` raise ``KeyError``.  The test
loads the tracer from its file, as it is, around one invariant subspace and
one substitution.
"""

import importlib.util
from pathlib import Path

from voa import classical as cl
from voa import liedata, linalg
from voa import orbifold as ob

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts_the_traced_names():
    source = TRACING.read_bytes()
    tracer = _load_tracing().Tracer()
    kernel_basis = linalg.kernel_basis
    try:
        tracer.install()
        ob.invariant_subspace(liedata.abelian(2), liedata.orthogonal_action(2), 4)
        cl.substitute(cl.det_relation(1, (0, 1), (0, 1)), 2)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["linalg.kernel_basis_cells"] > 0
    assert metrics["classical.substitute_calls"] > 0
    assert linalg.kernel_basis is kernel_basis
    assert TRACING.read_bytes() == source
