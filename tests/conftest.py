import tracemalloc

import pytest

from qfam import FdCStarAlgebra, MagicUnitary, functions_algebra, tensor_layout
from qfam.algebra import adjoint_permutation, multiplication_table


@pytest.fixture
def translation_magic():
    """Magic unitary of the translation action of a cyclic group on itself.

    Entry (k, l) is the indicator of the group element k - l, so column l
    permutes the points by adding l."""

    def build(n: int) -> MagicUnitary:
        alg = functions_algebra(n)
        entries = [
            [alg.basis_element((k - l) % n) for l in range(n)] for k in range(n)
        ]
        return MagicUnitary(alg, tuple(tuple(row) for row in entries))

    return build


def forget_index_tables() -> None:
    """Drop every cached index table: the tensor layouts, the multiplication
    tables and adjoint permutations, and the cached arrays of each interned
    algebra, so the next call builds the ones it needs, as a first call in a
    fresh interpreter does."""
    tensor_layout.cache_clear()
    multiplication_table.cache_clear()
    adjoint_permutation.cache_clear()
    for alg in FdCStarAlgebra._interned.values():
        for name in [name for name in vars(alg) if name != "block_dims"]:
            del vars(alg)[name]


@pytest.fixture
def traced_peak():
    """traced_peak(call, first=True): call's value and the traced peak of
    its allocations in bytes. With first, every cached index table is
    dropped before the call (forget_index_tables), so the peak is that of a
    first call."""

    def measure(call, first=True):
        if first:
            forget_index_tables()
        tracemalloc.start()
        try:
            value = call()
            return value, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return measure
