import tracemalloc

import pytest

from qfam import FdCStarAlgebra, MagicUnitary, functions_algebra


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


@pytest.fixture
def constructed_algebras(monkeypatch):
    """Every algebra the FdCStarAlgebra constructor returns from here on, in
    call order, whether it mints one or returns a live one; the list keeps
    them alive. Index tables cached before are dropped first
    (forget_index_tables), so no cached layout hands out its product
    without a constructor call."""
    returned = []
    original = FdCStarAlgebra.__new__

    def recording(cls, block_dims):
        returned.append(original(cls, block_dims))
        return returned[-1]

    forget_index_tables()
    monkeypatch.setattr(FdCStarAlgebra, "__new__", recording)
    return returned


def forget_index_tables() -> None:
    """Drop every cached index table: each live algebra's cached attributes
    (its arrays, multiplication table, adjoint permutation and tensor
    layouts), so the next call builds the ones it needs, as a first call in
    a fresh interpreter does. An algebra that only those layouts kept alive
    dies with them."""
    for alg in list(FdCStarAlgebra._interned.values()):
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
