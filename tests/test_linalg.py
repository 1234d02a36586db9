"""The one numerical rank policy: singular values cut at RANK_CUT * s_max."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfam import (
    InvalidMatrixError,
    QuantumFamily,
    QuantumSemigroup,
    all_maps_family,
    cancellation_rank,
    classical_family,
    classical_semigroup_algebra,
    fixed_point_space,
    group_table,
    podles_rank,
)
from qfam.linalg import RANK_CUT, nullspace, numeric_rank
from qfam.morphisms import StarMorphism
from qfam.suites import haar_unitary

# singular values relative to the largest: clearly kept, just above and
# just below the cut, and exactly zero
_LEVELS = {
    "kept": 1e-3,
    "above": 1.001 * RANK_CUT,
    "below": 0.999 * RANK_CUT,
    "zero": 0.0,
}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.lists(st.sampled_from(sorted(_LEVELS)), min_size=5, max_size=5),
    st.floats(min_value=1e-3, max_value=1e3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rank_and_nullity_share_the_cut(rows, cols, levels, scale, seed):
    """numeric_rank counts exactly the singular values at or above
    RANK_CUT * s_max, and nullspace drops the same ones."""
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    s = scale * np.array([1.0] + [_LEVELS[name] for name in levels])[:k]
    u, v = haar_unitary(rng, rows), haar_unitary(rng, cols)
    mat = (u[:, :k] * s) @ v[:, :k].conj().T
    rank = numeric_rank(mat)
    assert rank == np.count_nonzero(s >= RANK_CUT * scale)
    assert rank + nullspace(mat).shape[1] == cols


def _with_nan(morphism: StarMorphism) -> StarMorphism:
    matrix = morphism.matrix.copy()
    matrix[0, 0] = np.nan
    return StarMorphism(morphism.domain, morphism.codomain, matrix)


def _nan_family() -> QuantumFamily:
    fam = all_maps_family(2)
    morphism = _with_nan(fam.morphism)
    return QuantumFamily(fam.source, fam.target_factor, fam.label, morphism)


def _nan_semigroup() -> QuantumSemigroup:
    sg = classical_semigroup_algebra(group_table(3))
    return QuantumSemigroup(sg.algebra, _with_nan(sg.comultiplication), sg.counit)


@pytest.mark.parametrize(
    "call",
    [
        lambda: numeric_rank(np.array([[1.0, 0.0], [0.0, np.nan]])),
        lambda: nullspace(np.array([[1.0, 0.0], [0.0, np.nan]])),
        lambda: fixed_point_space(_nan_family()),
        lambda: podles_rank(_nan_family()),
        lambda: cancellation_rank(_nan_semigroup()),
    ],
    ids=[
        "numeric_rank", "nullspace", "fixed_point_space", "podles_rank", "cancellation_rank"
    ],
)
def test_a_nan_entry_is_refused_before_the_svd(call):
    """The SVD does not converge on a NaN; the rank policy refuses it with
    a qfam error instead of numpy's LinAlgError."""
    with pytest.raises(InvalidMatrixError, match="non-finite entry"):
        call()


def test_the_nullspace_of_a_tall_matrix_builds_no_full_u(traced_peak):
    """Fixed points of 1,000 maps of two points solve a 2000 x 2 system
    (64 KB): the SVD's full U would be 2000 x 2000 (64 MB), its thin U is
    the size of the matrix."""
    family = classical_family([[0, 1], [1, 0]] * 500)
    space, peak = traced_peak(lambda: fixed_point_space(family))
    assert space.dimension == 1 and space.ergodic
    assert peak <= 2**20, peak

