"""The one numerical rank policy: singular values cut at RANK_CUT * s_max."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qfam.linalg import RANK_CUT, nullspace, numeric_rank
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
