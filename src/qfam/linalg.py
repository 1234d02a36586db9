"""Small dense linear-algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np

# Singular values below RANK_CUT * s_max are treated as zero everywhere a
# numerical rank is needed.
RANK_CUT = 1e-9


def _rank_of(s: np.ndarray) -> int:
    """Number of singular values s (descending) at or above RANK_CUT * s[0]."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s >= RANK_CUT * s[0]))


def numeric_rank(mat: np.ndarray) -> int:
    """Rank of a matrix with singular values cut at RANK_CUT times the largest."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0
    return _rank_of(np.linalg.svd(mat, compute_uv=False))


def nullspace(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis, as columns, of the numerical nullspace of mat."""
    mat = np.asarray(mat, dtype=complex)
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    return vh[_rank_of(s) :].conj().T
