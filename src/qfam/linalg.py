"""Small dense linear-algebra helpers shared across modules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidMatrixError

# Singular values below RANK_CUT * s_max are treated as zero everywhere a
# numerical rank is needed.
RANK_CUT = 1e-9


def _require_finite(mat: np.ndarray) -> None:
    """The SVD does not converge on a NaN; refuse any non-finite entry."""
    if not np.isfinite(mat).all():
        raise InvalidMatrixError("matrix has a non-finite entry")


@dataclass(frozen=True)
class BlockRank:
    """Numerical rank of a block-diagonal matrix, with its margins.

    The margins are singular values divided by the largest one: the
    smallest that is kept (0.0 when the rank is 0) and the largest that is
    dropped (0.0 when none is). A verdict decided close to the cut shows as
    a margin close to RANK_CUT.
    """

    rank: int
    smallest_kept: float
    largest_dropped: float


def block_rank(groups: Iterable[tuple[int, np.ndarray]]) -> BlockRank:
    """Rank of the block-diagonal matrix that holds `copies` copies of each
    matrix of `stack`, over the (copies, stack) pairs of groups, each stack
    a (count, rows, cols) array.

    Its singular values are the union of those of its blocks, so one
    batched SVD per stack gives them all; they are cut at RANK_CUT times
    the largest over every block.
    """
    groups = [(n, stack) for n, stack in groups if stack.size]
    for _, stack in groups:
        _require_finite(stack)
    if not groups:
        return BlockRank(0, 0.0, 0.0)
    values = [np.linalg.svd(stack, compute_uv=False).ravel() for _, stack in groups]
    copies = np.concatenate([np.full(v.size, n) for (n, _), v in zip(groups, values)])
    return spectrum_rank(np.concatenate(values), copies)


def spectrum_rank(s: np.ndarray, copies: int | np.ndarray) -> BlockRank:
    """The BlockRank of a matrix whose singular values are s[k], each
    copies[k] times (copies may be one count for all), besides zeros; the
    one cut of every rank: RANK_CUT times the largest, which keeps none of 0."""
    top = s.max(initial=0.0)
    kept = s >= RANK_CUT * top if top > 0.0 else np.zeros(s.shape, dtype=bool)
    ratios = s / top if top > 0.0 else s  # all zero when none is kept
    return BlockRank(
        rank=int((kept * copies).sum()),
        smallest_kept=float(ratios[kept].min()) if kept.any() else 0.0,
        largest_dropped=float(ratios[~kept].max(initial=0.0)),
    )


def numeric_rank(mat: np.ndarray) -> int:
    """Rank of a matrix with singular values cut at RANK_CUT times the largest."""
    mat = np.asarray(mat)
    if mat.size == 0:
        return 0
    _require_finite(mat)
    return spectrum_rank(np.linalg.svd(mat, compute_uv=False), 1).rank


def nullspace(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis, as columns, of the numerical nullspace of mat."""
    mat = np.asarray(mat, dtype=complex)
    _require_finite(mat)
    # vh is square either way; only a wide matrix needs its full rows
    _, s, vh = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    return vh[spectrum_rank(s, 1).rank :].conj().T
