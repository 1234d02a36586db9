"""Cancellation and Podleś ranks summed block by block under one cut.

The reference below is the full-span formula the block sums replace: every
product (e_i (x) 1) y or y (1 (x) f_i) as one row, and one SVD of the whole
matrix, cut at RANK_CUT times its largest singular value.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qfam import (
    QuantumSemigroup,
    cancellation_rank,
    classical_semigroup_algebra,
    group_table,
    make_algebra,
    podles_rank,
    table_is_left_cancellative,
    table_is_right_cancellative,
)
from qfam.algebra import module_span_rank, multiply, tensor_layout
from qfam.linalg import RANK_CUT
from qfam.morphisms import StarMorphism
from qfam.semigroups import tables_are_associative
from qfam.suites import random_family


def full_span_rank(layout, rows, side):
    """(rank, smallest kept, largest dropped) of the span from one SVD of
    all products."""
    if side == "left":
        xs, ys = layout.left_units(), rows
    else:
        ident = layout.left.identity().to_vec()
        units = ident[None, :, None] * np.eye(layout.right.dim)[:, None, :]
        xs, ys = rows, layout.combine(units)
    products = multiply(layout.product, xs[:, None, :], ys[None, :, :])
    s = np.linalg.svd(products.reshape(-1, layout.product.dim), compute_uv=False)
    kept = s >= RANK_CUT * s[0] if s[0] > 0 else np.zeros(s.shape, dtype=bool)
    smallest = s[kept].min() / s[0] if kept.any() else 0.0
    dropped = s[~kept].max() / s[0] if s[0] > 0 and not kept.all() else 0.0
    return int(kept.sum()), smallest, dropped


def _same_as_reference(found, reference):
    rank, smallest, dropped = reference
    assert found.rank == rank
    assert np.isclose(found.smallest_kept, smallest, rtol=1e-6, atol=0.0)
    assert abs(found.largest_dropped - dropped) < 1e-12


_BLOCKS = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(
    _BLOCKS,
    st.one_of(st.none(), _BLOCKS),
    st.sampled_from(["left", "right"]),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_block_sums_match_the_full_span(left, right, side, rows, rank, seed):
    """Random rank-r rows over layouts with blocks of size up to 3: the same
    factor twice (cancellation) or two different factors (Podleś), on
    either side, give the full SVD's rank and margins."""
    rng = np.random.default_rng(seed)
    left_alg = make_algebra(left)
    right_alg = left_alg if right is None else make_algebra(right)
    layout = tensor_layout(left_alg, right_alg)
    gauss = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ys = gauss(rows, rank) @ gauss(rank, layout.product.dim)
    rows_map = StarMorphism(make_algebra([1] * rows), layout.product, ys.T)
    found = module_span_rank(layout, rows_map, side)
    _same_as_reference(found, full_span_rank(layout, ys, side))


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_podles_rank_of_random_families_matches_the_full_span(seed):
    """podles_rank on random verified families, labels with a 2x2 block
    among them, against one SVD of every Psi(e_i) (1 (x) f_j). The source
    has a 1x1 block, so it embeds unitally in any product block."""
    rng = np.random.default_rng(seed)
    blocks = [(1,), (2,), (1, 2), (1, 1)]
    pick = lambda options: make_algebra(options[int(rng.integers(len(options)))])
    source = pick([b for b in blocks if 1 in b])
    family = random_family(rng, source, pick(blocks), pick(blocks))
    rows = family.morphism.matrix.T
    _same_as_reference(podles_rank(family), full_span_rank(family.layout, rows, "right"))


def test_every_associative_table_of_order_2_and_3():
    """Both cancellation ranks of all 121 associative tables of order 2 and
    3 equal the full-span rank, and are full exactly when the table cancels
    on that side."""
    checked = 0
    for n in (2, 3):
        tables = np.array(list(itertools.product(range(n), repeat=n * n)))
        tables = tables.reshape(-1, n, n)
        for table in tables[tables_are_associative(tables)]:
            sg = classical_semigroup_algebra(table)
            layout = tensor_layout(sg.algebra, sg.algebra)
            rows = sg.comultiplication.matrix.T
            cancels = {
                "left": table_is_left_cancellative(table),
                "right": table_is_right_cancellative(table),
            }
            for side in ("left", "right"):
                report = cancellation_rank(sg, side)
                assert report.rank == full_span_rank(layout, rows, side)[0]
                assert report.full == cancels[side]
            checked += 1
    assert checked == 121


def test_cancellation_on_the_cyclic_group_of_order_64():
    """Both spans of functions on Z/64 fill the 4096-dimensional square."""
    sg = classical_semigroup_algebra(group_table(64))
    for side in ("left", "right"):
        report = cancellation_rank(sg, side)
        assert (report.rank, report.full) == (4096, True)
        assert report.smallest_kept == 1.0 and report.largest_dropped == 0.0


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=-0.99, max_value=0.99).filter(lambda e: abs(e) > 0.01),
    st.floats(min_value=1e-3, max_value=1e3),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_singular_value_near_the_cut_shows_in_the_margin(exponent, scale, seed):
    """On M_2 the left span is two copies of one 8x8 matrix M. With one
    singular value of M at 10**exponent * RANK_CUT of the largest, the
    margin on its side of the cut is within a factor 10 of RANK_CUT and
    the rank counts it on the right side."""
    rng = np.random.default_rng(seed)
    alg = make_algebra([2])
    layout = tensor_layout(alg, alg)
    s = np.array([1.0, 0.9, 0.7, 0.5, 0.4, 0.3, 0.2, 10.0**exponent * RANK_CUT])
    u, v = (np.linalg.qr(rng.standard_normal((8, 8)))[0] for _ in range(2))
    mat = scale * (u * s) @ v.T  # rows (j, r), columns (s, c)
    table = mat.reshape(4, 2, 2, 4).reshape(4, 4, 4)  # [j, (r, s), c]
    delta = StarMorphism(alg, layout.product, layout.combine(table).T)
    report = cancellation_rank(QuantumSemigroup(alg, delta), "left")
    near = s[-1]
    if exponent > 0:
        assert report.rank == 16
        assert np.isclose(report.smallest_kept, near, rtol=1e-4)
        assert RANK_CUT <= report.smallest_kept < 10 * RANK_CUT
    else:
        assert report.rank == 14
        assert np.isclose(report.largest_dropped, near, rtol=1e-4)
        assert RANK_CUT / 10 < report.largest_dropped < RANK_CUT
