"""Each index path against the dense path it replaces, on the same input.

The counted module rank, the counit read by gather and the monomial form a
table records are each chosen from the input (a commutative product, a
monomial form); a copy of the map whose monomial form reads None takes the
dense path, so the two are each other's oracle. `contract` is checked
against the broadcast product it replaces.
"""

import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfam.algebra
import qfam.semigroups
from qfam import (
    Character,
    InvalidSemigroupError,
    QuantumFamily,
    QuantumSemigroup,
    cancellation_rank,
    classical_family,
    classical_semigroup_algebra,
    coassociativity_defect,
    counit_defect,
    functions_algebra,
    group_table,
    make_algebra,
    podles_rank,
    tensor_layout,
)
from qfam.algebra import adjoint_coords, contract, module_span_rank, multiply
from qfam.morphisms import StarMorphism, _integer_table, set_map_morphism
from qfam.semigroups import tables_are_associative


def _dense_copy(phi):
    """phi with no monomial form, so every check takes its dense path."""
    copy = StarMorphism(phi.domain, phi.codomain, phi.matrix)
    copy.__dict__["monomial"] = None
    return copy


def _no_svd(groups):
    raise AssertionError("the SVD path ran for a monomial map into a commutative product")


def _no_dense_lift(*args):
    raise AssertionError("a dense lift ran for a monomial counit and comultiplication")


def _associative_tables(n):
    tables = np.array(list(itertools.product(range(n), repeat=n * n))).reshape(-1, n, n)
    return tables[tables_are_associative(tables)]


# every associative table of order 1 to 3; products of two are associative too
SMALL = [t for n in (1, 2, 3) for t in _associative_tables(n)]


def _product_table(first, second, perm):
    """The direct product of two tables, its points relabelled by perm."""
    m = len(second)
    table = first[:, None, :, None] * m + second[None, :, None, :]
    table = table.reshape(len(first) * m, -1)
    inverse = np.argsort(perm)
    return perm[table[inverse][:, inverse]]


random_tables = st.builds(
    lambda i, j, seed: _product_table(
        SMALL[i], SMALL[j], np.random.default_rng(seed).permutation(len(SMALL[i]) * len(SMALL[j]))
    ),
    st.integers(0, len(SMALL) - 1),
    st.integers(0, len(SMALL) - 1),
    st.integers(0, 2**32 - 1),
)


def _same_rank(counted, dense):
    assert counted.rank == dense.rank
    assert abs(counted.smallest_kept - dense.smallest_kept) <= 1e-12
    assert abs(counted.largest_dropped - dense.largest_dropped) <= 1e-12


def _ranks_by_path(layout, phi, side, monkeypatch):
    dense = module_span_rank(layout, _dense_copy(phi), side)
    with monkeypatch.context() as mp:
        mp.setattr(qfam.algebra, "block_rank", _no_svd)
        counted = module_span_rank(layout, phi, side)
    return counted, dense


@settings(max_examples=60, deadline=None)
@given(random_tables, st.sampled_from(["left", "right"]))
def test_counted_cancellation_ranks_match_the_svd_on_random_tables(table, side):
    """On direct products of associative tables of order up to 3, relabelled
    at random, the counted rank is the SVD rank and the margins agree."""
    assert tables_are_associative(table[None])[0]
    sg = classical_semigroup_algebra(table)
    layout = tensor_layout(sg.algebra, sg.algebra)
    with pytest.MonkeyPatch.context() as mp:
        counted, dense = _ranks_by_path(layout, sg.comultiplication, side, mp)
    _same_rank(counted, dense)
    assert cancellation_rank(sg, side).rank == counted.rank


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([[1], [2], [1, 2], [1, 1, 1]]),
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    st.booleans(),
    st.sampled_from(["left", "right"]),
    st.integers(0, 2**32 - 1),
)
def test_counted_ranks_match_the_svd_on_random_monomial_maps(
    left, right, domain, zero_share, phases, side, seed
):
    """Random monomial maps into a commutative product, with phases of
    random moduli and zero rows, from any domain: both paths give the same
    rank and margins on either side."""
    rng = np.random.default_rng(seed)
    layout = tensor_layout(functions_algebra(left), functions_algebra(right))
    dom = make_algebra(domain)
    mat = np.zeros((layout.product.dim, dom.dim), dtype=complex)
    live = np.flatnonzero(rng.random(len(mat)) >= zero_share)
    values = np.exp(2j * np.pi * rng.random(len(live))) * rng.uniform(0.1, 3, len(live))
    mat[live, rng.integers(0, dom.dim, len(live))] = values if phases else 1.0
    phi = StarMorphism(dom, layout.product, mat)
    with pytest.MonkeyPatch.context() as mp:
        counted, dense = _ranks_by_path(layout, phi, side, mp)
    _same_rank(counted, dense)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_counted_podles_ranks_match_the_svd_on_classical_families(count, n, seed):
    """podles_rank of a random classical family is counted, and equals the
    SVD rank of the same map with its margins."""
    tables = np.random.default_rng(seed).integers(0, n, size=(count, n))
    family = classical_family(tables)
    dense = QuantumFamily(family.source, family.source, family.label, _dense_copy(family.morphism))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qfam.algebra, "block_rank", _no_svd)
        counted = podles_rank(family)
    found = podles_rank(dense)
    assert counted.rank == found.rank and counted.total == found.total
    assert abs(counted.smallest_kept - found.smallest_kept) <= 1e-12
    assert abs(counted.largest_dropped - found.largest_dropped) <= 1e-12


_BLOCKS = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(_BLOCKS, st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_contract_matches_the_broadcast_sum(blocks, q, rows, cols, seed):
    """contract(x, y) is multiply(x[:, :, None], y[:, None]).sum(axis=0)
    within 1e-13 times the operands' scale, on algebras with blocks up to 3."""
    rng = np.random.default_rng(seed)
    alg = make_algebra(blocks)
    gauss = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x, y = gauss(q, rows, alg.dim), gauss(q, cols, alg.dim)
    want = multiply(alg, x[:, :, None], y[:, None]).sum(axis=0)
    got = contract(alg, x, y)
    assert got.shape == (rows, cols, alg.dim)
    scale = q * max(blocks) * np.abs(x).max() * np.abs(y).max()
    assert np.abs(got - want).max() <= 1e-13 * scale
    gram = contract(alg, adjoint_coords(alg, x), x)  # the isometry Gram is Hermitian
    assert np.abs(gram - adjoint_coords(alg, gram).swapaxes(0, 1)).max() <= 1e-13 * scale


def _counit_by_path(sg):
    dense = QuantumSemigroup(sg.algebra, _dense_copy(sg.comultiplication), sg.counit)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qfam.semigroups, "lift", _no_dense_lift)
        fast = counit_defect(sg)
    return fast, counit_defect(dense)


@settings(max_examples=60, deadline=None)
@given(random_tables, st.integers(0, 2**32 - 1))
def test_the_counit_gather_matches_the_dense_lifts_bit_for_bit(table, seed):
    """The counit defect of a table, at its identity when it has one and at
    a random point otherwise, reads the same float on both paths."""
    sg = classical_semigroup_algebra(table)
    n = sg.algebra.dim
    point = int(np.random.default_rng(seed).integers(n))
    for counit in filter(None, (sg.counit, Character(sg.algebra, np.eye(1, n, point)))):
        fast, dense = _counit_by_path(QuantumSemigroup(sg.algebra, sg.comultiplication, counit))
        assert repr(fast) == repr(dense)


@pytest.mark.parametrize("table", [[[0, 1, 2]] * 3, [[0] * 3, [1] * 3, [2] * 3]])
def test_each_counit_law_reads_the_same_on_both_paths(table):
    """Evaluation at point 0 breaks one counit law of the right-zero and the
    left-zero semigroup on three points: both paths read 1.0."""
    sg = classical_semigroup_algebra(table)
    broken = QuantumSemigroup(sg.algebra, sg.comultiplication, Character(sg.algebra, [[1, 0, 0]]))
    assert _counit_by_path(broken) == (1.0, 1.0)


def _pullbacks():
    yield classical_semigroup_algebra(group_table(5)).comultiplication
    yield classical_semigroup_algebra([[0] * 4] * 4).comultiplication
    yield classical_family([[1, 0, 2], [2, 2, 2]]).morphism
    yield set_map_morphism([3, 0, 0, 1])


@pytest.mark.parametrize("phi", _pullbacks())
def test_a_table_records_the_monomial_form_the_matrix_gives(phi):
    """The form a table map records is the one StarMorphism.monomial derives
    from its matrix: intp columns, float64 coefficients 1, read-only."""
    cols, coefs = phi.__dict__["monomial"]
    derived_cols, derived_coefs = StarMorphism(phi.domain, phi.codomain, phi.matrix).monomial
    assert cols.dtype == derived_cols.dtype == np.intp
    assert coefs.dtype == derived_coefs.dtype == np.float64
    assert np.array_equal(cols, derived_cols) and np.array_equal(coefs, derived_coefs)
    assert not cols.flags.writeable and not coefs.flags.writeable


@pytest.mark.parametrize(
    "clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))], ids=["deepcopy", "pickle"]
)
def test_a_copy_of_a_table_map_holds_only_its_form(clone):
    """A copy of a map that holds only its monomial form is rebuilt from
    that form, read-only, and builds no dense matrix; the matrix it builds
    on first read has the bits of the original's."""
    for phi in _pullbacks():
        again = clone(phi)
        assert "matrix" not in vars(again)
        for ours, theirs in zip(again.monomial, phi.monomial):
            assert not ours.flags.writeable and ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)
        assert np.array_equal(again.matrix.view(np.uint64), phi.matrix.view(np.uint64))


def test_a_uint8_table_gives_the_answers_of_its_list():
    """A uint8 table of order 20 is admitted, and its maps give the same
    coassociativity, counit and cancellation ranks as the list: the
    recorded columns are intp, since row 19 * 20 + 19 of a lift overflows
    uint8."""
    order = 20
    rng = np.random.default_rng(7)
    perm = rng.permutation(order)
    listed = perm[np.array(group_table(order))[np.argsort(perm)][:, np.argsort(perm)]].tolist()
    narrow = np.array(listed, dtype=np.uint8)
    assert _integer_table(narrow, 2, InvalidSemigroupError).dtype == np.uint8
    answers = []
    for table in (listed, narrow):
        sg = classical_semigroup_algebra(table)
        ranks = [cancellation_rank(sg, side) for side in ("left", "right")]
        answers.append((coassociativity_defect(sg), counit_defect(sg), ranks))
    assert answers[0] == answers[1]
    assert answers[0][:2] == (0.0, 0.0)
    assert [r.rank for r in answers[0][2]] == [order * order] * 2
