"""Block algebras, elements, functionals, tensor layouts, exchange maps."""

import copy
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfam import (
    AlgebraElement,
    DegenerateStateError,
    FdCStarAlgebra,
    IncompatibleAlgebraError,
    InvalidDimensionError,
    LinearFunctional,
    all_maps_family,
    make_algebra,
    max_image_defect,
    multiply,
    orthonormal_basis,
    sigma_map,
    tensor_layout,
    trace_state,
)
from qfam import Character, characters_of, morphisms
from qfam.algebra import block_norms, column_element_norms
from qfam.suites import conjugation_family, random_faithful_state, run_all

block_dims = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)


def _random_element(rng, algebra, scale=1.0):
    blocks = [
        scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        for n in algebra.block_dims
    ]
    return algebra.element(blocks)


@given(block_dims)
def test_dimension_is_sum_of_squares(dims):
    alg = make_algebra(dims)
    assert alg.dim == sum(n * n for n in dims)
    assert alg.basis_labels.shape == (alg.dim, 3)


@pytest.mark.parametrize("dims", [[], [0], [2, -1], [1.5], [True, 2]])
def test_invalid_block_dims_rejected(dims):
    with pytest.raises(InvalidDimensionError):
        make_algebra(dims)


@pytest.mark.parametrize(
    "dims",
    [(), (0,), (2, -1), (1.5,), (True, 2), (2, False), [1, 0], (True,), (1.0,), [2.0, 1]],
)
def test_invalid_block_dims_rejected_by_the_constructor(dims):
    """The one-pass check of a tuple of ints refuses what the entry-by-entry
    check refuses: a bool is not a block size, nor is 0. Both run before the
    lookup of the shared instance, so an input that equals and hashes like
    an existing valid list, (True,) or (1.0,) like (1,), is refused too."""
    make_algebra([1])
    make_algebra([2, 1])
    with pytest.raises(InvalidDimensionError):
        FdCStarAlgebra(dims)


def test_numpy_block_dims_become_plain_ints():
    """A list, a tuple, numpy integers and a numpy array of one block list
    all give the one shared instance."""
    alg = FdCStarAlgebra((np.int64(2), 1))
    assert alg.dim == 5 and [type(n) for n in alg.block_dims] == [int, int]
    for dims in ([2, 1], (2, 1), [np.int64(2), np.int32(1)], np.array([2, 1])):
        assert make_algebra(dims) is alg and FdCStarAlgebra(dims) is alg


@pytest.mark.parametrize(
    "dims, refused",
    [
        ((2**70,), True),
        ((3037000500,), True),  # its square wraps an int64 to a negative dimension
        ((3037000499,), False),  # the largest single block whose square fits
        ((3037000499, 1), False),  # over the cheap bound, within the exact sum
        ((3037000499, 3037000499), True),
    ],
)
def test_a_total_dimension_past_the_index_range_is_refused(dims, refused):
    limit = np.iinfo(np.intp).max
    if not refused:
        assert FdCStarAlgebra(dims).dim == sum(n * n for n in dims) <= limit
        return
    with pytest.raises(InvalidDimensionError, match=f"above {limit}"):
        FdCStarAlgebra(dims)


def test_a_product_past_the_index_range_is_refused():
    big = make_algebra([10**6])
    with pytest.raises(InvalidDimensionError, match="blocks up to 1000000000000 "):
        tensor_layout(big, big).product


def test_block_dims_are_read_only():
    alg = make_algebra([2, 1])
    with pytest.raises(AttributeError):
        alg.block_dims = (3,)
    with pytest.raises(AttributeError):
        del alg.block_dims
    assert make_algebra([2, 1]).block_dims == (2, 1)


@given(block_dims, block_dims, block_dims)
def test_the_two_routes_to_a_triple_product_give_one_algebra(a, b, c):
    a, b, c = make_algebra(a), make_algebra(b), make_algebra(c)
    left = tensor_layout(tensor_layout(a, b).product, c).product
    right = tensor_layout(a, tensor_layout(b, c).product).product
    assert left is right


def test_copies_and_pickles_return_the_shared_algebra():
    """copy, deepcopy and pickle rebuild an algebra, or an object holding
    one, through the constructor: the copy holds the shared instance, whose
    cached arrays stay the same read-only arrays."""
    fam = all_maps_family(2)
    alg = fam.source
    cached = [alg._dims, alg._offsets, alg.basis_labels, alg.unit]
    cached += [idx for _, idx in alg.size_groups]
    clones = (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))
    for clone in clones:
        assert clone(alg) is alg
        again = clone(fam)
        assert again.source is alg and again.label is fam.label
        assert np.array_equal(again.morphism.matrix, fam.morphism.matrix)
    now = [alg._dims, alg._offsets, alg.basis_labels, alg.unit]
    now += [idx for _, idx in alg.size_groups]
    assert all(x is y and not x.flags.writeable for x, y in zip(now, cached))


def test_copies_of_maps_and_layouts_keep_read_only_arrays():
    """deepcopy and pickle rebuild a map through its constructor and a
    layout through tensor_layout: a copied family's matrix is read-only,
    and its layout is the shared one, with the same read-only pair_index."""
    fam = all_maps_family(2)
    layout, pairs = fam.layout, fam.layout.pair_index
    chi = characters_of(fam.label)[0]
    for clone in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        again = clone(fam)
        assert not again.morphism.matrix.flags.writeable
        assert again.morphism.matrix.tobytes() == fam.morphism.matrix.tobytes()
        assert again.layout is layout and again.layout.pair_index is pairs
        assert not pairs.flags.writeable
        assert clone(layout) is layout
        char = clone(chi)
        assert type(char) is Character and char.codomain is chi.codomain
        assert not char.matrix.flags.writeable


def test_a_suite_run_leaves_one_algebra_per_block_list(constructed_algebras):
    """While an algebra lives, constructing its block list returns it: over
    a whole suite run, with every algebra kept alive, each block list has
    one instance."""
    run_all(seed=1)
    algebras = {id(alg): alg for alg in constructed_algebras}.values()
    assert len(algebras) == len({alg.block_dims for alg in algebras}) > 100


@given(block_dims, block_dims)
def test_product_blocks_are_the_pairwise_products(left, right):
    product = tensor_layout(make_algebra(left), make_algebra(right)).product
    assert product.block_dims == tuple(n * m for n in left for m in right)
    assert [type(n) for n in product.block_dims] == [int] * len(product.block_dims)
    assert product.dim == make_algebra(left).dim * make_algebra(right).dim


def test_basis_is_lex_ordered_matrix_units():
    alg = make_algebra([2, 1])
    # block, then row, then column
    assert alg.basis_labels.tolist() == [
        [0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0]
    ]
    e01 = alg.basis_element(1)
    assert e01.blocks[0][0, 1] == 1.0
    assert np.count_nonzero(e01.blocks[0]) == 1
    assert np.count_nonzero(e01.blocks[1]) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4))
def test_basis_index_arrays_match_brute_force(dims):
    """basis_labels, multiplication_table and adjoint_permutation agree with
    matrix units built block by block and multiplied and adjoined as
    elements."""
    alg = make_algebra(dims)
    labels = [(k, r, s) for k, n in enumerate(dims) for r in range(n) for s in range(n)]
    units = []
    for k, r, s in labels:
        blocks = [np.zeros((n, n)) for n in dims]
        blocks[k][r, s] = 1.0
        units.append(alg.element(blocks))

    def index_of(x):
        found = np.flatnonzero(x.to_vec())
        return int(found[0]) if found.size else -1

    assert alg.basis_labels.tolist() == [list(t) for t in labels]
    table = [[index_of(x * y) for y in units] for x in units]
    assert alg.multiplication_table.tolist() == table
    assert alg.adjoint_permutation.tolist() == [index_of(x.adjoint()) for x in units]


def test_matrix_unit_products():
    alg = make_algebra([2, 1])
    e01 = alg.basis_element(alg.basis_index(0, 0, 1))
    e11 = alg.basis_element(alg.basis_index(0, 1, 1))
    f = alg.basis_element(alg.basis_index(1, 0, 0))
    assert np.array_equal((e01 * e11).to_vec(), e01.to_vec())
    assert not np.any((e01 * e01).to_vec())
    assert not np.any((e01 * f).to_vec())
    assert np.array_equal((f * f).to_vec(), f.to_vec())


def test_adjoint_reverses_products():
    rng = np.random.default_rng(3)
    alg = make_algebra([2, 1, 3])
    for _ in range(20):
        x = _random_element(rng, alg)
        y = _random_element(rng, alg)
        diff = (x * y).adjoint() - y.adjoint() * x.adjoint()
        assert diff.norm() <= 1e-12 * max(1.0, x.norm() * y.norm())


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=5, max_size=5))
def test_vec_round_trip(values):
    alg = make_algebra([2, 1])
    vec = np.asarray(values, dtype=complex)
    assert np.array_equal(AlgebraElement(alg, vec).to_vec(), vec)


def test_norm_is_spectral():
    alg = make_algebra([2])
    x = alg.element([np.diag([3.0, -4.0])])
    assert abs(x.norm() - 4.0) <= 1e-12
    assert abs(alg.basis_element(1).norm() - 1.0) <= 1e-12
    assert alg.identity().norm() == pytest.approx(1.0, abs=1e-12)


def test_element_arithmetic_and_scalars():
    alg = make_algebra([2, 1])
    x = alg.basis_element(0)
    y = alg.basis_element(3)
    z = 2.0 * x + y * (1 + 1j) - x
    assert z.to_vec()[0] == 1.0
    assert z.to_vec()[3] == 1 + 1j
    assert (-z + z).norm() == 0.0


def test_mixed_algebra_arithmetic_rejected():
    a = make_algebra([2])
    b = make_algebra([1, 1])
    with pytest.raises(IncompatibleAlgebraError):
        a.identity() + b.identity()
    with pytest.raises(IncompatibleAlgebraError):
        a.identity() * b.identity()


def test_trace_state_classifiers():
    alg = make_algebra([2, 1])
    tau = trace_state(alg)
    assert tau.is_state()
    assert tau.is_trace()
    assert tau.is_faithful()
    assert tau(alg.identity()) == pytest.approx(1.0, abs=1e-12)
    # trace kills commutators
    rng = np.random.default_rng(5)
    x = _random_element(rng, alg)
    y = _random_element(rng, alg)
    assert abs(tau(x * y) - tau(y * x)) <= 1e-12


def test_from_values_matches_on_basis():
    alg = make_algebra([2, 1])
    values = np.arange(5, dtype=float) + 1j
    omega = LinearFunctional.from_values(alg, values)
    for i in range(alg.dim):
        assert omega(alg.basis_element(i)) == pytest.approx(values[i], abs=1e-14)
    with pytest.raises(IncompatibleAlgebraError, match="3 values do not match dimension 4"):
        LinearFunctional.from_values(make_algebra([2]), [1.0, 0.0, 0.0])


def test_nontrace_state_detected():
    alg = make_algebra([2])
    rho = alg.element([np.diag([0.25, 0.75])])
    omega = LinearFunctional(alg, rho)
    assert omega.is_state()
    assert omega.is_faithful()
    assert not omega.is_trace()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("predicate", ["is_state", "is_faithful", "is_trace"])
def test_non_finite_density_fails_the_state_predicates(predicate, bad):
    """The normalized trace passes all three predicates; with any one
    density coordinate NaN or infinite, each of them is False."""
    alg = make_algebra([2, 1])
    assert getattr(trace_state(alg), predicate)()
    for i in range(alg.dim):
        vec = trace_state(alg).density.to_vec().copy()
        vec[i] = bad
        omega = LinearFunctional(alg, AlgebraElement(alg, vec))
        assert not getattr(omega, predicate)(), i


def test_degenerate_state_flagged():
    alg = make_algebra([1, 1])
    omega = LinearFunctional.from_values(alg, [1.0, 0.0])
    assert omega.is_state()
    assert not omega.is_faithful()
    with pytest.raises(DegenerateStateError):
        orthonormal_basis(omega)
    with pytest.raises(DegenerateStateError):
        sigma_map(omega)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["NaN", "+inf", "-inf"])
def test_orthonormal_basis_refuses_a_non_finite_density(bad):
    alg = make_algebra([2])
    omega = LinearFunctional(alg, alg.element([np.diag([0.5, bad])]))
    with pytest.raises(DegenerateStateError, match="non-finite"):
        orthonormal_basis(omega)


def test_orthonormal_basis_trace_oracle():
    """For the normalized trace on M_2 the result is sqrt(2) times each unit."""
    alg = make_algebra([2])
    basis = orthonormal_basis(trace_state(alg))
    for i, vec in enumerate(basis.T):
        assert abs(vec[i] - np.sqrt(2.0)) <= 1e-12
        assert np.max(np.abs(np.delete(vec, i))) <= 1e-12


def test_orthonormal_basis_uniform_oracle():
    alg = make_algebra([1, 1, 1])
    basis = orthonormal_basis(trace_state(alg))
    for i, vec in enumerate(basis.T):
        assert abs(vec[i] - np.sqrt(3.0)) <= 1e-12


@pytest.mark.parametrize("dims", [[2, 1], [2], [1, 1, 1], [3, 1]])
def test_orthonormal_basis_gram(dims):
    rng = np.random.default_rng(11)
    alg = make_algebra(dims)
    omega = random_faithful_state(rng, alg)
    basis = [AlgebraElement(alg, col) for col in orthonormal_basis(omega).T]
    gram = np.array([[omega(a.adjoint() * b) for b in basis] for a in basis])
    assert np.max(np.abs(gram - np.eye(alg.dim))) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(block_dims, st.integers(min_value=0, max_value=2**32 - 1))
def test_orthonormal_basis_is_gram_schmidt(dims, seed):
    """B is upper triangular with a positive real diagonal and B* G B = I for
    the Gram matrix G[i, j] = omega(e_i* e_j): the one matrix with those
    properties is Gram-Schmidt of the canonical basis in canonical order."""
    alg = make_algebra(dims)
    omega = random_faithful_state(np.random.default_rng(seed), alg)
    units = [alg.basis_element(i) for i in range(alg.dim)]
    gram = np.array([[omega(x.adjoint() * y) for y in units] for x in units])
    basis = orthonormal_basis(omega)
    assert np.array_equal(basis, np.triu(basis))
    diag = np.diag(basis)
    assert np.all(diag.real > 0) and np.all(diag.imag == 0)
    assert np.max(np.abs(basis.conj().T @ gram @ basis - np.eye(alg.dim))) <= 1e-9


def test_sigma_frozen_oracle():
    """rho = diag(1/3, 2/3) conjugation scales the off-diagonal units by
    1/2 and 2 and fixes the diagonal ones."""
    alg = make_algebra([2])
    omega = LinearFunctional(alg, alg.element([np.diag([1 / 3, 2 / 3])]))
    sigma = sigma_map(omega)
    assert np.max(np.abs(sigma - np.diag([1.0, 0.5, 2.0, 1.0]))) <= 1e-12


@pytest.mark.parametrize("dims", [[2], [2, 1], [1, 3]])
def test_sigma_exchange_relation(dims):
    rng = np.random.default_rng(17)
    alg = make_algebra(dims)
    omega = random_faithful_state(rng, alg)
    sigma = sigma_map(omega)
    for _ in range(50):
        x = _random_element(rng, alg)
        y = _random_element(rng, alg)
        sx = AlgebraElement(alg, sigma @ x.to_vec())
        gap = abs(omega(x * y) - omega(y * sx))
        assert gap <= 1e-9 * max(1.0, x.norm() * y.norm())


def test_sigma_inverse_round_trip():
    rng = np.random.default_rng(23)
    alg = make_algebra([2, 1])
    omega = random_faithful_state(rng, alg)
    sigma = sigma_map(omega)
    assert np.max(np.abs(np.linalg.inv(sigma) @ sigma - np.eye(alg.dim))) <= 1e-9


def test_sigma_identity_for_traces():
    alg = make_algebra([2, 1])
    sigma = sigma_map(trace_state(alg))
    assert np.max(np.abs(sigma - np.eye(alg.dim))) <= 1e-12


def test_sigma_identity_on_commutative():
    rng = np.random.default_rng(29)
    alg = make_algebra([1, 1, 1])
    omega = random_faithful_state(rng, alg)
    sigma = sigma_map(omega)
    assert np.max(np.abs(sigma - np.eye(alg.dim))) <= 1e-12


def test_tensor_layout_block_dims_oracle():
    lay = tensor_layout(make_algebra([2, 1]), make_algebra([1, 2]))
    assert lay.product.block_dims == (2, 4, 1, 2)
    assert lay.product.dim == 25


def test_pair_index_is_a_bijection():
    lay = tensor_layout(make_algebra([2, 1]), make_algebra([1, 2]))
    flat = lay.pair_index.reshape(-1)
    assert sorted(flat.tolist()) == list(range(lay.product.dim))


def test_split_of_elem_is_outer_product():
    rng = np.random.default_rng(31)
    a = make_algebra([2, 1])
    b = make_algebra([1, 2])
    lay = tensor_layout(a, b)
    x = _random_element(rng, a)
    y = _random_element(rng, b)
    table = lay.split(lay.elem(x, y).to_vec())
    assert np.max(np.abs(table - np.outer(x.to_vec(), y.to_vec()))) <= 1e-13
    # combine inverts split
    vec = lay.elem(x, y).to_vec()
    assert np.array_equal(lay.combine(lay.split(vec)), vec)


def test_tensor_identity_is_identity():
    for dims in ([2], [2, 1], [1, 1]):
        a = make_algebra(dims)
        b = make_algebra([1, 2])
        lay = tensor_layout(a, b)
        got = lay.elem(a.identity(), b.identity())
        assert np.array_equal(got.to_vec(), lay.product.identity().to_vec())


def test_tensor_norm_multiplicative():
    rng = np.random.default_rng(37)
    a = make_algebra([2, 1])
    b = make_algebra([3])
    for _ in range(100):
        x = _random_element(rng, a)
        y = _random_element(rng, b)
        prod = tensor_layout(a, b).elem(x, y)
        lhs = prod.norm()
        rhs = x.norm() * y.norm()
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)


def test_tensor_multiplication_factors():
    rng = np.random.default_rng(41)
    a = make_algebra([2])
    b = make_algebra([1, 1])
    lay = tensor_layout(a, b)
    x1, x2 = _random_element(rng, a), _random_element(rng, a)
    y1, y2 = _random_element(rng, b), _random_element(rng, b)
    lhs = lay.elem(x1, y1) * lay.elem(x2, y2)
    rhs = lay.elem(x1 * x2, y1 * y2)
    assert (lhs - rhs).norm() <= 1e-12


@settings(max_examples=25)
@given(block_dims, block_dims)
def test_scalar_tensor_is_relabeling(left_dims, right_dims):
    """C (x) A and A (x) C both reduce to A with the identity index map."""
    scalar = make_algebra([1])
    alg = make_algebra(left_dims)
    lay = tensor_layout(scalar, alg)
    assert np.array_equal(lay.pair_index.reshape(-1), np.arange(alg.dim))
    lay2 = tensor_layout(make_algebra(right_dims), scalar)
    assert np.array_equal(
        lay2.pair_index.reshape(-1), np.arange(lay2.product.dim)
    )


@settings(max_examples=40, deadline=None)
@given(block_dims, block_dims)
def test_pair_index_matches_brute_force(left_dims, right_dims):
    """pair_index[i, j] is the one coordinate where e_i (x) f_j is nonzero,
    found from Kronecker products of the matrix units named by basis_labels."""
    left, right = make_algebra(left_dims), make_algebra(right_dims)
    lay = tensor_layout(left, right)
    expect = np.empty((left.dim, right.dim), dtype=np.intp)
    for i in range(len(left.basis_labels)):
        for j in range(len(right.basis_labels)):
            unit = lay.elem(left.basis_element(i), right.basis_element(j))
            (expect[i, j],) = np.flatnonzero(unit.to_vec())
    assert np.array_equal(lay.pair_index, expect)


@settings(max_examples=40, deadline=None)
@given(
    block_dims,
    st.lists(st.integers(min_value=1, max_value=3), max_size=2),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_multiply_and_norm_kernels_match_elements(dims, batch, seed):
    """The batched kernels agree with element arithmetic and with a per-block
    numpy oracle; y broadcasts against x over the leading batch axes."""
    alg = make_algebra(dims)
    rng = np.random.default_rng(seed)
    xshape, yshape = tuple(batch) + (alg.dim,), tuple(batch[1:]) + (alg.dim,)
    x = rng.standard_normal(xshape) + 1j * rng.standard_normal(xshape)
    y = rng.standard_normal(yshape) + 1j * rng.standard_normal(yshape)
    prod = multiply(alg, x, y)
    norms = column_element_norms(alg, x.reshape(-1, alg.dim).T).reshape(batch)
    assert prod.shape == xshape
    for idx in np.ndindex(*batch):
        xe, ye = AlgebraElement(alg, x[idx]), AlgebraElement(alg, y[idx[1:]])
        assert np.max(np.abs(prod[idx] - (xe * ye).to_vec())) <= 1e-12
        oracle = max(np.linalg.norm(b, 2) for b in xe.blocks)
        assert abs(norms[idx] - xe.norm()) <= 1e-12
        assert abs(norms[idx] - oracle) <= 1e-12 * max(1.0, oracle)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@settings(max_examples=25, deadline=None)
@given(block_dims, st.data())
def test_non_finite_coordinate_norms(bad, dims, data):
    """A NaN coordinate gives a NaN norm and an infinite one an infinite
    norm, and the worst defect over columns keeps either in any order, also
    beside a column whose entries set a floor that prunes every finite block
    of the bad column."""
    alg = make_algebra(dims)
    vec = np.ones(alg.dim, dtype=complex)
    vec[data.draw(st.integers(min_value=0, max_value=alg.dim - 1))] = bad
    assert np.array_equal(AlgebraElement(alg, vec).norm(), abs(bad), equal_nan=True)
    twice = np.column_stack([np.zeros(alg.dim), vec])
    assert np.array_equal(max_image_defect(alg, twice), abs(bad), equal_nan=True)
    assert np.array_equal(max_image_defect(alg, twice[:, ::-1]), abs(bad), equal_nan=True)
    tiny = np.where(np.isfinite(vec), 1e-300, vec)
    pruned = np.column_stack([np.full(alg.dim, 1e300), tiny])
    for order in (pruned, pruned[:, ::-1]):
        assert np.array_equal(max_image_defect(alg, order), abs(bad), equal_nan=True)
    norms = column_element_norms(alg, pruned, 1e300)
    assert np.array_equal(norms[1], abs(bad), equal_nan=True)


def test_nan_wins_over_inf_in_one_entry():
    """|inf + NaN i| is inf, but a block of any size holding that entry has
    norm NaN, a 1 x 1 block included."""
    bad = complex(np.inf, np.nan)
    alg = make_algebra([1, 2])
    vec = np.array([5.0, 1.0, bad, 0.0, 1.0])
    assert np.isnan(AlgebraElement(alg, vec).norm())
    assert np.isnan(max_image_defect(alg, np.column_stack([vec, 7 * np.ones(5)])))
    assert np.isnan(AlgebraElement(make_algebra([1]), np.array([bad])).norm())
    commutative = make_algebra([1, 1, 1])
    diff = np.array([[1.0, 7.0], [bad, 0.0], [0.0, 2.0]])
    assert np.isnan(max_image_defect(commutative, diff))
    assert np.isnan(max_image_defect(commutative, diff[:, ::-1]))


def _unpruned_max(algebra, matrix):
    """The largest operator norm over the columns without pruning: one SVD
    per block, |z| on a 1 x 1 block."""
    worst = 0.0
    for column in matrix.T:
        for block in algebra.block_views(column):
            if block.shape == (1, 1):
                worst = max(worst, np.abs(block[0, 0]))
            else:
                worst = max(worst, np.linalg.svd(block, compute_uv=False)[0])
    return worst


def _phases(rng, n):
    return np.exp(2j * np.pi * rng.random(n))


def _test_block(rng, kind, n):
    """One n x n block of the given kind, before scaling."""
    if kind == "zero":
        return np.zeros((n, n), dtype=complex)
    if kind == "rank-one":  # equal |entries| a: norm n a, the bound's equality case
        return np.outer(_phases(rng, n), _phases(rng, n).conj())
    if kind == "one-entry":
        out = np.zeros((n, n), dtype=complex)
        out[rng.integers(n), rng.integers(n)] = _phases(rng, 1)[0]
        return out
    return rng.standard_normal((n, n, 2)) @ [1, 1j]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=4),
    st.integers(0),
    st.data(),
)
def test_pruned_reduction_is_the_unpruned_maximum(dims, ncols, seed, data):
    """max_image_defect, pruned at the largest |entry|, equals the maximum
    of one SVD per block bit for bit, over zero columns and blocks, rank-one
    blocks of equal |entries| (norm n max|entry|) and entries near 1e300 and
    near 1e-300, and raises no RuntimeWarning."""
    alg = make_algebra(dims)
    rng = np.random.default_rng(seed)
    kinds = st.sampled_from(["zero", "rank-one", "one-entry", "gaussian"])
    scales = st.sampled_from([0.0, 1.0, 3.0, 1e300, 1e-300])
    matrix = np.zeros((alg.dim, ncols), dtype=complex)
    for j in range(ncols):
        scale = data.draw(scales)
        for off, n in alg.block_slices():
            matrix[off : off + n * n, j] = scale * _test_block(rng, data.draw(kinds), n).ravel()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = max_image_defect(alg, matrix)
        for j in range(ncols):
            assert max_image_defect(alg, matrix[:, j]) == _unpruned_max(alg, matrix[:, j : j + 1])
    assert got == _unpruned_max(alg, matrix)


def test_a_block_whose_svd_rounds_above_its_bound_is_decomposed():
    """A rank-one 2 x 2 block of equal |entries| a has norm 2a; where its SVD
    rounds above 2a, a 1 x 1 block between the two sets the floor above the
    bound 2a, and the block's own SVD value is still the maximum."""
    alg = make_algebra([1, 2])
    rng = np.random.default_rng(0)
    seen = 0
    for _ in range(2000):
        block = np.outer(_phases(rng, 2), _phases(rng, 2).conj())
        top = np.linalg.svd(block, compute_uv=False)[0]
        floor = np.nextafter(2 * np.abs(block).max(), np.inf)
        if floor < top:
            seen += 1
            assert max_image_defect(alg, np.concatenate([[floor], block.ravel()])) == top
    assert seen > 0


def test_a_block_at_its_pruning_bound_is_decomposed():
    """The SVD is skipped only below floor (1 - 1e-12) in Frobenius norm; a
    block whose Frobenius norm, here n max|entry|, is exactly that value is
    decomposed."""
    alg = make_algebra([2])
    block = np.array([[1.0, 1.0], [1.0, -1.0]])  # max|entry| 1, norm sqrt 2
    floor = 2 / (1 - 1e-12)
    while floor * (1 - 1e-12) / 2 < 1.0:
        floor = np.nextafter(floor, np.inf)
    while floor * (1 - 1e-12) / 2 > 1.0:
        floor = np.nextafter(floor, 0.0)
    assert floor * (1 - 1e-12) / 2 == 1.0
    (norm,) = column_element_norms(alg, block.ravel(), floor)
    assert norm == np.linalg.svd(block, compute_uv=False)[0]
    (below,) = column_element_norms(alg, block.ravel(), np.nextafter(floor, np.inf))
    assert below == 1.0


def test_no_zero_block_reaches_the_svd(monkeypatch):
    """An all-zero block reads 0.0, the value LAPACK gives it, without an
    SVD, in block_norms, in column_element_norms and in the hom check of a
    conjugation family, most of whose blocks are zero. NaN and inf blocks
    still read NaN and inf, and the largest norm of a row is its SVD."""
    svd, sent = np.linalg.svd, []

    def recording(a, *args, **kwargs):
        sent.append(np.abs(a).max(axis=(-2, -1)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    rng = np.random.default_rng(5)
    blocks = rng.standard_normal((3, 6, 3, 3, 2)) @ [1, 1j]
    blocks[:, ::2] = 0
    blocks[1, 1, 0, 0], blocks[2, 3, 2, 1] = np.nan, np.inf
    norms = block_norms(blocks, np.zeros((3, 1)))
    assert norms[:, ::2].tobytes() == np.zeros((3, 3)).tobytes()  # +0.0, no -0.0
    assert np.isnan(norms[1, 1]) and norms[2, 3] == np.inf
    exact = svd(blocks[0], compute_uv=False)[:, 0]
    assert norms[0].max() == exact.max()
    assert svd(np.zeros((2, 3, 3)), compute_uv=False).tobytes() == np.zeros((2, 3)).tobytes()
    alg = make_algebra([1, 2, 3])
    assert column_element_norms(alg, np.zeros((alg.dim, 4))).tolist() == [0.0] * 4
    phi = conjugation_family([np.eye(3), np.diag([1.0, 1j, -1.0])]).morphism
    assert max(morphisms._defect_report([phi])[0].values()) < 1e-15
    assert sent and all((values > 0).all() for values in sent)


def test_entries_near_the_float_range_prune_without_overflow():
    """The bound is compared as floor / n, not as n max|entry|, so a 2 x 2
    block holding 1.7e308 beside a 3 x 3 block of tiny entries raises no
    overflow warning and keeps its value."""
    alg = make_algebra([2, 3])
    column = np.zeros(alg.dim, dtype=complex)
    column[0] = 1.7e308
    column[5] = 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert max_image_defect(alg, column) == 1.7e308
        norms = column_element_norms(alg, np.column_stack([column, column / 4]), [1.7e308, 0.0])
    assert norms.tolist() == [1.7e308, 1.7e308 / 4]
