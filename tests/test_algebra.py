"""Block algebras, elements, functionals, tensor layouts, exchange maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfam import (
    AlgebraElement,
    DegenerateStateError,
    IncompatibleAlgebraError,
    InvalidDimensionError,
    LinearFunctional,
    make_algebra,
    max_image_defect,
    multiply,
    orthonormal_basis,
    sigma_map,
    tensor_layout,
    trace_state,
)
from qfam.algebra import adjoint_permutation, column_element_norms, multiplication_table
from qfam.suites import random_faithful_state

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
    assert multiplication_table(alg).tolist() == table
    assert adjoint_permutation(alg).tolist() == [index_of(x.adjoint()) for x in units]


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
    norm, and the worst defect over columns keeps either in any order."""
    alg = make_algebra(dims)
    vec = np.ones(alg.dim, dtype=complex)
    vec[data.draw(st.integers(min_value=0, max_value=alg.dim - 1))] = bad
    assert np.array_equal(AlgebraElement(alg, vec).norm(), abs(bad), equal_nan=True)
    twice = np.column_stack([np.zeros(alg.dim), vec])
    assert np.array_equal(max_image_defect(alg, twice), abs(bad), equal_nan=True)
    assert np.array_equal(max_image_defect(alg, twice[:, ::-1]), abs(bad), equal_nan=True)
