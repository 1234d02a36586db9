"""Unital *-homomorphisms: verification, composition, tensors, characters."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfam import (
    Character,
    InvalidCharacterError,
    InvalidMatrixError,
    NotAHomomorphismError,
    ResourceLimitError,
    characters_of,
    compose_morphisms,
    enumerate_set_map_tables,
    enumerate_set_maps,
    flip,
    functions_algebra,
    identity_morphism,
    lift,
    make_algebra,
    require_star_hom,
    scalar_algebra,
    set_map_morphism,
    tensor_layout,
    tensor_morphisms,
    trace_state,
)
from qfam.morphisms import StarMorphism


def _random_element(rng, algebra):
    blocks = [
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for n in algebra.block_dims
    ]
    return algebra.element(blocks)


@pytest.mark.parametrize("n", [2, 3])
def test_set_map_pullbacks_are_homomorphisms(n):
    for phi in enumerate_set_maps(n):
        report = phi.defect_report
        assert max(report.values()) <= 1e-12, report


def test_set_map_count_and_order():
    tables = enumerate_set_map_tables(2)
    assert tables == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(enumerate_set_map_tables(3)) == 27


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        enumerate_set_map_tables(7)
    with pytest.raises(ResourceLimitError):
        enumerate_set_map_tables(0)


def test_set_map_rejects_bad_table():
    with pytest.raises(InvalidMatrixError):
        set_map_morphism([0, 5])


@pytest.mark.parametrize("n", [2, 3])
def test_composition_duality(n):
    """Pullback reverses composition: the matrix of v o u is M_u M_v."""
    tables = enumerate_set_map_tables(n)
    for u, v in itertools.product(tables, repeat=2):
        vu = tuple(v[u[i]] for i in range(n))
        direct = set_map_morphism(vu).matrix
        composed = compose_morphisms(
            set_map_morphism(u), set_map_morphism(v)
        ).matrix
        assert np.array_equal(direct, composed)


def test_identity_and_composition_unit():
    alg = make_algebra([2, 1])
    ident = identity_morphism(alg)
    assert np.array_equal(ident.matrix, np.eye(alg.dim))
    phi = set_map_morphism([1, 0])
    same = compose_morphisms(identity_morphism(phi.codomain), phi)
    assert np.array_equal(same.matrix, phi.matrix)


def test_morphism_application():
    rng = np.random.default_rng(7)
    phi = set_map_morphism([1, 0, 0])
    x = _random_element(rng, phi.domain)
    assert np.array_equal(phi(x).to_vec(), phi.matrix @ x.to_vec())


def test_transpose_is_not_a_homomorphism():
    """The transpose on M_2 is unital and adjoint-preserving but fails
    multiplicativity, so only mult_defect is large."""
    alg = make_algebra([2])
    transpose = np.zeros((4, 4))
    for i, (k, r, s) in enumerate(alg.basis_labels):
        transpose[alg.basis_index(k, s, r), i] = 1.0
    phi = StarMorphism(alg, alg, transpose)
    report = phi.defect_report
    assert report["mult_defect"] > 0.5
    assert report["unit_defect"] <= 1e-12
    assert report["star_defect"] <= 1e-12
    assert not phi.is_star_hom()
    with pytest.raises(NotAHomomorphismError):
        require_star_hom(phi)


def test_matrix_shape_checked():
    alg = make_algebra([2])
    with pytest.raises(InvalidMatrixError):
        StarMorphism(alg, alg, np.eye(3))


def test_flip_swaps_factors():
    rng = np.random.default_rng(13)
    a = make_algebra([2, 1])
    b = make_algebra([1, 2])
    swap = flip(a, b)
    lay_ab = tensor_layout(a, b)
    lay_ba = tensor_layout(b, a)
    x = _random_element(rng, a)
    y = _random_element(rng, b)
    gap = swap(lay_ab.elem(x, y)).to_vec() - lay_ba.elem(y, x).to_vec()
    assert np.max(np.abs(gap)) <= 1e-13
    round_trip = compose_morphisms(flip(b, a), swap)
    assert np.array_equal(round_trip.matrix, np.eye(lay_ab.product.dim))
    assert max(swap.defect_report.values()) <= 1e-12


def test_tensor_morphisms_elementwise():
    rng = np.random.default_rng(19)
    phi = set_map_morphism([1, 0])
    psi = set_map_morphism([2, 2, 0])
    prod = tensor_morphisms(phi, psi)
    lay_dom = tensor_layout(phi.domain, psi.domain)
    lay_cod = tensor_layout(phi.codomain, psi.codomain)
    for _ in range(10):
        x = _random_element(rng, phi.domain)
        y = _random_element(rng, psi.domain)
        got = prod(lay_dom.elem(x, y)).to_vec()
        want = lay_cod.elem(phi(x), psi(y)).to_vec()
        assert np.max(np.abs(got - want)) <= 1e-13
    assert prod.is_star_hom()


def test_tensor_of_identities_is_identity():
    a = make_algebra([2])
    b = make_algebra([1, 1])
    prod = tensor_morphisms(identity_morphism(a), identity_morphism(b))
    assert np.array_equal(prod.matrix, np.eye(a.dim * b.dim))


block_dims = st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(st.lists(block_dims, min_size=4, max_size=4), st.integers(0, 3), st.integers(0))
def test_lift_matches_dense_kronecker(dims, ncols, seed):
    """lift(phi, psi, c) equals the dense Kronecker matrix of phi (x) psi,
    placed through the pair indices, times c."""
    rng = np.random.default_rng(seed)

    def random_map(dom, cod):
        mat = rng.standard_normal((cod.dim, dom.dim, 2)) @ [1, 1j]
        return StarMorphism(dom, cod, mat)

    a1, a2, b1, b2 = (make_algebra(d) for d in dims)
    phi, psi = random_map(a1, b1), random_map(a2, b2)
    lin, lout = tensor_layout(a1, a2), tensor_layout(b1, b2)
    columns = rng.standard_normal((lin.product.dim, ncols))
    dense = np.zeros((lout.product.dim, lin.product.dim), dtype=complex)
    rows, cols = lout.pair_index.reshape(-1), lin.pair_index.reshape(-1)
    dense[np.ix_(rows, cols)] = np.kron(phi.matrix, psi.matrix)
    got = lift(phi, psi, columns)
    assert got.shape == (lout.product.dim, ncols)
    assert np.allclose(got, dense @ columns, rtol=0, atol=1e-12)
    with pytest.raises(InvalidMatrixError):
        lift(phi, psi, columns[1:])


@pytest.mark.parametrize(
    "dims", [[1], [2], [1, 1], [3], [1, 2], [1, 1, 1], [1, 1, 1, 1]]
)
def test_characters_match_brute_scan(dims):
    """The characters are exactly the block indicators on size-1 blocks.

    Scan every per-block trace functional and keep the ones that verify as
    multiplicative and unital; compare against the enumerated characters.
    """
    alg = make_algebra(dims)
    found = []
    for k, (off, n) in enumerate(alg.block_slices()):
        row = np.zeros((1, alg.dim), dtype=complex)
        for r in range(n):
            row[0, off + r * n + r] = 1.0
        chi = StarMorphism(alg, scalar_algebra(), row)
        if chi.is_star_hom(1e-12):
            found.append(k)
    expected = [k for k, n in enumerate(alg.block_dims) if n == 1]
    assert found == expected
    chars = characters_of(alg)
    assert len(chars) == len(expected)
    for chi, k in zip(chars, expected):
        off = alg.block_slices()[k][0]
        assert chi.matrix[0, off] == 1.0
        assert np.count_nonzero(chi.matrix) == 1


def test_character_values_multiplicative():
    rng = np.random.default_rng(23)
    alg = functions_algebra(3)
    chi = characters_of(alg)[1]
    for _ in range(10):
        x = _random_element(rng, alg)
        y = _random_element(rng, alg)
        assert abs(chi.value(x * y) - chi.value(x) * chi.value(y)) <= 1e-12
    assert chi.value(alg.identity()) == 1.0


def test_character_functional_round_trip():
    alg = functions_algebra(4)
    chi = characters_of(alg)[2]
    back = Character.from_functional(chi.as_functional())
    assert np.array_equal(back.matrix, chi.matrix)


def test_trace_is_not_a_character_on_full_blocks():
    alg = make_algebra([2])
    with pytest.raises(InvalidCharacterError):
        Character.from_functional(trace_state(alg))


def test_no_characters_on_a_full_matrix_block():
    assert characters_of(make_algebra([2])) == []
    assert len(characters_of(make_algebra([2, 1, 1]))) == 2
