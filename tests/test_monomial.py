"""Monomial forms of structure maps and the index path of the lift defects."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qfam.morphisms
import qfam.semigroups
from qfam import (
    IncompatibleAlgebraError,
    InvalidMatrixError,
    QuantumFamily,
    QuantumSemigroup,
    action_defect,
    classical_family,
    classical_semigroup_algebra,
    coassociativity_defect,
    conjugation_family,
    functions_algebra,
    group_table,
    lift,
    make_algebra,
    max_image_defect,
    tensor_layout,
)
from qfam.algebra import within
from qfam.morphisms import StarMorphism, lift_monomial, monomial_defect, set_map_morphism


def _densify(form, ncols):
    cols, coefs = form
    out = np.zeros((len(cols), ncols), dtype=complex)
    rows = np.flatnonzero(cols >= 0)
    out[rows, cols[rows]] = coefs[rows]
    return out


def _random_monomial(rng, nrows, ncols, zero_share, phases):
    """A matrix with at most one nonzero entry per row: each row is zero
    with probability zero_share, otherwise 1, or a unimodular phase when
    phases, in a random column."""
    mat = np.zeros((nrows, ncols), dtype=complex)
    live = np.flatnonzero(rng.random(nrows) >= zero_share)
    values = np.exp(2j * np.pi * rng.random(len(live))) if phases else 1.0
    mat[live, rng.integers(0, ncols, len(live))] = values
    return mat


def _no_dense_lift(*args):
    raise AssertionError("a dense lift ran for monomial operands")


def _no_index_lift(*args):
    raise AssertionError("the index path ran for a non-monomial operand")


def test_monomial_form_of_a_set_map():
    phi = set_map_morphism([2, 0, 0])
    cols, coefs = phi.monomial
    assert cols.tolist() == [2, 0, 0]
    assert coefs.tolist() == [1, 1, 1]
    assert not cols.flags.writeable and not coefs.flags.writeable


def test_monomial_form_marks_zero_rows():
    alg = functions_algebra(3)
    mat = np.array([[0, 0, 0], [0, -1j, 0], [0, 0, 0]])
    cols, coefs = StarMorphism(alg, alg, mat).monomial
    assert cols.tolist() == [-1, 1, -1]
    assert coefs.tolist() == [0, -1j, 0]


@pytest.mark.parametrize(
    "row", [[1, 1, 0], [1e-300, 0, 1], [np.nan, 0, 0], [np.inf, 0, 0], [np.nan, 1, 0]]
)
def test_no_monomial_form_for_two_nonzero_or_non_finite_entries(row):
    alg = functions_algebra(3)
    mat = np.eye(3, dtype=complex)
    mat[1] = row
    assert StarMorphism(alg, alg, mat).monomial is None


block_dims = st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=3)
points = st.integers(1, 4).map(lambda n: [1] * n)


@settings(max_examples=40, deadline=None)
@given(st.lists(points, min_size=4, max_size=4), st.integers(1, 3), st.integers(0))
def test_lift_monomial_densifies_to_lift(dims, ncols, seed):
    """Over functions on finite sets, the index twin of lift gives the
    monomial form of the dense lift, with an algebra factor standing for
    its identity."""
    rng = np.random.default_rng(seed)
    a1, a2, b1, b2 = (make_algebra(d) for d in dims)
    phi = StarMorphism(a1, b1, _random_monomial(rng, b1.dim, a1.dim, 0.3, True))
    psi = StarMorphism(a2, b2, _random_monomial(rng, b2.dim, a2.dim, 0.3, True))
    columns = StarMorphism(
        make_algebra([1] * ncols),
        tensor_layout(a1, a2).product,
        _random_monomial(rng, a1.dim * a2.dim, ncols, 0.3, True),
    )
    for left, right in ((phi, psi), (phi, a2), (a1, psi), (a1, a2)):
        got = lift_monomial(left, right, columns.monomial)
        want = lift(left, right, columns.matrix)
        assert np.allclose(_densify(got, ncols), want, rtol=0, atol=1e-14)
    with pytest.raises(InvalidMatrixError):
        lift_monomial(phi, psi, tuple(x[1:] for x in columns.monomial))
    dense = StarMorphism(a1, b1, np.ones((b1.dim, a1.dim)))
    if a1.dim > 1:
        with pytest.raises(InvalidMatrixError):
            lift_monomial(dense, psi, columns.monomial)


@settings(max_examples=40, deadline=None)
@given(points, points)
def test_a_commutative_product_orders_its_pairs_left_major(left, right):
    """For commutative A and B, e_i (x) f_j is coordinate i * dim B + j of
    A (x) B: the rule lift_monomial's gather relies on."""
    a, b = make_algebra(left), make_algebra(right)
    pairs = tensor_layout(a, b).pair_index
    assert np.array_equal(pairs, np.arange(a.dim * b.dim).reshape(a.dim, b.dim))


def test_the_index_path_builds_no_cube_algebra(constructed_algebras):
    """Coassociativity and the action equation of a classical group take the
    index path, which constructs no algebra of functions on the d^3 points
    of the cube A (x) A (x) A, not even one that nothing keeps alive."""
    order = 31
    sg = classical_semigroup_algebra(group_table(order))
    assert coassociativity_defect(sg) == 0.0
    assert action_defect(classical_family(group_table(order)), sg) == 0.0
    constructed = {alg.block_dims for alg in constructed_algebras}
    assert (1,) * order**3 not in constructed
    assert (1,) * order**2 in constructed


def test_lift_monomial_refuses_a_non_commutative_algebra():
    """The gather reads e_i (x) f_j as coordinate i * dim(right) + j, which
    holds only over commutative algebras."""
    points, m2 = functions_algebra(2), make_algebra([2])
    form = StarMorphism(points, tensor_layout(points, m2).product, np.eye(8, 2)).monomial
    with pytest.raises(IncompatibleAlgebraError):
        lift_monomial(points, m2, form)


def _dense_coassociativity(sg):
    delta, alg = sg.comultiplication, sg.algebra
    cube = tensor_layout(delta.codomain, alg).product
    return max_image_defect(
        cube, lift(delta, alg, delta.matrix) - lift(alg, delta, delta.matrix)
    )


def _dense_action(family, sg):
    psi, alg = family.morphism, sg.algebra
    cube = tensor_layout(psi.codomain, alg).product
    diff = lift(psi, alg, psi.matrix)
    diff -= lift(family.source, sg.comultiplication, psi.matrix)
    return max_image_defect(cube, diff)


def _by_path(index, check, *args):
    """check(*args) with the path it must not take patched to fail."""
    stub = ("lift", _no_dense_lift) if index else ("lift_monomial", _no_index_lift)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qfam.semigroups, *stub)
        return check(*args)


def _commutative(alg):
    return alg.dim == len(alg.block_dims)


any_dims = st.one_of(points, block_dims)


@settings(max_examples=100, deadline=None)
@given(
    any_dims, any_dims, st.sampled_from([0.0, 0.2, 0.6]), st.booleans(), st.integers(0)
)
def test_index_path_agrees_with_dense_lifts(dims, src_dims, zero_share, phases, seed):
    """On random monomial comultiplications, with unimodular phases and zero
    rows, mostly non-associative, and on the action equation of a random
    monomial family over them, the defects agree with the dense lifts to
    1e-13. A commutative cube takes the index path, any other the dense
    lifts."""
    rng = np.random.default_rng(seed)
    alg, src = make_algebra(dims), make_algebra(src_dims)
    square = tensor_layout(alg, alg).product
    mat = _random_monomial(rng, square.dim, alg.dim, zero_share, phases)
    sg = QuantumSemigroup(alg, StarMorphism(alg, square, mat))
    target = tensor_layout(src, alg).product
    mat = _random_monomial(rng, target.dim, src.dim, zero_share, phases)
    family = QuantumFamily(src, src, alg, StarMorphism(src, target, mat))
    fast = (
        _by_path(_commutative(alg), coassociativity_defect, sg),
        _by_path(_commutative(target), action_defect, family, sg),
    )
    slow = _dense_coassociativity(sg), _dense_action(family, sg)
    assert np.allclose(fast, slow, rtol=0, atol=1e-13), (fast, slow)


# zero rows (0 and -0.0), phases, and entries whose products of two
# overflow to inf, so that differences of the lifts read inf or NaN
SLAB_COEFS = np.array([0, -0.0, 1, -1, 1j, np.exp(0.7j), 2.5, 1e160, -1e160j])


def _slab_case(seed, d, k):
    """A random monomial semigroup on d points, and a random monomial
    family of k points labelled by it, with coefficients from SLAB_COEFS."""
    rng = np.random.default_rng(seed)
    alg, src = functions_algebra(d), functions_algebra(k)

    def draw(rows, cols):
        mat = np.zeros((rows, cols), dtype=complex)
        mat[np.arange(rows), rng.integers(0, cols, rows)] = rng.choice(SLAB_COEFS, rows)
        return mat

    square, target = tensor_layout(alg, alg).product, tensor_layout(src, alg).product
    sg = QuantumSemigroup(alg, StarMorphism(alg, square, draw(square.dim, d)))
    family = QuantumFamily(src, src, alg, StarMorphism(src, target, draw(target.dim, k)))
    return sg, family


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 5), st.integers(1, 4), st.integers(0), st.sampled_from(["1", "7", "ragged"])
)
@example(4, 3, 38, "1")  # slab defects 1e160, 2.5e160, NaN, inf and 1e160, NaN, 2.5e160
def test_slabs_give_the_whole_lifts_defect(d, k, seed, chunk):
    """Coassociativity and the action equation reduced over slabs of one
    step of d^2 rows (_DEFECT_CHUNK 1 or 7), or of two steps, which leave a
    short last slab when d or k is odd, give by repr the defect of the
    whole lifts, on random monomial maps with zero rows, -0.0 and products
    that overflow to inf or NaN: no slab is dropped, shifted or overlapped,
    and a NaN in a later slab is not lost to the maximum."""
    sg, family = _slab_case(seed, d, k)
    alg, delta, psi = sg.algebra, sg.comultiplication, family.morphism
    with np.errstate(over="ignore", invalid="ignore"):
        whole = (
            monomial_defect(
                lift_monomial(delta, alg, delta.monomial), lift_monomial(alg, delta, delta.monomial)
            ),
            monomial_defect(
                lift_monomial(psi, alg, psi.monomial),
                lift_monomial(family.source, delta, psi.monomial),
            ),
        )
    with pytest.MonkeyPatch.context() as mp:
        chunk = {"1": 1, "7": 7, "ragged": 2 * d * d + 1}[chunk]
        mp.setattr(qfam.morphisms, "_DEFECT_CHUNK", chunk)
        slabbed = (
            _by_path(True, coassociativity_defect, sg),
            _by_path(True, action_defect, family, sg),
        )
    assert repr(slabbed) == repr(whole)


def _phase_representation(dim, order, broken):
    """Z_order acting on M_dim by conjugation with diag(p)^t, p a vector of
    order-th roots of unity; broken multiplies one phase of u_1 by e^{0.3i}."""
    p = np.exp(2j * np.pi * np.arange(1, dim + 1) / order)
    unitaries = [np.diag(p**t) for t in range(order)]
    if broken:
        unitaries[1] = unitaries[1] @ np.diag(np.r_[np.exp(0.3j), np.ones(dim - 1)])
    return conjugation_family(unitaries)


@pytest.mark.parametrize("broken", [False, True], ids=["intact", "broken"])
def test_diagonal_phase_representation_takes_dense_lifts(broken):
    """A diagonal-phase conjugation family of M_3 is monomial, but its
    action codomain has 3 x 3 blocks, so it takes the dense lifts; the
    verdict holds intact and fails broken."""
    sg = classical_semigroup_algebra(group_table(5))
    family = _phase_representation(3, 5, broken)
    assert family.morphism.monomial is not None
    cube = tensor_layout(family.morphism.codomain, sg.algebra).product
    assert max(cube.block_dims) == 3
    defect = _by_path(False, action_defect, family, sg)
    assert abs(defect - _dense_action(family, sg)) <= 1e-13
    assert within(defect, 1e-12) is not broken
    if broken:
        assert defect > 0.1


def test_a_nan_comultiplication_takes_the_dense_path_and_fails():
    sg = classical_semigroup_algebra(group_table(4))
    mat = np.array(sg.comultiplication.matrix)
    mat[5, 1] = np.nan
    delta = StarMorphism(sg.algebra, sg.comultiplication.codomain, mat)
    bad = QuantumSemigroup(sg.algebra, delta)
    assert bad.comultiplication.monomial is None
    defect = _by_path(False, coassociativity_defect, bad)
    assert np.isnan(defect)
    assert not within(defect, 1e-12)


INF_NAN = complex(float("inf"), float("nan"))


@pytest.mark.parametrize(
    "first, second",
    [
        (([0, 1], [INF_NAN, 1]), ([0, 1], [1, 1])),  # kept column, first form
        (([0, 1], [1, 1]), ([0, 1], [INF_NAN, 1])),  # kept column, second form
        (([1, 1], [INF_NAN, 1]), ([0, 1], [1, 1])),  # moved column, first form
        (([1, 1], [1, 1]), ([0, 1], [INF_NAN, 1])),  # moved column, second form
        (([1, 1], [np.inf, 1]), ([0, 1], [1, 1])),  # an infinite, not NaN, entry
    ],
)
def test_a_nan_coefficient_reads_nan_as_in_max_image_defect(first, second):
    """monomial_defect is max_image_defect of the densified difference over
    1 x 1 blocks, also for a coefficient inf + NaN i, which reads NaN on the
    kept-column and the moved-column branch (np.abs alone reads it inf)."""
    first, second = [(np.array(c), np.array(v, dtype=complex)) for c, v in (first, second)]
    cod = make_algebra([1, 1])
    with np.errstate(invalid="ignore"):  # inf - inf in the dense difference
        diff = _densify(first, 2) - _densify(second, 2)
    assert repr(monomial_defect(first, second)) == repr(max_image_defect(cod, diff))
