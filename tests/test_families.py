"""Families of maps with a tensor label: composition, invariance, evaluation."""

import itertools

import numpy as np
import pytest

from qfam import (
    AlgebraElement,
    Character,
    IncompatibleAlgebraError,
    InvalidCharacterError,
    LinearFunctional,
    NotAHomomorphismError,
    QuantumSemigroup,
    all_maps_family,
    characters_of,
    classical_family,
    classical_semigroup_algebra,
    commutation_defect,
    compose_families,
    compose_morphisms,
    convolve,
    evaluate_at_character,
    factorization_defect,
    fixed_point_space,
    functions_algebra,
    invariance_defects,
    make_algebra,
    make_family,
    map_monoid_table,
    orthonormal_basis,
    permutation_magic_unitary,
    set_map_morphism,
    sign_conjugation_family,
    singleton_family,
    tensor_layout,
    trace_state,
    trivial_family,
    triviality_defect,
    wang_family,
)
from qfam.morphisms import StarMorphism
from qfam.suites import (
    conjugation_family,
    haar_unitary,
    random_algebra,
    random_family,
    random_faithful_state,
    random_label,
    random_source_algebra,
)


def test_make_family_rejects_non_homomorphism():
    alg = make_algebra([2])
    transpose = np.zeros((4, 4))
    for i, (k, r, s) in enumerate(alg.basis_labels):
        transpose[alg.basis_index(k, s, r), i] = 1.0
    with pytest.raises(NotAHomomorphismError):
        make_family(alg, alg, make_algebra([1]), transpose)


def test_make_family_checks_codomain():
    alg = make_algebra([2])
    phi = set_map_morphism([0, 1])
    with pytest.raises(IncompatibleAlgebraError):
        make_family(alg, alg, make_algebra([1]), phi)


def test_trivial_family_is_trivial():
    fam = trivial_family(make_algebra([2, 1]), functions_algebra(3))
    assert triviality_defect(fam) == 0.0
    fixed = fixed_point_space(fam)
    assert fixed.dimension == 5
    assert not fixed.ergodic


def test_all_maps_family_is_ergodic():
    fam = all_maps_family(2)
    fixed = fixed_point_space(fam)
    assert fixed.dimension == 1
    assert fixed.ergodic
    # the fixed line is spanned by the identity
    v = fixed.basis[:, 0]
    assert np.max(np.abs(v - v[0])) <= 1e-9
    assert triviality_defect(fam) > 0.4


def test_conjugation_fixed_points_are_diagonal():
    fam = sign_conjugation_family()
    fixed = fixed_point_space(fam)
    assert fixed.dimension == 2
    assert not fixed.ergodic
    for col in fixed.basis.T:
        (x,) = AlgebraElement(fam.source, col).blocks
        off_diag = np.abs(x - np.diag(np.diag(x))).max()
        assert off_diag <= 1e-9


@pytest.mark.parametrize("n, count", [(1, 1), (2, 3), (3, 2)])
def test_conjugation_family_sums_the_conjugated_tensors(n, count):
    """Psi(x) = sum_t u_t x u_t* (x) delta_t, built element by element."""
    rng = np.random.default_rng(n + count)
    unitaries = [haar_unitary(rng, n) for _ in range(count)]
    fam = conjugation_family(unitaries)
    layout = fam.layout
    for j in range(fam.source.dim):
        x = fam.source.basis_element(j)
        want = sum(
            layout.elem(
                fam.source.element([u @ x.blocks[0] @ u.conj().T]),
                fam.label.basis_element(t),
            ).to_vec()
            for t, u in enumerate(unitaries)
        )
        assert np.allclose(fam.morphism.matrix[:, j], want, rtol=0, atol=1e-15)


def test_singleton_family_keeps_the_matrix():
    phi = set_map_morphism([1, 0, 1])
    fam = singleton_family(phi)
    assert np.array_equal(fam.morphism.matrix, phi.matrix)
    assert fam.is_self_map
    assert fam.label.dim == 1


def test_classical_family_matches_all_maps():
    tables = [(0, 0), (0, 1), (1, 0), (1, 1)]
    fam = classical_family(tables)
    assert np.array_equal(fam.morphism.matrix, all_maps_family(2).morphism.matrix)


def test_composition_is_associative_on_classical_families():
    f = classical_family([(0, 1), (1, 0)])
    g = classical_family([(0, 0), (1, 1), (1, 0)])
    h = classical_family([(0, 1)])
    left = compose_families(compose_families(f, g), h)
    right = compose_families(f, compose_families(g, h))
    assert np.array_equal(left.morphism.matrix, right.morphism.matrix)
    assert left.label == right.label


def test_composition_label_and_sources():
    rng = np.random.default_rng(3)
    b = random_source_algebra(rng)
    c = random_source_algebra(rng)
    d = random_algebra(rng)
    a1, a2 = random_label(rng), random_label(rng)
    first = random_family(rng, c, d, a1)
    second = random_family(rng, b, c, a2)
    comp = compose_families(first, second)
    assert comp.source == b
    assert comp.target_factor == d
    assert comp.label.dim == a1.dim * a2.dim
    assert comp.morphism.is_star_hom(1e-6)


def test_composition_requires_matching_algebras():
    first = all_maps_family(2)
    second = all_maps_family(3)
    with pytest.raises(IncompatibleAlgebraError):
        compose_families(first, second)


def test_evaluation_hits_every_set_map():
    """Evaluating the family of all self-maps at the label characters gives
    back exactly the pullback of each lookup table, in enumeration order."""
    fam = all_maps_family(2)
    tables = [(0, 0), (0, 1), (1, 0), (1, 1)]
    chars = characters_of(fam.label)
    assert len(chars) == 4
    for chi, table in zip(chars, tables):
        got = evaluate_at_character(fam, chi)
        assert np.array_equal(got.matrix, set_map_morphism(table).matrix)


def test_evaluation_checks_character_domain():
    fam = all_maps_family(2)
    with pytest.raises(InvalidCharacterError):
        evaluate_at_character(fam, characters_of(functions_algebra(3))[0])


def test_evaluation_respects_convolution():
    """Evaluation turns convolution of characters into composition of maps."""
    fam = all_maps_family(2)
    table, _ = map_monoid_table(2)
    sg = classical_semigroup_algebra(table)
    chars = characters_of(fam.label)
    for lam, mu in itertools.product(chars, repeat=2):
        conv = Character.from_functional(
            convolve(lam.as_functional(), mu.as_functional(), sg)
        )
        lhs = evaluate_at_character(fam, conv).matrix
        rhs = compose_morphisms(
            evaluate_at_character(fam, lam), evaluate_at_character(fam, mu)
        ).matrix
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def _random_functional(rng, algebra):
    values = rng.standard_normal((algebra.dim, 2)) @ [1, 1j]
    return LinearFunctional.from_values(algebra, values)


@pytest.mark.parametrize("seed", range(6))
def test_partial_functionals_match_einsum_references(seed):
    """invariance_defects, evaluate_at_character and convolve apply a
    functional on one tensor factor; each agrees with a contraction over
    the pair indices written out here."""
    rng = np.random.default_rng(seed)
    source = random_source_algebra(rng)
    label = make_algebra([1] + [int(rng.integers(1, 3))])  # has a character
    fam = random_family(rng, source, source, label)
    slices = fam.morphism.matrix[fam.layout.pair_index]  # (source, label, basis)

    omega = _random_functional(rng, source)
    diff = np.einsum("iab,i->ab", slices, omega.covector)
    diff -= np.einsum("a,b->ab", label.identity().to_vec(), omega.covector)
    want = max(
        max(np.linalg.norm(block, 2) for block in AlgebraElement(label, col).blocks)
        for col in diff.T
    )
    got = invariance_defects(fam, omega).defect
    assert abs(got - want) <= 1e-12 * max(1.0, want)

    chi = characters_of(label)[0]
    want = np.einsum("iab,a->ib", slices, chi.matrix.reshape(-1))
    got = evaluate_at_character(fam, chi).matrix
    assert np.allclose(got, want, rtol=0, atol=1e-13)

    layout = tensor_layout(label, label)
    delta = StarMorphism(
        label, layout.product, rng.standard_normal((layout.product.dim, label.dim))
    )
    sg = QuantumSemigroup(label, delta)
    f, g = _random_functional(rng, label), _random_functional(rng, label)
    pairs = delta.matrix[layout.pair_index]
    want = np.einsum("ijc,i,j->c", pairs, f.covector, g.covector)
    assert np.allclose(convolve(f, g, sg).covector, want, rtol=0, atol=1e-12)


def test_uniform_state_invariant_under_wang_action():
    fam = wang_family(permutation_magic_unitary([1, 2, 0]))
    omega = trace_state(fam.source)
    report = invariance_defects(fam, omega)
    assert report.defect <= 1e-12
    assert report.generators.shape == (fam.label.dim, fam.source.dim)
    for col in report.generators.T:
        assert AlgebraElement(fam.label, col).norm() <= 1e-12


def test_generators_expand_over_any_basis_by_a_matrix_product():
    """generators @ basis is (omega (x) id) Psi(m) - omega(m) 1, column by
    column, for each m of the omega-orthonormal basis; omega is faithful and
    not invariant, so the generators do not vanish."""
    rng = np.random.default_rng(7)
    fam = conjugation_family([haar_unitary(rng, 2) for _ in range(3)])
    omega = random_faithful_state(rng, fam.source)
    basis = orthonormal_basis(omega)
    ident = fam.label.identity().to_vec()
    columns = []
    for m in basis.T:
        x = AlgebraElement(fam.source, m)
        image = fam.layout.split(fam(x).to_vec())  # (source, label)
        columns.append(omega.covector @ image - omega(x) * ident)
    want = np.stack(columns, axis=1)
    got = invariance_defects(fam, omega).generators @ basis
    assert np.max(np.abs(want)) > 0.1
    assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_uniform_state_not_invariant_for_all_maps():
    """Constant maps average mass into one point, so the defect is exactly
    one half on two points."""
    fam = all_maps_family(2)
    report = invariance_defects(fam, trace_state(fam.source))
    assert report.defect == pytest.approx(0.5, abs=1e-12)


def test_commutation_with_trivial_family_is_exact():
    rng = np.random.default_rng(5)
    source = random_source_algebra(rng)
    fam = random_family(rng, source, source, random_label(rng))
    triv = trivial_family(source, functions_algebra(2))
    assert commutation_defect(fam, triv) == 0.0
    assert commutation_defect(triv, fam) == 0.0


def test_commutation_detects_noncommuting_maps():
    """A transposition against a collapse map: the orders differ by a
    constant-map swap, so the defect is at least one."""
    transposition = classical_family([(1, 0)])
    collapse = classical_family([(0, 0)])
    d1 = commutation_defect(transposition, collapse)
    d2 = commutation_defect(collapse, transposition)
    assert d1 > 0.5
    assert abs(d1 - d2) <= 1e-9


def test_commutation_requires_shared_source():
    with pytest.raises(IncompatibleAlgebraError):
        commutation_defect(all_maps_family(2), all_maps_family(3))


def test_factorization_certificate():
    fam = all_maps_family(2)
    chars = characters_of(fam.label)
    chi_id = chars[1]  # the identity lookup table
    single = singleton_family(evaluate_at_character(fam, chi_id))
    assert factorization_defect(fam, chi_id, single) <= 1e-12
    # the wrong connecting character does not certify
    assert factorization_defect(fam, chars[0], single) > 0.4


def test_factorization_checks_shapes():
    fam = all_maps_family(2)
    other = all_maps_family(3)
    single = singleton_family(set_map_morphism([0, 1, 2]))
    with pytest.raises(IncompatibleAlgebraError):
        factorization_defect(fam, characters_of(fam.label)[0], single)
    with pytest.raises(IncompatibleAlgebraError):
        factorization_defect(other, characters_of(fam.label)[0], single)


def test_family_application_matches_matrix():
    fam = all_maps_family(2)
    x = fam.source.basis_element(1)
    assert np.array_equal(fam(x).to_vec(), fam.morphism.matrix[:, 1])


def test_invariance_with_degenerate_functional_still_reports():
    """Invariance generators are defined for any functional; no faithfulness
    is needed at this layer."""
    fam = all_maps_family(2)
    omega = LinearFunctional.from_values(fam.source, [1.0, 0.0])
    report = invariance_defects(fam, omega)
    assert np.isfinite(report.defect)
    assert report.defect > 0.4
