"""Magic unitaries, representation grids, action matrices, modular checks."""

import itertools
import re

import numpy as np
import pytest

from qfam import (
    AlgebraElement,
    DegenerateStateError,
    IncompatibleAlgebraError,
    InvalidMatrixError,
    LinearFunctional,
    MagicUnitary,
    NotMagicError,
    PreconditionError,
    QuantumFamily,
    Representation,
    StarMorphism,
    action_matrix,
    all_maps_family,
    characters_of,
    classical_semigroup_algebra,
    evaluate_at_character,
    functions_algebra,
    group_table,
    magic_unitary_check,
    make_algebra,
    matrix_isometry_defect,
    modular_report,
    nonclassical_magic_4x4,
    permutation_magic_unitary,
    podles_rank,
    projection_family_check,
    representation_defect,
    set_map_morphism,
    sign_conjugation_family,
    singleton_family,
    tensor_layout,
    tensor_representations,
    trace_state,
    wang_family,
)
from qfam.suites import random_partition


def test_permutation_magic_passes():
    report = magic_unitary_check(permutation_magic_unitary([2, 0, 1]))
    assert report.passed
    assert max(report.defects.values()) <= 1e-15
    assert report.max_commutator == 0.0
    assert set(report.defects) == {"idempotent", "hermitian", "row_sums", "col_sums"}


def test_permutation_magic_validates_input():
    with pytest.raises(Exception):
        permutation_magic_unitary([0, 0, 1])


def test_nonclassical_magic_commutator():
    theta = 0.7
    u = nonclassical_magic_4x4(theta)
    report = magic_unitary_check(u)
    assert report.passed
    want = abs(np.sin(theta) * np.cos(theta))
    assert abs(report.max_commutator - want) <= 1e-12
    assert report.max_commutator >= 0.1


def test_nonclassical_magic_warns_at_right_angles():
    with pytest.warns(UserWarning):
        nonclassical_magic_4x4(np.pi / 2)


def test_zeroed_entry_breaks_the_sums():
    u = permutation_magic_unitary([0, 1, 2])
    alg = u.algebra
    entries = [list(row) for row in u.entries]
    entries[0][0] = alg.zero()
    broken = MagicUnitary(alg, tuple(tuple(r) for r in entries))
    report = magic_unitary_check(broken)
    assert not report.passed
    assert report.defects["col_sums"] >= 1.0
    assert report.defects["row_sums"] >= 1.0
    with pytest.raises(NotMagicError):
        wang_family(broken)


def test_wang_family_is_a_homomorphism(translation_magic):
    fam = wang_family(translation_magic(4))
    assert max(fam.morphism.defect_report.values()) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wang_evaluation_gives_the_inverse_permutation(n):
    """Evaluating the family of a permutation grid at the scalar character
    returns the pullback along the inverse permutation, exactly."""
    for perm in itertools.permutations(range(n)):
        fam = wang_family(permutation_magic_unitary(perm))
        chi = characters_of(fam.label)[0]
        got = evaluate_at_character(fam, chi)
        inverse = [0] * n
        for j, p in enumerate(perm):
            inverse[p] = j
        assert np.array_equal(got.matrix, set_map_morphism(inverse).matrix)


def test_random_partitions_are_orthogonal():
    """A near-exact partition of unity forces near-exact orthogonality."""
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = int(rng.integers(1, 7))
        parts = int(rng.integers(1, min(d, 5) + 1))
        sum_defect, ortho_defect = projection_family_check(
            random_partition(rng, d, parts)
        )
        assert sum_defect <= 1e-12
        assert ortho_defect <= 1e-9


def test_overlapping_projections_detected():
    alg = make_algebra([2])
    p = alg.element([np.diag([1.0, 0.0])])
    sum_defect, ortho_defect = projection_family_check([p, p])
    assert sum_defect >= 1.0
    assert ortho_defect >= 1.0


def test_translation_grid_is_a_representation(translation_magic):
    for n in (2, 3, 4, 5):
        u = translation_magic(n)
        rep = Representation(u.algebra, u.entries)
        sg = classical_semigroup_algebra(group_table(n))
        assert representation_defect(rep, sg) == 0.0
        assert matrix_isometry_defect(u) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_translation_span_is_dense(n):
    """Every localized basis vector lies in the span of the left
    cancellation columns of the cyclic coproduct."""
    sg = classical_semigroup_algebra(group_table(n))
    alg = sg.algebra
    layout = tensor_layout(alg, alg)
    ident = alg.identity()
    cols = []
    for i in range(n):
        fixed = layout.elem(alg.basis_element(i), ident)
        for j in range(n):
            dj = AlgebraElement(layout.product, sg.comultiplication.matrix[:, j])
            cols.append((fixed * dj).to_vec())
    span = np.column_stack(cols)
    for c, k, l in itertools.product(range(n), repeat=3):
        target = layout.elem(
            alg.basis_element(c), alg.basis_element((k - l) % n)
        ).to_vec()
        coef, *_ = np.linalg.lstsq(span, target, rcond=None)
        assert np.linalg.norm(target - span @ coef) <= 1e-9


def test_tensor_of_representations(translation_magic):
    u = translation_magic(3)
    rep = Representation(u.algebra, u.entries)
    prod = tensor_representations(rep, rep)
    assert prod.size == 9
    sg = classical_semigroup_algebra(group_table(3))
    assert representation_defect(prod, sg) <= 1e-9
    assert matrix_isometry_defect(prod) <= 1e-9


def test_element_grid_and_coordinate_array_agree():
    u = nonclassical_magic_4x4(0.7)
    cells = tuple(
        tuple(AlgebraElement(u.algebra, v) for v in row) for row in u.entries
    )
    from_elements = Representation(u.algebra, cells)
    from_array = Representation(u.algebra, np.array(u.entries))
    np.testing.assert_array_equal(from_elements.entries, from_array.entries)
    assert not from_array.entries.flags.writeable


@pytest.mark.parametrize(
    "shape, error",
    [
        ((3, 3, 3), IncompatibleAlgebraError),
        ((3, 3), IncompatibleAlgebraError),
        ((3, 2, 4), InvalidMatrixError),
        ((0, 0, 4), InvalidMatrixError),
    ],
)
def test_a_wrongly_shaped_array_is_refused(shape, error):
    alg = make_algebra([2])
    grid = np.zeros(shape)
    with pytest.raises(error) as from_array:
        Representation(alg, grid)
    with pytest.raises(error) as from_nested:  # the same grid as nested lists
        Representation(alg, grid.tolist())
    assert str(from_array.value) == str(from_nested.value)


def test_tensor_representations_checks_algebra(translation_magic):
    u2, u3 = translation_magic(2), translation_magic(3)
    with pytest.raises(IncompatibleAlgebraError):
        tensor_representations(
            Representation(u2.algebra, u2.entries),
            Representation(u3.algebra, u3.entries),
        )


def test_action_matrix_of_the_translation_family(translation_magic):
    fam = wang_family(translation_magic(3))
    sg = classical_semigroup_algebra(group_table(3))
    report = action_matrix(fam, trace_state(fam.source), sg)
    assert report.isometry_defect <= 1e-12
    assert report.conjugate_isometry_defect is not None
    assert report.conjugate_isometry_defect <= 1e-12
    assert report.representation_defect is not None
    assert report.representation_defect <= 1e-9
    assert report.coefficients.shape == (3, 3, 3)


def test_action_matrix_of_a_conjugation_family():
    fam = sign_conjugation_family()
    report = action_matrix(fam, trace_state(fam.source))
    assert report.isometry_defect <= 1e-12
    assert report.representation_defect is None


def test_action_matrix_needs_a_faithful_state():
    fam = all_maps_family(2)
    omega = LinearFunctional.from_values(fam.source, [1.0, 0.0])
    with pytest.raises(DegenerateStateError):
        action_matrix(fam, omega)


def test_action_matrix_needs_a_self_map():
    source = functions_algebra(1)
    target = functions_algebra(2)
    from qfam.morphisms import StarMorphism

    phi = StarMorphism(source, target, np.ones((2, 1)))
    fam = singleton_family(phi)
    with pytest.raises(IncompatibleAlgebraError):
        action_matrix(fam, trace_state(source))


def test_modular_identity_weighted_conjugation():
    """Conjugation by the sign flip preserves diag(1/3, 2/3); the modular
    identity holds in its weighted form and the middle sums are left
    invertible."""
    fam = sign_conjugation_family()
    omega = LinearFunctional(
        fam.source, fam.source.element([np.diag([1 / 3, 2 / 3])])
    )
    report = modular_report(fam, omega)
    assert report.identity_defect <= 1e-9
    assert report.left_invertibility_defect <= 1e-8


def test_modular_identity_tracial_reduction():
    """For a trace the exchange matrix is the identity and the modular
    identity coincides with the conjugate isometry condition."""
    fam = sign_conjugation_family()
    tau = trace_state(fam.source)
    report = modular_report(fam, tau)
    assert np.max(np.abs(report.sigma_matrix - np.eye(fam.source.dim))) <= 1e-12
    conj = action_matrix(fam, tau).conjugate_isometry_defect
    assert conj is not None
    assert abs(report.identity_defect - conj) <= 1e-12


def test_modular_precondition_messages():
    fam = sign_conjugation_family()
    not_state = LinearFunctional.from_values(fam.source, [2.0, 0.0, 0.0, -1.0])
    with pytest.raises(PreconditionError, match="not a state"):
        modular_report(fam, not_state)
    degenerate = LinearFunctional(
        fam.source, fam.source.element([np.diag([1.0, 0.0])])
    )
    with pytest.raises(PreconditionError, match="not faithful"):
        modular_report(fam, degenerate)
    with pytest.raises(PreconditionError, match="not invariant"):
        modular_report(all_maps_family(2), trace_state(functions_algebra(2)))


def test_modular_precondition_refuses_a_nan_family():
    """A NaN invariance defect is not within any bound."""
    fam = sign_conjugation_family()
    mat = np.array(fam.morphism.matrix)
    mat[0, 0] = np.nan
    broken = QuantumFamily(
        fam.source,
        fam.target_factor,
        fam.label,
        StarMorphism(fam.source, fam.morphism.codomain, mat),
    )
    with pytest.raises(PreconditionError, match="not invariant"):
        modular_report(broken, trace_state(fam.source))


@pytest.mark.parametrize("tol, bound", [((), "1.000e-08"), ((1e-3,), "1.000e-03")])
def test_modular_invariance_message_prints_the_bound(tol, bound):
    """The invariance hypothesis holds omega to max(tol, 1e-8) and the
    message names that bound."""
    fam = all_maps_family(2)
    want = re.escape(f"(defect 5.000e-01 above the bound {bound})")
    with pytest.raises(PreconditionError, match=want):
        modular_report(fam, trace_state(fam.source), *tol)


def test_podles_rank_conjugation_is_full():
    report = podles_rank(sign_conjugation_family())
    assert (report.rank, report.total, report.full) == (8, 8, True)


def test_podles_rank_nonclassical_wang():
    fam = wang_family(nonclassical_magic_4x4(0.7))
    report = podles_rank(fam)
    assert report.rank == 16
    assert report.full
