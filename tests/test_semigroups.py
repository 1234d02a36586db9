"""Quantum semigroups: structure laws, convolution, cancellation, coideals."""

import itertools
import json

import numpy as np
import pytest

import qfam.morphisms
from qfam import (
    Character,
    IncompatibleAlgebraError,
    InvalidSemigroupError,
    LinearFunctional,
    MissingComponentError,
    QuantumSemigroup,
    ResourceLimitError,
    action_defect,
    all_maps_family,
    cancellation_rank,
    characters_of,
    classical_semigroup_algebra,
    coassociativity_defect,
    coideal_defect,
    convolve,
    counit_defect,
    functions_algebra,
    group_table,
    identity_morphism,
    invariance_defects,
    left_zero_table,
    map_monoid_table,
    qs_morphism_defect,
    save_document,
    table_identity,
    table_is_associative,
    table_is_left_cancellative,
    table_is_right_cancellative,
    tensor_layout,
    tensor_morphisms,
    trace_state,
    wang_family,
)
from qfam.cli import main
from qfam.morphisms import StarMorphism


def _map2():
    table, _ = map_monoid_table(2)
    return classical_semigroup_algebra(table)


def test_map_monoid_table_oracle():
    """Hand-computed multiplication table for the four self-maps of two
    points in lexicographic order: both constants absorb on their side."""
    table, maps = map_monoid_table(2)
    assert maps == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert table == [[0, 0, 3, 3], [0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 0, 3]]
    assert table_identity(table) == 1


def test_map_monoid_axioms_exact():
    sg = _map2()
    assert coassociativity_defect(sg) == 0.0
    assert counit_defect(sg) == 0.0
    assert action_defect(all_maps_family(2), sg) == 0.0


def test_all_binary_tables():
    """Of the 16 binary operations on two points exactly 8 are associative,
    and each associative one gives an exactly coassociative coproduct."""
    associative = 0
    for flat in itertools.product(range(2), repeat=4):
        table = [list(flat[:2]), list(flat[2:])]
        if table_is_associative(table):
            associative += 1
            sg = classical_semigroup_algebra(table)
            assert coassociativity_defect(sg) <= 1e-12
        else:
            with pytest.raises(InvalidSemigroupError):
                classical_semigroup_algebra(table)
    assert associative == 8


def test_convolution_counit_is_neutral():
    rng = np.random.default_rng(7)
    sg = _map2()
    eps = sg.counit.as_functional()
    for _ in range(10):
        f = LinearFunctional.from_values(
            sg.algebra, rng.standard_normal(4) + 1j * rng.standard_normal(4)
        )
        left = convolve(eps, f, sg)
        right = convolve(f, eps, sg)
        assert np.max(np.abs(left.covector - f.covector)) <= 1e-12
        assert np.max(np.abs(right.covector - f.covector)) <= 1e-12


def test_convolution_is_associative():
    rng = np.random.default_rng(11)
    sg = _map2()
    fs = [
        LinearFunctional.from_values(
            sg.algebra, rng.standard_normal(4) + 1j * rng.standard_normal(4)
        )
        for _ in range(3)
    ]
    f, g, h = fs
    left = convolve(convolve(f, g, sg), h, sg)
    right = convolve(f, convolve(g, h, sg), sg)
    assert np.max(np.abs(left.covector - right.covector)) <= 1e-12


def test_characters_convolve_like_the_monoid():
    table, _ = map_monoid_table(2)
    sg = classical_semigroup_algebra(table)
    chars = characters_of(sg.algebra)
    for u, v in itertools.product(range(4), repeat=2):
        conv = convolve(chars[u].as_functional(), chars[v].as_functional(), sg)
        want = chars[table[u][v]].as_functional()
        assert np.array_equal(conv.covector, want.covector)


def test_characters_convolve_like_the_cyclic_group():
    sg = classical_semigroup_algebra(group_table(4))
    chars = characters_of(sg.algebra)
    for g, h in itertools.product(range(4), repeat=2):
        conv = convolve(chars[g].as_functional(), chars[h].as_functional(), sg)
        assert np.array_equal(conv.covector, chars[(g + h) % 4].as_functional().covector)


def test_perturbed_comultiplication_detected():
    sg = _map2()
    lay = tensor_layout(sg.algebra, sg.algebra)
    pert = np.array(sg.comultiplication.matrix)
    pert[0, 0] += 0.1
    broken = QuantumSemigroup(sg.algebra, StarMorphism(sg.algebra, lay.product, pert))
    assert coassociativity_defect(broken) >= 0.05


def test_wrong_counit_detected():
    sg = _map2()
    row = np.zeros((1, 4), dtype=complex)
    row[0, 0] = 1.0  # evaluation at a constant map, not at the identity
    broken = QuantumSemigroup(sg.algebra, sg.comultiplication, Character(sg.algebra, row))
    assert counit_defect(broken) >= 0.5


def test_missing_counit_raises():
    sg = classical_semigroup_algebra(left_zero_table(2))
    assert sg.counit is None
    with pytest.raises(MissingComponentError):
        counit_defect(sg)


def test_semigroup_shape_validation():
    alg = functions_algebra(2)
    with pytest.raises(Exception):
        QuantumSemigroup(alg, StarMorphism(alg, alg, np.eye(2)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_groups_cancel_on_both_sides(n):
    sg = classical_semigroup_algebra(group_table(n))
    left = cancellation_rank(sg, "left")
    right = cancellation_rank(sg, "right")
    assert left.full and left.rank == n * n
    assert right.full and right.rank == n * n


def test_left_zero_ranks():
    """s t = s: right translations are injective, left ones collapse."""
    sg = classical_semigroup_algebra(left_zero_table(2))
    assert cancellation_rank(sg, "left").rank == 2
    assert not cancellation_rank(sg, "left").full
    assert cancellation_rank(sg, "right").rank == 4
    assert cancellation_rank(sg, "right").full


def test_right_zero_ranks():
    table = [[0, 1], [0, 1]]  # s t = t
    sg = classical_semigroup_algebra(table)
    assert cancellation_rank(sg, "right").rank == 2
    assert cancellation_rank(sg, "left").rank == 4


def test_cancellation_side_validated():
    with pytest.raises(ValueError):
        cancellation_rank(_map2(), "middle")


def test_cancellation_matches_classical_oracle_order_two():
    for flat in itertools.product(range(2), repeat=4):
        table = [list(flat[:2]), list(flat[2:])]
        if not table_is_associative(table):
            continue
        sg = classical_semigroup_algebra(table)
        assert cancellation_rank(sg, "left").full == table_is_left_cancellative(table)
        assert cancellation_rank(sg, "right").full == table_is_right_cancellative(table)


def test_table_utilities():
    assert table_is_associative(group_table(3))
    assert not table_is_associative([[0, 0], [1, 0]])
    assert not table_is_associative([[0, 0, 0], [1, 0]])
    assert table_identity(group_table(3)) == 0
    assert table_identity(left_zero_table(2)) is None
    assert table_is_left_cancellative(group_table(4))
    assert not table_is_left_cancellative(left_zero_table(3))
    assert table_is_right_cancellative(left_zero_table(3))


def test_classical_semigroup_rejects_bad_tables():
    with pytest.raises(InvalidSemigroupError):
        classical_semigroup_algebra([[0, 1]])
    with pytest.raises(InvalidSemigroupError):
        classical_semigroup_algebra([[0, 5], [1, 0]])
    with pytest.raises(InvalidSemigroupError):
        classical_semigroup_algebra([[0, 0], [1, 0]])
    with pytest.raises(InvalidSemigroupError):
        group_table(0)


def test_restriction_to_permutations_is_a_qs_morphism():
    """Restricting functions on all self-maps to the two permutations
    intertwines the coproducts with the cyclic group of order two."""
    table, maps = map_monoid_table(2)
    sg = classical_semigroup_algebra(table)
    z2 = classical_semigroup_algebra(group_table(2))
    mat = np.zeros((2, 4), dtype=complex)
    mat[0, maps.index((0, 1))] = 1.0  # identity map
    mat[1, maps.index((1, 0))] = 1.0  # transposition
    lam = StarMorphism(sg.algebra, z2.algebra, mat)
    assert lam.is_star_hom()
    assert qs_morphism_defect(lam, sg, z2) == 0.0


def test_counit_is_a_morphism_to_the_point():
    sg = _map2()
    alg1 = functions_algebra(1)
    lay1 = tensor_layout(alg1, alg1)
    trivial = QuantumSemigroup(
        alg1,
        StarMorphism(alg1, lay1.product, np.eye(1)),
        Character(alg1, np.eye(1)),
    )
    assert qs_morphism_defect(sg.counit, sg, trivial) == 0.0


def test_qs_morphism_shape_checked():
    sg = _map2()
    z3 = classical_semigroup_algebra(group_table(3))
    with pytest.raises(IncompatibleAlgebraError):
        qs_morphism_defect(sg.counit, sg, z3)


def test_action_defect_checks_label():
    sg = classical_semigroup_algebra(group_table(3))
    with pytest.raises(IncompatibleAlgebraError):
        action_defect(all_maps_family(2), sg)


def test_translation_action_satisfies_the_action_equation(translation_magic):
    for n in (2, 3, 4):
        fam = wang_family(translation_magic(n))
        sg = classical_semigroup_algebra(group_table(n))
        assert action_defect(fam, sg) == 0.0


def test_translation_action_preserves_the_uniform_state(translation_magic):
    fam = wang_family(translation_magic(3))
    omega = trace_state(fam.source)
    assert omega.is_faithful()
    assert invariance_defects(fam, omega).defect <= 1e-12


def test_coideal_identity_for_the_full_map_family():
    rng = np.random.default_rng(13)
    fam = all_maps_family(2)
    sg = _map2()
    omegas = [trace_state(fam.source)] + [
        LinearFunctional.from_values(
            fam.source, rng.standard_normal(2) + 1j * rng.standard_normal(2)
        )
        for _ in range(5)
    ]
    for omega in omegas:
        assert coideal_defect(fam, sg, omega) <= 1e-9


def test_coideal_identity_for_the_translation_action(translation_magic):
    fam = wang_family(translation_magic(3))
    sg = classical_semigroup_algebra(group_table(3))
    assert coideal_defect(fam, sg, trace_state(fam.source)) <= 1e-9


def test_dense_lift_over_the_cap_is_refused(monkeypatch, tmp_path, capsys):
    """With the cap lowered to 1 MiB, the 2.4 MiB lift arrays of
    coassociativity on the cyclic group of order 20 (16 * 20^4 bytes) are
    refused before they are allocated."""
    monkeypatch.setattr(qfam.morphisms, "LIFT_BYTES_CAP", 2**20)
    sg = classical_semigroup_algebra(group_table(20))
    with pytest.raises(ResourceLimitError, match="MiB"):
        coassociativity_defect(sg)
    with pytest.raises(ResourceLimitError, match="MiB"):
        tensor_morphisms(sg.comultiplication, identity_morphism(sg.algebra))
    doc = tmp_path / "cyclic-20.json"
    save_document(sg, doc)
    assert main(["check-coassoc", str(doc)]) == 2
    assert "cap" in capsys.readouterr().err
    # a small group still fits under the lowered cap, and so does order 16,
    # whose lift arrays take exactly 16 * 16^4 = 2^20 bytes
    assert coassociativity_defect(classical_semigroup_algebra(group_table(4))) == 0.0
    assert coassociativity_defect(classical_semigroup_algebra(group_table(16))) == 0.0


def test_coassociativity_of_order_40_fits_the_default_cap(tmp_path, capsys):
    """The lift arrays of order 40 take 16 * 40^4 bytes (39 MiB); a dense
    Kronecker lift would take 16 * 40^5 bytes (1.6 GiB), over the cap."""
    doc = tmp_path / "cyclic-40.json"
    save_document(classical_semigroup_algebra(group_table(40)), doc)
    assert main(["check-coassoc", "--format", "structured", str(doc)]) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["name"] == "coassociativity"
    assert check["defect"] == 0.0
