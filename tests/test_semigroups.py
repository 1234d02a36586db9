"""Quantum semigroups: structure laws, convolution, cancellation, coideals."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qfam.families
import qfam.morphisms
import qfam.semigroups
from qfam import (
    Character,
    IncompatibleAlgebraError,
    InvalidMatrixError,
    InvalidSemigroupError,
    LinearFunctional,
    MissingComponentError,
    QuantumFamily,
    QuantumSemigroup,
    ResourceLimitError,
    action_defect,
    all_maps_family,
    cancellation_rank,
    characters_of,
    classical_family,
    classical_semigroup_algebra,
    coassociativity_defect,
    coideal_defect,
    conjugation_family,
    convolve,
    counit_defect,
    factorization_defect,
    functions_algebra,
    group_table,
    haar_unitary,
    invariance_defects,
    left_zero_table,
    map_monoid_table,
    permutation_magic_unitary,
    qs_morphism_defect,
    save_document,
    set_map_morphism,
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
from qfam.semigroups import tables_are_associative


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


@pytest.mark.parametrize("table", [[[0, 1, 2]] * 3, left_zero_table(3)])
def test_counit_defect_reads_both_laws(table):
    """Evaluation at point 0 satisfies the left counit law on the right-zero
    semigroup (s t = t) and breaks the right one; on the left-zero semigroup
    it is the other way round. Each law alone reads 0 on one of the two."""
    sg = classical_semigroup_algebra(table)
    broken = QuantumSemigroup(sg.algebra, sg.comultiplication, Character(sg.algebra, [[1, 0, 0]]))
    assert counit_defect(broken) == 1.0


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


@pytest.mark.parametrize("side", ["left", "right"])
def test_cancellation_of_order_120_is_counted_in_little_memory(traced_peak, side):
    """Both cancellation ranks of the cyclic group of order 120 are counted
    from the recorded monomial form of its comultiplication, so a first call
    peaks under 4 MB; the block SVDs' (120, 120, 120) stack alone was 28 MB."""
    sg = classical_semigroup_algebra(group_table(120))
    report, peak = traced_peak(lambda: cancellation_rank(sg, side))
    assert (report.rank, report.full) == (14400, True)
    assert report.smallest_kept == 1.0 and report.largest_dropped == 0.0
    assert peak < 4 * 2**20, peak


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


def test_batched_associativity_matches_triple_loop():
    """tables_are_associative agrees, table by table, with (x y) z == x (y z)
    checked over every triple in Python: all 3^9 tables of order 3, and
    random tables of order 4 stacked with two associative ones."""
    rng = np.random.default_rng(2)
    order_4 = [group_table(4), left_zero_table(4)]
    for tables in (
        np.array(list(itertools.product(range(3), repeat=9))).reshape(-1, 3, 3),
        np.concatenate([order_4, rng.integers(0, 4, size=(300, 4, 4))]),
    ):
        triples = list(itertools.product(range(tables.shape[-1]), repeat=3))
        want = [
            all(t[t[x][y]][z] == t[x][t[y][z]] for x, y, z in triples)
            for t in tables.tolist()
        ]
        assert tables_are_associative(tables).tolist() == want
    assert tables_are_associative(order_4).tolist() == [True, True]


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


def _smeared(table):
    """The comultiplication of a classical table with a second nonzero entry
    in its first row, so it has no monomial form and takes dense lifts."""
    sg = classical_semigroup_algebra(table)
    mat = np.array(sg.comultiplication.matrix)
    mat[0, 1] += 1e-3
    delta = StarMorphism(sg.algebra, sg.comultiplication.codomain, mat)
    return QuantumSemigroup(sg.algebra, delta)


def _rotated_representation(order, n=3, haar=True):
    """Z_order acting on M_n by conjugation with V diag(p)^t V*, V a Haar
    unitary and p a vector of order-th roots of unity: an action whose
    family matrix has no monomial form. With V = 1 (haar=False) the family
    is monomial, but its action codomain has n x n blocks, so it too takes
    dense lifts."""
    rng = np.random.default_rng(order)
    v = haar_unitary(rng, n) if haar else np.eye(n)
    p = np.exp(2j * np.pi * rng.integers(0, order, n) / order)
    return conjugation_family([v @ np.diag(p**t) @ v.conj().T for t in range(order)])


def test_dense_lift_over_the_cap_is_refused(monkeypatch):
    """With the cap lowered to 1 MiB, what is counted is an array a call
    keeps, before it is allocated: tensor_morphisms at order 20 is refused
    for its identity input (8 * 400^2 = 1,280,000 bytes). A dense defect
    counts the lift of one slab of columns: coassociativity of order 20
    with no monomial form lifts all 20 columns in one slab of
    2^18 // 20^3 = 32 columns (16 * 20^4 = 2,560,000 bytes) and is refused,
    but with slabs of 2^14 entries it lifts 2 columns at a time (256,000
    bytes) and runs. The sizes the old model of the whole defect refused,
    coassociativity at order 12 and the action of a Haar-rotated
    representation at order 16, run under the lowered cap."""
    monkeypatch.setattr(qfam.morphisms, "LIFT_BYTES_CAP", 2**20)
    sg = classical_semigroup_algebra(group_table(20))
    with pytest.raises(ResourceLimitError, match="MiB"):
        tensor_morphisms(
            sg.comultiplication, StarMorphism(sg.algebra, sg.algebra, np.eye(20))
        )
    with pytest.raises(ResourceLimitError, match="a tensor lift of 20 columns"):
        coassociativity_defect(_smeared(group_table(20)))
    with monkeypatch.context() as patch:
        patch.setattr(qfam.morphisms, "_DEFECT_CHUNK", 2**14)
        assert abs(coassociativity_defect(_smeared(group_table(20))) - 1e-3) <= 1e-15
    assert abs(coassociativity_defect(_smeared(group_table(12))) - 1e-3) <= 1e-15
    sg = classical_semigroup_algebra(group_table(16))
    assert action_defect(_rotated_representation(16), sg) <= 1e-12


def test_a_dense_build_over_the_cap_is_refused(monkeypatch, tmp_path, capsys):
    """With the cap lowered to 1 MiB, the dense matrix of a classical
    semigroup or family, 16 bytes an entry, is refused before it is
    allocated: 16 * 40^3 = 1,024,000 <= 2^20 < 16 * 41^3 = 1,102,736. The
    index path is not counted, so check-coassoc passes order 40, whose
    40^3-row defect would have counted 5 MiB, and exits 2 with the cap in
    its message on order 41, as check-commute does on its families."""
    monkeypatch.setattr(qfam.morphisms, "LIFT_BYTES_CAP", 2**20)
    for build in (classical_semigroup_algebra, classical_family):
        with pytest.raises(ResourceLimitError, match="cap"):
            build(group_table(41))
    for order, code in ((40, 0), (41, 2)):
        doc = tmp_path / f"cyclic-{order}.json"
        table = [[v + 1 for v in row] for row in group_table(order)]
        doc.write_text(json.dumps({"kind": "semigroup", "classical_table": table}))
        assert main(["check-coassoc", str(doc)]) == code
    assert "cap" in capsys.readouterr().err
    doc = tmp_path / "translations-41.json"
    table = [[v + 1 for v in row] for row in group_table(41)]
    doc.write_text(json.dumps({"kind": "family", "classical_table": table}))
    assert main(["check-commute", str(doc), str(doc)]) == 2
    assert "cap" in capsys.readouterr().err


def test_a_dense_build_is_counted_before_its_table_is_checked(monkeypatch):
    """Over the cap lowered to 1 MiB, classical_semigroup_algebra refuses the
    cyclic group of order 41 before its associativity check (n passes over
    n^2 gathers), and classical_family (16 * 41^3 bytes) and
    set_map_morphism (16 * 257^2 = 1,056,784 bytes) refuse before they build
    an algebra; under the cap each builder reaches those steps."""
    monkeypatch.setattr(qfam.morphisms, "LIFT_BYTES_CAP", 2**20)
    calls = []

    def spy(name, original):
        def call(*args):
            calls.append(name)
            return original(*args)

        return call

    for module, name in (
        (qfam.semigroups, "tables_are_associative"),
        (qfam.families, "functions_algebra"),
        (qfam.morphisms, "functions_algebra"),
    ):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    cases = [
        (classical_semigroup_algebra, group_table(41), group_table(2)),
        (classical_family, group_table(41), group_table(2)),
        (set_map_morphism, list(range(257)), [1, 0]),
    ]
    for build, over, _ in cases:
        with pytest.raises(ResourceLimitError, match="cap"):
            build(over)
    assert calls == []
    for build, _, under in cases:
        build(under)
    assert set(calls) == {"tables_are_associative", "functions_algebra"}


@pytest.mark.parametrize(
    "build, table, error",
    [
        (classical_semigroup_algebra, [[0, 0.9], [0.9, 1]], InvalidSemigroupError),
        (classical_semigroup_algebra, [[False, True], [True, False]], InvalidSemigroupError),
        (classical_semigroup_algebra, np.array([[0.0, 1.0], [1.0, 0.0]]), InvalidSemigroupError),
        (classical_family, [[0, 1.6]], InvalidMatrixError),
        (classical_family, [[True, False]], InvalidMatrixError),
        (set_map_morphism, [0, 1.6], InvalidMatrixError),
        (set_map_morphism, [True, False], InvalidMatrixError),
        (set_map_morphism, np.array([1.0, 0.0]), InvalidMatrixError),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_a_table_of_floats_or_booleans_is_refused(build, table, error):
    """A float entry is not truncated and a bool is not read as 0 or 1: the
    builders refuse any table whose array is not of an integer kind."""
    with pytest.raises(error, match="integers"):
        build(table)


@pytest.mark.parametrize(
    "read, table, outcome",
    [
        (table_is_associative, [[0, 0.9], [0.9, 1]], False),
        (table_identity, [[0, 1.0], [1.0, 0]], InvalidSemigroupError),
        (table_is_left_cancellative, [[0, 1.5], [1, 0]], InvalidSemigroupError),
        (table_is_right_cancellative, np.array([[0.0, 1.0], [1.0, 0.0]]), InvalidSemigroupError),
        (permutation_magic_unitary, [0, 1.6], InvalidMatrixError),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_the_table_helpers_read_floats_as_no_table(read, table, outcome):
    """The table helpers read a table through the builders' integer rule, so
    a float entry is not truncated to an index: associativity is False, and
    the identity, the cancellation tests and a permutation grid refuse."""
    if outcome is False:
        assert read(table) is False
    else:
        with pytest.raises(outcome, match="integers"):
            read(table)


@pytest.mark.parametrize(
    "read, table, outcome",
    [
        (classical_semigroup_algebra, [[0, True], [True, 0]], InvalidSemigroupError),
        (permutation_magic_unitary, [True, 0], InvalidMatrixError),
        (permutation_magic_unitary, (np.True_, 0), InvalidMatrixError),
        (table_identity, [[0, True], [True, 0]], InvalidSemigroupError),
        (classical_family, [[True, 0]], InvalidMatrixError),
        (classical_family, [np.array([True, False]), [0, 1]], InvalidMatrixError),
        (set_map_morphism, [True, 0], InvalidMatrixError),
        (table_is_associative, [[0, True], [True, 0]], False),
        (table_is_left_cancellative, [[0, True], [True, 0]], InvalidSemigroupError),
        (table_is_right_cancellative, [[0, True], [True, 0]], InvalidSemigroupError),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_a_bool_among_integers_is_no_table(read, table, outcome):
    """numpy reads a bool among ints, or a bool row among int rows, as an
    int; the builders and helpers still refuse it, and associativity is
    False."""
    if outcome is False:
        assert read(table) is False
    else:
        with pytest.raises(outcome, match="not bool"):
            read(table)


@pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.intp, None])
def test_integer_tables_of_any_width_build_the_same_maps(dtype):
    """numpy integers of any width and Python ints (dtype None) build the
    same matrices."""
    table = group_table(3)
    if dtype is not None:
        table = np.array(table, dtype=dtype)
    assert np.array_equal(
        classical_semigroup_algebra(table).comultiplication.matrix,
        classical_semigroup_algebra(group_table(3)).comultiplication.matrix,
    )
    assert np.array_equal(
        classical_family(table).morphism.matrix, classical_family(group_table(3)).morphism.matrix
    )
    assert np.array_equal(set_map_morphism(table[1]).matrix, set_map_morphism([1, 2, 0]).matrix)


def test_a_classical_build_holds_its_matrix_once(traced_peak):
    """The comultiplication of the cyclic group of order 100 is one
    16 * 100^3-byte array; building it peaks within 10 % of that, so the
    map holds the array built and not a copy of it."""
    sg, peak = traced_peak(lambda: classical_semigroup_algebra(group_table(100)))
    assert sg.comultiplication.matrix.nbytes == 16_000_000
    assert peak <= 1.1 * 16_000_000, peak
    family, peak = traced_peak(lambda: classical_family(group_table(100)))
    assert peak <= 1.1 * 16_000_000, peak


@pytest.mark.parametrize("check", ["coassociativity", "action", "qs", "factorization"])
def test_the_dense_path_peaks_within_one_slab(monkeypatch, traced_peak, check):
    """With slabs of 2^14 entries an array, at least one column, the traced
    peak of a first call through dense lifts stays under 100 bytes a slab
    entry and 64 KiB (98.2 measured, coassociativity at order 32): for
    coassociativity of a comultiplication with no monomial form, whose
    defect has d^3 rows a column (slabs of 16,384 to 110,592 entries at
    orders 24 to 48), for the action of a Haar-rotated representation on
    M_3, 9 k^2 rows a column, and, d^2 rows a column, for the identity as
    a q-s morphism from the cyclic group into that smeared comultiplication
    and for a smeared classical family factored through the identity of
    its label (55-88 measured). One whole lift
    of coassociativity at order 48 is 16 * 48^4 bytes, 85 MB, and one of
    the q-s morphism 16 * 48^3 bytes, 1.8 MB."""
    monkeypatch.setattr(qfam.morphisms, "_DEFECT_CHUNK", 2**14)
    for order in (24, 32, 48):
        sg = classical_semigroup_algebra(group_table(order))
        rows = order**2
        if check == "coassociativity":
            smeared = _smeared(group_table(order))
            assert smeared.comultiplication.monomial is None
            value, peak = traced_peak(lambda: coassociativity_defect(smeared))
            assert abs(value - 1e-3) <= 1e-15
            rows = order**3
        elif check == "action":
            family = _rotated_representation(order)
            assert family.morphism.monomial is None
            value, peak = traced_peak(lambda: action_defect(family, sg))
            assert value <= 1e-12
            rows = 9 * order**2
        elif check == "qs":
            ident = StarMorphism(sg.algebra, sg.algebra, np.eye(order))
            target = _smeared(group_table(order))
            value, peak = traced_peak(lambda: qs_morphism_defect(ident, sg, target))
            assert abs(value - 1e-3) <= 1e-15
        else:
            family = classical_family(group_table(order))
            mat = np.array(family.morphism.matrix)
            mat[0, 1] += 1e-3
            phi = StarMorphism(family.source, family.morphism.codomain, mat)
            phi = QuantumFamily(family.source, family.source, family.label, phi)
            ident = StarMorphism(family.label, family.label, np.eye(order))
            value, peak = traced_peak(lambda: factorization_defect(phi, ident, family))
            assert abs(value - 1e-3) <= 1e-15
        slab = max(2**14, rows)
        assert peak <= 100 * slab + 2**16, (order, peak, peak / slab)


@pytest.mark.parametrize("order", range(4, 12))
@pytest.mark.parametrize(
    "check",
    [
        (lambda fam, sg: coassociativity_defect(sg), classical_family, 0.0),
        (action_defect, classical_family, 0.0),
        (action_defect, lambda table: _rotated_representation(len(table)), 1e-12),
        (action_defect, lambda table: _rotated_representation(len(table), haar=False), 1e-12),
    ],
    ids=["coassociativity", "action", "rotated-action", "phase-action"],
)
def test_lift_cap_counts_a_first_calls_peak(monkeypatch, traced_peak, check, order):
    """With the cap one byte below the traced peak of a first call, with no
    index table yet built, every call runs to the same value: a dense lift,
    which the Haar-rotated and the diagonal-phase representations take,
    counts only its result, one of the arrays that peak holds, and the
    index path, which the classical group takes, counts nothing."""
    defect, family_of, bound = check
    sg = classical_semigroup_algebra(group_table(order))
    family = family_of(group_table(order))  # the group acting on itself, or M_3
    value, peak = traced_peak(lambda: defect(family, sg))
    assert value <= bound
    monkeypatch.setattr(qfam.morphisms, "LIFT_BYTES_CAP", peak - 1)
    assert traced_peak(lambda: defect(family, sg))[0] == value


@pytest.mark.parametrize("check", ["coassociativity", "action"])
def test_the_index_path_peaks_within_one_slab(monkeypatch, traced_peak, check):
    """With slabs of at most 2^14 rows, the traced peak of a first call on
    the index path, net of its input (the structure maps and their monomial
    forms), stays under 80 bytes a slab row and 64 KiB at cyclic orders 32
    to 96, while the defect grows from 32^3 = 32,768 to 96^3 = 884,736
    rows."""
    monkeypatch.setattr(qfam.morphisms, "_DEFECT_CHUNK", 2**14)
    for order in (32, 64, 96):
        sg = classical_semigroup_algebra(group_table(order))
        family = classical_family(group_table(order))
        assert sg.comultiplication.monomial is not None
        assert family.morphism.monomial is not None
        if check == "coassociativity":
            value, peak = traced_peak(lambda: coassociativity_defect(sg))
        else:
            value, peak = traced_peak(lambda: action_defect(family, sg))
        assert value == 0.0
        assert peak <= 80 * 2**14 + 2**16, (order, peak)


@pytest.mark.parametrize("order", [11, 40])
def test_a_first_calls_peak_is_that_of_a_fresh_interpreter(traced_peak, order):
    """The in-process peak of a first call after forget_index_tables stays
    within 16 KiB, an allowance for Python objects, of the peak of the
    same call in a fresh interpreter, at cyclic orders 11 and 40: the index
    path builds no algebra that the reset would have to drop."""
    script = (
        "import tracemalloc\n"
        "from qfam import classical_semigroup_algebra, coassociativity_defect, group_table\n"
        f"sg = classical_semigroup_algebra(group_table({order}))\n"
        "tracemalloc.start()\n"
        "assert coassociativity_defect(sg) == 0.0\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(qfam.__file__).parents[1]))
    fresh = int(
        subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
    )
    # every table built and cached before the reset, as by earlier tests
    coassociativity_defect(classical_semigroup_algebra(group_table(order)))
    sg = classical_semigroup_algebra(group_table(order))
    value, peak = traced_peak(lambda: coassociativity_defect(sg))
    assert value == 0.0
    assert abs(fresh - peak) <= 2**14, (fresh, peak)


def test_coassociativity_of_order_40_fits_the_default_cap(tmp_path, capsys):
    """Order 40 takes the index path, whose forms hold 24 * 40^3 bytes
    (1.5 MiB) each; a dense Kronecker lift would take 16 * 40^5 bytes
    (1.6 GiB), over the cap."""
    doc = tmp_path / "cyclic-40.json"
    save_document(classical_semigroup_algebra(group_table(40)), doc)
    assert main(["check-coassoc", "--format", "structured", str(doc)]) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["name"] == "coassociativity"
    assert check["defect"] == 0.0


def test_coassociativity_of_order_90_fits_the_default_cap(tmp_path, capsys):
    """Order 90 takes the index path, in slabs of whole leading rows; dense
    lifts would count 48 * 90^4 bytes (2.9 GiB), over the cap."""
    doc = tmp_path / "cyclic-90.json"
    table = [[v + 1 for v in row] for row in group_table(90)]
    doc.write_text(json.dumps({"kind": "semigroup", "classical_table": table}))
    assert main(["check-coassoc", "--format", "structured", str(doc)]) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["name"] == "coassociativity"
    assert check["defect"] == 0.0
