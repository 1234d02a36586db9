"""Families of maps with a tensor label: composition, invariance, evaluation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    enumerate_set_map_tables,
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
    run_suite,
    save_document,
    scalar_algebra,
    set_map_morphism,
    sign_conjugation_family,
    tensor_layout,
    trace_state,
    trivial_family,
    wang_family,
)
import qfam
from qfam import cli, families, morphisms, suites
from qfam.algebra import max_image_defect
from qfam.morphisms import StarMorphism, _defect_report, flip, lift, swap_index
from qfam.representations import magic_unitary_check
from qfam.suites import (
    _per_shape,
    build_families,
    build_magic_unitaries,
    build_partitions,
    conjugation_families,
    conjugation_family,
    draw_family,
    draw_magic_unitary,
    draw_partition,
    haar_unitaries,
    haar_unitary,
    random_algebra,
    random_family,
    random_faithful_state,
    random_label,
    random_partition,
    random_source_algebra,
    run_all,
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


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_the_label_swap_is_the_dense_flip(seed):
    """commutation_defect reads the two orders from the action coefficients;
    on random families its defect is, within rounding (1e-13), the one of
    the two composed families with the dense flip applied through lift.
    swap_index sends x (x) y to y (x) x, and flip is its 0/1 matrix."""
    rng = np.random.default_rng(seed)
    source = random_source_algebra(rng)
    first, second = (random_family(rng, source, source, random_label(rng)) for _ in range(2))
    a1, a2 = first.label, second.label
    x, y = (AlgebraElement(a, rng.standard_normal(a.dim)) for a in (a1, a2))
    swapped = tensor_layout(a1, a2).elem(x, y).to_vec()[swap_index(a1, a2)]
    assert np.array_equal(swapped, tensor_layout(a2, a1).elem(y, x).to_vec())
    swap = flip(a1, a2)
    assert np.array_equal(swap.matrix, np.eye(swap.matrix.shape[0])[swap_index(a1, a2)])
    left = compose_families(first, second)
    right = compose_families(second, first)
    dense = lift(source, swap, left.morphism.matrix) - right.morphism.matrix
    expected = max_image_defect(right.morphism.codomain, dense)
    assert abs(commutation_defect(first, second) - expected) <= 1e-13


_LABELS = st.sampled_from([(1,), (1, 1), (1, 1, 1), (2,)])


@settings(max_examples=40, deadline=None)
@given(_LABELS, _LABELS, st.integers(min_value=0, max_value=2**32 - 1))
def test_commutation_is_exact_with_the_trivial_family_and_symmetric(dims, other, seed):
    """Over random families with commutative and M_2 labels, the trivial
    family commutes with a random one exactly, 0.0 in both orders, as the
    suite's trivial-commutes bound of 0.0 requires; and the defect of two
    random families does not depend on their order beyond rounding."""
    rng = np.random.default_rng(seed)
    source = random_source_algebra(rng)
    fam = random_family(rng, source, source, make_algebra(dims))
    triv = trivial_family(source, make_algebra(other))
    assert commutation_defect(fam, triv) == 0.0
    assert commutation_defect(triv, fam) == 0.0
    second = random_family(rng, source, source, make_algebra(other))
    assert abs(commutation_defect(fam, second) - commutation_defect(second, fam)) <= 1e-13


@pytest.mark.parametrize("points, cap", [(40, 2**20), (200, 16 * 2**20)])
def test_the_label_swap_builds_no_dense_matrix(traced_peak, points, cap):
    """Commuting the family of the constant maps of one point, labelled by
    `points` maps, with itself swaps labels of points^2 coordinates: a
    dense flip alone would hold 16 points^4 bytes (41 MB at 40 points), the
    gather a few index arrays of points^2 entries."""
    family = classical_family([[0]] * points)
    value, peak = traced_peak(lambda: commutation_defect(family, family))
    assert value == 0.0
    assert peak <= cap, peak


def test_no_check_builds_the_dense_flip(monkeypatch, tmp_path):
    """The commutant suite and check-commute run with flip unavailable in
    every module of the package."""

    def refuse(*args):
        raise AssertionError("flip called")

    for module in (qfam, morphisms, families, suites, cli):
        monkeypatch.setattr(module, "flip", refuse, raising=False)
    assert all(o.passed for o in run_suite("commutant-closure"))
    doc = tmp_path / "family.json"
    save_document(all_maps_family(2), doc)
    assert cli.main(["check-commute", str(doc), str(doc)]) == 1


def test_commutation_requires_shared_source():
    with pytest.raises(IncompatibleAlgebraError):
        commutation_defect(all_maps_family(2), all_maps_family(3))


def _scalar_labelled(phi):
    """The one-member family of a single map, labelled by the scalars."""
    return make_family(phi.domain, phi.codomain, scalar_algebra(), phi.matrix)


def test_factorization_certificate():
    fam = all_maps_family(2)
    chars = characters_of(fam.label)
    chi_id = chars[1]  # the identity lookup table
    single = _scalar_labelled(evaluate_at_character(fam, chi_id))
    assert factorization_defect(fam, chi_id, single) <= 1e-12
    # the wrong connecting character does not certify
    assert factorization_defect(fam, chars[0], single) > 0.4


def _label_pullback(index, count):
    """The pullback, from functions on count points to functions on
    len(index) points, of the label map t -> index[t]."""
    mat = np.zeros((len(index), count))
    mat[np.arange(len(index)), index] = 1.0
    return StarMorphism(functions_algebra(count), functions_algebra(len(index)), mat)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_classical_family_factors_through_all_maps(n, seed):
    """The paper's universal property on classical families: a list of k <= 4
    self-maps of n points factors through all_maps_family(n) along the
    pullback of t -> (index of table t among all n^n tables), with defect
    exactly 0. Sending one label to a different table gives exactly 1."""
    rng = np.random.default_rng(seed)
    everything = enumerate_set_map_tables(n)
    count = int(rng.integers(1, 5))
    tables = [tuple(t) for t in rng.integers(0, n, size=(count, n)).tolist()]
    index = [everything.index(t) for t in tables]
    phi, psi = all_maps_family(n), classical_family(tables)
    assert factorization_defect(phi, _label_pullback(index, len(everything)), psi) == 0.0
    if n > 1:
        t = int(rng.integers(count))
        index[t] = (index[t] + int(rng.integers(1, len(everything)))) % len(everything)
        lam = _label_pullback(index, len(everything))
        assert factorization_defect(phi, lam, psi) == 1.0


def test_factorization_checks_shapes():
    fam = all_maps_family(2)
    other = all_maps_family(3)
    single = _scalar_labelled(set_map_morphism([0, 1, 2]))
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


def test_the_hom_and_invariance_checks_create_no_element(monkeypatch):
    """_defect_report and invariance_defects read the unit as the algebra's
    cached coordinate vector, so neither builds an AlgebraElement."""
    fam = classical_family([(1, 0, 2), (2, 0, 1)])
    omega = trace_state(fam.source)
    made = []
    init = AlgebraElement.__init__

    def counted(self, *args):
        made.append(type(self))
        init(self, *args)

    monkeypatch.setattr(AlgebraElement, "__init__", counted)
    assert max(_defect_report([fam.morphism])[0].values()) == 0.0
    assert invariance_defects(fam, omega).defect == 0.0
    assert made == []


def _ginibre(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _one_qr_haar(ginibre):
    """The Haar unitary of one Ginibre matrix: its own QR, phases fixed."""
    q, r = np.linalg.qr(ginibre)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 6), st.integers(0))
def test_the_stacked_haar_build_is_one_qr_per_draw(n, count, seed):
    """haar_unitaries over a stack of Ginibre matrices equals, bit for bit,
    one QR per matrix and one haar_unitary per draw of the same generator."""
    stacked, single = np.random.default_rng(seed), np.random.default_rng(seed)
    ginibres = np.array([_ginibre(stacked, n) for _ in range(count)])
    built = haar_unitaries(ginibres)
    assert built.tobytes() == np.array([_one_qr_haar(g) for g in ginibres]).tobytes()
    assert built.tobytes() == np.array([haar_unitary(single, n) for _ in range(count)]).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0), st.integers(1, 12))
def test_the_batch_family_builder_is_consecutive_random_family_calls(seed, count):
    """build_families over draws taken in a row gives the families that as
    many random_family calls give from the same generator state: the same
    algebras, matrices and defect reports, and the same next draw. It
    checks them all by one _defect_report call."""
    batch, single = np.random.default_rng(seed), np.random.default_rng(seed)
    draws, expected = [], []
    for _ in range(count):
        src = random_source_algebra(batch)
        draws.append(draw_family(batch, src, random_algebra(batch), random_label(batch)))
        src = random_source_algebra(single)
        expected.append(random_family(single, src, random_algebra(single), random_label(single)))
    stacks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            morphisms, "_defect_report", lambda maps: stacks.append(maps) or _defect_report(maps)
        )
        built = build_families(draws)
    assert [len(s) for s in stacks] == [count]
    for got, want in zip(built, expected, strict=True):
        assert (got.source, got.target_factor, got.label) == (
            want.source,
            want.target_factor,
            want.label,
        )
        assert got.morphism.matrix.tobytes() == want.morphism.matrix.tobytes()
        assert got.morphism.defect_report == want.morphism.defect_report
    assert batch.random() == single.random()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=12), st.integers(0))
def test_one_svd_per_shape_gives_each_matrix_norm(shapes, seed):
    """_per_shape reads a stacked SVD back per matrix in input order, so the
    operand norms of compose-associativity, one SVD call per shape, equal
    np.linalg.norm(m, 2) of each matrix bit for bit."""
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for shape in shapes]
    got = _per_shape(lambda stack: np.linalg.svd(stack, compute_uv=False).max(axis=1), mats)
    assert np.array(got).tobytes() == np.array([np.linalg.norm(m, 2) for m in mats]).tobytes()


def _one_at_a_time_partition(rng, d, parts):
    """A random partition of unity as (parts, d * d) coordinates, drawn and
    built one at a time: its own QR, then the owner draws, then the
    permutation; the reference for the draw-first builders."""
    w = _one_qr_haar(_ginibre(rng, d))
    owner = list(range(parts)) + [int(rng.integers(0, parts)) for _ in range(d - parts)]
    owner = [owner[i] for i in rng.permutation(d)]
    cols = [w[:, [i for i in range(d) if owner[i] == g]] for g in range(parts)]
    return np.array([(c @ c.conj().T).ravel() for c in cols])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=12), st.integers(0))
def test_the_draw_first_partitions_are_the_one_at_a_time_ones(sizes, seed):
    """build_partitions over draws taken in a row, one QR per size, gives
    the projections that one-at-a-time draws and builds give from the same
    generator state, bit for bit, and the same next draw; random_partition
    is its one-item wrapper."""
    batch, single, wrapped = (np.random.default_rng(seed) for _ in range(3))
    draws, expected, elements = [], [], []
    for d in sizes:
        parts = 1 + d // 2
        draws.append(draw_partition(batch, d, parts))
        expected.append(_one_at_a_time_partition(single, d, parts))
        elements.append(np.array([q.to_vec() for q in random_partition(wrapped, d, parts)]))
    built = build_partitions(draws)
    for got, one, want in zip(built, elements, expected, strict=True):
        assert got.tobytes() == one.tobytes() == want.tobytes()
    assert batch.random() == single.random() == wrapped.random()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 5), st.integers(0))
def test_the_draw_first_magic_unitaries_are_the_one_at_a_time_ones(count, n, seed):
    """build_magic_unitaries over draws taken in a row gives the grids that
    one-at-a-time builds give from the same generator state, bit for bit:
    entry (i, j) sums the projections of a t-part partition whose
    permutation sends j to i. The next draw is the same too."""
    batch, single = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = [draw_magic_unitary(batch, n) for _ in range(count)]
    for got in build_magic_unitaries(draws):
        t = int(single.integers(2, 5))
        coords = _one_at_a_time_partition(single, t, t)
        perms = [single.permutation(n) for _ in range(t)]
        want = np.einsum("kij,kd->ijd", np.array(perms)[:, None, :] == np.arange(n)[:, None], coords)
        assert got.algebra is make_algebra([t]) and got.entries.tobytes() == want.tobytes()
        assert magic_unitary_check(got).passed
    assert batch.random() == single.random()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 3)), min_size=1, max_size=8), st.integers(0))
def test_the_conjugation_builder_checks_its_families_in_one_call(shapes, seed):
    """conjugation_families gives, list by list, the family and defect
    report conjugation_family gives, bit for bit, and verifies them all by
    one _defect_report call."""
    rng = np.random.default_rng(seed)
    lists = [[haar_unitary(rng, n) for _ in range(count)] for n, count in shapes]
    stacks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            morphisms, "_defect_report", lambda maps: stacks.append(maps) or _defect_report(maps)
        )
        built = conjugation_families(lists)
    assert [len(s) for s in stacks] == [len(lists)]
    for got, unitaries in zip(built, lists, strict=True):
        want = conjugation_family(unitaries)
        assert (got.source, got.target_factor, got.label) == (
            want.source,
            want.target_factor,
            want.label,
        )
        assert got.morphism.matrix.tobytes() == want.morphism.matrix.tobytes()
        assert repr(got.morphism.defect_report) == repr(want.morphism.defect_report)


def test_a_suite_run_checks_its_maps_and_builds_its_unitaries_in_stacks(monkeypatch):
    """run_all(seed=1) verifies its 743 maps in at most 10 _defect_report
    calls (one per build) and builds its Haar unitaries with at most 20
    QR calls (one per size and build)."""
    checks, qrs = [], []
    qr = np.linalg.qr
    monkeypatch.setattr(
        morphisms, "_defect_report", lambda maps: checks.append(len(maps)) or _defect_report(maps)
    )
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args: qrs.append(len(a)) or qr(a, *args))
    run_all(seed=1)
    assert sum(checks) == 743 and len(checks) <= 10
    assert len(qrs) <= 20
