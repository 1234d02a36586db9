"""Magic unitaries, representation grids, action matrices, modular checks."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfam.morphisms
from qfam import (
    DEFAULT_TOL,
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
    action_coefficients,
    action_matrix,
    all_maps_family,
    characters_of,
    classical_semigroup_algebra,
    conjugation_family,
    evaluate_at_character,
    functions_algebra,
    group_table,
    magic_unitary_check,
    make_algebra,
    make_family,
    matrix_isometry_defect,
    max_image_defect,
    modular_report,
    multiply,
    nonclassical_magic_4x4,
    permutation_magic_unitary,
    podles_rank,
    projection_family_check,
    representation_defect,
    save_document,
    scalar_algebra,
    set_map_morphism,
    sigma_map,
    sign_conjugation_family,
    tensor_layout,
    trace_state,
    trivial_family,
    wang_family,
)
from qfam.cli import main
from qfam.suites import haar_unitary, random_faithful_state, random_magic_unitary, random_partition


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
        partition = random_partition(rng, d, parts)
        sum_defect, ortho_defect = projection_family_check(
            partition[0].algebra, np.array([p.to_vec() for p in partition])
        )
        assert sum_defect <= 1e-12
        assert ortho_defect <= 1e-9


def test_overlapping_projections_detected():
    alg = make_algebra([2])
    p = alg.element([np.diag([1.0, 0.0])]).to_vec()
    sum_defect, ortho_defect = projection_family_check(alg, np.array([p, p]))
    assert sum_defect >= 1.0
    assert ortho_defect >= 1.0


def test_a_stack_of_partitions_reports_its_worst():
    """An (..., k, dim) stack is checked as a whole: its defects are the
    worst of those of its lists, bit for bit, and one overlapping list
    anywhere in the stack shows."""
    rng = np.random.default_rng(5)
    alg = make_algebra([3])
    lists = [np.array([p.to_vec() for p in random_partition(rng, 3, 2)]) for _ in range(6)]
    one_by_one = [projection_family_check(alg, p) for p in lists]
    stack = np.array(lists).reshape(2, 3, 2, alg.dim)
    assert projection_family_check(alg, stack) == tuple(
        max(pair[k] for pair in one_by_one) for k in (0, 1)
    )
    stack[1, 2, 1] = stack[1, 2, 0]
    sum_defect, ortho_defect = projection_family_check(alg, stack)
    assert sum_defect >= 0.5 and ortho_defect >= 0.5
    for shape in ((2, 0, alg.dim), (2, 4), (alg.dim,)):
        with pytest.raises(InvalidMatrixError):
            projection_family_check(alg, np.zeros(shape))


def _cycle_grid(n):
    return permutation_magic_unitary(list(range(1, n)) + [0])


def _translation_grid(n):
    entries = np.zeros((n, n, n))
    k, l = np.indices((n, n))
    entries[k, l, (k - l) % n] = 1.0
    return MagicUnitary(functions_algebra(n), entries)


def _all_pairs_commutator(u):
    """The largest entry commutator over every pair of entries at once."""
    alg, flat = u.algebra, u.entries.reshape(-1, u.algebra.dim)
    a, b = np.triu_indices(len(flat), 1)
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow grid
        comm = multiply(alg, flat[a], flat[b]) - multiply(alg, flat[b], flat[a])
    return max_image_defect(alg, comm.T)


def _nan_grid(n):
    """A 4 x 4 non-classical grid with entry (n // 4, n % 4) made NaN in its
    first coordinate: every commutator with it, and so one in the first
    block, is NaN."""
    u = nonclassical_magic_4x4(0.3)
    entries = np.array(u.entries)
    entries[n // 4, n % 4, 0] = np.nan
    return MagicUnitary(u.algebra, entries)


def _overflow_grid():
    """A 2 x 2 scalar grid whose only NaN commutator is that of its last two
    entries: 1e200 * 1e200 overflows, and inf - inf is NaN."""
    return MagicUnitary(scalar_algebra(), np.array([[[1.0], [0.0]], [[1e200], [1e200]]]))


@pytest.mark.parametrize("per_block", [None, 1, 2, 3])
@pytest.mark.parametrize(
    "grid",
    [
        lambda: permutation_magic_unitary([0]),
        lambda: nonclassical_magic_4x4(0.3),
        lambda: _cycle_grid(5),
        lambda: _nan_grid(0),
        lambda: _nan_grid(11),
        _overflow_grid,
    ],
    ids=["one-entry", "non-classical", "cycle-5", "nan-first", "nan-late", "overflow"],
)
def test_blocked_commutators_match_all_pairs(monkeypatch, grid, per_block):
    """The largest entry commutator, taken in blocks of entries against
    every later entry, equals by repr the maximum over all pairs at once:
    with the default chunk (one block) and with blocks of 1, 2 or 3
    entries, for one entry, a non-classical grid over M_2, a permutation
    grid, a NaN entry early or late, and a NaN commutator in the last block
    only, which a maximum that drops the last block or lets a later NaN
    lose to an earlier number misses."""
    u = grid()
    expected = _all_pairs_commutator(u)
    if per_block is not None:
        chunk = per_block * u.size**2 * u.algebra.dim
        monkeypatch.setattr(qfam.morphisms, "_DEFECT_CHUNK", chunk)
    with np.errstate(over="ignore", invalid="ignore"):  # the overflow grid
        assert repr(magic_unitary_check(u).max_commutator) == repr(expected)


def test_the_largest_commutator_takes_each_pair_in_one_orientation():
    """The SVD of -M can differ from that of M in the last bit, so a block
    that also took a pair reversed, as [later, earlier], could move the
    maximum by one ulp; on seeded random magic unitaries over M_3 and M_4
    the blocked maximum equals the all-pairs one by repr."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = random_magic_unitary(rng, int(rng.integers(3, 6)))
        assert repr(magic_unitary_check(u).max_commutator) == repr(_all_pairs_commutator(u))


def test_largest_admitted_magic_grid_peaks_within_the_cap(monkeypatch, traced_peak):
    """With the cap lowered to 1 MiB and blocks of 2^12 coordinates, the
    magic check admits every grid, the sizes the cap used to refuse among
    them (12 x 12 permutation, 8 x 8 translation), and each peaks within
    the cap on a first call: the blocks, not the grid, bound the peak."""
    monkeypatch.setattr(qfam.morphisms, "LIFT_BYTES_CAP", 2**20)
    monkeypatch.setattr(qfam.morphisms, "_DEFECT_CHUNK", 2**12)
    for grid, sizes in ((_cycle_grid, (11, 12, 40)), (_translation_grid, (7, 8, 16))):
        for n in sizes:
            report, peak = traced_peak(lambda: magic_unitary_check(grid(n)))
            assert report.passed and report.max_commutator == 0.0
            assert peak <= 2**20, (n, peak)
    assert wang_family(_cycle_grid(12)).source.dim == 12


def test_check_magic_on_an_80_by_80_grid_peaks_under_50_mb(tmp_path, capsys, traced_peak):
    """A cyclic permutation grid of 80 x 80 entries has 20,476,800 entry
    pairs; check-magic takes their commutators in blocks of at most
    _DEFECT_CHUNK pairs and passes under 50 MB traced."""
    doc = tmp_path / "cycle-80.json"
    save_document(_cycle_grid(80), doc)
    code, peak = traced_peak(lambda: main(["check-magic", str(doc)]))
    assert code == 0
    assert "max_commutator: 0" in capsys.readouterr().out
    assert peak < 50 * 2**20, peak


@pytest.mark.parametrize("check", [modular_report, action_matrix])
def test_the_grid_sums_of_an_m10_family_hold_no_cube(traced_peak, check):
    """A 3-phase conjugation family over M_10 has a 100 x 100 grid of
    coefficients over C^3. The modular report and the action matrix sum
    products of its entries through contract, one matmul per block size,
    so a first call peaks under 10 MB; the broadcast (100, 100, 100, 3)
    products alone were 48 MB."""
    rng = np.random.default_rng(3)
    family = conjugation_family([np.diag(np.exp(2j * np.pi * rng.random(10))) for _ in range(3)])
    weights = rng.random(10) + 0.2
    alg = make_algebra([10])
    omega = LinearFunctional(alg, alg.element([np.diag(weights / weights.sum())]))
    report, peak = traced_peak(lambda: check(family, omega))
    defects = [getattr(report, name, None) for name in
               ("identity_defect", "left_invertibility_defect", "isometry_defect")]
    assert max(v for v in defects if v is not None) <= 1e-12
    assert peak < 10 * 2**20, peak


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
    """The grid with entries v[k][l] v[k'][l'], pair indices left-major, is
    again an isometric representation."""
    u = translation_magic(3)
    v = u.entries
    cells = multiply(u.algebra, v[:, None, :, None], v[None, :, None, :])
    prod = Representation(u.algebra, cells.reshape(9, 9, u.algebra.dim))
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


def test_action_matrix_coefficients_expand_over_a_non_diagonal_basis():
    """Psi(m_l) = sum_k m_k (x) a[k, l] over the omega-orthonormal basis of
    a state whose density is not diagonal, so the basis is not diagonal
    either (omega need not be invariant for the expansion); the canonical
    coefficients rebuild Psi's matrix exactly."""
    rng = np.random.default_rng(7)
    fam = conjugation_family([haar_unitary(rng, 3) for _ in range(3)])
    report = action_matrix(fam, random_faithful_state(rng, fam.source))
    layout, basis, a = fam.layout, report.basis, report.coefficients
    assert np.abs(np.triu(basis, 1)).max() > 1e-2
    d = fam.source.dim
    m = [AlgebraElement(fam.source, basis[:, k]) for k in range(d)]
    for l in range(d):
        expansion = sum(
            layout.elem(m[k], AlgebraElement(fam.label, a[k, l])).to_vec() for k in range(d)
        )
        assert np.abs(fam(m[l]).to_vec() - expansion).max() <= 1e-12, l
    canonical = action_coefficients(fam)
    assert np.array_equal(layout.combine(canonical.transpose(1, 0, 2)).T, fam.morphism.matrix)


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
    fam = make_family(source, target, scalar_algebra(), phi)
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


def _kernel_perturbed(family, omega, eps, rng):
    """A family over the scalar label with eps (R x - omega(R x) 1) added to
    Psi(x), for a complex Ginibre matrix R: omega(Psi(x)) is unchanged, so
    omega stays invariant, but Psi is no longer a *-homomorphism."""
    dim = family.morphism.matrix.shape
    ginibre = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    kernel = ginibre - np.outer(family.source.unit, omega.covector @ ginibre)
    mat = family.morphism.matrix + eps * kernel
    return QuantumFamily(
        family.source,
        family.target_factor,
        family.label,
        StarMorphism(family.source, family.morphism.codomain, mat),
    )


def _light_perturbed(family, q, eps):
    """Psi(x) + eps (q* x q)_11 q E_12 q*: an error of size eps on the
    eigenvector of weight least of the state rotated by q (_rotated_state).
    omega(q E_12 q*) = 0, so omega stays invariant."""
    e12 = np.zeros((3, 3))
    e12[0, 1] = 1.0
    light = np.outer((q @ e12 @ q.conj().T).ravel(), np.outer(q[:, 0].conj(), q[:, 0]).ravel())
    return QuantumFamily(
        family.source,
        family.target_factor,
        family.label,
        StarMorphism(family.source, family.morphism.codomain, family.morphism.matrix + eps * light),
    )


def _rotated_state(rng, least):
    """(omega, q): the state on M_3 with eigenvalues (least, 0.4, 0.6 - least)
    rotated by q, the unitary of a QR of a complex Ginibre matrix."""
    q = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
    alg = make_algebra([3])
    rho = q @ np.diag([least, 0.4, 0.6 - least]) @ q.conj().T
    return LinearFunctional(alg, alg.element([rho])), q


def _tracial_reduction(fam):
    """The conjugate isometry defect of fam over the normalized trace, after
    checking that it is n times the modular identity defect: for the trace
    on M_n, W = I / n and the exchange map is the identity. trace_state
    divides by the sum of the block sizes, so n is that sum."""
    tau = trace_state(fam.source)
    report = modular_report(fam, tau)
    assert np.max(np.abs(sigma_map(tau) - np.eye(fam.source.dim))) <= 1e-12
    conj = action_matrix(fam, tau).conjugate_isometry_defect
    assert conj is not None
    assert abs(sum(fam.source.block_dims) * report.identity_defect - conj) <= 1e-12
    return conj


def test_modular_identity_tracial_reduction():
    """For a trace the exchange matrix is the identity and the modular
    identity coincides with the conjugate isometry condition."""
    assert _tracial_reduction(sign_conjugation_family()) == 0.0


def test_modular_identity_tracial_reduction_of_a_perturbed_map():
    """A map perturbed inside ker(tau (x) id) keeps the trace invariant and
    breaks both conditions by the same amount, up to the factor n."""
    fam = trivial_family(make_algebra([3]), make_algebra([1]))
    fam = _kernel_perturbed(fam, trace_state(fam.source), 1e-4, np.random.default_rng(0))
    assert _tracial_reduction(fam) > 1e-5


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(np.log(2e-12), np.log(1e-2)))
def test_modular_identity_is_exact_on_the_trivial_family(seed, log_least):
    """Psi(x) = x (x) 1 satisfies the modular identity exactly for every
    faithful state, however small its least eigenvalue: over the canonical
    basis both defects are 0. Psi perturbed by 1e-6 inside ker(omega (x) id)
    keeps omega invariant and breaks the identity beyond DEFAULT_TOL. A
    perturbation on the least weighted eigenvector reads only about
    1e-6 * least in the identity defect, and the left-inverse defect, which
    removes the weight, catches it."""
    rng = np.random.default_rng(seed)
    omega, q = _rotated_state(rng, np.exp(log_least))
    fam = trivial_family(omega.algebra, make_algebra([1]))
    report = modular_report(fam, omega)
    assert report.identity_defect == report.left_invertibility_defect == 0.0
    assert modular_report(_kernel_perturbed(fam, omega, 1e-6, rng), omega).identity_defect > DEFAULT_TOL
    assert modular_report(_light_perturbed(fam, q, 1e-6), omega).left_invertibility_defect > DEFAULT_TOL


def test_modular_identity_of_a_rotated_phase_conjugation():
    """Conjugation by phases diagonal in the eigenbasis of a state with least
    eigenvalue 1e-10 preserves it; the identity reads rounding only."""
    rng = np.random.default_rng(5)
    omega, q = _rotated_state(rng, 1e-10)
    phases = np.exp(2j * np.pi * rng.random((2, 3)))
    fam = conjugation_family([np.eye(3)] + [q @ np.diag(p) @ q.conj().T for p in phases])
    assert modular_report(fam, omega).identity_defect <= 1e-15


def test_density_measures_run_once_per_functional(monkeypatch):
    """The measures of a functional's read-only density are computed once,
    however many hypotheses action_matrix and modular_report test."""
    prop = LinearFunctional.__dict__["_density_measures"]
    calls, measure = [], prop.func
    monkeypatch.setattr(prop, "func", lambda omega: calls.append(omega) or measure(omega))
    fam = sign_conjugation_family()
    omega = LinearFunctional(fam.source, fam.source.element([np.diag([1 / 3, 2 / 3])]))
    action_matrix(fam, omega)
    modular_report(fam, omega)
    assert calls == [omega]


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
