"""Unital *-homomorphisms: verification, composition, tensors, characters."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfam import (
    Character,
    InvalidCharacterError,
    InvalidMatrixError,
    NotAHomomorphismError,
    QuantumFamily,
    QuantumSemigroup,
    ResourceLimitError,
    characters_of,
    classical_family,
    classical_semigroup_algebra,
    coassociativity_defect,
    commutation_defect,
    compose_families,
    compose_morphisms,
    counit_defect,
    enumerate_set_map_tables,
    enumerate_set_maps,
    factorization_defect,
    flip,
    functions_algebra,
    group_table,
    invariance_defects,
    lift,
    make_algebra,
    require_star_hom,
    scalar_algebra,
    set_map_morphism,
    tensor_layout,
    tensor_morphisms,
    trace_state,
)
from qfam import morphisms
from qfam.algebra import max_image_defect, multiply
from qfam.morphisms import StarMorphism
from qfam.suites import haar_unitary, random_unital_hom


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
    assert StarMorphism(alg, alg, np.eye(alg.dim)).is_star_hom()
    phi = set_map_morphism([1, 0])
    ident = StarMorphism(phi.codomain, phi.codomain, np.eye(phi.codomain.dim))
    same = compose_morphisms(ident, phi)
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
    prod = tensor_morphisms(
        StarMorphism(a, a, np.eye(a.dim)), StarMorphism(b, b, np.eye(b.dim))
    )
    assert np.array_equal(prod.matrix, np.eye(a.dim * b.dim))


block_dims = st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(st.lists(block_dims, min_size=4, max_size=4), st.integers(0, 3), st.integers(0))
def test_lift_matches_dense_kronecker(dims, ncols, seed):
    """lift(phi, psi, c) equals the dense Kronecker matrix of phi (x) psi,
    placed through the pair indices, times c, also lifted one column a slab."""
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
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(morphisms, "_DEFECT_CHUNK", 1)
        assert np.allclose(lift(phi, psi, columns), dense @ columns, rtol=0, atol=1e-12)
    with pytest.raises(InvalidMatrixError):
        lift(phi, psi, columns[1:])


@settings(max_examples=40, deadline=None)
@given(st.lists(block_dims, min_size=3, max_size=3), st.integers(0, 3), st.integers(0))
def test_lift_with_an_algebra_factor_is_the_identity(dims, ncols, seed):
    """An algebra in place of either factor of lift acts as its identity
    morphism."""
    rng = np.random.default_rng(seed)
    a, b, c = (make_algebra(d) for d in dims)
    phi = StarMorphism(a, b, rng.standard_normal((b.dim, a.dim, 2)) @ [1, 1j])
    ident = StarMorphism(c, c, np.eye(c.dim))
    # a (x) c and c (x) a have the same dimension
    columns = rng.standard_normal((a.dim * c.dim, ncols, 2)) @ [1, 1j]
    assert np.array_equal(lift(phi, c, columns), lift(phi, ident, columns))
    assert np.array_equal(lift(c, phi, columns), lift(ident, phi, columns))
    assert np.array_equal(lift(a, c, columns), columns)


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


def _defects_part_by_part(phi):
    """The three hom defects as separate max_image_defect calls, with the
    mult columns phi(e_i) phi(e_j) - phi(e_i e_j) from one broadcast
    multiply (rows of padded: phi(e_i), then 0 for the zero products)."""
    dom, cod, mat = phi.domain, phi.codomain, phi.matrix
    unit = mat @ dom.identity().to_vec() - cod.identity().to_vec()
    star = mat[:, dom.adjoint_permutation] - mat[cod.adjoint_permutation].conj()
    padded = np.concatenate([mat, np.zeros((cod.dim, 1))], axis=1).T
    images = padded[:-1]
    prod = multiply(cod, images[:, None, :], images)
    mult = (prod - padded[dom.multiplication_table]).reshape(-1, cod.dim).T
    return {
        "mult_defect": max_image_defect(cod, mult),
        "star_defect": max_image_defect(cod, star),
        "unit_defect": max_image_defect(cod, unit),
    }


hom_dims = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3)
noise_scales = st.sampled_from([0.0, 1e-6, 1.0, 1e3])


@settings(max_examples=100, deadline=None)
@given(
    hom_dims,
    hom_dims,
    st.integers(0),
    st.booleans(),
    st.booleans(),
    noise_scales,
    noise_scales,
    st.booleans(),
)
def test_the_defect_report_is_each_part_on_its_own(
    dom_dims, cod_dims, seed, unital, twisted, on_diagonal, off_diagonal, chunked
):
    """The one norm call of _defect_report, each part pruned at its own
    largest |entry|, gives every defect bit for bit as max_image_defect of
    that part alone, also when the mult part is split over several chunks.

    The maps are a *-homomorphism, unital or not (one codomain block left
    out), optionally twisted by x -> S x S^-1 with S not unitary (still
    multiplicative, no longer *-preserving), plus noise scaled separately on
    the images of the diagonal and the off-diagonal matrix units, so any one
    part can be the largest."""
    rng = np.random.default_rng(seed)
    dom, cod = make_algebra([1] + dom_dims), make_algebra(cod_dims)
    mat = random_unital_hom(rng, dom, cod).matrix.copy()
    if not unital:
        off, n = cod.block_slices()[int(rng.integers(len(cod_dims)))]
        mat[off : off + n * n] = 0
    if twisted:  # vec(S x S^-1) = (S (x) S^-T) vec(x), row-major
        for off, n in cod.block_slices():
            twist = np.eye(n) + 0.5 * rng.standard_normal((n, n))
            rows = slice(off, off + n * n)
            mat[rows] = np.kron(twist, np.linalg.inv(twist).T) @ mat[rows]
    labels = dom.basis_labels
    scale = np.where(labels[:, 1] == labels[:, 2], on_diagonal, off_diagonal)
    mat += scale * (rng.standard_normal((cod.dim, dom.dim, 2)) @ [1, 1j])
    phi = StarMorphism(dom, cod, mat)
    expect = _defects_part_by_part(phi)
    with pytest.MonkeyPatch.context() as patch:
        if chunked:  # one or two domain rows a chunk
            patch.setattr(morphisms, "_DEFECT_CHUNK", int(rng.integers(1, 3)) * dom.dim * cod.dim)
        assert morphisms._defect_report([phi]) == [expect]


def test_a_non_unital_projection_fails_only_the_unit_law():
    """x -> (x, 0) from M_2 into M_2 + C is multiplicative and preserves
    adjoints, but sends 1 to (1, 0): unit defect 1, the others 0."""
    dom, cod = make_algebra([2]), make_algebra([2, 1])
    mat = np.zeros((cod.dim, dom.dim))
    mat[: dom.dim] = np.eye(dom.dim)
    phi = StarMorphism(dom, cod, mat)
    expect = {"mult_defect": 0.0, "star_defect": 0.0, "unit_defect": 1.0}
    assert phi.defect_report == expect == _defects_part_by_part(phi)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(morphisms, "_DEFECT_CHUNK", 1)
        assert morphisms._defect_report([phi]) == [expect]


def _exact(reports):
    """The reports with each defect as its repr: equal means equal bit for
    bit for finite values, and NaN equals NaN."""
    return [{k: repr(v) for k, v in report.items()} for report in reports]


def _stack_member(rng, dom, cod, kind):
    """A map from dom into cod: a random unital *-homomorphism, or one
    broken as kind says (noise at scale 1e3, a NaN or an infinite entry,
    one codomain block zeroed so the map is not unital, or each block
    twisted by x -> S x S^-1 with S not unitary, which keeps it
    multiplicative but not *-preserving)."""
    mat = random_unital_hom(rng, dom, cod).matrix.copy()
    if kind == "noisy":
        mat += 1e3 * (rng.standard_normal((cod.dim, dom.dim, 2)) @ [1, 1j])
    elif kind in ("nan", "inf"):
        mat[rng.integers(cod.dim), rng.integers(dom.dim)] = np.nan if kind == "nan" else np.inf
    elif kind == "non-unital":
        off, n = cod.block_slices()[int(rng.integers(len(cod.block_dims)))]
        mat[off : off + n * n] = 0
    elif kind == "twisted":  # vec(S x S^-1) = (S (x) S^-T) vec(x), row-major
        for off, n in cod.block_slices():
            twist = np.eye(n) + 0.5 * rng.standard_normal((n, n))
            rows = slice(off, off + n * n)
            mat[rows] = np.kron(twist, np.linalg.inv(twist).T) @ mat[rows]
    return StarMorphism(dom, cod, mat)


stack_kinds = st.sampled_from(["hom", "noisy", "nan", "inf", "non-unital", "twisted"])


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.tuples(hom_dims, hom_dims, stack_kinds), min_size=1, max_size=6),
    st.integers(0),
    st.sampled_from([None, 1, 40, 300]),
)
@example([([2], [2], "hom"), ([2], [2], "noisy")], 0, 2 * 5 * 4)  # rows 0-1, 2-3, 4
@example([([1], [2, 1], "hom"), ([2], [2, 2], "twisted"), ([1], [3], "inf")], 1, None)
def test_a_stacked_defect_report_is_each_maps_own(members, seed, chunk):
    """_defect_report over maps of different domains and codomains, whose
    block components it stacks by (domain, block size), gives each map the
    report it gets alone and the part-by-part reference, bit for bit: a
    noisy, twisted, NaN, inf or non-unital member does not move its
    neighbours' defects or pruning, also when the mult part is chunked at
    one (component, row) pair, or at 40 or 300 entries, several whole
    components a chunk."""
    rng = np.random.default_rng(seed)
    stack = [
        _stack_member(rng, make_algebra([1] + dom), make_algebra(cod), kind)
        for dom, cod, kind in members
    ]
    alone = _exact(morphisms._defect_report([phi])[0] for phi in stack)
    with np.errstate(over="ignore", invalid="ignore"):  # the inf members
        assert alone == _exact(_defects_part_by_part(phi) for phi in stack)
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(morphisms, "_DEFECT_CHUNK", chunk)
        assert _exact(morphisms._defect_report(stack)) == alone


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=8), st.integers(0))
def test_the_batch_verifier_raises_for_the_map_one_by_one_would(members, seed):
    """require_star_homs over maps of two (domain, codomain) pairs,
    interleaved, raises NotAHomomorphismError for the first failing map in
    input order, as require_star_hom map by map does; when all pass it
    returns the maps with each report cached as the map's own."""
    rng = np.random.default_rng(seed)
    pairs = [(make_algebra([1, 2]), make_algebra([3])), (make_algebra([1]), make_algebra([1, 2]))]
    mats = []
    for k, (second, broken) in enumerate(members):
        dom, cod = pairs[second]
        mat = random_unital_hom(rng, dom, cod).matrix
        mats.append((dom, cod, mat * (1 + 0.1 * (k + 1)) if broken else mat))
    expected = None
    for dom, cod, mat in mats:
        try:
            require_star_hom(StarMorphism(dom, cod, mat))
        except NotAHomomorphismError as exc:
            expected = str(exc)
            break
    maps = [StarMorphism(dom, cod, mat) for dom, cod, mat in mats]
    if expected is None:
        assert morphisms.require_star_homs(maps) is maps
        reports = [phi.__dict__["defect_report"] for phi in maps]
        assert _exact(reports) == _exact(morphisms._defect_report([phi])[0] for phi in maps)
    else:
        with pytest.raises(NotAHomomorphismError) as raised:
            morphisms.require_star_homs(maps)
        assert str(raised.value) == expected


def _kron_placement_hom(rng, domain, codomain):
    """random_unital_hom as (u (x) conj u) times a 0/1 placement matrix,
    drawing the same random numbers: the reference for its tiles."""
    dims = domain.block_dims
    fills = []
    for m in codomain.block_dims:
        rem, fill = m, []
        while rem > 0:
            options = [k for k, n in enumerate(dims) if n <= rem]
            k = options[int(rng.integers(0, len(options)))]
            fill.append(k)
            rem -= dims[k]
        fills.append(fill)
    unitaries = [haar_unitary(rng, m) for m in codomain.block_dims]
    slices = domain.block_slices()
    mat = np.empty((codomain.dim, domain.dim), dtype=complex)
    for (row, m), fill, u in zip(codomain.block_slices(), fills, unitaries):
        place = np.zeros((m * m, domain.dim))
        pos = 0
        for k in fill:
            off, n = slices[k]
            r, s = np.divmod(np.arange(n * n), n)
            place[(pos + r) * m + pos + s, off + np.arange(n * n)] = 1.0
            pos += n
        mat[row : row + m * m] = np.kron(u, u.conj()) @ place
    return mat


@settings(max_examples=60, deadline=None)
@given(
    hom_dims,
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3),
    st.integers(0),
)
def test_random_unital_hom_matches_the_kronecker_placement(dom_dims, cod_dims, seed):
    """The tiles of random_unital_hom equal (u (x) conj u) times the 0/1
    placement within 1e-15, and both leave the generator in the same state."""
    dom, cod = make_algebra([1] + dom_dims), make_algebra(cod_dims)
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    got = random_unital_hom(fast, dom, cod).matrix
    assert np.abs(got - _kron_placement_hom(slow, dom, cod)).max() <= 1e-15
    assert fast.bit_generator.state == slow.bit_generator.state


def _inf_entry(phi):
    """phi with its entry (0, 0) infinite."""
    mat = np.array(phi.matrix)
    mat[0, 0] = np.inf
    return StarMorphism(phi.domain, phi.codomain, mat)


def _inf_checks():
    sg = classical_semigroup_algebra(group_table(3))
    bad_sg = QuantumSemigroup(sg.algebra, _inf_entry(sg.comultiplication), sg.counit)
    fam = classical_family([[1, 2, 0], [0, 0, 1]])
    bad = QuantumFamily(fam.source, fam.source, fam.label, _inf_entry(fam.morphism))
    same_label = StarMorphism(fam.label, fam.label, np.eye(fam.label.dim))
    # on one point each side of the law is inf, so their difference is inf - inf
    point = classical_family([[0]])
    point = QuantumFamily(point.source, point.source, point.label, _inf_entry(point.morphism))
    one = classical_semigroup_algebra([[0]])
    one = QuantumSemigroup(one.algebra, _inf_entry(one.comultiplication))
    return {
        "coassociativity": lambda: coassociativity_defect(bad_sg),
        "counit": lambda: counit_defect(bad_sg),
        "invariance": lambda: invariance_defects(bad, trace_state(fam.source)).generators,
        "commutation": lambda: commutation_defect(bad, fam),
        "commutation-inf-inf": lambda: commutation_defect(point, point),
        "coassociativity-inf-inf": lambda: coassociativity_defect(one),
        "composition": lambda: compose_families(fam, bad).morphism.matrix,
        "factorization": lambda: factorization_defect(bad, same_label, fam),
    }


@pytest.mark.parametrize("check", list(_inf_checks()))
def test_an_infinite_entry_reads_nan_not_a_warning(check):
    """A dense lift of a map with one infinite entry multiplies inf by 0,
    and a difference of two such lifts may subtract inf from inf: each
    check reads NaN, and raises no RuntimeWarning, which the test
    configuration turns into an error."""
    assert np.isnan(_inf_checks()[check]()).any()
