"""Named verification suites over a seeded, reproducible example corpus.

Each suite bundles the checks behind one headline property of the library
(composition associativity, the Wang relations, cancellation ranks, and so
on) into CheckOutcome records with explicit thresholds. Suites are
deterministic in the seed: running one twice produces bit-identical defect
values, which is what makes the reported numbers worth quoting.

The corpus builders (Haar unitaries, random faithful states, random
verified families, partition magic unitaries) are module functions so the
test-suite can reuse the exact same constructions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    FdCStarAlgebra,
    LinearFunctional,
    make_algebra,
    max_image_defect,
    sigma_map,
    tensor_layout,
    trace_state,
    within,
)
from .families import (
    QuantumFamily,
    classical_family,
    commutation_defect,
    compose_families,
    evaluate_at_character,
    fixed_point_space,
    invariance_defects,
    trivial_family,
)
from .morphisms import (
    StarMorphism,
    characters_of,
    enumerate_set_map_tables,
    enumerate_set_maps,
    functions_algebra,
    require_star_homs,
)
from .representations import (
    MagicUnitary,
    action_matrix,
    magic_unitary_check,
    modular_report,
    nonclassical_magic_4x4,
    permutation_magic_unitary,
    podles_rank,
    projection_family_check,
    wang_family,
)
from .semigroups import (
    action_defect,
    cancellation_rank,
    classical_semigroup_algebra,
    coassociativity_defect,
    coideal_defect,
    convolve,
    counit_defect,
    group_table,
    left_zero_table,
    map_monoid_table,
    table_is_left_cancellative,
    table_is_right_cancellative,
    tables_are_associative,
)

# Rank of the span {Psi(m)(1 (x) a)} for the theta = 0.7 nonclassical grid,
# recorded at first run; the construction has no random input, so the value
# must not move with the suite seed.
WANG_NONCLASSICAL_PODLES_RANK = 16


@dataclass(frozen=True)
class CheckOutcome:
    """One named check: the measured defect, the bound it was held to, and
    a human-readable note recording where the example came from."""

    name: str
    passed: bool
    defect: float | None
    threshold: float | None
    detail: str = ""

    @classmethod
    def bounded(
        cls, name: str, defect: float, threshold: float, detail: str = ""
    ) -> "CheckOutcome":
        """A check held to a bound; it passes by the verdict rule within()."""
        defect = float(defect)
        return cls(name, within(defect, threshold), defect, threshold, detail)


def _flag(name: str, ok: bool, detail: str) -> CheckOutcome:
    return CheckOutcome(name, bool(ok), None, None, detail)


def _worst(*values: float) -> float:
    """The largest value, NaN when any value is NaN (the builtin max keeps
    its first argument against a NaN)."""
    return float(np.max(values))


# -- corpus builders --------------------------------------------------------


def _per_shape(fn: Callable[[np.ndarray], np.ndarray], arrays: Sequence[np.ndarray]) -> list:
    """fn applied to one stack of the arrays of each shape, read back per
    array in input order."""
    picks: dict[tuple[int, ...], list[int]] = {}
    for k, a in enumerate(arrays):
        picks.setdefault(a.shape, []).append(k)
    out = [None] * len(arrays)
    for ks in picks.values():
        for k, value in zip(ks, fn(np.stack([arrays[k] for k in ks]))):
            out[k] = value
    return out


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def haar_unitaries(ginibres: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from a (k, n, n) stack of Ginibre
    matrices: one QR over the stack, phases fixed (Mezzadri 2007)."""
    q, r = np.linalg.qr(ginibres)
    d = np.diagonal(r, axis1=1, axis2=2)[:, None, :]
    return q * (d / np.abs(d))


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix, phases fixed."""
    return haar_unitaries(_ginibre(rng, n)[None])[0]


def random_source_algebra(rng: np.random.Generator) -> FdCStarAlgebra:
    """Small random algebra guaranteed to contain a 1-dimensional block.

    The 1-block keeps unital embeddings into arbitrary codomains feasible,
    since any leftover corner can be filled with copies of it.
    """
    dims = [1, int(rng.integers(1, 4))]
    if rng.integers(0, 2):
        dims.reverse()
    return make_algebra(dims)


def random_algebra(rng: np.random.Generator) -> FdCStarAlgebra:
    """Random algebra with one or two blocks of size at most 3."""
    nblocks = 1 + int(rng.integers(0, 2))
    return make_algebra([int(rng.integers(1, 4)) for _ in range(nblocks)])


_LABEL_SHAPES = ((1,), (1, 1), (2,), (1, 1, 1), (1, 1, 1, 1))


def random_label(rng: np.random.Generator) -> FdCStarAlgebra:
    """Random label algebra of dimension at most 4."""
    return make_algebra(list(_LABEL_SHAPES[int(rng.integers(0, len(_LABEL_SHAPES)))]))


HomDraw = tuple[FdCStarAlgebra, FdCStarAlgebra, list[list[int]], list[np.ndarray]]


def draw_unital_hom(
    rng: np.random.Generator, domain: FdCStarAlgebra, codomain: FdCStarAlgebra
) -> HomDraw:
    """(domain, codomain, fills, ginibres): the draws of random_unital_hom in
    its order, fills[b] the domain blocks tiling codomain block b, then one
    Ginibre matrix per codomain block. The domain needs a block small enough
    to finish every tiling (a 1-block always suffices)."""
    dims = domain.block_dims
    fills: list[list[int]] = []
    for m in codomain.block_dims:
        rem = m
        fill: list[int] = []
        while rem > 0:
            options = [k for k, n in enumerate(dims) if n <= rem]
            if not options:
                raise ValueError(
                    f"cannot tile a block of size {m} with {dims}; "
                    "include a 1-dimensional block in the domain"
                )
            k = options[int(rng.integers(0, len(options)))]
            fill.append(k)
            rem -= dims[k]
        fills.append(fill)
    return domain, codomain, fills, [_ginibre(rng, m) for m in codomain.block_dims]


def build_unital_homs(draws: Sequence[HomDraw]) -> list[StarMorphism]:
    """The homs of draws: block embeddings conjugated by Haar unitaries,
    with one QR per unitary size over all the draws."""
    unitaries = iter(_per_shape(haar_unitaries, [g for draw in draws for g in draw[3]]))
    out = []
    for domain, codomain, fills, _ in draws:
        slices = domain.block_slices()
        mat = np.zeros((codomain.dim, domain.dim), dtype=complex)
        for (row, m), fill, u in zip(codomain.block_slices(), fills, unitaries):
            # domain block k sits at rows and columns pos..pos+n of this block,
            # so E_rs goes to u E_(pos+r)(pos+s) u*, entry (i, j) v[i, r] conj v[j, s];
            # a domain block placed twice sends E_rs to the sum of both tiles
            pos = 0
            for k in fill:
                off, n = slices[k]
                v = u[:, pos : pos + n]
                tile = np.einsum("ir,js->ijrs", v, v.conj()).reshape(m * m, n * n)
                mat[row : row + m * m, off : off + n * n] += tile
                pos += n
        out.append(StarMorphism(domain, codomain, mat))
    return out


def random_unital_hom(
    rng: np.random.Generator, domain: FdCStarAlgebra, codomain: FdCStarAlgebra
) -> StarMorphism:
    """Random unital *-homomorphism: block embeddings conjugated by Haar unitaries."""
    return build_unital_homs([draw_unital_hom(rng, domain, codomain)])[0]


FamilyDraw = tuple[FdCStarAlgebra, FdCStarAlgebra, HomDraw]


def draw_family(
    rng: np.random.Generator, source: FdCStarAlgebra, target: FdCStarAlgebra, label: FdCStarAlgebra
) -> FamilyDraw:
    """(target, label, hom draws): the draws of random_family, in its order."""
    return target, label, draw_unital_hom(rng, source, tensor_layout(target, label).product)


def build_families(draws: Sequence[FamilyDraw]) -> list[QuantumFamily]:
    """The verified families of draws: their homs built together, and
    checked by one stacked hom check."""
    homs = require_star_homs(build_unital_homs([hom for _, _, hom in draws]))
    return [QuantumFamily(phi.domain, c, a, phi) for (c, a, _), phi in zip(draws, homs)]


def random_family(
    rng: np.random.Generator,
    source: FdCStarAlgebra,
    target_factor: FdCStarAlgebra,
    label: FdCStarAlgebra,
) -> QuantumFamily:
    """Random verified family: a random unital hom into target (x) label."""
    return build_families([draw_family(rng, source, target_factor, label)])[0]


def random_faithful_state(
    rng: np.random.Generator, algebra: FdCStarAlgebra
) -> LinearFunctional:
    """Faithful state with a random density bounded away from singular."""
    blocks = []
    total = 0.0
    for n in algebra.block_dims:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = g @ g.conj().T + 0.2 * np.eye(n)
        blocks.append(h)
        total += float(np.trace(h).real)
    return LinearFunctional(algebra, algebra.element([b / total for b in blocks]))


def random_diagonal_state(rng: np.random.Generator, n: int) -> LinearFunctional:
    """Faithful state on M_n with a diagonal density."""
    w = rng.random(n) + 0.2
    w = w / w.sum()
    return LinearFunctional(make_algebra([n]), make_algebra([n]).element([np.diag(w)]))


def uniform_state(npoints: int) -> LinearFunctional:
    """The uniform probability state on functions over n points."""
    return trace_state(functions_algebra(npoints))


def conjugation_families(unitary_lists: Sequence[Sequence[np.ndarray]]) -> list[QuantumFamily]:
    """The families x -> sum_t u_t x u_t* (x) delta_t, one per finite list
    of unitaries on one matrix block, verified by one stacked hom check."""
    families = []
    for unitaries in unitary_lists:
        mats = [np.asarray(u, dtype=complex) for u in unitaries]
        source = make_algebra([mats[0].shape[0]])
        layout = tensor_layout(source, functions_algebra(len(mats)))
        mat = np.zeros((layout.product.dim, source.dim), dtype=complex)
        for t, u in enumerate(mats):
            # x -> u x u* (x) delta_t; vec(u x u*) = (u (x) conj u) vec(x)
            mat[layout.pair_index[:, t]] = np.kron(u, u.conj())
        phi = StarMorphism(source, layout.product, mat)
        families.append(QuantumFamily(source, source, layout.right, phi))
    require_star_homs([fam.morphism for fam in families])
    return families


def conjugation_family(unitaries: Sequence[np.ndarray]) -> QuantumFamily:
    """The family x -> sum_t u_t x u_t* (x) delta_t indexed by a finite
    list of unitaries on one matrix block."""
    return conjugation_families([unitaries])[0]


def sign_conjugation_family() -> QuantumFamily:
    """Conjugation of the 2x2 matrices by {1, diag(1, -1)}: the order-two
    group acting by flipping the off-diagonal sign."""
    return conjugation_family([np.eye(2), np.diag([1.0, -1.0])])


def diagonal_phases(rng: np.random.Generator, n: int, count: int) -> list[np.ndarray]:
    """count random diagonal phase unitaries on M_n."""
    return [np.diag(np.exp(2j * np.pi * rng.random(n))) for _ in range(count)]


def diagonal_phase_family(rng: np.random.Generator, n: int, count: int) -> QuantumFamily:
    """Conjugation family by random diagonal phase unitaries on M_n."""
    return conjugation_family(diagonal_phases(rng, n, count))


def draw_partition(rng: np.random.Generator, d: int, parts: int) -> tuple[np.ndarray, list[int]]:
    """(ginibre, owner): the draws of random_partition in its order, owner[i]
    the part that column i of the Haar unitary goes to."""
    if not 1 <= parts <= d:
        raise ValueError(f"need 1 <= parts <= {d}, got {parts}")
    ginibre = _ginibre(rng, d)
    owner = list(range(parts)) + [int(rng.integers(0, parts)) for _ in range(d - parts)]
    return ginibre, [owner[i] for i in rng.permutation(d)]


def build_partitions(draws: Sequence[tuple[np.ndarray, list[int]]]) -> list[np.ndarray]:
    """The projections of each draw as a (parts, d * d) coordinate array
    over M_d, with one QR per size over all the draws."""
    out = []
    for w, (_, owner) in zip(_per_shape(haar_unitaries, [g for g, _ in draws]), draws):
        cols = [w[:, [i for i, o in enumerate(owner) if o == g]] for g in range(max(owner) + 1)]
        out.append(np.array([(c @ c.conj().T).ravel() for c in cols]))
    return out


def random_partition(rng: np.random.Generator, d: int, parts: int) -> list[AlgebraElement]:
    """Random partition of unity in M_d: Haar-rotated rank-one projections
    grouped into the requested number of nonempty parts."""
    alg = make_algebra([d])
    return [AlgebraElement(alg, v) for v in build_partitions([draw_partition(rng, d, parts)])[0]]


def draw_magic_unitary(rng: np.random.Generator, n: int) -> tuple[tuple, list[np.ndarray]]:
    """(partition draw, perms): the draws of random_magic_unitary in its order."""
    t = int(rng.integers(2, 5))
    return draw_partition(rng, t, t), [rng.permutation(n) for _ in range(t)]


def build_magic_unitaries(draws: Sequence[tuple[tuple, list[np.ndarray]]]) -> list[MagicUnitary]:
    """The magic unitaries of draws, with one QR per partition size."""
    out = []
    for coords, (_, perms) in zip(build_partitions([p for p, _ in draws]), draws):
        n = len(perms[0])
        hits = np.array(perms)[:, None, :] == np.arange(n)[:, None]  # [k, i, j]
        out.append(MagicUnitary(make_algebra([len(perms)]), np.einsum("kij,kd->ijd", hits, coords)))
    return out


def random_magic_unitary(rng: np.random.Generator, n: int) -> MagicUnitary:
    """Random n x n magic unitary from a partition of unity and random
    permutations: entry (i, j) collects the projections q_t whose
    permutation sends j to i. Rows and columns each sum to the full
    partition, and entries are sums of orthogonal projections."""
    return build_magic_unitaries([draw_magic_unitary(rng, n)])[0]


def all_maps_family(n: int) -> QuantumFamily:
    """The classical family of every self-map of an n-point set."""
    return classical_family(enumerate_set_map_tables(n))


def invariant_corpus(
    seed: int = 0,
) -> list[tuple[str, QuantumFamily, LinearFunctional, MagicUnitary | None]]:
    """Families with a faithful invariant state, with provenance names.

    Wang-type entries also carry the magic unitary they were built from so
    the action matrix can be compared against it entrywise.
    """
    rng = np.random.default_rng(seed)
    sign = sign_conjugation_family()
    m2 = sign.source
    weighted = LinearFunctional(m2, m2.element([np.diag([1 / 3, 2 / 3])]))
    perm_magic = permutation_magic_unitary((1, 2, 0))
    proj_magic = random_magic_unitary(rng, 3)
    nc_magic = nonclassical_magic_4x4(0.7)
    return [
        ("conj-z2-trace", sign, trace_state(m2), None),
        ("conj-z2-weighted", sign, weighted, None),
        (
            "conj-diag-m3",
            diagonal_phase_family(rng, 3, 3),
            random_diagonal_state(rng, 3),
            None,
        ),
        ("wang-perm-cycle", wang_family(perm_magic), uniform_state(3), perm_magic),
        ("wang-projective", wang_family(proj_magic), uniform_state(3), proj_magic),
        ("wang-nonclassical", wang_family(nc_magic), uniform_state(4), nc_magic),
    ]


# -- suites -----------------------------------------------------------------


def suite_compose_associativity(seed: int = 0) -> list[CheckOutcome]:
    """Composition of families is associative up to rounding noise."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(200):
        d_alg = random_algebra(rng)
        c_alg = random_source_algebra(rng)
        b_alg = random_source_algebra(rng)
        e_alg = random_source_algebra(rng)
        for src, target in ((c_alg, d_alg), (b_alg, c_alg), (e_alg, b_alg)):
            draws.append(draw_family(rng, src, target, random_label(rng)))
    families = build_families(draws)
    operand_norms = _per_shape(  # np.linalg.norm(matrix, 2), one SVD call per shape
        lambda stack: np.linalg.svd(stack, compute_uv=False).max(axis=1),
        [fam.morphism.matrix for fam in families],
    )
    worst_ratio = 0.0
    worst_abs = 0.0
    for k in range(0, len(families), 3):
        f, g, h = families[k : k + 3]
        left = compose_families(compose_families(f, g), h)
        right = compose_families(f, compose_families(g, h))
        defect = max_image_defect(
            left.morphism.codomain, left.morphism.matrix - right.morphism.matrix
        )
        norms = float(operand_norms[k] * operand_norms[k + 1] * operand_norms[k + 2])
        ratio = defect / norms if norms > 0 else (0.0 if defect == 0.0 else np.inf)
        worst_ratio = _worst(worst_ratio, ratio)
        worst_abs = _worst(worst_abs, defect)
    return [
        CheckOutcome.bounded(
            "triple-associativity",
            worst_ratio,
            1e-9,
            "200 seeded random verified triples, block dims <= 3, labels of "
            f"dim <= 4; defect scaled by the product of operand norms "
            f"(worst absolute defect {worst_abs:.3e})",
        )
    ]


def suite_classical_shadow(seed: int = 0) -> list[CheckOutcome]:
    """The full family over 2 points sees exactly the four classical maps."""
    maps = enumerate_set_maps(2)
    family = all_maps_family(2)
    chars = characters_of(family.label)
    hits = []
    for chi in chars:
        phi = evaluate_at_character(family, chi)
        hits.extend(
            k for k, m in enumerate(maps) if np.array_equal(phi.matrix, m.matrix)
        )
    table, _ = map_monoid_table(2)
    sg = classical_semigroup_algebra(table)
    mism = 0
    for a, b in itertools.product(range(len(chars)), repeat=2):
        conv = convolve(chars[a].as_functional(), chars[b].as_functional(), sg)
        expected = chars[table[a][b]].as_functional()
        if not np.array_equal(conv.covector, expected.covector):
            mism += 1
    return [
        _flag(
            "character-convolution-table",
            mism == 0,
            "convolution of label characters reproduces the 4x4 composition "
            f"table of self-maps of 2 points; {mism} mismatches",
        ),
        _flag(
            "evaluation-bijection",
            sorted(hits) == list(range(len(maps))),
            "evaluating the full family at each label character recovers "
            "each enumerated map exactly once",
        ),
        _flag(
            "set-map-count",
            len(maps) == 4,
            f"enumerate_set_maps(2) returned {len(maps)} morphisms",
        ),
    ]


def suite_ergodicity(seed: int = 0) -> list[CheckOutcome]:
    """Fixed-point spaces of the two textbook examples."""
    full = fixed_point_space(all_maps_family(2))
    m2 = make_algebra([2])
    triv = fixed_point_space(trivial_family(m2, functions_algebra(1)))
    return [
        _flag(
            "all-maps-ergodic",
            full.dimension == 1 and full.ergodic,
            "the family of all self-maps of 2 points fixes only scalars; "
            f"dimension {full.dimension}",
        ),
        _flag(
            "trivial-family-fixes-everything",
            triv.dimension == 4 and not triv.ergodic,
            "the trivial family on 2x2 matrices fixes the whole algebra; "
            f"dimension {triv.dimension}",
        ),
    ]


def suite_invariance_closure(seed: int = 0) -> list[CheckOutcome]:
    """Composing uniform-state-preserving families preserves the state."""
    rng = np.random.default_rng(seed)
    psi = uniform_state(3)
    draws = []
    for _ in range(50):
        nperm = 1 + int(rng.integers(0, 3))
        perms = [tuple(int(v) for v in rng.permutation(3)) for _ in range(nperm)]
        draws.append((perms, draw_magic_unitary(rng, 3)))
    magics = build_magic_unitaries([magic for _, magic in draws])
    worst_factor = worst_composed = 0.0
    for (perms, _), magic in zip(draws, magics):
        f_perm = classical_family(perms)
        f_proj = wang_family(magic)
        for fam in (f_perm, f_proj):
            worst_factor = _worst(worst_factor, invariance_defects(fam, psi).defect)
        for comp in (
            compose_families(f_perm, f_proj),
            compose_families(f_proj, f_perm),
        ):
            worst_composed = _worst(
                worst_composed, invariance_defects(comp, psi).defect
            )
    return [
        CheckOutcome.bounded(
            "composed-invariance",
            worst_composed,
            1e-8,
            "50 seeded pairs on 3 points, one permutation family and one "
            "projective doubly-stochastic family, composed in both orders",
        ),
        CheckOutcome.bounded(
            "factor-invariance",
            worst_factor,
            1e-10,
            "each factor preserves the uniform state on its own",
        ),
    ]


def suite_commutant_closure(seed: int = 0) -> list[CheckOutcome]:
    """The trivial family commutes with everything; commutants are closed
    under composition; the commutation defect is order-symmetric."""
    rng = np.random.default_rng(seed)
    draws, trivial = [], []
    for _ in range(50):
        src = random_source_algebra(rng)
        draws.append(draw_family(rng, src, src, random_label(rng)))
        trivial.append(trivial_family(src, random_label(rng)))

    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.diag([1.0, -1.0])
    unitaries = [[np.eye(2), x], [np.eye(2), z], [np.eye(2), x @ z]]
    for _ in range(15):
        n = int(rng.integers(2, 4))
        unitaries += [diagonal_phases(rng, n, 1 + int(rng.integers(0, 3))) for _ in range(3)]
    for _ in range(20):
        src = random_source_algebra(rng)
        draws.append(draw_family(rng, src, src, random_label(rng)))
        draws.append(draw_family(rng, src, src, random_label(rng)))
    families = build_families(draws)
    conjugations = conjugation_families(unitaries)
    triples = [conjugations[k : k + 3] for k in range(0, len(conjugations), 3)]

    worst_trivial = 0.0
    for fam, triv in zip(families, trivial):
        worst_trivial = _worst(
            worst_trivial,
            commutation_defect(triv, fam),
            commutation_defect(fam, triv),
        )
    worst_pairwise = 0.0
    worst_composed = 0.0
    for b, c, d in triples:
        worst_pairwise = _worst(
            worst_pairwise,
            commutation_defect(b, c),
            commutation_defect(b, d),
            commutation_defect(c, d),
        )
        worst_composed = _worst(
            worst_composed, commutation_defect(b, compose_families(c, d))
        )

    worst_gap = 0.0
    for f1, f2 in zip(families[50::2], families[51::2]):
        worst_gap = _worst(
            worst_gap, abs(commutation_defect(f1, f2) - commutation_defect(f2, f1))
        )
    return [
        CheckOutcome.bounded(
            "composed-commutant",
            worst_composed,
            1e-8,
            "16 commuting triples (one Pauli conjugation triple, the rest "
            "random diagonal-phase conjugations); the first member against "
            "the composition of the other two",
        ),
        CheckOutcome.bounded(
            "pairwise-commutation",
            worst_pairwise,
            1e-10,
            "the same triples commute pairwise",
        ),
        CheckOutcome.bounded(
            "symmetry-gap",
            worst_gap,
            1e-9,
            "20 random pairs of self-map families; the commutation defect "
            "does not depend on the operand order",
        ),
        CheckOutcome.bounded(
            "trivial-commutes",
            worst_trivial,
            0.0,
            "the trivial family commutes with 50 random families exactly, "
            "in both orders",
        ),
    ]


def suite_wang_relations(seed: int = 0) -> list[CheckOutcome]:
    """Magic-unitary relations on permutation grids, a genuinely quantum
    grid, and a deliberately broken one."""
    worst = 0.0
    count = 0
    all_passed = True
    for n in range(1, 5):
        for perm in itertools.permutations(range(n)):
            report = magic_unitary_check(permutation_magic_unitary(perm))
            worst = _worst(worst, *report.defects.values())
            all_passed = all_passed and report.passed
            count += 1

    nc = magic_unitary_check(nonclassical_magic_4x4(0.7))

    base = permutation_magic_unitary((0, 1, 2))
    grid = base.entries.copy()
    grid[0, 0] = 0.0
    fault = magic_unitary_check(MagicUnitary(base.algebra, grid))

    return [
        _flag(
            "column-fault-detected",
            (not fault.passed) and fault.defects["col_sums"] >= 1.0,
            "zeroing one entry of a permutation grid breaks the column sums "
            f"by {fault.defects['col_sums']:.3g}",
        ),
        _flag(
            "nonclassical-commutator",
            nc.passed and nc.max_commutator >= 0.1,
            "the theta = 0.7 grid over 2x2 matrices passes with largest "
            f"entry commutator {nc.max_commutator:.6f}",
        ),
        CheckOutcome(
            "permutation-grids",
            all_passed and within(worst, 1e-12),
            worst,
            1e-12,
            f"all {count} permutation magic unitaries of size <= 4 pass",
        ),
    ]


def suite_projection_partition(seed: int = 0) -> list[CheckOutcome]:
    """Partitions of unity are automatically pairwise orthogonal."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(200):
        d = int(rng.integers(1, 7))
        draws.append(draw_partition(rng, d, int(rng.integers(1, min(d, 5) + 1))))
    stacks: dict[tuple[int, int], list[np.ndarray]] = {}
    for coords in build_partitions(draws):
        stacks.setdefault(coords.shape, []).append(coords)
    worst_sum = worst_orth = 0.0
    for (_, size), stack in stacks.items():
        # the partitions of one shape as one (K, parts, d * d) stack over M_d
        alg = make_algebra([math.isqrt(size)])
        sum_defect, orth_defect = projection_family_check(alg, np.stack(stack))
        worst_sum = _worst(worst_sum, sum_defect)
        worst_orth = _worst(worst_orth, orth_defect)
    detail = "200 seeded Haar partitions of unity in M_d, d <= 6"
    return [
        CheckOutcome.bounded("orthogonality", worst_orth, 1e-9, detail),
        CheckOutcome.bounded("partition-sum", worst_sum, 1e-9, detail),
    ]


def suite_action_isometry(seed: int = 0) -> list[CheckOutcome]:
    """The action matrix over an invariant-state basis is an isometry."""
    out = []
    for name, fam, omega, magic in invariant_corpus(seed):
        inv = invariance_defects(fam, omega).defect
        out.append(
            CheckOutcome.bounded(
                f"{name}-invariance",
                inv,
                1e-10,
                "the state is invariant, so the isometry theorem applies",
            )
        )
        report = action_matrix(fam, omega)
        out.append(
            CheckOutcome.bounded(
                f"{name}-isometry",
                report.isometry_defect,
                1e-8,
                "worst entry norm of (a~* a~ - 1) over the state basis",
            )
        )
        if magic is not None:
            diff = report.coefficients - magic.entries
            diff = diff.reshape(-1, magic.algebra.dim)
            gap = max_image_defect(magic.algebra, diff.T)
            out.append(
                CheckOutcome.bounded(
                    f"{name}-matches-magic",
                    gap,
                    1e-12,
                    "over the uniform state the action matrix is the input "
                    "magic unitary itself",
                )
            )
    return sorted(out, key=lambda o: o.name)


def suite_modular_identity(seed: int = 0) -> list[CheckOutcome]:
    """The exchange-map identity for a weighted invariant state, and its
    collapse to the plain isometry when the state is a trace."""
    fam = sign_conjugation_family()
    m2 = fam.source
    weighted = LinearFunctional(m2, m2.element([np.diag([1 / 3, 2 / 3])]))
    rep_w = modular_report(fam, weighted)

    tr = trace_state(m2)
    rep_t = modular_report(fam, tr)
    am_t = action_matrix(fam, tr)
    sigma_gap = float(np.linalg.norm(sigma_map(tr) - np.eye(m2.dim), 2))
    # the trace's W is I / n, n = sum(block_dims): n * identity is the isometry
    reduction_gap = abs(sum(m2.block_dims) * rep_t.identity_defect - am_t.conjugate_isometry_defect)

    rng = np.random.default_rng(seed)
    fam3 = diagonal_phase_family(rng, 3, 3)
    state3 = random_diagonal_state(rng, 3)
    rep_r = modular_report(fam3, state3)

    return [
        CheckOutcome.bounded(
            "random-identity",
            rep_r.identity_defect,
            1e-9,
            "seeded diagonal-phase conjugation on M_3 with a random "
            "diagonal faithful state",
        ),
        CheckOutcome.bounded(
            "random-left-inverse",
            rep_r.left_invertibility_defect,
            1e-8,
            "the same family admits the one-sided inverse",
        ),
        CheckOutcome.bounded(
            "tracial-reduction",
            reduction_gap,
            1e-12,
            "for the trace the identity defect coincides with the "
            "conjugate-isometry defect of the action matrix",
        ),
        CheckOutcome.bounded(
            "tracial-sigma-is-identity",
            sigma_gap,
            1e-12,
            "the exchange map of the trace is the identity",
        ),
        CheckOutcome.bounded(
            "weighted-identity",
            rep_w.identity_defect,
            1e-9,
            "sign conjugation on M_2 with invariant state diag(1/3, 2/3)",
        ),
        CheckOutcome.bounded(
            "weighted-left-inverse",
            rep_w.left_invertibility_defect,
            1e-8,
            "the conjugated coefficient matrix is left invertible",
        ),
    ]


def suite_cancellation_ranks(seed: int = 0) -> list[CheckOutcome]:
    """Quantum cancellation ranks against classical cancellativity."""
    out = []
    for n in range(1, 6):
        sg = classical_semigroup_algebra(group_table(n))
        left = cancellation_rank(sg, "left")
        right = cancellation_rank(sg, "right")
        gap = abs(left.rank - n * n) + abs(right.rank - n * n)
        out.append(
            CheckOutcome.bounded(
                f"cyclic-group-{n}",
                float(gap),
                0.0,
                f"functions on the cyclic group of order {n}: left rank "
                f"{left.rank}, right rank {right.rank}, expected {n * n}",
            )
        )

    sg_lz = classical_semigroup_algebra(left_zero_table(2))
    lz_left = cancellation_rank(sg_lz, "left")
    lz_right = cancellation_rank(sg_lz, "right")
    out.append(
        _flag(
            "left-zero-ranks",
            lz_left.rank == 2 and lz_right.rank == 4,
            "the order-2 left-zero semigroup has left rank "
            f"{lz_left.rank} and right rank {lz_right.rank}",
        )
    )

    mismatches = 0
    checked = 0
    for n in (1, 2, 3):
        # every n x n table over range(n) in lexicographic order, one byte an entry
        tables = np.indices((n,) * n * n, np.uint8).reshape(n * n, -1).T
        tables = tables.reshape(-1, n, n)
        for table in tables[tables_are_associative(tables)].tolist():
            checked += 1
            sg = classical_semigroup_algebra(table)
            if cancellation_rank(sg, "left").full != table_is_left_cancellative(table):
                mismatches += 1
            if cancellation_rank(sg, "right").full != table_is_right_cancellative(
                table
            ):
                mismatches += 1
    out.append(
        CheckOutcome.bounded(
            "classical-oracle-agreement",
            float(mismatches),
            0.0,
            f"full-rank verdicts match brute-force cancellativity on all "
            f"{checked} associative tables of order <= 3",
        )
    )
    return sorted(out, key=lambda o: o.name)


def suite_semigroup_axioms(seed: int = 0) -> list[CheckOutcome]:
    """The composition-dual comultiplication on functions over the monoid
    of self-maps of 2 points, with its counit and canonical action."""
    table, _ = map_monoid_table(2)
    sg = classical_semigroup_algebra(table)
    fam = all_maps_family(2)

    rng = np.random.default_rng(seed)
    states = [uniform_state(2)]
    for _ in range(10):
        w = rng.random(2) + 0.1
        states.append(
            LinearFunctional.from_values(functions_algebra(2), w / w.sum())
        )
    worst_coideal = _worst(*(coideal_defect(fam, sg, psi) for psi in states))

    return [
        CheckOutcome.bounded(
            "action-equation",
            action_defect(fam, sg),
            1e-12,
            "the full family is an action of the map monoid",
        ),
        CheckOutcome.bounded(
            "coassociativity",
            coassociativity_defect(sg),
            1e-12,
            "composition-dual comultiplication on functions over the 4 "
            "self-maps of 2 points",
        ),
        CheckOutcome.bounded(
            "coideal-identity",
            worst_coideal,
            1e-9,
            "invariance generators of 11 weighted states span a right "
            "coideal up to the stated bound",
        ),
        CheckOutcome.bounded(
            "counit",
            counit_defect(sg),
            1e-12,
            "evaluation at the identity map neutralizes the "
            "comultiplication on both sides",
        ),
    ]


def suite_podles_density(seed: int = 0) -> list[CheckOutcome]:
    """Density of the localized image span for the two reference actions."""
    conj = podles_rank(sign_conjugation_family())
    fresh = podles_rank(wang_family(nonclassical_magic_4x4(0.7)))
    again = podles_rank(wang_family(nonclassical_magic_4x4(0.7)))
    return [
        _flag(
            "conjugation-full-rank",
            conj.full and conj.rank == 8,
            f"sign conjugation on M_2 spans {conj.rank} of {conj.total}",
        ),
        _flag(
            "wang-nonclassical-rank",
            fresh.rank == WANG_NONCLASSICAL_PODLES_RANK == again.rank,
            f"theta = 0.7 grid spans {fresh.rank} of {fresh.total}; the "
            "construction takes no random input, so the value is "
            "seed-independent",
        ),
    ]


SUITES: dict[str, Callable[[int], list[CheckOutcome]]] = {
    "compose-associativity": suite_compose_associativity,
    "classical-shadow": suite_classical_shadow,
    "ergodicity": suite_ergodicity,
    "invariance-closure": suite_invariance_closure,
    "commutant-closure": suite_commutant_closure,
    "wang-relations": suite_wang_relations,
    "projection-partition": suite_projection_partition,
    "action-isometry": suite_action_isometry,
    "modular-identity": suite_modular_identity,
    "cancellation-ranks": suite_cancellation_ranks,
    "semigroup-axioms": suite_semigroup_axioms,
    "podles-density": suite_podles_density,
}


def run_suite(name: str, seed: int = 0) -> list[CheckOutcome]:
    """Run one named suite; outcomes come back sorted by check name."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return sorted(SUITES[name](seed), key=lambda o: o.name)


def run_all(seed: int = 0) -> dict[str, list[CheckOutcome]]:
    """Run every suite, keyed by suite name."""
    return {name: run_suite(name, seed) for name in SUITES}
