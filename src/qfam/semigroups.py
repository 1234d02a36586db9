"""Quantum semigroups: an algebra with a coassociative comultiplication.

The comultiplication is a unital *-homomorphism from the algebra into its
tensor square. All structural laws (coassociativity, counit, the action
equation for a family, morphism compatibility) are checked numerically and
reported as worst-case operator-norm defects, so a deliberately perturbed
structure map yields a quantifiably nonzero defect instead of an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    FdCStarAlgebra,
    LinearFunctional,
    max_image_defect,
    module_span_rank,
    tensor_layout,
)
from .errors import (
    IncompatibleAlgebraError,
    InvalidMatrixError,
    InvalidSemigroupError,
    MissingComponentError,
)
from .families import QuantumFamily, action_coefficients, invariance_defects
from .morphisms import (
    Character,
    StarMorphism,
    _integer_table,
    _lift_difference_defect,
    _point_table,
    _pullback,
    functions_algebra,
    lift,
    lift_monomial,
    monomial_defect,
    scalar_algebra,
)


@dataclass(frozen=True)
class QuantumSemigroup:
    """An algebra A with a comultiplication A -> A (x) A and optional counit.

    Construction only validates shapes; the structure laws are checked by
    the defect functions so that broken structures can still be measured.
    """

    algebra: FdCStarAlgebra
    comultiplication: StarMorphism
    counit: Character | None = None

    def __post_init__(self) -> None:
        square = tensor_layout(self.algebra, self.algebra).product
        delta = self.comultiplication
        if delta.domain != self.algebra or delta.codomain != square:
            raise InvalidMatrixError(
                "comultiplication must map the algebra into its tensor square"
            )
        if self.counit is not None and self.counit.domain != self.algebra:
            raise InvalidMatrixError("counit must be defined on the same algebra")

    def __repr__(self) -> str:
        return f"QuantumSemigroup({self.algebra!r})"


def coassociativity_defect(sg: QuantumSemigroup) -> float:
    """Worst norm of ((Delta (x) id) - (id (x) Delta)) Delta on the basis."""
    delta, alg = sg.comultiplication, sg.algebra
    return _lift_difference_defect((delta, alg, delta), (alg, delta, delta))


def counit_defect(sg: QuantumSemigroup) -> float:
    """Worst deviation of (eps (x) id) Delta and (id (x) eps) Delta from id:
    by index arithmetic (lift_monomial against the identity's form) when
    Delta and eps have monomial forms, as a table's do, through dense lifts
    otherwise."""
    if sg.counit is None:
        raise MissingComponentError("semigroup has no counit attached")
    delta, alg, eps = sg.comultiplication, sg.algebra, sg.counit
    laws = ((eps, alg), (alg, eps))  # scalars (x) A and A (x) scalars share A's coordinates
    if delta.monomial is not None and eps.monomial is not None:
        ident = (np.arange(alg.dim), np.ones(alg.dim, dtype=complex))
        left, right = (monomial_defect(lift_monomial(*law, delta.monomial), ident) for law in laws)
        return float(np.maximum(left, right))
    eye = np.eye(alg.dim)
    left, right = (lift(*law, delta.matrix) - eye for law in laws)
    return max_image_defect(alg, np.hstack([left, right]))


def action_defect(family: QuantumFamily, sg: QuantumSemigroup) -> float:
    """Worst norm of ((Psi (x) id) Psi - (id (x) Delta) Psi) on the basis."""
    if family.label != sg.algebra:
        raise IncompatibleAlgebraError(
            "family label algebra differs from the semigroup algebra"
        )
    family.require_self_map("action equation")
    psi, delta = family.morphism, sg.comultiplication
    return _lift_difference_defect((psi, sg.algebra, psi), (family.source, delta, psi))


def qs_morphism_defect(
    lam: StarMorphism, source: QuantumSemigroup, target: QuantumSemigroup
) -> float:
    """Worst norm of ((lam (x) lam) Delta_source - Delta_target lam), the
    second term read as (Delta_target (x) id) lam into A_target (x) C."""
    if lam.domain != source.algebra or lam.codomain != target.algebra:
        raise IncompatibleAlgebraError(
            "map must go from the source semigroup algebra to the target one"
        )
    delta_s, delta_t = source.comultiplication, target.comultiplication
    return _lift_difference_defect((lam, lam, delta_s), (delta_t, scalar_algebra(), lam))


def convolve(
    f: LinearFunctional, g: LinearFunctional, sg: QuantumSemigroup
) -> LinearFunctional:
    """Convolution (f (x) g) o Delta of two functionals on the algebra."""
    if f.algebra != sg.algebra or g.algebra != sg.algebra:
        raise IncompatibleAlgebraError(
            "both functionals must live on the semigroup algebra"
        )
    f_map, g_map = (
        StarMorphism(sg.algebra, scalar_algebra(), h.covector[None]) for h in (f, g)
    )
    values = lift(f_map, g_map, sg.comultiplication.matrix)
    return LinearFunctional.from_values(sg.algebra, values)


@dataclass(frozen=True)
class CancellationReport:
    """Numeric rank of one cancellation span, whether it is full, and its
    margins: the smallest kept and the largest dropped singular value over
    the largest (see linalg.BlockRank); a report built without them reads
    0.0 for both."""

    side: str
    rank: int
    full: bool
    smallest_kept: float = 0.0
    largest_dropped: float = 0.0


def cancellation_rank(sg: QuantumSemigroup, side: str = "left") -> CancellationReport:
    """Rank of the left span (e_i (x) 1) Delta(e_j) or the right span
    Delta(e_i) (1 (x) e_j) inside the tensor square.

    The left span is a left module over A (x) 1 and the right span a right
    module over 1 (x) A, so the rank is summed block by block under one
    global cut (algebra.module_span_rank), not read off one dim^2 x dim^2
    SVD, and counted when the algebra is commutative and Delta monomial, as
    a table's is. A full span (rank equal to dim squared) is the quantum
    form of the corresponding cancellation law; on the algebra of
    functions on a finite semigroup it holds exactly when all translations
    on that side are injective.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    alg = sg.algebra
    found = module_span_rank(tensor_layout(alg, alg), sg.comultiplication, side)
    return CancellationReport(
        side=side,
        rank=found.rank,
        full=found.rank == alg.dim**2,
        smallest_kept=found.smallest_kept,
        largest_dropped=found.largest_dropped,
    )


def coideal_defect(
    family: QuantumFamily, sg: QuantumSemigroup, omega: LinearFunctional
) -> float:
    """Worst defect of Delta(X_l) = sum_p X_p (x) a[p, l] + 1 (x) X_l.

    X_l = (omega (x) id) Psi(e_l) - omega(e_l) 1 are the invariance
    generators of omega for the family and a[p, l] the coefficients of the
    family, both over the canonical basis e_l. When the action equation
    holds, the identity holds over every basis, since both sides are linear
    in the basis; its defect measures how far the generators are from
    spanning a right coideal.
    """
    if family.label != sg.algebra:
        raise IncompatibleAlgebraError(
            "family label algebra differs from the semigroup algebra"
        )
    xmat = invariance_defects(family, omega).generators  # (dA, l)
    coeffs = action_coefficients(family)  # (k, l, coord)
    layout = tensor_layout(sg.algebra, sg.algebra)
    lhs = sg.comultiplication.matrix @ xmat  # (dA^2, l)
    # rhs table over pairs (A coordinate, A coordinate) per generator.
    rhs_tables = np.einsum("ip,pla->lia", xmat, coeffs) + np.einsum(
        "i,al->lia", sg.algebra.unit, xmat
    )
    return max_image_defect(layout.product, lhs - layout.combine(rhs_tables).T)


# -- classical (commutative) semigroups ------------------------------------


def tables_are_associative(tables: np.ndarray) -> np.ndarray:
    """Associativity of each table of a (batch, n, n) stack whose entries
    index range(n), of any integer type: (x y) z == x (y z) as n^3
    comparisons per table, one n^2 slice of each table per z."""
    tables = np.asarray(tables)
    n = tables.shape[-1]
    b = np.arange(len(tables))[:, None, None]
    x = np.arange(n)[:, None]
    ok = np.ones(len(tables), dtype=bool)
    for z in range(n):
        lhs = tables[b, tables, z]  # (x y) z at [b, x, y]
        rhs = tables[b, x, tables[:, None, :, z]]  # x (y z)
        ok &= (lhs == rhs).all(axis=(1, 2))
    return ok


def table_is_associative(table: Sequence[Sequence[int]]) -> bool:
    try:
        arr = _integer_table(table, 2, InvalidSemigroupError)
    except InvalidSemigroupError:
        return False
    return arr.shape[0] == arr.shape[1] and bool(tables_are_associative(arr[None])[0])


def table_identity(table: Sequence[Sequence[int]]) -> int | None:
    """Index of the two-sided identity element, or None."""
    arr = _integer_table(table, 2, InvalidSemigroupError)
    ran = np.arange(len(arr))
    found = np.flatnonzero((arr == ran).all(axis=1) & (arr.T == ran).all(axis=1))
    return int(found[0]) if found.size else None


def table_is_left_cancellative(table: Sequence[Sequence[int]]) -> bool:
    """Every row of the table is a permutation (left translations injective)."""
    arr = _integer_table(table, 2, InvalidSemigroupError)
    return bool((np.sort(arr, axis=1) == np.arange(arr.shape[1])).all())


def table_is_right_cancellative(table: Sequence[Sequence[int]]) -> bool:
    """Every column of the table is a permutation."""
    return table_is_left_cancellative(_integer_table(table, 2, InvalidSemigroupError).T)


def classical_semigroup_algebra(table: Sequence[Sequence[int]]) -> QuantumSemigroup:
    """Functions on a finite semigroup with the multiplication-dual coproduct.

    table[s][t] is the 0-based product s t. Delta(delta_j) is the sum of
    delta_s (x) delta_t over the pairs with s t = j; when the table has a
    two-sided identity the counit is evaluation there.
    """
    arr = _point_table(table, 2, InvalidSemigroupError)
    n = len(arr)
    if arr.shape != (n, n):
        raise InvalidSemigroupError("multiplication table must be square")
    if not tables_are_associative(arr[None])[0]:
        raise InvalidSemigroupError("multiplication table is not associative")
    alg = functions_algebra(n)
    # row s n + t of the product is the pair (s, t)
    delta = _pullback(alg, tensor_layout(alg, alg).product, arr.ravel())
    e = table_identity(arr)
    counit = None if e is None else Character(alg, np.eye(1, n, e))
    return QuantumSemigroup(alg, delta, counit)


def group_table(n: int) -> list[list[int]]:
    """Multiplication table of the cyclic group of order n."""
    if n < 1:
        raise InvalidSemigroupError("order must be positive")
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def left_zero_table(n: int) -> list[list[int]]:
    """Table of the left-zero semigroup: s t = s."""
    if n < 1:
        raise InvalidSemigroupError("order must be positive")
    return [[i for _ in range(n)] for i in range(n)]


def map_monoid_table(n: int) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """Multiplication table of all self-maps of n points, and the maps.

    Maps are ordered lexicographically by lookup table. The product u v is
    "apply u, then v", the order that makes the composition-dual coproduct
    satisfy the action equation for the family of all maps.
    """
    from .morphisms import enumerate_set_map_tables

    maps = enumerate_set_map_tables(n)
    index = {m: i for i, m in enumerate(maps)}
    table = [
        [index[tuple(v[u[x]] for x in range(n))] for v in maps] for u in maps
    ]
    return table, maps
