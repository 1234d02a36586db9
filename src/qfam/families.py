"""Quantum families of maps: unital *-homomorphisms B -> C (x) A.

A family packages the algebra B it acts on (source), the target factor C,
the label algebra A indexing the family, and the morphism itself. Reading
the arrows backwards, this is an A-indexed family of maps from the space
of C to the space of B; self-map families have C = B. The central
operations are the composition product (which tensors the labels),
invariance of a functional, commutation of two families, fixed points,
evaluation at a character of the label, and factorization through a
connecting morphism of labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraElement,
    FdCStarAlgebra,
    LinearFunctional,
    TensorLayout,
    max_image_defect,
    tensor_layout,
)
from .errors import (
    IncompatibleAlgebraError,
    InvalidCharacterError,
    InvalidMatrixError,
)
from .linalg import nullspace
from .morphisms import (
    Character,
    StarMorphism,
    _lift_difference_defect,
    _point_table,
    _pullback,
    functions_algebra,
    lift,
    require_star_hom,
    scalar_algebra,
    swap_index,
)


@dataclass(frozen=True)
class QuantumFamily:
    """A unital *-homomorphism from source into target_factor (x) label."""

    source: FdCStarAlgebra
    target_factor: FdCStarAlgebra
    label: FdCStarAlgebra
    morphism: StarMorphism

    def __post_init__(self) -> None:
        if self.morphism.domain != self.source:
            raise IncompatibleAlgebraError(
                "morphism domain differs from the declared source"
            )
        if self.morphism.codomain != self.layout.product:
            raise IncompatibleAlgebraError(
                "morphism codomain differs from target_factor (x) label"
            )

    @cached_property
    def layout(self) -> TensorLayout:
        return tensor_layout(self.target_factor, self.label)

    @property
    def is_self_map(self) -> bool:
        return self.source == self.target_factor

    def require_self_map(self, what: str) -> None:
        if not self.is_self_map:
            raise IncompatibleAlgebraError(
                f"{what} needs a self-map family (source = target factor)"
            )

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        return self.morphism(x)

    def __repr__(self) -> str:
        return (
            f"QuantumFamily({self.source!r} -> "
            f"{self.target_factor!r} x {self.label!r})"
        )


def make_family(
    source: FdCStarAlgebra,
    target_factor: FdCStarAlgebra,
    label: FdCStarAlgebra,
    morphism,
) -> QuantumFamily:
    """Build a family from a morphism or raw matrix, verifying the hom laws."""
    if not isinstance(morphism, StarMorphism):
        product = tensor_layout(target_factor, label).product
        morphism = StarMorphism(source, product, np.asarray(morphism, dtype=complex))
    family = QuantumFamily(source, target_factor, label, morphism)
    require_star_hom(morphism)
    return family


def trivial_family(
    source: FdCStarAlgebra, label: FdCStarAlgebra
) -> QuantumFamily:
    """The family b -> b (x) I. Its matrix is a 0/1 placement matrix."""
    layout = tensor_layout(source, label)
    mat = layout.left_units().T
    return QuantumFamily(source, source, label, StarMorphism(source, layout.product, mat))


def classical_family(tables: Sequence[Sequence[int]]) -> QuantumFamily:
    """The family of a finite list of self-maps of a finite set.

    tables[t][i] is the image of point i under the t-th map (0-based). The
    source is functions on the points, the label functions on the maps,
    and the image of the j-th point indicator is the sum of
    (indicator i) (x) (indicator t) over pairs with tables[t][i] = j.
    """
    tables = _point_table(tables, 2, InvalidMatrixError)
    count, n = tables.shape
    source, label = functions_algebra(n), functions_algebra(count)
    product = tensor_layout(source, label).product
    # row i T + t of the product is the pair (i, t)
    morphism = _pullback(source, product, tables.T.ravel())
    return QuantumFamily(source, source, label, morphism)


def compose_families(first: QuantumFamily, second: QuantumFamily) -> QuantumFamily:
    """Composition product: apply second, then lift first over its label.

    For first from C into D (x) A1 and second from B into C (x) A2, the
    result is (first (x) id) o second, from B into D (x) (A1 (x) A2). The
    product is associative on the nose because the tensor index maps
    compose associatively, so iterated labels need no reindexing.
    """
    if first.source != second.target_factor:
        raise IncompatibleAlgebraError(
            "first family's source must equal the second one's target factor"
        )
    mat = lift(first.morphism, second.label, second.morphism.matrix)
    label = tensor_layout(first.label, second.label).product
    codomain = tensor_layout(first.target_factor, label).product
    comp = StarMorphism(second.source, codomain, mat)
    return QuantumFamily(second.source, first.target_factor, label, comp)


@dataclass(frozen=True)
class InvarianceReport:
    """Worst defect of the invariance equation, plus the generators.

    generators is a (dim label, dim source) coordinate matrix whose column j
    is (omega (x) id) Psi(e_j) - omega(e_j) I for the j-th canonical matrix
    unit e_j; invariance of omega means every generator vanishes. The
    generators are linear in e_j, so generators @ basis expands them over
    the columns of any coordinate matrix basis of the source.
    """

    defect: float
    generators: np.ndarray


@np.errstate(over="ignore", invalid="ignore")  # inf * 0 is a NaN coordinate, as in lift
def invariance_defects(
    family: QuantumFamily, omega: LinearFunctional
) -> InvarianceReport:
    """Check (omega (x) id) Psi(m) = omega(m) 1 for a self-map family.

    The defect and the generators are taken over the canonical basis, for
    any functional omega; no faithfulness is needed.
    """
    family.require_self_map("invariance")
    if omega.algebra != family.source:
        raise IncompatibleAlgebraError("functional lives over a different algebra")
    omega_map = StarMorphism(family.source, scalar_algebra(), omega.covector[None])
    partial = lift(omega_map, family.label, family.morphism.matrix)
    # column j: the generator of the j-th matrix unit
    diff = partial - family.label.unit[:, None] * omega.covector
    return InvarianceReport(max_image_defect(family.label, diff), diff)


def action_coefficients(family: QuantumFamily) -> np.ndarray:
    """Coefficients a[k, l] with Psi(e_l) = sum_k e_k (x) a[k, l] over the
    canonical basis of the source of a self-map family, as one gather of
    Psi's matrix through the layout's pair_index; the result has shape
    (d, d, dim label) with axes (k, l, label coordinate).
    """
    family.require_self_map("coefficient expansion")
    return family.morphism.matrix[family.layout.pair_index].transpose(0, 2, 1)


@np.errstate(over="ignore", invalid="ignore")  # inf - inf is a NaN defect
def commutation_defect(first: QuantumFamily, second: QuantumFamily) -> float:
    """Distance between the two orders of composing self-map families.

    Measures (id (x) swap) o (first composed with second) against
    (second composed with first) in worst operator norm over the canonical
    basis. The swap of the label factors is one gather of rows through
    morphisms.swap_index. The defect is symmetric in its arguments up to
    numerical noise because the swap is isometric.
    """
    first.require_self_map("commutation")
    second.require_self_map("commutation")
    if first.source != second.source:
        raise IncompatibleAlgebraError("families act on different algebras")
    left = compose_families(first, second)
    right = compose_families(second, first)
    # row (b, q) over source (x) (A2 (x) A1) is row (b, swap[q]) of left's
    rows = np.empty(right.morphism.codomain.dim, dtype=np.intp)
    rows[right.layout.pair_index] = left.layout.pair_index[:, swap_index(first.label, second.label)]
    diff = left.morphism.matrix[rows]
    diff -= right.morphism.matrix
    return max_image_defect(right.morphism.codomain, diff)


@dataclass(frozen=True)
class FixedPointSpace:
    """The x with Psi(x) = x (x) I, with an ergodicity flag.

    basis is a (dim source, dimension) coordinate matrix with orthonormal
    columns spanning the fixed points.
    """

    dimension: int
    basis: np.ndarray
    ergodic: bool


def fixed_point_space(family: QuantumFamily) -> FixedPointSpace:
    """Solve Psi(x) = x (x) I; ergodic means only multiples of the identity."""
    family.require_self_map("fixed points")
    null = nullspace(family.morphism.matrix - family.layout.left_units().T)  # Psi(x) - x (x) I
    dimension = null.shape[1]
    return FixedPointSpace(dimension=dimension, basis=null, ergodic=dimension == 1)


def evaluate_at_character(family: QuantumFamily, chi: Character) -> StarMorphism:
    """The single map (id (x) chi) o Psi selected by a character of the label."""
    if chi.domain != family.label:
        raise InvalidCharacterError(
            "character domain does not match the family label algebra"
        )
    mat = lift(family.target_factor, chi, family.morphism.matrix)
    return StarMorphism(family.source, family.target_factor, mat)


def factorization_defect(
    phi: QuantumFamily, lam: StarMorphism, psi: QuantumFamily
) -> float:
    """Worst-case defect of (id (x) lam) o phi = psi over the canonical basis.

    Certifies a concrete factorization of psi through phi along the
    connecting label morphism lam; it does not search for lam.
    """
    if phi.source != psi.source or phi.target_factor != psi.target_factor:
        raise IncompatibleAlgebraError(
            "families must share source and target factor"
        )
    if lam.domain != phi.label or lam.codomain != psi.label:
        raise IncompatibleAlgebraError(
            "connecting morphism must map one label algebra to the other"
        )
    factor = phi.target_factor
    return _lift_difference_defect((factor, lam, phi.morphism), (factor, psi.label, psi.morphism))
