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
    DEFAULT_TOL,
    AlgebraElement,
    FdCStarAlgebra,
    LinearFunctional,
    TensorLayout,
    max_image_defect,
    orthonormal_basis,
    tensor_layout,
)
from .errors import (
    IncompatibleAlgebraError,
    InvalidCharacterError,
    InvalidMatrixError,
)
from .linalg import nullspace, numeric_rank
from .morphisms import (
    Character,
    StarMorphism,
    flip,
    functions_algebra,
    identity_morphism,
    lift,
    require_star_hom,
    scalar_algebra,
)


@dataclass(frozen=True)
class QuantumFamily:
    """A unital *-homomorphism from source into target_factor (x) label."""

    source: FdCStarAlgebra
    target_factor: FdCStarAlgebra
    label: FdCStarAlgebra
    morphism: StarMorphism

    def __post_init__(self) -> None:
        expected = tensor_layout(self.target_factor, self.label).product
        if self.morphism.domain != self.source:
            raise IncompatibleAlgebraError(
                "morphism domain differs from the declared source"
            )
        if self.morphism.codomain != expected:
            raise IncompatibleAlgebraError(
                "morphism codomain differs from target_factor (x) label"
            )

    @cached_property
    def layout(self) -> TensorLayout:
        return tensor_layout(self.target_factor, self.label)

    @property
    def is_self_map(self) -> bool:
        return self.source == self.target_factor

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        return self.morphism(x)

    def __repr__(self) -> str:
        return (
            f"QuantumFamily({self.source!r} -> "
            f"{self.target_factor!r} x {self.label!r})"
        )


def _require_self_map(family: QuantumFamily, what: str) -> None:
    if not family.is_self_map:
        raise IncompatibleAlgebraError(
            f"{what} needs a self-map family (source = target factor)"
        )


def make_family(
    source: FdCStarAlgebra,
    target_factor: FdCStarAlgebra,
    label: FdCStarAlgebra,
    morphism,
    tol: float = DEFAULT_TOL,
) -> QuantumFamily:
    """Build a family from a morphism or raw matrix, verifying the hom laws."""
    layout = tensor_layout(target_factor, label)
    if isinstance(morphism, StarMorphism):
        if morphism.domain != source or morphism.codomain != layout.product:
            raise IncompatibleAlgebraError(
                "morphism does not map the source into target_factor (x) label"
            )
        phi = morphism
    else:
        phi = StarMorphism(source, layout.product, np.asarray(morphism, dtype=complex))
    return QuantumFamily(source, target_factor, label, require_star_hom(phi, tol))


def singleton_family(phi: StarMorphism) -> QuantumFamily:
    """The one-member family of a single endomorphism, labeled by scalars."""
    label = scalar_algebra()
    layout = tensor_layout(phi.codomain, label)
    # the product layout with a scalar factor is coordinate-identical
    lifted = StarMorphism(phi.domain, layout.product, phi.matrix)
    return QuantumFamily(phi.domain, phi.codomain, label, lifted)


def trivial_family(
    source: FdCStarAlgebra, label: FdCStarAlgebra
) -> QuantumFamily:
    """The family b -> b (x) I. Its matrix is a 0/1 placement matrix."""
    layout = tensor_layout(source, label)
    mat = layout.left_units().T
    return QuantumFamily(
        source, source, label, StarMorphism(source, layout.product, mat)
    )


def classical_family(tables: Sequence[Sequence[int]]) -> QuantumFamily:
    """The family of a finite list of self-maps of a finite set.

    tables[t][i] is the image of point i under the t-th map (0-based). The
    source is functions on the points, the label functions on the maps,
    and the image of the j-th point indicator is the sum of
    (indicator i) (x) (indicator t) over pairs with tables[t][i] = j.
    """
    tables = [tuple(int(v) for v in tbl) for tbl in tables]
    if not tables:
        raise InvalidMatrixError("need at least one map table")
    n = len(tables[0])
    for tbl in tables:
        if len(tbl) != n or any(v < 0 or v >= n for v in tbl):
            raise InvalidMatrixError(f"table {tbl} is not a self-map of {n} points")
    source = functions_algebra(n)
    label = functions_algebra(len(tables))
    layout = tensor_layout(source, label)
    mat = np.zeros((layout.product.dim, n), dtype=complex)
    mat[layout.pair_index, np.array(tables).T] = 1.0  # one row per pair (i, t)
    return QuantumFamily(
        source, source, label, StarMorphism(source, layout.product, mat)
    )


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
    mat = lift(first.morphism, identity_morphism(second.label), second.morphism.matrix)
    label = tensor_layout(first.label, second.label).product
    codomain = tensor_layout(first.target_factor, label).product
    comp = StarMorphism(second.source, codomain, mat)
    return QuantumFamily(second.source, first.target_factor, label, comp)


def triviality_defect(family: QuantumFamily) -> float:
    """Worst norm of Psi(b) - b (x) I over the canonical basis."""
    _require_self_map(family, "triviality check")
    triv = trivial_family(family.source, family.label)
    return max_image_defect(
        family.morphism.codomain, family.morphism.matrix - triv.morphism.matrix
    )


@dataclass(frozen=True)
class InvarianceReport:
    """Worst defect of the invariance equation, plus the generator elements.

    generators[l] is (omega (x) id) Psi(m_l) - omega(m_l) I in the label
    algebra, one per element of the generator basis; invariance of omega
    means every generator vanishes.
    """

    defect: float
    generators: tuple[AlgebraElement, ...]


def invariance_defects(
    family: QuantumFamily,
    omega: LinearFunctional,
    basis: Sequence[AlgebraElement] | None = None,
) -> InvarianceReport:
    """Check (omega (x) id) Psi(m) = omega(m) 1 for a self-map family.

    The defect is always measured over the canonical basis. Generators are
    expanded over the given basis when one is passed, over the
    omega-orthonormal basis when omega is faithful, and over the canonical
    basis otherwise.
    """
    _require_self_map(family, "invariance")
    if omega.algebra != family.source:
        raise IncompatibleAlgebraError("functional lives over a different algebra")
    slices = family.morphism.matrix[family.layout.pair_index, :]  # (dB, dA, dB)
    partial = np.einsum("iab,i->ab", slices, omega.covector)
    target = np.outer(family.label.identity().to_vec(), omega.covector)
    diff = partial - target  # column j: the generator of the j-th matrix unit
    defect = max_image_defect(family.label, diff)
    if basis is None and omega.is_faithful():
        basis = orthonormal_basis(family.source, omega)
    if basis is not None:  # generators are linear in m
        diff = diff @ np.column_stack([m.to_vec() for m in basis])
    generators = tuple(family.label.from_vec(col) for col in diff.T)
    return InvarianceReport(defect=defect, generators=generators)


def action_coefficients(
    family: QuantumFamily, basis: Sequence[AlgebraElement]
) -> np.ndarray:
    """Coefficients a[k, l] with Psi(m_l) = sum_k m_k (x) a[k, l].

    basis must be a linear basis of the source of a self-map family; the
    result has shape (d, d, dim label) with axes (k, l, label coordinate).
    """
    _require_self_map(family, "coefficient expansion")
    layout = family.layout
    bmat = np.column_stack([m.to_vec() for m in basis])
    if bmat.shape != (family.source.dim, family.source.dim) or numeric_rank(
        bmat
    ) < family.source.dim:
        raise InvalidMatrixError("given elements do not form a basis of the source")
    duals = np.linalg.inv(bmat)
    images = (family.morphism.matrix @ bmat)[layout.pair_index]  # (i, a, l)
    return np.einsum("ial,ki->kla", images, duals)


def commutation_defect(first: QuantumFamily, second: QuantumFamily) -> float:
    """Distance between the two orders of composing self-map families.

    Measures (id (x) swap) o (first composed with second) against
    (second composed with first) in worst operator norm over the canonical
    basis. The defect is symmetric in its arguments up to numerical noise
    because the swap is isometric.
    """
    _require_self_map(first, "commutation")
    _require_self_map(second, "commutation")
    if first.source != second.source:
        raise IncompatibleAlgebraError("families act on different algebras")
    left = compose_families(first, second)
    right = compose_families(second, first)
    swap = flip(first.label, second.label)
    diff = lift(identity_morphism(first.source), swap, left.morphism.matrix)
    diff -= right.morphism.matrix
    return max_image_defect(right.morphism.codomain, diff)


@dataclass(frozen=True)
class FixedPointSpace:
    """Basis of the x with Psi(x) = x (x) I, with an ergodicity flag."""

    dimension: int
    basis: tuple[AlgebraElement, ...]
    ergodic: bool


def fixed_point_space(family: QuantumFamily) -> FixedPointSpace:
    """Solve Psi(x) = x (x) I; ergodic means only multiples of the identity."""
    _require_self_map(family, "fixed points")
    triv = trivial_family(family.source, family.label)
    null = nullspace(family.morphism.matrix - triv.morphism.matrix)
    basis = tuple(family.source.from_vec(null[:, j]) for j in range(null.shape[1]))
    return FixedPointSpace(dimension=len(basis), basis=basis, ergodic=len(basis) == 1)


def evaluate_at_character(family: QuantumFamily, chi: Character) -> StarMorphism:
    """The single map (id (x) chi) o Psi selected by a character of the label."""
    if chi.domain != family.label:
        raise InvalidCharacterError(
            "character domain does not match the family label algebra"
        )
    slices = family.morphism.matrix[family.layout.pair_index, :]  # (dC, dA, dB)
    mat = np.einsum("iab,a->ib", slices, chi.matrix.reshape(-1))
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
    diff = lift(identity_morphism(phi.target_factor), lam, phi.morphism.matrix)
    diff -= psi.morphism.matrix
    return max_image_defect(psi.morphism.codomain, diff)
