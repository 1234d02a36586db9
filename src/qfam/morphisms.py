"""Unital *-homomorphisms between finite-dimensional C*-algebras.

A morphism is stored as its matrix over the canonical bases: column j holds
the coordinates of the image of the j-th domain matrix unit. Verification is
numerical; :meth:`StarMorphism.defects` reports how far the map is from
being multiplicative, adjoint-preserving and unital, each measured as a
worst-case operator norm. Defect computation is deferred and cached, so
intermediate maps built by composition or tensoring are never verified
unless asked.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    FdCStarAlgebra,
    LinearFunctional,
    adjoint_permutation,
    column_element_norms,
    make_algebra,
    max_image_defect,
    multiplication_table,
    multiply,
    tensor_layout,
    within,
)
from .errors import (
    IncompatibleAlgebraError,
    InvalidCharacterError,
    InvalidMatrixError,
    NotAHomomorphismError,
    ResourceLimitError,
)

# Cap on n for enumerating all n^n self-maps of an n-point set.
SET_MAP_CAP = 6

# Cap on the bytes two tensor lifts hold at their peak, as counted by
# _require_lift_fits; 2^30 admits coassociativity on cyclic groups of order
# up to 68.
LIFT_BYTES_CAP = 2**30

# Above this many complex entries the multiplicativity check is chunked.
_DEFECT_CHUNK = 4_000_000


@lru_cache(maxsize=None)
def scalar_algebra() -> FdCStarAlgebra:
    """The complex numbers as a one-block algebra of size 1."""
    return make_algebra([1])


class StarMorphism:
    """A linear map between algebras, given by its canonical-basis matrix."""

    __slots__ = ("domain", "codomain", "matrix", "__dict__")

    def __init__(
        self,
        domain: FdCStarAlgebra,
        codomain: FdCStarAlgebra,
        matrix: np.ndarray,
    ) -> None:
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (codomain.dim, domain.dim):
            raise InvalidMatrixError(
                f"matrix shape {matrix.shape} does not match "
                f"({codomain.dim}, {domain.dim})"
            )
        matrix = matrix.copy()
        matrix.setflags(write=False)
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        if x.algebra != self.domain:
            raise IncompatibleAlgebraError("argument is not in the domain algebra")
        return AlgebraElement(self.codomain, self.matrix @ x.to_vec())

    @cached_property
    def defect_report(self) -> dict[str, float]:
        """Worst-case defects: mult_defect, star_defect, unit_defect.

        Computed lazily and cached, so maps built as intermediates (tensor
        lifts, compositions) cost nothing until someone asks.
        """
        return _defect_report(self)

    @cached_property
    def scale(self) -> float:
        """max(1, max|entry|) of the matrix; NaN when an entry is NaN."""
        return float(np.maximum(1.0, np.abs(self.matrix).max()))

    def hom_bound(self, tol: float = DEFAULT_TOL) -> float:
        """The bound each defect is held to: tol * scale^2."""
        return tol * self.scale * self.scale

    def is_star_hom(self, tol: float = DEFAULT_TOL) -> bool:
        """True when every defect is within hom_bound(tol)."""
        bound = self.hom_bound(tol)
        return all(within(v, bound) for v in self.defect_report.values())

    def __repr__(self) -> str:
        return f"StarMorphism({self.domain!r} -> {self.codomain!r})"


def _defect_report(phi: StarMorphism) -> dict[str, float]:
    dom, cod, mat = phi.domain, phi.codomain, phi.matrix
    d = dom.dim

    unit = max_image_defect(cod, mat @ dom.identity().to_vec() - cod.identity().to_vec())

    star_diff = mat[:, adjoint_permutation(dom)] - np.conj(mat[adjoint_permutation(cod), :])
    star = max_image_defect(cod, star_diff)

    # phi(e_i)phi(e_j) - phi(e_i e_j), in chunks of at most _DEFECT_CHUNK entries.
    tidx = multiplication_table(dom)
    # Row d of padded is 0; the table's -1 entries (zero products) pick it.
    padded = np.concatenate([mat, np.zeros((cod.dim, 1))], axis=1).T
    images = padded[:d]
    norms = np.zeros(d * d)
    step = max(1, _DEFECT_CHUNK // max(1, d * cod.dim))
    for lo in range(0, d, step):
        hi = min(d, lo + step)
        # huge entries overflow to inf or NaN here; within() fails those
        with np.errstate(over="ignore", invalid="ignore"):
            prod = multiply(cod, images[lo:hi, None, :], images)
            diff = (prod - padded[tidx[lo:hi]]).reshape(-1, cod.dim)
        norms[lo * d : hi * d] = column_element_norms(cod, diff.T)
    mult = float(norms.max())
    return {"mult_defect": mult, "star_defect": star, "unit_defect": unit}


def require_star_hom(phi: StarMorphism) -> StarMorphism:
    """Return phi if it verifies as a unital *-homomorphism, else raise."""
    if not phi.is_star_hom():
        raise NotAHomomorphismError(
            "map fails the homomorphism checks: "
            + ", ".join(f"{k}={v:.3e}" for k, v in phi.defect_report.items())
        )
    return phi


def compose_morphisms(outer: StarMorphism, inner: StarMorphism) -> StarMorphism:
    """outer after inner."""
    if inner.codomain != outer.domain:
        raise IncompatibleAlgebraError(
            f"cannot compose: inner codomain {inner.codomain} differs from "
            f"outer domain {outer.domain}"
        )
    return StarMorphism(inner.domain, outer.codomain, outer.matrix @ inner.matrix)


# A factor of a lift; an algebra stands for its identity map.
LiftFactor = StarMorphism | FdCStarAlgebra


def _ends(factor: LiftFactor) -> tuple[FdCStarAlgebra, FdCStarAlgebra]:
    if isinstance(factor, FdCStarAlgebra):
        return factor, factor
    return factor.domain, factor.codomain


def _require_lift_fits(phi: LiftFactor, psi: LiftFactor, ncols: int) -> None:
    """Refuse a lift of ncols columns when a defect subtracting two such
    lifts would exceed the cap at its peak. It holds the first result and
    the second's result, split table and largest product (16 bytes an
    entry), 24 bytes per coordinate of the products each lift caches
    (pair_index, block offsets and block sizes), and up to 16 KiB of Python
    objects (under 6 KiB measured on cyclic groups). A lift builds its index
    arrays before its large arrays, so their temporaries are freed by then."""
    (a1, b1), (a2, b2) = ((x.dim, y.dim) for x, y in (_ends(phi), _ends(psi)))
    nbytes = 16 * ncols * (3 * max(a1 * a2, b1 * a2, b1 * b2) + a1 * a2)
    nbytes += 2 * 24 * (a1 * a2 + b1 * b2) + 2**14
    if nbytes > LIFT_BYTES_CAP:
        raise ResourceLimitError(
            f"a tensor lift of {ncols} columns needs {nbytes / 2**20:.0f} MiB, "
            f"over the cap of {LIFT_BYTES_CAP / 2**20:.0f} MiB"
        )


def lift(phi: LiftFactor, psi: LiftFactor, columns: np.ndarray) -> np.ndarray:
    """Coordinates of (phi (x) psi)(c) for each column c of columns.

    Each column is split into a (dim phi.domain, dim psi.domain) table
    through the domain layout's pair_index; phi then psi act on the table's
    axes, and the result is written back through the codomain layout's.
    An algebra in place of phi or psi is its identity map: its axis is
    split and scattered but never multiplied. A functional acts as a
    1 x dim map into scalar_algebra(), whose tensor factor shares the other
    factor's coordinates.
    """
    (dom1, cod1), (dom2, cod2) = _ends(phi), _ends(psi)
    lin = tensor_layout(dom1, dom2)
    lout = tensor_layout(cod1, cod2)
    columns = np.asarray(columns)
    if columns.ndim != 2 or columns.shape[0] != lin.product.dim:
        raise InvalidMatrixError(
            f"columns of shape {columns.shape} are not coordinates over {lin.product}"
        )
    n = columns.shape[1]
    _require_lift_fits(phi, psi, n)
    # the index arrays first, so their build temporaries are freed before the
    # large arrays exist; then the result, under the steps freed on return
    pin, pout = lin.pair_index, lout.pair_index
    out = np.empty((lout.product.dim, n), dtype=complex)
    table = columns[pin]  # (dim dom1, dim dom2, n)
    if isinstance(phi, StarMorphism):
        table = phi.matrix @ table.reshape(dom1.dim, dom2.dim * n)
        table = table.reshape(cod1.dim, dom2.dim, n)
    if isinstance(psi, StarMorphism):
        table = psi.matrix @ table  # one matmul per row of phi's image
    out[pout] = table
    return out


def tensor_morphisms(phi: StarMorphism, psi: StarMorphism) -> StarMorphism:
    """The map phi (x) psi between the tensor product algebras."""
    lin = tensor_layout(phi.domain, psi.domain)
    _require_lift_fits(phi, psi, lin.product.dim)  # before the identity exists
    mat = lift(phi, psi, np.eye(lin.product.dim))
    codomain = tensor_layout(phi.codomain, psi.codomain).product
    return StarMorphism(lin.product, codomain, mat)


def flip(left: FdCStarAlgebra, right: FdCStarAlgebra) -> StarMorphism:
    """The tensor swap x (x) y -> y (x) x as a morphism of product algebras."""
    fwd = tensor_layout(left, right)
    rev = tensor_layout(right, left)
    mat = np.zeros((rev.product.dim, fwd.product.dim), dtype=complex)
    rows = rev.pair_index.T.reshape(-1)  # [j, i] flattened in (i, j) order
    mat[rows, fwd.pair_index.reshape(-1)] = 1.0
    return StarMorphism(fwd.product, rev.product, mat)


class Character(StarMorphism):
    """A unital *-homomorphism onto the complex numbers."""

    def __init__(self, domain: FdCStarAlgebra, matrix: np.ndarray) -> None:
        super().__init__(domain, scalar_algebra(), matrix)

    def value(self, x: AlgebraElement) -> complex:
        return complex(self(x).to_vec()[0])

    def as_functional(self) -> LinearFunctional:
        return LinearFunctional.from_values(self.domain, self.matrix.reshape(-1))

    @classmethod
    def from_functional(cls, functional: LinearFunctional) -> "Character":
        chi = cls(functional.algebra, functional.covector.reshape(1, -1))
        if not chi.is_star_hom():
            raise InvalidCharacterError(
                "functional is not multiplicative and unital: "
                + ", ".join(f"{k}={v:.3e}" for k, v in chi.defect_report.items())
            )
        return chi


def characters_of(algebra: FdCStarAlgebra) -> list[Character]:
    """All characters; one per size-1 block, in block order."""
    out = []
    for (off, n) in algebra.block_slices():
        if n != 1:
            continue
        row = np.zeros((1, algebra.dim), dtype=complex)
        row[0, off] = 1.0
        out.append(Character(algebra, row))
    return out


def functions_algebra(npoints: int) -> FdCStarAlgebra:
    """Complex functions on an n-point set: n blocks of size 1."""
    if npoints < 1:
        raise InvalidMatrixError("need at least one point")
    return make_algebra([1] * npoints)


def enumerate_set_map_tables(n: int) -> list[tuple[int, ...]]:
    """All self-maps of {0, ..., n-1} as lookup tables, lexicographic."""
    if n < 1:
        raise ResourceLimitError("need at least one point")
    if n > SET_MAP_CAP:
        raise ResourceLimitError(
            f"{n}^{n} maps exceed the enumeration cap (n <= {SET_MAP_CAP})"
        )
    return [tuple(t) for t in itertools.product(range(n), repeat=n)]


def set_map_morphism(table: Sequence[int]) -> StarMorphism:
    """Pullback f -> f o t on functions over a finite set, t a lookup table.

    Column j of the matrix is the indicator of the fiber t^{-1}(j).
    """
    table = [int(t) for t in table]
    n = len(table)
    alg = functions_algebra(n)
    if any(t < 0 or t >= n for t in table):
        raise InvalidMatrixError(f"table {table} is not a self-map of {n} points")
    mat = np.zeros((n, n), dtype=complex)
    mat[np.arange(n), table] = 1.0
    return StarMorphism(alg, alg, mat)


def enumerate_set_maps(n: int) -> list[StarMorphism]:
    """All n^n unital *-endomorphisms of functions on n points.

    Morphism k is the pullback of the k-th lookup table in lexicographic
    order; there are exactly n^n of them (4 for n = 2).
    """
    return [set_map_morphism(t) for t in enumerate_set_map_tables(n)]
