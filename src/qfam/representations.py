"""Matrices over an algebra: corepresentation-style grids, magic unitaries,
and the structure matrix attached to a family by an invariant state.

A grid is a square array of elements of one algebra, stored as one
read-only (rows, cols, dim) array of canonical coordinates. The checks here
measure, in operator norm, how far it is from satisfying the
comultiplication rule, from being an isometry as a block matrix, or from
being a magic unitary (projection entries, rows and columns summing to the
identity).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    FdCStarAlgebra,
    LinearFunctional,
    adjoint_coords,
    make_algebra,
    max_image_defect,
    multiply,
    orthonormal_basis,
    sigma_map,
    span_rank,
    tensor_layout,
    within,
)
from .errors import (
    DegenerateStateError,
    IncompatibleAlgebraError,
    InvalidMatrixError,
    NotMagicError,
    PreconditionError,
)
from .families import QuantumFamily, action_coefficients, invariance_defects
from .morphisms import StarMorphism, functions_algebra, scalar_algebra
from .semigroups import QuantumSemigroup


def _worst(algebra: FdCStarAlgebra, coords: np.ndarray) -> float:
    """Worst operator norm over a coordinate array (last axis the basis)."""
    return max_image_defect(algebra, coords.reshape(-1, algebra.dim).T)


@dataclass(frozen=True, eq=False)
class Representation:
    """A square grid (v[k][l]) of elements of one algebra.

    entries may be given as an (n, n, dim) coordinate array, checked by its
    shape, or as a square grid of the algebra's elements or coordinate
    vectors, checked cell by cell; it is stored as a read-only array.
    """

    algebra: FdCStarAlgebra
    entries: np.ndarray

    def __post_init__(self) -> None:
        n, alg, grid = len(self.entries), self.algebra, self.entries
        if isinstance(grid, np.ndarray):
            square, in_algebra = grid.shape[1:2] == (n,), grid.shape[2:] == (alg.dim,)
        else:
            square = all(len(row) == n for row in grid)
            grid = [
                v.to_vec() if isinstance(v, AlgebraElement) and v.algebra == alg else v
                for row in grid
                for v in row
            ]
            in_algebra = all(np.shape(v) == (alg.dim,) for v in grid)
        if not n or not square:
            raise InvalidMatrixError("entries must form a nonempty square grid")
        if not in_algebra:
            raise IncompatibleAlgebraError(
                "all grid entries must belong to the stated algebra"
            )
        grid = np.array(grid, dtype=complex).reshape(n, n, alg.dim)
        grid.setflags(write=False)
        object.__setattr__(self, "entries", grid)

    @property
    def size(self) -> int:
        return len(self.entries)


def representation_defect(rep: Representation, sg: QuantumSemigroup) -> float:
    """Worst norm of Delta(v[k][l]) - sum_r v[k][r] (x) v[r][l]."""
    if rep.algebra != sg.algebra:
        raise IncompatibleAlgebraError("grid and semigroup algebras differ")
    v = rep.entries
    layout = tensor_layout(rep.algebra, rep.algebra)
    lhs = v @ sg.comultiplication.matrix.T
    rhs = layout.combine(np.einsum("kri,rlj->klij", v, v))
    return _worst(layout.product, lhs - rhs)


def matrix_isometry_defect(rep: Representation) -> float:
    """Worst norm of sum_k v[k][l]* v[k][t] - delta_{lt} 1.

    Zero means the grid, read as a block matrix, is an isometry.
    """
    alg, v = rep.algebra, rep.entries
    vstar = adjoint_coords(alg, v)
    gram = multiply(alg, vstar[:, :, None], v[:, None]).sum(axis=0)
    gram[np.diag_indices(rep.size)] -= alg.identity().to_vec()
    return _worst(alg, gram)


def tensor_representations(left: Representation, right: Representation) -> Representation:
    """Product grid with entries v[k][l] w[k'][l'], pair indices left-major.

    Both factors must live over the same algebra; an isometric pair yields
    an isometric product, and the comultiplication rule is preserved.
    """
    if left.algebra != right.algebra:
        raise IncompatibleAlgebraError("factors live over different algebras")
    alg = left.algebra
    v, w = left.entries, right.entries
    prod = multiply(alg, v[:, None, :, None], w[None, :, None, :])
    size = left.size * right.size
    return Representation(alg, prod.reshape(size, size, alg.dim))


@dataclass(frozen=True, eq=False)
class MagicUnitary(Representation):
    """A square grid of elements meant to be projections with magic sums."""


@dataclass(frozen=True)
class MagicReport:
    """Defects of the magic unitary laws plus the largest entry commutator.

    A strictly positive max_commutator certifies that the entries do not
    all commute, so the grid cannot come from a set of permutations.
    """

    passed: bool
    defects: dict[str, float]
    max_commutator: float


def magic_unitary_check(u: MagicUnitary, tol: float = DEFAULT_TOL) -> MagicReport:
    """Check entries are projections and rows and columns each sum to 1."""
    alg = u.algebra
    p = u.entries
    ident = alg.identity().to_vec()
    defects = {
        "idempotent": _worst(alg, multiply(alg, p, p) - p),
        "hermitian": _worst(alg, adjoint_coords(alg, p) - p),
        "row_sums": _worst(alg, p.sum(axis=1) - ident),
        "col_sums": _worst(alg, p.sum(axis=0) - ident),
    }
    flat = p.reshape(-1, alg.dim)
    a, b = np.triu_indices(len(flat), 1)
    comm = _worst(alg, multiply(alg, flat[a], flat[b]) - multiply(alg, flat[b], flat[a]))
    return MagicReport(
        passed=all(within(v, tol) for v in defects.values()),
        defects=defects,
        max_commutator=comm,
    )


def projection_family_check(entries: Sequence[AlgebraElement]) -> tuple[float, float]:
    """(sum defect, pairwise orthogonality defect) of a list of projections.

    Projections summing to the identity are automatically pairwise
    orthogonal, so a tiny first defect forces a tiny second one; both are
    reported so that the implication can be observed numerically.
    """
    entries = list(entries)
    if not entries:
        raise InvalidMatrixError("need at least one projection")
    alg = entries[0].algebra
    p = np.array([v.to_vec() for v in entries])
    a, b = np.nonzero(~np.eye(len(p), dtype=bool))
    sum_defect = _worst(alg, p.sum(axis=0) - alg.identity().to_vec())
    return sum_defect, _worst(alg, multiply(alg, p[a], p[b]))


def wang_family(u: MagicUnitary) -> QuantumFamily:
    """The family on functions over n points defined by an n x n magic unitary.

    The j-th point indicator maps to sum_i (indicator i) (x) u[i][j]. The
    magic relations make this a unital *-homomorphism; the grid is checked
    first and rejected with NotMagicError when it fails.
    """
    report = magic_unitary_check(u)
    if not report.passed:
        raise NotMagicError(
            "grid is not a magic unitary: "
            + ", ".join(f"{k}={v:.3e}" for k, v in report.defects.items())
        )
    source = functions_algebra(u.size)
    layout = tensor_layout(source, u.algebra)
    # the split table of column j is column j of the grid
    mat = layout.combine(u.entries.transpose(1, 0, 2)).T
    return QuantumFamily(
        source, source, u.algebra, StarMorphism(source, layout.product, mat)
    )


def permutation_magic_unitary(perm: Sequence[int]) -> MagicUnitary:
    """The scalar magic unitary with entry [i == perm[j]] at (i, j)."""
    perm = [int(p) for p in perm]
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise InvalidMatrixError(f"{perm} is not a permutation of 0..{n - 1}")
    return MagicUnitary(scalar_algebra(), np.eye(n)[:, perm, None])


def nonclassical_magic_4x4(theta: float) -> MagicUnitary:
    """A 4 x 4 magic unitary over the 2 x 2 matrices with noncommuting entries.

    Built from two projections p (onto the first coordinate) and q (onto
    the line at angle theta); the largest entry commutator has norm
    |sin(theta) cos(theta)|, so any theta not a multiple of pi/2 gives a
    grid that cannot come from permutations.
    """
    alg = make_algebra([2])
    c, s = np.cos(theta), np.sin(theta)
    if abs(c * s) < 1e-12:
        warnings.warn(
            "theta is a multiple of pi/2; the grid has commuting entries",
            stacklevel=2,
        )
    p = alg.element([np.array([[1.0, 0.0], [0.0, 0.0]])])
    q = alg.element([np.array([[c * c, c * s], [c * s, s * s]])])
    one = alg.identity()
    zero = alg.zero()
    pc = one - p
    qc = one - q
    entries = (
        (p, pc, zero, zero),
        (pc, p, zero, zero),
        (zero, zero, q, qc),
        (zero, zero, qc, q),
    )
    return MagicUnitary(alg, entries)


@dataclass(frozen=True)
class ActionMatrixReport:
    """Structure matrix of a family over an orthonormal basis of the source.

    basis is the omega-orthonormal basis as a (d, d) coordinate matrix whose
    column l is m_l, and coefficients[k, l] holds the label-algebra
    coordinates of the element a[k, l] with Psi(m_l) = sum_k m_k (x) a[k, l].
    When omega is an invariant state the matrix is an isometry; the
    conjugate-isometry defect is reported too when omega is a trace, and the
    comultiplication rule defect when a semigroup is supplied.
    """

    basis: np.ndarray
    coefficients: np.ndarray
    isometry_defect: float
    conjugate_isometry_defect: float | None
    representation_defect: float | None


def action_matrix(
    family: QuantumFamily,
    omega: LinearFunctional,
    sg: QuantumSemigroup | None = None,
) -> ActionMatrixReport:
    """Coefficient matrix of a self-map family over an omega-ON basis."""
    if not family.is_self_map:
        raise IncompatibleAlgebraError("coefficient matrix needs a self-map family")
    if omega.algebra != family.source:
        raise IncompatibleAlgebraError("functional lives over a different algebra")
    if not (omega.is_state() and omega.is_faithful()):
        raise DegenerateStateError("needs a faithful state on the source algebra")
    basis = orthonormal_basis(omega)
    coeffs = action_coefficients(family, basis)
    param = family.label
    rep = Representation(param, coeffs)
    conj_iso = None
    if omega.is_trace():
        conj = Representation(param, adjoint_coords(param, coeffs))
        conj_iso = matrix_isometry_defect(conj)
    rep_defect = None
    if sg is not None:
        rep_defect = representation_defect(rep, sg)
    return ActionMatrixReport(
        basis=basis,
        coefficients=coeffs,
        isometry_defect=matrix_isometry_defect(rep),
        conjugate_isometry_defect=conj_iso,
        representation_defect=rep_defect,
    )


@dataclass(frozen=True)
class ModularReport:
    """Compatibility of the family coefficients with the modular structure.

    basis is the omega-orthonormal basis as a (d, d) coordinate matrix whose
    column i is m_i, and sigma_matrix[i, p] expands the modular image of m_i
    back over the basis. identity_defect is the worst norm of
    sum_{p,q} a[p][i] s[p, q] a[q][j]* - s[i, j] 1, and
    left_invertibility_defect the worst norm of
    sum_t inv(s)[i, t] D[t, j] - delta_{ij} 1 for the same middle sums D,
    which exhibits a one-sided inverse for the conjugated coefficient
    matrix. For a tracial omega, s is the identity and the first defect
    reduces to the conjugate matrix being an isometry.
    """

    identity_defect: float
    left_invertibility_defect: float
    sigma_matrix: np.ndarray
    basis: np.ndarray


def modular_report(
    family: QuantumFamily, omega: LinearFunctional, tol: float = DEFAULT_TOL
) -> ModularReport:
    """Check the modular compatibility identity of an invariant state.

    Raises PreconditionError when omega is not a faithful state or when its
    invariance defect exceeds max(tol, 1e-8).
    """
    if not family.is_self_map:
        raise IncompatibleAlgebraError("modular check needs a self-map family")
    if omega.algebra != family.source:
        raise IncompatibleAlgebraError("functional lives over a different algebra")
    if not omega.is_state():
        raise PreconditionError("hypothesis violated: omega is not a state")
    if not omega.is_faithful():
        raise PreconditionError("hypothesis violated: omega is not faithful")
    basis = orthonormal_basis(omega)
    defect, bound = invariance_defects(family, omega).defect, max(tol, 1e-8)
    if not within(defect, bound):
        raise PreconditionError(
            "hypothesis violated: omega is not invariant under the family "
            f"(defect {defect:.3e} above the bound {bound:.3e})"
        )
    sigma = sigma_map(omega)
    smat = np.linalg.solve(basis, sigma @ basis).T  # rows: sigma(m_i) over basis
    param = family.label
    a = action_coefficients(family, basis)  # a[p, i]
    # middle[i, j] = sum_q (sum_p s[p, q] a[p][i]) a[q][j]*
    c = np.einsum("pq,pia->qia", smat, a)
    astar = adjoint_coords(param, a)
    middle = multiply(param, c[:, :, None], astar[:, None]).sum(axis=0)
    ident = param.identity().to_vec()
    left = np.einsum("it,tja->ija", np.linalg.inv(smat), middle)
    left[np.diag_indices(len(left))] -= ident
    return ModularReport(
        identity_defect=_worst(param, middle - smat[:, :, None] * ident),
        left_invertibility_defect=_worst(param, left),
        sigma_matrix=smat,
        basis=basis,
    )


@dataclass(frozen=True)
class DensityReport:
    """Rank of the span Psi(b)(1 (x) a) inside the product algebra."""

    rank: int
    total: int
    full: bool


def podles_rank(family: QuantumFamily) -> DensityReport:
    """Rank of the span of Psi(e_i) (1 (x) f_j) over all basis pairs.

    A full span is the nondegeneracy condition for the family viewed as an
    action: the orbit of the source under the family, localized by the
    label algebra, fills the whole product.
    """
    layout = family.layout
    rank = span_rank(layout.product, family.morphism.matrix.T, layout.right_units())
    total = layout.product.dim
    return DensityReport(rank=rank, total=total, full=rank == total)
