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
    _bilinear_table,
    adjoint_coords,
    contract,
    make_algebra,
    max_image_defect,
    module_span_rank,
    multiply,
    orthonormal_basis,
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
from .morphisms import StarMorphism, _integer_table, functions_algebra, scalar_algebra, slabs
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
    gram = contract(alg, adjoint_coords(alg, v), v)
    gram[np.diag_indices(rep.size)] -= alg.unit
    return _worst(alg, gram)


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
    """Check entries are projections and rows and columns each sum to 1.

    The largest commutator is taken over morphisms.slabs of the entries,
    each meeting all the grid's coordinates (a grid of a few dozen entries
    is one slab): entries k to k + s - 1 against every one after k,
    each pair counted once, as [earlier, later], since the SVD of -M can
    differ from that of M in the last bit. np.maximum keeps a NaN commutator.
    """
    alg = u.algebra
    p = u.entries
    ident = alg.unit
    defects = {
        "idempotent": _worst(alg, multiply(alg, p, p) - p),
        "hermitian": _worst(alg, adjoint_coords(alg, p) - p),
        "row_sums": _worst(alg, p.sum(axis=1) - ident),
        "col_sums": _worst(alg, p.sum(axis=0) - ident),
    }
    flat = p.reshape(-1, alg.dim)
    comm = -np.inf
    for s in slabs(len(flat), flat.size):
        x, y = flat[s, None], flat[None, s.start + 1 :]  # pairs (k + i, k + 1 + j), k = s.start
        diff = multiply(alg, x, y) - multiply(alg, y, x)
        diff[np.arange(len(x))[:, None] > np.arange(y.shape[1])] = 0  # j < i: met reversed
        comm = np.maximum(comm, _worst(alg, diff))
    return MagicReport(
        passed=all(within(v, tol) for v in defects.values()),
        defects=defects,
        max_commutator=float(comm),
    )


def projection_family_check(
    algebra: FdCStarAlgebra, projections: np.ndarray
) -> tuple[float, float]:
    """(sum defect, pairwise orthogonality defect) of an (..., k, dim) stack
    of lists of k projections, the worst over the leading axes. Projections
    summing to the identity are automatically pairwise orthogonal, so a
    tiny first defect forces a tiny second one; both are reported so that
    the implication can be observed numerically."""
    p = np.asarray(projections)
    if p.ndim < 2 or not p.shape[-2] or p.shape[-1] != algebra.dim:
        raise InvalidMatrixError(f"need (..., k >= 1, {algebra.dim}) coordinates, got {p.shape}")
    a, b = np.nonzero(~np.eye(p.shape[-2], dtype=bool))
    sum_defect = _worst(algebra, p.sum(axis=-2) - algebra.unit)
    return sum_defect, _worst(algebra, multiply(algebra, p[..., a, :], p[..., b, :]))


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
    return QuantumFamily(source, source, u.algebra, StarMorphism(source, layout.product, mat))


def permutation_magic_unitary(perm: Sequence[int]) -> MagicUnitary:
    """The scalar magic unitary with entry [i == perm[j]] at (i, j)."""
    perm = _integer_table(perm, 1, InvalidMatrixError)
    if (np.sort(perm) != np.arange(len(perm))).any():
        raise InvalidMatrixError(f"{perm.tolist()} is not a permutation of 0..{len(perm) - 1}")
    return MagicUnitary(scalar_algebra(), np.eye(len(perm))[:, perm, None])


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
    p = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    q = np.array([c * c, c * s, c * s, s * s], dtype=complex)
    pc, qc, zero = alg.unit - p, alg.unit - q, np.zeros(alg.dim)
    grid = [[p, pc, zero, zero], [pc, p, zero, zero], [zero, zero, q, qc], [zero, zero, qc, q]]
    return MagicUnitary(alg, np.array(grid))


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
    family.require_self_map("coefficient matrix")
    if omega.algebra != family.source:
        raise IncompatibleAlgebraError("functional lives over a different algebra")
    if not (omega.is_state() and omega.is_faithful()):
        raise DegenerateStateError("needs a faithful state on the source algebra")
    basis = orthonormal_basis(omega)
    # inv(B) a B per label coordinate: the coefficients over the columns m_l
    a = action_coefficients(family).transpose(2, 0, 1)
    coeffs = (np.linalg.inv(basis) @ a @ basis).transpose(1, 2, 0)
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
    """The modular identity (omega (x) id)(Psi(x) Psi(y)*) = omega(x y*) 1
    of an invariant state, over the canonical basis e_i of the source.

    With Psi(e_i) = sum_p e_p (x) a[p, i] and W[p, q] = omega(e_p e_q*),
    identity_defect is the worst norm of
    D[i, j] = sum_{p,q} W[p, q] a[p][i] a[q][j]* - W[i, j] 1. The identity is
    sesquilinear in (x, y), so it holds over every basis once it holds over
    one, and no basis change or inverse enters D. D carries the state's
    weights: an error eps on a direction of weight lambda reads eps * lambda.
    left_invertibility_defect, the worst norm of inv(W) D (inv(W) a^T W as a
    left inverse of the conjugate coefficients), reads it as eps, so the
    verdict needs both; it amplifies the rounding of D by ||inv(W)||, one
    over the least weight. For the normalized trace on M_n, W = I / n, and
    n * identity_defect is the conjugate matrix's isometry defect.
    """

    identity_defect: float
    left_invertibility_defect: float


def modular_report(
    family: QuantumFamily, omega: LinearFunctional, tol: float = DEFAULT_TOL
) -> ModularReport:
    """Check the modular identity of an invariant state over the canonical
    basis, with W[p, q] = omega(e_p e_q*) as the only structure of omega.

    Raises PreconditionError when omega is not a faithful state or when its
    invariance defect exceeds max(tol, 1e-8).
    """
    family.require_self_map("modular check")
    if omega.algebra != family.source:
        raise IncompatibleAlgebraError("functional lives over a different algebra")
    if not omega.is_state():
        raise PreconditionError("hypothesis violated: omega is not a state")
    if not omega.is_faithful():
        raise PreconditionError("hypothesis violated: omega is not faithful")
    defect, bound = invariance_defects(family, omega).defect, max(tol, 1e-8)
    if not within(defect, bound):
        raise PreconditionError(
            "hypothesis violated: omega is not invariant under the family "
            f"(defect {defect:.3e} above the bound {bound:.3e})"
        )
    source, param = family.source, family.label
    w = _bilinear_table(omega)[:, source.adjoint_permutation]
    a = action_coefficients(family)  # a[p, i]
    # middle[i, j] = sum_q c[q][i] a[q][j]*, c[q][i] = sum_p W[p, q] a[p][i]
    c = (w.T @ a.reshape(source.dim, -1)).reshape(a.shape)
    middle = contract(param, c, adjoint_coords(param, a))
    residual = middle - w[:, :, None] * param.unit
    left = np.linalg.solve(w, residual.reshape(source.dim, -1))
    return ModularReport(
        identity_defect=_worst(param, residual),
        left_invertibility_defect=_worst(param, left),
    )


@dataclass(frozen=True)
class DensityReport:
    """Rank of the span Psi(b)(1 (x) a) inside the product algebra, and
    its margins: the smallest kept and the largest dropped singular value
    over the largest (see linalg.BlockRank); a report built without them
    reads 0.0 for both."""

    rank: int
    total: int
    full: bool
    smallest_kept: float = 0.0
    largest_dropped: float = 0.0


def podles_rank(family: QuantumFamily) -> DensityReport:
    """Rank of the span of Psi(e_i) (1 (x) f_j) over all basis pairs.

    A full span is the nondegeneracy condition for the family viewed as an
    action: the orbit of the source under the family, localized by the
    label algebra, fills the whole product. The span is a right module
    over 1 (x) label, so its rank is summed over the label's blocks
    (algebra.module_span_rank).
    """
    layout = family.layout
    found = module_span_rank(layout, family.morphism, "right")
    total = layout.product.dim
    return DensityReport(
        rank=found.rank,
        total=total,
        full=found.rank == total,
        smallest_kept=found.smallest_kept,
        largest_dropped=found.largest_dropped,
    )
