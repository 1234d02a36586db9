"""Matrices over an algebra: corepresentation-style grids, magic unitaries,
and the structure matrix attached to a family by an invariant state.

A grid is a tuple of tuples of algebra elements, all from one algebra. The
checks here convert it once into a (rows, cols, dim) coordinate array and
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
    adjoint_permutation,
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


def grid_array(entries: Sequence[Sequence[AlgebraElement]]) -> np.ndarray:
    """Coordinates of a grid of elements as one (rows, cols, dim) array."""
    return np.array([[v.to_vec() for v in row] for row in entries], dtype=complex)


def _adjoint(algebra: FdCStarAlgebra, coords: np.ndarray) -> np.ndarray:
    return coords[..., adjoint_permutation(algebra)].conj()


def _worst(algebra: FdCStarAlgebra, coords: np.ndarray) -> float:
    """Worst operator norm over a coordinate array (last axis the basis)."""
    return max_image_defect(algebra, coords.reshape(-1, algebra.dim).T)


@dataclass(frozen=True)
class Representation:
    """A square grid (v[k][l]) of elements of one algebra."""

    algebra: FdCStarAlgebra
    entries: tuple[tuple[AlgebraElement, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.entries)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise InvalidMatrixError("entries must form a nonempty square grid")
        for row in rows:
            for v in row:
                if not isinstance(v, AlgebraElement) or v.algebra != self.algebra:
                    raise IncompatibleAlgebraError(
                        "all grid entries must belong to the stated algebra"
                    )
        object.__setattr__(self, "entries", rows)

    @property
    def size(self) -> int:
        return len(self.entries)


def _representation_defect(
    algebra: FdCStarAlgebra, v: np.ndarray, sg: QuantumSemigroup
) -> float:
    if algebra != sg.algebra:
        raise IncompatibleAlgebraError("grid and semigroup algebras differ")
    layout = tensor_layout(algebra, algebra)
    lhs = v @ sg.comultiplication.matrix.T
    rhs = layout.combine(np.einsum("kri,rlj->klij", v, v))
    return _worst(layout.product, lhs - rhs)


def representation_defect(rep: Representation, sg: QuantumSemigroup) -> float:
    """Worst norm of Delta(v[k][l]) - sum_r v[k][r] (x) v[r][l]."""
    return _representation_defect(rep.algebra, grid_array(rep.entries), sg)


def _isometry_defect(algebra: FdCStarAlgebra, v: np.ndarray) -> float:
    gram = multiply(algebra, _adjoint(algebra, v)[:, :, None], v[:, None]).sum(axis=0)
    gram[np.diag_indices(v.shape[1])] -= algebra.identity().to_vec()
    return _worst(algebra, gram)


def matrix_isometry_defect(
    entries: Sequence[Sequence[AlgebraElement]],
) -> float:
    """Worst norm of sum_k v[k][l]* v[k][t] - delta_{lt} 1.

    Zero means the grid, read as a block matrix, is an isometry.
    """
    return _isometry_defect(entries[0][0].algebra, grid_array(entries))


def tensor_representations(left: Representation, right: Representation) -> Representation:
    """Product grid with entries v[k][l] w[k'][l'], pair indices left-major.

    Both factors must live over the same algebra; an isometric pair yields
    an isometric product, and the comultiplication rule is preserved.
    """
    if left.algebra != right.algebra:
        raise IncompatibleAlgebraError("factors live over different algebras")
    alg = left.algebra
    v, w = grid_array(left.entries), grid_array(right.entries)
    prod = multiply(alg, v[:, None, :, None], w[None, :, None, :])
    size = left.size * right.size
    rows = prod.reshape(size, size, alg.dim)
    return Representation(alg, tuple(tuple(map(alg.from_vec, row)) for row in rows))


@dataclass(frozen=True)
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
    p = grid_array(u.entries)
    ident = alg.identity().to_vec()
    defects = {
        "idempotent": _worst(alg, multiply(alg, p, p) - p),
        "hermitian": _worst(alg, _adjoint(alg, p) - p),
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


def projection_family_check(
    entries: Sequence[AlgebraElement], tol: float = DEFAULT_TOL
) -> tuple[float, float]:
    """(sum defect, pairwise orthogonality defect) of a list of projections.

    Projections summing to the identity are automatically pairwise
    orthogonal, so a tiny first defect forces a tiny second one; both are
    reported so that the implication can be observed numerically.
    """
    entries = list(entries)
    if not entries:
        raise InvalidMatrixError("need at least one projection")
    alg = entries[0].algebra
    p = grid_array([entries])[0]
    a, b = np.nonzero(~np.eye(len(p), dtype=bool))
    sum_defect = _worst(alg, p.sum(axis=0) - alg.identity().to_vec())
    return sum_defect, _worst(alg, multiply(alg, p[a], p[b]))


def wang_family(u: MagicUnitary, tol: float = DEFAULT_TOL) -> QuantumFamily:
    """The family on functions over n points defined by an n x n magic unitary.

    The j-th point indicator maps to sum_i (indicator i) (x) u[i][j]. The
    magic relations make this a unital *-homomorphism; the grid is checked
    first and rejected with NotMagicError when it fails.
    """
    report = magic_unitary_check(u, tol)
    if not report.passed:
        raise NotMagicError(
            "grid is not a magic unitary: "
            + ", ".join(f"{k}={v:.3e}" for k, v in report.defects.items())
        )
    source = functions_algebra(u.size)
    layout = tensor_layout(source, u.algebra)
    # the split table of column j is column j of the grid
    mat = layout.combine(grid_array(u.entries).transpose(1, 0, 2)).T
    return QuantumFamily(
        source, source, u.algebra, StarMorphism(source, layout.product, mat)
    )


def permutation_magic_unitary(perm: Sequence[int]) -> MagicUnitary:
    """The scalar magic unitary with entry [i == perm[j]] at (i, j)."""
    perm = [int(p) for p in perm]
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise InvalidMatrixError(f"{perm} is not a permutation of 0..{n - 1}")
    alg = scalar_algebra()
    one = alg.identity()
    zero = alg.zero()
    entries = [[one if i == perm[j] else zero for j in range(n)] for i in range(n)]
    return MagicUnitary(alg, tuple(tuple(r) for r in entries))


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

    coefficients[k, l] holds the label-algebra coordinates of the
    element a[k, l] with Psi(m_l) = sum_k m_k (x) a[k, l]. When omega is an
    invariant state the matrix is an isometry; the conjugate-isometry
    defect is reported too when omega is a trace, and the comultiplication
    rule defect when a semigroup is supplied.
    """

    basis: tuple[AlgebraElement, ...]
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
    basis = orthonormal_basis(family.source, omega)
    coeffs = action_coefficients(family, basis)
    param = family.label
    conj_iso = None
    if omega.is_trace():
        conj_iso = _isometry_defect(param, _adjoint(param, coeffs))
    rep_defect = None
    if sg is not None:
        rep_defect = _representation_defect(param, coeffs, sg)
    return ActionMatrixReport(
        basis=tuple(basis),
        coefficients=coeffs,
        isometry_defect=_isometry_defect(param, coeffs),
        conjugate_isometry_defect=conj_iso,
        representation_defect=rep_defect,
    )


@dataclass(frozen=True)
class ModularReport:
    """Compatibility of the family coefficients with the modular structure.

    sigma_matrix[i, p] expands the modular image of the i-th basis element
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
    basis: tuple[AlgebraElement, ...]


def modular_report(
    family: QuantumFamily,
    omega: LinearFunctional,
    tol: float = DEFAULT_TOL,
    require_invariant: bool = True,
) -> ModularReport:
    """Check the modular compatibility identity of an invariant state.

    Raises PreconditionError when omega is not a faithful state or (unless
    require_invariant is switched off) not invariant under the family.
    """
    if not family.is_self_map:
        raise IncompatibleAlgebraError("modular check needs a self-map family")
    if omega.algebra != family.source:
        raise IncompatibleAlgebraError("functional lives over a different algebra")
    if not omega.is_state():
        raise PreconditionError("hypothesis violated: omega is not a state")
    if not omega.is_faithful():
        raise PreconditionError("hypothesis violated: omega is not faithful")
    basis = orthonormal_basis(family.source, omega)
    if require_invariant:
        inv = invariance_defects(family, omega, basis=basis)
        if not within(inv.defect, max(tol, 1e-8)):
            raise PreconditionError(
                "hypothesis violated: omega is not invariant under the family "
                f"(defect {inv.defect:.3e})"
            )
    sigma = sigma_map(family.source, omega)
    bmat = np.column_stack([m.to_vec() for m in basis])
    smat = np.linalg.solve(bmat, sigma @ bmat).T  # rows: sigma(m_i) over basis
    param = family.label
    a = action_coefficients(family, basis)  # a[p, i]
    # middle[i, j] = sum_q (sum_p s[p, q] a[p][i]) a[q][j]*
    c = np.einsum("pq,pia->qia", smat, a)
    middle = multiply(param, c[:, :, None], _adjoint(param, a)[:, None]).sum(axis=0)
    ident = param.identity().to_vec()
    left = np.einsum("it,tja->ija", np.linalg.inv(smat), middle)
    left[np.diag_indices(len(left))] -= ident
    return ModularReport(
        identity_defect=_worst(param, middle - smat[:, :, None] * ident),
        left_invertibility_defect=_worst(param, left),
        sigma_matrix=smat,
        basis=tuple(basis),
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
