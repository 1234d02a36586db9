"""Finite-dimensional C*-algebras as direct sums of complex matrix blocks.

Everything in this package lives over an :class:`FdCStarAlgebra`, a finite
direct sum M_{n_1} + ... + M_{n_K} of full matrix algebras. Elements are
stored blockwise, functionals through density elements, and tensor products
through explicit index maps so that every linear map has a reproducible
matrix over the canonical basis of matrix units.

Conventions fixed here and relied on by every other module:

* the canonical basis consists of the matrix units E^(k)_{r,s} ordered
  lexicographically by (block, row, column);
* tensor products order the product blocks with the left factor major, and
  inside a block pair use the Kronecker (row-major) convention;
* all scalars are complex128; checks report a defect value and the caller
  compares it with a bound through :func:`within`: the defect and the bound
  must both be finite and the defect at most the bound. The bound is the
  tolerance (default 1e-9) as given, except for *-homomorphism checks, which
  scale it by max(1, max|matrix entry|)^2;
* norms of elements are operator norms (largest singular value over blocks);
* batches of elements are coordinate arrays whose last axis is the canonical
  basis: :func:`multiply` forms their products and
  :func:`column_element_norms` their norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Number
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateStateError,
    IncompatibleAlgebraError,
    InvalidDimensionError,
)
from .linalg import numeric_rank

DEFAULT_TOL = 1e-9
FAITHFULNESS_FLOOR = 1e-12


def within(defect: float, bound: float) -> bool:
    """The verdict rule: defect and bound are finite and defect <= bound."""
    return bool(np.isfinite(defect) and np.isfinite(bound) and defect <= bound)


@dataclass(frozen=True)
class FdCStarAlgebra:
    """A finite direct sum of full matrix algebras, given by its block sizes.

    Two instances compare equal iff they have the same block dimension list,
    so the tensor product of algebras built along different routes is the
    same algebra whenever the flattened dimensions agree.
    """

    block_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(self.block_dims)
        if len(dims) == 0:
            raise InvalidDimensionError("an algebra needs at least one block")
        for n in dims:
            if not isinstance(n, (int, np.integer)) or n < 1:
                raise InvalidDimensionError(
                    f"block dimension {n!r} is not a positive integer"
                )
        object.__setattr__(self, "block_dims", tuple(int(n) for n in dims))

    @cached_property
    def dim(self) -> int:
        """Total linear dimension, the sum of the squared block sizes."""
        return int(sum(n * n for n in self.block_dims))

    @cached_property
    def _offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for n in self.block_dims:
            out.append(acc)
            acc += n * n
        return tuple(out)

    def block_slices(self) -> tuple[tuple[int, int], ...]:
        """(offset, size) of the coordinate range of each block."""
        return tuple(zip(self._offsets, self.block_dims))

    @cached_property
    def size_groups(self) -> tuple[tuple[int, np.ndarray], ...]:
        """(n, idx) per distinct block size n, where idx[b, r, s] is the
        coordinate of entry (r, s) of the b-th block of size n."""
        dims, offs = np.array(self.block_dims), np.array(self._offsets)
        return tuple(
            (n, offs[dims == n, None, None] + np.arange(n * n).reshape(n, n))
            for n in dict.fromkeys(self.block_dims)
        )

    def basis_index(self, block: int, row: int, col: int) -> int:
        return self._offsets[block] + row * self.block_dims[block] + col

    @cached_property
    def basis_labels(self) -> tuple[tuple[int, int, int], ...]:
        """(block, row, col) of each canonical matrix unit, in lex order."""
        out = []
        for k, n in enumerate(self.block_dims):
            for r in range(n):
                for s in range(n):
                    out.append((k, r, s))
        return tuple(out)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(
            self, [np.zeros((n, n), dtype=complex) for n in self.block_dims]
        )

    def identity(self) -> "AlgebraElement":
        return AlgebraElement(self, [np.eye(n, dtype=complex) for n in self.block_dims])

    def basis_element(self, index: int) -> "AlgebraElement":
        k, r, s = self.basis_labels[index]
        blocks = [np.zeros((n, n), dtype=complex) for n in self.block_dims]
        blocks[k][r, s] = 1.0
        return AlgebraElement(self, blocks)

    def basis(self) -> list["AlgebraElement"]:
        return list(_canonical_basis(self))

    def element(self, blocks: Iterable) -> "AlgebraElement":
        return AlgebraElement(self, blocks)

    def from_vec(self, vec: np.ndarray) -> "AlgebraElement":
        vec = np.asarray(vec, dtype=complex).reshape(self.dim)
        blocks = [
            vec[off : off + n * n].reshape(n, n) for off, n in self.block_slices()
        ]
        return AlgebraElement(self, blocks)

    def __repr__(self) -> str:
        return f"FdCStarAlgebra({list(self.block_dims)})"


def make_algebra(block_dims: Sequence[int]) -> FdCStarAlgebra:
    """Build the direct sum of full matrix algebras with the given sizes."""
    return FdCStarAlgebra(tuple(block_dims))


@lru_cache(maxsize=None)
def _canonical_basis(algebra: FdCStarAlgebra) -> tuple["AlgebraElement", ...]:
    return tuple(algebra.basis_element(i) for i in range(algebra.dim))


class AlgebraElement:
    """One complex matrix per block of a parent algebra.

    Instances are immutable after construction; arithmetic returns new
    elements and raises when the operands belong to different algebras.
    """

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra: FdCStarAlgebra, blocks: Iterable) -> None:
        mats = tuple(np.array(b, dtype=complex) for b in blocks)
        if len(mats) != len(algebra.block_dims):
            raise IncompatibleAlgebraError(
                f"expected {len(algebra.block_dims)} blocks, got {len(mats)}"
            )
        for mat, n in zip(mats, algebra.block_dims):
            if mat.shape != (n, n):
                raise IncompatibleAlgebraError(
                    f"block of shape {mat.shape} does not match size {n}"
                )
            mat.setflags(write=False)
        self.algebra = algebra
        self.blocks = mats

    def _require_same(self, other: "AlgebraElement") -> None:
        if not isinstance(other, AlgebraElement):
            raise TypeError(f"expected an AlgebraElement, got {type(other).__name__}")
        if other.algebra != self.algebra:
            raise IncompatibleAlgebraError(
                f"operands live over {self.algebra} and {other.algebra}"
            )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same(other)
        return AlgebraElement(
            self.algebra, [a + b for a, b in zip(self.blocks, other.blocks)]
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same(other)
        return AlgebraElement(
            self.algebra, [a - b for a, b in zip(self.blocks, other.blocks)]
        )

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [-a for a in self.blocks])

    def __mul__(self, other):
        if isinstance(other, Number):
            return AlgebraElement(self.algebra, [a * other for a in self.blocks])
        self._require_same(other)
        return AlgebraElement(
            self.algebra, [a @ b for a, b in zip(self.blocks, other.blocks)]
        )

    def __rmul__(self, other):
        if isinstance(other, Number):
            return AlgebraElement(self.algebra, [other * a for a in self.blocks])
        return NotImplemented

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [a.conj().T for a in self.blocks])

    def norm(self) -> float:
        """Operator norm: the largest singular value over all blocks."""
        return float(column_element_norms(self.algebra, self.to_vec())[0])

    def to_vec(self) -> np.ndarray:
        return np.concatenate([m.ravel() for m in self.blocks])

    def __repr__(self) -> str:
        return f"AlgebraElement({self.algebra!r})"


def multiply(algebra: FdCStarAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coordinates of the products x * y of coordinate arrays.

    The last axis of x and y is the canonical basis; the leading axes
    broadcast. The blocks of each size are multiplied by one matmul.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    out = np.empty(shape + (algebra.dim,), dtype=np.result_type(x, y, complex))
    for n, idx in algebra.size_groups:
        a, b = x[..., idx], y[..., idx]
        out[..., idx] = a * b if n == 1 else a @ b
    return out


def span_rank(algebra: FdCStarAlgebra, xs: np.ndarray, ys: np.ndarray) -> int:
    """Numeric rank of the span of all products x * y, for x a row of xs
    and y a row of ys (coordinate rows)."""
    products = multiply(algebra, xs[:, None, :], ys[None, :, :])
    return numeric_rank(products.reshape(-1, algebra.dim))


def column_element_norms(algebra: FdCStarAlgebra, matrix: np.ndarray) -> np.ndarray:
    """Operator norm of the element encoded by each column of matrix.

    A column with a NaN coordinate has norm NaN; one with an infinite
    coordinate and no NaN has norm inf.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim == 1:
        matrix = matrix.reshape(-1, 1)
    out = np.zeros(matrix.shape[1])
    for n, idx in algebra.size_groups:
        sub = np.moveaxis(matrix[idx], -1, 0)  # (column, block, n, n)
        if n == 1:
            vals = np.abs(sub[..., 0, 0])
        elif np.isfinite(sub).all():
            vals = np.linalg.svd(sub, compute_uv=False)[..., 0]
        else:
            finite = np.isfinite(sub).all(axis=(-2, -1))
            vals = np.where(np.isnan(sub).any(axis=(-2, -1)), np.nan, np.inf)
            vals[finite] = np.linalg.svd(sub[finite], compute_uv=False)[:, 0]
        np.maximum(out, vals.max(axis=1), out=out)
    return out


def max_image_defect(codomain: FdCStarAlgebra, matrix_diff: np.ndarray) -> float:
    """Worst operator norm over the columns of a matrix of element
    differences; NaN when any column's norm is NaN."""
    norms = column_element_norms(codomain, matrix_diff)
    return float(norms.max()) if norms.size else 0.0


@lru_cache(maxsize=None)
def multiplication_table(algebra: FdCStarAlgebra) -> np.ndarray:
    """Index of e_i * e_j in the canonical basis, or -1 when the product is 0."""
    d = algebra.dim
    table = np.full((d, d), -1, dtype=np.intp)
    for k, n in enumerate(algebra.block_dims):
        for r in range(n):
            for s in range(n):
                i = algebra.basis_index(k, r, s)
                for s2 in range(n):
                    j = algebra.basis_index(k, s, s2)
                    table[i, j] = algebra.basis_index(k, r, s2)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def adjoint_permutation(algebra: FdCStarAlgebra) -> np.ndarray:
    """Permutation p with e_i^* = e_{p[i]} on the canonical basis."""
    perm = np.empty(algebra.dim, dtype=np.intp)
    for i, (k, r, s) in enumerate(algebra.basis_labels):
        perm[i] = algebra.basis_index(k, s, r)
    perm.setflags(write=False)
    return perm


class LinearFunctional:
    """A functional omega(x) = sum_k trace(rho_k x_k) stored via its density."""

    __slots__ = ("algebra", "density", "_cov")

    def __init__(self, algebra: FdCStarAlgebra, density: AlgebraElement) -> None:
        if density.algebra != algebra:
            raise IncompatibleAlgebraError("density must live in the same algebra")
        self.algebra = algebra
        self.density = density
        self._cov = None

    @property
    def covector(self) -> np.ndarray:
        """Values on the canonical basis, as a vector of length dim."""
        if self._cov is None:
            cov = np.concatenate([rho.T.ravel() for rho in self.density.blocks])
            cov.setflags(write=False)
            self._cov = cov
        return self._cov

    def __call__(self, x: AlgebraElement) -> complex:
        if x.algebra != self.algebra:
            raise IncompatibleAlgebraError("argument lives over a different algebra")
        return complex(np.dot(self.covector, x.to_vec()))

    @classmethod
    def from_values(
        cls, algebra: FdCStarAlgebra, values: np.ndarray
    ) -> "LinearFunctional":
        """Functional with the given values on the canonical basis."""
        values = np.asarray(values, dtype=complex).reshape(algebra.dim)
        blocks = [
            values[off : off + n * n].reshape(n, n).T
            for off, n in algebra.block_slices()
        ]
        return cls(algebra, AlgebraElement(algebra, blocks))

    def is_state(self, tol: float = DEFAULT_TOL) -> bool:
        """Hermitian positive semidefinite density with total trace 1."""
        total = 0.0 + 0.0j
        for rho in self.density.blocks:
            if np.abs(rho - rho.conj().T).max() > tol:
                return False
            if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -tol:
                return False
            total += np.trace(rho)
        return abs(total - 1.0) <= tol

    def is_faithful(self, floor: float = FAITHFULNESS_FLOOR) -> bool:
        """Every density block has minimum eigenvalue at or above the floor."""
        for rho in self.density.blocks:
            if np.abs(rho - rho.conj().T).max() > DEFAULT_TOL:
                return False
            if np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < floor:
                return False
        return True

    def is_trace(self, tol: float = DEFAULT_TOL) -> bool:
        """Every density block is a nonnegative scalar multiple of the identity."""
        for rho, n in zip(self.density.blocks, self.algebra.block_dims):
            c = np.trace(rho) / n
            if abs(c.imag) > tol or c.real < -tol:
                return False
            if np.abs(rho - c * np.eye(n)).max() > tol:
                return False
        return True

    def __repr__(self) -> str:
        return f"LinearFunctional({self.algebra!r})"


def trace_state(algebra: FdCStarAlgebra) -> LinearFunctional:
    """The normalized trace; on a commutative algebra, the uniform measure."""
    total = sum(algebra.block_dims)
    density = algebra.identity() * (1.0 / total)
    return LinearFunctional(algebra, density)


@dataclass(frozen=True)
class TensorLayout:
    """Index bookkeeping for the tensor product of two algebras.

    The product algebra has one block per pair of factor blocks, ordered
    with the left factor major; inside a block pair the matrix indices
    follow the Kronecker convention. The same layout rules compose
    associatively, so coordinates of iterated products can be reused
    without reindexing.
    """

    left: FdCStarAlgebra
    right: FdCStarAlgebra

    @cached_property
    def product(self) -> FdCStarAlgebra:
        dims = [n * m for n in self.left.block_dims for m in self.right.block_dims]
        return FdCStarAlgebra(tuple(dims))

    @cached_property
    def pair_index(self) -> np.ndarray:
        """pair_index[i, j] = product basis index of e_i (x) f_j."""
        # (block, row, col) of e_i down the rows, of f_j along the columns
        k, r, s = np.array(self.left.basis_labels, dtype=np.intp).T[:, :, None]
        l, rho, sig = np.array(self.right.basis_labels, dtype=np.intp).T[:, None, :]
        n = np.array(self.left.block_dims)[k]
        m = np.array(self.right.block_dims)[l]
        off = np.array(self.product._offsets)[k * len(self.right.block_dims) + l]
        out = off + (r * m + rho) * (n * m) + s * m + sig
        out.setflags(write=False)
        return out

    def elem(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        """The element x (x) y of the product algebra."""
        if x.algebra != self.left or y.algebra != self.right:
            raise IncompatibleAlgebraError(
                "factors do not match the declared layout factors"
            )
        blocks = [np.kron(a, b) for a in x.blocks for b in y.blocks]
        return AlgebraElement(self.product, blocks)

    def split(self, vec: np.ndarray) -> np.ndarray:
        """Rearrange product coordinates into a (dim left, dim right) table."""
        return np.asarray(vec)[self.pair_index]

    def combine(self, table: np.ndarray) -> np.ndarray:
        """Inverse of split; leading axes of table are kept, so a stack of
        (dim left, dim right) tables gives a stack of product coordinates."""
        table = np.asarray(table)
        out = np.empty(table.shape[:-2] + (self.product.dim,), dtype=complex)
        out[..., self.pair_index] = table
        return out

    def left_units(self) -> np.ndarray:
        """Coordinate rows of e_i (x) 1, e_i the left factor's basis."""
        ident = self.right.identity().to_vec()
        return self.combine(np.eye(self.left.dim)[:, :, None] * ident)

    def right_units(self) -> np.ndarray:
        """Coordinate rows of 1 (x) f_j, f_j the right factor's basis."""
        ident = self.left.identity().to_vec()
        return self.combine(ident[None, :, None] * np.eye(self.right.dim)[:, None, :])


@lru_cache(maxsize=None)
def tensor_layout(left: FdCStarAlgebra, right: FdCStarAlgebra) -> TensorLayout:
    """Cached tensor layout for a pair of algebras."""
    return TensorLayout(left, right)


def tensor_product(a, b):
    """Tensor product of two algebras (a layout) or two elements."""
    if isinstance(a, FdCStarAlgebra) and isinstance(b, FdCStarAlgebra):
        return tensor_layout(a, b)
    if isinstance(a, AlgebraElement) and isinstance(b, AlgebraElement):
        return tensor_layout(a.algebra, b.algebra).elem(a, b)
    raise IncompatibleAlgebraError(
        "tensor_product expects two algebras or two elements"
    )


def _bilinear_table(algebra: FdCStarAlgebra, omega: LinearFunctional) -> np.ndarray:
    """T[i, j] = omega(e_i e_j) over the canonical basis."""
    table = multiplication_table(algebra)
    cov = np.concatenate([omega.covector, [0.0]])
    idx = np.where(table >= 0, table, algebra.dim)
    return cov[idx]


def orthonormal_basis(
    algebra: FdCStarAlgebra,
    omega: LinearFunctional,
    floor: float = FAITHFULNESS_FLOOR,
) -> list[AlgebraElement]:
    """Gram-Schmidt of the canonical basis for the inner product omega(x* y).

    The canonical order is kept, so the result is deterministic. Raises
    DegenerateStateError when the Gram matrix has an eigenvalue below the
    faithfulness floor.
    """
    if omega.algebra != algebra:
        raise IncompatibleAlgebraError("functional lives over a different algebra")
    d = algebra.dim
    gram = _bilinear_table(algebra, omega)[adjoint_permutation(algebra), :]
    min_eig = float(np.linalg.eigvalsh((gram + gram.conj().T) / 2).min())
    if min_eig < floor:
        raise DegenerateStateError(
            f"Gram matrix minimum eigenvalue {min_eig:.3e} is below {floor:g}"
        )
    cols: list[np.ndarray] = []
    for i in range(d):
        v = np.zeros(d, dtype=complex)
        v[i] = 1.0
        for _ in range(2):  # second pass keeps the basis orthonormal to ~1e-15
            for u in cols:
                v = v - (u.conj() @ (gram @ v)) * u
        nrm2 = float((v.conj() @ (gram @ v)).real)
        if nrm2 < floor:
            raise DegenerateStateError("Gram-Schmidt collapsed; functional degenerate")
        cols.append(v / np.sqrt(nrm2))
    return [algebra.from_vec(c) for c in cols]


def sigma_map(
    algebra: FdCStarAlgebra,
    omega: LinearFunctional,
    floor: float = FAITHFULNESS_FLOOR,
) -> np.ndarray:
    """Matrix, over the canonical basis, of the map sigma with
    omega(x y) = omega(y sigma(x)) for all x and y.

    For a faithful omega with density rho this is x -> rho x rho^{-1}; it
    is the identity exactly when omega is tracial, and always the identity
    on a commutative algebra. Solved as a linear system over the canonical
    basis; a non-faithful omega raises DegenerateStateError.
    """
    if omega.algebra != algebra:
        raise IncompatibleAlgebraError("functional lives over a different algebra")
    if not omega.is_faithful(floor):
        raise DegenerateStateError("the exchange map needs a faithful functional")
    table = _bilinear_table(algebra, omega)
    try:
        return np.linalg.solve(table, table.T)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded above
        raise DegenerateStateError("bilinear Gram system is singular") from exc
