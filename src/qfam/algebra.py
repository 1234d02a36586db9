"""Finite-dimensional C*-algebras as direct sums of complex matrix blocks.

Everything in this package lives over an :class:`FdCStarAlgebra`, a finite
direct sum M_{n_1} + ... + M_{n_K} of full matrix algebras. Elements are
stored as canonical coordinates, functionals through density elements, and
tensor products through explicit index maps so that every linear map has a
reproducible matrix over the canonical basis of matrix units.

Conventions fixed here and relied on by every other module:

* the canonical basis consists of the matrix units E^(k)_{r,s} ordered
  lexicographically by (block, row, column); its bookkeeping is index
  arrays: ``basis_labels`` is a (dim, 3) array of those labels, and
  :func:`multiplication_table` and :func:`adjoint_permutation` index the
  basis by it;
* every other basis is a (dim, k) coordinate matrix with one column per
  basis element (the canonical basis is ``np.eye(dim)``), as returned by
  :func:`orthonormal_basis`;
* tensor products order the product blocks with the left factor major, and
  inside a block pair use the Kronecker (row-major) convention;
* all scalars are complex128; checks report a defect value and the caller
  compares it with a bound through :func:`within`: the defect and the bound
  must both be finite and the defect at most the bound. The bound is the
  tolerance (default 1e-9) as given, except for *-homomorphism checks, which
  scale it by max(1, max|matrix entry|)^2;
* norms of elements are operator norms (largest singular value over blocks);
* an element is its read-only vector of canonical coordinates, and a grid of
  elements one (rows, cols, dim) coordinate array;
* batches of elements take the canonical basis on one of two axes:
  :func:`multiply` and :func:`adjoint_coords` read it on the last axis,
  with the leading axes broadcast, while :func:`column_element_norms`,
  morphism matrices and tensor lifts read it on the first axis, one column
  per element.
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
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
                raise InvalidDimensionError(
                    f"block dimension {n!r} is not a positive integer"
                )
        object.__setattr__(self, "block_dims", tuple(int(n) for n in dims))

    @cached_property
    def dim(self) -> int:
        """Total linear dimension, the sum of the squared block sizes."""
        return int(sum(n * n for n in self.block_dims))

    @cached_property
    def _offsets(self) -> np.ndarray:
        """First coordinate of each block."""
        sizes = np.array(self.block_dims, dtype=np.intp) ** 2
        out = np.cumsum(sizes) - sizes
        out.setflags(write=False)
        return out

    def block_slices(self) -> tuple[tuple[int, int], ...]:
        """(offset, size) of the coordinate range of each block."""
        return tuple(zip(self._offsets.tolist(), self.block_dims))

    @cached_property
    def size_groups(self) -> tuple[tuple[int, np.ndarray], ...]:
        """(n, idx) per distinct block size n, where idx[b, r, s] is the
        coordinate of entry (r, s) of the b-th block of size n."""
        dims = np.array(self.block_dims)
        return tuple(
            (n, self._offsets[dims == n, None, None] + np.arange(n * n).reshape(n, n))
            for n in dict.fromkeys(self.block_dims)
        )

    def basis_index(self, block: int, row: int, col: int) -> int:
        return int(self._offsets[block]) + row * self.block_dims[block] + col

    @cached_property
    def basis_labels(self) -> np.ndarray:
        """(block, row, col) of each canonical matrix unit, one row each, in
        lex order; a read-only (dim, 3) array."""
        dims = np.array(self.block_dims, dtype=np.intp)
        block = np.repeat(np.arange(len(dims)), dims * dims)
        local = np.arange(self.dim) - self._offsets[block]
        n = dims[block]
        out = np.stack([block, local // n, local % n], axis=1)
        out.setflags(write=False)
        return out

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, np.zeros(self.dim))

    def identity(self) -> "AlgebraElement":
        labels = self.basis_labels
        return AlgebraElement(self, labels[:, 1] == labels[:, 2])

    def basis_element(self, index: int) -> "AlgebraElement":
        vec = np.zeros(self.dim)
        vec[index] = 1.0
        return AlgebraElement(self, vec)

    def element(self, blocks: Iterable) -> "AlgebraElement":
        """The element with the given (n, n) matrix in each block."""
        mats = [np.asarray(b, dtype=complex) for b in blocks]
        if len(mats) != len(self.block_dims):
            raise IncompatibleAlgebraError(
                f"expected {len(self.block_dims)} blocks, got {len(mats)}"
            )
        for mat, n in zip(mats, self.block_dims):
            if mat.shape != (n, n):
                raise IncompatibleAlgebraError(
                    f"block of shape {mat.shape} does not match size {n}"
                )
        return AlgebraElement(self, np.concatenate([m.ravel() for m in mats]))

    def block_views(self, vec: np.ndarray) -> tuple[np.ndarray, ...]:
        """The (n, n) blocks of a coordinate vector, as views into it."""
        slices = self.block_slices()
        return tuple(vec[off : off + n * n].reshape(n, n) for off, n in slices)

    def __repr__(self) -> str:
        return f"FdCStarAlgebra({list(self.block_dims)})"


def make_algebra(block_dims: Sequence[int]) -> FdCStarAlgebra:
    """Build the direct sum of full matrix algebras with the given sizes."""
    return FdCStarAlgebra(tuple(block_dims))


class AlgebraElement:
    """An element of a parent algebra, stored as its canonical coordinates.

    The coordinate vector is read-only, so instances are immutable;
    arithmetic returns new elements and raises when the operands belong to
    different algebras.
    """

    __slots__ = ("algebra", "_vec")

    def __init__(self, algebra: FdCStarAlgebra, coords: np.ndarray) -> None:
        vec = np.array(coords, dtype=complex)
        if vec.shape != (algebra.dim,):
            raise IncompatibleAlgebraError(
                f"coordinates of shape {vec.shape} do not match dimension {algebra.dim}"
            )
        vec.setflags(write=False)
        self.algebra = algebra
        self._vec = vec

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        """Read-only (n, n) views into the coordinates, one per block."""
        return self.algebra.block_views(self._vec)

    def _require_same(self, other: "AlgebraElement") -> None:
        if not isinstance(other, AlgebraElement):
            raise TypeError(f"expected an AlgebraElement, got {type(other).__name__}")
        if other.algebra != self.algebra:
            raise IncompatibleAlgebraError(
                f"operands live over {self.algebra} and {other.algebra}"
            )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same(other)
        return AlgebraElement(self.algebra, self._vec + other._vec)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same(other)
        return AlgebraElement(self.algebra, self._vec - other._vec)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, -self._vec)

    def __mul__(self, other):
        if isinstance(other, Number):
            return AlgebraElement(self.algebra, self._vec * other)
        self._require_same(other)
        product = multiply(self.algebra, self._vec, other._vec)
        return AlgebraElement(self.algebra, product)

    def __rmul__(self, other):
        if isinstance(other, Number):
            return AlgebraElement(self.algebra, other * self._vec)
        return NotImplemented

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement(self.algebra, adjoint_coords(self.algebra, self._vec))

    def norm(self) -> float:
        """Operator norm: the largest singular value over all blocks."""
        return float(column_element_norms(self.algebra, self._vec)[0])

    def to_vec(self) -> np.ndarray:
        """The read-only coordinate vector itself, not a copy."""
        return self._vec

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


def adjoint_coords(algebra: FdCStarAlgebra, x: np.ndarray) -> np.ndarray:
    """Coordinates of the adjoints x* of a coordinate array (last axis the
    canonical basis)."""
    return x[..., adjoint_permutation(algebra)].conj()


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
    table = np.full((algebra.dim, algebra.dim), -1, dtype=np.intp)
    for _, idx in algebra.size_groups:  # E_rs E_st = E_rt inside each block
        table[idx[:, :, :, None], idx[:, None, :, :]] = idx[:, :, None, :]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def adjoint_permutation(algebra: FdCStarAlgebra) -> np.ndarray:
    """Permutation p with e_i^* = e_{p[i]} on the canonical basis."""
    perm = np.empty(algebra.dim, dtype=np.intp)
    for _, idx in algebra.size_groups:  # E_rs^* = E_sr
        perm[idx] = idx.transpose(0, 2, 1)
    perm.setflags(write=False)
    return perm


class LinearFunctional:
    """A functional omega(x) = sum_k trace(rho_k x_k) stored via its density."""

    __slots__ = ("algebra", "density", "covector")

    def __init__(self, algebra: FdCStarAlgebra, density: AlgebraElement) -> None:
        if density.algebra != algebra:
            raise IncompatibleAlgebraError("density must live in the same algebra")
        self.algebra = algebra
        self.density = density
        # read-only values on the canonical basis: omega(E_rs) = rho[s, r],
        # the density's transpose, a permutation of its coordinates
        self.covector = density.to_vec()[adjoint_permutation(algebra)]
        self.covector.setflags(write=False)

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
        density = values[adjoint_permutation(algebra)]
        return cls(algebra, AlgebraElement(algebra, density))

    def _density_measures(self) -> tuple[float, ...]:
        """Measures of the density rho, batched over the blocks of each size:
        the largest entry of rho - rho*, the least eigenvalue of
        (rho + rho*)/2, |trace - 1|, and, with c = trace/n in each block,
        the largest of |Im c| and -Re c and the largest entry of rho - c 1.
        All are NaN when a coordinate is not finite."""
        vec = self.density.to_vec()
        if not np.isfinite(vec).all():
            return (np.nan,) * 5
        star = adjoint_coords(self.algebra, vec)
        least, total, outside, spread = np.inf, 0.0, -np.inf, 0.0
        for n, idx in self.algebra.size_groups:
            rho = vec[idx]
            least = min(least, np.linalg.eigvalsh((rho + star[idx]) / 2).min())
            trace = np.trace(rho, axis1=1, axis2=2)
            total += trace.sum()
            c = trace / n
            outside = max(outside, np.maximum(np.abs(c.imag), -c.real).max())
            spread = max(spread, np.abs(rho - c[:, None, None] * np.eye(n)).max())
        return np.abs(vec - star).max(), least, abs(total - 1.0), outside, spread

    def is_state(self, tol: float = DEFAULT_TOL) -> bool:
        """Hermitian positive semidefinite density with total trace 1."""
        herm, least, trace_gap, _, _ = self._density_measures()
        return within(herm, tol) and within(-least, tol) and within(trace_gap, tol)

    def is_faithful(self) -> bool:
        """Hermitian density whose blocks have minimum eigenvalue at or
        above FAITHFULNESS_FLOOR."""
        herm, least, _, _, _ = self._density_measures()
        return within(herm, DEFAULT_TOL) and within(FAITHFULNESS_FLOOR - least, 0.0)

    def is_trace(self) -> bool:
        """Every density block is a nonnegative scalar multiple of the identity."""
        _, _, _, outside, spread = self._density_measures()
        return within(outside, DEFAULT_TOL) and within(spread, DEFAULT_TOL)

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
        k, r, s = self.left.basis_labels.T[:, :, None]
        l, rho, sig = self.right.basis_labels.T[:, None, :]
        n = np.array(self.left.block_dims)[k]
        m = np.array(self.right.block_dims)[l]
        off = self.product._offsets[k * len(self.right.block_dims) + l]
        out = off + (r * m + rho) * (n * m) + s * m + sig
        out.setflags(write=False)
        return out

    def elem(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        """The element x (x) y of the product algebra."""
        if x.algebra != self.left or y.algebra != self.right:
            raise IncompatibleAlgebraError(
                "factors do not match the declared layout factors"
            )
        table = np.outer(x.to_vec(), y.to_vec())
        return AlgebraElement(self.product, self.combine(table))

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


def _bilinear_table(algebra: FdCStarAlgebra, omega: LinearFunctional) -> np.ndarray:
    """T[i, j] = omega(e_i e_j) over the canonical basis."""
    table = multiplication_table(algebra)
    cov = np.concatenate([omega.covector, [0.0]])
    idx = np.where(table >= 0, table, algebra.dim)
    return cov[idx]


def orthonormal_basis(omega: LinearFunctional) -> np.ndarray:
    """Gram-Schmidt of the canonical basis of omega.algebra for the inner
    product omega(x* y), as a (dim, dim) matrix of basis columns.

    With G = L L^* the Cholesky factorization of the Gram matrix, the result
    is inv(L^*): the one upper-triangular B with positive diagonal and
    B^* G B = I, which is what Gram-Schmidt in canonical order produces.
    Raises DegenerateStateError when the Gram matrix is not finite or has
    an eigenvalue below FAITHFULNESS_FLOOR.
    """
    algebra = omega.algebra
    gram = _bilinear_table(algebra, omega)[adjoint_permutation(algebra), :]
    if not np.isfinite(gram).all():
        raise DegenerateStateError("Gram matrix has a non-finite entry")
    gram = (gram + gram.conj().T) / 2
    min_eig = float(np.linalg.eigvalsh(gram).min())
    if min_eig < FAITHFULNESS_FLOOR:
        raise DegenerateStateError(
            f"Gram matrix minimum eigenvalue {min_eig:.3e} is below "
            f"{FAITHFULNESS_FLOOR:g}"
        )
    return np.linalg.inv(np.linalg.cholesky(gram).conj().T)


def sigma_map(omega: LinearFunctional) -> np.ndarray:
    """Matrix, over the canonical basis, of the map sigma with
    omega(x y) = omega(y sigma(x)) for all x and y.

    For a faithful omega with density rho this is x -> rho x rho^{-1}; it
    is the identity exactly when omega is tracial, and always the identity
    on a commutative algebra. Solved as a linear system over the canonical
    basis; a non-faithful omega raises DegenerateStateError.
    """
    if not omega.is_faithful():
        raise DegenerateStateError("the exchange map needs a faithful functional")
    table = _bilinear_table(omega.algebra, omega)
    try:
        return np.linalg.solve(table, table.T)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded above
        raise DegenerateStateError("bilinear Gram system is singular") from exc
