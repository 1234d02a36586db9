"""Finite-dimensional C*-algebras as direct sums of complex matrix blocks.

Everything in this package lives over an :class:`FdCStarAlgebra`, a finite
direct sum M_{n_1} + ... + M_{n_K} of full matrix algebras, one instance
per block list, so that equality is identity. Elements are
stored as canonical coordinates, functionals through density elements, and
tensor products through explicit index maps so that every linear map has a
reproducible matrix over the canonical basis of matrix units.

Conventions fixed here and relied on by every other module:

* the canonical basis consists of the matrix units E^(k)_{r,s} ordered
  lexicographically by (block, row, column); its bookkeeping is index
  arrays, cached on the algebra while it lives: ``basis_labels`` is a
  (dim, 3) array of those labels, ``multiplication_table`` and
  ``adjoint_permutation`` index the basis by it, and the algebra keeps the
  tensor layouts it owns (:func:`tensor_layout`);
* every other basis is a (dim, k) coordinate matrix with one column per
  basis element, as returned by :func:`orthonormal_basis`; only
  representations.action_matrix reads one;
* tensor products order the product blocks with the left factor major, and
  inside a block pair use the Kronecker (row-major) convention; so over
  commutative factors e_i (x) f_j is coordinate i * dim(right) + j, which
  morphisms.lift_monomial computes with no layout;
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
  with the leading axes broadcast, and so does :func:`contract`, which
  sums products over the leading axis, while :func:`column_element_norms`
  (each column's operator norm, one batched SVD per block size over the
  blocks that :func:`block_norms` does not prune), :func:`max_image_defect`
  (the worst column, pruned at the largest |entry|, which is the answer
  when it is 0, NaN or inf), morphism matrices and tensor lifts read it on
  the first axis, one column per element.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from numbers import Number
from operator import mul
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import (
    DegenerateStateError,
    IncompatibleAlgebraError,
    InvalidDimensionError,
)
from .linalg import BlockRank, block_rank, spectrum_rank

if TYPE_CHECKING:
    from .morphisms import StarMorphism

DEFAULT_TOL = 1e-9
FAITHFULNESS_FLOOR = 1e-12


def within(defect: float, bound: float) -> bool:
    """The verdict rule: defect and bound are finite and defect <= bound."""
    return bool(np.isfinite(defect) and np.isfinite(bound) and defect <= bound)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr itself, made read-only: an algebra's arrays are shared by all."""
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False, init=False)
class FdCStarAlgebra:
    """A finite direct sum of full matrix algebras, given by its block sizes.

    There is one live instance per block list, so equality and hashing are
    identity, and tensor products built along different routes are one
    object with one set of cached arrays. The registry is weak: an
    unreferenced algebra dies with its tables and layouts. block_dims is read-only.
    """

    block_dims: tuple[int, ...]
    _interned = weakref.WeakValueDictionary()  # block tuple -> its live instance

    def __new__(cls, block_dims: Iterable[int]) -> "FdCStarAlgebra":
        dims = tuple(block_dims)
        if len(dims) == 0:
            raise InvalidDimensionError("an algebra needs at least one block")
        for n in dims:  # before the lookup, as (True,) hashes like (1,)
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
                raise InvalidDimensionError(f"block dimension {n!r} is not a positive integer")
        dims = tuple(map(int, dims))
        algebra = cls._interned.get(dims)
        if algebra is None:
            limit = np.iinfo(np.intp).max  # the sum in Python ints
            if sum(map(mul, dims, dims)) > limit:
                raise InvalidDimensionError(
                    f"blocks up to {max(dims)} give a total dimension above {limit}"
                )
            algebra = super().__new__(cls)
            object.__setattr__(algebra, "block_dims", dims)
            cls._interned[dims] = algebra
        return algebra

    def __reduce__(self):
        return FdCStarAlgebra, (self.block_dims,)

    @cached_property
    def _dims(self) -> np.ndarray:
        """The block sizes as a read-only intp array."""
        return _read_only(np.array(self.block_dims, dtype=np.intp))

    @cached_property
    def dim(self) -> int:
        """Total linear dimension, the sum of the squared block sizes."""
        return int(np.dot(self._dims, self._dims))

    @cached_property
    def is_commutative(self) -> bool:
        """Every block is 1 x 1: the algebra of functions on dim points."""
        return self.dim == len(self.block_dims)

    @cached_property
    def _offsets(self) -> np.ndarray:
        """First coordinate of each block."""
        sizes = self._dims**2
        return _read_only(np.cumsum(sizes) - sizes)

    def block_slices(self) -> tuple[tuple[int, int], ...]:
        """(offset, size) of the coordinate range of each block."""
        return tuple(zip(self._offsets.tolist(), self.block_dims))

    @cached_property
    def size_groups(self) -> tuple[tuple[int, np.ndarray], ...]:
        """(n, idx) per distinct block size n, where idx[b, r, s] is the
        coordinate of entry (r, s) of the b-th block of size n (read-only)."""
        dims, groups = self._dims, []
        for n in dict.fromkeys(self.block_dims):
            idx = self._offsets[dims == n, None, None] + np.arange(n * n).reshape(n, n)
            groups.append((n, _read_only(idx)))
        return tuple(groups)

    def basis_index(self, block: int, row: int, col: int) -> int:
        return int(self._offsets[block]) + row * self.block_dims[block] + col

    @cached_property
    def basis_labels(self) -> np.ndarray:
        """(block, row, col) of each canonical matrix unit, one row each, in
        lex order; a read-only (dim, 3) array."""
        dims = self._dims
        block = np.repeat(np.arange(len(dims)), dims * dims)
        local = np.arange(self.dim) - self._offsets[block]
        n = dims[block]
        return _read_only(np.stack([block, local // n, local % n], axis=1))

    @cached_property
    def multiplication_table(self) -> np.ndarray:
        """Index of e_i * e_j in the canonical basis, or -1 when it is 0."""
        table = np.full((self.dim, self.dim), -1, dtype=np.intp)
        for _, idx in self.size_groups:  # E_rs E_st = E_rt inside each block
            table[idx[:, :, :, None], idx[:, None, :, :]] = idx[:, :, None, :]
        return _read_only(table)

    @cached_property
    def adjoint_permutation(self) -> np.ndarray:
        """Permutation p with e_i^* = e_{p[i]} on the canonical basis."""
        perm = np.empty(self.dim, dtype=np.intp)
        for _, idx in self.size_groups:  # E_rs^* = E_sr
            perm[idx] = idx.transpose(0, 2, 1)
        return _read_only(perm)

    @cached_property
    def _layouts(self) -> dict:
        """(left, right) -> the layout of left (x) right, for self the factor
        that owns it (see tensor_layout), alive while self lives."""
        return {}

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, np.zeros(self.dim))

    @cached_property
    def unit(self) -> np.ndarray:
        """The canonical coordinates of the identity, a read-only vector."""
        labels = self.basis_labels
        return _read_only((labels[:, 1] == labels[:, 2]).astype(complex))

    def identity(self) -> "AlgebraElement":
        return AlgebraElement(self, self.unit)

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


make_algebra = FdCStarAlgebra


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
        self.algebra = algebra
        self._vec = _read_only(vec)

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
    x, y = np.asarray(x), np.asarray(y)
    shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    out = np.empty(shape + (algebra.dim,), dtype=np.result_type(x, y, complex))
    for n, idx in algebra.size_groups:
        a, b = x[..., idx], y[..., idx]
        out[..., idx] = a * b if n == 1 else a @ b
    return out


def contract(algebra: FdCStarAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coordinates of sum_q x[q, i] * y[q, j], an (I, J, dim) array, for
    (Q, I, dim) and (Q, J, dim) coordinate arrays x and y.

    The blocks of each size n are one batched matmul: rows (i, r), columns
    (j, t) and the sum over (q, s), for entry (r, t) of a block. No
    (Q, I, J, dim) array of products is formed.
    """
    x, y = np.asarray(x), np.asarray(y)
    rows, cols = x.shape[1], y.shape[1]
    out = np.empty((rows, cols, algebra.dim), dtype=np.result_type(x, y, complex))
    for n, idx in algebra.size_groups:
        count = len(idx)
        a = x[..., idx].transpose(2, 1, 3, 0, 4).reshape(count, rows * n, -1)  # [b, (i, r), (q, s)]
        b = y[..., idx].transpose(2, 0, 3, 1, 4).reshape(count, -1, cols * n)  # [b, (q, s), (j, t)]
        out[..., idx] = (a @ b).reshape(count, rows, n, cols, n).transpose(1, 3, 0, 2, 4)
    return out


def adjoint_coords(algebra: FdCStarAlgebra, x: np.ndarray) -> np.ndarray:
    """Coordinates of the adjoints x* of a coordinate array (last axis the
    canonical basis)."""
    return x[..., algebra.adjoint_permutation].conj()


def column_element_norms(
    algebra: FdCStarAlgebra, matrix: np.ndarray, floor: float | np.ndarray = 0.0
) -> np.ndarray:
    """Operator norm of the element encoded by each column of matrix.

    A column with a NaN coordinate has norm NaN; one with an infinite
    coordinate and no NaN has norm inf.

    floor (a scalar, or one value per column) prunes the SVDs as in
    block_norms: every norm at or above its column's floor is the SVD value
    itself; a column below its floor may read less than its norm.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim == 1:
        matrix = matrix.reshape(-1, 1)
    floor = np.asarray(floor, dtype=float)[..., None]  # against (column, block)
    out = np.zeros(matrix.shape[1])
    for _, idx in algebra.size_groups:
        blocks = matrix[idx].transpose(3, 0, 1, 2)  # (column, block, n, n)
        np.maximum(out, block_norms(blocks, floor).max(axis=1), out=out)
    return out


def block_norms(blocks: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Operator norms of a (..., P, n, n) stack of blocks; NaN for a block
    with a NaN entry, else inf for one with an infinite entry. A row of P
    blocks is pruned at its floor (broadcast against (..., 1)) raised to its
    largest max|entry|: as max|entry| <= norm <= Frobenius norm, a zero
    block or one whose Frobenius norm is below floor (1 - 1e-12) is not
    decomposed and reads its max|entry|. So a norm at or above the floor is
    the SVD value itself, and so is the largest norm of a row."""
    n = blocks.shape[-1]
    with np.errstate(over="ignore"):  # |z| and |z|^2 past the float range are inf
        mags = np.abs(blocks)
        vals = mags.max(axis=(-2, -1))
        if n > 1:
            mags *= mags  # in place, so the peak stays that of |z|
            frobenius = np.sqrt(mags.sum(axis=(-2, -1)))
    del mags
    finite = np.isfinite(vals)
    if not finite.all():  # |inf + NaN i| is inf, but NaN wins
        vals[np.isnan(blocks).any(axis=(-2, -1))] = np.nan
    if n > 1:
        # the slack keeps a block whose SVD rounds up to the floor; squares
        # below 1e-300 lose bits, so a block below 1e-150 is held to n max|entry|
        cut = np.fmax(floor, vals.max(axis=-1, keepdims=True)) * (1 - 1e-12)
        below = np.where(vals < 1e-150, vals < cut / n, frobenius < cut)
        decompose = finite & (vals > 0) & ~below
        if decompose.any():
            vals[decompose] = np.linalg.svd(blocks[decompose], compute_uv=False)[:, 0]
    return vals


def largest_abs(z: np.ndarray) -> float:
    """The largest |entry| of z, 0.0 when it has none; NaN when an entry
    has a NaN part, though |inf + NaN i| is inf. Only complex z is scanned
    for NaN: over real z the max propagates it."""
    with np.errstate(over="ignore"):  # |z| past the float range is inf
        if z.dtype.kind == "c" and np.isnan(z).any():
            return np.nan
        return float(np.abs(z).max(initial=0.0))


def max_image_defect(codomain: FdCStarAlgebra, matrix_diff: np.ndarray) -> float:
    """Worst operator norm over the columns of a matrix of element
    differences; NaN when any column's norm is NaN. The largest |entry| is
    a lower bound of the answer, so it prunes the SVDs as floor; when it is
    0, NaN or inf, or every block is 1 x 1, it is the answer and no SVD is
    taken."""
    matrix_diff = np.asarray(matrix_diff, dtype=complex)
    floor = largest_abs(matrix_diff)
    if codomain.is_commutative or not 0 < floor < np.inf:
        return floor
    return float(column_element_norms(codomain, matrix_diff, floor).max())


class LinearFunctional:
    """A functional omega(x) = sum_k trace(rho_k x_k) stored via its density."""

    __slots__ = ("algebra", "density", "covector", "__dict__")

    def __init__(self, algebra: FdCStarAlgebra, density: AlgebraElement) -> None:
        if density.algebra != algebra:
            raise IncompatibleAlgebraError("density must live in the same algebra")
        self.algebra = algebra
        self.density = density
        # read-only values on the canonical basis: omega(E_rs) = rho[s, r],
        # the density's transpose, a permutation of its coordinates
        self.covector = _read_only(density.to_vec()[algebra.adjoint_permutation])

    def __call__(self, x: AlgebraElement) -> complex:
        if x.algebra != self.algebra:
            raise IncompatibleAlgebraError("argument lives over a different algebra")
        return complex(np.dot(self.covector, x.to_vec()))

    @classmethod
    def from_values(
        cls, algebra: FdCStarAlgebra, values: np.ndarray
    ) -> "LinearFunctional":
        """Functional with the given values on the canonical basis."""
        values = np.asarray(values, dtype=complex)
        if values.size != algebra.dim:
            raise IncompatibleAlgebraError(
                f"{values.size} values do not match dimension {algebra.dim}"
            )
        density = values.reshape(-1)[algebra.adjoint_permutation]
        return cls(algebra, AlgebraElement(algebra, density))

    @cached_property
    def _density_measures(self) -> tuple[float, ...]:
        """Measures of the density rho, batched over the blocks of each size
        and computed once, since rho is read-only: the largest entry of
        rho - rho*, the least eigenvalue of (rho + rho*)/2, |trace - 1|, and,
        with c = trace/n in each block, the largest of |Im c| and -Re c and
        the largest entry of rho - c 1.
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
        herm, least, trace_gap, _, _ = self._density_measures
        return within(herm, tol) and within(-least, tol) and within(trace_gap, tol)

    def is_faithful(self) -> bool:
        """Hermitian density whose blocks have minimum eigenvalue at or
        above FAITHFULNESS_FLOOR."""
        herm, least, _, _, _ = self._density_measures
        return within(herm, DEFAULT_TOL) and within(FAITHFULNESS_FLOOR - least, 0.0)

    def is_trace(self) -> bool:
        """Every density block is a nonnegative scalar multiple of the identity."""
        _, _, _, outside, spread = self._density_measures
        return within(outside, DEFAULT_TOL) and within(spread, DEFAULT_TOL)

    def __repr__(self) -> str:
        return f"LinearFunctional({self.algebra!r})"


def trace_state(algebra: FdCStarAlgebra) -> LinearFunctional:
    """The normalized trace; on a commutative algebra, the uniform measure."""
    return LinearFunctional(algebra, algebra.identity() * (1.0 / sum(algebra.block_dims)))


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

    def __reduce__(self):  # the one cached layout, with its read-only arrays
        return tensor_layout, (self.left, self.right)

    @cached_property
    def product(self) -> FdCStarAlgebra:
        dims = np.outer(self.left._dims, self.right._dims)
        return FdCStarAlgebra(tuple(dims.ravel().tolist()))

    @cached_property
    def pair_index(self) -> np.ndarray:
        """pair_index[i, j] = product basis index of e_i (x) f_j."""
        # (block, row, col) of e_i down the rows, of f_j along the columns
        k, r, s = self.left.basis_labels.T[:, :, None]
        l, rho, sig = self.right.basis_labels.T[:, None, :]
        n = self.left._dims[k]
        m = self.right._dims[l]
        off = self.product._offsets[k * len(self.right.block_dims) + l]
        return _read_only(off + (r * m + rho) * (n * m) + s * m + sig)

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
        return self.combine(np.eye(self.left.dim)[:, :, None] * self.right.unit)


def module_span_rank(layout: TensorLayout, phi: "StarMorphism", side: str) -> BlockRank:
    """Numeric rank of the span of the products (e_i (x) 1) y (side "left")
    or y (1 (x) f_i) (side "right"), over the basis e_i of the left factor
    or f_i of the right one and the images y = phi(e_j) of the basis of
    phi's domain, for a map phi into layout.product.

    The span is a module over the factor's blocks. Read each y as a table
    T[a, c] over the left and right factor bases. On the left, block b
    (size n) contributes n copies of the matrix M_b with rows (y, r),
    columns (s, c) and entries T[(b, r, s), c]: E_qr (x) 1 moves row r of
    that slice to row q. On the right the roles of the factors swap and
    each block's row and column indices swap with them. So the span's
    singular values are the union of those of the M_b, each n times.

    When phi has a monomial form (so the product is commutative), each
    column of each M_b has at most one nonzero entry, in the row of its
    column of phi, so the rows of M_b are orthogonal: its singular values
    are the root sums of |coef|^2 over (factor point, column of phi) keys,
    one np.bincount with no SVD. Every other input takes one batched SVD
    per block size.
    """
    if phi.monomial is not None:
        cols, coefs = phi.monomial
        points = np.arange(len(cols))  # point a * dim right + c of the product
        points = points // layout.right.dim if side == "left" else points % layout.right.dim
        hit = cols >= 0
        mags = np.abs(coefs[hit])
        mags /= mags.max(initial=0.0) or 1.0  # no square underflows, none overflows
        sums = np.bincount(points[hit] * phi.domain.dim + cols[hit], weights=mags * mags)
        return spectrum_rank(np.sqrt(sums[sums > 0]), 1)
    if side == "right":
        factor, pairs, axes = layout.right, layout.pair_index.T, (0, 2, 1)
    else:
        factor, pairs, axes = layout.left, layout.pair_index, (0, 1, 2)
    rows = phi.matrix.T
    y = np.arange(len(rows))[None, :, None, None, None]
    groups = []
    for n, idx in factor.size_groups:
        # stack[b, y, r, s, c] = T_y[(b, r, s), c]
        stack = rows[y, pairs[idx.transpose(axes)][:, None]]
        groups.append((n, stack.reshape(len(idx), len(rows) * n, -1)))
    return block_rank(groups)


def tensor_layout(left: FdCStarAlgebra, right: FdCStarAlgebra) -> TensorLayout:
    """The one tensor layout of left (x) right, cached on left, or on right
    when left is the scalar algebra, which every Character holds and which
    would otherwise keep alive every algebra it was paired with."""
    owner, key = (right if left.dim == 1 else left), (left, right)
    return owner._layouts.get(key) or owner._layouts.setdefault(key, TensorLayout(left, right))


def _bilinear_table(omega: LinearFunctional) -> np.ndarray:
    """T[i, j] = omega(e_i e_j) over the canonical basis; a zero product's
    -1 in the multiplication table picks the 0 appended to the covector."""
    return np.append(omega.covector, 0.0)[omega.algebra.multiplication_table]


def orthonormal_basis(omega: LinearFunctional) -> np.ndarray:
    """Gram-Schmidt of the canonical basis of omega.algebra for the inner
    product omega(x* y), as a (dim, dim) matrix of basis columns.

    With G = L L^* the Cholesky factorization of the Gram matrix, the result
    is inv(L^*): the one upper-triangular B with positive diagonal and
    B^* G B = I, which is what Gram-Schmidt in canonical order produces.
    G has the eigenvalues of the density's Hermitian part, so it raises
    DegenerateStateError exactly when omega is not faithful.
    """
    if not omega.is_faithful():
        finite = np.isfinite(omega.density.to_vec()).all()
        why = "is not faithful" if finite else "has a non-finite density entry"
        raise DegenerateStateError(f"an orthonormal basis needs a faithful functional; this one {why}")
    gram = _bilinear_table(omega)[omega.algebra.adjoint_permutation, :]
    gram = (gram + gram.conj().T) / 2
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
    table = _bilinear_table(omega)
    try:
        return np.linalg.solve(table, table.T)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded above
        raise DegenerateStateError("bilinear Gram system is singular") from exc
