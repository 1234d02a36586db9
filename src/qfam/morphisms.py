"""Unital *-homomorphisms between finite-dimensional C*-algebras.

A morphism is stored as its matrix over the canonical bases: column j holds
the coordinates of the image of the j-th domain matrix unit. A map built from
a table holds its monomial form instead, and builds the matrix on first read.
Verification is numerical; :meth:`StarMorphism.defects` reports how far the map is from
being multiplicative, adjoint-preserving and unital, each measured as a
worst-case operator norm. Defect computation is deferred and cached, so
intermediate maps built by composition or tensoring are never verified
unless asked.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraElement,
    FdCStarAlgebra,
    LinearFunctional,
    block_norms,
    largest_abs,
    make_algebra,
    max_image_defect,
    tensor_layout,
    within,
)
from .errors import (
    IncompatibleAlgebraError,
    InvalidCharacterError,
    InvalidMatrixError,
    NotAHomomorphismError,
    QfamError,
    ResourceLimitError,
)

# Cap on n for enumerating all n^n self-maps of an n-point set.
SET_MAP_CAP = 6

# Cap on the bytes of an array a call builds and keeps: the result of a
# tensor lift, counted by lift (and tensor_morphisms' identity input), the
# monomial form of a classical semigroup, family or set map, counted by
# _point_table, and its dense matrix, counted on first read (2^30 admits
# that of cyclic groups of order up to 406). The arrays a defect only passes
# through are bounded by _DEFECT_CHUNK instead.
LIFT_BYTES_CAP = 2**30

# The most entries one array of a chunked defect holds: a chunk of the
# multiplicativity check, a slab of a dense lift (one column at least) or of
# the index path (whole rows of its leading factors), or a block of the magic
# commutators (one entry's pairs at least); every one is cut by slabs.
_DEFECT_CHUNK = 2**18


def slabs(count: int, size: int) -> Iterator[slice]:
    """range(count) in slices of max(1, _DEFECT_CHUNK // size) items: about
    _DEFECT_CHUNK entries a slab of items of size entries, one item at least."""
    step = max(1, _DEFECT_CHUNK // size)
    return (slice(s, min(s + step, count)) for s in range(0, count, step))


def scalar_algebra() -> FdCStarAlgebra:
    """The complex numbers as a one-block algebra of size 1."""
    return make_algebra((1,))


class StarMorphism:
    """A linear map between algebras, given by its canonical-basis matrix."""

    __slots__ = ("domain", "codomain", "__dict__")

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

    def __reduce__(self):  # copies rebuild through the constructor: read-only, no caches
        if "matrix" not in self.__dict__:  # a map that holds only its form copies only that
            return _from_monomial, (self.domain, self.codomain, self.monomial)
        return StarMorphism, (self.domain, self.codomain, self.matrix)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The read-only (dim codomain, dim domain) matrix. A map that holds
        only its monomial form (see _from_monomial) builds it from the form
        on first read, bit for bit, after counting its 16 bytes an entry
        against LIFT_BYTES_CAP."""
        cols, coefs = self.monomial
        shape = (len(cols), self.domain.dim)
        require_bytes_fit(16 * shape[0] * shape[1], f"the matrix of a {shape[0]} x {shape[1]} map")
        mat = np.zeros(shape, dtype=complex)
        hit = np.flatnonzero(cols >= 0)
        mat[hit, cols[hit]] = coefs[hit]
        mat.setflags(write=False)
        return mat

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
        return _defect_report([self])[0]

    @cached_property
    def monomial(self) -> "MonomialForm | None":
        """The matrix as (cols, coefs) when the codomain is commutative, each
        row has at most one nonzero entry and every entry is finite: row r
        holds coefs[r] in column cols[r], and a zero row has cols[r] = -1 and
        coefs[r] = 0; None otherwise. The one test of every index path. The
        coefficients are float64 when every imaginary part is 0, so the
        index path of a real map computes in real arithmetic."""
        if not self.codomain.is_commutative:
            return None
        nonzero = self.matrix != 0  # NaN and inf count as nonzero
        if nonzero.sum(axis=1).max(initial=0) > 1:
            return None
        cols = nonzero.argmax(axis=1)
        del nonzero
        coefs = self.matrix[np.arange(len(cols)), cols]
        if not np.isfinite(coefs).all():
            return None
        coefs = coefs if coefs.imag.any() else coefs.real.copy()
        cols[coefs == 0] = -1
        cols.setflags(write=False)
        coefs.setflags(write=False)
        return cols, coefs

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


@np.errstate(over="ignore", invalid="ignore")  # huge or non-finite entries; within() fails those
def _defect_report(maps: Sequence[StarMorphism]) -> list[dict[str, float]]:
    """The defect report of each of maps, of any domains and codomains.

    phi is a unital *-homomorphism exactly when each block component
    phi_c: B -> M_n is one, so the components of all maps are stacked by
    (domain, n) as (K, d, n, n) images. Their unit, star and mult parts are
    (K, P, n, n) arrays for block_norms, the mult part phi(e_i)phi(e_j) -
    phi(e_i e_j) in chunks of at most _DEFECT_CHUNK entries over (component,
    row) pairs. A part is pruned at the largest defect its map has shown so
    far, so each report is bit for bit the one the map gets alone."""
    worst = np.full((len(maps), 3), -np.inf)  # unit, star and mult defect of each map
    stacks: dict[tuple[FdCStarAlgebra, int], list] = {}
    for k, phi in enumerate(maps):
        unit = phi.matrix @ phi.domain.unit - phi.codomain.unit
        for n, idx in phi.codomain.size_groups:
            stacks.setdefault((phi.domain, n), []).append((k, idx, unit[idx]))
    for (dom, n), members in stacks.items():
        owner = np.concatenate([np.full(len(u), k) for k, _, u in members])
        d, count = dom.dim, len(owner)
        # image of e_i under component c at [c, i]; [c, d] is 0, which the
        # multiplication table's -1 entries (zero products) pick
        padded = np.zeros((count, d + 1, n, n), dtype=complex)
        padded[:, :d] = np.concatenate(
            [maps[k].matrix[idx] for k, idx, _ in members]  # (blocks, n, n, d) each
        ).transpose(0, 3, 1, 2)
        images = padded[:, :d]
        unit = np.concatenate([u for _, _, u in members])[:, None]
        star = images[:, dom.adjoint_permutation] - images.conj().swapaxes(2, 3)
        tidx = dom.multiplication_table
        for block, rows in itertools.product(slabs(count, d * d * n * n), slabs(d, d * n * n)):
            a, b = images[block, rows, None], images[block, None]
            mult = a * b if n == 1 else a @ b
            mult -= padded[block][:, tidx[rows]]
            parts = [(2, mult.reshape(len(mult), -1, n, n))]
            if rows.start == 0:
                parts += [(0, unit[block]), (1, star[block])]
            for p, part in parts:
                slots = worst[:, p]
                norms = block_norms(part, slots[owner[block], None]).max(axis=1)
                np.maximum.at(slots, owner[block], norms)
    return [{"mult_defect": m, "star_defect": s, "unit_defect": u} for u, s, m in worst.tolist()]


def require_star_homs(maps: Sequence[StarMorphism]) -> Sequence[StarMorphism]:
    """Return maps if each verifies as a unital *-homomorphism, else raise
    for the first that fails. The reports not yet cached are computed by
    one _defect_report call and cached on the maps."""
    todo = [phi for phi in maps if "defect_report" not in phi.__dict__]
    for phi, report in zip(todo, _defect_report(todo) if todo else []):
        phi.__dict__["defect_report"] = report
    for phi in maps:
        if not phi.is_star_hom():
            raise NotAHomomorphismError(
                "map fails the homomorphism checks: "
                + ", ".join(f"{k}={v:.3e}" for k, v in phi.defect_report.items())
            )
    return maps


def require_star_hom(phi: StarMorphism) -> StarMorphism:
    """Return phi if it verifies as a unital *-homomorphism, else raise."""
    return require_star_homs([phi])[0]


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


def require_bytes_fit(nbytes: int, what: str) -> None:
    """Refuse what, an array of nbytes, when that exceeds LIFT_BYTES_CAP."""
    if nbytes > LIFT_BYTES_CAP:
        raise ResourceLimitError(
            f"{what} needs {nbytes / 2**20:.0f} MiB, "
            f"over the cap of {LIFT_BYTES_CAP / 2**20:.0f} MiB"
        )


@np.errstate(over="ignore", invalid="ignore")  # inf * 0 is a NaN coordinate, as in lift_monomial
def lift(phi: LiftFactor, psi: LiftFactor, columns: np.ndarray) -> np.ndarray:
    """Coordinates of (phi (x) psi)(c) for each column c of columns.

    Each column is split into a (dim phi.domain, dim psi.domain) table
    through the domain layout's pair_index; phi then psi act on the table's
    axes, and the result is written back through the codomain layout's.
    An algebra in place of phi or psi is its identity map: its axis is
    split and scattered but never multiplied. A functional acts as a
    1 x dim map into scalar_algebra(), whose tensor factor shares the other
    factor's coordinates. The columns go in slabs of about _DEFECT_CHUNK
    entries a table (one at least); only the result grows with their number.
    """
    (dom1, cod1), (dom2, cod2) = _ends(phi), _ends(psi)
    lin = tensor_layout(dom1, dom2)
    lout = tensor_layout(cod1, cod2)
    columns = np.asarray(columns)
    if columns.ndim != 2 or columns.shape[0] != lin.product.dim:
        raise InvalidMatrixError(
            f"columns of shape {columns.shape} are not coordinates over {lin.product}"
        )
    n, rows = columns.shape[1], lout.product.dim
    # the index arrays first, so their build temporaries are freed before the result exists
    pin, pout = lin.pair_index, lout.pair_index
    require_bytes_fit(16 * rows * n, f"a tensor lift of {n} columns")
    out = np.empty((rows, n), dtype=complex)
    for cols in slabs(n, max(lin.product.dim, cod1.dim * dom2.dim, rows)):
        table = columns[pin, cols]  # (dim dom1, dim dom2, columns of the slab)
        if isinstance(phi, StarMorphism):
            table = (phi.matrix @ table.reshape(dom1.dim, -1)).reshape(cod1.dim, dom2.dim, -1)
        if isinstance(psi, StarMorphism):  # one matmul over all rows of phi's image
            table = psi.matrix @ table.swapaxes(0, 1).reshape(dom2.dim, -1)
            table = table.reshape(cod2.dim, cod1.dim, -1).swapaxes(0, 1)
        out[pout, cols] = table
    return out


# (cols, coefs) of a matrix with at most one nonzero entry per row; see StarMorphism.monomial.
MonomialForm = tuple[np.ndarray, np.ndarray]


def _monomial_factor(factor: LiftFactor) -> MonomialForm:
    if isinstance(factor, FdCStarAlgebra):
        return np.arange(factor.dim), np.ones(factor.dim)
    if factor.monomial is None:
        raise InvalidMatrixError(
            f"{factor!r} has no monomial form: its codomain is not commutative, "
            "or a row has two nonzero entries or a non-finite entry"
        )
    return factor.monomial


def lift_monomial(
    phi: LiftFactor, psi: LiftFactor, form: MonomialForm, rows: slice = slice(None)
) -> MonomialForm:
    """The monomial form of lift(phi, psi, M), for M of monomial form
    `form` and phi, psi monomial maps or algebras (their identities), all
    over commutative algebras; with rows, only rows a * dim cod2 + b, a in rows.

    There e_i (x) f_j is coordinate i * dim(right) + j of a product, so row
    a * dim cod2 + b of the lift is phi[a, i] psi[b, j] times row
    i * dim dom2 + j of M, where i and j are the only nonzero columns of row
    a of phi and row b of psi. The lift is one gather, in O(rows): no zero
    entry is multiplied.
    """
    (dom1, cod1), (dom2, cod2) = _ends(phi), _ends(psi)
    if not all(a.is_commutative for a in (dom1, cod1, dom2, cod2)):
        raise IncompatibleAlgebraError("a monomial lift needs commutative algebras")
    cols, coefs = form
    if cols.shape != (dom1.dim * dom2.dim,):
        raise InvalidMatrixError(
            f"a monomial form of {cols.shape} rows is not over {dom1} (x) {dom2}"
        )
    (i, u), (j, v) = _monomial_factor(phi), _monomial_factor(psi)
    i, u = i[rows], u[rows]
    # a zero row's -1 wraps to the last row; its u or v is 0
    src = (i % dom1.dim)[:, None] * dom2.dim + j % dom2.dim
    out_cols = cols[src]
    out_coefs = coefs[src].astype(np.result_type(coefs, u, v), copy=False)
    del src
    with np.errstate(over="ignore", invalid="ignore"):  # as in a dense lift
        out_coefs *= u[:, None]
        out_coefs *= v
    out_cols[out_coefs == 0] = -1
    return out_cols.ravel(), out_coefs.ravel()


def monomial_defect(first: MonomialForm, second: MonomialForm) -> float:
    """The largest |entry| of A - B, for A and B of monomial forms first and
    second; NaN when a coefficient is NaN. In a codomain whose blocks are
    all 1 x 1 a column's norm is its largest |entry|, so this is
    max_image_defect(codomain, A - B).

    A row of A - B is a - b in one column where it keeps its column, and a
    and -b in two columns where it moves.
    """
    (c1, v1), (c2, v2) = first, second
    moved = c1 != c2
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN defect
        entries = v1 - v2
    np.copyto(entries, v1, where=moved)  # and -v2[moved] in another column
    worst = largest_abs(entries)
    del entries
    return float(np.maximum(worst, largest_abs(v2[moved])))


LiftSide = tuple[LiftFactor, LiftFactor, StarMorphism]  # (phi, psi, M) of lift(phi, psi, M)


@np.errstate(over="ignore", invalid="ignore")  # inf - inf is a NaN defect
def _lift_difference_defect(first: LiftSide, second: LiftSide) -> float:
    """Worst norm over the columns of lift(phi, psi, M) - lift(phi', psi', M') for
    first = (phi, psi, M) and second = (phi', psi', M'), M and M' maps of one
    domain: the one kernel of the laws (phi (x) psi) M = (phi' (x) psi') M'. By
    index arithmetic when every map among them has a monomial form, else by dense
    lifts into the first's codomain; the index path reduces over blocks of rows
    that cover whole rows of both lifts' leading factors (row a * right + b is led
    by row a), the dense path over columns of M. np.maximum keeps a NaN slab defect."""
    worst = -np.inf
    if all(x.monomial is not None for x in (*first, *second) if isinstance(x, StarMorphism)):
        lead, right, _, right2 = (_ends(x)[1].dim for x in (*first[:2], *second[:2]))
        step = math.lcm(right, right2)
        k1, k2 = step // right, step // right2  # leading rows of each lift in step rows
        for s in slabs(lead // k1, step):  # blocks of step rows
            worst = np.maximum(worst, monomial_defect(
                lift_monomial(*first[:2], first[2].monomial, slice(s.start * k1, s.stop * k1)),
                lift_monomial(*second[:2], second[2].monomial, slice(s.start * k2, s.stop * k2)),
            ))
        return float(worst)
    product = tensor_layout(*(_ends(x)[1] for x in first[:2])).product
    for s in slabs(first[2].domain.dim, product.dim):
        diff = lift(*first[:2], first[2].matrix[:, s])
        diff -= lift(*second[:2], second[2].matrix[:, s])
        worst = np.maximum(worst, max_image_defect(product, diff))
    return float(worst)


def tensor_morphisms(phi: StarMorphism, psi: StarMorphism) -> StarMorphism:
    """The map phi (x) psi between the tensor product algebras."""
    lin = tensor_layout(phi.domain, psi.domain)
    require_bytes_fit(8 * lin.product.dim**2, f"the identity over {lin.product.dim} coordinates")
    mat = lift(phi, psi, np.eye(lin.product.dim))
    return StarMorphism(lin.product, tensor_layout(phi.codomain, psi.codomain).product, mat)


def swap_index(left: FdCStarAlgebra, right: FdCStarAlgebra) -> np.ndarray:
    """The tensor swap x (x) y -> y (x) x as an index map: coordinate r of
    the swapped element over right (x) left is coordinate swap[r] of the
    element over left (x) right."""
    fwd, rev = tensor_layout(left, right), tensor_layout(right, left)
    swap = np.empty(fwd.product.dim, dtype=np.intp)
    swap[rev.pair_index.T] = fwd.pair_index  # e_i (x) f_j goes to f_j (x) e_i
    return swap


def flip(left: FdCStarAlgebra, right: FdCStarAlgebra) -> StarMorphism:
    """The tensor swap x (x) y -> y (x) x as a morphism: the 0/1 matrix of swap_index."""
    swap = swap_index(left, right)
    mat = np.zeros((swap.size, swap.size), dtype=complex)
    mat[np.arange(swap.size), swap] = 1.0
    return StarMorphism(tensor_layout(left, right).product, tensor_layout(right, left).product, mat)


class Character(StarMorphism):
    """A unital *-homomorphism onto the complex numbers."""

    def __init__(self, domain: FdCStarAlgebra, matrix: np.ndarray) -> None:
        super().__init__(domain, scalar_algebra(), matrix)

    def __reduce__(self):
        return Character, (self.domain, self.matrix)

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
    return [
        Character(algebra, np.eye(1, algebra.dim, off, dtype=complex))
        for off, n in algebra.block_slices()
        if n == 1
    ]


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
    table = _point_table(table, 1, InvalidMatrixError)
    alg = functions_algebra(len(table))
    return _pullback(alg, alg, table)


def _point_table(table, ndim: int, error: type[QfamError]) -> np.ndarray:
    """_integer_table(table, ndim, error), the 16 * size bytes of its pullback's form counted."""
    arr = _integer_table(table, ndim, error)
    require_bytes_fit(16 * arr.size, f"the monomial form of a {arr.size} x {arr.shape[-1]} map")
    return arr


def _integer_table(table, ndim: int, error: type[QfamError]) -> np.ndarray:
    """table as a nonempty array of ndim axes whose entries index its last
    axis, of n points, else error. Its array must be of an integer kind, so
    floats are not truncated, and a list or tuple table must hold no bool,
    which numpy reads as an int among ints: one scan of its leaves' types."""
    try:
        arr = np.asarray(table)
    except ValueError:  # rows of different lengths
        arr = np.empty(0)
    if arr.ndim != ndim or not arr.size:
        raise error(f"expected a nonempty rectangular table of {ndim} axes")
    n, dtype = arr.shape[-1], arr.dtype
    leaves = table if ndim == 1 else itertools.chain.from_iterable(table)
    if isinstance(table, (list, tuple)) and {bool, np.bool_} & set(map(type, leaves)):
        dtype = np.dtype(bool)
    if dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= n:
        raise error(f"table entries must be integers from 0 to {n - 1}, not {dtype}")
    return arr


def _pullback(dom: FdCStarAlgebra, cod: FdCStarAlgebra, points: np.ndarray) -> StarMorphism:
    """f -> f o t on functions, t sending point r of cod to point points[r]
    of dom: the map of monomial form column points[r] (as intp) and
    coefficient 1.0 in row r, whose bytes _point_table counted."""
    return _from_monomial(dom, cod, (np.array(points, dtype=np.intp), np.ones(cod.dim)))


def _from_monomial(dom: FdCStarAlgebra, cod: FdCStarAlgebra, form: MonomialForm) -> StarMorphism:
    """The map from dom into the commutative cod that holds only the
    monomial form `form`, its arrays made read-only, as its monomial; its
    matrix is built on first read. The form keeps the rules of
    StarMorphism.monomial: finite coefficients, and cols[r] = -1 exactly
    where coefs[r] = 0."""
    for arr in form:
        arr.setflags(write=False)
    phi = StarMorphism.__new__(StarMorphism)
    phi.domain, phi.codomain = dom, cod
    phi.__dict__["monomial"] = form
    return phi


def enumerate_set_maps(n: int) -> list[StarMorphism]:
    """All n^n unital *-endomorphisms of functions on n points.

    Morphism k is the pullback of the k-th lookup table in lexicographic
    order; there are exactly n^n of them (4 for n = 2).
    """
    return [set_map_morphism(t) for t in enumerate_set_map_tables(n)]
