"""Reference computations made apart from qfam, with plain numpy.

The benchmark judges qfam's answers against these: brute-force
associativity of a table, the closed-form ranks and matrices of the
workload inputs, and the commutation verdict of two conjugation families.
They rely only on qfam's documented conventions: matrix units ordered by
(block, row, column) with row-major rows, and tensor products ordered
with the left factor major.
"""

from __future__ import annotations

import numpy as np

# Defect bounds, as stated by the acceptance suites for the same checks.
EXACT_BOUND = 1e-12  # classical tables, the counit, the all-maps action
MODULAR_IDENTITY_BOUND = 1e-9  # suite modular-identity, random-identity
LEFT_INVERSE_BOUND = 1e-8  # suite modular-identity, random-left-inverse
ISOMETRY_BOUND = 1e-8  # suite action-isometry, *-isometry
COMMUTATION_BOUND = 1e-10  # suite commutant-closure, pairwise-commutation
COMPOSE_ENTRY_BOUND = 1e-12  # entrywise gap of a composed family's matrix
CLI_TOL = 1e-9  # the qfam command line's default --tol


def cyclic_table(n: int) -> np.ndarray:
    """0-based multiplication table of the cyclic group of order n."""
    r = np.arange(n)
    return (r[:, None] + r[None, :]) % n


def left_zero_table(n: int) -> np.ndarray:
    """The left-zero semigroup of order n: s t = s."""
    return np.repeat(np.arange(n)[:, None], n, axis=1)


def map_monoid(npoints: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """All self-maps of npoints points in lexicographic order, and the
    table of "apply u, then v" on them."""
    grids = np.indices((npoints,) * npoints).reshape(npoints, -1).T
    maps = [tuple(int(v) for v in g) for g in grids]
    index = {m: i for i, m in enumerate(maps)}
    table = np.array(
        [[index[tuple(v[u[x]] for x in range(npoints))] for v in maps] for u in maps]
    )
    return table, maps


def relabel_table(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The isomorphic table with element i renamed perm[i]."""
    inv = np.argsort(perm)
    return perm[table[np.ix_(inv, inv)]]


def is_associative(table: np.ndarray) -> bool:
    """Brute force over all n^3 triples."""
    table = np.asarray(table)
    return bool(np.array_equal(table[table, :], table[:, table]))


def semigroup_delta(table: np.ndarray) -> np.ndarray:
    """Matrix of f -> f(s t) from functions on n points into functions on
    pairs, the pair (s, t) at product index s n + t."""
    n = table.shape[0]
    mat = np.zeros((n * n, n), dtype=complex)
    for s in range(n):
        for t in range(n):
            mat[s * n + t, table[s, t]] = 1.0
    return mat


def coassociativity_expected(table: np.ndarray) -> float:
    """The coassociativity defect a table's coproduct must show: 0 when
    the table is associative, otherwise exactly 1 (the coefficients of the
    two iterated coproducts are 0 or 1 and differ somewhere)."""
    return 0.0 if is_associative(table) else 1.0


def left_cancellation_rank(table: np.ndarray) -> int:
    """Rank of the left span (delta_s (x) 1) Delta(delta_j) on functions
    over a finite semigroup: for each s, one independent column per value
    of the left translation t -> s t, so the sum of the row image sizes."""
    return sum(len(set(row.tolist())) for row in np.asarray(table))


def right_cancellation_rank(table: np.ndarray) -> int:
    return left_cancellation_rank(np.asarray(table).T)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def phase_list(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """count rows of n unit-modulus phases."""
    return np.exp(2j * np.pi * rng.random((count, n)))


def conjugation_matrix(unitaries) -> np.ndarray:
    """Matrix of x -> sum_t u_t x u_t^* (x) delta_t, from M_n into M_n
    (x) functions on len(unitaries) points: one n x n block per t."""
    n = unitaries[0].shape[0]
    cols = []
    for j in range(n * n):
        unit = np.zeros(n * n, dtype=complex)
        unit[j] = 1.0
        x = unit.reshape(n, n)
        cols.append(np.concatenate([(u @ x @ u.conj().T).ravel() for u in unitaries]))
    return np.column_stack(cols)


def composed_phase_matrix(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """The composed family of two diagonal-phase conjugation families:
    conjugation by diag(outer[s] * inner[t]) with label (s, t) at index
    s len(inner) + t."""
    unitaries = [np.diag(a * b) for a in outer for b in inner]
    return conjugation_matrix(unitaries)


def conjugations_commute(first, second, tol: float = 1e-9) -> bool:
    """Ad u and Ad v commute for every pair iff u v u^* v^* is a scalar."""
    for u in first:
        for v in second:
            c = u @ v @ u.conj().T @ v.conj().T
            if np.abs(c - c[0, 0] * np.eye(len(c))).max() > tol:
                return False
    return True


def magic_grid(rng: np.random.Generator, n: int, t: int) -> list[list[np.ndarray]]:
    """An n x n magic unitary over M_t: a Haar-rotated partition of unity
    into t rank-one projections q_k, entry (i, j) the sum of the q_k whose
    random permutation sends j to i."""
    w = haar_unitary(rng, t)
    q = [np.outer(w[:, k], w[:, k].conj()) for k in range(t)]
    perms = [rng.permutation(n) for _ in range(t)]
    grid = [[np.zeros((t, t), dtype=complex) for _ in range(n)] for _ in range(n)]
    for k in range(t):
        for j in range(n):
            grid[perms[k][j]][j] = grid[perms[k][j]][j] + q[k]
    return grid


def block_embedding(rng: np.random.Generator, m: int) -> np.ndarray:
    """A unital *-homomorphism from C + M_{m-1} into M_m: x -> U
    diag(x_0, X_1) U^* for a Haar unitary U, as a matrix over the
    canonical bases."""
    u = haar_unitary(rng, m)
    dom_dim = 1 + (m - 1) ** 2
    cols = []
    for j in range(dom_dim):
        big = np.zeros((m, m), dtype=complex)
        if j == 0:
            big[0, 0] = 1.0
        else:
            r, c = divmod(j - 1, m - 1)
            big[1 + r, 1 + c] = 1.0
        cols.append((u @ big @ u.conj().T).ravel())
    return np.column_stack(cols)
