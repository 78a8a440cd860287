"""Spectral analysis of positive-pair graphs.

The central operator is

    (L g)(x) = g(x) - (1 / p_data(x)) * sum_x' p_pos(x, x') g(x'),

whose eigenfunctions are computed in the symmetrized coordinates
h = D^{1/2} g (D = diag marginal), where L becomes the symmetric matrix
M = I - D^{-1/2} J D^{-1/2}.  Eigenvalues live in [0, 2]; the multiplicity
of 0 equals the number of connected components.

`eigendecompose` uses that structure and pays only for the pairs it
returns.  M is block-diagonal over connected components, so the zero
eigenpairs (the marginal-normalized component indicators) are written
straight into the result, in their final order, with an O(nnz) residual.
Each component is solved on its own for only the k nonzero eigenpairs it
can contribute, by whichever solver is cheaper at its size s and that k:
small components of equal size share one batched dense solve, larger ones
get a dense solve each, and a component with s^2 > `_LANCZOS_S2` *
(k + `_LANCZOS_K0`), or above `_DENSE_BLOCK_LIMIT` vertices, an iterative
one with the component's null vector deflated.  The blocks'
eigenpairs are merged in ascending order.  A dense block is written once,
into one buffer, in the triangle LAPACK reads, so it costs about one s x s
array; an iterative block's result is checked for a missed eigenvalue by
one more deflated solve, and solved again with more Lanczos vectors when
one is missed.  A block that still misses one is solved densely when it
fits in `_DENSE_BLOCK_LIMIT`.  Single blocks are taken largest first, and
a dense one whose Cholesky factorization shows no eigenvalue below the
pairs already found is not solved.  The result counts the blocks each
route took.
`pair_discrepancy` walks the CSR joint in chunks of rows, so its memory is
O(nnz) for a function of any width.

This module also hosts the expansion quantity Q_S and its class-restricted
minimum beta (for tabular, one pair from the same block solver; no
|S| x |S| array), which drive the cluster-recovery bounds downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy import sparse

from .errors import (
    DegenerateCovariance,
    EigSolverFailure,
    EmptySubset,
    GraphMismatch,
    UnknownClass,
    ZeroFunction,
)
from .posgraph import PositivePairGraph, connected_components, restrict

_EIG_RANGE_TOL = 1e-10      # eigenvalues must lie in [-tol, 2+tol]
_RESIDUAL_TOL = 1e-16       # weighted squared residual of the defining relation
_SIGN_TOL = 1e-12           # first coordinate larger than this fixes the sign
_TIE_TOL = 1e-12            # eigenvalues closer than this form a tie group
_VAR_REL_TOL = 1e-14        # relative threshold for "variance is zero"
_RANGE_REL_TOL = 1e-12      # relative eigenvalue cutoff for covariance range
_ZERO_ULPS = 8 * np.finfo(float).eps     # 4 ulps of ||M|| <= 2: a solved 0 within rounding
_STACK_LIMIT = 32           # equal-size blocks up to this size: one batched eigh
_SUBSET_LIMIT = 256         # a block above this size pays for scipy's LAPACK on its own
_DENSE_BLOCK_LIMIT = 2048   # larger blocks are solved iteratively (eigsh)
_LANCZOS_S2 = 77_000        # and so is a block of s vertices asked for k pairs
_LANCZOS_K0 = 8             # when s^2 > _LANCZOS_S2 * (k + _LANCZOS_K0)
_COMPLETE_TOL = 1e-10       # eigsh may leave out no eigenvalue below its k-th minus this
_LANCZOS_RETRIES = 3        # solves again with doubled ncv before giving up
_LANCZOS_MAXITER = 200      # eigsh restarts before a block that fits goes dense
_CUT_MARGIN = 1e-9          # skip a block only this far past the cut: >> s eps ||M|| rounding
_EDGE_CHUNK_FLOATS = 1 << 16    # pair_discrepancy gathers about this many floats at once


class _Infinite:
    """Totally-ordered +infinity sentinel (no arithmetic on purpose).

    Used where a ratio is defined to be infinite (zero denominator) so that
    comparisons like `beta <= INFINITE` work but accidental arithmetic with
    floats fails loudly instead of propagating float('inf').
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("pairlab-INFINITE")

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self


INFINITE = _Infinite()


def _as_function(graph: PositivePairGraph, g) -> np.ndarray:
    arr = np.asarray(g, dtype=np.float64)
    if arr.shape[0] != graph.n or arr.ndim not in (1, 2):
        raise GraphMismatch(
            f"function shape {arr.shape} does not fit graph with n={graph.n}"
        )
    return arr


def laplacian_apply(graph: PositivePairGraph, g) -> np.ndarray:
    """Apply L to a function (n,) or a stack of functions (n, k)."""
    arr = _as_function(graph, g)
    jg = graph.joint @ arr
    if arr.ndim == 1:
        return arr - jg / graph.marginal
    return arr - jg / graph.marginal[:, None]


def pair_discrepancy(graph: PositivePairGraph, f) -> float:
    """sum_{x,x'} p_pos(x,x') * ||f(x) - f(x')||^2.

    Evaluated edge by edge over the stored pair weights (never the moment
    identity), so a function constant on every component gives exactly 0.
    """
    arr = _as_function(graph, f)
    if arr.ndim == 1:
        arr = arr[:, None]
    J = graph.joint
    indptr = J.indptr
    step = max(1, _EDGE_CHUNK_FLOATS // arr.shape[1])    # edges per chunk
    sq = np.empty(J.nnz)        # each edge's squared gap, filled chunk by chunk
    r0 = 0
    while r0 < graph.n:
        r1 = max(r0 + 1, int(np.searchsorted(indptr, indptr[r0] + step, "right")) - 1)
        lo, hi = indptr[r0], indptr[r1]
        rows = np.repeat(np.arange(r0, r1), np.diff(indptr[r0:r1 + 1]))
        diffs = arr[rows] - arr[J.indices[lo:hi]]
        sq[lo:hi] = np.einsum("ij,ij->i", diffs, diffs)
        r0 = r1
    return float(np.sum(J.data * sq))


def _no_solves() -> dict:
    """Blocks solved by each route of `_nonzero_pairs`, and Lanczos re-solves."""
    return dict.fromkeys(("stacked", "subset", "full", "iterative", "dense_fallback",
                          "skipped", "lanczos_retries"), 0)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of L, functions orthonormal under the marginal, with the
    graph's component count, the largest weighted squared residual of
    the returned pairs (None when not computed), and how many blocks each
    solver route took."""

    eigenvalues: np.ndarray   # (count,) ascending
    functions: np.ndarray     # (n, count); column j satisfies L g_j = psi_j g_j
    n_components: Optional[int] = None
    max_residual: Optional[float] = None
    solves: dict = field(default_factory=_no_solves)

    @property
    def count(self) -> int:
        return self.eigenvalues.shape[0]


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    out = vecs.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > _SIGN_TOL)
        if nz.size and col[nz[0]] < 0:
            out[:, j] = -col
    return out


def _tie_order(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Column order that, within groups of (numerically) equal eigenvalues,
    sorts the symmetrized eigenvectors lexicographically, so repeated runs
    and solver permutations agree.  Callers comparing eigenspaces should
    still use projectors; this only pins a convention."""
    order = np.arange(vals.size)
    start = 0
    while start < vals.size:
        stop = start + 1
        while stop < vals.size and vals[stop] - vals[start] <= _TIE_TOL:
            stop += 1
        if stop - start > 1:
            # np.lexsort's last key is its primary one: coordinate 0 here
            keys = np.round(vecs[::-1, order[start:stop]], 10)
            order[start:stop] = order[start:stop][np.lexsort(keys)]
        start = stop
    return order


def _dense_blocks(B: int, s: int, b, r, c, e) -> np.ndarray:
    """The stack (B, s, s) of dense blocks of M, given block b, row r,
    column c and value e of each entry of D^-1/2 J D^-1/2.

    Only the lower triangle, the one LAPACK reads, is written: 1 - e_ii on
    the diagonal (1.0 for a vertex without a self-pair) and -e_ij/2 - e_ji/2
    below it.  Halving is exact, so this is (M + M^T)/2 bit for bit.  Each
    block is Fortran-ordered, so a single-block solve takes it uncopied."""
    M = np.zeros((B, s, s)).transpose(0, 2, 1)
    diag = np.arange(s)
    M[:, diag, diag] = 1.0
    on, below, above = r == c, r > c, r < c
    M[b[on], r[on], r[on]] = 1.0 - e[on]
    M[b[below], r[below], c[below]] = -0.5 * e[below]
    # an unordered pair is stored at most once above the diagonal, so the
    # buffered += adds each entry once
    M[b[above], c[above], r[above]] += -0.5 * e[above]
    return M


def _solve_blocks(M: np.ndarray, k: int, subset: bool):
    """The k smallest nonzero eigenpairs of each block of the stack M
    (B, s, s) from `_dense_blocks`: values (B, k) and vectors (B, s, k).
    Each block is one connected component, so its eigenvalue 0 is simple
    and is skipped.

    With `subset` the stack holds one block, and scipy solves it in place
    for only its k pairs; otherwise numpy solves every block in full."""
    if subset:
        vals, vecs = scipy.linalg.eigh(M[0], subset_by_index=[1, k], overwrite_a=True)
        return vals[None], vecs[None]
    vals, vecs = np.linalg.eigh(M)
    return vals[:, 1:k + 1], vecs[:, :, 1:k + 1].copy()


def _shifted_smallest(M, shift, k: int, start: np.ndarray, ncv=None, maxiter=None):
    """The k smallest eigenpairs of the sparse M plus `shift`, the map
    x -> 3 W W^T x that moves the orthonormal columns of some W to 3,
    above the spectrum, from `ncv` Lanczos vectors in at most `maxiter`
    restarts (eigsh's defaults when None)."""
    s = M.shape[0]
    op = scipy.sparse.linalg.LinearOperator(
        (s, s), matvec=lambda x: M @ x + shift(x), dtype=np.float64)
    return scipy.sparse.linalg.eigsh(op, k=k, which="SA", v0=start, tol=0, ncv=ncv,
                                     maxiter=maxiter)


def _solve_large_block(M, null: np.ndarray, k: int, solves: dict, maxiter=None):
    """As `_solve_blocks` for one sparse block M (s, s) with null vector
    `null`, iteratively: the null vector is shifted to 3, above the
    spectrum, and eigsh takes the k smallest of what is left, each solve in
    at most `maxiter` restarts (eigsh's default, 10 * s, when None).

    eigsh can converge to k eigenpairs that are not the k smallest, so the
    result is checked: with the returned vectors shifted away too, one more
    solve finds the smallest eigenvalue left.  When it lies below the
    largest returned one by more than `_COMPLETE_TOL`, the block is solved
    again with twice the Lanczos vectors, up to `_LANCZOS_RETRIES` times
    (each counted in solves["lanczos_retries"]), and then EigSolverFailure
    is raised."""
    s = M.shape[0]
    u = null / np.linalg.norm(null)
    start = np.random.default_rng(s).standard_normal(s)
    ncv = min(s, max(2 * k + 1, 20))       # eigsh's default
    for attempt in range(_LANCZOS_RETRIES + 1):
        solves["lanczos_retries"] += attempt > 0
        vals, vecs = _shifted_smallest(M, lambda x: 3.0 * u * (u @ x), k, start, ncv, maxiter)
        order = np.argsort(vals, kind="stable")
        vals, vecs = vals[order], vecs[:, order]
        W = np.column_stack([u, vecs])
        rest, _ = _shifted_smallest(M, lambda x: 3.0 * (W @ (W.T @ x)), 1, start,
                                    maxiter=maxiter)
        if rest[0] >= vals[-1] - _COMPLETE_TOL:
            return vals[None], vecs[None]
        ncv = min(s, 2 * ncv)
    raise EigSolverFailure(
        f"eigsh missed an eigenvalue: {float(rest[0])!r} is left below the "
        f"largest of the {k} returned, {float(vals[-1])!r}")


def _all_above(M: np.ndarray, null: np.ndarray, bound: float) -> bool:
    """Whether every eigenvalue of the dense block M (s, s), lower triangle
    from `_dense_blocks`, but its smallest is above `bound`; M is consumed.

    With u the unit `null`, the compression of M to u's complement has its
    smallest eigenvalue at most M's second smallest (Cauchy interlacing),
    whether or not u is exactly M's null vector.  So when
    (I - uu^T) M (I - uu^T) + 3 uu^T - bound I, one rank-2 update of M, is
    positive definite, which a Cholesky factorization tells at a fraction
    of the cost of a subset solve, every eigenvalue past the 0 is above
    `bound`."""
    u = null / np.linalg.norm(null)
    w = scipy.linalg.blas.dsymv(1.0, M, u, lower=1)        # M u
    w -= (0.5 * (u @ w) + 1.5) * u     # so that -(uw^T + wu^T) adds 3 uu^T too
    M = scipy.linalg.blas.dsyr2(-1.0, u, w, a=M, lower=1, overwrite_a=1)
    M[np.diag_indices_from(M)] -= bound
    _, info = scipy.linalg.lapack.dpotrf(M, lower=1, overwrite_a=1, clean=0)
    return info == 0


def _nonzero_pairs(graph: PositivePairGraph, labels: np.ndarray, need: int):
    """The `need` smallest nonzero eigenpairs of M, solved block by block
    over the components `labels`: eigenvalues (need,) ascending,
    symmetrized eigenvectors (n, need), and the blocks solved by each
    route (`_no_solves`).  A failed solve is EigSolverFailure.

    A component of s vertices gives k = min(need, s - 1) pairs.  It is
    solved iteratively when s^2 > `_LANCZOS_S2` * (k + `_LANCZOS_K0`) or
    s > `_DENSE_BLOCK_LIMIT`.  LAPACK's dense reduction costs about s^3 at
    any k, eigsh with its completeness check about s (k + 8), and the
    constants put the crossover where the two were timed equal on the
    components of `random_graph`s: about 830 vertices at k = 1, 1,180 at
    k = 10 and 1,920 at k = 40.  When the retries run out on a block of at
    most `_DENSE_BLOCK_LIMIT` vertices, or eigsh does not converge there in
    `_LANCZOS_MAXITER` restarts, the block gets the dense subset solve
    instead.  Every other block is solved densely:

    Components of one size up to the stack limit are solved in full as one
    (B, s, s) stack, larger components one at a time, each for only its k
    pairs while k is at most s/6.  Above that a subset solve costs more than
    a full one (measured crossover s/6 to s/4 for s = 33 to 1024), so such
    a block is solved in full.

    The stack limit is `_STACK_LIMIT` when some component has more than
    `_SUBSET_LIMIT` vertices, and `_SUBSET_LIMIT` otherwise.  scipy's
    LAPACK, which has the subset solve, runs on a BLAS thread pool of its
    own, and waking it beside numpy's costs more than a subset solve saves
    on a block of at most `_SUBSET_LIMIT` vertices.  So such blocks go to
    scipy only when a larger block takes it anyway.

    Single blocks are solved largest first, since large components tend to
    hold the smallest eigenvalues, and the stacks last.  Once `need`
    eigenvalues are found, a block bound for the subset solve is first
    tested by `_all_above` against the need-th smallest of them plus
    `_CUT_MARGIN`; when it has no eigenvalue there, none of its pairs
    could be merged into the result, and it is skipped.  The merge keeps
    the blocks' order above, so the result is the one solving every block
    gives, bit for bit."""
    n = graph.n
    sqrt_d = np.sqrt(graph.marginal)
    rows, cols, vals = graph.joint_coo()
    entries = vals / (sqrt_d[rows] * sqrt_d[cols])     # of D^-1/2 J D^-1/2
    sizes = np.bincount(labels)
    by_comp = np.argsort(labels, kind="stable")     # members, component-major
    first = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    pos = np.empty(n, dtype=np.int64)               # index within component
    pos[by_comp] = np.arange(n) - first[labels[by_comp]]

    entry_comp = labels[rows]
    entry_by_comp = np.argsort(entry_comp, kind="stable")   # entries, component-major
    entry_first = np.concatenate([[0], np.cumsum(np.bincount(entry_comp))])
    slot = np.zeros(sizes.size, dtype=np.int64)    # index within its batch

    stack_limit = _STACK_LIMIT if sizes.max() > _SUBSET_LIMIT else _SUBSET_LIMIT
    jobs = []       # (s, k, route, components (B,), their entries), in merge order
    for s in np.unique(sizes[sizes > 1]):
        comps = np.flatnonzero(sizes == s)
        k = min(need, s - 1)
        if s <= stack_limit:
            slot[comps] = np.arange(comps.size)
            batches = [(comps, np.flatnonzero(sizes[entry_comp] == s))]
            route = "stacked"
        else:
            batches = [(comp[None], entry_by_comp[entry_first[comp]:entry_first[comp + 1]])
                       for comp in comps]
            route = "subset" if 6 * k <= s else "full"
        if s > _DENSE_BLOCK_LIMIT or s * s > _LANCZOS_S2 * (k + _LANCZOS_K0):
            route = "iterative"
        jobs += [(s, k, route, batch, e) for batch, e in batches]

    # single blocks largest first, then the stacks: large components tend
    # to hold the smallest eigenvalues, so the cut falls early
    order = sorted(range(len(jobs)), key=lambda i: (jobs[i][2] == "stacked", -jobs[i][0], i))
    solves = _no_solves()
    blocks = [None] * len(jobs)     # (values (B, k), vectors (B, s, k), members (B, s))
    found = []                      # the eigenvalues of each block solved so far
    for i in order:
        s, k, taken, batch, e = jobs[i]
        members = by_comp[first[batch][:, None] + np.arange(s)]
        r, c = pos[rows[e]], pos[cols[e]]
        try:
            if taken == "iterative":
                M = sparse.csr_array((-entries[e], (r, c)), shape=(s, s))
                M = (M + M.T) * 0.5 + sparse.identity(s, format="csr")
                fits = s <= _DENSE_BLOCK_LIMIT
                try:
                    pairs = _solve_large_block(M, sqrt_d[members[0]], k, solves,
                                               _LANCZOS_MAXITER if fits else None)
                except (EigSolverFailure, scipy.sparse.linalg.ArpackError):
                    if not fits:
                        raise
                    taken = "dense_fallback"
            if taken != "iterative":
                # the test's buffer is freed before the solve's is made
                def dense():
                    return _dense_blocks(batch.size, s, slot[entry_comp[e]], r, c, entries[e])

                if taken == "subset" and sum(map(len, found)) >= need:
                    cut = np.partition(np.concatenate(found), need - 1)[need - 1]
                    if _all_above(dense()[0], sqrt_d[members[0]], cut + _CUT_MARGIN):
                        solves["skipped"] += 1
                        continue
                pairs = _solve_blocks(dense(), k, taken in ("subset", "dense_fallback"))
        except (scipy.linalg.LinAlgError, scipy.sparse.linalg.ArpackError) as exc:
            raise EigSolverFailure(str(exc)) from exc
        solves[taken] += batch.size
        blocks[i] = pairs + (members,)
        found.append(pairs[0].ravel())
    blocks = [b for b in blocks if b is not None]

    # merge: the `need` smallest over all blocks, ties by block order
    flat = np.concatenate([b[0].ravel() for b in blocks])
    which = np.argsort(flat, kind="stable")[:need]
    out = np.zeros((n, need))
    offset = 0
    for bvals, bvecs, members in blocks:
        B, k = bvals.shape
        mine = (which >= offset) & (which < offset + B * k)
        b, j = np.divmod(which[mine] - offset, k)
        out[members[b], np.flatnonzero(mine)[:, None]] = bvecs[b, :, j]
        offset += B * k
    return flat[which], out, solves


def _zero_pairs(graph: PositivePairGraph, labels: np.ndarray, out: np.ndarray):
    """Write the zero eigenfunctions into `out` (n, n_zero), in their final
    order, and return the weighted squared residual of each (n_zero,), by
    component.

    They are the marginal-normalized indicators of the first n_zero
    components.  `_tie_order` would sort those disjoint nonnegative columns
    by descending first vertex whose symmetrized value does not round to 0
    at 10 decimals, so that order is written down directly.  The residual
    of the sum of all indicators, computed once, is each indicator's
    residual on its own component and zero elsewhere."""
    n, n_zero = out.shape
    mass = np.bincount(labels, weights=graph.marginal)
    on = np.flatnonzero(labels < n_zero)
    comp = labels[on]
    value = 1.0 / np.sqrt(mass[comp])
    shown = np.round(value * np.sqrt(graph.marginal[on]), 10) != 0.0
    lead = np.full(n_zero, n)           # a column that rounds to 0 sorts first
    found, at = np.unique(comp[shown], return_index=True)
    lead[found] = on[shown][at]
    column = np.empty(n_zero, dtype=np.int64)
    column[np.argsort(-lead, kind="stable")] = np.arange(n_zero)
    out[on, column[comp]] = value

    h = np.zeros(n)
    h[on] = value
    res = laplacian_apply(graph, h)
    return np.bincount(labels, weights=graph.marginal * (res * res),
                       minlength=n_zero)[:n_zero]


def eigendecompose(graph: PositivePairGraph, count: int) -> SpectralDecomposition:
    """The `count` smallest eigenpairs of L.

    Zero eigenpairs are exact: the marginal-normalized indicators of the
    first min(count, #components) components.  The rest are the smallest
    nonzero eigenpairs of the components' blocks of the symmetric
    M = I - D^{-1/2} J D^{-1/2} (g = D^{-1/2} v), merged in order.
    Deterministic output: ascending eigenvalues, lexicographic tie order,
    first nonzero coordinate of each eigenvector positive.  Raises
    EigSolverFailure when a block solve fails, an eigenvalue leaves
    [0, 2], a solved eigenvalue is not above its residual norm (a zero
    beyond the min(count, #components) written), or a pair misses the
    defining relation.
    """
    n = graph.n
    if not isinstance(count, (int, np.integer)) or count < 1 or count > n:
        raise GraphMismatch(f"count={count} invalid for graph with n={n}")

    part = connected_components(graph)
    labels, n_comp = part.labels, part.n_sets
    n_zero = min(count, n_comp)
    vals = np.zeros(count)
    funcs = np.zeros((n, count))
    res_sq = _zero_pairs(graph, labels, funcs[:, :n_zero])
    solves = _no_solves()
    if count > n_comp:
        more_vals, more_vecs, solves = _nonzero_pairs(graph, labels, count - n_comp)
        more_vecs = _fix_signs(more_vecs)
        order = _tie_order(more_vals, more_vecs)
        vals[n_zero:] = more_vals[order]
        more = funcs[:, n_zero:]
        more[:] = more_vecs[:, order] / np.sqrt(graph.marginal)[:, None]
        # the defining relation, checked per returned pair
        res = laplacian_apply(graph, more) - more * vals[None, n_zero:]
        res_sq = np.concatenate([res_sq, graph.marginal @ (res * res)])

    if vals.min() < -_EIG_RANGE_TOL or vals.max() > 2.0 + _EIG_RANGE_TOL:
        raise EigSolverFailure(
            f"eigenvalues outside [0, 2]: [{float(vals.min())!r}, {float(vals.max())!r}]"
        )
    # the zeros are written from the components; a solved eigenvalue is
    # one more only if its own residual norm, or rounding, cannot exclude 0
    zeros = n_zero + int(np.sum(vals[n_zero:] <= np.sqrt(res_sq[n_zero:]) + _ZERO_ULPS))
    if zeros != n_zero:
        raise EigSolverFailure(
            f"{zeros} eigenvalues within their residual of 0, expected {n_zero} "
            f"(one per component)"
        )

    worst = float(np.max(res_sq))
    if worst > _RESIDUAL_TOL:
        raise EigSolverFailure(
            f"eigenpair residual {worst:.3e} exceeds {_RESIDUAL_TOL}"
        )
    return SpectralDecomposition(eigenvalues=vals, functions=funcs, n_components=n_comp,
                                 max_residual=worst, solves=solves)


def is_eigenfunction(graph: PositivePairGraph, g, eigenvalue: float, tol: float) -> bool:
    """Whether E_{p_data}[(L g - psi g)^2] <= tol * E_{p_data}[g^2]."""
    arr = _as_function(graph, g)
    if arr.ndim != 1:
        raise GraphMismatch("is_eigenfunction takes a single scalar function")
    norm_sq = float(graph.marginal @ (arr * arr))
    if norm_sq == 0.0:
        raise ZeroFunction("cannot test the identically-zero function")
    res = laplacian_apply(graph, arr) - eigenvalue * arr
    res_sq = float(graph.marginal @ (res * res))
    return res_sq <= tol * norm_sq


def _subset_indices(graph: PositivePairGraph, subset) -> np.ndarray:
    idx = np.asarray(subset, dtype=np.int64).ravel()
    if idx.size == 0:
        raise EmptySubset("expansion over an empty vertex set")
    return idx


def _conditional_marginal(graph: PositivePairGraph, idx: np.ndarray) -> np.ndarray:
    q = graph.marginal[idx]
    return q / q.sum()


def expansion_Q(graph: PositivePairGraph, subset, g):
    """Q_S(g): positive-pair discrepancy of g under the pair distribution
    conditioned on S, over twice the variance of g under the data
    distribution conditioned on S.  Returns INFINITE when the variance
    vanishes (g constant on S)."""
    idx = _subset_indices(graph, subset)
    arr = _as_function(graph, g)
    if arr.ndim != 1:
        raise GraphMismatch("expansion_Q takes a single scalar function")

    sub = restrict(graph, idx)
    numerator = pair_discrepancy(sub, arr[idx])

    q = _conditional_marginal(graph, idx)
    vals = arr[idx]
    mean = float(q @ vals)
    denom = 2.0 * float(q @ ((vals - mean) ** 2))
    scale = float(q @ (vals * vals))
    if denom <= _VAR_REL_TOL * scale or denom == 0.0:
        return INFINITE
    return numerator / denom


def min_expansion_over_class(graph: PositivePairGraph, subset, class_name: str):
    """(beta, argmin g): the infimum of Q_S over scalar outputs of a class,
    g^T L_S g / g^T (Q - q q^T) g for the conditional marginal q on S
    (Q = diag q) and the Laplacian L_S = diag(d_S) - W of the restricted
    joint W.  (INFINITE, None) when no in-class function varies on S.

    tabular: all functions on S.  beta is exactly 0.0 on a cell that is
    disconnected after restriction, at a restricted component's indicator.
    Otherwise beta = c * lambda, where c = max(d_S / q) <= P(S) / (P(S) - alpha_S)
    and lambda is the block solver's smallest nonzero eigenvalue of the graph
    over S with marginal q and joint J' = (W + diag(c q - d_S)) / c, since
    I - Q^-1/2 J' Q^-1/2 = Q^-1/2 L_S Q^-1/2 / c.  The argmin is its
    eigenvector over sqrt(q).

    linear: g(x) = w^T x, coordinates centered under q.  The pencil
    (Xc^T L_S Xc, Xc^T Q Xc), L_S applied through the CSR joint, is solved
    on the range of the centered covariance.
    """
    idx = _subset_indices(graph, subset)
    q = _conditional_marginal(graph, idx)

    if class_name == "tabular":
        if idx.size == 1:
            return INFINITE, None
        sub = restrict(graph, idx)
        g = np.zeros(graph.n)
        labels = connected_components(sub).labels
        if labels.max() > 0:
            g[idx] = labels == 0
            return 0.0, g
        c = float(np.max(sub.marginal / q))
        joint = (sub.joint + sparse.diags(c * q - sub.marginal, format="csr")) / c
        lam, v, _ = _nonzero_pairs(PositivePairGraph(sub.vertices, joint, q), labels, 1)
        g[idx] = v[:, 0] / np.sqrt(q)
        return max(c * float(lam[0]), 0.0), g

    if class_name == "linear":
        X = graph.vertices[idx]
        mu = q @ X
        Xc = X - mu
        C = 2.0 * (Xc.T @ (Xc * q[:, None]))
        evals, evecs = scipy.linalg.eigh(C)
        top = evals.max() if evals.size else 0.0
        keep = evals > _RANGE_REL_TOL * max(top, 1.0) if top > 0 else np.zeros_like(evals, bool)
        if not keep.any():
            if idx.size > 1:
                raise DegenerateCovariance(
                    "coordinates carry no variance on the subset"
                )
            return INFINITE, None
        R = evecs[:, keep]
        sub = restrict(graph, idx)
        A = 2.0 * (Xc.T @ (sub.marginal[:, None] * Xc - sub.joint @ Xc))
        try:
            vals, vecs = scipy.linalg.eigh(R.T @ A @ R, R.T @ C @ R, subset_by_index=[0, 0])
        except scipy.linalg.LinAlgError as exc:
            raise EigSolverFailure(f"generalized eigensolve failed: {exc}") from exc
        if vals[0] < -1e-10:
            raise EigSolverFailure(f"negative expansion minimum {float(vals[0])!r}")
        return max(float(vals[0]), 0.0), graph.vertices @ (R @ vecs[:, 0])

    raise UnknownClass(
        f"min_expansion_over_class supports 'tabular' and 'linear', got {class_name!r}"
    )
