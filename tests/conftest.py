"""Shared fixtures: tiny hand-checkable graphs, a random-graph helper, the
reference loop that `random_graph` is checked against, the hand-written
joints that the augmentation-process generators are checked against, the
brute-force b_r reference that the oracle tests compare against, and the
dense pencil that the expansion minimum is compared against."""

import itertools

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.optimize import minimize

from pairlab.errors import DegenerateCovariance, EigSolverFailure, UnknownClass
from pairlab.posgraph import PositivePairGraph, _Triplets, build_graph, restrict
from pairlab.spectral import (
    _RANGE_REL_TOL,
    INFINITE,
    _conditional_marginal,
    _subset_indices,
)
from pairlab.synthdata import random_graph, sign_patterns


@pytest.fixture
def single_vertex() -> PositivePairGraph:
    """One vertex with a self-loop of mass 1."""
    return build_graph([[0.0]], [[1.0]])


@pytest.fixture
def two_vertex_uniform() -> PositivePairGraph:
    """Connected 2-vertex graph, joint uniform 1/4.

    Hand facts used across tests: marginal (1/2, 1/2), eigenvalues (0, 1),
    pair_discrepancy([1, -1]) = 2.0, expansion of [1, 0] on the whole
    graph = 1.0.
    """
    return build_graph([[0.0], [1.0]], [[0.25, 0.25], [0.25, 0.25]])


@pytest.fixture
def two_components() -> PositivePairGraph:
    """Two isolated self-loop vertices, masses 1/2 each."""
    return build_graph([[0.0], [1.0]], [[0.5, 0.0], [0.0, 0.5]])


@pytest.fixture
def two_components_uneven() -> PositivePairGraph:
    """Two connected 2-vertex blocks with total masses 0.6 and 0.4."""
    verts = [[0.0], [1.0], [2.0], [3.0]]
    joint = np.zeros((4, 4))
    joint[0, 1] = joint[1, 0] = 0.2
    joint[0, 0] = joint[1, 1] = 0.1
    joint[2, 3] = joint[3, 2] = 0.15
    joint[2, 2] = joint[3, 3] = 0.05
    return build_graph(verts, joint)


def small_random_graphs(count: int, seed: int = 0, max_n: int = 20):
    """Deterministic list of (graph, n_components) pairs for property tests."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(4, max_n + 1))
        m = int(rng.integers(1, min(4, n // 2) + 1))
        g = random_graph(n, n_components=m, seed=int(rng.integers(0, 2**31)))
        out.append((g, m))
    return out


def reference_random_graph(n: int, n_components: int = 1,
                           seed: int = 0) -> PositivePairGraph:
    """`synthdata.random_graph` as it stood before its draws were read into
    plain Python ints: the same loop, word for word, with numpy integer
    scalars in the triplet lists.  The graphs it builds are the ones
    `random_graph` must keep bit for bit."""
    rng = np.random.default_rng(seed)

    if n_components == 1:
        bounds = [0, n]
    else:
        cuts = np.sort(rng.choice(np.arange(1, n), size=n_components - 1,
                                  replace=False))
        bounds = [0] + [int(c) for c in cuts] + [n]

    rows, cols, vals = [], [], []
    for b in range(n_components):
        lo, hi = bounds[b], bounds[b + 1]
        for i in range(lo + 1, hi):
            j = int(rng.integers(lo, i))
            w = float(rng.uniform(0.2, 1.0))
            rows += [i, j]
            cols += [j, i]
            vals += [w, w]
        for _ in range(hi - lo):
            u, v = rng.integers(lo, hi, size=2)
            if u == v:
                continue
            w = float(rng.uniform(0.05, 0.5))
            rows += [u, v]
            cols += [v, u]
            vals += [w, w]
    diag = np.arange(n)
    vals = np.asarray(np.concatenate([vals, rng.uniform(0.05, 0.3, size=n)]),
                      dtype=np.float64)
    joint = scipy.sparse.coo_array(
        (vals / vals.sum(),
         (np.asarray(np.concatenate([rows, diag]), dtype=np.int64),
          np.asarray(np.concatenate([cols, diag]), dtype=np.int64))),
        shape=(n, n))

    verts = rng.standard_normal((n, 3))
    return build_graph(verts, joint)


# ---------------------------------------------------------------------------
# the generators' joints as they were written before they built through
# `from_augmentation_process`: each product p(natural) A(x|natural) A(x'|natural)
# spelled out by hand, block by block.  The graphs they build are the ones the
# generators must keep, bit for bit or within the ulps that CHANGES.md lists.


def _block_pairs(starts, size: int):
    """(rows, cols) of every ordered pair inside blocks of `size` vertices
    that begin at `starts`."""
    local = np.arange(size)
    starts = np.asarray(starts, dtype=np.int64)[:, None]
    rows = starts + np.repeat(local, size)[None, :]
    cols = starts + np.tile(local, size)[None, :]
    return rows.ravel(), cols.ravel()


def _triplet_graph(verts, rows, cols, vals, normalize: bool = False) -> PositivePairGraph:
    vals = np.asarray(vals, dtype=np.float64)
    if normalize:
        vals = vals / vals.sum()
    return build_graph(verts, _Triplets(np.asarray(rows, dtype=np.int64),
                                        np.asarray(cols, dtype=np.int64), vals))


def reference_example1_graph(d: int, s: int, grid) -> PositivePairGraph:
    """Examples 1 and 2's graph: constant blocks of (1/2^d)(1/n_combos)^2."""
    n_free = d - s
    n_naturals = 2 ** d
    n_combos = len(grid) ** n_free
    combos = np.array(list(itertools.product(grid, repeat=n_free)))
    verts = np.repeat(sign_patterns(d), n_combos, axis=0)
    verts[:, s:] *= np.tile(combos, (n_naturals, 1))
    w = (1.0 / n_naturals) * (1.0 / n_combos) ** 2
    rows, cols = _block_pairs(np.arange(n_naturals) * n_combos, n_combos)
    return _triplet_graph(verts, rows, cols, np.full(rows.size, w))


def reference_example3_graph(r: int, gamma: float, rho: float, points_per_set: int,
                             sub_clusters_per_set: int) -> PositivePairGraph:
    """Example 3's graph: each sub-cluster a block of (1/r)(q_c/q)/q_c^2."""
    n = r * points_per_set
    spread = 0.9 * rho / (points_per_set - 1) if points_per_set > 1 else 0.0
    verts = np.empty((n, 2))
    verts[:, 0] = np.repeat(np.arange(r) * (1.25 * gamma + rho), points_per_set)
    verts[:, 1] = np.tile(np.arange(points_per_set) * spread, r)
    per = points_per_set // sub_clusters_per_set
    w = (1.0 / r) * (per / points_per_set) / (per * per)
    rows, cols = _block_pairs(np.arange(r * sub_clusters_per_set) * per, per)
    return _triplet_graph(verts, rows, cols, np.full(rows.size, w))


def reference_example4_graph(d: int, s: int, gamma: float, grid) -> PositivePairGraph:
    """Example 4's graph: every natural's (view, view) pairs at
    (1/n_naturals)(1/n_combos)(1/n_combos), merged views adding up."""
    n_free = d - s
    combos = np.array(list(itertools.product(grid, repeat=n_free)))
    n_combos = combos.shape[0]
    n_naturals = d * (2 ** s) * (2 ** n_free)
    local = np.empty((2 ** s, 2 ** n_free, n_combos, d))
    local[..., :s] = gamma * sign_patterns(s)[:, None, None, :]
    local[..., s:] = sign_patterns(n_free)[:, None, :] * combos
    shift = (np.arange(d)[None, :] - np.arange(d)[:, None]) % d
    views = np.moveaxis(local[..., shift], -2, 0).reshape(-1, d) + 0.0
    _, first, inverse = np.unique(views, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    vid = np.argsort(order)[inverse.ravel()]
    first = first[order]
    p_nat, k_combo = 1.0 / n_naturals, 1.0 / n_combos
    w = p_nat * k_combo * k_combo
    aug = vid.reshape(n_naturals, n_combos)
    rows = np.repeat(aug, n_combos, axis=1).ravel()
    cols = np.tile(aug, (1, n_combos)).ravel()
    return _triplet_graph(views[first], rows, cols, np.full(rows.size, w))


_INNER = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])


def reference_two_level_graph(m: int, seed: int = 0,
                              cross_scale: float = 1e-3) -> PositivePairGraph:
    """`two_level_graph`'s graph: 1/8 on each sub-cluster's 4 ordered pairs,
    then the random cross links, all divided by their sum."""
    n, d = 4 * m, m + 2
    rng = np.random.default_rng(seed)
    verts = np.zeros((n, d))
    for j in range(m):
        verts[4 * j: 4 * j + 4, j] = 1.0
        verts[4 * j: 4 * j + 4, m:] = _INNER
    rows, cols = _block_pairs(np.arange(0, n, 2), 2)
    rows, cols, vals = rows.tolist(), cols.tolist(), [1.0 / 8.0] * rows.size
    n_cross = (m - 1) + int(rng.integers(0, m))
    for idx in range(n_cross):
        if idx < m - 1:
            a, b = idx, idx + 1
        else:
            a, b = rng.choice(m, size=2, replace=False)
        u = int(4 * a + rng.integers(0, 4))
        v = int(4 * b + rng.integers(0, 4))
        w = float(rng.uniform(0.5, 1.0)) * cross_scale
        rows += [u, v]
        cols += [v, u]
        vals += [w / 2.0, w / 2.0]
    return _triplet_graph(verts, rows, cols, vals, normalize=True)


def reference_component_cluster_graph(n_components: int) -> PositivePairGraph:
    """`component_cluster_graph`: ones on each cluster's 16 ordered pairs,
    divided by their sum."""
    n, d = 4 * n_components, 3 * n_components
    verts = np.zeros((n, d))
    for j in range(n_components):
        rows = slice(4 * j, 4 * j + 4)
        verts[rows, j] = 1.0
        verts[rows, n_components + 2 * j: n_components + 2 * j + 2] = _INNER
    rows, cols = _block_pairs(np.arange(0, n, 4), 4)
    return _triplet_graph(verts, rows, cols, np.ones(rows.size), normalize=True)


def br_bruteforce(graph: PositivePairGraph, r: int, n_starts: int = 8,
                  seed: int = 0, maxiter: int = 400) -> float:
    """Directly minimize the pair discrepancy over {F : F^T D F = I/r}.

    The feasible manifold is parameterized as F = D^{-1/2} Q / sqrt(r)
    with Q an orthonormal-column factor of an unconstrained matrix (QR),
    and the discrepancy is evaluated from its definition and minimized
    numerically — no spectral identities involved.  Intended for tiny
    graphs (n <= 6); feasibility of the best point is re-verified.
    """
    n = graph.n
    if r > n:
        raise ValueError(f"r={r} exceeds n={n}")
    inv_sqrt = 1.0 / np.sqrt(graph.marginal)
    rows, cols, vals = graph.joint_coo()

    def objective(z):
        Z = z.reshape(n, r)
        Q, _ = np.linalg.qr(Z)
        F = inv_sqrt[:, None] * Q / np.sqrt(r)
        diffs = F[rows] - F[cols]
        return float(np.sum(vals * np.einsum("ij,ij->i", diffs, diffs)))

    rng = np.random.default_rng(seed)
    best = np.inf
    best_F = None
    for _ in range(n_starts):
        z0 = rng.standard_normal(n * r)
        res = minimize(objective, z0, method="L-BFGS-B",
                       options={"maxiter": maxiter})
        if res.fun < best:
            best = float(res.fun)
            Z = res.x.reshape(n, r)
            Q, _ = np.linalg.qr(Z)
            best_F = inv_sqrt[:, None] * Q / np.sqrt(r)

    cov = best_F.T @ (best_F * graph.marginal[:, None])
    gap = np.max(np.abs(cov - np.eye(r) / r))
    if gap > 1e-9:
        raise AssertionError(f"brute-force point infeasible: gap {gap:.3e}")
    return best


def _pencil_min(a: np.ndarray, b: np.ndarray):
    """Smallest generalized eigenpair of (a, b), b positive definite."""
    try:
        vals, vecs = scipy.linalg.eigh(a, b, subset_by_index=[0, 0])
    except scipy.linalg.LinAlgError as exc:
        raise EigSolverFailure(f"generalized eigensolve failed: {exc}") from exc
    beta = float(vals[0])
    if beta < -1e-10:
        raise EigSolverFailure(f"negative expansion minimum {beta!r}")
    return max(beta, 0.0), vecs[:, 0]


def min_expansion_dense(graph: PositivePairGraph, subset, class_name: str):
    """`min_expansion_over_class` as a dense generalized eigensolve over
    |S| x |S| arrays, the reference its spectral form is checked against.

    tabular: the pair-difference quadratic form and the centered variance
    form share only the constants as null space, so beta is the smallest
    generalized eigenvalue of the pencil after deflating constants.
    linear: the same pencil on the range of the centered covariance of the
    coordinates.  Costs O(|S|^3) time and O(|S|^2) memory.
    """
    idx = _subset_indices(graph, subset)
    q = _conditional_marginal(graph, idx)

    if class_name == "tabular":
        if idx.size == 1:
            return INFINITE, None
        sub = restrict(graph, idx)
        W = sub.joint.toarray()
        A = 2.0 * (np.diag(sub.marginal) - W)
        B = 2.0 * (np.diag(q) - np.outer(q, q))
        H = scipy.linalg.null_space(q[None, :])
        beta, u = _pencil_min(H.T @ A @ H, H.T @ B @ H)
        g = np.zeros(graph.n)
        g[idx] = H @ u
        return beta, g

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
        W = sub.joint.toarray()
        lap = np.diag(sub.marginal) - W
        A = 2.0 * (Xc.T @ (lap @ Xc))
        beta, u = _pencil_min(R.T @ A @ R, R.T @ C @ R)
        w = R @ u
        return beta, graph.vertices @ w

    raise UnknownClass(
        f"min_expansion_over_class supports 'tabular' and 'linear', got {class_name!r}"
    )
