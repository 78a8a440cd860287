"""Shared fixtures: tiny hand-checkable graphs, a random-graph helper and
the brute-force b_r reference that the oracle tests compare against."""

import numpy as np
import pytest
from scipy.optimize import minimize

from pairlab.posgraph import PositivePairGraph, build_graph
from pairlab.synthdata import random_graph


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
