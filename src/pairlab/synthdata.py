"""Synthetic example distributions, discretized to finite pair graphs.

Four generator families:

  * hypercube data with scaled spurious coordinates (example 1; example 2 is
    the same graph with a different labeling of the first-block sign
    patterns),
  * a lattice of well-separated point sets, its geometry holding by
    construction, with positive pairs inside sub-clusters (example 3),
  * patch data on a circle: an informative +-gamma patch at some location,
    spurious +-1 coordinates scaled by a grid in [0, 1] (example 4), labeled
    by the index of the patch pattern.

Continuous augmentation laws are replaced by finite grids; everything is
enumerated lexicographically so identical arguments give bit-identical graphs.
Every generator emits its joint as (row, col, value) triplets, never as an
n×n array, so graphs up to the size guard build in bounded memory.

`sign_patterns` fixes the one sign-pattern <-> index convention of the
package: the first coordinate is the most significant bit and +1 is a 1
bit; `_sign_index` is its inverse.  Example 2's and example 4's labels and
the constructions' units in `funclass` use it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import IncompleteLabelMap, SizeGuardExceeded
from .posgraph import PositivePairGraph, _Triplets, build_graph, connected_components

DEFAULT_SIZE_GUARD = 20000

_TAU_GRID_1 = (0.5, 1.0)        # default scale grid for the hypercube family
_TAU_GRID_4 = (0.0, 0.5, 1.0)   # default for the patch family (0 must appear
                                # so the zeroed-spurious point is a vertex)


@dataclass(frozen=True)
class LabeledGraph:
    """A positive-pair graph with a downstream class label per vertex, or none."""

    graph: PositivePairGraph
    labels: Optional[np.ndarray] = None   # (n,) ints in [0, n_classes)
    n_classes: int = 0


# ---------------------------------------------------------------------------
# input checks, made before anything is allocated (funclass uses them too)


def _check_size(n: int) -> None:
    """Refuse a graph of n vertices above the size guard, before it is built."""
    if n > DEFAULT_SIZE_GUARD:
        raise SizeGuardExceeded(f"{n} vertices exceed guard {DEFAULT_SIZE_GUARD}")


def _check_tau_grid(grid, low: float) -> Tuple[float, ...]:
    """`grid` as floats, once it is nonempty, strictly increasing and in [low, 1]."""
    grid = tuple(float(t) for t in grid)
    if not grid:
        raise ValueError("tau_grid must be nonempty")
    if any(not (low <= t <= 1.0) for t in grid):
        raise ValueError(f"tau_grid values must lie in [{low:g}, 1]: {grid}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("tau_grid must be strictly increasing")
    return grid


def _check_hypercube(d: int, s: int) -> None:
    """Examples 1 and 2 need an invariant block and a spurious one."""
    if not (0 < s < d):
        raise ValueError(f"need 0 < s < d, got s={s}, d={d}")


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _check_patch(d: int, s: int, gamma: float) -> None:
    """Example 4 needs a patch shorter than the circle, above unit magnitude."""
    if not (1 <= s < d):
        raise ValueError(f"need 1 <= s < d, got s={s}, d={d}")
    _check_finite(gamma=gamma)
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1")


# ---------------------------------------------------------------------------
# examples 1 and 2: hypercube with scaled spurious dims


def _graph(verts, rows, cols, vals, normalize: bool = False) -> PositivePairGraph:
    """The graph of `verts` whose joint has the (row, col, value) triplets;
    repeated (row, col) entries add up.  With `normalize`, the values are
    first divided by their sum."""
    vals = np.asarray(vals, dtype=np.float64)
    if normalize:
        vals = vals / vals.sum()
    return build_graph(verts, _Triplets(np.asarray(rows, dtype=np.int64),
                                        np.asarray(cols, dtype=np.int64), vals))


def _block_pairs(starts, size: int):
    """(rows, cols) of every ordered pair inside blocks of `size` vertices
    that begin at `starts`."""
    local = np.arange(size)
    starts = np.asarray(starts, dtype=np.int64)[:, None]
    rows = starts + np.repeat(local, size)[None, :]
    cols = starts + np.tile(local, size)[None, :]
    return rows.ravel(), cols.ravel()


def sign_patterns(bits: int) -> np.ndarray:
    """All ±1 vectors of length `bits` as a (2^bits, bits) array.

    Row i has +1 exactly at the 1 bits of i, first coordinate most
    significant: the rows are lexicographic with -1 first, and row i is the
    pattern that every sign-pattern index in pairlab calls i.
    """
    bits_of = (np.arange(2 ** bits)[:, None] >> np.arange(bits - 1, -1, -1)) & 1
    return np.where(bits_of == 1, 1.0, -1.0)


def _sign_index(positive: np.ndarray) -> np.ndarray:
    """Row index in `sign_patterns` of each sign pattern, given as a
    boolean (..., bits) array that is True where the sign is +1."""
    bits = positive.shape[-1]
    return positive @ (1 << np.arange(bits - 1, -1, -1))


def _hypercube_graph(d: int, s: int, grid: Tuple[float, ...]):
    """Examples 1 and 2's graph, and the first s signs of each vertex."""
    n_free = d - s
    n_naturals = 2 ** d
    n_combos = len(grid) ** n_free
    n = n_naturals * n_combos
    _check_size(n)

    combos = np.array(list(itertools.product(grid, repeat=n_free)))
    patterns = np.repeat(sign_patterns(d), n_combos, axis=0)
    verts = patterns.copy()
    verts[:, s:] *= np.tile(combos, (n_naturals, 1))

    # p(natural) = 2^-d, kernel uniform over the tau combos of that natural;
    # augmentation sets are disjoint across naturals here, so the joint is
    # block diagonal with constant blocks.
    w = (1.0 / n_naturals) * (1.0 / n_combos) ** 2
    rows, cols = _block_pairs(np.arange(n_naturals) * n_combos, n_combos)
    return _graph(verts, rows, cols, np.full(rows.size, w)), patterns[:, :s]


def example1_graph(d: int, s: int, tau_grid: Sequence[float] = _TAU_GRID_1,
                   label_dim: int = 0) -> LabeledGraph:
    """Hypercube example: the 2^d sign patterns are the naturals, the first
    s coordinates are invariant, and each of the d - s spurious ones is
    rescaled by a value of `tau_grid` in [0.5, 1].

    Labels: sign of coordinate `label_dim`, mapped to classes {0, 1}.
    """
    _check_hypercube(d, s)
    if not (0 <= label_dim < s):
        raise ValueError("label_dim must index an invariant dimension")
    graph, signs = _hypercube_graph(d, s, _check_tau_grid(tau_grid, 0.5))
    return LabeledGraph(graph=graph, labels=(signs[:, label_dim] > 0).astype(np.int64),
                        n_classes=2)


def example2_labels(
    d: int,
    s: int,
    label_map: Union[Dict[Tuple[float, ...], int], Callable[[int], Dict]],
    tau_grid: Sequence[float] = _TAU_GRID_1,
) -> LabeledGraph:
    """Same graph as example 1, labels from a map on first-block signs.

    `label_map` must cover every pattern in {-1, 1}^s; class ids are the
    map's values, re-indexed densely in order of first appearance.  It may
    also be a function of s that returns such a map (`xor_label_map`,
    `enumeration_label_map`), called only once d, s and `tau_grid` pass
    their checks, so a map of 2^s patterns is never built for a refused s.
    """
    _check_hypercube(d, s)
    graph, signs = _hypercube_graph(d, s, _check_tau_grid(tau_grid, 0.5))
    if callable(label_map):
        label_map = label_map(s)

    # every pattern occurs, first in `sign_patterns` order
    classes: Dict[int, int] = {}
    table = np.empty(2 ** s, dtype=np.int64)
    for i, key in enumerate(map(tuple, sign_patterns(s).tolist())):
        if key not in label_map:
            raise IncompleteLabelMap(f"label map misses pattern {key}")
        table[i] = classes.setdefault(label_map[key], len(classes))
    return LabeledGraph(graph=graph, labels=table[_sign_index(signs > 0)],
                        n_classes=len(classes))


def xor_label_map(s: int) -> Dict[Tuple[float, ...], int]:
    """Parity of the first two sign coordinates — the classic non-linear map."""
    if s < 2:
        raise ValueError("XOR labels need s >= 2")
    return {tuple(p): 0 if p[0] * p[1] < 0 else 1 for p in sign_patterns(s).tolist()}


def enumeration_label_map(s: int) -> Dict[Tuple[float, ...], int]:
    """Each sign pattern its own class (m = 2^s)."""
    return {tuple(p): i for i, p in enumerate(sign_patterns(s).tolist())}


# ---------------------------------------------------------------------------
# example 3: a lattice of point sets with sub-cluster positives


def example3_graph(
    r: int,
    gamma: float,
    rho: float,
    labels: Sequence[int],
    m: int,
    points_per_set: int = 4,
    sub_clusters_per_set: int = 1,
) -> LabeledGraph:
    """Point-set example: r sets of `points_per_set` points, set i labeled
    `labels[i]` in [0, m), each set carrying mass 1/r, uniform within.

    Geometry holds by construction: set centers sit on the first axis
    1.25*gamma + rho apart (so the declared gamma holds with slack, not at
    float equality), and each set's points spread along the second axis
    with diameter 0.9*rho.  Each set splits into `sub_clusters_per_set`
    runs of consecutive points; a sub-cluster of q_c of the set's q points
    receives pair mass (1/r)(q_c/q) spread uniformly over its ordered
    pairs, which keeps the marginal uniform on the set.
    """
    if sub_clusters_per_set < 1:
        raise ValueError(f"need sub_clusters_per_set >= 1, got {sub_clusters_per_set}")
    if points_per_set % sub_clusters_per_set:
        raise ValueError("sub_clusters_per_set must divide points_per_set")
    if r < 1:
        raise ValueError("need at least one point set")
    if len(labels) != r:
        raise ValueError("labels must assign a class to every set")
    n = r * points_per_set
    _check_size(n)
    if points_per_set < 1:
        raise ValueError(f"need points_per_set >= 1, got {points_per_set}")
    _check_finite(gamma=gamma, rho=rho)
    if rho < 0:
        raise ValueError(f"need rho >= 0, got {rho!r}")
    for i, label in enumerate(labels):
        if not 0 <= label < m:
            raise ValueError(f"labels must lie in [0, m={m}), got {label} for set {i}")

    spread = 0.9 * rho / (points_per_set - 1) if points_per_set > 1 else 0.0
    verts = np.empty((n, 2))
    verts[:, 0] = np.repeat(np.arange(r) * (1.25 * gamma + rho), points_per_set)
    verts[:, 1] = np.tile(np.arange(points_per_set) * spread, r)
    per = points_per_set // sub_clusters_per_set
    w = (1.0 / r) * (per / points_per_set) / (per * per)
    rows, cols = _block_pairs(np.arange(r * sub_clusters_per_set) * per, per)
    graph = _graph(verts, rows, cols, np.full(rows.size, w))
    labels = np.repeat(np.asarray(labels, dtype=np.int64), points_per_set)
    return LabeledGraph(graph=graph, labels=labels, n_classes=m)


# ---------------------------------------------------------------------------
# example 4: informative patch on a circle, scaled spurious dims


def example4_graph(d: int, s: int, gamma: float,
                   tau_grid: Sequence[float] = _TAU_GRID_4) -> LabeledGraph:
    """Patch example: naturals have a +-gamma patch of length s at circular
    location t and +-1 spurious coordinates; augmentations rescale each
    spurious coordinate by a value of `tau_grid` in [0, 1], keeping the
    patch.

    The label of a vertex is the index of its patch pattern (`sign_patterns`
    order), so it is location-invariant and there are 2^s classes.  When
    the grid contains 0, augmented views of naturals that differ only in
    spurious signs collide at the zeroed coordinates, so components merge
    from d*2^d (one per natural) down to d*2^s.  Vertices are numbered in
    order of first appearance over (t, patch, spurious signs, tau combo),
    each lexicographic.
    """
    _check_patch(d, s, gamma)
    grid = _check_tau_grid(tau_grid, 0.0)
    n_free = d - s
    values = sorted({t * sgn for t in grid for sgn in (-1.0, 1.0)})
    _check_size(d * (2 ** s) * len(values) ** n_free)

    combos = np.array(list(itertools.product(grid, repeat=n_free)))
    n_combos = combos.shape[0]
    n_naturals = d * (2 ** s) * (2 ** n_free)
    # one view per (patch, spurious signs, combo) with the patch at location
    # 0, then rotated so that coordinate (t + j) % d holds entry j
    local = np.empty((2 ** s, 2 ** n_free, n_combos, d))
    local[..., :s] = gamma * sign_patterns(s)[:, None, None, :]
    local[..., s:] = sign_patterns(n_free)[:, None, :] * combos
    shift = (np.arange(d)[None, :] - np.arange(d)[:, None]) % d
    views = np.moveaxis(local[..., shift], -2, 0).reshape(-1, d) + 0.0  # fold -0.0
    view_label = np.tile(np.repeat(np.arange(2 ** s), 2 ** n_free * n_combos), d)

    # colliding views merge into one vertex, numbered by first appearance
    _, first, inverse = np.unique(views, axis=0, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    vid = np.argsort(order)[inverse.ravel()]
    first = first[order]
    labels = view_label[first]
    # collisions only merge views that share the patch
    assert np.array_equal(labels[vid], view_label)

    # p(natural) uniform, kernel uniform over the natural's tau combos
    p_nat, k_combo = 1.0 / n_naturals, 1.0 / n_combos
    w = p_nat * k_combo * k_combo
    aug = vid.reshape(n_naturals, n_combos)
    rows = np.repeat(aug, n_combos, axis=1).ravel()
    cols = np.tile(aug, (1, n_combos)).ravel()
    graph = _graph(views[first], rows, cols, np.full(rows.size, w))
    return LabeledGraph(graph=graph, labels=labels, n_classes=2 ** s)


# ---------------------------------------------------------------------------
# generic random graphs (property-test instances)


def random_graph(
    n: int,
    n_components: int = 1,
    seed: int = 0,
) -> PositivePairGraph:
    """Random weighted graph with exactly `n_components` components.

    Vertices are split into random nonempty blocks; each block gets a
    random spanning tree (guaranteeing its connectivity), one extra random
    edge draw per vertex (self-loop draws are skipped), and a self-pair
    weight per vertex (guaranteeing positive marginals).  Coordinates are
    random points in R^3 and only serve as vertex identities.
    """
    if not (1 <= n_components <= n):
        raise ValueError(f"need 1 <= n_components <= n, got {n_components}, {n}")
    _check_size(n)
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
            # two scalar draws: the stream of one size=2 draw, without numpy scalars
            u, v = int(rng.integers(lo, hi)), int(rng.integers(lo, hi))
            if u == v:
                continue
            w = float(rng.uniform(0.05, 0.5))
            rows += [u, v]
            cols += [v, u]
            vals += [w, w]
    diag = np.arange(n)
    rows, cols = np.concatenate([rows, diag]), np.concatenate([cols, diag])
    vals = np.concatenate([vals, rng.uniform(0.05, 0.3, size=n)])
    verts = rng.standard_normal((n, 3))
    return _graph(verts, rows, cols, vals, normalize=True)


def component_constant_function(
    graph: PositivePairGraph, seed: int = 0
) -> np.ndarray:
    """Random function constant on each connected component."""
    part = connected_components(graph)
    rng = np.random.default_rng(seed)
    values = rng.uniform(-3.0, 3.0, size=part.n_sets)
    return values[part.labels]


# ---------------------------------------------------------------------------
# two-level clustered graphs (outer clusters linearly indicated; inner
# sub-clusters invisible to the linear class)


def two_level_graph(
    m: int,
    seed: int = 0,
    cross_scale: float = 1e-3,
) -> LabeledGraph:
    """m outer clusters of 4 vertices, each split into 2 inner sub-clusters.

    Coordinates: a one-hot outer-cluster block (so the linear class
    implements outer indicators exactly) plus 2 inner coordinates carrying
    the four sign patterns, paired so that each sub-cluster is a parity
    class: {(1,1),(-1,-1)} vs {(1,-1),(-1,1)}.  No linear functional
    separates those two pairs, so the inner split is invisible to the
    linear class while being a genuine zero-cost split for an unrestricted
    one.  Positive pairs are uniform over ordered pairs within each
    sub-cluster; a sparse random symmetric mass connects consecutive outer
    clusters (plus a few extra random cross links), supplying a small
    cross-partition mass.
    """
    if m < 2:
        raise ValueError("need at least 2 outer clusters")
    n = 4 * m
    _check_size(n)
    rng = np.random.default_rng(seed)
    inner = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    d = m + 2

    verts = np.zeros((n, d))
    labels = np.empty(n, dtype=np.int64)
    for j in range(m):
        rows = slice(4 * j, 4 * j + 4)
        verts[rows, j] = 1.0
        verts[rows, m:] = inner
        labels[rows] = j

    # 4 ordered pairs x 1/8 = 1/2 per sub-cluster
    rows, cols = _block_pairs(np.arange(0, n, 2), 2)
    rows, cols, vals = rows.tolist(), cols.tolist(), [1.0 / 8.0] * rows.size
    n_cross = (m - 1) + int(rng.integers(0, m))
    for idx in range(n_cross):
        if idx < m - 1:
            a, b = idx, idx + 1           # consecutive links keep it connected
        else:
            a, b = rng.choice(m, size=2, replace=False)
        u = int(4 * a + rng.integers(0, 4))
        v = int(4 * b + rng.integers(0, 4))
        w = float(rng.uniform(0.5, 1.0)) * cross_scale
        rows += [u, v]
        cols += [v, u]
        vals += [w / 2.0, w / 2.0]

    graph = _graph(verts, rows, cols, vals, normalize=True)
    return LabeledGraph(graph=graph, labels=labels, n_classes=m)


def component_cluster_graph(n_components: int) -> PositivePairGraph:
    """Disjoint complete 4-vertex clusters with full-rank coordinates.

    Cluster j carries a one-hot coordinate plus two private coordinates
    holding the four sign patterns, so the coordinate matrix has rank
    3*n_components and linear representations up to that dimension can be
    whitened.  Pair mass is uniform over the ordered pairs of each cluster
    (diagonal included); the pair-operator spectrum is exactly
    {0 x n_components, 1 x 3*n_components}.
    """
    if n_components < 1:
        raise ValueError("need at least one cluster")
    n = 4 * n_components
    _check_size(n)
    inner = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    d = 3 * n_components
    verts = np.zeros((n, d))
    for j in range(n_components):
        rows = slice(4 * j, 4 * j + 4)
        verts[rows, j] = 1.0
        verts[rows, n_components + 2 * j: n_components + 2 * j + 2] = inner
    rows, cols = _block_pairs(np.arange(0, n, 4), 4)
    return _graph(verts, rows, cols, np.ones(rows.size), normalize=True)
