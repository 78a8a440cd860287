"""Synthetic example distributions, discretized to finite pair graphs.

Four generator families:

  * hypercube data with scaled spurious coordinates (example 1; example 2 is
    the same graph with a different labeling of the first-block sign
    patterns),
  * explicit well-separated point sets with a sub-cluster positive-pair rule
    (example 3),
  * patch data on a circle: an informative +-gamma patch at some location,
    spurious +-1 coordinates scaled by a grid in [0, 1] (example 4), labeled
    by the index of the patch pattern.

Continuous augmentation laws are replaced by finite grids; everything is
enumerated lexicographically so identical specs give bit-identical graphs.
Every generator emits its joint as (row, col, value) triplets, never as an
n×n array, so graphs up to the size guard build in bounded memory.

`sign_patterns` fixes the one sign-pattern <-> index convention of the
package: the first coordinate is the most significant bit and +1 is a 1
bit.  Example 4's labels and the constructions' units in `funclass` use it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.spatial.distance import cdist

from .errors import (
    GeometryViolation,
    IncompleteLabelMap,
    SizeGuardExceeded,
)
from .posgraph import PositivePairGraph, build_graph

DEFAULT_SIZE_GUARD = 20000

_TAU_GRID_1 = (0.5, 1.0)        # default scale grid for the hypercube family
_TAU_GRID_4 = (0.0, 0.5, 1.0)   # default for the patch family (0 must appear
                                # so the zeroed-spurious point is a vertex)


@dataclass(frozen=True)
class LabeledGraph:
    """A positive-pair graph with a downstream class label per vertex."""

    graph: PositivePairGraph
    labels: np.ndarray        # (n,) ints in [0, n_classes)
    n_classes: int


# ---------------------------------------------------------------------------
# examples 1 and 2: hypercube with scaled spurious dims


@dataclass(frozen=True)
class Example1Spec:
    d: int
    s: int
    tau_grid: Tuple[float, ...] = _TAU_GRID_1
    label_dim: int = 0
    size_guard: int = DEFAULT_SIZE_GUARD

    def __post_init__(self):
        if not (0 < self.s < self.d):
            raise ValueError(f"need 0 < s < d, got s={self.s}, d={self.d}")
        if not (0 <= self.label_dim < self.s):
            raise ValueError("label_dim must index an invariant dimension")
        grid = tuple(float(t) for t in self.tau_grid)
        if not grid:
            raise ValueError("tau_grid must be nonempty")
        if any(not (0.5 <= t <= 1.0) for t in grid):
            raise ValueError(f"tau_grid values must lie in [0.5, 1]: {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("tau_grid must be strictly increasing")
        object.__setattr__(self, "tau_grid", grid)


def _triplets(rows, cols, vals, n: int, normalize: bool = False) -> sparse.coo_array:
    """An n×n joint from triplets; repeated (row, col) entries add up.
    With `normalize`, the values are first divided by their sum."""
    vals = np.asarray(vals, dtype=np.float64)
    if normalize:
        vals = vals / vals.sum()
    return sparse.coo_array(
        (vals, (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=(n, n))


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


def _hypercube_vertices_and_joint(spec: Example1Spec):
    d, s = spec.d, spec.s
    grid = spec.tau_grid
    n_free = d - s
    n_naturals = 2 ** d
    n_combos = len(grid) ** n_free
    n = n_naturals * n_combos
    if n > spec.size_guard:
        raise SizeGuardExceeded(f"{n} vertices exceed guard {spec.size_guard}")

    combos = np.array(list(itertools.product(grid, repeat=n_free)))
    patterns = np.repeat(sign_patterns(d), n_combos, axis=0)
    verts = patterns.copy()
    verts[:, s:] *= np.tile(combos, (n_naturals, 1))
    first_block = patterns[:, :s]

    # p(natural) = 2^-d, kernel uniform over the tau combos of that natural;
    # augmentation sets are disjoint across naturals here, so the joint is
    # block diagonal with constant blocks.
    w = (1.0 / n_naturals) * (1.0 / n_combos) ** 2
    rows, cols = _block_pairs(np.arange(n_naturals) * n_combos, n_combos)
    joint = _triplets(rows, cols, np.full(rows.size, w), n)
    return verts, joint, first_block


def example1_graph(spec: Example1Spec) -> LabeledGraph:
    """Hypercube example: signs invariant, spurious dims rescaled.

    Labels: sign of coordinate `label_dim`, mapped to classes {0, 1}.
    """
    verts, joint, first_block = _hypercube_vertices_and_joint(spec)
    graph = build_graph(verts, joint)
    labels = (first_block[:, spec.label_dim] > 0).astype(np.int64)
    return LabeledGraph(graph=graph, labels=labels, n_classes=2)


def example2_labels(
    spec: Example1Spec, label_map: Dict[Tuple[float, ...], int]
) -> LabeledGraph:
    """Same graph as example 1, labels from a map on first-block signs.

    `label_map` must cover every pattern in {-1, 1}^s; class ids are the
    map's values, re-indexed densely in order of first appearance.
    """
    verts, joint, first_block = _hypercube_vertices_and_joint(spec)
    graph = build_graph(verts, joint)

    classes: Dict[int, int] = {}
    labels = np.empty(graph.n, dtype=np.int64)
    for i, row in enumerate(first_block):
        key = tuple(row)
        if key not in label_map:
            raise IncompleteLabelMap(f"label map misses pattern {key}")
        raw = label_map[key]
        if raw not in classes:
            classes[raw] = len(classes)
        labels[i] = classes[raw]
    return LabeledGraph(graph=graph, labels=labels, n_classes=len(classes))


def xor_label_map(s: int, dims: Sequence[int] = (0, 1)) -> Dict[Tuple[float, ...], int]:
    """Parity of the chosen sign coordinates — the classic non-linear map."""
    out = {}
    for pattern in sign_patterns(s).tolist():
        parity = 1
        for j in dims:
            parity *= int(pattern[j])
        out[tuple(pattern)] = 0 if parity < 0 else 1
    return out


def enumeration_label_map(s: int) -> Dict[Tuple[float, ...], int]:
    """Each sign pattern its own class (m = 2^s)."""
    return {tuple(p): i for i, p in enumerate(sign_patterns(s).tolist())}


# ---------------------------------------------------------------------------
# example 3: explicit point sets with sub-cluster positives


@dataclass(frozen=True)
class Example3Spec:
    point_sets: Tuple[Tuple[Tuple[float, ...], ...], ...]
    rho: float
    gamma: float
    labels: Tuple[int, ...]            # set index -> class
    m: int
    # one entry per set: a partition of local point indices into
    # sub-clusters; positive pairs are uniform within a sub-cluster.
    intra_pair_rule: Optional[Tuple[Tuple[Tuple[int, ...], ...], ...]] = None

    @property
    def r(self) -> int:
        return len(self.point_sets)


def example3_graph(spec: Example3Spec) -> LabeledGraph:
    """Point-set example: each set carries mass 1/r, uniform within.

    Positive pairs occur only inside a sub-cluster of a set.  Sub-cluster
    c of set i (sizes q_c within q_i points) receives pair mass
    (1/r)(q_c/q_i) spread uniformly over its ordered pairs, which keeps the
    marginal uniform on the set.  Geometry is verified: intra-set diameters
    must be <= rho and inter-set distances >= gamma.
    """
    r = spec.r
    if r == 0:
        raise ValueError("need at least one point set")
    if len(spec.labels) != r:
        raise ValueError("labels must assign a class to every set")
    sets = [np.asarray(ps, dtype=np.float64) for ps in spec.point_sets]
    sizes = [ps.shape[0] for ps in sets]
    n = sum(sizes)
    if n > DEFAULT_SIZE_GUARD:
        raise SizeGuardExceeded(f"{n} vertices exceed guard {DEFAULT_SIZE_GUARD}")

    for i, ps in enumerate(sets):
        if ps.shape[0] == 0:
            raise ValueError(f"point set {i} is empty")
        dist = cdist(ps, ps)
        worst = np.unravel_index(np.argmax(dist), dist.shape)
        if dist[worst] > spec.rho:
            raise GeometryViolation(
                f"set {i} has diameter {dist[worst]!r} > rho={spec.rho!r}",
                offending_pair=((i, int(worst[0])), (i, int(worst[1]))),
            )
    for i in range(r):
        for j in range(i + 1, r):
            dist = cdist(sets[i], sets[j])
            worst = np.unravel_index(np.argmin(dist), dist.shape)
            if dist[worst] < spec.gamma:
                raise GeometryViolation(
                    f"sets {i},{j} at distance {dist[worst]!r} < gamma={spec.gamma!r}",
                    offending_pair=((i, int(worst[0])), (j, int(worst[1]))),
                )

    rule = spec.intra_pair_rule
    if rule is None:
        rule = tuple(tuple([tuple(range(q))]) for q in sizes)
    if len(rule) != r:
        raise ValueError("intra_pair_rule must have one entry per set")

    verts = np.vstack(sets)
    rows, cols, vals = [], [], []
    offsets = np.cumsum([0] + sizes)
    for i, subclusters in enumerate(rule):
        covered = sorted(idx for sc in subclusters for idx in sc)
        if covered != list(range(sizes[i])):
            raise ValueError(
                f"intra_pair_rule for set {i} is not a partition of its points"
            )
        q_i = sizes[i]
        for sc in subclusters:
            q_c = len(sc)
            mass = (1.0 / r) * (q_c / q_i)
            w = mass / (q_c * q_c)
            idx = offsets[i] + np.asarray(sc, dtype=np.int64)
            rows.append(np.repeat(idx, q_c))
            cols.append(np.tile(idx, q_c))
            vals.append(np.full(q_c * q_c, w))

    graph = build_graph(verts, _triplets(np.concatenate(rows), np.concatenate(cols),
                                         np.concatenate(vals), n))
    labels = np.concatenate(
        [np.full(q, spec.labels[i], dtype=np.int64) for i, q in enumerate(sizes)]
    )
    return LabeledGraph(graph=graph, labels=labels, n_classes=spec.m)


def example3_lattice(
    r: int,
    points_per_set: int,
    gamma: float,
    rho: float,
    labels: Sequence[int],
    m: int,
    sub_clusters_per_set: int = 1,
) -> Example3Spec:
    """Deterministic lattice instance with verifiable slack.

    Set centers sit on the first axis with actual separation 1.25*gamma +
    rho (so the declared gamma holds strictly, never at float equality);
    points spread along the second axis with diameter 0.9*rho.
    """
    if points_per_set % sub_clusters_per_set:
        raise ValueError("sub_clusters_per_set must divide points_per_set")
    step = 1.25 * gamma + rho
    point_sets = []
    rule = []
    for i in range(r):
        base = np.zeros(2)
        base[0] = i * step
        if points_per_set == 1:
            offsets = np.zeros((1, 2))
        else:
            offsets = np.zeros((points_per_set, 2))
            offsets[:, 1] = np.arange(points_per_set) * (
                0.9 * rho / (points_per_set - 1)
            )
        point_sets.append(tuple(tuple(map(float, base + off)) for off in offsets))
        per = points_per_set // sub_clusters_per_set
        rule.append(
            tuple(
                tuple(range(c * per, (c + 1) * per))
                for c in range(sub_clusters_per_set)
            )
        )
    return Example3Spec(
        point_sets=tuple(point_sets),
        rho=rho,
        gamma=gamma,
        labels=tuple(labels),
        m=m,
        intra_pair_rule=tuple(rule),
    )


# ---------------------------------------------------------------------------
# example 4: informative patch on a circle, scaled spurious dims


@dataclass(frozen=True)
class Example4Spec:
    d: int
    s: int
    gamma: float
    tau_grid: Tuple[float, ...] = _TAU_GRID_4
    size_guard: int = DEFAULT_SIZE_GUARD

    def __post_init__(self):
        if not (1 <= self.s < self.d):
            raise ValueError(f"need 1 <= s < d, got s={self.s}, d={self.d}")
        if self.gamma <= 1.0:
            raise ValueError("gamma must exceed 1")
        grid = tuple(float(t) for t in self.tau_grid)
        if not grid:
            raise ValueError("tau_grid must be nonempty")
        if any(not (0.0 <= t <= 1.0) for t in grid):
            raise ValueError(f"tau_grid values must lie in [0, 1]: {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("tau_grid must be strictly increasing")
        object.__setattr__(self, "tau_grid", grid)


def example4_graph(spec: Example4Spec) -> LabeledGraph:
    """Patch example: naturals have a +-gamma patch of length s at circular
    location t and +-1 spurious coordinates; augmentations rescale each
    spurious coordinate by a grid value in [0, 1], keeping the patch.

    The label of a vertex is the index of its patch pattern (`sign_patterns`
    order), so it is location-invariant and there are 2^s classes.  When
    the grid contains 0, augmented views of naturals that differ only in
    spurious signs collide at the zeroed coordinates, so components merge
    from d*2^d (one per natural) down to d*2^s.  Vertices are numbered in
    order of first appearance over (t, patch, spurious signs, tau combo),
    each lexicographic.
    """
    d, s, gamma = spec.d, spec.s, spec.gamma
    grid = spec.tau_grid
    n_free = d - s
    values = sorted({t * sgn for t in grid for sgn in (-1.0, 1.0)})
    n_exact = d * (2 ** s) * len(values) ** n_free
    if n_exact > spec.size_guard:
        raise SizeGuardExceeded(f"{n_exact} vertices exceed guard {spec.size_guard}")

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
    graph = build_graph(views[first],
                        _triplets(rows, cols, np.full(rows.size, w), first.size))
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
    joint = _triplets(np.concatenate([rows, diag]), np.concatenate([cols, diag]),
                      np.concatenate([vals, rng.uniform(0.05, 0.3, size=n)]), n,
                      normalize=True)

    verts = rng.standard_normal((n, 3))
    return build_graph(verts, joint)


def component_constant_function(
    graph: PositivePairGraph, seed: int = 0
) -> np.ndarray:
    """Random function constant on each connected component."""
    from .posgraph import connected_components

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
    rng = np.random.default_rng(seed)
    inner = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    n = 4 * m
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
    rows, cols, vals = list(rows), list(cols), [1.0 / 8.0] * rows.size
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

    graph = build_graph(verts, _triplets(rows, cols, vals, n, normalize=True))
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
    inner = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    n = 4 * n_components
    d = 3 * n_components
    verts = np.zeros((n, d))
    for j in range(n_components):
        rows = slice(4 * j, 4 * j + 4)
        verts[rows, j] = 1.0
        verts[rows, n_components + 2 * j: n_components + 2 * j + 2] = inner
    rows, cols = _block_pairs(np.arange(0, n, 4), 4)
    return build_graph(verts, _triplets(rows, cols, np.ones(rows.size), n, normalize=True))
