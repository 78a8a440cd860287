"""Finite positive-pair graphs.

A positive-pair graph is the basic object everything else consumes: a finite
vertex set with coordinates, a symmetric joint distribution over ordered
vertex pairs (the chance of drawing that pair as a positive pair), and the
induced marginal.  The joint sums to 1 over all ordered pairs, so the
marginal is exactly the vector of row sums.

Every graph stores its joint as one scipy CSR array, whatever form the input
took (a dense array, or any scipy sparse array such as COO triplets, whose
duplicate entries are summed).  The stored object satisfies the invariants
to machine precision: inputs are validated against loose tolerances, then
symmetrized and renormalized exactly once.  A saved graph holds each pair
of its joint once, i <= j, and no marginal.  Loading mirrors the pairs, runs
the same validation and derives the marginal as the row sums, keeping the
stored values, so every graph built here round-trips bit for bit; saving
refuses a graph that is not exactly symmetric or whose marginal is not its
row sums, since no file could restore it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import List, NamedTuple, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .errors import (
    AsymmetricJoint,
    DuplicateVertex,
    EmptySubset,
    EmptySupport,
    KernelNotNormalized,
    MalformedGraphFile,
    NonFiniteVertex,
    NotNormalized,
    ZeroConditionalMass,
    ZeroMassVertex,
)

_SUM_TOL = 1e-9          # acceptance tolerance for input normalization
_SYM_TOL = 1e-9          # acceptance tolerance for input symmetry


def _canonical_coords(vertices) -> np.ndarray:
    """Float64 coordinates with -0.0 folded into +0.0 (stable hashing)."""
    arr = np.asarray(vertices, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"vertices must be 2-d, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        bad = int(np.argmin(np.isfinite(arr).all(axis=1)))
        raise NonFiniteVertex(f"vertex {bad} has a non-finite coordinate: {arr[bad].tolist()}")
    return arr + 0.0


def _check_distinct(vertices: np.ndarray) -> None:
    """Raise DuplicateVertex at the first row that repeats an earlier one."""
    n, d = vertices.shape
    rows = np.ascontiguousarray(vertices if d else np.zeros((n, 1)))    # d = 0: one empty row
    keys = rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel()
    order = np.argsort(keys, kind="stable")     # equal rows in index order
    repeats = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if repeats.size:
        dup = int(repeats.min())
        first = int(np.flatnonzero(keys == keys[dup])[0])
        raise DuplicateVertex(f"vertices {first} and {dup} have identical coordinates")


@dataclass(frozen=True)
class PositivePairGraph:
    """Finite symmetric pair distribution with vertex coordinates.

    Attributes
    ----------
    vertices : (n, d) float64 array of coordinates, pairwise distinct.
    joint    : (n, n) symmetric nonnegative CSR array summing to 1, with
               no explicitly stored zeros.
    marginal : (n,) row sums of the joint; strictly positive.
    """

    vertices: np.ndarray
    joint: sparse.csr_array
    marginal: np.ndarray

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    @property
    def d(self) -> int:
        return self.vertices.shape[1]

    @property
    def is_sparse(self) -> bool:
        """Always True: every joint is stored as CSR."""
        return True

    def joint_coo(self):
        """Edge triplets (rows, cols, vals) of the joint, in CSR order."""
        J = self.joint
        return np.repeat(np.arange(self.n), np.diff(J.indptr)), J.indices, J.data


def _canonical(rows, cols, vals, n: int):
    """(key, vals): triplets sorted by key = row * n + col, with repeated
    pairs summed in the order given and zeros dropped."""
    key = np.asarray(rows, dtype=np.int64) * n + np.asarray(cols, dtype=np.int64)
    order = np.argsort(key, kind="stable")
    key, vals = key[order], np.asarray(vals, dtype=np.float64)[order]
    if key.size:
        first = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        key, vals = key[first], np.add.reduceat(vals, first)
    keep = vals != 0.0
    return key[keep], vals[keep]


def _csr(rows, cols, vals, n: int) -> sparse.csr_array:
    """The n×n CSR array of canonical triplets."""
    indptr = np.searchsorted(rows, np.arange(n + 1))     # rows are sorted
    return sparse.csr_array((vals, cols, indptr), shape=(n, n))


class _Triplets(NamedTuple):
    """A joint as (row, col, value) triplets with indices in [0, n), whose
    repeated pairs add up.  The generators hand `build_graph` their joints
    in this form, which it reads without building a scipy array first."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def _matrix_triplets(joint, n: int):
    """Triplets of a dense array or scipy sparse array that must be n×n;
    `_Triplets` pass as they are."""
    if isinstance(joint, _Triplets):
        return joint
    if not sparse.issparse(joint):
        joint = np.asarray(joint, dtype=np.float64)
    if joint.shape != (n, n):
        raise ValueError(f"joint shape {joint.shape} does not match n={n}")
    coo = joint.tocoo() if sparse.issparse(joint) else sparse.coo_array(joint)
    return coo.row, coo.col, coo.data


def _checked_joint(rows, cols, vals, n: int, sym_tol: float):
    """(rows, cols, vals, total, sym): the joint's canonical triplets, their
    sum and the canonical triplets of J + J^T, after the checks that
    building and loading share.  J^T's entries, sorted by key, line up
    with J's when the pattern is symmetric; otherwise `_canonical` sums
    J's triplets followed by J^T's, so each pair adds J's entry first,
    and J - J^T likewise."""
    key, vals = _canonical(rows, cols, vals, n)
    if not ((vals >= 0) & (vals < np.inf)).all():
        raise NotNormalized("joint has negative, NaN or infinite entries")
    rows, cols = key // n, key % n
    t_key = cols * n + rows
    order = np.argsort(t_key)
    t_vals = vals[order]
    if (t_key[order] == key).all():
        sym, gap = (rows, cols, vals + t_vals), np.abs(vals - t_vals).max(initial=0.0)
    else:
        both = np.concatenate([rows, cols]), np.concatenate([cols, rows])
        gap = np.abs(_canonical(*both, np.concatenate([vals, -vals]), n)[1]).max(initial=0.0)
        s_key, s_vals = _canonical(*both, np.concatenate([vals, vals]), n)
        sym = (s_key // n, s_key % n, s_vals)
    if gap > sym_tol:
        raise AsymmetricJoint(f"max |J - J^T| = {gap:.3e}")
    total = float(vals.sum())
    if not abs(total - 1.0) <= _SUM_TOL:
        raise NotNormalized(f"joint sums to {total!r}")
    return rows, cols, vals, total, sym


def _check_positive(marginal: np.ndarray) -> None:
    if not marginal.min() > 0.0:
        bad = int(np.argmin(marginal))
        raise ZeroMassVertex(f"vertex {bad} has marginal {float(marginal[bad])!r}")


def build_graph(vertices, joint) -> PositivePairGraph:
    """Validate and canonicalize a positive-pair graph.

    `joint` is a dense (n, n) array or any scipy sparse array; duplicate
    sparse entries are summed.  Raises AsymmetricJoint / NotNormalized /
    ZeroMassVertex / DuplicateVertex when the input is out of tolerance, and
    NonFiniteVertex for a NaN or infinite coordinate.
    Accepted input is symmetrized and renormalized so the stored graph holds
    the invariants to ~1e-16.
    """
    verts = _canonical_coords(vertices)
    n = verts.shape[0]
    if n == 0:
        raise EmptySupport("graph needs at least one vertex")
    _check_distinct(verts)
    *_, total, (rows, cols, vals) = _checked_joint(*_matrix_triplets(joint, n), n,
                                                   _SYM_TOL)
    vals *= 0.5 / total      # (J + J^T) / (2 total)
    marg = np.bincount(rows, weights=vals, minlength=n)
    _check_positive(marg)
    return PositivePairGraph(vertices=verts, joint=_csr(rows, cols, vals, n),
                             marginal=marg)


def _augmentation_triplets(p, views, kernel) -> _Triplets:
    """Triplets (x, x', p·a·a') of every ordered pair of each natural's
    views, natural by natural, each value computed as (p·a)·a'."""
    c = views.shape[1]
    return _Triplets(np.repeat(views, c, axis=1).ravel(), np.tile(views, (1, c)).ravel(),
                     ((p[:, None] * kernel)[:, :, None] * kernel[:, None, :]).ravel())


def from_augmentation_process(natural_weights, views, kernel, vertices) -> PositivePairGraph:
    """Graph of two augmentations of one natural: J(x, x') = Σ p(x̄) A(x|x̄) A(x'|x̄).

    `natural_weights` is the distribution p over m naturals; row i of the
    (m, c) arrays `views` and `kernel` holds natural i's view vertex ids, which
    may repeat across naturals, and their probabilities, summing to 1.  The
    joint reaches `build_graph`, with the n `vertices`, as m·c² triplets.
    """
    p = np.asarray(natural_weights, dtype=np.float64).ravel()
    A = np.asarray(kernel, dtype=np.float64)
    ids = np.asarray(views)
    if p.size == 0 or A.size == 0:
        raise EmptySupport("empty natural distribution or kernel")
    if A.ndim != 2 or A.shape[0] != p.size:
        raise ValueError(f"kernel shape {A.shape} does not match {p.size} naturals")
    if ids.shape != A.shape:
        raise ValueError(f"views shape {ids.shape} does not match kernel shape {A.shape}")
    n = len(vertices)
    if ids.dtype.kind not in "iu" or not ((ids >= 0) & (ids < n)).all():
        raise ValueError(f"views must be integer vertex ids in [0, {n})")
    if p.min() < 0:
        raise EmptySupport("natural weights must be nonnegative")
    total = float(p.sum())
    if total <= 0:
        raise EmptySupport("natural weights sum to zero")
    if not abs(total - 1.0) <= _SUM_TOL:     # NaN too
        raise NotNormalized(f"natural weights sum to {total!r}")
    if A.min() < 0:
        raise KernelNotNormalized("kernel has negative entries")
    row_sums = A.sum(axis=1)
    i = int(np.argmax(np.abs(row_sums - 1.0)))
    if not abs(row_sums[i] - 1.0) <= _SUM_TOL:
        raise KernelNotNormalized(f"kernel row {i} sums to {float(row_sums[i])!r}")
    return build_graph(vertices, _augmentation_triplets(p, ids.astype(np.int64), A))


@dataclass(frozen=True)
class Partition:
    """A labeling of graph vertices into disjoint sets 0..n_sets-1."""

    labels: np.ndarray

    @property
    def n_sets(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def sets(self) -> List[np.ndarray]:
        return [np.flatnonzero(self.labels == c) for c in range(self.n_sets)]

    def masses(self, graph: PositivePairGraph) -> np.ndarray:
        """Marginal mass of each set."""
        return np.bincount(self.labels, weights=graph.marginal, minlength=self.n_sets)


def partition_from_labels(labels: Sequence[int]) -> Partition:
    """Partition from arbitrary hashable labels, ids by first occurrence."""
    labels = list(labels)
    ids = {}
    out = np.empty(len(labels), dtype=np.int64)
    for i, lab in enumerate(labels):
        if lab not in ids:
            ids[lab] = len(ids)
        out[i] = ids[lab]
    return Partition(labels=out)


def connected_components(graph: PositivePairGraph) -> Partition:
    """Components of the positive-pair edge set (entries with joint > 0).

    Component ids are assigned by smallest contained vertex index, so the
    component of vertex 0 always has id 0.  Every stored joint has a
    symmetric pattern (building symmetrizes it, loading mirrors each stored
    pair), so its strong components are its components.
    scipy's strong-component search finishes the whole component of the
    smallest unvisited vertex before it starts the next, which numbers them
    by first vertex, and it skips the transposed copy that the undirected
    pass makes.
    """
    _, labels = csgraph.connected_components(graph.joint, directed=True,
                                             connection="strong")
    return Partition(labels=labels.astype(np.int64))


def cross_cluster_mass(graph: PositivePairGraph, partition: Partition) -> float:
    """Total joint mass on ordered pairs that straddle partition sets."""
    labels = np.asarray(partition.labels)
    if labels.shape != (graph.n,):
        raise ValueError("partition does not match graph size")
    rows, cols, vals = graph.joint_coo()
    cross = labels[rows] != labels[cols]
    return float(np.sum(vals[cross]))


def _subset_index(subset, n: int, use: str) -> np.ndarray:
    """`subset` as int64 indices of distinct vertices in [0, n): the one rule
    by which `restrict` and the expansion quantities read a vertex subset.
    An empty subset raises EmptySubset("<use> an empty vertex set")."""
    idx = np.asarray(subset).ravel()
    if idx.size == 0:
        raise EmptySubset(f"{use} an empty vertex set")
    if idx.dtype.kind not in "iu":
        raise ValueError(f"subset must hold integer vertex indices, got {idx.dtype}")
    if np.unique(idx).size != idx.size:
        raise ValueError("subset contains repeated indices")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError("subset index out of range")
    return idx.astype(np.int64, copy=False)


def restrict(graph: PositivePairGraph, subset) -> PositivePairGraph:
    """Condition the pair distribution on both endpoints lying in `subset`.

    The result is a well-formed graph: its joint is the renormalized
    within-subset block and its marginal the block's row sums.  (Note this
    is conditioning of the *joint*; quantities that need the restricted
    *marginal* distribution compute it directly from graph.marginal.)
    """
    idx = _subset_index(subset, graph.n, "restriction to")
    local = np.full(graph.n, -1)
    local[idx] = np.arange(idx.size)
    rows, cols, vals = graph.joint_coo()
    inside = (local[rows] >= 0) & (local[cols] >= 0)
    key, vals = _canonical(local[rows[inside]], local[cols[inside]], vals[inside], idx.size)
    rows, cols = key // idx.size, key % idx.size
    mass = float(vals.sum())
    if mass <= 0.0:
        raise ZeroConditionalMass("subset carries no joint mass")

    vals = vals / mass
    marg = np.bincount(rows, weights=vals, minlength=idx.size)
    if marg.min() <= 0.0:
        bad = int(idx[int(np.argmin(marg))])
        raise ZeroMassVertex(
            f"vertex {bad} has no within-subset pair mass"
        )
    return PositivePairGraph(vertices=graph.vertices[idx],
                             joint=_csr(rows, cols, vals, idx.size), marginal=marg)


# ---------------------------------------------------------------------------
# JSON serialization.  A graph document stores each pair of the symmetric
# joint once, i <= j, in CSR order, and no marginal: loading mirrors the
# pairs and derives the marginal as the row sums, as building does.  Floats
# go through repr, so every graph that pairlab builds round-trips bit for bit.

_LAYOUT = '{"d", "vertices", "joint": {"rows", "cols", "vals"}}, each pair once with i <= j'


def graph_to_dict(graph: PositivePairGraph) -> dict:
    """The graph's document.  A loaded graph is exactly symmetric and its
    marginal is its row sums, so a graph that is not raises AsymmetricJoint
    or NotNormalized instead of being written wrong."""
    n = graph.n
    rows, cols, vals, *_ = _checked_joint(*graph.joint_coo(), n, 0.0)
    if not np.array_equal(np.bincount(rows, weights=vals, minlength=n), graph.marginal):
        raise NotNormalized("marginal differs from the joint's row sums, "
                            "which a graph file restores")
    upper = rows <= cols
    return {"d": graph.d, "vertices": graph.vertices.tolist(),
            "joint": {"rows": rows[upper].tolist(), "cols": cols[upper].tolist(),
                      "vals": vals[upper].tolist()}}


# exact JSON types each array reads: a JSON true is a bool, an int subclass
_JSON_KINDS = {np.float64: ({int, float}, "numbers"), np.int64: ({int}, "integers")}


def _number_array(value, field: str, dtype=np.float64) -> np.ndarray:
    """The array of a JSON list of numbers (integers for int64), or of a
    list of such lists.  Strings, booleans and nulls are refused, although
    numpy would read "0.5" and true as numbers and null as NaN."""
    if type(value) is not list:
        raise MalformedGraphFile(f"{field} must be a list")
    nested = bool(value) and type(value[0]) is list
    items = value
    if nested:
        if not set(map(type, value)) <= {list} or len(set(map(len, value))) != 1:
            raise MalformedGraphFile(f"{field} must be a list of equal-length lists")
        items = list(chain.from_iterable(value))
    kinds, what = _JSON_KINDS[dtype]
    if not set(map(type, items)) <= kinds:
        raise MalformedGraphFile(f"{field} must hold {what} only")
    try:
        arr = np.array(items, dtype=dtype)
    except OverflowError as exc:
        raise MalformedGraphFile(f"unreadable {field} array: {exc}") from exc
    return arr.reshape(len(value), -1) if nested else arr


def _stored_pairs(joint, n: int):
    """(rows, cols, vals) of a document's joint: integer indices in [0, n)
    with i <= j, strictly increasing in CSR order (so no pair twice)."""
    if type(joint) is not dict or set(joint) != {"rows", "cols", "vals"}:
        raise MalformedGraphFile(f"joint must be {{\"rows\", \"cols\", \"vals\"}}; "
                                 f"expected the layout {_LAYOUT}")
    rows = _number_array(joint["rows"], "joint rows", np.int64)
    cols = _number_array(joint["cols"], "joint cols", np.int64)
    vals = _number_array(joint["vals"], "joint vals")
    if not rows.shape == cols.shape == vals.shape == (len(rows),):
        raise MalformedGraphFile(f"joint rows, cols and vals must be flat lists of one "
                                 f"length, got shapes {rows.shape}, {cols.shape}, {vals.shape}")
    if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= n):
        raise MalformedGraphFile(f"joint index out of range for n={n}")
    if (rows > cols).any():
        t = int(np.argmax(rows > cols))
        raise MalformedGraphFile(f"stored pair ({rows[t]}, {cols[t]}) has i > j; "
                                 f"expected the layout {_LAYOUT}")
    step = np.diff(rows * n + cols)
    if (step <= 0).any():
        t = int(np.argmax(step <= 0)) + 1
        raise MalformedGraphFile(f"pair ({rows[t]}, {cols[t]}) is "
                                 f"{'a duplicate' if step[t - 1] == 0 else 'out of CSR order'}")
    return rows, cols, vals


def graph_from_dict(doc: dict) -> PositivePairGraph:
    """Load a graph document of the layout `_LAYOUT`.

    Every number must be a JSON number: a string, a boolean or a null in any
    field raises MalformedGraphFile, and so does a document of any other
    layout, such as the older one with both mirrors and a stored marginal.
    The mirrored joint passes the same checks as in `build_graph`; nothing
    is renormalized, and the marginal is the row sums in canonical order.
    """
    if type(doc) is not dict or set(doc) != {"d", "vertices", "joint"}:
        keys = sorted(doc) if type(doc) is dict else type(doc).__name__
        raise MalformedGraphFile(f"graph document {keys} is not of the layout {_LAYOUT}")
    if type(doc["d"]) is not int:
        raise MalformedGraphFile(f"d must be an integer, got {doc['d']!r}")
    try:
        verts = _canonical_coords(_number_array(doc["vertices"], "vertices"))
    except ValueError as exc:
        raise MalformedGraphFile(f"unreadable vertices array: {exc}") from exc
    n = verts.shape[0]
    if verts.shape[1] != doc["d"]:
        raise MalformedGraphFile("declared d does not match vertex width")
    _check_distinct(verts)
    rows, cols, vals = _stored_pairs(doc["joint"], n)
    off = rows != cols
    rows, cols, vals, *_ = _checked_joint(np.concatenate([rows, cols[off]]),
                                          np.concatenate([cols, rows[off]]),
                                          np.concatenate([vals, vals[off]]), n, 0.0)
    marg = np.bincount(rows, weights=vals, minlength=n)
    _check_positive(marg)
    return PositivePairGraph(vertices=verts, joint=_csr(rows, cols, vals, n),
                             marginal=marg)


def save_graph(graph: PositivePairGraph, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(graph_to_dict(graph)))      # the C encoder; json.dump is pure Python


def load_graph(path) -> PositivePairGraph:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedGraphFile(f"{path}: not valid JSON: {exc}") from exc
    return graph_from_dict(doc)
