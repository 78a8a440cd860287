"""Representation model classes and closed-form explicit constructions.

Four classes of functions from vertex coordinates to R^k:

  tabular  one free output vector per vertex (the universal class),
  linear   f(x) = U x,
  relu     f(x) = sigma(U x + b), elementwise max(0, .): conv's one-window case,
  conv     f(x)_i = sum_t sigma(u_i . x_{t:t+s-1} + b_i), circular windows.

Models are value types: a class tag, a shape descriptor, and a flat float64
parameter vector.  `FunctionClassSpec` alone knows a class's parameter
layout (`_LAYOUTS`: shape keys and parameter count), and its `model` is the
one builder of models; a model's `spec` is its class, and params that do
not fit it raise `DimensionMismatch`, also when a model document is loaded.
`forward` evaluates on a graph's vertex set, and `grad_params` is the
exact adjoint (the gradient of <forward, cotangent>).
Both are the one-model case of `StackedClass`, which evaluates B parameter
vectors of a class at once (the trainer's stacked cells).

The closed-form constructions of examples 2 and 4 take the graph they are
built for, read d from it, and verify their own output semantics on every
vertex of it before returning, with the displayed bias constants; a vertex
where they fail raises `ConstructionVerificationFailed`.  Their units and targets
are indexed by sign pattern in the order of `synthdata.sign_patterns`
(first coordinate most significant, +1 a 1 bit), whose inverse is
`synthdata._sign_index`; `_patch_cells` reads the (location, pattern) cell
of every example-4 vertex at once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import (
    ConstructionVerificationFailed,
    DimensionMismatch,
    MalformedGraphFile,
    SpecMismatch,
    TooManyOutputs,
    UnknownClass,
)
from .posgraph import PositivePairGraph, _number_array
from .spectral import pair_discrepancy
from .synthdata import _check_hypercube, _check_patch, _sign_index, sign_patterns

_VERIFY_TOL = 1e-9   # relative tolerance for construction output checks

# each class's parameter layout: its shape keys (in shape-dict order), the
# key that gives each of the k outputs its number of weights, and whether
# each output adds a bias (the biases follow all the weights)
_LAYOUTS = {"tabular": (("n", "k"), "n", 0), "linear": (("k", "d"), "d", 0),
            "relu": (("k", "d"), "d", 1), "conv": (("k", "d", "s"), "s", 1)}
CLASS_TAGS = tuple(_LAYOUTS)


@dataclass(frozen=True)
class RepresentationModel:
    """Built by `FunctionClassSpec.model`; params must fit the class."""

    class_tag: str
    shape: Dict[str, int]
    params: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        count = self.spec.param_count()
        if np.shape(self.params) != (count,):
            raise DimensionMismatch(f"{self.class_tag} model of shape {self.shape} "
                                    f"needs {count} params, got {np.shape(self.params)}")

    @property
    def spec(self) -> "FunctionClassSpec":
        return FunctionClassSpec(self.class_tag, **self.shape)

    @property
    def k(self) -> int:
        return self.shape["k"]


@dataclass(frozen=True)
class FunctionClassSpec:
    """Structural description of a class: tag plus dimensions, and the one
    owner of the class's parameter layout.

    `d` is the ambient coordinate dimension (ignored by tabular, which
    instead needs `n`), `s` the conv window length.
    """

    class_tag: str
    k: int
    d: int = 0
    n: int = 0
    s: int = 0

    def __post_init__(self):
        if self.class_tag not in CLASS_TAGS:
            raise UnknownClass(f"unknown class tag {self.class_tag!r}")
        if self.k < 1:
            raise DimensionMismatch("k must be >= 1")
        if self.class_tag == "conv" and not (1 <= self.s <= self.d):
            raise DimensionMismatch("conv needs 1 <= s <= d")

    def param_count(self) -> int:
        _, width, bias = _LAYOUTS[self.class_tag]
        return self.k * (getattr(self, width) + bias)

    def shape_dict(self) -> Dict[str, int]:
        return {key: getattr(self, key) for key in _LAYOUTS[self.class_tag][0]}

    def model(self, params, meta: Optional[dict] = None) -> RepresentationModel:
        """The model of this class with flat parameter vector `params`."""
        return RepresentationModel(self.class_tag, self.shape_dict(),
                                   np.asarray(params, dtype=np.float64), meta or {})

    def init_model(self, rng: np.random.Generator, scale: float = 0.1) -> RepresentationModel:
        return self.model(rng.uniform(-scale, scale, size=self.param_count()))


def spec_for_graph(class_tag: str, k: int, graph: PositivePairGraph,
                   s: int = 0) -> FunctionClassSpec:
    return FunctionClassSpec(class_tag=class_tag, k=k, d=graph.d, n=graph.n, s=s)


def _window_index(d: int, s: int) -> np.ndarray:
    return (np.arange(d)[:, None] + np.arange(s)[None, :]) % d


class StackedClass:
    """Forward pass and its adjoint for B parameter vectors of one class.

    Parameters come stacked as a (B, P) array, one flat vector per row,
    and representations go out as a (B, n, k) array.  `forward` returns
    that array and the pre-activation the adjoint needs; `adjoint` maps a
    (B, n, k) cotangent back to the (B, P) gradient.  relu and conv share
    one path: relu is conv with one window, the whole vertex.  The ReLU
    subgradient at exactly 0 is taken to be 0.
    """

    def __init__(self, spec: FunctionClassSpec, graph: PositivePairGraph):
        if spec.class_tag == "tabular":
            if spec.n != graph.n:
                raise DimensionMismatch(
                    f"tabular model for n={spec.n} evaluated on n={graph.n}")
        elif spec.d != graph.d:
            raise DimensionMismatch(f"model d={spec.d} vs graph d={graph.d}")
        self.tag = spec.class_tag
        self.n, self.k = graph.n, spec.k
        # the inputs each unit sees: vertex coordinates, or for conv every
        # circular window of every vertex, (n*d, s)
        self.inputs = graph.vertices
        if self.tag == "conv":
            self.inputs = graph.vertices[:, _window_index(graph.d, spec.s)].reshape(
                graph.n * graph.d, spec.s)
        self.n_weights = self.k * self.inputs.shape[1]   # the biases follow

    def forward(self, params: np.ndarray):
        B, n, k = params.shape[0], self.n, self.k
        if self.tag == "tabular":
            return params.reshape(B, n, k), None
        U = params[:, :self.n_weights].reshape(B, k, -1).transpose(0, 2, 1)
        pre = np.matmul(self.inputs, U)
        if self.tag == "linear":
            return pre, None
        pre += params[:, None, self.n_weights:]
        pre = pre.reshape(B, n, -1, k)      # (B, n, windows, k); relu has one window
        return np.maximum(pre, 0.0).sum(axis=2), pre

    def adjoint(self, pre, cotangent: np.ndarray) -> np.ndarray:
        B = cotangent.shape[0]
        if self.tag == "tabular":
            return cotangent.reshape(B, -1)
        if self.tag == "linear":
            return np.matmul(cotangent.transpose(0, 2, 1), self.inputs).reshape(B, -1)
        G = (cotangent[:, :, None, :] * (pre > 0.0)).reshape(B, -1, self.k)
        dU = np.matmul(G.transpose(0, 2, 1), self.inputs)
        return np.concatenate([dU.reshape(B, -1), G.sum(axis=1)], axis=1)


def forward(model: RepresentationModel, graph: PositivePairGraph) -> np.ndarray:
    """n x k representation matrix of the model on the graph's vertices."""
    F, _ = StackedClass(model.spec, graph).forward(model.params[None, :])
    return F[0].copy()


def grad_params(model: RepresentationModel, graph: PositivePairGraph,
                cotangent: np.ndarray) -> np.ndarray:
    """Gradient of <forward(model, graph), cotangent> in the flat params.

    The ReLU subgradient at exactly 0 is taken to be 0.
    """
    net = StackedClass(model.spec, graph)
    C = np.asarray(cotangent, dtype=np.float64)
    if C.shape != (graph.n, model.k):
        raise DimensionMismatch(
            f"cotangent shape {C.shape}, expected {(graph.n, model.k)}"
        )
    _, pre = net.forward(model.params[None, :])
    return net.adjoint(pre, C[None])[0].copy()


def lipschitz_constant(model: RepresentationModel, graph: PositivePairGraph) -> float:
    """max over distinct vertex pairs of ||f(x)-f(x')|| / ||x-x'||.

    A lower bound on any ambient Lipschitz constant; on finite supports it
    is the exact modulus the theorems consume.
    """
    # imported on use: scipy.spatial is a sixth of `import pairlab`
    from scipy.spatial.distance import cdist

    F = forward(model, graph)
    best = 0.0
    step = 1024
    for lo in range(0, graph.n, step):
        hi = min(lo + step, graph.n)
        dx = cdist(graph.vertices[lo:hi], graph.vertices)
        df = cdist(F[lo:hi], F)
        np.fill_diagonal(dx[:, lo:hi], np.inf)
        ratio = df / dx
        best = max(best, float(np.nanmax(ratio)))
    return best


# ---------------------------------------------------------------------------
# closed-form constructions


def construct_example1_optimal(d: int, s: int) -> RepresentationModel:
    """Linear projection onto the invariant block: rows e_1..e_s (k = s).

    On the matching hypercube graph this has pair discrepancy 0 and
    representation covariance exactly I, hence loss 0 for every lambda.
    """
    _check_hypercube(d, s)
    U = np.zeros((s, d))
    U[np.arange(s), np.arange(s)] = 1.0
    return FunctionClassSpec("linear", k=s, d=d).model(
        U.ravel(), meta={"construction": "invariant-block projection"})


def _verify_onehot_outputs(model: RepresentationModel, graph: PositivePairGraph,
                           target_idx: np.ndarray, scale: float,
                           semantics: str) -> RepresentationModel:
    """`model`, once its output on every vertex of `graph` is checked to be
    scale * e_{target_idx}, or the zero row where the target index is >= k;
    else `ConstructionVerificationFailed` names the first vertex that differs."""
    F = forward(model, graph)
    target = np.zeros(F.shape)
    shown = target_idx < F.shape[1]
    target[shown, target_idx[shown]] = scale
    bad = np.flatnonzero(~(np.max(np.abs(F - target), axis=1) <= _VERIFY_TOL * scale))  # NaN too
    if bad.size:
        raise ConstructionVerificationFailed(f"{semantics} semantics fail at vertex {bad[0]}")
    return model


def construct_example2_optimal(s: int, graph: PositivePairGraph) -> RepresentationModel:
    """ReLU network computing sqrt(k) * one-hot(sign pattern of x_{1:s}).

    Row i has weights sqrt(k) * (the i-th sign pattern) on the first s
    coordinates and the displayed bias -sqrt(k)(s-1).  The one-hot
    semantics are verified on every vertex of `graph`;
    `ConstructionVerificationFailed` names the first vertex where they fail.
    """
    _check_hypercube(graph.d, s)
    want_k = 2 ** s
    scale = np.sqrt(want_k)

    U = np.zeros((want_k, graph.d))
    U[:, :s] = scale * sign_patterns(s)
    bias_displayed = -scale * (s - 1)

    target_idx = _sign_index(graph.vertices[:, :s] > 0)
    model = FunctionClassSpec("relu", k=want_k, d=graph.d).model(
        np.concatenate([U.ravel(), np.full(want_k, bias_displayed)]))
    return _verify_onehot_outputs(model, graph, target_idx, scale, "one-hot")


def _patch_cells(X: np.ndarray, d: int, s: int):
    """(t, pattern) of every vertex: the start t of the length-s circular
    window that holds its above-unit-magnitude patch entries, and the sign
    index of the patch read from that window."""
    patch = np.abs(X) > 1.0
    counts = patch.sum(axis=1)
    widx = _window_index(d, s)
    inside = patch[:, widx].all(axis=2)
    bad = np.flatnonzero((counts != s) | ~inside.any(axis=1))
    if bad.size:
        v = int(bad[0])
        if counts[v] != s:
            raise SpecMismatch(
                f"vertex {v} has {counts[v]} patch-magnitude entries, expected {s}")
        raise SpecMismatch(f"patch entries of vertex {v} are not circularly consecutive")
    t = np.argmax(inside, axis=1)
    return t, _sign_index(np.take_along_axis(X, widx[t], axis=1) > 0)


def construct_example4_optimal(s: int, gamma: float,
                               graph: PositivePairGraph) -> RepresentationModel:
    """Convolutional network computing sqrt(k) * one-hot(patch pattern).

    Filter i is (sqrt(k)/(gamma-1)) times the i-th sign pattern; the
    displayed bias makes the aligned matching window output sqrt(k) and
    every other window non-positive (worst case exactly 0).  Verified on
    every vertex of `graph`; `ConstructionVerificationFailed` names the
    first vertex where the semantics fail.
    """
    d = graph.d
    _check_patch(d, s, gamma)
    want_k = 2 ** s
    scale = np.sqrt(want_k)
    a = scale / (gamma - 1.0)

    U = a * sign_patterns(s)
    bias_displayed = -a * (gamma * (s - 1) + 1.0)

    _, target_idx = _patch_cells(graph.vertices, d, s)
    model = FunctionClassSpec("conv", k=want_k, d=d, s=s).model(
        np.concatenate([U.ravel(), np.full(want_k, bias_displayed)]))
    return _verify_onehot_outputs(model, graph, target_idx, scale, "one-hot patch")


def construct_adversarial_universal(
    graph: PositivePairGraph, k: int, key_dims: Sequence[int]
) -> RepresentationModel:
    """Tabular minimizer that is measurable w.r.t. the key coordinates only.

    Vertices are grouped by the sign index of their `key_dims` pattern
    (`sign_patterns` order).  The k lowest-indexed occurring groups are
    mapped to (1/sqrt(group mass)) * e_j; remaining groups map to the zero
    vector.  Either way the representation covariance is exactly I and,
    provided components refine the grouping, the pair term vanishes — so
    the loss is 0 while the output ignores every coordinate outside
    key_dims.
    """
    key = np.asarray(key_dims, dtype=np.int64)
    if key.size == 0 or key.min() < 0 or key.max() >= graph.d:
        raise DimensionMismatch(f"bad key dims {key_dims!r} for d={graph.d}")

    group_of = _sign_index(graph.vertices[:, key] > 0)

    present = np.unique(group_of)
    if k > present.size:
        raise TooManyOutputs(
            f"k={k} exceeds {present.size} occurring key patterns"
        )

    # positive pairs must never straddle groups, else the pair term
    # would not vanish and the construction would not be a minimizer
    rows, cols, vals = graph.joint_coo()
    straddle = (group_of[rows] != group_of[cols]) & (vals > 0)
    if straddle.any():
        a = int(rows[np.argmax(straddle)])
        raise SpecMismatch(
            f"components do not refine key patterns (edge at vertex {a})"
        )

    F = np.zeros((graph.n, k))
    for j, gval in enumerate(present[:k]):
        members = group_of == gval
        mass = float(graph.marginal[members].sum())
        F[members, j] = 1.0 / np.sqrt(mass)

    return spec_for_graph("tabular", k, graph).model(
        F.ravel(), meta={"key_dims": [int(x) for x in key],
                         "represented_groups": [int(g) for g in present[:k]]})


def construct_example4_adversarial_relu(s: int, gamma: float, k: int,
                                        graph: PositivePairGraph) -> RepresentationModel:
    """Derived ReLU-class zero-loss model indicating k (location, patch)
    clusters (the first k in lexicographic (t, pattern) order).

    Unit j for cluster (t, pattern): weights a * pattern on the window at
    t, bias -a(gamma(s-1)+1) with a = sqrt(C)/(gamma-1) and C = d*2^s the
    cluster count, so vertices of that cluster output sqrt(C) and every
    other vertex outputs 0.  Vertices of unrepresented clusters map to the
    zero vector.  Verified on every vertex of `graph`;
    `ConstructionVerificationFailed` names the first vertex where the
    semantics fail.
    """
    d = graph.d
    _check_patch(d, s, gamma)
    n_clusters = d * (2 ** s)
    if k > n_clusters:
        raise TooManyOutputs(f"k={k} exceeds {n_clusters} clusters")

    scale = np.sqrt(n_clusters)
    a = scale / (gamma - 1.0)

    # unit j is cluster j = t * 2^s + pattern
    unit_t, unit_pattern = np.divmod(np.arange(k), 2 ** s)
    U = np.zeros((k, d))
    U[np.arange(k)[:, None], _window_index(d, s)[unit_t]] = a * sign_patterns(s)[unit_pattern]
    bias = np.full(k, -a * (gamma * (s - 1) + 1.0))

    model = FunctionClassSpec("relu", k=k, d=d).model(
        np.concatenate([U.ravel(), bias]),
        meta={"represented_clusters": np.stack([unit_t, unit_pattern], axis=1).tolist(),
              "cluster_count": n_clusters})

    t, pattern = _patch_cells(graph.vertices, d, s)
    return _verify_onehot_outputs(model, graph, t * 2 ** s + pattern, scale,
                                  "cluster indicator")


# ---------------------------------------------------------------------------
# serialization


def model_to_dict(model: RepresentationModel) -> dict:
    return {
        "class": model.class_tag,
        "shape": {key: int(v) for key, v in model.shape.items()},
        "params": [float(x) for x in model.params],
        "meta": model.meta,
    }


def model_from_dict(doc: dict) -> RepresentationModel:
    """The model of a `model_to_dict` document, checked against its class.

    Shape values must be JSON integers and params a flat list of finite JSON
    numbers; a missing field or any other value raises DimensionMismatch.
    """
    missing = sorted({"class", "shape", "params"} - set(doc))
    if missing:
        raise DimensionMismatch(f"model document has no {', '.join(missing)}")
    shape = doc["shape"]
    if type(shape) is not dict:
        raise DimensionMismatch(f"model shape must be an object, got {shape!r}")
    for key, value in shape.items():
        if type(value) is not int:
            raise DimensionMismatch(f"shape {key} must be an integer, got {value!r}")
    try:
        params = _number_array(doc["params"], "params")
    except MalformedGraphFile as exc:
        raise DimensionMismatch(f"model {exc}") from exc
    if not np.isfinite(params).all():
        raise DimensionMismatch("model params must be finite")
    try:
        spec = FunctionClassSpec(doc["class"], **shape)
    except TypeError as exc:     # a shape key that no class has, or no k
        raise DimensionMismatch(f"{doc['class']} shape {shape}: {exc}") from exc
    if shape != spec.shape_dict():
        raise DimensionMismatch(f"{spec.class_tag} shape has keys {list(spec.shape_dict())}")
    return spec.model(params, doc.get("meta", {}))


def save_model(model: RepresentationModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh)


def load_model(path) -> RepresentationModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def zero_loss_certificate(model: RepresentationModel, graph: PositivePairGraph) -> dict:
    """The two loss pieces of a claimed minimizer, and their sum (the
    loss at lambda = 1)."""
    F = forward(model, graph)
    cov = F.T @ (F * graph.marginal[:, None])
    reg = float(np.sum((cov - np.eye(model.k)) ** 2))
    pair = pair_discrepancy(graph, F)
    return {"pair": pair, "reg": reg, "loss": pair + reg}
