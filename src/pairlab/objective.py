"""The contrastive objective: losses, training, oracles, whitening.

The population loss of a representation f with matrix F (rows f(x)) is

    L_lam(F) = sum_{x,x'} p_pos(x,x') ||f(x)-f(x')||^2
               + lam * || F^T D F - I ||_F^2,          D = diag(marginal)

computed exactly on the graph; nothing here samples pairs.  `StackedLoss`
evaluates it, fused with its parameter gradient, for B parameter vectors at
once, all at one lambda.

Training is deterministic full-batch L-BFGS (Nocedal & Wright, ch. 7),
multi-start for the nonconvex classes.  Every cell of a `train` call (each
seeded start and each extra starting point) is one row of a single stacked
descent at the call's lambda.  A `train_grid` call solves its lambdas as a
path: one such descent per lambda, in ascending lambda, each cell starting
from the previous lambda's final iterate of that cell when the iterate can
be whitened, and from its own start otherwise.  A tabular descent runs in
the coordinates x / s, s(x) = sqrt(min d / d(x)) (`StackedLoss.scale`): both
terms weigh f(x) by d(x), and so does the curvature at x, so on a
non-uniform marginal the scale evens out what the steps see, and a
warm-started tabular cell stops in a few evaluations.  Each cell keeps its
own last curvature pairs and its own step fraction: it backtracks when a
candidate does not lower the loss, and falls back to steepest descent when
its direction does not descend.  A candidate whose loss is non-finite or
above the divergence limit is such a rejected step; `Divergence` is raised
only for a starting loss already over the limit, `NonFiniteGradient` only
for a non-finite starting gradient.  A cell stops when the norm of its true
(unscaled) gradient is at most `grad_tol * max(1, |loss|)`, when its step
fraction falls below `_MIN_STEP`, or at `max_iters`; it is then frozen and
dropped from the stacked problem, and its stop record says which.

Closed-form minimizers: for the tabular class the loss decouples along the
eigenfunctions of the pair operator, giving an exact per-direction scalar
problem; for the linear class the same happens after whitening coordinates.
These are the oracles the trained route is checked against.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .errors import Divergence, NonFiniteGradient, SingularCovariance
from .funclass import (
    FunctionClassSpec,
    RepresentationModel,
    StackedClass,
    forward,
    spec_for_graph,
)
from .posgraph import PositivePairGraph
from .spectral import _graph_product, _on_range, eigendecompose

_DIVERGENCE_LIMIT = 1e12
_MIN_STEP = 1e-18         # smallest fraction of a direction a cell tries
_WHITEN_MIN_EIG = 1e-10   # below this, whitening refuses
# StackedLoss multiplies by a dense copy of the joint up to this many
# vertices and by the CSR joint above it.  Measured for one (B, n, k)
# product on random, two-level and hypercube graphs (2-core Xeon, OpenBLAS):
# at n=128 dense takes 5.8 us against 12.8 us for CSR at B=1, k=2, and
# 21.5 against 24.7 us at B=4, k=4; at n=200, 13.6 against 11.9 us at B=1,
# k=2; at n=256 the two tie at B=1, k=2, and CSR is 1.8x faster at B=4, k=4;
# at n=1024 CSR is 10-20x faster.
_DENSE_PRODUCT_LIMIT = 200


@dataclass(frozen=True)
class LossReport:
    total: float
    pair_term: float
    reg_term: float   # pre-lambda
    lam: float


# ---------------------------------------------------------------------------
# the loss of B stacked cells, fused with its gradient


def _left(M, F: np.ndarray) -> np.ndarray:
    """The joint M (n, n), dense or CSR, applied to every slice of F (B, n, k)."""
    if isinstance(M, np.ndarray):
        return np.matmul(M, F)
    B, n, k = F.shape
    wide = M @ F.transpose(1, 0, 2).reshape(n, B * k)
    return wide.reshape(-1, B, k).transpose(1, 0, 2)


class StackedLoss:
    """Population loss of B stacked cells of one class, given by its spec.

    A call takes parameters (B, P) and one lambda for all cells and returns
    (total, pair, reg, grad): three (B,) arrays and the (B, P) gradient.
    Everything that does not depend on the parameters (the class's input
    arrays, the joint) is built once here.

    The pair term is 2 sum_x d(x)|f(x)|^2 - 2 <F, JF>, clipped at 0, with
    JF from a dense copy of the joint up to `_DENSE_PRODUCT_LIMIT` vertices
    and from the CSR joint above.

    `scale` is the per-parameter scale `_descend` runs in: for the tabular
    class, sqrt(min d / d(x)) for each of the k outputs of vertex x, since
    both terms weigh f(x) by d(x) and so does the curvature there; all
    ones for the other classes.  Every entry is at most 1, and all are
    exactly 1 on a uniform marginal.
    """

    def __init__(self, graph: PositivePairGraph, spec: FunctionClassSpec):
        self.net = StackedClass(spec, graph)
        self.eye = np.eye(spec.k)
        small = graph.n <= _DENSE_PRODUCT_LIMIT
        self.joint = graph.joint.toarray() if small else graph.joint
        self.weights = graph.marginal[:, None]
        self.scale = np.ones(spec.param_count())
        if spec.class_tag == "tabular":
            self.scale = np.repeat(np.sqrt(graph.marginal.min() / graph.marginal), spec.k)

    def __call__(self, params: np.ndarray, lam: float):
        F, pre = self.net.forward(params)                # (B, n, k)
        WF = self.weights * F
        gap = np.matmul(F.transpose(0, 2, 1), WF)        # the covariance, for now
        JF = _left(self.joint, F)
        # sum_x d(x)|f(x)|^2 is the trace of the covariance
        pair = np.maximum(2.0 * (np.einsum("bkk->b", gap)
                                 - np.einsum("bnk,bnk->b", F, JF)), 0.0)
        gap -= self.eye
        reg = np.einsum("bkl,bkl->b", gap, gap)
        total = pair + lam * reg
        # cotangent 4 (lam W F gap + (D - J) F)
        cot = np.matmul(F, gap)
        cot *= lam
        cot *= self.weights
        WF -= JF
        cot += WF
        cot *= 4.0
        return total, pair, reg, self.net.adjoint(pre, cot)


def _single(graph, model, lam):
    total, pair, reg, grad = StackedLoss(graph, model.spec)(model.params[None, :],
                                                            float(lam))
    report = LossReport(total=float(total[0]), pair_term=float(pair[0]),
                        reg_term=float(reg[0]), lam=lam)
    return report, grad[0]


def population_loss(graph: PositivePairGraph, model: RepresentationModel,
                    lam: float) -> LossReport:
    return _single(graph, model, lam)[0]


def loss_gradient(graph: PositivePairGraph, model: RepresentationModel,
                  lam: float):
    """(LossReport, flat parameter gradient) of the population loss."""
    return _single(graph, model, lam)


# ---------------------------------------------------------------------------
# training


# what each annotation of TrainConfig admits (bool is rejected separately)
_FIELD_TYPES = {"float": numbers.Real, "int": numbers.Integral,
                "Optional[int]": (numbers.Integral, type(None))}


@dataclass(frozen=True)
class TrainConfig:
    step_size: float = 0.5      # the first step is -step_size * gradient
    max_iters: int = 4000
    seed: int = 0
    init_scale: float = 0.1
    grad_tol: float = 1e-6      # gradient norm at most grad_tol * max(1, |loss|)
    n_starts: Optional[int] = None   # default: 5 for relu/conv, 1 otherwise

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[field.type]):
                raise TypeError(f"{field.name} must be {field.type}, got {value!r}")
        if (self.step_size <= 0 or self.max_iters < 1 or self.seed < 0
                or (self.n_starts is not None and self.n_starts < 1)):
            raise ValueError("need positive step size, max_iters >= 1, "
                             "n_starts >= 1 and seed >= 0")


def _default_starts(class_tag: str) -> int:
    return 5 if class_tag in ("relu", "conv") else 1


class _Trace:
    """Per-iteration pair, reg and total of every cell, and whether the
    cell accepted its step (1.0) or not (0.0); row 0 is the start."""

    def __init__(self, B: int):
        self.values = np.zeros((64, 4, B))

    def record(self, it: int, cells: np.ndarray, pair, reg, total, accepted):
        if it == self.values.shape[0]:
            self.values = np.concatenate([self.values, np.zeros_like(self.values)])
        if cells.size == self.values.shape[2]:
            cells = slice(None)          # no cell has stopped yet
        row = self.values[it]
        row[0, cells] = pair
        row[1, cells] = reg
        row[2, cells] = total
        row[3, cells] = accepted

    def of_cell(self, cell: int) -> List[Tuple[int, float, float, float]]:
        its = np.flatnonzero(self.values[:, 3, cell])
        return list(zip(its.tolist(), *self.values[its, :3, cell].T.tolist()))


_HISTORY = 5        # curvature pairs (s, y) each cell keeps
_DROP_AFTER = 3     # rejections in a row after which a cell drops its pairs


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (B, P) arrays (np.vecdot needs NumPy 2)."""
    return (a[:, None] @ b[:, :, None])[:, 0, 0]


def _push(V, C, r, s: np.ndarray, y: np.ndarray, sy: np.ndarray, yy: np.ndarray) -> None:
    """Make (s, y) the newest pair of the rows `r` (a slice or an index
    array), dropping their oldest.  V (B, 2, m, P) holds S and Y, oldest
    first, an empty slot zero; C (B, 3, m, m) holds R^-1, Y^T Y and
    D = diag(R), where R_ij = s_i.y_j for i <= j.  The oldest pair leaves
    as the first row and column of each, and the new one enters R^-1 as
    the last column, [-R^-1 S^T y, 1] / s.y."""
    B, _, m, P = V.shape
    w = (V.reshape(B, 2 * m, P) @ y[:, :, None])[r, :, 0]   # [S^T y; Y^T y], old slots
    s, y, sy, yy = s[r], y[r], sy[r], yy[r]
    for j in range(m - 1):              # slot by slot: no copy of the history
        V[r, :, j] = V[r, :, j + 1]
    V[r, 0, -1], V[r, 1, -1] = s, y
    Cr = C[r]
    Cr[:, :, :-1, :-1] = Cr[:, :, 1:, 1:]
    Cr[:, 1, -1, :-1] = Cr[:, 1, :-1, -1] = w[:, m + 1:]
    Cr[:, 0, :, -1] = (Cr[:, 0, :, :-1] @ w[:, 1:m, None])[:, :, 0] / -sy[:, None]
    Cr[:, 0, -1, -1], Cr[:, 1, -1, -1], Cr[:, 2, -1, -1] = 1.0 / sy, yy, sy
    C[r] = Cr


def _direction(V, C, gamma: np.ndarray, g: np.ndarray) -> np.ndarray:
    """-H g for every row, H its L-BFGS inverse Hessian with H0 = gamma I,
    in the compact form of Byrd, Nocedal & Schnabel (1994):
    H g = gamma g + S R^-T ((D + gamma Y^T Y) a - gamma Y^T g) - gamma Y a,
    with a = R^-1 S^T g.  Empty slots add nothing."""
    B, _, m, P = V.shape
    V = V.reshape(B, 2 * m, P)
    c = gamma[:, None, None]
    Vg = V @ g[:, :, None]
    a = C[:, 0] @ Vg[:, :m]
    w = c * (Vg[:, m:] - C[:, 1] @ a) - C[:, 2] @ a
    coef = np.concatenate([C[:, 0].transpose(0, 2, 1) @ w, c * a], axis=1)
    return (coef.transpose(0, 2, 1) @ V)[:, 0] - c[:, 0] * g


def _descend(loss, params: np.ndarray, scale: np.ndarray,
             config: TrainConfig, trace: Optional[_Trace]):
    """L-BFGS (Nocedal & Wright, ch. 7) on every row of `params` at once.

    `loss` is any stacked objective, called as loss(params (B, P)) and
    returning (total, pair, reg, grad): three (B,) arrays and the (B, P)
    gradient of total; `StackedLoss` at a fixed lambda is one.  Only the
    trace reads pair and reg.

    The descent runs in the coordinates z = x / scale, `scale` (P,) as in
    `StackedLoss.scale`: the loss is evaluated at scale * z, and its
    gradient there is scale * g.  That is L-BFGS with the initial inverse
    Hessian gamma diag(scale^2), so the steepest direction is
    -gamma scale^2 g.  The stop test and the stop record's grad_norm use
    the true gradient g, so `grad_tol` means the same at any scale, and the
    returned iterates are in x.  Multiplying and dividing by a scale of
    exactly 1 changes no bit, so all ones is the plain descent in x.

    The rows share nothing but the loop.  Each keeps its last `_HISTORY`
    curvature pairs (s, y), storing only those with s.y > 0 (`_push`); its
    scale gamma, s.y / y.y of its newest pair (`step_size` at first, and
    doubled by an accepted step that stores no pair); and t, the fraction
    of its direction -H g (`_direction`) it tries next: 1 at first, halved
    after a candidate that does not lower the loss, doubled up to 1 after
    one that does.  A candidate is accepted when its loss is at most the
    current one, so a non-finite candidate, or one over the divergence
    limit, is rejected.  A row whose direction does not descend (g.d >= 0),
    or that rejected `_DROP_AFTER` candidates in a row, drops its pairs and
    takes -gamma g (in the scaled coordinates, see above).  A row stops when
    its true gradient norm is at most grad_tol * max(1, |loss|)
    ("converged"), when t falls below `_MIN_STEP` ("min_step"), or at
    `max_iters`, and is then dropped from the stacked problem.  Returns the
    final iterate and loss of each row, and its stop record {reason, evals
    (the start included), rejected, grad_norm}.
    """
    B, P = params.shape
    params = params / scale

    def scaled(z):
        f, pair, reg, g = loss(z * scale)
        return f, pair, reg, g * scale
    f, pair, reg, g = scaled(params)
    if not np.all(np.isfinite(g)):
        raise NonFiniteGradient("non-finite gradient at initialization")
    if not np.all(f <= _DIVERGENCE_LIMIT):
        worst = f[~(f <= _DIVERGENCE_LIMIT)][0]
        raise Divergence(f"starting loss {float(worst)!r} exceeds {_DIVERGENCE_LIMIT:g}")
    cells = np.arange(B)
    if trace is not None:
        trace.record(0, cells, pair, reg, f, True)

    out_params, out_loss, out_gnorm = params.copy(), f.copy(), np.zeros(B)
    reason = np.full(B, "max_iters", dtype=object)
    evals, rejected = np.full(B, config.max_iters + 1), np.zeros(B, dtype=np.int64)
    V, C = np.zeros((B, 2, _HISTORY, P)), np.zeros((B, 3, _HISTORY, _HISTORY))
    x, gamma, t = params, np.full(B, config.step_size), np.ones(B)
    streak = np.zeros(B, dtype=np.int64)
    it = 0
    while True:
        true_g = g / scale
        gnorm = np.sqrt(_dot(true_g, true_g))
        converged = gnorm <= config.grad_tol * np.maximum(np.abs(f), 1.0)
        done = converged | (t < _MIN_STEP)
        if done.any():
            gone = cells[done]
            out_params[gone], out_loss[gone], out_gnorm[gone] = x[done], f[done], gnorm[done]
            reason[gone] = np.where(converged[done], "converged", "min_step")
            evals[gone] = it + 1
            keep = ~done
            if not keep.any():
                break
            cells, x, f, g, t, gamma, streak = (
                a[keep] for a in (cells, x, f, g, t, gamma, streak))
            for j, i in enumerate(np.flatnonzero(keep)):   # in place: V is the
                V[j] = V[i]                                 # largest array here
            V, C = V[:cells.size], C[keep]
        if it == config.max_iters:
            out_params[cells], out_loss[cells], out_gnorm[cells] = x, f, gnorm
            break
        d = _direction(V, C, gamma, g)
        bad = ~(_dot(g, d) < 0.0) | (streak == _DROP_AFTER)
        if bad.any():                       # steepest descent, pairs dropped
            V[bad], C[bad] = 0.0, 0.0
            d[bad] = -gamma[bad, None] * g[bad]
        it += 1
        cand = x + t[:, None] * d
        fc, pc, rc, gc = scaled(cand)
        acc = fc <= f                       # False for NaN, inf and > limit
        if trace is not None:
            trace.record(it, cells, pc, rc, fc, acc)
        s, y = cand - x, gc - g
        sy, yy = _dot(s, y), _dot(y, y)
        store = acc & (sy > 0.0)
        if store.all() and (fc < f).all():
            # every row lowered its loss and stores its pair: the same bits
            # as the general update below, without its np.where calls
            _push(V, C, slice(None), s, y, sy, yy)
            gamma, t, x, f, g = sy / yy, np.minimum(2.0 * t, 1.0), cand, fc, gc
            streak.fill(0)
            continue
        if store.any():
            _push(V, C, np.flatnonzero(store), s, y, sy, yy)
        gamma = np.where(store, sy / yy, np.where(acc, 2.0 * gamma, gamma))
        t = np.minimum(t * np.where(fc < f, 2.0, 0.5), 1.0)
        streak = np.where(acc, 0, streak + 1)
        rejected[cells] += ~acc
        x = np.where(acc[:, None], cand, x)
        f = np.where(acc, fc, f)
        g = np.where(acc[:, None], gc, g)
    out_params *= scale
    return out_params, out_loss, [
        {"reason": r, "evals": int(e), "rejected": int(n), "grad_norm": float(gn)}
        for r, e, n, gn in zip(reason, evals, rejected, out_gnorm)]


def train_grid(
    graph: PositivePairGraph,
    class_spec: FunctionClassSpec,
    lams: Sequence[float],
    config: Optional[TrainConfig] = None,
    seeds: Optional[Sequence[int]] = None,
    extra_inits: Optional[Sequence[Sequence[RepresentationModel]]] = None,
    keep_trace: bool = False,
):
    """Train one model per lambda of `lams`, as a path in ascending lambda.

    The cells of lambda g are `n_starts` seeded random starts, drawn with
    `default_rng([seeds[g], start])` (seeds default to `config.seed`), plus
    the models `extra_inits[g]` as given starting points; each lambda is one
    stacked descent over its cells.  The lambdas run in ascending order,
    and from the second on, cell j starts from the previous lambda's final
    iterate of cell j, if that iterate can be whitened (`_covariance`), and
    else from its own start.  For the tabular class the minimizer at lambda
    is the bottom eigenfunctions scaled by c with c^2 = 1 - psi/lambda
    (`tabular_min_oracle`), so it moves little from one lambda to the next,
    and a large lambda, badly conditioned from a cold start, is reached
    from close by.  A column that collapsed to 0 at a small lambda is a
    stationary point, which is why such an iterate is not carried on.

    Returns one (model, trace) per lambda, in the order of `lams`: the
    best-loss iterate over its cells (the first cell on ties), with that
    cell's stop record (see `_descend`) as `meta["stop"]`, whose "start"
    is "previous_lambda" or "own", and, with `keep_trace`, that cell's
    accepted-step trace (iter, pair, reg, total); else None.
    """
    config = config or TrainConfig()
    n_starts = config.n_starts or _default_starts(class_spec.class_tag)
    seeds = [config.seed] * len(lams) if seeds is None else seeds
    extra_inits = [()] * len(lams) if extra_inits is None else extra_inits
    if not len(lams) == len(seeds) == len(extra_inits) >= 1:
        raise ValueError("need one seed and one extra_inits entry per lambda")
    if any(warm.class_tag != class_spec.class_tag for extra in extra_inits for warm in extra):
        raise ValueError("extra_inits must match the trained class")

    loss = StackedLoss(graph, class_spec)
    results = [None] * len(lams)
    previous = None     # the final iterates of the last lambda's cells
    for g in np.argsort(lams, kind="stable"):
        starts = [class_spec.init_model(np.random.default_rng([seeds[g], start]),
                                        config.init_scale).params
                  for start in range(n_starts)]
        starts += [class_spec.model(warm.params).params for warm in extra_inits[g]]
        origin = ["own"] * len(starts)
        if previous is not None:
            for j, F in enumerate(loss.net.forward(previous[:len(starts)])[0]):
                if _covariance(F, graph.marginal)[2]:
                    starts[j], origin[j] = previous[j], "previous_lambda"
        lam = float(lams[g])
        trace = _Trace(len(starts)) if keep_trace else None
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            previous, final, stops = _descend(lambda params: loss(params, lam),
                                              np.array(starts), loss.scale, config, trace)
        win = int(np.argmin(final))
        model = class_spec.model(previous[win])
        model.meta["stop"] = {**stops[win], "start": origin[win]}
        results[g] = (model, trace.of_cell(win) if keep_trace else None)
    return results


def train(
    graph: PositivePairGraph,
    class_spec: FunctionClassSpec,
    lam: float,
    config: Optional[TrainConfig] = None,
    extra_inits: Sequence[RepresentationModel] = (),
) -> Tuple[RepresentationModel, List[Tuple[int, float, float, float]]]:
    """Minimize the population loss by deterministic full-batch L-BFGS.

    Runs `n_starts` seeded random initializations (plus
    any `extra_inits` as given starting points) as one stacked descent and
    returns the best-loss iterate, with its stop record as `meta["stop"]`,
    and its accepted-step trace (iter, pair, reg, total).
    """
    return train_grid(graph, class_spec, [lam], config, extra_inits=[extra_inits],
                      keep_trace=True)[0]


def save_trace(trace, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "pair_term", "reg_term", "total"])
        for row in trace:
            writer.writerow([row[0], repr(row[1]), repr(row[2]), repr(row[3])])


# ---------------------------------------------------------------------------
# analytic minimizers (oracles)


def tabular_min_oracle(graph: PositivePairGraph, k: int, lam: float):
    """Exact minimum of the population loss over all tabular models.

    In symmetrized coordinates the loss decouples along eigenpairs of the
    pair operator: each of the k output directions aligned with eigenvalue
    psi contributes min(lam, 2 psi - psi^2 / lam), attained by the
    eigenfunction scaled by c with c^2 = max(0, 1 - psi/lam).
    Returns (min_loss, minimizing tabular model).
    """
    dec = eigendecompose(graph, k)
    psi = dec.eigenvalues
    c_sq = np.maximum(0.0, 1.0 - psi / lam)
    contrib = np.where(psi <= lam, 2.0 * psi - psi * psi / lam,
                       np.full_like(psi, lam))
    F = dec.functions * np.sqrt(c_sq)[None, :]
    model = spec_for_graph("tabular", k, graph).model(
        F.ravel(), meta={"oracle": "per-direction spectral minimization"})
    return float(np.sum(contrib)), model


def _coordinate_moment(graph: PositivePairGraph):
    """Sigma = E[x x^T] and its eigenpairs on its range (`_on_range`)."""
    X = graph.vertices
    Sigma = X.T @ (X * graph.marginal[:, None])
    evals, evecs = scipy.linalg.eigh(Sigma)
    keep = _on_range(evals)
    return Sigma, evals[keep], evecs[:, keep]


def linear_rank(graph: PositivePairGraph) -> int:
    """rank(E[x x^T]) by `linear_min_oracle`'s range rule: a linear model
    f = Ux has at most this many independent outputs, so it cannot be
    whitened at a larger k."""
    return _coordinate_moment(graph)[1].size


def linear_min_oracle(graph: PositivePairGraph, k: int, lam: float):
    """Exact minimum of the population loss over linear models f = Ux.

    With Sigma = E[x x^T] and A = E_pos[(x-x+)(x-x+)^T], substituting
    V = U Sigma^{1/2} decouples the loss along the eigenvalues mu of
    Sigma^{-1/2} A Sigma^{-1/2} (on the range of Sigma): each direction
    contributes mu - mu^2/(4 lam) when mu <= 2 lam, else lam; output
    directions beyond rank(Sigma) contribute lam each.
    """
    X = graph.vertices
    Sigma, evals, evecs = _coordinate_moment(graph)
    A = 2.0 * (Sigma - X.T @ (graph.joint @ X))
    rank = evals.size
    T = evecs / np.sqrt(evals)[None, :]
    M = T.T @ A @ T
    M = (M + M.T) * 0.5
    mu, V = scipy.linalg.eigh(M)
    mu = np.maximum(mu, 0.0)

    use = min(k, rank)
    contrib = []
    U = np.zeros((k, X.shape[1]))
    for i in range(use):
        m_i = mu[i]
        if m_i <= 2.0 * lam:
            contrib.append(m_i - m_i * m_i / (4.0 * lam))
            c = np.sqrt(1.0 - m_i / (2.0 * lam))
        else:
            contrib.append(lam)
            c = 0.0
        U[i] = c * (T @ V[:, i])
    total = float(np.sum(contrib)) + lam * max(0, k - rank)
    model = spec_for_graph("linear", k, graph).model(
        U.ravel(), meta={"oracle": "whitened-pencil minimization", "rank": rank})
    return total, model


# ---------------------------------------------------------------------------
# whitening


def _covariance(F: np.ndarray, marginal: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors of the covariance F^T D F
    of a representation matrix F (n, k), and whether F can be whitened:
    whether the smallest eigenvalue is above `_WHITEN_MIN_EIG`."""
    evals, evecs = scipy.linalg.eigh(_graph_product(F.shape[0], F.T, F * marginal[:, None]))
    return evals, evecs, bool(evals.min() > _WHITEN_MIN_EIG)


def whiten(graph: PositivePairGraph, model: RepresentationModel) -> np.ndarray:
    """Representation matrix rescaled to covariance exactly I/k.

    f_bar(x) = E[f f^T]^{-1/2} f(x) / sqrt(k).  Raises SingularCovariance
    when the smallest covariance eigenvalue is at or below 1e-10.
    """
    F = forward(model, graph)
    k = F.shape[1]
    evals, evecs, ok = _covariance(F, graph.marginal)
    if not ok:
        raise SingularCovariance(
            f"covariance eigenvalue {float(evals.min())!r} too small to whiten"
        )
    inv_sqrt = evecs @ ((1.0 / np.sqrt(evals))[:, None] * evecs.T)
    return _graph_product(graph.n, F, inv_sqrt) / np.sqrt(k)
