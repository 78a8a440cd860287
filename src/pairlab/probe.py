"""Linear-probe evaluation and theorem-bound arithmetic.

A probe fits a linear head W on top of a frozen representation by
marginal-weighted ridge least squares and reports the population error
E||W f(x) - target(x)||^2.  Targets are one-hot class vectors everywhere
except the scalar +-1 form used by the sign-label example; labels of the
wrong length, and negative class labels, raise `DimensionMismatch`.

The measurement helpers package exactly the quantities the cluster-recovery
and eigenspace theorems consume (alpha, beta, P_min, P_max; phi, epsilon,
zeta, B), and the bound evaluators compute the displayed right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import (
    AlphaExceedsPmin,
    BetaZero,
    DimensionMismatch,
    NotOrthonormal,
    ZeroFunction,
)
from .funclass import FunctionClassSpec, StackedClass
from .objective import TrainConfig, _descend
from .posgraph import Partition, PositivePairGraph, cross_cluster_mass
from .spectral import (INFINITE, _graph_product, _range_basis, min_expansion_over_class,
                       pair_discrepancy)

_RIDGE = 1e-10
_ORTHO_TOL = 1e-6
_IMPLEMENTABLE_TOL = 1e-8


@dataclass(frozen=True)
class ProbeResult:
    head: np.ndarray       # (r, k)
    error: float           # weighted mean squared error, no ridge term
    head_norm: float       # Frobenius norm of the head


def _as_targets(labels, n: int) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.shape[:1] != (n,):
        raise DimensionMismatch(f"targets have shape {arr.shape}, graph has {n} vertices")
    if arr.ndim == 1 and np.issubdtype(arr.dtype, np.integer):
        if arr.min() < 0:
            raise DimensionMismatch(f"class label {arr.min()} is negative")
        return np.eye(int(arr.max()) + 1)[arr]
    arr = arr.astype(np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr


def fit_linear_head(graph: PositivePairGraph, representations: np.ndarray,
                    targets) -> ProbeResult:
    """Ridge-regularized weighted least squares head.

    Minimizes E_{p_data}||W f - y||^2 + ridge ||W||_F^2 (ridge = 1e-10).
    Integer labels (n,) are one-hot class targets, 0 .. max label; any other
    targets are used as given, (n,) or (n, r).
    """
    F = np.asarray(representations, dtype=np.float64)
    if F.ndim != 2 or F.shape[0] != graph.n:
        raise DimensionMismatch(f"representations shape {F.shape} vs n={graph.n}")
    n = graph.n
    Y = _as_targets(targets, n)
    w = graph.marginal

    Fw = F * w[:, None]
    G = _graph_product(n, F.T, Fw) + _RIDGE * np.eye(F.shape[1])
    C = _graph_product(n, Y.T, Fw)
    head = scipy.linalg.solve(G, C.T, assume_a="pos").T
    resid = _graph_product(n, F, head.T) - Y
    return ProbeResult(head=head,
                       error=float(np.sum(w * np.einsum("ij,ij->i", resid, resid))),
                       head_norm=float(np.linalg.norm(head)))


def probe_error(graph: PositivePairGraph, representations, targets) -> float:
    return fit_linear_head(graph, representations, targets).error


# ---------------------------------------------------------------------------
# assumption measurement


@dataclass(frozen=True)
class AssumptionReport:
    alpha: float
    beta: float                 # INFINITE (math.inf) where no cell can be split
    P_min: float
    P_max: float
    m: int
    implementable: bool
    implementable_residual: float
    beta_certified: bool        # True when beta comes from the class itself
    beta_class: str             # the class beta was minimized over


def _implementability_residual(graph, class_spec: FunctionClassSpec,
                               targets: np.ndarray) -> float:
    """Weighted least-squares residual of fitting targets inside the class.

    Exact for tabular (always 0) and linear: the D-weighted distance from
    the targets to their projection on X T, with T the range basis of
    E[x x^T] that `linear_min_oracle` whitens with.  For relu/conv it is
    the smallest final loss of 3 seeded starts fitted by the trainer's
    L-BFGS loop (`_descend`, 500 iterations), an upper bound: callers must
    not treat a large value as a certificate of non-implementability for
    those classes.
    """
    w = graph.marginal[:, None]
    if class_spec.class_tag == "tabular":
        return 0.0
    if class_spec.class_tag == "linear":
        X = graph.vertices
        evals, evecs = _range_basis(X.T @ (X * w))
        B = X @ (evecs / np.sqrt(evals)[None, :])      # D-orthonormal columns
        resid = targets - B @ (B.T @ (w * targets))
        return float(np.sum(w * resid * resid))

    spec = replace(class_spec, k=targets.shape[1], d=graph.d)
    net = StackedClass(spec, graph)

    def fit(params):
        F, pre = net.forward(params)
        R = F - targets
        WR = w * R
        total = np.einsum("bnk,bnk->b", WR, R)
        return total, total, np.zeros_like(total), net.adjoint(pre, 2.0 * WR)

    starts = np.random.default_rng(0).uniform(-0.5, 0.5, size=(3, spec.param_count()))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _, final, _ = _descend(fit, starts, np.ones(spec.param_count()),
                               TrainConfig(step_size=0.1, max_iters=500), None)
    return float(final.min())


def measure_assumptions(graph: PositivePairGraph, partition: Partition,
                        class_spec: FunctionClassSpec) -> AssumptionReport:
    """alpha / beta / cluster masses / implementability for a partition.

    beta is the minimum over partition cells of the class-restricted
    expansion.  It is certified only for tabular and linear classes; for
    relu/conv the tabular value stands in (conservative) and the report
    says so via beta_certified/beta_class.
    """
    alpha = cross_cluster_mass(graph, partition)
    masses = partition.masses(graph)
    m = partition.n_sets

    beta_class = class_spec.class_tag
    certified = class_spec.class_tag in ("tabular", "linear")
    if not certified:
        beta_class = "tabular"
    beta = INFINITE
    for cell in partition.sets():
        val, _ = min_expansion_over_class(graph, cell, beta_class)
        if val < beta:
            beta = val

    targets = np.eye(m)[partition.labels]
    residual = _implementability_residual(graph, class_spec, targets)
    return AssumptionReport(
        alpha=float(alpha),
        beta=beta,
        P_min=float(masses.min()),
        P_max=float(masses.max()),
        m=m,
        implementable=bool(residual <= _IMPLEMENTABLE_TOL),
        implementable_residual=float(residual),
        beta_certified=certified,
        beta_class=beta_class,
    )


# ---------------------------------------------------------------------------
# eigenspace measurement


@dataclass(frozen=True)
class EigenspaceReport:
    phi: float          # total pair discrepancy of the reference functions
    phi_tilde: float    # largest discrepancy ratio among the candidates
    epsilon: float      # worst weighted projection residual of a candidate
    zeta: float         # label-fit error on the reference functions
    B: float            # Frobenius norm of that label head
    m: int


def measure_eigenspace_quantities(
    graph: PositivePairGraph,
    f_eig: np.ndarray,
    candidates: Sequence[np.ndarray],
    labels,
) -> EigenspaceReport:
    """phi / epsilon / zeta / B against a reference eigenfunction stack.

    f_eig columns must be orthonormal in the marginal-weighted inner
    product (checked to 1e-6).  Candidates are normalized to unit weighted
    norm before projecting; epsilon is the worst residual, phi_tilde the
    worst discrepancy ratio pair_discrepancy(g)/E[g^2] among them.
    """
    FE = np.asarray(f_eig, dtype=np.float64)
    if FE.ndim != 2 or FE.shape[0] != graph.n:
        raise DimensionMismatch(f"f_eig shape {FE.shape} vs n={graph.n}")
    w = graph.marginal
    gram = FE.T @ (FE * w[:, None])
    if np.max(np.abs(gram - np.eye(FE.shape[1]))) > _ORTHO_TOL:
        raise NotOrthonormal(
            f"reference functions off orthonormality by "
            f"{np.max(np.abs(gram - np.eye(FE.shape[1]))):.3e}"
        )

    phi = pair_discrepancy(graph, FE)

    epsilon = 0.0
    phi_tilde = 0.0
    for g in candidates:
        g = np.asarray(g, dtype=np.float64).ravel()
        if g.shape[0] != graph.n:
            raise DimensionMismatch("candidate length does not match graph")
        norm_sq = float(w @ (g * g))
        if norm_sq == 0.0:
            raise ZeroFunction("candidate function is identically zero")
        gn = g / np.sqrt(norm_sq)
        phi_tilde = max(phi_tilde, pair_discrepancy(graph, gn))
        coef = scipy.linalg.solve(gram, FE.T @ (w * gn), assume_a="pos")
        resid = gn - FE @ coef
        epsilon = max(epsilon, float(w @ (resid * resid)))

    fit = fit_linear_head(graph, FE, labels)
    return EigenspaceReport(
        phi=float(phi), phi_tilde=float(phi_tilde), epsilon=float(epsilon),
        zeta=float(fit.error), B=float(fit.head_norm), m=FE.shape[1],
    )


# ---------------------------------------------------------------------------
# displayed bounds


def theorem31_bound(report: AssumptionReport) -> float:
    """(alpha/beta) * (P_max / (P_min - alpha))."""
    if report.alpha >= report.P_min:
        raise AlphaExceedsPmin(
            f"alpha={report.alpha!r} >= P_min={report.P_min!r}"
        )
    if report.beta <= 0.0:
        raise BetaZero(f"beta={report.beta!r} gives no finite bound")
    return (report.alpha / report.beta) * (
        report.P_max / (report.P_min - report.alpha)
    )


def theorem42_bound(report: EigenspaceReport, k: int, lam: float) -> float:
    """2 zeta + 4 B^2 k epsilon + 16 phi B^2 k / lambda."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    b_sq = report.B * report.B
    return (2.0 * report.zeta
            + 4.0 * b_sq * k * report.epsilon
            + 16.0 * report.phi * b_sq * k / lam)


def theorem56_bound(r: int, m: int, kappa: float, rho: float) -> float:
    """2 r m kappa^2 rho^2."""
    if min(r, m) < 1 or kappa < 0 or rho < 0:
        raise ValueError("arguments must be positive")
    return 2.0 * r * m * kappa * kappa * rho * rho
