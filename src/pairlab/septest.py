"""The r-way separability protocol.

For a class F and a target cluster count r: train a k=r representation at
each lambda on a grid, whiten it to covariance I/r, and record the
population pair discrepancy of the whitened representation; b_r is the
grid minimum.  Small b_r means the class can split the graph into r
near-disconnected pieces; for the tabular class the exact value is
(2/r) * sum of the r smallest pair-operator eigenvalues, which serves as
the oracle for the trained route.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import AllGridPointsFailed, SingularCovariance
from .funclass import FunctionClassSpec, RepresentationModel, forward
from .posgraph import PositivePairGraph
from .spectral import eigendecompose, pair_discrepancy
from .objective import TrainConfig, train_grid, whiten

logger = logging.getLogger("pairlab.septest")

# grid used by the reference experiments
DEFAULT_LAMBDA_GRID = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0)

# optimization seeds per grid cell (exposed; the reference protocol does
# not pin a value)
DEFAULT_CELL_STARTS = 5


@dataclass(frozen=True)
class BrCell:
    lam: float
    b_value: Optional[float]
    whiten_ok: bool
    seed: int
    stop_reason: str    # of the cell's descent (objective.train_grid)
    evals: int


@dataclass(frozen=True)
class BrRow:
    class_tag: str
    r: int
    cells: List[BrCell]
    b_r: float
    oracle: Optional[float]    # tabular rows only


@dataclass(frozen=True)
class SeparabilityReport:
    rows: List[BrRow]


def br_oracle_tabular(graph: PositivePairGraph, r: int) -> float:
    """(2/r) * sum of the r smallest eigenvalues of the pair operator."""
    dec = eigendecompose(graph, r)
    return max(float(2.0 * np.sum(dec.eigenvalues) / r), 0.0)


def _cell_seed(base: int, r: int, lam_index: int) -> int:
    return (base * 1000003 + r * 101 + lam_index) % (2 ** 31)


def estimate_br(
    graph: PositivePairGraph,
    class_spec: FunctionClassSpec,
    r: int,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    train_config: Optional[TrainConfig] = None,
    warm_models: Optional[Dict[int, Sequence[RepresentationModel]]] = None,
    collect_models: Optional[List[RepresentationModel]] = None,
):
    """(b_r, BrRow) for one class and one r.

    Trains with output dimension k=r at every lambda on the grid (all
    cells of the row as one stacked descent, see `train_grid`), whitens,
    and evaluates the whitened pair discrepancy.  Cells whose covariance
    cannot be whitened are logged and skipped; if every cell fails,
    AllGridPointsFailed is raised.  `warm_models` optionally maps a lambda
    index to extra tabular starting points (used for the nested
    class-containment warm start).  When `collect_models` is passed, the
    trained model of each cell is appended to it (grid order).
    """
    if not lambda_grid:
        raise ValueError("lambda_grid must be nonempty")
    if r < 1 or r > graph.n:
        raise ValueError(f"r={r} invalid for graph with n={graph.n}")

    base_config = train_config or TrainConfig()
    if base_config.n_starts is None:
        base_config = replace(base_config, n_starts=DEFAULT_CELL_STARTS)

    spec = replace(class_spec, k=r, n=graph.n, d=graph.d)
    seeds = [_cell_seed(base_config.seed, r, li) for li in range(len(lambda_grid))]
    warm = [tuple((warm_models or {}).get(li, ())) for li in range(len(lambda_grid))]
    trained = train_grid(graph, spec, lambda_grid, base_config, seeds, warm)
    cells: List[BrCell] = []
    for lam, seed, extra, (model, _) in zip(lambda_grid, seeds, warm, trained):
        if collect_models is not None:
            collect_models.append(model)
        candidates = [model]
        # a warm-start model is itself a member of this class, so its
        # whitened discrepancy is a valid upper bound for the cell minimum
        candidates.extend(extra)
        b_val = None
        for cand in candidates:
            try:
                F_bar = whiten(graph, cand)
            except SingularCovariance as exc:
                if cand is model:
                    logger.warning(
                        "whitening failed (class=%s, r=%d, lambda=%g): %s",
                        spec.class_tag, r, lam, exc,
                    )
                continue
            val = float(pair_discrepancy(graph, F_bar))
            if b_val is None or val < b_val:
                b_val = val
        stop = model.meta["stop"]
        cells.append(BrCell(lam=lam, b_value=b_val, whiten_ok=b_val is not None,
                            seed=seed, stop_reason=stop["reason"], evals=stop["evals"]))

    ok = [c.b_value for c in cells if c.whiten_ok]
    if not ok:
        raise AllGridPointsFailed(
            f"every lambda cell failed for class={spec.class_tag}, r={r}"
        )
    b_r = min(ok)
    oracle = br_oracle_tabular(graph, r) if spec.class_tag == "tabular" else None
    row = BrRow(class_tag=spec.class_tag, r=r, cells=cells, b_r=b_r, oracle=oracle)
    return b_r, row


def br_table(
    graph: PositivePairGraph,
    class_specs: Sequence[FunctionClassSpec],
    r_list: Sequence[int],
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    train_config: Optional[TrainConfig] = None,
) -> SeparabilityReport:
    """Full separability table over classes and r values.

    Tabular cells additionally start from the vertex values of the trained
    models of every other (sub-)class at the same (r, lambda) — the
    containment b_r(tabular) <= b_r(subclass) is a statement about global
    minima, and warming the superset class from the subset's solution keeps
    finite optimization from inverting it.  The oracle column never uses
    warm starts (it is closed-form).
    """
    rows: List[BrRow] = []
    trained_by_cell: Dict[int, Dict[int, List[RepresentationModel]]] = {}

    ordered = sorted(class_specs, key=lambda cs: cs.class_tag == "tabular")
    for spec in ordered:
        for r in r_list:
            warm = None
            if spec.class_tag == "tabular":
                warm = {}
                for li, models in trained_by_cell.get(r, {}).items():
                    warm[li] = [
                        RepresentationModel(
                            class_tag="tabular",
                            shape={"n": graph.n, "k": r},
                            params=forward(m, graph).ravel(),
                        )
                        for m in models
                    ]
            collected: List[RepresentationModel] = []
            _, row = estimate_br(graph, spec, r, lambda_grid, train_config,
                                 warm_models=warm, collect_models=collected)
            rows.append(row)
            if spec.class_tag != "tabular":
                store = trained_by_cell.setdefault(r, {})
                for li, model in enumerate(collected):
                    store.setdefault(li, []).append(model)

    order = {cs.class_tag: i for i, cs in enumerate(class_specs)}
    rows.sort(key=lambda row: (order[row.class_tag], row.r))
    return SeparabilityReport(rows=rows)


def write_report_csv(report: SeparabilityReport, path) -> None:
    """Cell-level CSV: (r, lambda, b_value, whiten_ok, seed) + class, and
    the trained model's stop reason and loss evaluations."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "lambda", "b_value", "whiten_ok", "seed", "class",
                         "stop_reason", "evals"])
        for row in report.rows:
            for cell in row.cells:
                writer.writerow([
                    row.r, repr(cell.lam),
                    "" if cell.b_value is None else repr(cell.b_value),
                    int(cell.whiten_ok), cell.seed, row.class_tag,
                    cell.stop_reason, cell.evals,
                ])


def write_summary_csv(report: SeparabilityReport, path) -> None:
    """Row-level CSV: (r, b_r, oracle) + class."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "b_r", "oracle", "class"])
        for row in report.rows:
            writer.writerow([
                row.r, repr(row.b_r),
                "" if row.oracle is None else repr(row.oracle),
                row.class_tag,
            ])


# ---------------------------------------------------------------------------
# independent brute-force validator for the oracle formula


def br_bruteforce(graph: PositivePairGraph, r: int, n_starts: int = 8,
                  seed: int = 0, maxiter: int = 400) -> float:
    """Directly minimize the pair discrepancy over {F : F^T D F = I/r}.

    The feasible manifold is parameterized as F = D^{-1/2} Q / sqrt(r)
    with Q an orthonormal-column factor of an unconstrained matrix (QR),
    and the discrepancy is evaluated from its definition and minimized
    numerically — no spectral identities involved.  Intended for tiny
    graphs (n <= 6); feasibility of the best point is re-verified.
    """
    from scipy.optimize import minimize

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
