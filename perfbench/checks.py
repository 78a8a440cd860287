"""Output checks and the per-run ledger of operation outcomes.

Every check returns None when the output is right, or a (code, message)
pair naming the cause.  The codes are short and stable so that a run's
failures can be grouped, and so that the known baseline failures can be
told apart from new ones.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, Optional, Tuple

import numpy as np

Problem = Optional[Tuple[str, str]]

ZERO_TOL = 1e-9          # an eigenvalue at or below this counts as ~0
ORACLE_GAP = 1e-3        # trained tabular b_r vs the closed-form value
ORACLE_MATCH = 1e-9      # the program's oracle vs the benchmark's reference
CONTAINMENT_SLACK = 1e-6  # b_r(subclass) >= b_r(tabular) - slack
DISCREPANCY_TOL = 1e-9   # pair discrepancy of eigenfunctions vs 2*sum(psi)
PROBE_TOL = 1e-8         # probe error on the exact component space


def reference_br_oracle(graph, r: int) -> float:
    """(2/r) * sum of the r smallest eigenvalues of I - D^-1/2 J D^-1/2,
    computed with numpy alone (independent of pairlab.spectral)."""
    joint = graph.joint.toarray() if hasattr(graph.joint, "toarray") else np.asarray(graph.joint)
    inv_sqrt = 1.0 / np.sqrt(graph.marginal)
    m = np.eye(graph.n) - joint * inv_sqrt[:, None] * inv_sqrt[None, :]
    vals = np.linalg.eigvalsh((m + m.T) * 0.5)
    return max(float(2.0 * np.sum(vals[:r]) / r), 0.0)


def check_verify_row(row: dict) -> Problem:
    if row.get("pass") is True:
        return None
    return "row_failed", f"{row.get('theorem')}: {row.get('check')}"


def check_tabular_row(b_r: float, program_oracle: Optional[float], reference: float) -> Problem:
    if program_oracle is None or not abs(program_oracle - reference) <= ORACLE_MATCH:
        return "oracle_mismatch", f"program oracle {program_oracle!r} vs reference {reference!r}"
    if not abs(b_r - reference) <= ORACLE_GAP:
        return "oracle_gap", f"|b_r - oracle| = {abs(b_r - reference):.3e} > {ORACLE_GAP}"
    return None


def check_containment_row(b_r: float, tabular_oracle: float) -> Problem:
    if not b_r >= tabular_oracle - CONTAINMENT_SLACK:
        return "containment", f"b_r {b_r!r} below tabular oracle {tabular_oracle!r}"
    return None


def check_criterion09(report) -> Problem:
    """Criterion 09: b_10 <= 0.01, b_20 >= 10*b_10 + 0.01, and tabular no
    worse than linear (row and every shared whitened cell)."""
    rows = {(row.class_tag, row.r): row for row in report.rows}
    b10, b20 = rows["tabular", 10].b_r, rows["tabular", 20].b_r
    if not (b10 <= 0.01 and b20 >= 10.0 * b10 + 0.01):
        return "cluster_gap", f"b_10={b10!r}, b_20={b20!r}"
    for r in (10, 20):
        tab, lin = rows["tabular", r], rows["linear", r]
        if tab.b_r > lin.b_r + CONTAINMENT_SLACK:
            return "containment", f"r={r}: tabular {tab.b_r!r} > linear {lin.b_r!r}"
        for tc, lc in zip(tab.cells, lin.cells):
            if tc.whiten_ok and lc.whiten_ok and tc.b_value > lc.b_value + CONTAINMENT_SLACK:
                return "containment", f"r={r}, lambda={tc.lam}: cell {tc.b_value!r} > {lc.b_value!r}"
    return None


def same_partition(labels, reference) -> bool:
    labels, reference = np.asarray(labels), np.asarray(reference)
    if labels.shape != reference.shape:
        return False
    pairs = np.unique(np.stack([labels, reference]), axis=1).shape[1]
    return pairs == np.unique(labels).size == np.unique(reference).size


def check_components(labels, n_sets: int, reference, n_components: int) -> Problem:
    if n_sets != n_components:
        return "component_count", f"{n_sets} components, generator made {n_components}"
    if not same_partition(labels, reference):
        return "component_labels", "partition differs from the reference"
    return None


def zero_deficit(eigenvalues, count: int, n_components: int) -> int:
    """Missing ~0 eigenvalues: min(count, components) minus those found."""
    zeros = int(np.sum(np.asarray(eigenvalues) <= ZERO_TOL))
    return max(min(count, n_components) - zeros, 0)


def check_spectrum(eigenvalues, count: int, n_components: int) -> Problem:
    vals = np.asarray(eigenvalues)
    if vals.shape != (count,):
        return "eigen_count", f"{vals.size} eigenvalues returned, {count} asked"
    zeros = int(np.sum(vals <= ZERO_TOL))
    want = min(count, n_components)
    if zeros != want:
        return "zero_deficit", f"{zeros} eigenvalues <= {ZERO_TOL}, expected {want}"
    return None


def check_discrepancy(on_constant: float, on_eigen: Optional[float],
                      eigenvalues) -> Problem:
    if on_constant != 0.0:
        return "constant_nonzero", f"component-constant discrepancy {on_constant!r}"
    if on_eigen is not None:
        want = 2.0 * float(np.sum(eigenvalues))
        if not abs(on_eigen - want) <= DISCREPANCY_TOL:
            return "eigen_discrepancy", f"{on_eigen!r} vs 2*sum(psi) = {want!r}"
    return None


def check_probe(error: float) -> Problem:
    if not error <= PROBE_TOL:
        return "probe_error", f"probe error {error!r} > {PROBE_TOL}"
    return None


def _bits_equal(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.uint8), b.view(np.uint8)))


def check_round_trip(original, loaded) -> Problem:
    """Bit-exact equality of coordinates, marginal and joint (same storage)."""
    if original.is_sparse != loaded.is_sparse:
        return "storage_changed", f"sparse={original.is_sparse} became {loaded.is_sparse}"
    if not _bits_equal(original.vertices, loaded.vertices):
        return "vertices_not_bit_exact", "vertex coordinates differ"
    if not _bits_equal(original.marginal, loaded.marginal):
        gap = (f" by up to {np.max(np.abs(original.marginal - loaded.marginal)):.3e}"
               if original.marginal.shape == loaded.marginal.shape else "")
        return "marginal_not_bit_exact", "marginal differs" + gap
    if original.is_sparse:
        a, b = original.joint.tocsr(copy=True), loaded.joint.tocsr(copy=True)
        a.sort_indices()
        b.sort_indices()
        same = (a.shape == b.shape and _bits_equal(a.indptr, b.indptr)
                and _bits_equal(a.indices, b.indices) and _bits_equal(a.data, b.data))
    else:
        same = _bits_equal(original.joint, loaded.joint)
    if not same:
        return "joint_not_bit_exact", "joint differs"
    return None


class Ledger:
    """Outcomes of the operations of one phase.

    `known` codes name the baseline failures of an operation kind: a failure
    whose code starts with one of them is counted as failed like any other,
    but does not make the run incorrect.
    """

    def __init__(self, error_type: type):
        self.error_type = error_type
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.causes: Dict[Tuple[str, str, bool], list] = {}
        self.counters: Dict[str, float] = {}
        self.seconds: Dict[str, float] = {}     # wall time of the calls, by kind

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def outcome(self, kind: str, problem: Problem, known: Iterable[str] = ()) -> bool:
        self.attempted += 1
        if problem is None:
            return True
        code, message = problem
        is_known = any(code.startswith(k) for k in known)
        self.failed += 1
        self.unexpected += not is_known
        entry = self.causes.setdefault((kind, code, is_known), [0, message])
        entry[0] += 1
        return False

    def call(self, kind: str, fn: Callable, known: Iterable[str] = ()):
        """(True, result), or (False, None) after recording the raised error."""
        t0 = time.perf_counter()
        try:
            return True, fn()
        except self.error_type as exc:
            problem = f"raised:{type(exc).__name__}", str(exc)[:300]
        except Exception as exc:  # a crash is reported, never known
            problem = f"crashed:{type(exc).__name__}", str(exc)[:300]
        finally:
            self.seconds[kind] = self.seconds.get(kind, 0.0) + time.perf_counter() - t0
        self.outcome(kind, problem, known)
        return False, None

    def run(self, kind: str, fn: Callable, check: Callable, known: Iterable[str] = ()):
        ok, result = self.call(kind, fn, known)
        if ok:
            self.outcome(kind, check(result), known)
        return result

    def failures(self) -> list:
        return [{"op": kind, "cause": code, "known_baseline": known,
                 "count": count, "example": message}
                for (kind, code, known), (count, message) in sorted(self.causes.items())]
