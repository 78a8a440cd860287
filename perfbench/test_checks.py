"""Tests of the benchmark's own checkers, tracer and metric list.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pairlab  # noqa: E402
from pairlab.posgraph import PositivePairGraph  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the per-layer metrics the benchmark promises, by name
LAYER_METRICS = [
    "objective.train.calls", "objective.train.self_s", "objective.train.failed",
    "objective.loss_gradient.calls", "objective.loss_gradient.self_s",
    "objective.evals_per_train",
    "funclass.forward.calls", "funclass.forward.self_s", "funclass.grad_params.self_s",
    "objective.whiten.calls", "objective.whiten.self_s", "objective.whiten.failed",
    "septest.estimate_br.self_s", "septest.estimate_br.failed", "septest.cells_ok_frac",
    "septest.br_oracle_tabular.self_s",
    "spectral.eigendecompose.calls", "spectral.eigendecompose.self_s",
    "spectral.eigendecompose.failed", "spectral.eigendecompose.zero_deficit",
    "spectral.pair_discrepancy.calls", "spectral.pair_discrepancy.self_s",
    "posgraph.joint_coo.calls", "posgraph.joint_coo.self_s",
    "posgraph.connected_components.self_s", "posgraph.graph_to_dict.self_s",
    "posgraph.graph_from_dict.self_s",
    "posgraph.build_graph.calls", "posgraph.build_graph.self_s", "synthdata.generate.self_s",
    "posgraph.restrict.self_s", "spectral.min_expansion_over_class.self_s",
    "probe.measure_assumptions.self_s", "probe.measure_eigenspace_quantities.self_s",
    "probe.fit_linear_head.self_s", "funclass.construct.self_s", "objective.oracle.self_s",
    *[f"cli.verify_{name}.self_s" for name in workloads.VERIFY_NAMES],
    "trace.overhead_frac", "ops_failed_frac",
]


def small_case(n=30, n_components=3, seed=5):
    return workloads._graph_case("dense", n, n_components, np.random.default_rng(seed))


def test_missing_zero_eigenvalue_fails_the_operation(monkeypatch):
    case = small_case()
    real = pairlab.spectral.eigendecompose

    def drop_one_zero(graph, count):
        dec = real(graph, count + 1)
        keep = np.r_[1:count + 1]          # the first (zero) pair is lost
        return type(dec)(eigenvalues=dec.eigenvalues[keep], functions=dec.functions[:, keep])

    monkeypatch.setattr(pairlab.spectral, "eigendecompose", drop_one_zero)
    ledger = checks.Ledger(pairlab.PairLabError)
    workloads.LargeGraph()._graph_pass(case, 5, ledger)
    failures = {(f["op"], f["cause"]) for f in ledger.failures()}
    assert ("dense.eigendecompose", "zero_deficit") in failures
    assert ledger.counters["spectral.eigendecompose.zero_deficit"] == 1
    assert ledger.unexpected == ledger.failed == 1


def test_exact_spectrum_passes_every_operation():
    ledger = checks.Ledger(pairlab.PairLabError)
    workloads.LargeGraph()._graph_pass(small_case(), 5, ledger)
    assert ledger.attempted == 5 and ledger.failed == 0, ledger.failures()
    assert ledger.counters["spectral.eigendecompose.zero_deficit"] == 0


def test_zero_deficit_counts_missing_zeros():
    vals = np.r_[np.zeros(19), np.linspace(0.1, 0.5, 6)]
    assert checks.zero_deficit(vals, 25, 20) == 1
    assert checks.check_spectrum(vals, 25, 20)[0] == "zero_deficit"
    assert checks.check_spectrum(np.r_[np.zeros(20), vals[19:24]], 25, 20) is None


def test_tabular_row_far_from_oracle_fails():
    oracle = 0.25
    assert checks.check_tabular_row(oracle + 5e-4, oracle, oracle) is None
    assert checks.check_tabular_row(oracle + 2e-3, oracle, oracle)[0] == "oracle_gap"
    assert checks.check_tabular_row(oracle - 2e-3, oracle, oracle)[0] == "oracle_gap"
    assert checks.check_tabular_row(oracle, oracle + 1e-6, oracle)[0] == "oracle_mismatch"
    assert checks.check_tabular_row(float("nan"), oracle, oracle)[0] == "oracle_gap"


def test_tabular_row_operation_fails_through_the_ledger(monkeypatch):
    g = pairlab.random_graph(40, n_components=2, seed=3)
    oracle = checks.reference_br_oracle(g, 2)
    real = pairlab.septest.estimate_br

    def off_by_2e3(*args, **kwargs):
        b_r, row = real(*args, **kwargs)
        return b_r + 2e-3, row

    monkeypatch.setattr(pairlab.septest, "estimate_br", off_by_2e3)
    ledger = checks.Ledger(pairlab.PairLabError)
    workloads.BrSweep._a_row(g, 2, oracle, ledger)
    assert [(f["op"], f["cause"]) for f in ledger.failures()] == [("a.tabular", "oracle_gap")]


def test_reference_oracle_matches_program_oracle():
    g = pairlab.random_graph(60, n_components=3, seed=8)
    for r in (2, 5):
        assert abs(checks.reference_br_oracle(g, r) - pairlab.br_oracle_tabular(g, r)) <= 1e-12


@pytest.mark.parametrize("field,code", [("marginal", "marginal_not_bit_exact"),
                                        ("joint", "joint_not_bit_exact"),
                                        ("vertices", "vertices_not_bit_exact")])
def test_round_trip_that_is_not_bit_exact_fails(field, code):
    g = small_case().graph
    parts = {"vertices": g.vertices.copy(), "joint": np.array(g.joint), "marginal": g.marginal.copy()}
    flat = parts[field].reshape(-1)
    i = int(np.flatnonzero(flat)[0])
    flat[i] = np.nextafter(flat[i], np.inf)            # one ulp
    assert checks.check_round_trip(g, PositivePairGraph(**parts))[0] == code


def test_exact_round_trip_passes_in_both_storage_regimes():
    dense = small_case().graph
    loaded = pairlab.graph_from_dict(json.loads(json.dumps(pairlab.graph_to_dict(dense))))
    assert checks.check_round_trip(dense, loaded) is None
    sparse = PositivePairGraph(dense.vertices, pairlab.posgraph.sparse.csr_array(dense.joint),
                               dense.marginal)
    assert checks.check_round_trip(sparse, sparse) is None
    assert checks.check_round_trip(dense, sparse)[0] == "storage_changed"


def test_seeded_eigensolver_repeats_bit_for_bit(monkeypatch):
    import scipy.sparse
    import scipy.sparse.linalg

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", scipy.sparse.linalg.eigsh)
    a = scipy.sparse.random(300, 300, density=0.05, random_state=1, format="csr")
    a = a + a.T
    worker.seed_eigensolver(7)
    first = scipy.sparse.linalg.eigsh(a, k=6, which="SA")
    again = scipy.sparse.linalg.eigsh(a, k=6, which="SA")
    assert _bits_equal_all(first, again)
    start = np.ones(300)
    assert np.allclose(scipy.sparse.linalg.eigsh(a, k=6, which="SA", v0=start)[0], first[0])


def _bits_equal_all(a, b) -> bool:
    return all(checks._bits_equal(x, y) for x, y in zip(a, b))


def test_known_failures_count_but_keep_the_run_correct():
    ledger = checks.Ledger(pairlab.PairLabError)
    ledger.outcome("b.linear", ("raised:Divergence", "loss"), known=("raised:",))
    ledger.outcome("a.tabular", None)
    assert (ledger.attempted, ledger.failed, ledger.unexpected) == (2, 1, 0)
    ok, _ = ledger.call("b.relu", lambda: 1 / 0, known=("raised:",))
    assert not ok and ledger.unexpected == 1      # a crash is never a known failure


def test_tracer_self_time_excludes_children_and_restores():
    mod = types.SimpleNamespace()

    def leaf():
        time.sleep(0.02)

    def parent():
        mod.leaf()                                  # looked up at call time
        time.sleep(0.01)

    mod.leaf, mod.parent = leaf, parent
    caller = types.SimpleNamespace(leaf=leaf)       # another namespace binding leaf
    tracer = tracing.Tracer(pairlab.PairLabError)
    tracer.install({"m.leaf": [(mod, "leaf")], "m.parent": [(mod, "parent")]}, [caller])
    assert caller.leaf is not leaf
    mod.parent()
    caller.leaf()
    tracer.uninstall()
    assert mod.leaf is leaf and caller.leaf is leaf and mod.parent is parent
    st = tracer.stats
    assert st["m.leaf"].calls == 2 and st["m.parent"].calls == 1
    assert tracer.edges[("m.parent", "m.leaf")] == 1
    assert st["m.parent"].total_s >= 0.03
    assert 0.009 <= st["m.parent"].self_s <= st["m.parent"].total_s - 0.019


def test_tracer_nesting_on_pairlab():
    tracer = tracing.Tracer(pairlab.PairLabError)
    tracer.install(tracing.span_targets(), tracing.pairlab_modules())
    try:
        g = pairlab.random_graph(30, n_components=2, seed=1)
        pairlab.septest.br_oracle_tabular(g, 2)
    finally:
        tracer.uninstall()
    st = tracer.stats
    assert st["synthdata.generate"].calls == 1 and st["posgraph.build_graph"].calls == 1
    assert tracer.edges[("synthdata.generate", "posgraph.build_graph")] == 1
    assert tracer.edges[("septest.br_oracle_tabular", "spectral.eigendecompose")] == 1
    assert st["septest.br_oracle_tabular"].self_s < st["septest.br_oracle_tabular"].total_s
    assert pairlab.septest.eigendecompose is pairlab.spectral.eigendecompose
    assert not hasattr(pairlab.septest.eigendecompose, "__wrapped__")


def test_report_lists_every_metric_with_its_unit():
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert set(e2e) == {"setup_s", "ops_per_s", "peak_rss_mb"}
    assert e2e["setup_s"]["unit"] == "s" and e2e["ops_per_s"]["unit"] == "1/s"
    assert e2e["peak_rss_mb"]["unit"] == "MiB"
    layer = {m["name"]: m for m in SPEC["per_layer"]}
    assert set(LAYER_METRICS) == set(layer)
    assert all(m["unit"] and m["better"] in ("lower", "higher") for m in layer.values())
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)

    # the traced run computes a value for every per-layer metric
    tracer = tracing.Tracer(pairlab.PairLabError)
    tracer.install(tracing.span_targets(), tracing.pairlab_modules())
    tracer.uninstall()
    ledger = checks.Ledger(pairlab.PairLabError)
    ledger.outcome("x", None)
    values = worker._per_layer(tracer, ledger, ledger, 0.1)
    assert set(LAYER_METRICS) <= set(values)
