"""Separability protocol: b_r estimation, its closed-form oracle, CSVs."""

import csv
import logging

import numpy as np
import pytest

from pairlab.errors import AllGridPointsFailed
from pairlab.funclass import RepresentationModel, spec_for_graph
from pairlab.objective import TrainConfig
from pairlab.posgraph import connected_components
from pairlab.septest import (
    DEFAULT_LAMBDA_GRID,
    br_oracle_tabular,
    br_table,
    estimate_br,
    write_report_csv,
    write_summary_csv,
)
from pairlab.spectral import eigendecompose
from pairlab.synthdata import (
    component_cluster_graph,
    example1_graph,
    random_graph,
    two_level_graph,
)

from conftest import br_bruteforce

FAST = TrainConfig(n_starts=1)
SMALL_GRID = (3.0, 30.0)


class TestOracle:
    def test_lambda_grid_is_nine_point(self):
        assert DEFAULT_LAMBDA_GRID == (0.1, 0.3, 1.0, 3.0, 10.0, 30.0,
                                     100.0, 300.0, 1000.0)

    def test_zero_when_components_cover_r(self):
        g = random_graph(10, n_components=3, seed=0)
        assert br_oracle_tabular(g, 2) <= 1e-12
        assert br_oracle_tabular(g, 3) <= 1e-12

    def test_two_vertex_hand_values(self, two_vertex_uniform):
        # eigenvalues are exactly (0, 1): mean 2*(0+1)/2 = 1
        assert br_oracle_tabular(two_vertex_uniform, 1) <= 1e-12
        assert br_oracle_tabular(two_vertex_uniform, 2) == pytest.approx(
            1.0, abs=1e-12)

    def test_component_cluster_exact_values(self):
        # spectrum {0 x 4, 1 x 12}: b_4 = 0, b_8 = 2*(4*0 + 4*1)/8 = 1
        g = component_cluster_graph(4)
        assert br_oracle_tabular(g, 4) <= 1e-12
        assert br_oracle_tabular(g, 8) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_r(self):
        g = random_graph(9, n_components=2, seed=1)
        vals = [br_oracle_tabular(g, r) for r in range(1, g.n + 1)]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))

    def test_oracle_is_running_mean_of_spectrum(self):
        g = random_graph(7, n_components=1, seed=2)
        psi = eigendecompose(g, g.n).eigenvalues
        for r in (1, 3, 5):
            assert br_oracle_tabular(g, r) == pytest.approx(
                2.0 * psi[:r].sum() / r, abs=1e-12)


class TestEstimateBr:
    def test_criterion_08_cells_all_converge(self):
        # the trained part of acceptance criterion 08: no cell may stop on
        # its step size or its iteration cap
        rng = np.random.default_rng(0)
        for i in range(10):
            n = int(rng.integers(40, 201))
            comps = int(rng.integers(1, 5))
            g = random_graph(n, n_components=comps, seed=100 + i)
            for r in (2, 5, 10):
                _, row = estimate_br(g, spec_for_graph("tabular", 2, g), r,
                                     lambda_grid=SMALL_GRID, train_config=FAST)
                assert [c.stop_reason for c in row.cells] == ["converged"] * 2
                assert all(0 < c.evals < FAST.max_iters for c in row.cells)

    def test_warm_lambda_cells_stop_in_few_evaluations(self):
        # criterion 08's first graph: each lambda=30 cell starts from the
        # lambda=3 minimizer, and the tabular descent, scaled by the
        # marginal, finishes it in a few evaluations (unscaled: up to 237)
        g = random_graph(176, n_components=3, seed=100)
        for r in (2, 5, 10):
            _, row = estimate_br(g, spec_for_graph("tabular", 2, g), r,
                                 lambda_grid=SMALL_GRID, train_config=FAST)
            at30 = row.cells[1]
            assert at30.start == "previous_lambda" and at30.stop_reason == "converged"
            assert at30.evals <= 20, (r, at30.evals)

    def test_unwhitenable_cells_log_no_warning(self, caplog):
        # the relu row of `pairlab br` on the two-level graph: its iterates
        # at lambda 0.1 and 0.3 collapse and cannot be whitened, an expected
        # outcome that the row records as whiten_ok, not a warning
        g = two_level_graph(4).graph
        with caplog.at_level(logging.DEBUG, logger="pairlab.septest"):
            _, row = estimate_br(g, spec_for_graph("relu", 4, g), 4)
        assert [c.lam for c in row.cells if not c.whiten_ok] == [0.1, 0.3]
        assert [r.levelname for r in caplog.records] == ["DEBUG", "DEBUG"]
        assert all("whitening failed" in r.getMessage() for r in caplog.records)

    def test_tabular_zero_when_components_cover_r(self):
        g = random_graph(10, n_components=3, seed=3)
        b, row = estimate_br(g, spec_for_graph("tabular", 2, g), 3,
                             lambda_grid=SMALL_GRID, train_config=FAST)
        assert b <= 1e-9
        assert row.class_tag == "tabular"
        assert row.r == 3
        assert len(row.cells) == 2

    def test_tabular_matches_oracle_on_connected_graph(self):
        g = random_graph(8, n_components=1, seed=11)
        b, row = estimate_br(g, spec_for_graph("tabular", 2, g), 2,
                             lambda_grid=SMALL_GRID, train_config=FAST)
        assert row.oracle is not None
        assert abs(b - row.oracle) <= 1e-6
        assert b >= row.oracle - 1e-9   # oracle is the true minimum

    def test_deterministic(self):
        g = random_graph(7, n_components=2, seed=4)
        spec = spec_for_graph("tabular", 2, g)
        b1, row1 = estimate_br(g, spec, 2, SMALL_GRID, FAST)
        b2, row2 = estimate_br(g, spec, 2, SMALL_GRID, FAST)
        assert b1 == b2
        assert [c.seed for c in row1.cells] == [c.seed for c in row2.cells]
        assert [c.b_value for c in row1.cells] == [c.b_value for c in row2.cells]

    def test_linear_rank_deficit_fails_every_cell(self, two_vertex_uniform):
        # 1-d coordinates: every linear pair of outputs is rank-1, so no
        # cell can be whitened at r=2
        spec = spec_for_graph("linear", 2, two_vertex_uniform)
        with pytest.raises(AllGridPointsFailed):
            estimate_br(two_vertex_uniform, spec, 2, lambda_grid=(1.0,),
                        train_config=TrainConfig(n_starts=1, max_iters=50))

    def test_warm_candidate_is_used_as_upper_bound(self):
        g = component_cluster_graph(3)
        part = connected_components(g)
        F = np.zeros((g.n, 3))
        for j, cell in enumerate(part.sets()):
            F[cell, j] = 1.0
        warm = RepresentationModel(class_tag="tabular",
                                   shape={"n": g.n, "k": 3},
                                   params=F.ravel())
        # one GD iteration from a random start cannot reach zero on its
        # own; the warm candidate (exact indicators) must supply the bound
        b, row = estimate_br(
            g, spec_for_graph("tabular", 3, g), 3, lambda_grid=(3.0,),
            train_config=TrainConfig(n_starts=1, max_iters=1),
            warm_models={0: [warm]})
        assert b <= 1e-12
        assert row.cells[0].whiten_ok

    @pytest.mark.parametrize("tag", ["linear", "relu"])
    def test_default_grid_survives_lambda_1000(self, tag):
        # lambda=1000 used to raise Divergence on the first step
        g = two_level_graph(4).graph
        b, row = estimate_br(g, spec_for_graph(tag, 4, g), 4)
        assert [c.lam for c in row.cells] == list(DEFAULT_LAMBDA_GRID)
        assert b >= br_oracle_tabular(g, 4) - 1e-6

    def test_invalid_r_rejected(self, two_vertex_uniform):
        spec = spec_for_graph("tabular", 1, two_vertex_uniform)
        with pytest.raises(ValueError):
            estimate_br(two_vertex_uniform, spec, 0)
        with pytest.raises(ValueError):
            estimate_br(two_vertex_uniform, spec, 3)

    def test_empty_grid_rejected(self, two_vertex_uniform):
        spec = spec_for_graph("tabular", 1, two_vertex_uniform)
        with pytest.raises(ValueError):
            estimate_br(two_vertex_uniform, spec, 1, lambda_grid=())

    def test_collect_models_grid_order(self):
        g = random_graph(6, n_components=2, seed=5)
        _, row = estimate_br(g, spec_for_graph("tabular", 2, g), 2,
                             lambda_grid=SMALL_GRID, train_config=FAST)
        collected = [row.cells[i].model for i in range(len(SMALL_GRID))]
        assert len(collected) == len(SMALL_GRID)
        assert all(m.class_tag == "tabular" for m in collected)


class TestBrTable:
    def _row(self, report, tag, r):
        return next(row for row in report.rows
                    if row.class_tag == tag and row.r == r)

    def test_component_cluster_step(self):
        g = component_cluster_graph(4)
        report = br_table(
            g, [spec_for_graph("tabular", 2, g), spec_for_graph("linear", 2, g)],
            r_list=[4, 8], lambda_grid=SMALL_GRID, train_config=FAST)
        assert len(report.rows) == 4
        tab4 = self._row(report, "tabular", 4)
        tab8 = self._row(report, "tabular", 8)
        lin4 = self._row(report, "linear", 4)
        lin8 = self._row(report, "linear", 8)
        # coordinates contain the cluster indicators, so both classes see
        # the step from 0 (r = #components) to 1 (r = 2 * #components)
        assert tab4.b_r <= 1e-9
        assert lin4.b_r <= 1e-9
        assert tab8.b_r == pytest.approx(1.0, abs=1e-6)
        assert lin8.b_r == pytest.approx(1.0, abs=1e-6)
        assert tab4.oracle is not None and lin4.oracle is None
        # containment: tabular minimum never above the linear one
        assert tab4.b_r <= lin4.b_r + 1e-9
        assert tab8.b_r <= lin8.b_r + 1e-9

    def test_example1_linear_separation(self):
        lab = example1_graph(3, 1, tau_grid=(0.5, 1.0))
        g = lab.graph
        report = br_table(
            g, [spec_for_graph("tabular", 2, g), spec_for_graph("linear", 2, g)],
            r_list=[1, 2], lambda_grid=SMALL_GRID, train_config=FAST)
        lin1 = self._row(report, "linear", 1)
        lin2 = self._row(report, "linear", 2)
        tab2 = self._row(report, "tabular", 2)
        # one linear output (the invariant coordinate) is free; a second
        # must spend pair discrepancy on the spurious coordinates
        assert lin1.b_r <= 1e-9
        assert lin2.b_r >= 0.05
        # tabular is unconstrained and the graph has >= 2 components
        assert tab2.b_r <= 1e-9
        assert tab2.b_r <= lin2.b_r + 1e-9

    def test_rows_sorted_by_requested_class_then_r(self):
        g = random_graph(8, n_components=2, seed=6)
        specs = [spec_for_graph("linear", 2, g), spec_for_graph("tabular", 2, g)]
        report = br_table(g, specs, r_list=[2, 1], lambda_grid=(3.0,),
                          train_config=FAST)
        keys = [(row.class_tag, row.r) for row in report.rows]
        assert keys == [("linear", 1), ("linear", 2),
                        ("tabular", 1), ("tabular", 2)]


class TestCsvWriters:
    @pytest.fixture()
    def report(self):
        g = random_graph(6, n_components=2, seed=7)
        return br_table(
            g, [spec_for_graph("tabular", 2, g), spec_for_graph("linear", 2, g)],
            r_list=[1, 2], lambda_grid=SMALL_GRID, train_config=FAST)

    def test_report_csv_layout(self, report, tmp_path):
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "lambda", "b_value", "whiten_ok", "seed", "class",
                           "stop_reason", "evals", "start"]
        assert len(rows) == 1 + 4 * len(SMALL_GRID)
        for rec in rows[1:]:
            assert rec[5] in ("tabular", "linear")
            assert rec[6] in ("converged", "min_step", "max_iters")
            assert int(rec[7]) >= 1
            assert rec[8] == ("own" if float(rec[1]) == SMALL_GRID[0]
                              else "previous_lambda")
            # no start drawn from the seed reached a previous_lambda cell
            if rec[8] == "own":
                assert int(rec[4]) >= 0
            else:
                assert rec[4] == ""
            assert float(rec[1]) in SMALL_GRID
            assert rec[3] in ("0", "1")
            if rec[3] == "1":
                assert float(rec[2]) >= 0.0

    def test_summary_csv_layout(self, report, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["r", "b_r", "oracle", "class"]
        assert len(rows) == 5
        by_class = {}
        for rec in rows[1:]:
            by_class.setdefault(rec[3], []).append(rec)
        # oracle column is filled for tabular rows, empty otherwise
        assert all(rec[2] != "" for rec in by_class["tabular"])
        assert all(rec[2] == "" for rec in by_class["linear"])
        # repr round-trip: the written value parses back to the exact float
        tab_rows = {int(rec[0]): rec for rec in by_class["tabular"]}
        report_tab = {row.r: row for row in report.rows
                      if row.class_tag == "tabular"}
        for r, rec in tab_rows.items():
            assert float(rec[1]) == report_tab[r].b_r


class TestBruteForce:
    def test_two_vertex_values(self, two_vertex_uniform):
        assert br_bruteforce(two_vertex_uniform, 1, n_starts=4) <= 1e-10
        assert br_bruteforce(two_vertex_uniform, 2, n_starts=4) == \
            pytest.approx(1.0, abs=1e-8)

    def test_agrees_with_oracle_on_small_graph(self):
        g = random_graph(5, n_components=1, seed=7)
        brute = br_bruteforce(g, 2, n_starts=6, seed=0)
        assert abs(brute - br_oracle_tabular(g, 2)) <= 1e-6

    def test_r_exceeding_n_rejected(self, two_vertex_uniform):
        with pytest.raises(ValueError):
            br_bruteforce(two_vertex_uniform, 3)
