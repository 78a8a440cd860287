"""Linear probes, assumption measurement, and the displayed bound formulas."""

import numpy as np
import pytest

from pairlab.errors import (
    AlphaExceedsPmin,
    BetaZero,
    DimensionMismatch,
    NotOrthonormal,
    ZeroFunction,
)
from pairlab.funclass import construct_example1_optimal, forward, spec_for_graph
from pairlab.objective import linear_rank
from pairlab.posgraph import build_graph, connected_components, partition_from_labels
from pairlab.probe import (
    AssumptionReport,
    EigenspaceReport,
    fit_linear_head,
    measure_assumptions,
    measure_eigenspace_quantities,
    probe_error,
    theorem31_bound,
    theorem42_bound,
    theorem56_bound,
)
from pairlab.spectral import INFINITE
from pairlab.synthdata import (
    example1_graph,
    example4_graph,
    random_graph,
    two_level_graph,
)


class TestFitLinearHead:
    def test_indicators_fit_cluster_constant_targets(self):
        g = random_graph(12, n_components=3, seed=1)
        part = connected_components(g)
        F = np.zeros((g.n, 3))
        labels = np.zeros(g.n, dtype=np.int64)
        for j, cell in enumerate(part.sets()):
            F[cell, j] = 1.0
            labels[cell] = j % 2
        res = fit_linear_head(g, F, labels)
        assert res.error <= 1e-10

    def test_orthogonal_representations_error_one(self):
        # E[target * f^T] = 0: the best head is ~0 and error is E||e_y||^2 = 1
        g = random_graph(8, n_components=1, seed=2)
        labels = np.zeros(g.n, dtype=np.int64)
        F = np.zeros((g.n, 2))
        F[:, 0] = 1.0 - labels * 2.0   # constant 1 here (labels all 0)
        # make F weighted-orthogonal to the one-hot target by centering
        F[:, 0] -= float(g.marginal @ F[:, 0])
        F[:, 1] = 0.0
        F[0, 1] = 1e-12
        res = fit_linear_head(g, F, labels)
        assert res.error == pytest.approx(1.0, abs=1e-6)

    def test_example1_construction_perfect_probe(self):
        lab = example1_graph(3, 1, tau_grid=(0.5, 1.0))
        model = construct_example1_optimal(3, 1)
        F = forward(model, lab.graph)
        y = 2.0 * lab.labels - 1.0
        res = fit_linear_head(lab.graph, F, y)
        assert res.error <= 1e-12
        np.testing.assert_allclose(res.head, [[1.0]], atol=1e-6)

    def test_reparameterization_invariance(self):
        rng = np.random.default_rng(3)
        g = random_graph(10, n_components=2, seed=3)
        F = rng.standard_normal((g.n, 3))
        labels = rng.integers(0, 2, size=g.n)
        A = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        e1 = fit_linear_head(g, F, labels).error
        e2 = fit_linear_head(g, F @ A.T, labels).error
        assert abs(e1 - e2) <= 1e-8

    def test_identity_covariance_head_is_cross_moment(self):
        rng = np.random.default_rng(4)
        g = random_graph(9, n_components=1, seed=4)
        raw = rng.standard_normal((g.n, 2))
        cov = raw.T @ (raw * g.marginal[:, None])
        evals, evecs = np.linalg.eigh(cov)
        F = raw @ (evecs @ np.diag(evals ** -0.5) @ evecs.T)
        labels = rng.integers(0, 2, size=g.n)
        Y = np.eye(2)[labels]
        res = fit_linear_head(g, F, labels)
        W_expected = Y.T @ (F * g.marginal[:, None])
        np.testing.assert_allclose(res.head, W_expected, atol=1e-9)

    @pytest.mark.parametrize("labels", [
        np.zeros(7, dtype=np.int64),                     # one short
        np.array([0, 1, 0, 1, 0, 1, 0, -1]),             # -1 is no class
    ], ids=["short", "negative"])
    def test_bad_labels_raise(self, labels):
        g = random_graph(8, n_components=1, seed=5)
        F = np.random.default_rng(5).standard_normal((g.n, 2))
        with pytest.raises(DimensionMismatch):
            fit_linear_head(g, F, labels)

    def test_fitted_never_worse_than_zero_head(self):
        rng = np.random.default_rng(6)
        g = random_graph(11, n_components=1, seed=6)
        F = rng.standard_normal((g.n, 3))
        labels = rng.integers(0, 3, size=g.n)
        assert probe_error(g, F, labels) <= 1.0 + 1e-12


class TestMeasureAssumptions:
    def test_component_partition_tabular(self):
        g = random_graph(10, n_components=2, seed=7)
        part = connected_components(g)
        rep = measure_assumptions(g, part, spec_for_graph("tabular", 2, g))
        assert rep.alpha == 0.0
        assert rep.implementable
        assert rep.beta_certified
        assert rep.m == 2
        assert 0.0 < rep.P_min <= rep.P_max

    def test_example1_components_not_linear_implementable(self):
        lab = example1_graph(3, 1, tau_grid=(0.5, 1.0))
        part = connected_components(lab.graph)
        rep = measure_assumptions(
            lab.graph, part, spec_for_graph("linear", part.n_sets, lab.graph))
        assert not rep.implementable
        assert rep.implementable_residual > 1e-8

    def test_example1_sign_partition_linear_beta_positive(self):
        lab = example1_graph(3, 1, tau_grid=(0.5, 1.0))
        part = partition_from_labels(lab.labels)
        rep = measure_assumptions(
            lab.graph, part, spec_for_graph("linear", 2, lab.graph))
        assert rep.beta is not INFINITE
        assert rep.beta > 0.0
        assert rep.beta_certified

    @pytest.mark.parametrize("tag, s, lab", [
        ("conv", 1, example4_graph(4, 1, 2.0)),
        ("relu", 0, example1_graph(3, 1)),
    ], ids=["example4-conv", "example1-relu"])
    def test_nonconvex_class_implements_label_partition(self, tag, s, lab):
        # the conv case is construct_example4_optimal scaled by 1/sqrt(k),
        # the relu case construct_example2_optimal likewise
        part = partition_from_labels(lab.labels)
        rep = measure_assumptions(
            lab.graph, part, spec_for_graph(tag, part.n_sets, lab.graph, s=s))
        assert rep.implementable
        assert rep.implementable_residual <= 1e-10

    def test_linear_residual_reads_the_oracle_range(self):
        # a fifth coordinate of +-1e-7 splits each outer cluster into its two
        # sub-clusters, but its moment (1e-14) is below the range rule, so
        # the linear class has rank 4 and must not fit the sub-clusters with it
        g = two_level_graph(2, seed=0).graph
        split = np.tile([1e-7, 1e-7, -1e-7, -1e-7], g.n // 4)
        g5 = build_graph(np.hstack([g.vertices, split[:, None]]), g.joint)
        part = partition_from_labels(np.arange(g.n) // 2)
        residuals = [measure_assumptions(h, part, spec_for_graph("linear", 4, h))
                     .implementable_residual for h in (g, g5)]
        assert linear_rank(g5) == linear_rank(g) == 4
        assert residuals[0] > 0.49
        assert abs(residuals[1] - residuals[0]) <= 1e-12

    def test_relu_class_reports_tabular_standin(self):
        g = random_graph(8, n_components=2, seed=8)
        part = connected_components(g)
        rep = measure_assumptions(g, part, spec_for_graph("relu", 2, g))
        assert not rep.beta_certified
        assert rep.beta_class == "tabular"


class TestMeasureEigenspaceQuantities:
    def _indicator_basis(self, g):
        part = connected_components(g)
        F = np.zeros((g.n, part.n_sets))
        for j, cell in enumerate(part.sets()):
            F[cell, j] = 1.0 / np.sqrt(g.marginal[cell].sum())
        return F, part

    def test_exact_zero_eigenfunctions(self):
        g = random_graph(12, n_components=3, seed=9)
        F, part = self._indicator_basis(g)
        labels = part.labels % 2
        rep = measure_eigenspace_quantities(g, F, [F[:, 0]], labels)
        assert rep.phi <= 1e-12
        assert rep.epsilon <= 1e-12
        assert rep.m == 3

    def test_candidate_in_span_zero_residual(self):
        g = random_graph(10, n_components=2, seed=10)
        F, part = self._indicator_basis(g)
        cand = 2.0 * F[:, 0] - 0.7 * F[:, 1]
        rep = measure_eigenspace_quantities(g, F, [cand], part.labels)
        assert rep.epsilon <= 1e-12

    def test_candidate_off_span_positive_residual(self):
        g = random_graph(10, n_components=2, seed=11)
        F, part = self._indicator_basis(g)
        rng = np.random.default_rng(11)
        cand = rng.standard_normal(g.n)
        rep = measure_eigenspace_quantities(g, F, [cand], part.labels)
        assert rep.epsilon > 1e-6

    def test_not_orthonormal_rejected(self):
        g = random_graph(8, n_components=2, seed=12)
        F, part = self._indicator_basis(g)
        with pytest.raises(NotOrthonormal):
            measure_eigenspace_quantities(g, 2.0 * F, [F[:, 0]], part.labels)


@pytest.mark.parametrize("call, error, message", [
    (lambda g: fit_linear_head(g, np.ones(g.n), np.zeros(g.n, dtype=np.int64)),
     DimensionMismatch, r"representations shape \(6,\) vs n=6"),
    (lambda g: measure_eigenspace_quantities(g, np.ones((g.n + 1, 1)), [], [0] * g.n),
     DimensionMismatch, r"f_eig shape \(7, 1\) vs n=6"),
    (lambda g: measure_eigenspace_quantities(g, np.ones((g.n, 1)), [np.ones(g.n - 1)], [0] * g.n),
     DimensionMismatch, "candidate length does not match graph"),
    (lambda g: measure_eigenspace_quantities(g, np.ones((g.n, 1)), [np.zeros(g.n)], [0] * g.n),
     ZeroFunction, "identically zero"),
    (lambda g: theorem42_bound(_eig_report(0.0, 0.0, 0.0, 1.0), 2, 0.0), ValueError,
     "lambda must be positive"),
    (lambda g: theorem56_bound(2, 2, 1.0, -0.1), ValueError, "arguments must be positive"),
], ids=["head-shape", "f-eig-shape", "candidate-length", "zero-candidate", "lambda-zero",
        "negative-rho"])
def test_bad_arguments_rejected(call, error, message):
    # the constant 1 is an orthonormal reference column: the marginal sums to 1
    with pytest.raises(error, match=message):
        call(random_graph(6, n_components=1, seed=2))


def _assumption_report(alpha, beta, pmin, pmax, m=2):
    return AssumptionReport(
        alpha=alpha, beta=beta, P_min=pmin, P_max=pmax, m=m,
        implementable=True, implementable_residual=0.0,
        beta_certified=True, beta_class="tabular",
    )


class TestTheorem31Bound:
    def test_zero_alpha_zero_bound(self):
        assert theorem31_bound(_assumption_report(0.0, 0.5, 0.25, 0.25)) == 0.0

    def test_displayed_arithmetic(self):
        val = theorem31_bound(_assumption_report(0.01, 0.5, 0.25, 0.25))
        assert val == pytest.approx(0.02 * (0.25 / 0.24), abs=1e-10)
        assert val == pytest.approx(0.0208333, abs=1e-6)

    def test_alpha_at_pmin_rejected(self):
        with pytest.raises(AlphaExceedsPmin):
            theorem31_bound(_assumption_report(0.25, 0.5, 0.25, 0.25))

    def test_beta_zero_rejected(self):
        with pytest.raises(BetaZero):
            theorem31_bound(_assumption_report(0.01, 0.0, 0.25, 0.25))

    def test_infinite_beta_gives_zero(self):
        assert theorem31_bound(
            _assumption_report(0.01, INFINITE, 0.25, 0.25)) == 0.0


def _eig_report(phi, eps, zeta, B, m=2):
    return EigenspaceReport(phi=phi, phi_tilde=phi, epsilon=eps, zeta=zeta,
                            B=B, m=m)


class TestTheorem42Bound:
    def test_all_zero(self):
        assert theorem42_bound(_eig_report(0.0, 0.0, 0.0, 1.0), 2, 10.0) == 0.0

    def test_displayed_arithmetic(self):
        val = theorem42_bound(_eig_report(0.1, 0.0, 0.01, 1.0), 2, 10.0)
        assert val == pytest.approx(0.34, abs=1e-12)

    def test_lambda_doubling_halves(self):
        rep = _eig_report(0.3, 0.0, 0.0, 1.5)
        assert theorem42_bound(rep, 3, 20.0) == pytest.approx(
            theorem42_bound(rep, 3, 10.0) / 2.0, abs=1e-14)


class TestTheorem56Bound:
    def test_zero_rho(self):
        assert theorem56_bound(2, 2, 1.0, 0.0) == 0.0

    def test_displayed_arithmetic(self):
        assert theorem56_bound(2, 2, 1.0, 0.1) == pytest.approx(0.08,
                                                                abs=1e-14)

    def test_monotone_in_each_argument(self):
        base = theorem56_bound(2, 2, 1.0, 0.1)
        assert theorem56_bound(3, 2, 1.0, 0.1) > base
        assert theorem56_bound(2, 3, 1.0, 0.1) > base
        assert theorem56_bound(2, 2, 1.5, 0.1) > base
        assert theorem56_bound(2, 2, 1.0, 0.2) > base
