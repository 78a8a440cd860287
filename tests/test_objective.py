"""Loss evaluation, training, analytic minimizers, whitening."""

import csv
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse

from pairlab.errors import (
    Divergence,
    NonFiniteGradient,
    SingularCovariance,
)
from pairlab import objective
from pairlab.funclass import FunctionClassSpec, construct_example1_optimal, forward, spec_for_graph
from pairlab.objective import (
    StackedLoss,
    TrainConfig,
    linear_min_oracle,
    loss_gradient,
    population_loss,
    save_trace,
    tabular_min_oracle,
    train,
    train_grid,
    whiten,
)
from pairlab.posgraph import connected_components
from pairlab.septest import br_oracle_tabular
from pairlab.spectral import eigendecompose
from pairlab.synthdata import example1_graph, random_graph, two_level_graph


class TestPopulationLoss:
    def test_example1_construction_is_zero(self):
        lab = example1_graph(3, 1, tau_grid=(0.5, 1.0))
        model = construct_example1_optimal(3, 1)
        for lam in (0.1, 1.0, 10.0):
            assert population_loss(lab.graph, model, lam).total <= 1e-15

    def test_zero_model_k2(self, two_vertex_uniform):
        spec = spec_for_graph("tabular", 2, two_vertex_uniform)
        model = spec.model(np.zeros(4))
        rep = population_loss(two_vertex_uniform, model, 3.0)
        assert rep.pair_term == 0.0
        assert rep.reg_term == pytest.approx(2.0, abs=1e-15)  # ||-I||_F^2
        assert rep.total == pytest.approx(6.0, abs=1e-14)

    def test_scaled_component_indicators_zero(self):
        g = random_graph(12, n_components=3, seed=1)
        part = connected_components(g)
        F = np.zeros((g.n, 3))
        for j, cell in enumerate(part.sets()):
            mass = g.marginal[cell].sum()
            F[cell, j] = 1.0 / np.sqrt(mass)
        model = spec_for_graph("tabular", 3, g).model(F.ravel())
        assert population_loss(g, model, 7.0).total <= 1e-22

    def test_report_identity(self, two_vertex_uniform):
        rng = np.random.default_rng(0)
        spec = spec_for_graph("tabular", 2, two_vertex_uniform)
        model = spec.init_model(rng, scale=2.0)
        rep = population_loss(two_vertex_uniform, model, 0.7)
        assert rep.total == pytest.approx(
            rep.pair_term + rep.lam * rep.reg_term, abs=1e-12)


class TestTrain:
    def test_example1_linear_reaches_zero(self):
        lab = example1_graph(3, 1, tau_grid=(0.5, 1.0))
        spec = spec_for_graph("linear", 1, lab.graph)
        model, trace = train(lab.graph, spec, lam=1.0,
                             config=TrainConfig(max_iters=3000, seed=0))
        assert population_loss(lab.graph, model, 1.0).total <= 1e-6

    def test_tabular_matches_oracle(self):
        g = random_graph(10, n_components=2, seed=4)
        spec = spec_for_graph("tabular", 3, g)
        model, _ = train(g, spec, lam=3.0,
                         config=TrainConfig(max_iters=4000, seed=1))
        got = population_loss(g, model, 3.0).total
        want, _ = tabular_min_oracle(g, 3, 3.0)
        assert got <= want + 1e-4
        assert got >= want - 1e-9   # oracle is a true lower bound

    def test_loss_floor_when_k_exceeds_zero_modes(self, two_vertex_uniform):
        # one component only: the second direction must pay 2*psi - psi^2/lam
        spec = spec_for_graph("tabular", 2, two_vertex_uniform)
        model, _ = train(two_vertex_uniform, spec, lam=100.0,
                         config=TrainConfig(max_iters=2000, seed=0))
        assert population_loss(two_vertex_uniform, model, 100.0).total >= 1.0

    def test_trace_non_increasing_and_csv(self, tmp_path):
        g = random_graph(8, n_components=1, seed=5)
        spec = spec_for_graph("tabular", 2, g)
        model, trace = train(g, spec, lam=1.0,
                             config=TrainConfig(max_iters=500, seed=2))
        totals = [row[3] for row in trace]
        assert all(b <= a + 1e-15 for a, b in zip(totals, totals[1:]))

        path = tmp_path / "trace.csv"
        save_trace(trace, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "pair_term", "reg_term", "total"]
        assert len(rows) == len(trace) + 1

    def test_divergence_raised(self, two_vertex_uniform):
        spec = spec_for_graph("tabular", 2, two_vertex_uniform)
        with pytest.raises(Divergence):
            train(two_vertex_uniform, spec, lam=1.0,
                  config=TrainConfig(max_iters=50, seed=0, init_scale=1e4,
                                     step_size=10.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_raised(self, two_vertex_uniform):
        # the overflow itself is the point: it must surface as a clean error
        spec = spec_for_graph("tabular", 2, two_vertex_uniform)
        with pytest.raises(NonFiniteGradient):
            train(two_vertex_uniform, spec, lam=1.0,
                  config=TrainConfig(max_iters=50, seed=0, init_scale=1e200))


def _reference_loss(graph, F, lam):
    """The loss straight from its definition, one pair at a time."""
    J = graph.joint.toarray()
    pair = sum(J[a, b] * np.sum((F[a] - F[b]) ** 2)
               for a in range(graph.n) for b in range(graph.n))
    gap = F.T @ (graph.marginal[:, None] * F) - np.eye(F.shape[1])
    return pair + lam * np.sum(gap * gap)


def _class_spec(tag, graph, k=2):
    return spec_for_graph(tag, k, graph, s=2 if tag == "conv" else 0)


class TestStackedLoss:
    @pytest.mark.parametrize("tag", ["tabular", "linear", "relu", "conv"])
    @pytest.mark.parametrize("csr", [False, True])
    def test_every_slice_matches_single_model(self, tag, csr, monkeypatch):
        g = random_graph(9, n_components=2, seed=21)
        if csr:    # the product with the CSR joint, as above 200 vertices
            monkeypatch.setattr(objective, "_DENSE_PRODUCT_LIMIT", 8)
        spec = _class_spec(tag, g)
        rng = np.random.default_rng(5)
        params = rng.uniform(-1.0, 1.0, size=(5, spec.param_count()))
        loss = StackedLoss(g, spec)
        for lam in (0.1, 1.0, 3.0, 30.0, 1000.0):
            total, pair, reg, grad = loss(params, lam)
            for b in range(5):
                model = spec.model(params[b])
                report, want = loss_gradient(g, model, lam)
                assert total[b] == pytest.approx(report.total, rel=1e-12)
                assert pair[b] == pytest.approx(report.pair_term, rel=1e-12, abs=1e-15)
                assert reg[b] == pytest.approx(report.reg_term, rel=1e-12)
                np.testing.assert_allclose(grad[b], want, rtol=1e-12,
                                           atol=1e-12 * np.abs(want).max())
                ref = _reference_loss(g, forward(model, g), lam)
                assert total[b] == pytest.approx(ref, rel=1e-10)

    def test_csr_joint_matches_dense(self, monkeypatch):
        # above _DENSE_PRODUCT_LIMIT vertices the loss multiplies by the CSR joint
        g = random_graph(9, n_components=2, seed=27)
        spec = spec_for_graph("relu", 3, g)
        params = np.random.default_rng(8).uniform(-1.0, 1.0,
                                                  size=(4, spec.param_count()))
        dense = StackedLoss(g, spec)
        monkeypatch.setattr(objective, "_DENSE_PRODUCT_LIMIT", 8)
        csr = StackedLoss(g, spec)
        assert isinstance(dense.joint, np.ndarray) and scipy.sparse.issparse(csr.joint)
        for lam in (0.3, 3.0, 30.0, 300.0):
            want, got = dense(params, lam), csr(params, lam)
            for a, b in zip(got, want):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("tag", ["tabular", "linear", "relu"])
    def test_best_loss_independent_of_batch(self, tag):
        g = random_graph(10, n_components=2, seed=22)
        spec = _class_spec(tag, g)
        grid = (0.3, 3.0, 30.0, 300.0, 1000.0)
        config = TrainConfig(n_starts=1, seed=4)
        together = train_grid(g, spec, grid, config)
        for lam, (model, _) in zip(grid, together):
            (alone, _), = train_grid(g, spec, [lam], config)
            assert population_loss(g, model, lam).total == pytest.approx(
                population_loss(g, alone, lam).total, rel=1e-10)

    def test_one_iteration(self):
        g = random_graph(8, n_components=1, seed=23)
        spec = spec_for_graph("tabular", 2, g)
        model, trace = train(g, spec, 3.0, TrainConfig(max_iters=1, seed=1))
        assert [row[0] for row in trace] in ([0], [0, 1])
        assert trace[-1][3] <= trace[0][3]
        assert population_loss(g, model, 3.0).total == trace[-1][3]

    def test_uneven_extra_inits_across_lambdas(self):
        g = random_graph(9, n_components=2, seed=24)
        spec = spec_for_graph("tabular", 2, g)
        rng = np.random.default_rng(7)
        warm = [spec.init_model(rng, scale=1.0) for _ in range(3)]
        grid = (1.0, 10.0, 100.0)
        extras = [(), warm[:1], warm]
        config = TrainConfig(max_iters=300, seed=2)
        together = train_grid(g, spec, grid, config, extra_inits=extras)
        assert len(together) == 3
        for lam, extra, (model, _) in zip(grid, extras, together):
            alone, _ = train(g, spec, lam, config, extra_inits=extra)
            assert population_loss(g, model, lam).total == pytest.approx(
                population_loss(g, alone, lam).total, rel=1e-10)
            for m in extra:   # a trained start never ends above where it began
                assert population_loss(g, model, lam).total <= \
                    population_loss(g, m, lam).total

    @pytest.mark.parametrize("lams, kwargs, message", [
        ([1.0, 2.0], lambda g: {"seeds": [1]}, "need one seed and one extra_inits entry"),
        ([1.0], lambda g: {"extra_inits": [(), ()]}, "need one seed and one extra_inits entry"),
        ([], lambda g: {}, "need one seed and one extra_inits entry"),
        ([1.0], lambda g: {"extra_inits": [[spec_for_graph("linear", 2, g).init_model(
            np.random.default_rng(0))]]}, "extra_inits must match the trained class"),
    ], ids=["short-seeds", "long-extra-inits", "no-lambda", "foreign-class"])
    def test_bad_lists_rejected(self, lams, kwargs, message):
        g = random_graph(6, n_components=1, seed=3)
        with pytest.raises(ValueError, match=message):
            train_grid(g, spec_for_graph("tabular", 2, g), lams, TrainConfig(max_iters=5),
                       **kwargs(g))

    def test_seeds_pick_the_starts(self):
        g = random_graph(8, n_components=1, seed=25)
        spec = spec_for_graph("linear", 2, g)
        config = TrainConfig(max_iters=20)
        (m1, _), (m2, _) = train_grid(g, spec, [3.0, 3.0], config, seeds=[5, 6])
        (m5, _), = train_grid(g, spec, [3.0], replace(config, seed=5))
        np.testing.assert_array_equal(m1.params, m5.params)
        assert not np.array_equal(m1.params, m2.params)

    def test_path_skips_a_predecessor_that_cannot_be_whitened(self):
        # psi_2 = 0.31 > 0.1, so the lambda=0.1 minimizer's second column
        # is 0: lambda=3 must take its own seeded start, as a one-lambda
        # call does, and lambda=10 then starts from lambda=3's iterate
        g = random_graph(8, n_components=1, seed=5)
        spec = spec_for_graph("tabular", 2, g)
        config = TrainConfig(seed=2)
        (at10, _), (at01, _), (at3, _) = train_grid(g, spec, [10.0, 0.1, 3.0], config)
        with pytest.raises(SingularCovariance):
            whiten(g, at01)
        assert [m.meta["stop"]["start"] for m in (at01, at3, at10)] == [
            "own", "own", "previous_lambda"]
        alone, _ = train(g, spec, 3.0, config)
        np.testing.assert_array_equal(at3.params, alone.params)

    def test_over_limit_candidates_are_rejected_not_raised(self):
        # a step size far too large for lambda=1000 overshoots past the
        # divergence limit on the first step; halving must recover
        g = random_graph(8, n_components=1, seed=26)
        spec = spec_for_graph("linear", 2, g)
        model, trace = train(g, spec, 1000.0,
                             TrainConfig(step_size=50.0, max_iters=400, seed=0))
        assert trace[-1][3] < trace[0][3]
        assert np.all(np.isfinite(model.params))



def _steps_along_minus_gradient(evals, scale):
    """For each candidate after the start, whether it moves from the
    current point along its steepest direction in the descent's scaled
    coordinates, -scale^2 * gradient; evals are (params, loss, grad)."""
    x, fx, gx = evals[0]
    out = []
    for cand, fc, gc in evals[1:]:
        step, steepest = cand - x, scale * scale * gx
        out.append(bool(-step @ steepest >= (1.0 - 1e-12) * np.linalg.norm(step)
                        * np.linalg.norm(steepest)))
        if fc <= fx:
            x, fx, gx = cand, fc, gc
    return out


def _two_loop(pairs, gamma, g):
    """H g by the L-BFGS two-loop recursion (Nocedal & Wright, alg. 7.4),
    pairs (s, y) oldest first, H0 = gamma I."""
    q, alphas = g.copy(), []
    for s, y in reversed(pairs):
        alphas.append(s @ q / (s @ y))
        q -= alphas[-1] * y
    q *= gamma
    for (s, y), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - y @ q / (s @ y)) * s
    return q


class TestQuasiNewton:
    def test_direction_matches_two_loop_recursion(self):
        # random rows skip each push, and every row wraps past the history
        rng = np.random.default_rng(1)
        B, P, m = 4, 12, objective._HISTORY
        A = rng.standard_normal((P, P))
        A = A @ A.T + np.eye(P)
        V, C = np.zeros((B, 2, m, P)), np.zeros((B, 3, m, m))
        pairs = [[] for _ in range(B)]
        for _ in range(4 * m):
            s = rng.standard_normal((B, P))
            y = s @ A
            rows = np.flatnonzero(rng.random(B) < 0.7)
            objective._push(V, C, rows if rows.size < B else slice(None),
                            s, y, objective._dot(s, y), objective._dot(y, y))
            for i in rows:
                pairs[i] = (pairs[i] + [(s[i], y[i])])[-m:]
            gamma, g = rng.uniform(0.1, 1.0, B), rng.standard_normal((B, P))
            d = objective._direction(V, C, gamma, g)
            for i in range(B):
                want = -_two_loop(pairs[i], gamma[i], g[i])
                np.testing.assert_allclose(d[i], want, rtol=0,
                                           atol=1e-12 * np.abs(want).max())
        assert all(len(p) == m for p in pairs)

    @pytest.mark.parametrize("lam", [100.0, 300.0, 1000.0])
    def test_large_lambda_reaches_tabular_oracle(self, lam):
        g = two_level_graph(2).graph
        model, _ = train(g, spec_for_graph("tabular", 2, g), lam)
        want, _ = tabular_min_oracle(g, 2, lam)
        got = population_loss(g, model, lam).total
        assert want - 1e-12 <= got <= want + 1e-9 * max(1.0, abs(want))

    def test_stop_record(self):
        g = random_graph(8, n_components=1, seed=5)
        spec = spec_for_graph("tabular", 2, g)
        model, trace = train(g, spec, 1.0, TrainConfig(seed=2))
        stop = model.meta["stop"]
        assert stop["reason"] == "converged"
        assert stop["evals"] == trace[-1][0] + 1    # it stopped on its last step
        assert len(trace) == stop["evals"] - stop["rejected"]
        _, grad = loss_gradient(g, model, 1.0)
        assert stop["grad_norm"] == pytest.approx(np.linalg.norm(grad), rel=1e-12)
        assert stop["grad_norm"] <= TrainConfig().grad_tol * max(1.0, trace[-1][3])
        (capped, _), = train_grid(g, spec, [1.0], TrainConfig(seed=2, max_iters=3))
        assert capped.meta["stop"]["reason"] == "max_iters"
        assert capped.meta["stop"]["evals"] == 4

    def test_non_descent_direction_falls_back_to_steepest(self, monkeypatch):
        # row 0's quasi-Newton direction is reversed by hand, so it is never
        # a descent direction: every step of row 0 must go along its
        # steepest direction, -scale^2 * gradient in the parameters, and
        # row 1 must not change by a bit
        g = random_graph(9, n_components=1, seed=28)
        spec = spec_for_graph("tabular", 2, g)
        scale = StackedLoss(g, spec).scale
        config = TrainConfig(max_iters=300)
        # the seed-3 start (row 0) and the seed-4 start (row 1), at lambda 1
        starts = np.array([spec.init_model(np.random.default_rng([seed, 0]), 0.1).params
                           for seed in (3, 4)])
        real_direction, real_loss = objective._direction, StackedLoss.__call__
        evals = []

        def recorded(self, params, lam):
            out = real_loss(self, params, lam)
            if len(params) == 2:
                evals.append((params[0].copy(), out[0][0], out[3][0].copy()))
            return out

        def reversed_row0(*args):
            d = real_direction(*args)
            if len(d) == 2:
                d[0] = -d[0]
            return d

        monkeypatch.setattr(StackedLoss, "__call__", recorded)
        loss = StackedLoss(g, spec)
        plain = objective._descend(lambda params: loss(params, 1.0), starts, scale,
                                   config, None)
        assert not all(_steps_along_minus_gradient(evals, scale))
        evals.clear()
        monkeypatch.setattr(objective, "_direction", reversed_row0)
        forced = objective._descend(lambda params: loss(params, 1.0), starts, scale,
                                    config, None)
        assert len(evals) > 10 and all(_steps_along_minus_gradient(evals, scale))
        np.testing.assert_array_equal(forced[0][1], plain[0][1])
        assert forced[2][1] == plain[2][1]


class TestScaledDescent:
    def test_uniform_marginal_runs_the_unscaled_bits(self):
        # on the hypercube every vertex has the same mass, so the tabular
        # scale is exactly 1, and multiplying or dividing by it changes no bit
        g = example1_graph(4, 2).graph
        spec = spec_for_graph("tabular", 2, g)
        assert np.all(StackedLoss(g, spec).scale == 1.0)

    def test_only_tabular_is_scaled(self):
        g = random_graph(9, n_components=2, seed=21)
        for tag in ("linear", "relu", "conv"):
            spec = _class_spec(tag, g)
            np.testing.assert_array_equal(StackedLoss(g, spec).scale,
                                          np.ones(spec.param_count()))
        scale = StackedLoss(g, _class_spec("tabular", g, k=3)).scale
        want = np.sqrt(g.marginal.min() / g.marginal)
        np.testing.assert_array_equal(scale, np.repeat(want, 3))

    def test_stop_bounds_the_true_gradient(self):
        # the stop test and the stop record read the gradient in the
        # parameters, not the shorter one in the scaled coordinates
        g = random_graph(60, n_components=3)
        spec = spec_for_graph("tabular", 2, g)
        config = TrainConfig()
        (model, _), = train_grid(g, spec, [3.0], config)
        stop = model.meta["stop"]
        assert stop["reason"] == "converged"
        report, grad = loss_gradient(g, model, 3.0)
        assert stop["grad_norm"] == pytest.approx(np.linalg.norm(grad), rel=1e-12)
        assert stop["grad_norm"] <= config.grad_tol * max(1.0, abs(report.total))
        scaled = np.linalg.norm(StackedLoss(g, spec).scale * grad)
        assert scaled < 0.9 * stop["grad_norm"]


class TestTabularMinOracle:
    def test_enough_components_gives_zero(self):
        g = random_graph(12, n_components=3, seed=7)
        val, model = tabular_min_oracle(g, 3, 5.0)
        assert val <= 1e-20
        assert population_loss(g, model, 5.0).total <= 1e-18

    def test_closed_form_on_two_vertex(self, two_vertex_uniform):
        # directions psi=0 (free) and psi=1: cost 2*psi - psi^2/lambda
        lam = 100.0
        val, _ = tabular_min_oracle(two_vertex_uniform, 2, lam)
        assert val == pytest.approx(2.0 - 1.0 / lam, abs=1e-12)

    def test_brute_force_agreement_k1(self, two_vertex_uniform):
        lam = 2.0
        val, _ = tabular_min_oracle(two_vertex_uniform, 1, lam)

        spec = spec_for_graph("tabular", 1, two_vertex_uniform)

        def obj(p):
            return population_loss(two_vertex_uniform, spec.model(p), lam).total

        best = np.inf
        for s in range(8):
            x0 = np.random.default_rng(s).uniform(-2, 2, size=2)
            res = scipy.optimize.minimize(obj, x0, method="Nelder-Mead",
                                          options={"xatol": 1e-10,
                                                   "fatol": 1e-14})
            best = min(best, res.fun)
        assert abs(val - best) <= 1e-6

    def test_lower_bounds_random_models(self):
        g = random_graph(9, n_components=1, seed=8)
        lam = 1.5
        val, _ = tabular_min_oracle(g, 2, lam)
        rng = np.random.default_rng(9)
        spec = spec_for_graph("tabular", 2, g)
        for _ in range(50):
            model = spec.init_model(rng, scale=2.0)
            assert population_loss(g, model, lam).total >= val - 1e-10

    def test_large_lambda_consistent_with_separability_oracle(self):
        g = random_graph(11, n_components=1, seed=10)
        r = 3
        lam = 1e6
        val, model = tabular_min_oracle(g, r, lam)
        pair = population_loss(g, model, lam).pair_term
        assert pair == pytest.approx(r * br_oracle_tabular(g, r), abs=1e-4)


class TestLinearMinOracle:
    def test_example1_k_eq_s_reaches_zero(self):
        lab = example1_graph(4, 2, tau_grid=(0.5, 1.0))
        val, model = linear_min_oracle(lab.graph, 2, 1.0)
        assert val <= 1e-10
        assert model.class_tag == "linear"
        assert population_loss(lab.graph, model, 1.0).total <= 1e-10

    def test_never_below_tabular(self):
        g = random_graph(10, n_components=2, seed=12)
        for lam in (0.5, 5.0):
            lin, _ = linear_min_oracle(g, 2, lam)
            tab, _ = tabular_min_oracle(g, 2, lam)
            assert tab <= lin + 1e-10


class TestWhiten:
    def test_covariance_identity_over_r(self):
        g = random_graph(10, n_components=1, seed=13)
        model = spec_for_graph("tabular", 3, g).init_model(
            np.random.default_rng(3), scale=1.0)
        W = whiten(g, model)
        cov = W.T @ (W * g.marginal[:, None])
        np.testing.assert_allclose(cov, np.eye(3) / 3.0, atol=1e-9)

    def test_already_white_model_just_rescales(self):
        g = random_graph(8, n_components=2, seed=14)
        # build an exactly-covariance-I representation from indicators
        part = connected_components(g)
        F = np.zeros((g.n, 2))
        for j, cell in enumerate(part.sets()):
            F[cell, j] = 1.0 / np.sqrt(g.marginal[cell].sum())
        model = spec_for_graph("tabular", 2, g).model(F.ravel())
        W = whiten(g, model)
        np.testing.assert_allclose(W, F / np.sqrt(2.0), atol=1e-10)

    def test_idempotent_covariance(self):
        g = random_graph(9, n_components=1, seed=15)
        model = spec_for_graph("tabular", 2, g).init_model(
            np.random.default_rng(4), scale=1.0)
        W1 = whiten(g, model)
        model2 = spec_for_graph("tabular", 2, g).model(W1.ravel())
        W2 = whiten(g, model2)
        cov1 = W1.T @ (W1 * g.marginal[:, None])
        cov2 = W2.T @ (W2 * g.marginal[:, None])
        np.testing.assert_allclose(cov1, cov2, atol=1e-10)

    def test_rank_deficient_rejected(self):
        g = random_graph(7, n_components=1, seed=16)
        F = np.zeros((g.n, 2))
        F[:, 0] = np.arange(g.n, dtype=float)
        model = spec_for_graph("tabular", 2, g).model(F.ravel())
        # the message prints the eigenvalue as a number, not np.float64(...)
        with pytest.raises(SingularCovariance,
                           match=r"^covariance eigenvalue -?\d[\d.e+-]* too small"):
            whiten(g, model)
