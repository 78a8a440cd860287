"""Model classes: forward, gradients, Lipschitz, closed-form constructions,
adversarial constructions, serialization."""

import numpy as np
import pytest

from pairlab.errors import (
    ConstructionVerificationFailed,
    DimensionMismatch,
    SpecMismatch,
    TooManyOutputs,
    UnknownClass,
)
from pairlab.funclass import (
    FunctionClassSpec,
    _sign_index,
    construct_adversarial_universal,
    construct_example1_optimal,
    construct_example2_optimal,
    construct_example4_adversarial_relu,
    construct_example4_optimal,
    forward,
    grad_params,
    lipschitz_constant,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    spec_for_graph,
    zero_loss_certificate,
)
from pairlab.objective import population_loss
from pairlab.posgraph import build_graph
from pairlab.probe import probe_error
from pairlab.spectral import pair_discrepancy
from pairlab.synthdata import (
    Example1Spec,
    Example4Spec,
    example1_graph,
    example4_graph,
    sign_patterns,
)


def _grid_graph(X):
    """Uniform fully-self-paired graph over given coordinates."""
    n = len(X)
    return build_graph(X, np.full((n, n), 1.0 / n**2))


class TestForward:
    def test_linear_identity_rows(self):
        g = _grid_graph([[1.0, 2.0], [3.0, -4.0], [0.5, 0.0]])
        spec = FunctionClassSpec("linear", k=2, d=2)
        model = spec.model(np.eye(2).ravel())
        np.testing.assert_array_equal(forward(model, g), g.vertices)

    def test_relu_zero_params(self):
        g = _grid_graph([[1.0, 2.0], [3.0, -4.0]])
        spec = FunctionClassSpec("relu", k=3, d=2)
        model = spec.model(np.zeros(spec.param_count()))
        np.testing.assert_array_equal(forward(model, g), np.zeros((2, 3)))

    def test_conv_hand_example(self):
        # window length 1, unit weight, zero bias, x = (2, -1, 0.5):
        # output = relu(2) + relu(-1) + relu(0.5) = 2.5
        g = _grid_graph([[2.0, -1.0, 0.5]])
        spec = FunctionClassSpec("conv", k=1, d=3, s=1)
        model = spec.model([1.0, 0.0])
        np.testing.assert_allclose(forward(model, g), [[2.5]], atol=1e-15)

    def test_conv_rotation_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(5)
        spec = FunctionClassSpec("conv", k=3, d=5, s=2)
        model = spec.model(rng.standard_normal(spec.param_count()))
        base = forward(model, _grid_graph([list(x)]))
        for t in range(1, 5):
            rotated = np.roll(x, t)
            out = forward(model, _grid_graph([list(rotated)]))
            np.testing.assert_allclose(out, base, atol=1e-12)

    def test_tabular_returns_table(self):
        g = _grid_graph([[0.0], [1.0]])
        spec = spec_for_graph("tabular", 2, g)
        table = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(forward(spec.model(table.ravel()), g),
                                      table)

    def test_dimension_mismatch(self):
        g = _grid_graph([[0.0, 1.0], [1.0, 0.0]])
        model = FunctionClassSpec("linear", k=1, d=3).model([1.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            forward(model, g)

    def test_unknown_class_rejected(self):
        with pytest.raises(UnknownClass):
            FunctionClassSpec("mlp", k=2, d=2)

    def test_param_count_contract(self):
        assert FunctionClassSpec("tabular", k=3, n=7).param_count() == 21
        assert FunctionClassSpec("linear", k=3, d=5).param_count() == 15
        assert FunctionClassSpec("relu", k=3, d=5).param_count() == 18
        assert FunctionClassSpec("conv", k=3, d=5, s=2).param_count() == 9


class TestGradParams:
    def test_zero_cotangent_zero_gradient(self):
        g = _grid_graph([[1.0, 2.0], [3.0, -4.0]])
        spec = FunctionClassSpec("relu", k=2, d=2)
        model = spec.init_model(np.random.default_rng(0))
        grad = grad_params(model, g, np.zeros((2, 2)))
        np.testing.assert_array_equal(grad, np.zeros(spec.param_count()))

    def test_linear_adjoint_identity(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((4, 3))
        g = _grid_graph([list(r) for r in X])
        spec = FunctionClassSpec("linear", k=2, d=3)
        model = spec.init_model(rng)
        cot = rng.standard_normal((4, 2))
        grad = grad_params(model, g, cot)
        np.testing.assert_allclose(grad, (cot.T @ g.vertices).ravel(),
                                   atol=1e-12)

    @pytest.mark.parametrize("tag,s", [("linear", 0), ("relu", 0),
                                       ("conv", 2), ("tabular", 0)])
    def test_finite_difference_spot_check(self, tag, s):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((5, 4))
        g = _grid_graph([list(r) for r in X])
        spec = spec_for_graph(tag, 2, g, s=s)
        model = spec.init_model(rng, scale=0.5)
        cot = rng.standard_normal((5, 2))

        def value(p):
            return float(np.sum(forward(spec.model(p), g) * cot))

        grad = grad_params(model, g, cot)
        p0 = model.params
        for i in rng.choice(p0.size, size=min(6, p0.size), replace=False):
            h = 1e-6 * max(1.0, abs(p0[i]))
            up, dn = p0.copy(), p0.copy()
            up[i] += h
            dn[i] -= h
            fd = (value(up) - value(dn)) / (2 * h)
            denom = max(abs(fd), abs(grad[i]), 1e-8)
            assert abs(fd - grad[i]) / denom <= 1e-4, (tag, i)


class TestLipschitzConstant:
    def test_constant_model_zero(self):
        g = _grid_graph([[0.0, 0.0], [1.0, 1.0]])
        model = FunctionClassSpec("relu", k=2, d=2).model(
            np.zeros(6))
        assert lipschitz_constant(model, g) == 0.0

    def test_linear_bounded_by_spectral_norm(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((8, 3))
        g = _grid_graph([list(r) for r in X])
        U = rng.standard_normal((2, 3))
        model = FunctionClassSpec("linear", k=2, d=3).model(U.ravel())
        lip = lipschitz_constant(model, g)
        sigma = np.linalg.svd(U, compute_uv=False)[0]
        assert lip <= sigma + 1e-12
        # alignment: a pair along the top right-singular direction attains it
        v = np.linalg.svd(U)[2][0]
        g2 = _grid_graph([list(-v), list(v), list(2 * v)])
        model2 = FunctionClassSpec("linear", k=2, d=3).model(U.ravel())
        assert lipschitz_constant(model2, g2) == pytest.approx(sigma, rel=1e-12)


class TestConstructions:
    def test_example1_optimal_covariance_and_discrepancy(self):
        spec = Example1Spec(d=4, s=2, tau_grid=(0.5, 1.0))
        lab = example1_graph(spec)
        model = construct_example1_optimal(spec)
        F = forward(model, lab.graph)
        cov = F.T @ (F * lab.graph.marginal[:, None])
        np.testing.assert_allclose(cov, np.eye(2), atol=1e-12)
        assert pair_discrepancy(lab.graph, F) == 0.0
        for lam in (0.1, 1.0, 100.0):
            assert population_loss(lab.graph, model, lam).total <= 1e-15

    def test_example1_optimal_wrong_k(self):
        spec = Example1Spec(d=4, s=2, tau_grid=(0.5, 1.0))
        with pytest.raises(SpecMismatch):
            construct_example1_optimal(spec, k=3)

    def test_example2_optimal_onehot_semantics(self):
        spec = Example1Spec(d=3, s=1, tau_grid=(0.5, 1.0))
        lab = example1_graph(spec)
        model = construct_example2_optimal(spec, graph=lab.graph)
        F = forward(model, lab.graph)
        k = 2
        # every row is sqrt(k) times a one-hot vector
        np.testing.assert_allclose(np.sort(F, axis=1)[:, :-1], 0.0, atol=1e-9)
        np.testing.assert_allclose(F.max(axis=1), np.sqrt(k), atol=1e-9)
        cov = F.T @ (F * lab.graph.marginal[:, None])
        np.testing.assert_allclose(cov, np.eye(k), atol=1e-9)
        assert pair_discrepancy(lab.graph, F) <= 1e-18

    def test_example2_outputs_ignore_spurious_dims(self):
        spec = Example1Spec(d=4, s=2, tau_grid=(0.5, 1.0))
        lab = example1_graph(spec)
        model = construct_example2_optimal(spec, graph=lab.graph)
        F = forward(model, lab.graph)
        # group vertices by their first-s sign pattern; outputs must agree
        keys = [tuple(np.sign(v[:2])) for v in lab.graph.vertices]
        seen = {}
        for key, row in zip(keys, F):
            if key in seen:
                np.testing.assert_allclose(row, seen[key], atol=1e-9)
            seen[key] = row

    def test_example4_optimal_properties(self):
        spec = Example4Spec(d=3, s=1, gamma=2.0, tau_grid=(0.0, 1.0))
        lab = example4_graph(spec)
        model = construct_example4_optimal(spec, graph=lab.graph)
        F = forward(model, lab.graph)
        k = 2
        np.testing.assert_allclose(np.sort(F, axis=1)[:, :-1], 0.0, atol=1e-9)
        cov = F.T @ (F * lab.graph.marginal[:, None])
        np.testing.assert_allclose(cov, np.eye(k), atol=1e-9)
        assert pair_discrepancy(lab.graph, F) <= 1e-18

    def test_example4_zeroed_point_same_output(self):
        spec = Example4Spec(d=3, s=1, gamma=2.0, tau_grid=(0.0, 1.0))
        lab = example4_graph(spec)
        model = construct_example4_optimal(spec, graph=lab.graph)
        F = forward(model, lab.graph)
        verts = lab.graph.vertices
        # patch +gamma at position 0: compare full spurious vs zeroed point
        full = np.where(np.all(verts == [2.0, 1.0, 1.0], axis=1))[0]
        zeroed = np.where(np.all(verts == [2.0, 0.0, 0.0], axis=1))[0]
        assert full.size == 1 and zeroed.size == 1
        np.testing.assert_allclose(F[full[0]], F[zeroed[0]], atol=1e-9)

    @pytest.mark.parametrize("construct, spec, make_graph", [
        (construct_example2_optimal, Example1Spec(d=3, s=1, tau_grid=(0.5, 1.0)),
         example1_graph),
        (construct_example4_optimal, Example4Spec(d=3, s=1, gamma=2.0,
                                                  tau_grid=(0.0, 1.0)),
         example4_graph),
    ], ids=["example2", "example4"])
    def test_displayed_bias_failure_raises(self, construct, spec, make_graph):
        # the example's joint on coordinates scaled by 3/4: sign patterns and
        # patch locations survive, but the displayed bias no longer gives
        # sqrt(k) on the matching unit
        g = make_graph(spec).graph
        scaled = build_graph(0.75 * g.vertices, g.joint)
        with pytest.raises(ConstructionVerificationFailed, match="fail at vertex"):
            construct(spec, graph=scaled)

    @pytest.mark.parametrize("construct", [
        construct_example4_optimal,
        lambda spec, graph: construct_example4_adversarial_relu(spec, 3, graph),
    ], ids=["optimal", "adversarial-relu"])
    @pytest.mark.parametrize("move, message", [
        # a spurious entry raised above unit magnitude: s + 1 patch entries
        (lambda x: np.concatenate([x[:3], [1.5]]),
         "vertex 7 has 3 patch-magnitude entries, expected 2"),
        # the patch's second entry swapped with the next spurious one
        (lambda x: x[[0, 2, 1, 3]],
         "patch entries of vertex 7 are not circularly consecutive"),
    ], ids=["count", "not-consecutive"])
    def test_patch_cells_reject_bad_vertex(self, construct, move, message):
        spec = Example4Spec(d=4, s=2, gamma=2.0, tau_grid=(0.0, 1.0))
        g = example4_graph(spec).graph
        verts = g.vertices.copy()
        # vertex 7 is a view of a natural with its patch at coordinates 0, 1
        assert np.all(np.abs(verts[7, :2]) > 1.0)
        verts[7] = move(verts[7])
        bad = build_graph(verts, g.joint)
        with pytest.raises(SpecMismatch, match=message):
            construct(spec, graph=bad)

    def test_sign_index_inverts_sign_patterns(self):
        for bits in range(1, 6):
            np.testing.assert_array_equal(
                _sign_index(sign_patterns(bits) > 0), np.arange(2 ** bits))

    def test_adversarial_universal_zero_loss_and_sqrt_k_scale(self):
        spec = Example1Spec(d=3, s=1, tau_grid=(0.5, 1.0))
        lab = example1_graph(spec)
        k = 2 ** (3 - 1)
        model = construct_adversarial_universal(
            lab.graph, k, key_dims=list(range(1, 3)))
        cert = zero_loss_certificate(model, lab.graph, lam=1.0)
        assert cert["loss"] <= 1e-12
        # exact cover (k = 2^{|key|}, groups of mass 1/k): heights are sqrt(k)
        F = forward(model, lab.graph)
        np.testing.assert_allclose(F.max(axis=1), np.sqrt(k), atol=1e-12)

    def test_adversarial_universal_k1_single_indicator(self):
        spec = Example1Spec(d=3, s=1, tau_grid=(0.5, 1.0))
        lab = example1_graph(spec)
        m1 = construct_adversarial_universal(lab.graph, 1, key_dims=[1, 2])
        F1 = forward(m1, lab.graph)
        assert F1.shape[1] == 1
        nz = F1[:, 0] != 0.0
        # nonzero exactly on one key-pattern group, scaled to unit norm
        mass = float(lab.graph.marginal[nz].sum())
        np.testing.assert_allclose(np.unique(F1[nz, 0]), 1.0 / np.sqrt(mass))
        assert zero_loss_certificate(m1, lab.graph, lam=1.0)["loss"] <= 1e-12

    def test_adversarial_universal_too_many_outputs(self):
        spec = Example1Spec(d=3, s=1, tau_grid=(0.5, 1.0))
        lab = example1_graph(spec)
        with pytest.raises(TooManyOutputs):
            construct_adversarial_universal(lab.graph, 5, key_dims=[1, 2])

    def test_adversarial_universal_defeats_probe(self):
        spec = Example1Spec(d=4, s=1, tau_grid=(0.5, 1.0))
        lab = example1_graph(spec)
        model = construct_adversarial_universal(
            lab.graph, 2 ** 3, key_dims=list(range(1, 4)))
        F = forward(model, lab.graph)
        y = 2.0 * lab.labels - 1.0
        assert probe_error(lab.graph, F, y) >= 1.0 - 1e-8

    def test_example4_adversarial_relu_zero_loss(self):
        spec = Example4Spec(d=3, s=1, gamma=2.0, tau_grid=(0.0, 1.0))
        lab = example4_graph(spec)
        model = construct_example4_adversarial_relu(spec, k=3, graph=lab.graph)
        assert model.class_tag == "relu"
        cert = zero_loss_certificate(model, lab.graph, lam=1.0)
        assert cert["loss"] <= 1e-10


class TestSerialization:
    @pytest.mark.parametrize("tag,kwargs", [
        ("tabular", dict(n=4)),
        ("linear", dict(d=3)),
        ("relu", dict(d=3)),
        ("conv", dict(d=4, s=2)),
    ])
    def test_round_trip_exact(self, tmp_path, tag, kwargs):
        spec = FunctionClassSpec(tag, k=2, **kwargs)
        model = spec.init_model(np.random.default_rng(1))
        doc = model_to_dict(model)
        assert doc["class"] == tag
        back = model_from_dict(doc)
        np.testing.assert_array_equal(back.params, model.params)
        assert back.shape == model.shape

        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.params, model.params)
