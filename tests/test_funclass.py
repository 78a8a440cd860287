"""Model classes: forward, gradients, Lipschitz, closed-form constructions,
adversarial constructions, serialization."""

import hashlib
import json
import re

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
    StackedClass,
    _verify_onehot_outputs,
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
    example1_graph,
    _sign_index,
    example2_labels,
    example4_graph,
    sign_patterns,
    xor_label_map,
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


@pytest.mark.parametrize("call, error, message", [
    (lambda g: FunctionClassSpec("linear", k=0, d=1), DimensionMismatch, "k must be >= 1"),
    (lambda g: FunctionClassSpec("conv", k=1, d=2, s=3), DimensionMismatch,
     "conv needs 1 <= s <= d"),
    (lambda g: forward(FunctionClassSpec("tabular", k=1, n=3).model(np.zeros(3)), g),
     DimensionMismatch, "tabular model for n=3 evaluated on n=2"),
    (lambda g: grad_params(FunctionClassSpec("linear", k=1, d=1).model([1.0]), g,
                           np.zeros((3, 1))), DimensionMismatch, "cotangent shape"),
    (lambda g: construct_adversarial_universal(g, 1, key_dims=[]), DimensionMismatch,
     "bad key dims"),
    (lambda g: construct_adversarial_universal(g, 1, key_dims=[1]), DimensionMismatch,
     "bad key dims"),
    (lambda g: construct_adversarial_universal(g, 1, key_dims=[0]), SpecMismatch,
     r"components do not refine key patterns \(edge at vertex 0\)"),
], ids=["k-zero", "conv-window", "tabular-n", "cotangent", "no-key-dims",
        "key-dim-range", "straddling-pair"])
def test_bad_shapes_rejected(call, error, message):
    # one connected pair of vertices at -1 and +1
    with pytest.raises(error, match=message):
        call(_grid_graph([[-1.0], [1.0]]))


@pytest.mark.parametrize("call, message", [
    (lambda: construct_example1_optimal(3, 3), "need 0 < s < d, got s=3, d=3"),
    (lambda: construct_example2_optimal(3, example1_graph(3, 1).graph),
     "need 0 < s < d, got s=3, d=3"),
    (lambda: construct_example4_optimal(0, 2.0, example4_graph(3, 1, 2.0).graph),
     "need 1 <= s < d, got s=0, d=3"),
    (lambda: construct_example4_adversarial_relu(1, 1.0, 2, example4_graph(3, 1, 2.0).graph),
     "gamma must exceed 1"),
    (lambda: construct_example4_optimal(1, float("inf"), example4_graph(4, 1, 2.0).graph),
     "gamma must be finite, got inf"),
    (lambda: construct_example4_adversarial_relu(1, float("nan"), 2,
                                                 example4_graph(3, 1, 2.0).graph),
     "gamma must be finite, got nan"),
], ids=["example1-s", "example2-s", "example4-s", "example4-adversarial-relu-gamma",
        "example4-infinite-gamma", "example4-adversarial-relu-nan-gamma"])
def test_construction_parameters_checked(call, message):
    # the example generators' own checks, on d read from the graph
    with pytest.raises(ValueError, match=message):
        call()


def test_example4_adversary_too_many_outputs():
    with pytest.raises(TooManyOutputs, match="k=7 exceeds 6 clusters"):
        construct_example4_adversarial_relu(1, 2.0, 7, example4_graph(3, 1, 2.0, (1.0,)).graph)


def _thm54_graph():
    return example2_labels(5, 2, xor_label_map(2)).graph


def _thm58_graph():
    return example4_graph(4, 1, 2.0).graph


@pytest.mark.parametrize("build, digest", [
    (lambda: construct_example1_optimal(6, 2),
     "72b93c49ec7e72f1fbc288d734711ed945c876e5ad163651189cbdfba5abdd3d"),
    (lambda: construct_example2_optimal(2, _thm54_graph()),
     "ff6386313b910405b4f1ad4f4fe3284f7a9a87368b79b13cc71705760e35dbc8"),
    (lambda: construct_example4_optimal(1, 2.0, _thm58_graph()),
     "c96b5e7e28ab193491094fab299be6c18510bac19aad8424df5766498a994bed"),
    (lambda: construct_example4_adversarial_relu(1, 2.0, 4, _thm58_graph()),
     "4bc24041d6dd63909aecc284fb065eca48e3b6ca3f7fb65c541f734ae8ff7aa0"),
    (lambda: construct_adversarial_universal(_thm54_graph(), 8, key_dims=[2, 3, 4]),
     "d46f5e512b10c175cf02ed3f4633fd24f5f10958644d2d11024662eaa8315d25"),
], ids=["example1", "example2", "example4", "example4-adversarial-relu",
        "adversarial-universal"])
def test_construction_parameters_are_pinned(build, digest):
    # taken before examples 1, 2 and 4 became keyword builders
    assert hashlib.sha256(build().params.tobytes()).hexdigest() == digest


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


class TestStackedRelu:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_dense_formula_bit_for_bit(self, seed):
        # three parameter vectors at once: each row of the forward pass is
        # max(X W^T + b, 0), and of the adjoint ((cot * [Z > 0])^T X, column
        # sums); unit 0 of the first row is all zeros, so its pre-activation
        # is exactly 0 and its subgradient 0
        rng = np.random.default_rng(seed)
        n, d, k = int(rng.integers(2, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
        g = _grid_graph(rng.standard_normal((n, d)))
        spec = FunctionClassSpec("relu", k=k, d=d)
        params = rng.standard_normal((3, spec.param_count()))
        params[0, :d] = params[0, k * d] = 0.0
        cot = rng.standard_normal((3, n, k))
        net = StackedClass(spec, g)
        F, pre = net.forward(params)
        grad = net.adjoint(pre, cot)
        X = g.vertices
        for b in range(3):
            Z = X @ params[b, :k * d].reshape(k, d).T + params[b, k * d:]
            G = cot[b] * (Z > 0.0)
            assert F[b].tobytes() == np.maximum(Z, 0.0).tobytes()
            want = np.concatenate([(G.T @ X).ravel(), G.sum(axis=0)])
            assert grad[b].tobytes() == want.tobytes()


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
        lab = example1_graph(4, 2, tau_grid=(0.5, 1.0))
        model = construct_example1_optimal(4, 2)
        F = forward(model, lab.graph)
        cov = F.T @ (F * lab.graph.marginal[:, None])
        np.testing.assert_allclose(cov, np.eye(2), atol=1e-12)
        assert pair_discrepancy(lab.graph, F) == 0.0
        for lam in (0.1, 1.0, 100.0):
            assert population_loss(lab.graph, model, lam).total <= 1e-15

    def test_example2_optimal_onehot_semantics(self):
        lab = example1_graph(3, 1, tau_grid=(0.5, 1.0))
        model = construct_example2_optimal(1, graph=lab.graph)
        F = forward(model, lab.graph)
        k = 2
        # every row is sqrt(k) times a one-hot vector
        np.testing.assert_allclose(np.sort(F, axis=1)[:, :-1], 0.0, atol=1e-9)
        np.testing.assert_allclose(F.max(axis=1), np.sqrt(k), atol=1e-9)
        cov = F.T @ (F * lab.graph.marginal[:, None])
        np.testing.assert_allclose(cov, np.eye(k), atol=1e-9)
        assert pair_discrepancy(lab.graph, F) <= 1e-18

    def test_example2_outputs_ignore_spurious_dims(self):
        lab = example1_graph(4, 2, tau_grid=(0.5, 1.0))
        model = construct_example2_optimal(2, graph=lab.graph)
        F = forward(model, lab.graph)
        # group vertices by their first-s sign pattern; outputs must agree
        keys = [tuple(np.sign(v[:2])) for v in lab.graph.vertices]
        seen = {}
        for key, row in zip(keys, F):
            if key in seen:
                np.testing.assert_allclose(row, seen[key], atol=1e-9)
            seen[key] = row

    def test_example4_optimal_properties(self):
        lab = example4_graph(3, 1, 2.0, tau_grid=(0.0, 1.0))
        model = construct_example4_optimal(1, 2.0, graph=lab.graph)
        F = forward(model, lab.graph)
        k = 2
        np.testing.assert_allclose(np.sort(F, axis=1)[:, :-1], 0.0, atol=1e-9)
        cov = F.T @ (F * lab.graph.marginal[:, None])
        np.testing.assert_allclose(cov, np.eye(k), atol=1e-9)
        assert pair_discrepancy(lab.graph, F) <= 1e-18

    def test_example4_zeroed_point_same_output(self):
        lab = example4_graph(3, 1, 2.0, tau_grid=(0.0, 1.0))
        model = construct_example4_optimal(1, 2.0, graph=lab.graph)
        F = forward(model, lab.graph)
        verts = lab.graph.vertices
        # patch +gamma at position 0: compare full spurious vs zeroed point
        full = np.where(np.all(verts == [2.0, 1.0, 1.0], axis=1))[0]
        zeroed = np.where(np.all(verts == [2.0, 0.0, 0.0], axis=1))[0]
        assert full.size == 1 and zeroed.size == 1
        np.testing.assert_allclose(F[full[0]], F[zeroed[0]], atol=1e-9)

    def test_nan_outputs_fail_verification(self):
        # NaN is neither within nor beyond the tolerance of its target
        g = example4_graph(4, 1, 2.0).graph
        model = construct_example4_optimal(1, 2.0, g)
        F = forward(model, g)
        params = model.params.copy()
        params[-1] = np.nan
        broken = model.spec.model(params)
        with pytest.raises(ConstructionVerificationFailed, match="fail at vertex 0"):
            _verify_onehot_outputs(broken, g, np.argmax(F, axis=1), np.sqrt(2.0), "one-hot")

    @pytest.mark.parametrize("construct, g", [
        (lambda graph: construct_example2_optimal(1, graph),
         example1_graph(3, 1, tau_grid=(0.5, 1.0)).graph),
        (lambda graph: construct_example4_optimal(1, 2.0, graph),
         example4_graph(3, 1, 2.0, tau_grid=(0.0, 1.0)).graph),
        (lambda graph: construct_example4_adversarial_relu(1, 2.0, 3, graph),
         example4_graph(3, 1, 2.0, tau_grid=(0.0, 1.0)).graph),
    ], ids=["example2", "example4", "example4-adversarial-relu"])
    def test_displayed_bias_failure_raises(self, construct, g):
        # the example's joint on coordinates scaled by 3/4: sign patterns and
        # patch locations survive, but the displayed bias no longer gives
        # sqrt(k) on the matching unit
        scaled = build_graph(0.75 * g.vertices, g.joint)
        with pytest.raises(ConstructionVerificationFailed, match="fail at vertex"):
            construct(scaled)

    @pytest.mark.parametrize("construct", [
        lambda graph: construct_example4_optimal(2, 2.0, graph),
        lambda graph: construct_example4_adversarial_relu(2, 2.0, 3, graph),
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
        g = example4_graph(4, 2, 2.0, tau_grid=(0.0, 1.0)).graph
        verts = g.vertices.copy()
        # vertex 7 is a view of a natural with its patch at coordinates 0, 1
        assert np.all(np.abs(verts[7, :2]) > 1.0)
        verts[7] = move(verts[7])
        bad = build_graph(verts, g.joint)
        with pytest.raises(SpecMismatch, match=message):
            construct(bad)

    def test_sign_index_inverts_sign_patterns(self):
        for bits in range(1, 6):
            np.testing.assert_array_equal(
                _sign_index(sign_patterns(bits) > 0), np.arange(2 ** bits))

    def test_adversarial_universal_zero_loss_and_sqrt_k_scale(self):
        lab = example1_graph(3, 1, tau_grid=(0.5, 1.0))
        k = 2 ** (3 - 1)
        model = construct_adversarial_universal(
            lab.graph, k, key_dims=list(range(1, 3)))
        cert = zero_loss_certificate(model, lab.graph)
        assert cert["loss"] <= 1e-12
        # exact cover (k = 2^{|key|}, groups of mass 1/k): heights are sqrt(k)
        F = forward(model, lab.graph)
        np.testing.assert_allclose(F.max(axis=1), np.sqrt(k), atol=1e-12)

    def test_adversarial_universal_k1_single_indicator(self):
        lab = example1_graph(3, 1, tau_grid=(0.5, 1.0))
        m1 = construct_adversarial_universal(lab.graph, 1, key_dims=[1, 2])
        F1 = forward(m1, lab.graph)
        assert F1.shape[1] == 1
        nz = F1[:, 0] != 0.0
        # nonzero exactly on one key-pattern group, scaled to unit norm
        mass = float(lab.graph.marginal[nz].sum())
        np.testing.assert_allclose(np.unique(F1[nz, 0]), 1.0 / np.sqrt(mass))
        assert zero_loss_certificate(m1, lab.graph)["loss"] <= 1e-12

    def test_adversarial_universal_too_many_outputs(self):
        lab = example1_graph(3, 1, tau_grid=(0.5, 1.0))
        with pytest.raises(TooManyOutputs):
            construct_adversarial_universal(lab.graph, 5, key_dims=[1, 2])

    def test_adversarial_universal_defeats_probe(self):
        lab = example1_graph(4, 1, tau_grid=(0.5, 1.0))
        model = construct_adversarial_universal(
            lab.graph, 2 ** 3, key_dims=list(range(1, 4)))
        F = forward(model, lab.graph)
        y = 2.0 * lab.labels - 1.0
        assert probe_error(lab.graph, F, y) >= 1.0 - 1e-8

    def test_example4_adversarial_relu_zero_loss(self):
        lab = example4_graph(3, 1, 2.0, tau_grid=(0.0, 1.0))
        model = construct_example4_adversarial_relu(1, 2.0, k=3, graph=lab.graph)
        assert model.class_tag == "relu"
        cert = zero_loss_certificate(model, lab.graph)
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

    @pytest.mark.parametrize("tag, shape, n_params", [
        ("linear", {"k": 1, "d": 3}, 6),
        ("relu", {"k": 2, "d": 2}, 5),
        ("relu", {"k": 2, "d": 2, "s": 1}, 6),
        ("linear", {"k": 1, "d": 3, "h": 2}, 3),
        ("linear", {"d": 3}, 3),
    ], ids=["linear-extra-params", "relu-missing-bias", "relu-with-conv-key",
            "linear-unknown-key", "linear-no-k"])
    def test_load_rejects_params_that_do_not_fit(self, tmp_path, tag, shape, n_params):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"class": tag, "shape": shape,
                                    "params": [0.5] * n_params, "meta": {}}))
        with pytest.raises(DimensionMismatch):
            load_model(path)

    @pytest.mark.parametrize("change, message", [
        ({"shape": {"k": 1.9, "d": 2}}, "shape k must be an integer, got 1.9"),
        ({"shape": {"k": True, "d": 2}}, "shape k must be an integer, got True"),
        ({"shape": {"k": "1", "d": 2}}, "shape k must be an integer, got '1'"),
        ({"shape": [1, 2]}, "model shape must be an object"),
        ({"params": [float("nan"), 0.25]}, "model params must be finite"),
        ({"params": [0.5, float("inf")]}, "model params must be finite"),
        ({"params": ["0.5", True]}, "model params must hold numbers only"),
        ({"params": "0.5"}, "model params must be a list"),
        ({"params": None}, "model params must be a list"),
    ], ids=["float-k", "bool-k", "text-k", "list-shape", "nan-param", "infinite-param",
            "text-and-bool-params", "text-params", "null-params"])
    def test_load_refuses_values_that_are_not_json_numbers(self, tmp_path, change, message):
        doc = {"class": "linear", "shape": {"k": 1, "d": 2}, "params": [0.5, 0.25], "meta": {}}
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**doc, **change}))
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            load_model(path)

    @pytest.mark.parametrize("field", ["class", "shape", "params"])
    def test_load_refuses_a_document_without_a_field(self, field):
        doc = {"class": "linear", "shape": {"k": 1, "d": 2}, "params": [0.5, 0.25]}
        del doc[field]
        with pytest.raises(DimensionMismatch, match=f"model document has no {field}"):
            model_from_dict(doc)
