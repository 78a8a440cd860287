"""Generators: hypercube examples, point-set clusters, patch example,
random disconnected graphs, and the two-level / component-cluster graphs."""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from pairlab.errors import IncompleteLabelMap, SizeGuardExceeded
from pairlab.posgraph import build_graph, connected_components, cross_cluster_mass
from pairlab.probe import probe_error
from pairlab.spectral import eigendecompose, pair_discrepancy
from pairlab.synthdata import (
    component_cluster_graph,
    component_constant_function,
    enumeration_label_map,
    example1_graph,
    example2_labels,
    example3_graph,
    example4_graph,
    random_graph,
    sign_patterns,
    two_level_graph,
    xor_label_map,
)

from conftest import (
    reference_component_cluster_graph,
    reference_example1_graph,
    reference_example3_graph,
    reference_example4_graph,
    reference_random_graph,
    reference_two_level_graph,
)


def graph_digest(lg) -> str:
    """SHA-256 of a labeled graph's vertices, CSR joint and labels."""
    joint = lg.graph.joint
    digest = hashlib.sha256()
    for arr in (lg.graph.vertices, joint.indptr.astype(np.int64),
                joint.indices.astype(np.int64), joint.data, lg.labels):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def plain_graph_digest(g) -> str:
    """SHA-256 of a graph's vertices, CSR joint and marginal."""
    digest = hashlib.sha256()
    for arr in (g.vertices, g.joint.indptr.astype(np.int64),
                g.joint.indices.astype(np.int64), g.joint.data, g.marginal):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _prop4_triples(seed: int, n_graphs: int = 200):
    """The (n, n_components, seed) of each graph `verify_prop4` draws."""
    rng = np.random.default_rng(seed)
    for i in range(n_graphs):
        n = int(rng.integers(5, 25))
        yield n, int(rng.integers(2, min(6, n))), seed + 7919 * i + 1


class TestExample1:
    def test_identity_augmentation_minimal(self):
        lab = example1_graph(2, 1, tau_grid=(1.0,))
        assert lab.graph.n == 4
        assert connected_components(lab.graph).n_sets == 4
        # labels follow the sign of the first coordinate
        signs = lab.graph.vertices[:, 0] > 0
        np.testing.assert_array_equal(lab.labels, signs.astype(int))

    def test_d4_s1_two_grid_sizes(self):
        lab = example1_graph(4, 1, tau_grid=(0.5, 1.0))
        assert lab.graph.n == 128       # 2^4 sign patterns * 2^3 tau combos
        assert connected_components(lab.graph).n_sets == 16

    def test_components_track_sign_patterns(self):
        # one component per sign pattern, for several (d, s) pairs
        for d, s in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 1), (6, 1)]:
            lab = example1_graph(d, s, tau_grid=(0.5, 1.0))
            assert connected_components(lab.graph).n_sets == 2 ** d, (d, s)

    def test_labels_constant_on_components_and_alpha_zero(self):
        lab = example1_graph(4, 2, tau_grid=(0.5, 1.0))
        part = connected_components(lab.graph)
        assert cross_cluster_mass(lab.graph, part) == 0.0
        for cell in part.sets():
            assert len(set(lab.labels[cell])) == 1

    def test_deterministic(self):
        a = example1_graph(3, 1, tau_grid=(0.5, 1.0))
        b = example1_graph(3, 1, tau_grid=(0.5, 1.0))
        np.testing.assert_array_equal(a.graph.vertices, b.graph.vertices)
        np.testing.assert_array_equal(a.graph.joint.toarray(),
                                      b.graph.joint.toarray())
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_size_guard(self):
        # 2^9 * 2^8 vertices, counted before anything is built
        with pytest.raises(SizeGuardExceeded, match="^131072 vertices exceed guard 20000"):
            example1_graph(9, 1)

    @pytest.mark.parametrize("d, s, digest", [
        (4, 1, "16485ebe0c9aa3a82440c1dcaef3f4676d5f5636ece69cdcbdd32f62d72c159c"),
        (6, 2, "fa077f304a8dcba3c14ebd107c2a91cd18272f10d8073ec5d94471789f7af235"),
    ], ids=["d4s1", "d6s2"])
    def test_graphs_are_pinned(self, d, s, digest):
        # taken before examples 1, 2 and 4 became keyword builders
        assert graph_digest(example1_graph(d, s)) == digest

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="need 0 < s < d, got s=3, d=3"):
            example1_graph(3, 3, tau_grid=(1.0,))
        with pytest.raises(ValueError, match=r"must lie in \[0.5, 1\]: \(0.3,\)"):
            example1_graph(3, 1, tau_grid=(0.3,))
        with pytest.raises(ValueError, match="strictly increasing"):
            example1_graph(3, 1, tau_grid=(1.0, 0.5))


class TestExample2Labels:
    def test_sign_map_recovers_example1(self):
        base = example1_graph(3, 1, tau_grid=(0.5, 1.0))
        relabeled = example2_labels(3, 1, {(-1.0,): 0, (1.0,): 1}, tau_grid=(0.5, 1.0))
        np.testing.assert_array_equal(base.labels, relabeled.labels)

    def test_xor_labels_not_linear(self):
        lab = example2_labels(4, 2, xor_label_map(2), tau_grid=(0.5, 1.0))
        # no linear head on the raw coordinates fits the parity labels
        err = probe_error(lab.graph, lab.graph.vertices, lab.labels)
        assert err > 0.1

    def test_xor_needs_two_sign_bits(self):
        assert xor_label_map(2) == {(-1.0, -1.0): 1, (-1.0, 1.0): 0,
                                    (1.0, -1.0): 0, (1.0, 1.0): 1}
        with pytest.raises(ValueError, match="XOR labels need s >= 2"):
            xor_label_map(1)

    def test_enumeration_masses_uniform(self):
        s = 2
        lab = example2_labels(4, s, enumeration_label_map(s), tau_grid=(0.5, 1.0))
        assert lab.n_classes == 2 ** s
        w = lab.graph.marginal
        for c in range(2 ** s):
            assert np.sum(w[lab.labels == c]) == pytest.approx(0.25, abs=1e-12)

    def test_incomplete_map_rejected(self):
        with pytest.raises(IncompleteLabelMap, match=r"misses pattern \(-1.0, 1.0\)"):
            example2_labels(3, 2, {(-1.0, -1.0): 0, (1.0, 1.0): 1}, tau_grid=(1.0,))

    def test_map_function_called_after_the_checks(self):
        # a refused s or grid names its own fault, not the map's, and a
        # map function gives the labels of the map it returns
        with pytest.raises(ValueError, match="need 0 < s < d, got s=0, d=4"):
            example2_labels(4, 0, xor_label_map)
        with pytest.raises(ValueError, match="tau_grid must be nonempty"):
            example2_labels(4, 1, xor_label_map, tau_grid=())
        with pytest.raises(ValueError, match="XOR labels need s >= 2"):
            example2_labels(4, 1, xor_label_map)
        assert graph_digest(example2_labels(5, 2, xor_label_map)) == \
            graph_digest(example2_labels(5, 2, xor_label_map(2)))

    def test_takes_no_label_dim(self):
        # the labels come from the map alone
        with pytest.raises(TypeError, match="label_dim"):
            example2_labels(4, 2, xor_label_map(2), label_dim=1)

    @pytest.mark.parametrize("d, s, label_map, digest", [
        (5, 2, xor_label_map,
         "f67e2dbbda893fa78ea018a0c6b78bf5e07fa5c7feac126412b07bf2478acb98"),
        (4, 2, enumeration_label_map,
         "6f2e4bd2bfdf0492d7bced7a2399939be639b2c8db89b1532ca8b8f24e6ce472"),
    ], ids=["d5s2-xor", "d4s2-enumeration"])
    def test_graphs_are_pinned(self, d, s, label_map, digest):
        # taken before examples 1, 2 and 4 became keyword builders
        lab = example2_labels(d, s, label_map(s))
        assert graph_digest(lab) == digest

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_labels_match_vertex_loop(self, d):
        # reference: look every vertex's first-block signs up in the map,
        # numbering classes densely in order of first appearance
        rng = np.random.default_rng(d)
        for s in range(1, d):
            maps = [enumeration_label_map(s), xor_label_map(s) if s >= 2 else {},
                    {tuple(p): int(rng.integers(0, 4)) for p in sign_patterns(s).tolist()}]
            for label_map in filter(None, maps):
                got = example2_labels(d, s, label_map)
                classes, want = {}, []
                for row in got.graph.vertices[:, :s]:
                    raw = label_map[tuple(np.sign(row))]
                    want.append(classes.setdefault(raw, len(classes)))
                assert got.labels.dtype == np.int64
                np.testing.assert_array_equal(got.labels, want)
                assert got.n_classes == len(classes)


class TestExample3:
    def test_singletons_at_distance_gamma(self):
        lab = example3_graph(2, 1.0, 0.1, [0, 1], 2, points_per_set=1)
        assert connected_components(lab.graph).n_sets == 2
        np.testing.assert_array_equal(lab.labels, [0, 1])

    def test_subclusters_split_components_not_labels(self):
        lab = example3_graph(2, 1.0, 0.1, [0, 1], 2, sub_clusters_per_set=2)
        assert connected_components(lab.graph).n_sets == 4
        assert lab.n_classes == 2
        part = connected_components(lab.graph)
        for cell in part.sets():
            assert len(set(lab.labels[cell])) == 1

    def test_marginal_uniform_per_set(self):
        lab = example3_graph(3, 2.0, 0.1, [0, 1, 0], 2)
        np.testing.assert_allclose(lab.graph.marginal, 1.0 / 12.0, atol=1e-12)

    def test_lattice_honors_declared_geometry(self):
        # every set has diameter <= rho and sets lie >= gamma apart, read
        # from the built graph's coordinates
        for r, points_per_set, gamma, rho in itertools.product(
                [1, 2, 3, 7], [1, 2, 4, 6], [0.0, 0.5, 2.0, 3.7], [0.05, 0.5, 1.3]):
            lab = example3_graph(r, gamma, rho, [0] * r, 1, points_per_set=points_per_set)
            sets = lab.graph.vertices.reshape(r, points_per_set, 2)
            for i, j in itertools.product(range(r), repeat=2):
                dist = np.linalg.norm(sets[i][:, None] - sets[j][None, :], axis=-1)
                if i == j:
                    assert dist.max() <= rho
                else:
                    assert dist.min() >= gamma

    @pytest.mark.parametrize("args, digest", [
        ((3, 2.0, 0.1, [0, 1, 0], 2, 4, 1),
         "d23248b82b0982acbe031a886b2e57faeb601b44241c851ac6989ec2f26d2c66"),
        ((2, 1.5, 0.2, [1, 0], 2, 6, 3),
         "5081ec5df9b771119a72c09b4ad8fb4b112bd249f04ee1e30e32214c898e9f84"),
        ((7, 3.7, 1.3, [0, 1, 2, 0, 1, 2, 0], 3, 12, 2),
         "8fd92c1b5a55c2bee3c567d56719506d382a07d4fcc5f677a03c1d9da5ea6f27"),
        ((1, 0.0, 0.0, [0], 1, 1, 1),
         "c362e02c0f88945467ae6ade54b774fc924b90c62fad1630e73c2136873dcc56"),
    ], ids=["thm56", "sub-clusters", "wide", "one-point"])
    def test_graphs_are_pinned(self, args, digest):
        # digests of graphs built by the earlier spec-and-validate builder
        *head, points_per_set, sub_clusters_per_set = args
        lab = example3_graph(*head, points_per_set=points_per_set,
                             sub_clusters_per_set=sub_clusters_per_set)
        assert graph_digest(lab) == digest

    @pytest.mark.parametrize("keys, message", [
        ({"rho": -0.1}, "need rho >= 0, got -0.1"),
        ({"points_per_set": 0}, "need points_per_set >= 1, got 0"),
        ({"sub_clusters_per_set": 0}, "need sub_clusters_per_set >= 1, got 0"),
        ({"sub_clusters_per_set": 3}, "sub_clusters_per_set must divide points_per_set"),
        ({"r": 0, "labels": []}, "need at least one point set"),
        ({"labels": [0]}, "labels must assign a class to every set"),
        ({"labels": [0, 5]}, r"labels must lie in \[0, m=2\), got 5 for set 1"),
        ({"labels": [-1, 0]}, r"labels must lie in \[0, m=2\), got -1 for set 0"),
        ({"labels": [0.5, 1]}, r"labels must be integers, got 0.5 for set 0"),
        ({"labels": [0, 1.0]}, r"labels must be integers, got 1.0 for set 1"),
        ({"labels": [0, True]}, r"labels must be integers, got True for set 1"),
    ])
    def test_bad_input_refused(self, keys, message):
        args = {"r": 2, "gamma": 1.0, "rho": 0.1, "labels": [0, 1], "m": 2, **keys}
        with pytest.raises(ValueError, match=message):
            example3_graph(**args)

    def test_size_guard(self):
        with pytest.raises(SizeGuardExceeded, match="20004 vertices exceed guard"):
            example3_graph(5001, 1.0, 0.1, [0] * 5001, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("keys, message", [
        ({"gamma": float("inf")}, "gamma must be finite, got inf"),
        ({"gamma": float("nan")}, "gamma must be finite, got nan"),
        ({"rho": float("nan")}, "rho must be finite, got nan"),
        ({"rho": float("inf")}, "rho must be finite, got inf"),
    ])
    def test_non_finite_parameter_named(self, keys, message):
        # refused before any array is built: no numpy warning, and the
        # error names the parameter, not a vertex made from it
        args = {"r": 2, "gamma": 1.0, "rho": 0.1, "labels": [0, 1], "m": 2, **keys}
        with pytest.raises(ValueError, match=f"^{message}$"):
            example3_graph(**args)


class TestExample4:
    def test_identity_tau_grid_naturals_only(self):
        lab = example4_graph(3, 1, 2.0, tau_grid=(1.0,))
        # naturals: 3 locations * 2 patch signs * 2^2 spurious sign patterns
        assert lab.graph.n == 3 * 2 * 4

    def test_same_patch_different_location_share_label(self):
        lab = example4_graph(3, 1, 2.0, tau_grid=(1.0,))
        verts = lab.graph.vertices
        plus_patch = np.abs(verts - 2.0).min(axis=1) < 1e-12
        assert len(set(lab.labels[plus_patch])) == 1

    def test_zeroed_spurious_vertex_present(self):
        lab = example4_graph(3, 1, 2.0, tau_grid=(0.0, 1.0))
        verts = lab.graph.vertices
        # a vertex with the patch at +gamma and all spurious dims zeroed
        target = np.array([2.0, 0.0, 0.0])
        hit = np.any(np.all(verts == target, axis=1))
        assert hit

    def test_component_count_equals_naturals_without_zero_tau(self):
        # every tau > 0 preserves spurious signs, so augmentation sets of
        # distinct naturals never intersect
        lab = example4_graph(3, 1, 2.0, tau_grid=(0.5, 1.0))
        assert connected_components(lab.graph).n_sets == 3 * 2 * 4

    def test_zero_tau_merges_spurious_patterns(self):
        # tau = 0 collapses all spurious sign patterns of a (location, patch)
        # pair onto one shared zeroed vertex: components = d * 2^s
        lab = example4_graph(3, 1, 2.0, tau_grid=(0.0, 1.0))
        assert connected_components(lab.graph).n_sets == 3 * 2

    def test_labels_constant_on_components(self):
        lab = example4_graph(4, 2, 2.0, tau_grid=(0.0, 1.0))
        part = connected_components(lab.graph)
        assert cross_cluster_mass(lab.graph, part) == 0.0
        for cell in part.sets():
            assert len(set(lab.labels[cell])) == 1

    @pytest.mark.parametrize("d, s, gamma, tau_grid, digest", [
        (4, 1, 2.0, (0.0, 0.5, 1.0),
         "327fd961be763de4dcd21b7a9c7686e07970fbae84f65a7163c8562d56bf585b"),
        (3, 1, 2.0, (0.0, 1.0),
         "45b68db2fdb86341ad967982905b8f802553af642012be297d5f7ebaf8f24743"),
    ], ids=["d4s1", "d3s1-tau01"])
    def test_graphs_are_pinned(self, d, s, gamma, tau_grid, digest):
        # taken before examples 1, 2 and 4 became keyword builders
        lab = example4_graph(d, s, gamma, tau_grid=tau_grid)
        assert graph_digest(lab) == digest

    def test_size_guard(self):
        # 6 * 2 * 5^5 vertices, counted before anything is built
        with pytest.raises(SizeGuardExceeded, match="^37500 vertices exceed guard 20000"):
            example4_graph(6, 1, 2.0)


class TestRandomAndStructuredGraphs:
    def test_random_graph_component_count(self):
        for m in (1, 2, 3, 5):
            g = random_graph(24, n_components=m, seed=m)
            assert connected_components(g).n_sets == m

    def test_component_constant_function_exact_zero(self):
        g = random_graph(17, n_components=3, seed=2)
        fn = component_constant_function(g, seed=5)
        assert pair_discrepancy(g, fn) == 0.0

    def test_random_graph_deterministic(self):
        a = random_graph(12, n_components=2, seed=42)
        b = random_graph(12, n_components=2, seed=42)
        np.testing.assert_array_equal(a.joint.toarray(), b.joint.toarray())

    @pytest.mark.parametrize("triples", [
        *(pytest.param(list(_prop4_triples(seed)), id=f"prop4-seed{seed}")
          for seed in (0, 1, 2)),
        pytest.param([(n, 1 + i % 4, i) for i, n in enumerate(range(40, 201, 10))],
                     id="br-sweep-sizes"),
        pytest.param([(4000, 10, 0), (6000, 20, 1)], id="large"),
    ])
    def test_random_graph_matches_reference_loop(self, triples):
        for n, m, seed in triples:
            got, want = random_graph(n, m, seed), reference_random_graph(n, m, seed)
            joint, ref = got.joint, want.joint
            for a, b in ((got.vertices, want.vertices), (joint.indptr, ref.indptr),
                         (joint.indices, ref.indices), (joint.data, ref.data),
                         (got.marginal, want.marginal)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (n, m, seed)

    @pytest.mark.parametrize("args, digest", [
        ((15, 3, 4), "71986e25235acfd1e86d8140c117f3e19ab43f20df3988e94372e8deed4092c8"),
        ((200, 4, 1), "73a0f5ee0386d436ad622ebc0628860ac57de040e1dbccd5e8059dff121c2271"),
        ((6000, 20, 1), "c1273ff9f8d19ff2cec8b19edd09b0342a5ceb6640ec4b7cb20d8a6c0ea94a78"),
    ], ids=["n15", "n200", "n6000"])
    def test_random_graphs_are_pinned(self, args, digest):
        # the reference loop above builds through today's build_graph; these
        # pins, taken before the loop changed, hold build_graph's output too
        g = random_graph(*args)
        h = hashlib.sha256()
        for arr in (g.vertices, g.joint.indptr.astype(np.int64),
                    g.joint.indices.astype(np.int64), g.joint.data, g.marginal):
            h.update(np.ascontiguousarray(arr).tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("m, seed, cross_scale, digest", [
        (2, 0, 1e-3, "14046026e07517adcaa9771b32936ed20940e8731b81f6638e7e46ed5694dad6"),
        (4, 7, 1e-2, "7c67fa9f48254b6b92b8680bbb380b97bccdac74ca869235b3e05e3864604666"),
        (9, 3, 1e-3, "0d2dca9599df740c21820e95709437a3d7368bebffe5348adf2ca9f98e74147d"),
    ], ids=["m2", "m4", "m9"])
    def test_two_level_graphs_are_pinned(self, m, seed, cross_scale, digest):
        assert graph_digest(two_level_graph(m, seed, cross_scale)) == digest

    @pytest.mark.parametrize("build, message", [
        (lambda: random_graph(20001), "^20001 vertices exceed guard 20000"),
        (lambda: two_level_graph(5001), "^20004 vertices exceed guard 20000"),
        (lambda: component_cluster_graph(5001), "^20004 vertices exceed guard 20000"),
        (lambda: two_level_graph(282), r"^1128 x 284 = 320352 coordinates exceed guard 320000"),
        (lambda: component_cluster_graph(164),
         r"^656 x 492 = 322752 coordinates exceed guard 320000"),
    ], ids=["random", "two-level", "component-cluster", "two-level-coordinates",
            "component-cluster-coordinates"])
    def test_size_guard(self, build, message):
        # refused before the first draw or allocation
        with pytest.raises(SizeGuardExceeded, match=message):
            build()

    @pytest.mark.parametrize("build, n, d", [
        (lambda: two_level_graph(281).graph, 1124, 283),
        (lambda: component_cluster_graph(163), 652, 489),
        (lambda: example1_graph(14, 13, tau_grid=[1.0]).graph, 16384, 14),
        (lambda: example4_graph(11, 10, 2.0, tau_grid=[0.0]).graph, 11264, 11),
    ], ids=["two-level-281", "component-cluster-163", "example-1", "example-4"])
    def test_largest_coordinate_counts_still_build(self, build, n, d):
        g = build()
        assert (g.n, g.d) == (n, d)

    def test_two_level_graph_structure(self):
        for m in (2, 3, 4):
            lab = two_level_graph(m, seed=m)
            g = lab.graph
            assert g.n == 4 * m
            # outer clusters are one-hot in the first m coordinate dims
            onehot = g.vertices[:, :m]
            expected = np.repeat(np.eye(m), 4, axis=0)
            np.testing.assert_array_equal(onehot, expected)
            np.testing.assert_array_equal(lab.labels,
                                          np.repeat(np.arange(m), 4))

    def test_two_level_cross_mass_is_sparse(self):
        from pairlab.posgraph import partition_from_labels
        lab = two_level_graph(3, seed=1)
        alpha = cross_cluster_mass(lab.graph,
                                   partition_from_labels(lab.labels))
        assert 0.0 < alpha < 0.02

    def test_component_cluster_graph_spectrum(self):
        g = component_cluster_graph(4)
        assert g.n == 16
        assert connected_components(g).n_sets == 4
        vals = eigendecompose(g, g.n).eigenvalues
        np.testing.assert_allclose(vals[:4], 0.0, atol=1e-12)
        np.testing.assert_allclose(vals[4:], 1.0, atol=1e-12)

    def test_component_cluster_graph_full_coordinate_rank(self):
        g = component_cluster_graph(4)
        assert np.linalg.matrix_rank(g.vertices) == g.vertices.shape[1]


@pytest.mark.parametrize("build, message", [
    (lambda: example1_graph(3, 1, label_dim=1), "label_dim must index an invariant"),
    (lambda: example1_graph(3, 1, tau_grid=()), "tau_grid must be nonempty"),
    (lambda: example4_graph(3, 3, 2.0), "need 1 <= s < d, got s=3, d=3"),
    (lambda: example4_graph(3, 1, 1.0), "gamma must exceed 1"),
    (lambda: example4_graph(3, 1, float("inf")), "gamma must be finite, got inf"),
    (lambda: example4_graph(3, 1, float("nan")), "gamma must be finite, got nan"),
    (lambda: example4_graph(3, 1, 2.0, tau_grid=()), "tau_grid must be nonempty"),
    (lambda: example4_graph(3, 1, 2.0, tau_grid=(1.5,)), r"must lie in \[0, 1\]"),
    (lambda: example4_graph(3, 1, 2.0, tau_grid=(1.0, 0.0)), "strictly increasing"),
    (lambda: random_graph(4, n_components=5), "need 1 <= n_components <= n, got 5, 4"),
    (lambda: random_graph(4, n_components=0), "need 1 <= n_components <= n, got 0, 4"),
    (lambda: two_level_graph(1), "need at least 2 outer clusters"),
    (lambda: component_cluster_graph(0), "need at least one cluster"),
], ids=["example1-label-dim", "example1-empty-grid", "example4-s", "example4-gamma",
        "example4-infinite-gamma", "example4-nan-gamma",
        "example4-empty-grid", "example4-grid-range", "example4-grid-order",
        "random-too-many-components", "random-no-component", "two-level-one-cluster",
        "no-cluster"])
def test_generator_input_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _dense_random_joint(n, n_components, seed):
    """random_graph's joint built densely, drawing in the generator's order."""
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.choice(np.arange(1, n), size=n_components - 1, replace=False))
    bounds = [0] + [int(c) for c in cuts] + [n]
    W = np.zeros((n, n))
    for lo, hi in zip(bounds, bounds[1:]):
        for i in range(lo + 1, hi):
            j = int(rng.integers(lo, i))
            w = float(rng.uniform(0.2, 1.0))
            W[i, j] += w
            W[j, i] += w
        for _ in range(hi - lo):
            u, v = rng.integers(lo, hi, size=2)
            if u != v:
                w = float(rng.uniform(0.05, 0.5))
                W[u, v] += w
                W[v, u] += w
    W[np.diag_indices(n)] += rng.uniform(0.05, 0.3, size=n)
    return W / W.sum()


def _example4_by_natural(d, s, gamma, tau_grid):
    """example4_graph built one natural and one augmentation at a time:
    vertices numbered by first appearance, labeled by patch index."""
    n_free = d - s
    n_naturals = d * (2 ** s) * (2 ** n_free)
    combos = list(itertools.product(tau_grid, repeat=n_free))
    w = (1.0 / n_naturals) * (1.0 / len(combos)) * (1.0 / len(combos))
    index, verts, labels, rows, cols = {}, [], [], [], []
    for t in range(d):
        for label, patch in enumerate(itertools.product((-1, 1), repeat=s)):
            for spurious in itertools.product((-1.0, 1.0), repeat=n_free):
                ids = []
                for combo in combos:
                    x = np.zeros(d)
                    for j in range(s):
                        x[(t + j) % d] = gamma * patch[j]
                    for j in range(n_free):
                        x[(t + s + j) % d] = spurious[j] * combo[j]
                    x = x + 0.0
                    vid = index.setdefault(x.tobytes(), len(verts))
                    if vid == len(verts):
                        verts.append(x)
                        labels.append(label)
                    ids.append(vid)
                rows += [a for a in ids for _ in ids]
                cols += [b for _ in ids for b in ids]
    n = len(verts)
    joint = sparse.coo_array((np.full(len(rows), w), (np.array(rows), np.array(cols))),
                             shape=(n, n))
    return build_graph(np.vstack(verts), joint), np.array(labels)


class TestTripletGenerators:
    @pytest.mark.parametrize("args", [
        (3, 1, 2.0, (0.0, 0.5, 1.0)),
        (3, 2, 2.0, (1.0,)),
        (4, 2, 2.0, (0.0, 1.0)),
        (4, 1, 1.5, (0.5, 1.0)),
        (4, 3, 3.0, (0.0, 0.5, 1.0)),
        (5, 1, 2.0, (0.0, 0.5, 1.0)),
    ], ids=["d3s1-tau0", "d3s2-naturals", "d4s2-tau0", "d4s1-no-collision",
            "d4s3-tau0", "d5s1-tau0"])
    def test_example4_graph_matches_per_natural_construction(self, args):
        lab = example4_graph(*args)
        ref, ref_labels = _example4_by_natural(*args)
        g = lab.graph
        for got, want in [(g.vertices, ref.vertices), (lab.labels, ref_labels),
                          (g.joint.data, ref.joint.data),
                          (g.joint.indices, ref.joint.indices),
                          (g.joint.indptr, ref.joint.indptr),
                          (g.marginal, ref.marginal)]:
            np.testing.assert_array_equal(got, want, strict=True)
        assert lab.n_classes == 2 ** args[1]

    @pytest.mark.parametrize("n,m,seed", [(30, 3, 1), (80, 7, 2), (200, 1, 3)])
    def test_random_graph_matches_dense_construction(self, n, m, seed):
        g = random_graph(n, n_components=m, seed=seed)
        np.testing.assert_allclose(g.joint.toarray(), _dense_random_joint(n, m, seed),
                                   rtol=1e-14, atol=0)

    def test_size_guard_example_builds_in_bounded_memory(self):
        # n = 16384 under the 20000 guard; an n x n float64 array is 2 GiB
        tracemalloc.start()
        try:
            lab = example1_graph(8, 2)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        g = lab.graph
        assert g.n == 16384 and g.joint.nnz == 256 * 64 * 64
        assert connected_components(g).n_sets == 256
        assert peak < 1 << 30


# The example-3 configurations whose joint moved when the examples began to
# build through `from_augmentation_process`, keyed (r, points_per_set,
# sub_clusters_per_set), with the largest move of a joint or marginal entry
# in units in the last place.  Each pair weight is now (p·a)·a' with
# p = 1/(r·sub-clusters) and a = 1/q_c, where it was (1/r)(q_c/q)/q_c²;
# CHANGES.md lists the same table.
_EXAMPLE3_ULPS = {
    (5, 6, 1): 1, (5, 6, 2): 1, (5, 9, 3): 2, (5, 12, 1): 1, (5, 12, 2): 1,
    (5, 12, 4): 1, (11, 3, 1): 2, (11, 9, 3): 2, (11, 12, 1): 1, (11, 12, 2): 1,
}


class TestAugmentationProcessReferences:
    """Every generator that builds through `from_augmentation_process` keeps
    the graph its hand-written triplets built: the same vertices and CSR
    pattern, and the same values bit for bit, except for the example-3
    configurations in `_EXAMPLE3_ULPS`, which may move by as many ulps as
    listed there."""

    @staticmethod
    def _ulps(got, want, key=None):
        for a, b in ((got.vertices, want.vertices), (got.joint.indptr, want.joint.indptr),
                     (got.joint.indices, want.joint.indices)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key
        return max(int(np.abs(a.view(np.int64) - b.view(np.int64)).max())
                   for a, b in ((got.joint.data, want.joint.data),
                                (got.marginal, want.marginal)))

    def test_example1(self):
        grids = [(1.0,), (0.5, 1.0), (0.5, 0.75, 1.0), (0.6, 0.7, 0.8, 1.0)]
        configs = [(d, s, grid)
                   for d, s, grid in itertools.product(range(2, 8), range(1, 7), grids)
                   if s < d and 2 ** d * len(grid) ** (d - s) <= 4096]
        assert len(configs) == 71
        for d, s, grid in configs:
            got = example1_graph(d, s, grid).graph
            assert self._ulps(got, reference_example1_graph(d, s, grid)) == 0, (d, s, grid)

    def test_example3(self):
        configs = [(r, q, sub) for r, q, sub in itertools.product(
            [1, 2, 3, 5, 7, 11, 16], [1, 2, 3, 4, 6, 8, 9, 12], [1, 2, 3, 4, 6]) if q % sub == 0]
        assert len(configs) == 154
        for r, q, sub in configs:
            got = example3_graph(r, 2.0, 0.1, [i % 2 for i in range(r)], 2, q, sub).graph
            ulps = self._ulps(got, reference_example3_graph(r, 2.0, 0.1, q, sub), (r, q, sub))
            assert ulps <= _EXAMPLE3_ULPS.get((r, q, sub), 0), (r, q, sub, ulps)

    def test_example4(self):
        grids = [(0.0,), (1.0,), (0.0, 1.0), (0.0, 0.5, 1.0), (0.25, 1.0)]
        configs = [(d, s, grid)
                   for d, s, grid in itertools.product(range(2, 7), range(1, 6), grids)
                   if s < d and d * 2 ** s * (2 * len(grid)) ** (d - s) <= 20000]
        assert len(configs) == 73
        for d, s, grid in configs:
            got = example4_graph(d, s, 2.0, grid).graph
            assert self._ulps(got, reference_example4_graph(d, s, 2.0, grid)) == 0, (d, s, grid)

    @pytest.mark.parametrize("n_components", [1, 2, 3, 5, 10, 30, 100])
    def test_component_cluster_graph(self, n_components):
        got = component_cluster_graph(n_components)
        assert self._ulps(got, reference_component_cluster_graph(n_components)) == 0

    def test_two_level_graph(self):
        for m, seed, cross_scale in itertools.product([2, 3, 4, 9, 20], [0, 3, 7],
                                                      [1e-3, 1e-2]):
            got = two_level_graph(m, seed, cross_scale).graph
            want = reference_two_level_graph(m, seed, cross_scale)
            assert self._ulps(got, want) == 0, (m, seed, cross_scale)

    @pytest.mark.parametrize("n_components, digest", [
        (3, "c524b45c60f6359cdf6eebdf63fdc32855ed20a969d2188033a0269c2df98f53"),
        (10, "d021cd3555e74eb56cc1840302e23e0917f58a2990cb06191c28ca3064a9375b"),
    ], ids=["c3", "c10"])
    def test_component_cluster_graphs_are_pinned(self, n_components, digest):
        # taken before the cluster graph built through from_augmentation_process
        assert plain_graph_digest(component_cluster_graph(n_components)) == digest
