"""Generators: hypercube examples, point-set clusters, patch example,
random disconnected graphs, and the two-level / component-cluster graphs."""

import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from pairlab.errors import (
    GeometryViolation,
    IncompleteLabelMap,
    SizeGuardExceeded,
)
from pairlab.posgraph import build_graph, connected_components, cross_cluster_mass
from pairlab.probe import probe_error
from pairlab.spectral import eigendecompose, pair_discrepancy
from pairlab.synthdata import (
    Example1Spec,
    Example3Spec,
    Example4Spec,
    component_cluster_graph,
    component_constant_function,
    enumeration_label_map,
    example1_graph,
    example2_labels,
    example3_graph,
    example3_lattice,
    example4_graph,
    random_graph,
    two_level_graph,
    xor_label_map,
)


class TestExample1:
    def test_identity_augmentation_minimal(self):
        lab = example1_graph(Example1Spec(d=2, s=1, tau_grid=(1.0,)))
        assert lab.graph.n == 4
        assert connected_components(lab.graph).n_sets == 4
        # labels follow the sign of the first coordinate
        signs = lab.graph.vertices[:, 0] > 0
        np.testing.assert_array_equal(lab.labels, signs.astype(int))

    def test_d4_s1_two_grid_sizes(self):
        lab = example1_graph(Example1Spec(d=4, s=1, tau_grid=(0.5, 1.0)))
        assert lab.graph.n == 128       # 2^4 sign patterns * 2^3 tau combos
        assert connected_components(lab.graph).n_sets == 16

    def test_components_track_sign_patterns(self):
        # one component per sign pattern, for several (d, s) pairs
        for d, s in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 1), (6, 1)]:
            lab = example1_graph(Example1Spec(d=d, s=s, tau_grid=(0.5, 1.0)))
            assert connected_components(lab.graph).n_sets == 2 ** d, (d, s)

    def test_labels_constant_on_components_and_alpha_zero(self):
        lab = example1_graph(Example1Spec(d=4, s=2, tau_grid=(0.5, 1.0)))
        part = connected_components(lab.graph)
        assert cross_cluster_mass(lab.graph, part) == 0.0
        for cell in part.sets():
            assert len(set(lab.labels[cell])) == 1

    def test_deterministic(self):
        a = example1_graph(Example1Spec(d=3, s=1, tau_grid=(0.5, 1.0)))
        b = example1_graph(Example1Spec(d=3, s=1, tau_grid=(0.5, 1.0)))
        np.testing.assert_array_equal(a.graph.vertices, b.graph.vertices)
        np.testing.assert_array_equal(a.graph.joint_dense(),
                                      b.graph.joint_dense())
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_size_guard(self):
        with pytest.raises(SizeGuardExceeded):
            example1_graph(Example1Spec(d=10, s=1, tau_grid=(0.5, 0.75, 1.0),
                                        size_guard=1000))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            Example1Spec(d=3, s=3, tau_grid=(1.0,))
        with pytest.raises(ValueError):
            Example1Spec(d=3, s=1, tau_grid=(0.3,))
        with pytest.raises(ValueError):
            Example1Spec(d=3, s=1, tau_grid=(1.0, 0.5))


class TestExample2Labels:
    def test_sign_map_recovers_example1(self):
        spec = Example1Spec(d=3, s=1, tau_grid=(0.5, 1.0))
        base = example1_graph(spec)
        relabeled = example2_labels(
            spec, {(-1.0,): 0, (1.0,): 1})
        np.testing.assert_array_equal(base.labels, relabeled.labels)

    def test_xor_labels_not_linear(self):
        spec = Example1Spec(d=4, s=2, tau_grid=(0.5, 1.0))
        lab = example2_labels(spec, xor_label_map(2))
        # no linear head on the raw coordinates fits the parity labels
        err = probe_error(lab.graph, lab.graph.vertices, lab.labels)
        assert err > 0.1

    def test_enumeration_masses_uniform(self):
        s = 2
        spec = Example1Spec(d=4, s=s, tau_grid=(0.5, 1.0))
        lab = example2_labels(spec, enumeration_label_map(s))
        assert lab.n_classes == 2 ** s
        w = lab.graph.marginal
        for c in range(2 ** s):
            assert np.sum(w[lab.labels == c]) == pytest.approx(0.25, abs=1e-12)

    def test_incomplete_map_rejected(self):
        spec = Example1Spec(d=3, s=2, tau_grid=(1.0,))
        with pytest.raises(IncompleteLabelMap):
            example2_labels(spec, {(-1.0, -1.0): 0})


class TestExample3:
    def test_singletons_at_distance_gamma(self):
        spec = example3_lattice(r=2, points_per_set=1, gamma=1.0, rho=0.1,
                                labels=[0, 1], m=2)
        lab = example3_graph(spec)
        assert connected_components(lab.graph).n_sets == 2
        np.testing.assert_array_equal(lab.labels, [0, 1])

    def test_subclusters_split_components_not_labels(self):
        spec = example3_lattice(r=2, points_per_set=4, gamma=1.0, rho=0.1,
                                labels=[0, 1], m=2, sub_clusters_per_set=2)
        lab = example3_graph(spec)
        assert connected_components(lab.graph).n_sets == 4
        assert lab.n_classes == 2
        part = connected_components(lab.graph)
        for cell in part.sets():
            assert len(set(lab.labels[cell])) == 1

    def test_marginal_uniform_per_set(self):
        spec = example3_lattice(r=3, points_per_set=4, gamma=2.0, rho=0.1,
                                labels=[0, 1, 0], m=2)
        lab = example3_graph(spec)
        np.testing.assert_allclose(lab.graph.marginal, 1.0 / 12.0, atol=1e-12)

    def test_geometry_violation_diameter(self):
        # second point of set 0 sits rho * 3 away from the first
        spec = Example3Spec(
            point_sets=(((0.0, 0.0), (0.0, 0.3)), ((5.0, 0.0),)),
            rho=0.1, gamma=1.0, labels=(0, 1), m=2,
            intra_pair_rule=((tuple([0, 1]),), (tuple([0]),)),
        )
        with pytest.raises(GeometryViolation) as exc_info:
            example3_graph(spec)
        assert exc_info.value.offending_pair is not None

    def test_geometry_violation_separation(self):
        spec = Example3Spec(
            point_sets=(((0.0, 0.0),), ((0.5, 0.0),)),
            rho=0.1, gamma=1.0, labels=(0, 1), m=2,
            intra_pair_rule=((tuple([0]),), (tuple([0]),)),
        )
        with pytest.raises(GeometryViolation):
            example3_graph(spec)

    def test_lattice_honors_declared_geometry(self):
        spec = example3_lattice(r=3, points_per_set=4, gamma=2.0, rho=0.5,
                                labels=[0, 1, 1], m=2)
        pts = [np.array(s) for s in spec.point_sets]
        for s in pts:
            d = np.linalg.norm(s[:, None, :] - s[None, :, :], axis=-1)
            assert d.max() <= spec.rho + 1e-12
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d = np.linalg.norm(pts[i][:, None, :] - pts[j][None, :, :],
                                   axis=-1)
                assert d.min() >= spec.gamma - 1e-12


class TestExample4:
    def test_identity_tau_grid_naturals_only(self):
        lab = example4_graph(Example4Spec(d=3, s=1, gamma=2.0,
                                          tau_grid=(1.0,)))
        # naturals: 3 locations * 2 patch signs * 2^2 spurious sign patterns
        assert lab.graph.n == 3 * 2 * 4

    def test_same_patch_different_location_share_label(self):
        lab = example4_graph(Example4Spec(d=3, s=1, gamma=2.0,
                                          tau_grid=(1.0,)))
        verts = lab.graph.vertices
        plus_patch = np.abs(verts - 2.0).min(axis=1) < 1e-12
        assert len(set(lab.labels[plus_patch])) == 1

    def test_zeroed_spurious_vertex_present(self):
        lab = example4_graph(Example4Spec(d=3, s=1, gamma=2.0,
                                          tau_grid=(0.0, 1.0)))
        verts = lab.graph.vertices
        # a vertex with the patch at +gamma and all spurious dims zeroed
        target = np.array([2.0, 0.0, 0.0])
        hit = np.any(np.all(verts == target, axis=1))
        assert hit

    def test_component_count_equals_naturals_without_zero_tau(self):
        # every tau > 0 preserves spurious signs, so augmentation sets of
        # distinct naturals never intersect
        lab = example4_graph(Example4Spec(d=3, s=1, gamma=2.0,
                                          tau_grid=(0.5, 1.0)))
        assert connected_components(lab.graph).n_sets == 3 * 2 * 4

    def test_zero_tau_merges_spurious_patterns(self):
        # tau = 0 collapses all spurious sign patterns of a (location, patch)
        # pair onto one shared zeroed vertex: components = d * 2^s
        lab = example4_graph(Example4Spec(d=3, s=1, gamma=2.0,
                                          tau_grid=(0.0, 1.0)))
        assert connected_components(lab.graph).n_sets == 3 * 2

    def test_labels_constant_on_components(self):
        lab = example4_graph(Example4Spec(d=4, s=2, gamma=2.0,
                                          tau_grid=(0.0, 1.0)))
        part = connected_components(lab.graph)
        assert cross_cluster_mass(lab.graph, part) == 0.0
        for cell in part.sets():
            assert len(set(lab.labels[cell])) == 1

    def test_size_guard(self):
        with pytest.raises(SizeGuardExceeded):
            example4_graph(Example4Spec(d=12, s=2, gamma=2.0,
                                        tau_grid=(0.0, 0.5, 1.0),
                                        size_guard=500))


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
        np.testing.assert_array_equal(a.joint_dense(), b.joint_dense())

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


def _example4_by_natural(spec):
    """example4_graph built one natural and one augmentation at a time:
    vertices numbered by first appearance, labeled by patch index."""
    d, s, gamma = spec.d, spec.s, spec.gamma
    n_free = d - s
    n_naturals = d * (2 ** s) * (2 ** n_free)
    combos = list(itertools.product(spec.tau_grid, repeat=n_free))
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
    @pytest.mark.parametrize("spec", [
        Example4Spec(d=3, s=1, gamma=2.0),
        Example4Spec(d=3, s=2, gamma=2.0, tau_grid=(1.0,)),
        Example4Spec(d=4, s=2, gamma=2.0, tau_grid=(0.0, 1.0)),
        Example4Spec(d=4, s=1, gamma=1.5, tau_grid=(0.5, 1.0)),
        Example4Spec(d=4, s=3, gamma=3.0),
        Example4Spec(d=5, s=1, gamma=2.0),
    ], ids=["d3s1-tau0", "d3s2-naturals", "d4s2-tau0", "d4s1-no-collision",
            "d4s3-tau0", "d5s1-tau0"])
    def test_example4_graph_matches_per_natural_construction(self, spec):
        lab = example4_graph(spec)
        ref, ref_labels = _example4_by_natural(spec)
        g = lab.graph
        for got, want in [(g.vertices, ref.vertices), (lab.labels, ref_labels),
                          (g.joint.data, ref.joint.data),
                          (g.joint.indices, ref.joint.indices),
                          (g.joint.indptr, ref.joint.indptr),
                          (g.marginal, ref.marginal)]:
            np.testing.assert_array_equal(got, want, strict=True)
        assert lab.n_classes == 2 ** spec.s

    @pytest.mark.parametrize("n,m,seed", [(30, 3, 1), (80, 7, 2), (200, 1, 3)])
    def test_random_graph_matches_dense_construction(self, n, m, seed):
        g = random_graph(n, n_components=m, seed=seed)
        np.testing.assert_allclose(g.joint_dense(), _dense_random_joint(n, m, seed),
                                   rtol=1e-14, atol=0)

    def test_size_guard_example_builds_in_bounded_memory(self):
        # n = 16384 under the 20000 guard; an n x n float64 array is 2 GiB
        tracemalloc.start()
        try:
            lab = example1_graph(Example1Spec(d=8, s=2))
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        g = lab.graph
        assert g.n == 16384 and g.joint.nnz == 256 * 64 * 64
        assert connected_components(g).n_sets == 256
        assert peak < 1 << 30
