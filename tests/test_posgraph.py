"""Graph construction, validation, components, restriction, serialization."""

import json

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph

from pairlab.errors import (
    AsymmetricJoint,
    DuplicateVertex,
    EmptySubset,
    EmptySupport,
    KernelNotNormalized,
    MalformedGraphFile,
    NonFiniteVertex,
    NotNormalized,
    ZeroConditionalMass,
    ZeroMassVertex,
)
from pairlab.posgraph import (
    PositivePairGraph,
    _canonical_coords,
    _check_distinct,
    build_graph,
    connected_components,
    cross_cluster_mass,
    from_augmentation_process,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    partition_from_labels,
    restrict,
    save_graph,
)
from pairlab.spectral import expansion_Q, min_expansion_over_class
from pairlab.synthdata import (
    component_cluster_graph,
    example1_graph,
    example2_labels,
    example3_graph,
    example4_graph,
    random_graph,
    two_level_graph,
    xor_label_map,
)

from conftest import small_random_graphs


class TestBuildGraph:
    def test_single_self_loop(self, single_vertex):
        np.testing.assert_array_equal(single_vertex.marginal, [1.0])
        assert single_vertex.n == 1

    def test_two_isolated_self_loops(self, two_components):
        np.testing.assert_array_equal(two_components.marginal, [0.5, 0.5])
        assert connected_components(two_components).n_sets == 2

    def test_uniform_two_vertex(self, two_vertex_uniform):
        np.testing.assert_array_equal(two_vertex_uniform.marginal, [0.5, 0.5])
        assert connected_components(two_vertex_uniform).n_sets == 1

    def test_asymmetric_rejected(self):
        with pytest.raises(AsymmetricJoint):
            build_graph([[0.0], [1.0]], [[0.3, 0.3], [0.1, 0.3]])

    def test_not_normalized_rejected(self):
        with pytest.raises(NotNormalized):
            build_graph([[0.0], [1.0]], [[0.25, 0.25], [0.25, 0.2]])

    def test_zero_mass_vertex_rejected(self):
        with pytest.raises(ZeroMassVertex, match="^vertex 1 has marginal 0.0$"):
            build_graph([[0.0], [1.0]], [[1.0, 0.0], [0.0, 0.0]])

    def test_duplicate_vertices_rejected(self):
        with pytest.raises(DuplicateVertex):
            build_graph([[1.0], [1.0]], [[0.25, 0.25], [0.25, 0.25]])

    def test_first_of_several_duplicates_is_named(self):
        # rows 1 = 4 = 6 and 3 = 5, with -0.0 read as 0.0: vertex 4 is the
        # first to repeat an earlier row, and vertex 1 the first with it
        verts = [[0.0, 1.0], [2.0, 0.0], [1.0, 1.0], [3.0, 3.0], [2.0, -0.0],
                 [3.0, 3.0], [2.0, 0.0]]
        with pytest.raises(DuplicateVertex, match=r"^vertices 1 and 4 have identical"):
            build_graph(verts, np.eye(7) / 7)

    def test_duplicate_check_matches_the_vertex_loop(self):
        # the per-vertex dict loop is the reference: same verdict and message
        # on random coordinate sets with repeats, including zero-width rows
        def loop_message(vertices):
            seen = {}
            for i, row in enumerate(vertices):
                key = row.tobytes()
                if key in seen:
                    return f"vertices {seen[key]} and {i} have identical coordinates"
                seen[key] = i
            return None

        rng = np.random.default_rng(7)
        for case in range(200):
            n, d = int(rng.integers(1, 40)), int(rng.integers(0, 4))
            pool = rng.integers(-2, 3, size=(int(rng.integers(1, 60)), d)).astype(float)
            verts = _canonical_coords(pool[rng.integers(0, pool.shape[0], size=n)])
            try:
                _check_distinct(verts)
                message = None
            except DuplicateVertex as exc:
                message = str(exc)
            assert message == loop_message(verts), case

    @pytest.mark.parametrize("verts, joint, error, message", [
        ([0.0, 1.0], np.full((2, 2), 0.25), ValueError, r"vertices must be 2-d, got shape \(2,\)"),
        (np.zeros((0, 2)), np.zeros((0, 0)), EmptySupport, "at least one vertex"),
        ([[0.0], [np.inf]], np.full((2, 2), 0.25), NonFiniteVertex,
         r"^vertex 1 has a non-finite coordinate: \[inf\]"),
        ([[0.0, np.nan], [1.0, -np.inf]], np.full((2, 2), 0.25), NonFiniteVertex,
         r"^vertex 0 has a non-finite coordinate: \[0.0, nan\]"),
    ], ids=["flat-vertices", "empty", "infinite", "nan"])
    def test_bad_vertices_rejected(self, verts, joint, error, message):
        with pytest.raises(error, match=message):
            build_graph(verts, joint)

    def test_joint_of_another_size_rejected(self):
        with pytest.raises(ValueError, match=r"joint shape \(3, 3\) does not match n=4"):
            build_graph(np.arange(4.0)[:, None], np.full((3, 3), 1.0 / 9.0))

    def test_tiny_asymmetry_within_tolerance_symmetrized(self):
        # 1e-12 skew is inside the acceptance tolerance and gets averaged out
        g = build_graph([[0.0], [1.0]],
                        [[0.25, 0.25 + 1e-12], [0.25 - 1e-12, 0.25]])
        J = g.joint.toarray()
        assert J[0, 1] == J[1, 0]

    def test_entry_without_mirror_within_tolerance_symmetrized(self):
        # building, unlike loading, accepts a lone entry inside the symmetry
        # tolerance and stores it with its mirror, half the mass each way
        J = np.kron(np.eye(2), np.full((2, 2), 0.125))
        J[1, 2] = 5e-13
        g = build_graph([[0.0], [1.0], [2.0], [3.0]], scipy.sparse.coo_array(J))
        K = g.joint.toarray()
        assert K[1, 2] == K[2, 1] == 0.5 * 5e-13 / J.sum()
        assert connected_components(g).n_sets == 1

    @pytest.mark.parametrize("form", ["dense", "coo"])
    def test_asymmetric_pattern_symmetrized_bit_for_bit(self, form):
        # lone entries of 1e-12 to 4e-10, inside the symmetry tolerance, make
        # the pattern asymmetric; the stored joint is (A + A^T) / (2 total)
        # with total the sum of A's entries in row-major order
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 12))
            S = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
            A = S + S.T + np.diag(rng.random(n) + 0.1)
            empty = np.argwhere((A == 0) & (A.T == 0))
            for i, j in empty[rng.permutation(len(empty))[:3]]:
                if A[j, i] == 0:
                    A[i, j] = rng.uniform(1e-12, 4e-10)
            A /= A.sum()
            want = (A + A.T) * (0.5 / A[A != 0].sum())
            joint = A if form == "dense" else scipy.sparse.coo_array(A)
            g = build_graph(np.arange(n, dtype=float)[:, None], joint)
            assert g.joint.toarray().tobytes() == want.tobytes(), seed


class TestFromAugmentationProcess:
    def test_identity_augmentation_single_natural(self):
        g = from_augmentation_process([1.0], [[0]], [[1.0]], [[0.0, 0.0]])
        assert g.n == 1
        np.testing.assert_array_equal(g.joint.toarray(), [[1.0]])

    def test_two_naturals_private_augmentations(self):
        # two equiprobable naturals, each with two equiprobable private views:
        # each component block is uniform 1/8 = (1/2) * (1/2) * (1/2)
        p = [0.5, 0.5]
        views = [[0, 1], [2, 3]]
        kernel = [[0.5, 0.5], [0.5, 0.5]]
        verts = [[0.0], [1.0], [10.0], [11.0]]
        g = from_augmentation_process(p, views, kernel, verts)
        assert g.n == 4
        assert connected_components(g).n_sets == 2
        J = g.joint.toarray()
        for block in (J[:2, :2], J[2:, 2:]):
            np.testing.assert_allclose(block, 0.125, atol=1e-15)

    def test_symmetry_and_normalization_exact(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(6))
        kernel = rng.dirichlet(np.ones(9), size=6)
        views = np.tile(np.arange(9), (6, 1))
        verts = rng.standard_normal((9, 2))
        g = from_augmentation_process(p, views, kernel, verts)
        J = g.joint.toarray()
        assert np.max(np.abs(J - J.T)) == 0.0
        assert abs(J.sum() - 1.0) <= 1e-12

    def test_shared_views_match_dense_product(self):
        # views repeat across naturals and within one: the joint is the
        # product A^T diag(p) A of the dense m x n kernel they stand for
        rng = np.random.default_rng(8)
        p = rng.dirichlet(np.ones(5))
        views = rng.integers(0, 7, size=(5, 4))
        views[:, 0] = np.arange(5)                  # every vertex seen
        views[0, 1:3] = 5, 6
        kernel = rng.dirichlet(np.ones(4), size=5)
        A = np.zeros((5, 7))
        np.add.at(A, (np.repeat(np.arange(5), 4), views.ravel()), kernel.ravel())
        g = from_augmentation_process(p, views, kernel, rng.standard_normal((7, 2)))
        np.testing.assert_allclose(g.joint.toarray(), A.T @ (A * p[:, None]),
                                   rtol=1e-13, atol=1e-16)

    def test_kernel_not_normalized(self):
        with pytest.raises(KernelNotNormalized):
            from_augmentation_process([1.0], [[0]], [[0.7]], [[0.0]])

    def test_empty_support(self):
        with pytest.raises(EmptySupport):
            from_augmentation_process([], [], [], [])

    @pytest.mark.parametrize("p, views, kernel, verts, error, message", [
        ([0.5, 0.5], [[0]], [[1.0]], [[0.0]], ValueError,
         r"kernel shape \(1, 1\) does not match 2"),
        ([1.5, -0.5], [[0], [0]], [[1.0], [1.0]], [[0.0]], EmptySupport, "must be nonnegative"),
        ([0.0], [[0]], [[1.0]], [[0.0]], EmptySupport, "sum to zero"),
        ([0.5], [[0]], [[1.0]], [[0.0]], NotNormalized, "natural weights sum to 0.5"),
        ([1.0], [[0, 1]], [[1.5, -0.5]], [[0.0], [1.0]], KernelNotNormalized,
         "negative entries"),
        ([1.0], [[0]], [[0.5, 0.5]], [[0.0]], ValueError,
         r"views shape \(1, 1\) does not match kernel shape \(1, 2\)"),
        ([1.0], [[0, 2]], [[0.5, 0.5]], [[0.0], [1.0]], ValueError,
         r"views must be integer vertex ids in \[0, 2\)"),
        ([1.0], [[-1, 0]], [[0.5, 0.5]], [[0.0], [1.0]], ValueError,
         r"views must be integer vertex ids in \[0, 2\)"),
        ([1.0], [[0.0, 1.0]], [[0.5, 0.5]], [[0.0], [1.0]], ValueError,
         r"views must be integer vertex ids in \[0, 2\)"),
        ([float("nan")], [[0]], [[1.0]], [[0.0]], NotNormalized, "natural weights sum to nan"),
        ([1.0], [[0, 1]], [[0.5, float("nan")]], [[0.0], [1.0]], KernelNotNormalized,
         "kernel row 0 sums to nan"),
    ], ids=["kernel-shape", "negative-weight", "zero-weights", "weights-sum", "negative-kernel",
            "views-shape", "view-above-n", "negative-view", "float-views", "nan-weight",
            "nan-kernel"])
    def test_bad_process_rejected(self, p, views, kernel, verts, error, message):
        with pytest.raises(error, match=message):
            from_augmentation_process(p, views, kernel, verts)


class TestComponentsAndCrossMass:
    def test_block_diagonal_three_blocks(self):
        verts = [[float(i)] for i in range(6)]
        J = np.zeros((6, 6))
        for a in range(3):
            i, j = 2 * a, 2 * a + 1
            J[i, j] = J[j, i] = 1.0 / 6.0
        g = build_graph(verts, J)
        assert connected_components(g).n_sets == 3

    def test_fully_connected_single_component(self):
        n = 5
        J = np.full((n, n), 1.0 / n**2)
        g = build_graph([[float(i)] for i in range(n)], J)
        assert connected_components(g).n_sets == 1

    def test_component_partition_has_zero_cross_mass(self, two_components):
        part = connected_components(two_components)
        assert cross_cluster_mass(two_components, part) == 0.0

    def test_single_cluster_partition_zero(self, two_vertex_uniform):
        part = partition_from_labels([0, 0])
        assert cross_cluster_mass(two_vertex_uniform, part) == 0.0

    def test_symmetric_cross_edge_alpha(self):
        # one cross edge of mass 0.01 each way between two clusters
        verts = [[0.0], [1.0], [2.0], [3.0]]
        J = np.zeros((4, 4))
        J[0, 1] = J[1, 0] = 0.245
        J[2, 3] = J[3, 2] = 0.245
        J[1, 2] = J[2, 1] = 0.01
        g = build_graph(verts, J)
        part = partition_from_labels([0, 0, 1, 1])
        assert cross_cluster_mass(g, part) == pytest.approx(0.02, abs=1e-15)

    def test_cross_mass_zero_on_random_graphs(self):
        for g, m in small_random_graphs(25, seed=3):
            part = connected_components(g)
            assert part.n_sets == m
            assert cross_cluster_mass(g, part) == 0.0

    def test_partition_of_another_size_rejected(self, two_vertex_uniform):
        with pytest.raises(ValueError, match="partition does not match graph size"):
            cross_cluster_mass(two_vertex_uniform, partition_from_labels([0, 1, 1]))


class TestRestrict:
    def test_full_subset_is_identity(self, two_vertex_uniform):
        sub = restrict(two_vertex_uniform, [0, 1])
        np.testing.assert_allclose(sub.joint.toarray(),
                                   two_vertex_uniform.joint.toarray())
        np.testing.assert_allclose(sub.marginal, two_vertex_uniform.marginal)

    def test_component_block_rescaled(self, two_components_uneven):
        sub = restrict(two_components_uneven, [0, 1])
        expected = np.array([[0.1, 0.2], [0.2, 0.1]]) / 0.6
        np.testing.assert_allclose(sub.joint.toarray(), expected, atol=1e-14)

    def test_single_vertex_subset(self, two_components):
        sub = restrict(two_components, [0])
        np.testing.assert_allclose(sub.joint.toarray(), [[1.0]])

    def test_empty_subset(self, two_vertex_uniform):
        with pytest.raises(EmptySubset):
            restrict(two_vertex_uniform, [])

    def test_zero_conditional_mass(self):
        # vertices 0 and 3 carry no joint mass between or among themselves
        verts = [[0.0], [1.0], [2.0], [3.0]]
        J = np.zeros((4, 4))
        J[0, 1] = J[1, 0] = 0.25
        J[2, 3] = J[3, 2] = 0.25
        g = build_graph(verts, J)
        with pytest.raises(ZeroConditionalMass):
            restrict(g, [0, 3])

    @pytest.mark.parametrize("subset, message", [
        ([0, 0], "repeated indices"), ([0, 2], "index out of range"),
        ([-1], "index out of range"), ([0.5, 1.7], "integer vertex indices, got float64"),
        ([True, False], "integer vertex indices, got bool"),
    ])
    def test_bad_subset_rejected(self, two_vertex_uniform, subset, message):
        # restrict and both expansion quantities read a subset by one rule,
        # before any indexing
        g = two_vertex_uniform
        for call in (lambda: restrict(g, subset),
                     lambda: expansion_Q(g, subset, [1.0, -1.0]),
                     lambda: min_expansion_over_class(g, subset, "tabular"),
                     lambda: min_expansion_over_class(g, subset, "linear")):
            with pytest.raises(ValueError, match=message):
                call()

    def test_vertex_without_pair_mass_in_subset(self):
        # vertex 2 pairs only with vertex 1, which the subset leaves out
        J = np.array([[0.4, 0.0, 0.0], [0.0, 0.4, 0.1], [0.0, 0.1, 0.0]])
        g = build_graph([[0.0], [1.0], [2.0]], J)
        with pytest.raises(ZeroMassVertex, match="vertex 2 has no within-subset pair mass"):
            restrict(g, [0, 2])

    def test_restrict_idempotent(self, two_components_uneven):
        once = restrict(two_components_uneven, [0, 1])
        twice = restrict(once, [0, 1])
        np.testing.assert_allclose(once.joint.toarray(), twice.joint.toarray(),
                                   atol=1e-15)


class TestSerialization:
    def test_round_trip_lossless(self, tmp_path, two_components_uneven):
        path = tmp_path / "g.json"
        save_graph(two_components_uneven, path)
        back = load_graph(path)
        np.testing.assert_array_equal(back.vertices,
                                      two_components_uneven.vertices)
        np.testing.assert_array_equal(back.joint.toarray(),
                                      two_components_uneven.joint.toarray())
        np.testing.assert_array_equal(back.marginal,
                                      two_components_uneven.marginal)

    def test_triplet_document_loads(self, two_vertex_uniform):
        # written by hand: each pair once, i <= j, in CSR order; no marginal
        doc = {"d": 1, "vertices": [[0.0], [1.0]],
               "joint": {"rows": [0, 0, 1], "cols": [0, 1, 1], "vals": [0.25, 0.25, 0.25]}}
        back = graph_from_dict(doc)
        np.testing.assert_array_equal(back.joint.toarray(),
                                      two_vertex_uniform.joint.toarray())
        np.testing.assert_array_equal(back.marginal, [0.5, 0.5])

    def test_missing_fields_rejected(self):
        with pytest.raises(MalformedGraphFile):
            graph_from_dict({"vertices": [[0.0]], "joint": [[1.0]]})

    def test_wrong_shape_joint_rejected(self, two_vertex_uniform):
        doc = graph_to_dict(two_vertex_uniform)
        doc["joint"] = [[1.0]]
        with pytest.raises(MalformedGraphFile):
            graph_from_dict(doc)

    def test_declared_d_mismatch_rejected(self, two_vertex_uniform):
        doc = graph_to_dict(two_vertex_uniform)
        doc["d"] = 7
        with pytest.raises(MalformedGraphFile):
            graph_from_dict(doc)

    def test_asymmetric_stored_joint_rejected(self, two_vertex_uniform):
        # a file holds each pair once, so it cannot keep a joint that is one
        # ulp asymmetric: saving refuses it rather than write it symmetric
        g = two_vertex_uniform
        J = g.joint.toarray()
        J[0, 1] = np.nextafter(J[0, 1], 1.0)
        with pytest.raises(AsymmetricJoint, match=r"max \|J - J\^T\| = 5.551e-17"):
            graph_to_dict(PositivePairGraph(g.vertices, scipy.sparse.csr_array(J), g.marginal))

    def test_save_graph_writes_the_document(self, tmp_path):
        g = random_graph(300, n_components=4, seed=3)
        path = tmp_path / "g.json"
        save_graph(g, path)
        assert path.read_text() == json.dumps(graph_to_dict(g))

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(MalformedGraphFile):
            load_graph(path)

    def test_round_trip_random_graphs(self, tmp_path):
        for idx, (g, _) in enumerate(small_random_graphs(5, seed=11)):
            path = tmp_path / f"g{idx}.json"
            save_graph(g, path)
            back = load_graph(path)
            np.testing.assert_array_equal(back.joint.toarray(), g.joint.toarray())
            np.testing.assert_array_equal(back.vertices, g.vertices)

    def test_non_dyadic_floats_survive_exactly(self, tmp_path):
        # weights with no finite binary expansion must round-trip bit-exactly
        g = build_graph([[0.0], [1.0]],
                        [[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
        path = tmp_path / "g.json"
        save_graph(g, path)
        back = load_graph(path)
        np.testing.assert_array_equal(back.joint.toarray(), g.joint.toarray())
        np.testing.assert_array_equal(back.marginal, g.marginal)


class TestCsrStorage:
    def test_every_graph_is_csr_without_stored_zeros(self, two_components):
        for g in (two_components, restrict(two_components, [0]),
                  graph_from_dict(graph_to_dict(two_components))):
            assert g.is_sparse and scipy.sparse.issparse(g.joint)
            assert g.joint.nnz == 2 or g.n == 1
            assert np.all(g.joint.data > 0)

    def test_sparse_input_sums_duplicates(self):
        coo = scipy.sparse.coo_array(
            ([0.125, 0.125, 0.25, 0.25, 0.25, 0.0], ([0, 0, 0, 1, 1, 1], [0, 0, 1, 0, 1, 0])),
            shape=(2, 2))
        g = build_graph([[0.0], [1.0]], coo)
        np.testing.assert_array_equal(g.joint.toarray(), [[0.25, 0.25], [0.25, 0.25]])
        assert g.joint.nnz == 4

    def test_joint_coo_reads_csr_order(self, two_components_uneven):
        rows, cols, vals = two_components_uneven.joint_coo()
        J = two_components_uneven.joint
        np.testing.assert_array_equal(rows, [0, 0, 1, 1, 2, 2, 3, 3])
        np.testing.assert_array_equal(cols, J.indices)
        np.testing.assert_array_equal(vals, J.data)

    def test_component_ids_follow_smallest_vertex(self):
        rng = np.random.default_rng(4)
        for g, m in small_random_graphs(20, seed=5):
            perm = rng.permutation(g.n)
            h = build_graph(g.vertices[perm], g.joint.toarray()[np.ix_(perm, perm)])
            labels = connected_components(h).labels
            assert labels.max() + 1 == m
            _, first = np.unique(labels, return_index=True)
            assert np.all(np.diff(first) > 0)
            assert partition_from_labels(labels).labels.tolist() == labels.tolist()


def _permuted(g, rng):
    """g with vertex perm[i] renumbered i."""
    perm = rng.permutation(g.n)
    new = np.argsort(perm)
    rows, cols, vals = g.joint_coo()
    return build_graph(g.vertices[perm],
                       scipy.sparse.coo_array((vals, (new[rows], new[cols])), shape=(g.n, g.n)))


def _permuted_random_graphs():
    rng = np.random.default_rng(12)
    for i in range(120):
        n = int(rng.integers(2, 60))
        yield _permuted(random_graph(n, int(rng.integers(1, n + 1)), seed=i), rng)
    yield _permuted(random_graph(3000, 40, seed=5), rng)


def _example_graphs():
    """Examples 1-4 and the two-level graph, each with its label cells (the
    subsets that the tabular beta restricts to)."""
    for lab in (example1_graph(4, 1), example2_labels(5, 2, xor_label_map),
                example3_graph(3, 2.0, 0.1, [0, 1, 0], 2, points_per_set=6,
                               sub_clusters_per_set=3),
                example4_graph(4, 1, 2.0), two_level_graph(5, seed=1)):
        yield lab.graph
        for c in range(lab.n_classes):
            yield restrict(lab.graph, np.flatnonzero(lab.labels == c))
    yield _permuted(example4_graph(4, 2, 2.0).graph, np.random.default_rng(3))


@pytest.mark.parametrize("graphs", [_permuted_random_graphs, _example_graphs],
                         ids=["permuted-random", "examples-and-cells"])
def test_components_match_undirected_labels(graphs):
    # a joint's pattern is symmetric, so its strong components are the
    # undirected ones, numbered by smallest vertex
    for i, g in enumerate(graphs()):
        _, want = scipy.sparse.csgraph.connected_components(g.joint, directed=False)
        got = connected_components(g).labels
        assert got.dtype == np.int64, i
        np.testing.assert_array_equal(got, want, err_msg=str(i))


def _three_vertex_doc(joint):
    J = np.array(joint, dtype=np.float64)
    rows, cols = np.nonzero(np.triu(J))
    return {
        "d": 1,
        "vertices": [[0.0], [1.0], [2.0]],
        "joint": {"rows": rows.tolist(), "cols": cols.tolist(),
                  "vals": J[rows, cols].tolist()},
    }


class TestStrictLoader:
    NEGATIVE = [[0.3, -0.05, 0.1], [-0.05, 0.3, 0.1], [0.1, 0.1, 0.1]]

    def test_negative_triplets_rejected(self):
        with pytest.raises(NotNormalized):
            graph_from_dict(_three_vertex_doc(self.NEGATIVE))

    def test_negative_dense_entries_rejected(self):
        # a dense-list joint is refused whatever it holds
        doc = _three_vertex_doc(self.NEGATIVE)
        doc["joint"] = self.NEGATIVE
        with pytest.raises(MalformedGraphFile, match="joint must be"):
            graph_from_dict(doc)

    def test_dense_list_document_rejected(self, two_components_uneven):
        doc = graph_to_dict(two_components_uneven)
        doc["joint"] = two_components_uneven.joint.toarray().tolist()
        with pytest.raises(MalformedGraphFile, match="expected the layout"):
            graph_from_dict(doc)

    def test_duplicate_triplets_rejected(self, two_vertex_uniform):
        doc = graph_to_dict(two_vertex_uniform)
        joint = doc["joint"]
        for field in ("rows", "cols", "vals"):
            joint[field].insert(1, joint[field][1])
        joint["vals"][1] = joint["vals"][2] = joint["vals"][1] / 2
        with pytest.raises(MalformedGraphFile, match=r"pair \(0, 1\) is a duplicate"):
            graph_from_dict(doc)

    @pytest.mark.parametrize("index", [2, -1, 7])
    def test_out_of_range_index_rejected(self, two_vertex_uniform, index):
        doc = graph_to_dict(two_vertex_uniform)
        doc["joint"]["cols"][0] = index
        with pytest.raises(MalformedGraphFile, match="out of range"):
            graph_from_dict(doc)

    @pytest.mark.parametrize("index", [1.0, 0.5, "1", None, True])
    def test_non_integer_index_rejected(self, two_vertex_uniform, index):
        doc = graph_to_dict(two_vertex_uniform)
        doc["joint"]["rows"][1] = index
        with pytest.raises(MalformedGraphFile, match="joint rows must hold integers only"):
            graph_from_dict(doc)

    @staticmethod
    def _set(doc, field, kind):
        """Replace one number of `field` by the same number as a JSON
        string, or by a boolean."""
        def as_kind(x):
            return repr(x) if kind == "string" else bool(x)

        if field == "d":
            doc["d"] = as_kind(doc["d"])
        elif field == "vertex":
            doc["vertices"][1][0] = as_kind(doc["vertices"][1][0])
        else:       # the t-th stored triplet is (rows[t], cols[t], vals[t])
            key = {"triplet_row": "rows", "triplet_index": "cols",
                   "triplet_value": "vals"}[field]
            doc["joint"][key][1] = as_kind(doc["joint"][key][1])

    @pytest.mark.parametrize("kind", ["string", "boolean"])
    @pytest.mark.parametrize("field", ["d", "vertex", "triplet_row", "triplet_index",
                                       "triplet_value"])
    def test_non_number_rejected(self, two_components_uneven, field, kind):
        # numpy reads "0.25" and true as numbers; a loader must not
        doc = json.loads(json.dumps(graph_to_dict(two_components_uneven)))
        graph_from_dict(json.loads(json.dumps(doc)))       # loads as written
        self._set(doc, field, kind)
        with pytest.raises(MalformedGraphFile):
            graph_from_dict(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("field", ["vertices", "joint", "joint-rows"])
    def test_null_rejected(self, two_vertex_uniform, field):
        # numpy would read a null as NaN
        doc = graph_to_dict(two_vertex_uniform)
        if field == "vertices":
            doc["vertices"][0][0] = None
        else:
            doc["joint"]["rows" if field == "joint-rows" else "vals"][0] = None
        with pytest.raises(MalformedGraphFile):
            graph_from_dict(doc)

    @pytest.mark.parametrize("field, number", [("rows", 2 ** 70), ("vals", 10 ** 400)],
                             ids=["index-2**70", "value-10**400"])
    def test_numbers_beyond_int64_or_float_rejected(self, two_vertex_uniform,
                                                    field, number):
        doc = graph_to_dict(two_vertex_uniform)
        doc["joint"][field][0] = number
        with pytest.raises(MalformedGraphFile, match=f"unreadable joint {field} array"):
            graph_from_dict(doc)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [doc], "graph document list is not of the layout"),
        (lambda doc: {**doc, "marginal": 0.5}, "is not of the layout"),
        (lambda doc: {**doc, "vertices": [[10 ** 400], [1.0]]},
         "unreadable vertices array: int too large"),
        (lambda doc: {**doc, "joint": {**doc["joint"], "vals": doc["joint"]["vals"][:-1]}},
         r"flat lists of one length, got shapes \(3,\), \(3,\), \(2,\)"),
        (lambda doc: {**doc, "vertices": [0.0, 1.0]},
         "unreadable vertices array: vertices must be 2-d"),
        (lambda doc: {**doc, "marginal": [0.5, 0.5]},
         r"\['d', 'joint', 'marginal', 'vertices'\] is not of the layout"),
        (lambda doc: {**doc, "joint": {**doc["joint"], "triplets": []}},
         "joint must be"),
        (lambda doc: {**doc, "joint": {"rows": [0, 1, 1], "cols": [0, 0, 1],
                                       "vals": [0.25, 0.25, 0.25]}},
         r"stored pair \(1, 0\) has i > j"),
        (lambda doc: {**doc, "joint": {"rows": [0, 1, 0], "cols": [0, 1, 1],
                                       "vals": [0.25, 0.25, 0.25]}},
         r"pair \(0, 1\) is out of CSR order"),
        (lambda doc: {**doc, "joint": {**doc["joint"], "vals": [[0.25], [0.25], [0.25]]}},
         r"flat lists of one length, got shapes \(3,\), \(3,\), \(3, 1\)"),
        (lambda doc: {**doc, "vertices": "[[0.0], [1.0]]"}, "vertices must be a list"),
    ], ids=["not-object", "marginal-not-list", "vertex-overflow", "short-triplet",
            "flat-vertices", "stored-marginal", "joint-triplets", "lower-pair",
            "out-of-order", "nested-vals", "text-vertices"])
    def test_malformed_document_rejected(self, two_vertex_uniform, edit, message):
        with pytest.raises(MalformedGraphFile, match=message):
            graph_from_dict(edit(graph_to_dict(two_vertex_uniform)))

    @pytest.mark.parametrize("vertices, joint, error, message", [
        ([[0.0], [0.0]], ([0, 0, 1], [0, 1, 1], [0.25, 0.25, 0.25]), DuplicateVertex,
         "vertices 0 and 1 have identical"),
        ([[0.0], [1.0]], ([0, 0, 1], [0, 1, 1], [0.25, 0.25, 0.2]), NotNormalized,
         "joint sums to 0.95"),
        ([[0.0], [1.0]], ([0], [0], [1.0]), ZeroMassVertex, "vertex 1 has marginal 0.0"),
    ], ids=["duplicate-vertex", "total-not-one", "zero-mass"])
    def test_invalid_graph_rejected(self, vertices, joint, error, message):
        # the loader's checks are build_graph's
        doc = {"d": 1, "vertices": vertices, "joint": dict(zip(("rows", "cols", "vals"), joint))}
        with pytest.raises(error, match=message):
            graph_from_dict(doc)

    def test_ragged_vertices_rejected(self, two_vertex_uniform):
        doc = graph_to_dict(two_vertex_uniform)
        doc["vertices"][1].append(0.0)
        with pytest.raises(MalformedGraphFile, match="equal-length"):
            graph_from_dict(doc)

    def test_nan_entry_rejected(self, two_vertex_uniform):
        for value in (float("nan"), float("inf")):
            doc = graph_to_dict(two_vertex_uniform)
            doc["joint"]["vals"][0] = value
            with pytest.raises(NotNormalized, match="negative, NaN or infinite"):
                graph_from_dict(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_vertex_rejected(self, two_vertex_uniform, value):
        # the loader reads coordinates through the same check as build_graph
        doc = json.loads(json.dumps(graph_to_dict(two_vertex_uniform)))
        doc["vertices"][1][0] = value
        with pytest.raises(NonFiniteVertex, match="^vertex 1 has a non-finite"):
            graph_from_dict(doc)

    def test_inconsistent_marginal_rejected(self, two_vertex_uniform):
        # a loaded marginal is the row sums, so saving refuses a graph whose
        # marginal is one ulp off them (as min_expansion_over_class's is)
        g = two_vertex_uniform
        marg = g.marginal.copy()
        marg[0] = np.nextafter(marg[0], 1.0)
        with pytest.raises(NotNormalized, match="marginal"):
            graph_to_dict(PositivePairGraph(g.vertices, g.joint, marg))

    def test_documents_always_hold_triplets(self, two_components_uneven):
        doc = graph_to_dict(two_components_uneven)
        assert set(doc) == {"d", "vertices", "joint"}
        assert doc["joint"] == {"rows": [0, 0, 1, 2, 2, 3], "cols": [0, 1, 1, 2, 3, 3],
                                "vals": [0.1, 0.2, 0.1, 0.05, 0.15, 0.05]}

    @pytest.mark.parametrize("form", ["triplets", "dense"])
    def test_entry_without_mirror_rejected(self, form):
        # two 2-vertex blocks and a lone (1, 2) entry inside build_graph's
        # symmetry tolerance: saving refuses it, and a document of the older
        # layouts that holds it is refused for its layout
        J = np.kron(np.eye(2), np.full((2, 2), 0.125))
        J[1, 2] = 5e-13
        vertices = [[0.0], [1.0], [2.0], [3.0]]
        with pytest.raises(AsymmetricJoint):
            graph_to_dict(PositivePairGraph(np.array(vertices), scipy.sparse.csr_array(J),
                                            J.sum(axis=1)))
        doc = {"d": 1, "vertices": vertices, "marginal": J.sum(axis=1).tolist(),
               "joint": J.tolist()}
        if form == "triplets":
            doc["joint"] = {"triplets": [[int(i), int(j), float(J[i, j])]
                                         for i, j in zip(*np.nonzero(J))]}
        with pytest.raises(MalformedGraphFile, match="is not of the layout"):
            graph_from_dict(doc)

    @pytest.mark.parametrize("build", [
        lambda: random_graph(40, n_components=3, seed=2),
        lambda: two_level_graph(4, seed=1).graph,
        lambda: component_cluster_graph(3),
        lambda: example1_graph(4, 1).graph,
        lambda: example2_labels(4, 2, xor_label_map).graph,
        lambda: example3_graph(3, 2.0, 0.1, [0, 1, 0], 2, sub_clusters_per_set=2).graph,
        lambda: example4_graph(4, 1, 2.0).graph,
        lambda: restrict(random_graph(40, n_components=3, seed=2), np.arange(1, 40, 2)),
    ], ids=["random", "two-level", "component-cluster", "example1", "example2",
            "example3", "example4", "restrict"])
    def test_every_generator_round_trips(self, build):
        g = build()
        back = graph_from_dict(json.loads(json.dumps(graph_to_dict(g))))
        for a, b in ((g.vertices, back.vertices), (g.marginal, back.marginal),
                     (g.joint.indptr, back.joint.indptr),
                     (g.joint.indices, back.joint.indices), (g.joint.data, back.joint.data)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_large_round_trip_is_bit_exact(self):
        g = random_graph(6000, n_components=20)
        back = graph_from_dict(json.loads(json.dumps(graph_to_dict(g))))
        assert back.marginal.tobytes() == g.marginal.tobytes()
        a, b = g.joint.copy(), back.joint.copy()
        a.sort_indices()
        b.sort_indices()
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices), (a.data, b.data)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
