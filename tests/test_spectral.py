"""Laplacian, eigendecomposition, discrepancy, expansion quantities."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st
from scipy import sparse

from pairlab import spectral
from pairlab.errors import (
    DegenerateCovariance,
    EigSolverFailure,
    EmptySubset,
    GraphMismatch,
    UnknownClass,
    ZeroFunction,
)
from pairlab.posgraph import (
    build_graph,
    connected_components,
    partition_from_labels,
    restrict,
)
from pairlab.spectral import (
    INFINITE,
    eigendecompose,
    expansion_Q,
    is_eigenfunction,
    laplacian_apply,
    min_expansion_over_class,
    pair_discrepancy,
)
from pairlab.septest import br_oracle_tabular
from pairlab.synthdata import (
    component_cluster_graph,
    component_constant_function,
    example1_graph,
    random_graph,
    two_level_graph,
)

from conftest import min_expansion_dense, small_random_graphs


class TestLaplacianApply:
    def test_single_self_loop_annihilates_constants(self, single_vertex):
        np.testing.assert_array_equal(
            laplacian_apply(single_vertex, [3.7]), [0.0])

    def test_component_indicator_in_kernel(self, two_components):
        out = laplacian_apply(two_components, [1.0, 0.0])
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_two_vertex_uniform_eigenvalue_one(self, two_vertex_uniform):
        out = laplacian_apply(two_vertex_uniform, [1.0, -1.0])
        np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-15)

    def test_wrong_length_rejected(self, two_vertex_uniform):
        with pytest.raises(GraphMismatch):
            laplacian_apply(two_vertex_uniform, [1.0, 2.0, 3.0])


class TestEigendecompose:
    def test_single_self_loop_spectrum(self, single_vertex):
        dec = eigendecompose(single_vertex, 1)
        np.testing.assert_allclose(dec.eigenvalues, [0.0], atol=1e-14)

    def test_two_vertex_uniform_spectrum(self, two_vertex_uniform):
        dec = eigendecompose(two_vertex_uniform, 2)
        np.testing.assert_allclose(dec.eigenvalues, [0.0, 1.0], atol=1e-12)

    def test_zero_multiplicity_matches_components(self):
        for g, m in small_random_graphs(15, seed=7):
            dec = eigendecompose(g, g.n)
            n_zero = int(np.sum(dec.eigenvalues <= 1e-12))
            assert n_zero == m, (
                f"{n_zero} zero eigenvalues but {m} components")

    def test_orthonormal_in_weighted_inner_product(self):
        g = random_graph(12, n_components=2, seed=4)
        dec = eigendecompose(g, 8)
        G = dec.functions.T @ (dec.functions * g.marginal[:, None])
        np.testing.assert_allclose(G, np.eye(8), atol=1e-9)

    def test_defining_relation_residual(self):
        g = random_graph(10, n_components=1, seed=9)
        dec = eigendecompose(g, 6)
        for j in range(dec.count):
            fn = dec.functions[:, j]
            resid = dec.eigenvalues[j] * fn - laplacian_apply(g, fn)
            assert float(g.marginal @ (resid * resid)) <= 1e-16

    def test_eigenvalues_in_range_and_sorted(self):
        for g, _ in small_random_graphs(10, seed=13):
            vals = eigendecompose(g, g.n).eigenvalues
            assert vals.min() >= -1e-10
            assert vals.max() <= 2.0 + 1e-10
            assert np.all(np.diff(vals) >= -1e-12)

    def test_sign_convention(self):
        g = random_graph(9, n_components=1, seed=21)
        dec = eigendecompose(g, 5)
        for j in range(dec.count):
            col = dec.functions[:, j]
            lead = col[np.abs(col) > 1e-12][0]
            assert lead > 0


class TestPairDiscrepancy:
    def test_constant_function_exactly_zero(self, two_vertex_uniform):
        assert pair_discrepancy(two_vertex_uniform, [4.2, 4.2]) == 0.0

    def test_component_indicator_exactly_zero(self, two_components):
        assert pair_discrepancy(two_components, [1.0, 0.0]) == 0.0

    def test_two_vertex_hand_value(self, two_vertex_uniform):
        # two off-diagonal terms of mass 1/4, squared difference 4 each
        assert pair_discrepancy(two_vertex_uniform, [1.0, -1.0]) == 2.0

    def test_vector_valued(self, two_vertex_uniform):
        F = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert pair_discrepancy(two_vertex_uniform, F) == 2.0

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_quadratic_form_identity(self, seed):
        """pair_discrepancy(g) = 2 E[g * Lg] for every g."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 16))
        m = int(rng.integers(1, 4))
        g = random_graph(n, n_components=min(m, n // 2) or 1,
                         seed=int(rng.integers(2**31)))
        fn = rng.standard_normal(g.n) * 3.0
        lhs = pair_discrepancy(g, fn)
        rhs = 2.0 * float(g.marginal @ (fn * laplacian_apply(g, fn)))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_component_constant_gives_zero_eigenfunction(self, seed):
        """Zero discrepancy functions are eigenfunctions at eigenvalue 0."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 20))
        m = int(rng.integers(2, max(3, n // 3)))
        g = random_graph(n, n_components=min(m, n // 2),
                         seed=int(rng.integers(2**31)))
        fn = component_constant_function(g, seed=int(rng.integers(2**31)))
        assert pair_discrepancy(g, fn) == 0.0
        assert is_eigenfunction(g, fn, 0.0, 1e-10)


def _one_shot_discrepancy(g, F):
    """The edge formula over every stored pair at once."""
    rows, cols, vals = g.joint_coo()
    diffs = F[rows] - F[cols]
    return float(np.sum(vals * np.einsum("ij,ij->i", diffs, diffs)))


def _traced_peak(fn):
    """Peak bytes traced while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkedDiscrepancy:
    @pytest.fixture(scope="class")
    def graph(self):
        return random_graph(3000, n_components=7, seed=4)

    @pytest.mark.parametrize("chunk, k", [(None, 40), (64, 1), (64, 40), (1, 3)])
    def test_chunks_equal_one_shot_edge_formula(self, graph, monkeypatch, chunk, k):
        # chunk 1 gives every row a chunk of its own
        if chunk is not None:
            monkeypatch.setattr(spectral, "_EDGE_CHUNK_FLOATS", chunk)
        F = np.random.default_rng(k).standard_normal((graph.n, k))
        assert graph.joint.nnz * k > 2 * spectral._EDGE_CHUNK_FLOATS
        assert pair_discrepancy(graph, F) == _one_shot_discrepancy(graph, F)

    def test_component_constant_is_exactly_zero_across_chunks(self, graph):
        labels = connected_components(graph).labels
        F = np.random.default_rng(0).uniform(-3.0, 3.0, size=(7, 40))[labels]
        assert graph.joint.nnz * 40 > 4 * spectral._EDGE_CHUNK_FLOATS
        assert pair_discrepancy(graph, F) == 0.0

    def test_memory_does_not_grow_with_k(self):
        g = random_graph(3000, seed=1)
        rng = np.random.default_rng(1)
        peaks = {}
        for k in (10, 40, 160):
            F = rng.standard_normal((g.n, k))
            peaks[k] = _traced_peak(lambda: pair_discrepancy(g, F))
        # one (nnz, k) difference array is nnz * k * 8 bytes; gathering
        # every edge at once holds three of them
        assert peaks[40] < g.joint.nnz * 40 * 8 / 2
        assert max(peaks.values()) < 1.5 * min(peaks.values())


class TestExpansionQ:
    def test_subcluster_indicator_zero(self, two_components):
        assert expansion_Q(two_components, [0, 1], [1.0, 0.0]) == 0.0

    def test_constant_gives_infinite(self, two_vertex_uniform):
        assert expansion_Q(two_vertex_uniform, [0, 1], [2.0, 2.0]) is INFINITE

    def test_two_vertex_hand_value(self, two_vertex_uniform):
        # numerator 2 * 0.25 * 1 = 0.5; denominator 2 * Var = 0.5
        assert expansion_Q(two_vertex_uniform, [0, 1], [1.0, 0.0]) \
            == pytest.approx(1.0, abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_tabular_minimum_lower_bounds_samples(self, seed):
        """min over the tabular class is below Q of any explicit function."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 14))
        g = random_graph(n, n_components=1, seed=int(rng.integers(2**31)))
        subset = np.arange(g.n)
        beta, argmin = min_expansion_over_class(g, subset, "tabular")
        assert beta is not INFINITE
        # the argmin itself attains the reported value
        q_star = expansion_Q(g, subset, argmin)
        if q_star is not INFINITE:
            assert q_star <= beta + 1e-8
        for _ in range(5):
            fn = rng.standard_normal(g.n)
            q = expansion_Q(g, subset, fn)
            if q is not INFINITE:
                assert beta <= q + 1e-10


class TestMinExpansionOverClass:
    def test_two_subclusters_tabular_zero(self, two_components):
        beta, g = min_expansion_over_class(two_components, [0, 1], "tabular")
        assert beta == 0.0
        assert expansion_Q(two_components, [0, 1], g) == 0.0

    @pytest.mark.parametrize("size, path", [
        (20, "stacked"), (600, "subset"), (1200, "iterative"),
        (spectral._DENSE_BLOCK_LIMIT + 52, "iterative")])
    def test_tabular_matches_dense_pencil(self, size, path, monkeypatch):
        # a prefix of random_graph's vertices holds its spanning tree's
        # edges, so the cell stays connected after restriction; the rest of
        # the graph takes mass off it, so d_S / q is not constant
        solves = []
        nonzero_pairs = spectral._nonzero_pairs

        def counted(*args):
            out = nonzero_pairs(*args)
            solves.append({route: n for route, n in out[2].items() if n})
            return out

        monkeypatch.setattr(spectral, "_nonzero_pairs", counted)
        g = random_graph(size + size // 8, n_components=1, seed=5)
        cell = np.arange(size)
        assert connected_components(restrict(g, cell)).n_sets == 1
        beta, argmin = min_expansion_over_class(g, cell, "tabular")
        ref, _ = min_expansion_dense(g, cell, "tabular")
        assert solves == [{path: 1}]
        assert beta == pytest.approx(ref, rel=1e-12)
        assert expansion_Q(g, cell, argmin) == pytest.approx(beta, rel=1e-12)
        assert np.all(argmin[size:] == 0.0)

    def test_disconnected_cell_is_exactly_zero(self):
        # two of three components: the pencil's noise would give ~1e-16
        g = random_graph(60, n_components=3, seed=2)
        labels = connected_components(g).labels
        cell = np.flatnonzero(labels > 0)
        beta, argmin = min_expansion_over_class(g, cell, "tabular")
        assert beta == 0.0
        assert expansion_Q(g, cell, argmin) == 0.0
        assert set(np.unique(argmin[cell])) == {0.0, 1.0}

    def test_weakly_linked_cell_is_positive(self):
        # two 5-cliques joined by a 1e-11 pair: the cell is connected and
        # its expansion minimum is a small positive number
        J = np.zeros((10, 10))
        J[:5, :5] = J[5:, 5:] = 1.0
        J[0, 5] = J[5, 0] = 1e-11
        g = build_graph(np.arange(10.0)[:, None], J / J.sum())
        beta, argmin = min_expansion_over_class(g, np.arange(10), "tabular")
        ref, _ = min_expansion_dense(g, np.arange(10), "tabular")
        assert 0.0 < beta < 1e-11
        assert beta == pytest.approx(ref, rel=1e-3)
        assert expansion_Q(g, np.arange(10), argmin) == pytest.approx(beta, rel=1e-3)

    def test_linear_matches_dense_pencil_bit_for_bit(self):
        # verify thm31's cells: the CSR form of the pencil is the dense one
        for i in range(6):
            lg = two_level_graph(2 + i % 3, seed=31 * i)
            for cell in partition_from_labels(lg.labels).sets():
                beta, w = min_expansion_over_class(lg.graph, cell, "linear")
                ref, ref_w = min_expansion_dense(lg.graph, cell, "linear")
                assert beta == ref
                np.testing.assert_array_equal(w, ref_w)

    def test_single_vertex_infinite(self, two_components):
        beta, g = min_expansion_over_class(two_components, [0], "tabular")
        assert beta is INFINITE
        assert g is None

    def test_linear_cannot_split_augmentation_set(self):
        # one natural datum's augmentation set: spurious dim takes 2 values,
        # invariant dims fixed; linear functions cannot zero out the
        # within-set positive mass, so the expansion minimum is positive.
        lab = example1_graph(3, 1, tau_grid=(0.5, 1.0))
        comp = connected_components(lab.graph).sets()[0]
        beta, _ = min_expansion_over_class(lab.graph, comp, "linear")
        assert beta is not INFINITE
        assert beta > 1e-6

    def test_linear_without_coordinate_variance_is_degenerate(self):
        # two vertices 1e-20 apart: the centered covariance falls below the
        # range cutoff, so no linear function varies on the subset
        g = build_graph([[0.0], [1e-20]], [[0.25, 0.25], [0.25, 0.25]])
        with pytest.raises(DegenerateCovariance):
            min_expansion_over_class(g, [0, 1], "linear")

    def test_linear_single_vertex_infinite(self, two_components):
        beta, g = min_expansion_over_class(two_components, [1], "linear")
        assert beta is INFINITE
        assert g is None


class TestIsEigenfunction:
    def test_component_indicator_at_zero(self, two_components):
        assert is_eigenfunction(two_components, [1.0, 0.0], 0.0, 1e-10)

    def test_sign_function_at_one(self, two_vertex_uniform):
        assert is_eigenfunction(two_vertex_uniform, [1.0, -1.0], 1.0, 1e-10)

    def test_sign_function_not_at_zero(self, two_vertex_uniform):
        assert not is_eigenfunction(two_vertex_uniform, [1.0, -1.0], 0.0, 1e-10)

    def test_zero_function_rejected(self, two_vertex_uniform):
        with pytest.raises(ZeroFunction):
            is_eigenfunction(two_vertex_uniform, [0.0, 0.0], 0.0, 1e-10)


@pytest.mark.parametrize("call, error, message", [
    (lambda g: eigendecompose(g, 0), GraphMismatch, "count=0 invalid for graph with n=2"),
    (lambda g: eigendecompose(g, 3), GraphMismatch, "count=3 invalid"),
    (lambda g: eigendecompose(g, 1.0), GraphMismatch, "count=1.0 invalid"),
    (lambda g: is_eigenfunction(g, np.ones((2, 2)), 0.0, 1e-10), GraphMismatch,
     "is_eigenfunction takes a single scalar function"),
    (lambda g: expansion_Q(g, [0, 1], np.ones((2, 2))), GraphMismatch,
     "expansion_Q takes a single scalar function"),
    (lambda g: expansion_Q(g, [], [1.0, -1.0]), EmptySubset, "empty vertex set"),
    (lambda g: min_expansion_over_class(g, [0, 1], "relu"), UnknownClass,
     "supports 'tabular' and 'linear', got 'relu'"),
], ids=["count-zero", "count-above-n", "count-float", "eigenfunction-2d", "expansion-2d",
        "empty-subset", "relu-class"])
def test_bad_arguments_rejected(two_vertex_uniform, call, error, message):
    with pytest.raises(error, match=message):
        call(two_vertex_uniform)


class TestSolverFailures:
    """Failures of the solvers underneath, planted; each is a typed error."""

    def test_block_solve_failure(self, monkeypatch):
        def fail(M, k, subset):
            raise scipy.linalg.LinAlgError("planted")

        monkeypatch.setattr(spectral, "_solve_blocks", fail)
        with pytest.raises(EigSolverFailure, match="planted"):
            eigendecompose(random_graph(6, n_components=1, seed=1), 2)

    def test_residual_check(self, monkeypatch):
        monkeypatch.setattr(spectral, "_RESIDUAL_TOL", -1.0)
        with pytest.raises(EigSolverFailure, match="eigenpair residual .* exceeds -1.0"):
            eigendecompose(random_graph(6, n_components=1, seed=1), 2)

    @pytest.mark.parametrize("pencil, message", [
        ("raise", "generalized eigensolve failed: planted"),
        ("negative", "negative expansion minimum -0.5"),
    ])
    def test_linear_pencil(self, monkeypatch, pencil, message):
        real = scipy.linalg.eigh

        def eigh(a, b=None, **kwargs):
            if b is None:               # the covariance, not the pencil
                return real(a, **kwargs)
            if pencil == "raise":
                raise scipy.linalg.LinAlgError("planted")
            return np.array([-0.5]), np.ones((a.shape[0], 1))

        monkeypatch.setattr(scipy.linalg, "eigh", eigh)
        g = random_graph(6, n_components=1, seed=1)
        with pytest.raises(EigSolverFailure, match=message):
            min_expansion_over_class(g, np.arange(6), "linear")


class TestInfiniteSentinel:
    def test_repr_and_hash(self):
        assert repr(INFINITE) == "INFINITE"
        assert {INFINITE: 1}[spectral.INFINITE] == 1

    def test_total_order_against_floats(self):
        assert INFINITE > 1e300
        assert INFINITE >= 1e300
        assert not (INFINITE < 1e300)
        assert not (INFINITE <= 1e300)
        assert INFINITE == INFINITE
        assert INFINITE <= INFINITE

    def test_no_silent_arithmetic(self):
        with pytest.raises(TypeError):
            INFINITE + 1.0


def _dense_spectrum(g):
    """All eigenvalues of the symmetrized M, from one dense solve."""
    inv_sqrt = 1.0 / np.sqrt(g.marginal)
    M = np.eye(g.n) - g.joint.toarray() * inv_sqrt[:, None] * inv_sqrt[None, :]
    return np.linalg.eigvalsh((M + M.T) * 0.5)


class TestBlockEigensolver:
    def test_large_graph_finds_every_zero(self):
        g = random_graph(6000, n_components=20)
        dec = eigendecompose(g, 25)
        assert int(np.sum(dec.eigenvalues <= 1e-12)) == 20
        assert np.all(dec.eigenvalues[:20] == 0.0)
        assert np.all(dec.eigenvalues[20:] > 1e-3)
        assert dec.n_components == 20
        assert dec.max_residual <= 1e-16
        assert br_oracle_tabular(g, 20) == 0.0

    def test_zero_pairs_are_normalized_component_indicators(self):
        g = random_graph(60, n_components=5, seed=2)
        labels = connected_components(g).labels
        for count in (3, 5, 9):
            dec = eigendecompose(g, count)
            zero = dec.functions[:, dec.eigenvalues == 0.0]
            assert zero.shape[1] == min(count, 5)
            for col in zero.T:
                on = np.flatnonzero(col)
                assert np.unique(labels[on]).size == 1
                assert np.unique(col[on]).size == 1
                assert pair_discrepancy(g, col) == 0.0
            G = dec.functions.T @ (dec.functions * g.marginal[:, None])
            np.testing.assert_allclose(G, np.eye(count), atol=1e-12)

    def test_iterative_branch_matches_dense(self, monkeypatch):
        # 1,100 vertices at k = 7 lie above the crossover; an infinite
        # crossover solves the same block densely
        g = random_graph(1100, n_components=1, seed=5)
        iterative = eigendecompose(g, 8)
        monkeypatch.setattr(spectral, "_LANCZOS_S2", float("inf"))
        dense = eigendecompose(g, 8)
        assert iterative.solves["iterative"] == dense.solves["subset"] == 1
        assert iterative.solves["subset"] == dense.solves["iterative"] == 0
        np.testing.assert_allclose(iterative.eigenvalues, dense.eigenvalues,
                                   rtol=0, atol=1e-10)
        # same eigenspaces: the projectors agree
        P, Q = (d.functions @ (d.functions * g.marginal[:, None]).T
                for d in (dense, iterative))
        np.testing.assert_allclose(P, Q, atol=1e-8)
        assert iterative.max_residual <= 1e-16

    def test_stacked_small_blocks_match_dense_solve(self):
        # 150 components over 400 vertices: many blocks share a size
        g = random_graph(400, n_components=150, seed=3)
        dec = eigendecompose(g, 300)
        np.testing.assert_allclose(dec.eigenvalues, _dense_spectrum(g)[:300],
                                   rtol=0, atol=1e-12)

    def test_component_cluster_graph_matches_dense_solve(self):
        g = component_cluster_graph(10)
        for count in (11, 25, 40):
            dec = eigendecompose(g, count)
            np.testing.assert_allclose(dec.eigenvalues, _dense_spectrum(g)[:count],
                                       rtol=0, atol=1e-12)

    def test_dense_blocks_are_the_symmetrized_lower_triangle(self):
        # each direction of a pair is drawn on its own, so some pairs are
        # stored one way only, with unequal values, and some vertices have
        # no self-pair
        rng = np.random.default_rng(0)
        B, s = 3, 9
        b, r, c = np.nonzero(rng.random((B, s, s)) < 0.4)
        e = rng.uniform(0.01, 0.3, size=b.size)
        ref = np.zeros((B, s, s))
        ref[b, r, c] = -e
        ref += np.eye(s)
        ref = (ref + ref.transpose(0, 2, 1)) * 0.5
        M = spectral._dense_blocks(B, s, b, r, c, e)
        assert np.array_equal(np.tril(M), np.tril(ref))
        assert not np.triu(M, 1).any()
        assert all(block.flags.f_contiguous for block in M)

    @pytest.fixture(scope="class")
    def mid_block(self):
        """One 600-vertex component where every third vertex has no
        self-pair: a single dense block solved by scipy."""
        g = random_graph(600, seed=8)
        J = g.joint.toarray()
        J[np.arange(0, g.n, 3), np.arange(0, g.n, 3)] = 0.0
        g = build_graph(g.vertices, J / J.sum())
        assert spectral._STACK_LIMIT < g.n <= spectral._DENSE_BLOCK_LIMIT
        assert (g.joint.diagonal() == 0.0).sum() == 200
        return g

    def test_mid_block_matches_dense_solve(self, mid_block):
        g = mid_block
        inv_sqrt = 1.0 / np.sqrt(g.marginal)
        M = np.eye(g.n) - g.joint.toarray() * inv_sqrt[:, None] * inv_sqrt[None, :]
        vals, vecs = np.linalg.eigh((M + M.T) * 0.5)
        dec = eigendecompose(g, 8)
        np.testing.assert_allclose(dec.eigenvalues, vals[:8], rtol=0, atol=1e-12)
        h = dec.functions / inv_sqrt[:, None]
        np.testing.assert_allclose(h @ h.T, vecs[:, :8] @ vecs[:, :8].T, atol=1e-10)

    def test_mid_block_solve_holds_about_one_block(self, mid_block):
        eigendecompose(mid_block, 8)    # scipy's lazy set-up is not counted
        peak = _traced_peak(lambda: eigendecompose(mid_block, 8))
        assert peak < 1.5 * mid_block.n ** 2 * 8

    def test_numerically_disconnected_component_raises(self):
        # connected through an edge so light that its gap is below the
        # zero tolerance: a second ~0 eigenvalue is not one per component
        J = np.zeros((4, 4))
        J[0, 1] = J[1, 0] = J[2, 3] = J[3, 2] = 0.25
        J[1, 2] = J[2, 1] = 1e-16
        g = build_graph([[0.0], [1.0], [2.0], [3.0]], J)
        assert connected_components(g).n_sets == 1
        with pytest.raises(EigSolverFailure, match="expected 1"):
            eigendecompose(g, 2)

    @pytest.mark.parametrize("link", [5e-12, 1e-13])
    def test_weakly_linked_cliques_decompose(self, link):
        # two 5-cliques joined by one light pair: one component, so the
        # second eigenvalue is solved, and it stands well above its residual
        J = np.zeros((10, 10))
        J[:5, :5] = J[5:, 5:] = 1.0
        J[0, 5] = J[5, 0] = link
        g = build_graph(np.arange(10.0)[:, None], J / J.sum())
        dec = eigendecompose(g, 2)
        assert dec.eigenvalues[0] == 0.0
        assert 0.0 < dec.eigenvalues[1] < 1e-12
        assert dec.eigenvalues[1] == pytest.approx(_dense_spectrum(g)[1], rel=0, abs=1e-15)
        assert dec.max_residual <= 1e-16

    def test_eigenvalue_out_of_range_raises(self, monkeypatch):
        # a block solve that returned 2.5; the message prints plain numbers
        monkeypatch.setattr(spectral, "_nonzero_pairs", lambda graph, labels, need: (
            np.full(need, 2.5), np.ones((graph.n, need)), spectral._no_solves()))
        g = random_graph(6, n_components=2, seed=1)
        with pytest.raises(EigSolverFailure,
                           match=r"^eigenvalues outside \[0, 2\]: \[0\.0, 2\.5\]$"):
            eigendecompose(g, 3)


def _graph_of_sizes(sizes, seed: int):
    """Components of exactly the given sizes, in order: each a random
    spanning tree plus one random extra pair per vertex, every vertex with
    a self-pair."""
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    lo = 0
    for s in sizes:
        i = np.arange(lo + 1, lo + s)
        parent = lo + (rng.random(s - 1) * (i - lo)).astype(np.int64)
        extra = lo + rng.integers(0, s, size=(2, s))
        rows += [i, parent, extra[0], np.arange(lo, lo + s)]
        cols += [parent, i, extra[1], np.arange(lo, lo + s)]
        lo += s
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    w = rng.uniform(0.05, 1.0, size=rows.size)
    J = sparse.coo_array((np.concatenate([w, w]),
                          (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
                         shape=(lo, lo))
    return build_graph(rng.standard_normal((lo, 3)), J / J.sum())


def _lexsorted_indicators(g, n_zero: int):
    """The zero eigenfunctions in the order a lexsort of their rounded
    symmetrized columns gives, the order of the defining convention."""
    labels = connected_components(g).labels
    mass = np.bincount(labels, weights=g.marginal)
    on = np.flatnonzero(labels < n_zero)
    ind = np.zeros((g.n, n_zero))
    ind[on, labels[on]] = 1.0 / np.sqrt(mass[labels[on]])
    keys = np.round((ind * np.sqrt(g.marginal)[:, None])[::-1], 10)
    return ind[:, np.lexsort(keys)]


class TestSolvedPairs:
    SIZES = (2, 31, 32, 33, 255, 256, 257)

    @pytest.fixture(scope="class", params=[SIZES, SIZES[:-1]],
                    ids=["with-257", "up-to-256"])
    def graph(self, request):
        g = _graph_of_sizes(request.param, seed=11)
        assert connected_components(g).n_sets == len(request.param)
        return g

    @pytest.mark.parametrize("need", [1, 40, None])
    def test_nonzero_pairs_match_dense_reference(self, graph, need):
        # with the 257 block, 31/32 vertices go to the stacked solve and 33
        # and up alone: at need 40 the 33 block is solved in full and the
        # 25x blocks by subset.  Without it, every block is stacked.  need
        # None takes every nonzero pair.
        assert max(self.SIZES[:3]) <= spectral._STACK_LIMIT < min(self.SIZES[3:])
        assert self.SIZES[-2] <= spectral._SUBSET_LIMIT < self.SIZES[-1]
        labels = connected_components(graph).labels
        sizes = np.bincount(labels)
        need = need or int(np.sum(sizes - 1))
        vals, vecs, _ = spectral._nonzero_pairs(graph, labels, need)

        inv_sqrt = 1.0 / np.sqrt(graph.marginal)
        M = np.eye(graph.n) - graph.joint.toarray() * inv_sqrt[:, None] * inv_sqrt[None, :]
        M = (M + M.T) * 0.5
        ref_vals, ref_vecs = [], []
        for comp in range(sizes.size):
            on = np.flatnonzero(labels == comp)
            w, v = np.linalg.eigh(M[np.ix_(on, on)])
            block = np.zeros((graph.n, on.size - 1))
            block[on] = v[:, 1:]
            ref_vals.append(w[1:])
            ref_vecs.append(block)
        ref_vals, ref_vecs = np.concatenate(ref_vals), np.hstack(ref_vecs)
        order = np.argsort(ref_vals, kind="stable")[:need]
        np.testing.assert_allclose(vals, ref_vals[order], rtol=0, atol=1e-12)
        assert np.all(np.diff(vals) >= 0)
        np.testing.assert_allclose(
            vecs.T @ vecs, np.eye(need), rtol=0, atol=1e-12)
        if need < ref_vals.size:        # the cut must not split a cluster
            assert np.sort(ref_vals)[need] - vals[-1] > 1e-6
        np.testing.assert_allclose(vecs @ vecs.T,
                                   ref_vecs[:, order] @ ref_vecs[:, order].T,
                                   rtol=0, atol=1e-10)

    @staticmethod
    def _rounding_graph():
        """Components {0, 3}, {1, 2} and {4}.  Vertex 0 carries so little
        mass that its symmetrized value rounds to 0 at 10 decimals, so the
        first component's first shown vertex is 3, not 0."""
        J = np.zeros((5, 5))
        J[0, 3] = J[3, 0] = 1e-24
        J[3, 3], J[1, 2], J[2, 1], J[1, 1], J[4, 4] = 1.0, 0.5, 0.5, 0.2, 0.7
        return build_graph(np.arange(5.0)[:, None], J / J.sum())

    def test_zero_columns_are_the_lexsort_order(self):
        tiny = self._rounding_graph()
        mass = np.bincount(connected_components(tiny).labels, weights=tiny.marginal)
        assert np.round(np.sqrt(tiny.marginal[0] / mass[0]), 10) == 0.0
        cases = [(tiny, (1, 2, 3, 5)),
                 (random_graph(400, n_components=150, seed=3), (1, 149, 150, 300)),
                 (component_cluster_graph(10), (11, 25)),
                 (_graph_of_sizes(self.SIZES, seed=11), (3, 7, 20))]
        for g, counts in cases:
            n_comp = connected_components(g).n_sets
            for count in counts:
                dec = eigendecompose(g, count)
                n_zero = min(count, n_comp)
                expect = _lexsorted_indicators(g, n_zero)
                assert dec.functions[:, :n_zero].tobytes() == expect.tobytes()
                assert np.all(dec.eigenvalues[:n_zero] == 0.0)
        # the skipped vertex decides the order: {4}, then {0, 3} by its
        # vertex 3, then {1, 2}
        dec = eigendecompose(tiny, 3)
        assert [int(np.flatnonzero(col)[-1]) for col in dec.functions.T] == [4, 3, 2]

    def test_zero_pairs_hold_little_beyond_the_output(self):
        # count = #components: nothing is solved, and the zero pairs are
        # written once, straight into the result
        g = random_graph(2500, n_components=2000, seed=6)
        eigendecompose(g, 2000)
        peak = _traced_peak(lambda: eigendecompose(g, 2000))
        assert peak <= 1.5 * g.n * 2000 * 8


def _torus(m: int):
    """The m x m x m discrete torus, each vertex paired with its six
    neighbours at equal weight, and the closed-form spectrum of its L:
    1 - (cos 2pi a/m + cos 2pi b/m + cos 2pi c/m) / 3 over a, b, c < m."""
    idx = np.arange(m ** 3).reshape(m, m, m)
    rows = np.tile(idx.ravel(), 6)
    cols = np.concatenate([np.roll(idx, shift, axis=ax).ravel()
                           for ax in range(3) for shift in (1, -1)])
    J = sparse.coo_array((np.full(rows.size, 1.0 / rows.size), (rows, cols)),
                         shape=(m ** 3, m ** 3))
    verts = np.stack(np.unravel_index(np.arange(m ** 3), (m, m, m)), axis=1)
    cos = np.cos(2.0 * np.pi * np.arange(m) / m)
    closed = 1.0 - (cos[:, None, None] + cos[None, :, None] + cos[None, None, :]) / 3.0
    return build_graph(verts.astype(np.float64), J), np.sort(closed.ravel())


class TestIterativeBlockCompleteness:
    """The 13^3 torus is one 2197-vertex component, above the dense block
    limit, so it is solved iteratively at every count and a missed
    eigenvalue raises instead of falling back to a dense solve.  Its first
    nonzero eigenvalue (1 - cos(2pi/13))/3 has multiplicity 6 and the
    next, 2(1 - cos(2pi/13))/3, multiplicity 12."""

    @pytest.fixture(scope="class")
    def torus(self):
        g, closed = _torus(13)
        assert g.n > spectral._DENSE_BLOCK_LIMIT    # no dense fallback
        first = (1.0 - np.cos(2.0 * np.pi / 13)) / 3.0
        np.testing.assert_allclose(closed[1:7], first, rtol=1e-14)
        assert closed[7] > first + 0.01
        return g, closed

    @pytest.mark.parametrize("count", [5, 8])
    def test_matches_closed_form(self, torus, count):
        # count 5 returns 4 of the 6 equal eigenvalues, count 8 all 6 and
        # one of the next 12: a cut through a multiplicity is no miss
        g, closed = torus
        dec = eigendecompose(g, count)
        np.testing.assert_allclose(dec.eigenvalues, closed[:count], rtol=0, atol=1e-12)
        assert dec.max_residual <= 1e-16
        assert dec.solves["iterative"] == 1

    def test_never_silently_incomplete(self, torus):
        # at counts 19, 20 and 25 eigsh with its default Lanczos vectors
        # converges to one 2(1 - cos)/3 pair too few; the completeness
        # check catches that and the solve with more vectors answers
        g, closed = torus
        for count in (19, 20, 25):
            dec = eigendecompose(g, count)
            np.testing.assert_allclose(dec.eigenvalues, closed[:count],
                                       rtol=0, atol=1e-12)
            assert dec.max_residual <= 1e-16

    def test_dropped_pair_raises(self, torus, monkeypatch):
        # an eigsh that leaves out its smallest pair still returns k true
        # eigenpairs, so only the completeness check can tell
        real = scipy.sparse.linalg.eigsh

        def drop_smallest(A, k, **kwargs):
            if k == 1:
                return real(A, k=k, **kwargs)
            vals, vecs = real(A, k=k + 1, **kwargs)
            keep = np.argsort(vals, kind="stable")[1:]
            return vals[keep], vecs[:, keep]

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", drop_smallest)
        with pytest.raises(EigSolverFailure, match="missed an eigenvalue"):
            eigendecompose(torus[0], 8)


def _dropping_eigsh():
    """An eigsh that leaves out the smallest of k + 1 pairs when asked for
    k > 1: still k true eigenpairs, but not the k smallest."""
    real = scipy.sparse.linalg.eigsh

    def eigsh(A, k, **kwargs):
        if k == 1:
            return real(A, k=k, **kwargs)
        vals, vecs = real(A, k=k + 1, **kwargs)
        keep = np.argsort(vals, kind="stable")[1:]
        return vals[keep], vecs[:, keep]

    return eigsh


class TestRouteAcrossCrossover:
    """Blocks of 257 to 2,048 vertices go to eigsh above the (size, k)
    crossover and to the dense subset solve below it.  Both sides must give
    what scipy's dense solver gives for each component."""

    @staticmethod
    def _reference(g, k: int):
        """The k + 1 smallest nonzero eigenpairs of each component from
        scipy's dense solver, in ascending order: values and symmetrized
        vectors (n, .)."""
        labels = connected_components(g).labels
        inv_sqrt = 1.0 / np.sqrt(g.marginal)
        J = g.joint.tocsr()
        vals, vecs = [], []
        for comp in range(labels.max() + 1):
            on = np.flatnonzero(labels == comp)
            M = np.eye(on.size) - (J[on][:, on].toarray()
                                   * inv_sqrt[on][:, None] * inv_sqrt[on][None, :])
            w, v = scipy.linalg.eigh((M + M.T) * 0.5, subset_by_index=[1, k + 1])
            block = np.zeros((g.n, k + 1))
            block[on] = v
            vals.append(w)
            vecs.append(block)
        vals, vecs = np.concatenate(vals), np.hstack(vecs)
        order = np.argsort(vals, kind="stable")
        return vals[order], vecs[:, order]

    def _check(self, g, k: int):
        """eigendecompose at k nonzero pairs against the reference."""
        n_comp = connected_components(g).n_sets
        dec = eigendecompose(g, n_comp + k)
        ref_vals, ref_vecs = self._reference(g, k)
        assert np.all(dec.eigenvalues[:n_comp] == 0.0)
        np.testing.assert_allclose(dec.eigenvalues[n_comp:], ref_vals[:k], rtol=0, atol=1e-12)
        assert ref_vals[k] - ref_vals[k - 1] > 1e-6     # the cut splits no cluster
        h = dec.functions[:, n_comp:] * np.sqrt(g.marginal)[:, None]
        np.testing.assert_allclose(h @ h.T, ref_vecs[:, :k] @ ref_vecs[:, :k].T,
                                   rtol=0, atol=1e-10)
        assert dec.max_residual <= 1e-16
        return {route: n for route, n in dec.solves.items() if n}

    @pytest.mark.parametrize("size, k, route", [
        (600, 1, "subset"), (1000, 1, "iterative"),
        (600, 4, "subset"), (1000, 4, "iterative"),
        (1000, 10, "subset"), (1300, 10, "iterative")])
    def test_one_block_either_side(self, size, k, route):
        # 1,000 vertices are above the crossover up to k = 4 and below it
        # at k = 10, where 1,300 are above it
        g = random_graph(size, n_components=1, seed=29)
        assert self._check(g, k) == {route: 1}

    @pytest.mark.parametrize("k, routes", [
        (1, {"iterative": 2, "skipped": 1}),
        (4, {"subset": 2, "iterative": 1}),
        (10, {"subset": 2, "iterative": 1})])
    def test_blocks_of_both_routes_merge(self, k, routes):
        # 400, 900 and 1,300 vertices: at k = 1 the two larger ones are
        # iterative and the 400 block holds no pair below theirs; at k = 4
        # and 10 the 900 block is dense and gives pairs too
        g = _graph_of_sizes((400, 900, 1300), seed=29)
        assert self._check(g, k) == routes

    def test_all_above_is_the_second_eigenvalue(self):
        # true just below the smallest nonzero eigenvalue and false just
        # above it, also when u is only near the null vector
        g = random_graph(300, n_components=1, seed=3)
        sqrt_d = np.sqrt(g.marginal)
        r, c, v = g.joint_coo()
        e = v / (sqrt_d[r] * sqrt_d[c])
        lam = _dense_spectrum(g)[1]
        noisy = sqrt_d * (1.0 + 1e-3 * np.random.default_rng(0).standard_normal(g.n))
        for null in (sqrt_d, noisy):
            for bound, above in ((lam - 1e-9, True), (lam + 1e-9, False), (0.5, False)):
                M = spectral._dense_blocks(1, g.n, np.zeros(r.size, np.int64), r, c, e)
                assert spectral._all_above(M[0], null, bound) == above

    @pytest.mark.parametrize("count", [11, 14, 20])
    def test_skipping_changes_no_bit(self, count, monkeypatch):
        # ten components of 257 to 700 vertices: a skipped block has no pair
        # below the cut, so solving it too returns the same bytes
        g = _graph_of_sizes((257, 300, 350, 400, 450, 500, 550, 600, 650, 700), seed=4)
        dec = eigendecompose(g, count)
        monkeypatch.setattr(spectral, "_CUT_MARGIN", float("inf"))
        every = eigendecompose(g, count)
        assert dec.solves["skipped"] >= 1
        assert every.solves["skipped"] == 0
        assert every.solves["subset"] == dec.solves["subset"] + dec.solves["skipped"]
        assert dec.eigenvalues.tobytes() == every.eigenvalues.tobytes()
        assert dec.functions.tobytes() == every.functions.tobytes()
        ref_vals, _ = self._reference(g, count - 10)
        np.testing.assert_allclose(dec.eigenvalues[10:], ref_vals[:count - 10],
                                   rtol=0, atol=1e-12)

    @pytest.fixture(scope="class")
    def torus(self):
        """The 10^3 torus: one 1,000-vertex component whose first nonzero
        eigenvalue is 6-fold."""
        g, closed = _torus(10)
        np.testing.assert_allclose(closed[1:7], closed[1], rtol=1e-14)
        assert closed[7] > closed[1] + 0.01
        return g, closed

    @pytest.mark.parametrize("count, route", [(2, "iterative"), (5, "iterative"),
                                              (8, "subset")])
    def test_torus_matches_closed_form(self, torus, count, route):
        # below the dense block limit, yet iterative up to k = 4; count 5
        # cuts through the 6-fold eigenvalue
        g, closed = torus
        dec = eigendecompose(g, count)
        assert dec.solves[route] == 1
        np.testing.assert_allclose(dec.eigenvalues, closed[:count], rtol=0, atol=1e-12)
        assert dec.max_residual <= 1e-16

    def test_exhausted_retries_fall_back_to_dense(self, monkeypatch):
        # the 11^3 torus at k = 7 is iterative; eigsh drops a pair at every
        # try, which leaves one of the 6 first nonzero eigenvalues out.  With
        # no retries the block goes to the dense subset solve at the first
        # miss, and answers
        g, closed = _torus(11)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", _dropping_eigsh())
        dec = eigendecompose(g, 8)
        assert dec.solves["dense_fallback"] == 1
        assert dec.solves["lanczos_retries"] == spectral._LANCZOS_RETRIES
        monkeypatch.setattr(spectral, "_LANCZOS_RETRIES", 0)
        dec = eigendecompose(g, 8)
        assert dec.solves["dense_fallback"] == 1
        assert dec.solves["lanczos_retries"] == dec.solves["iterative"] == 0
        np.testing.assert_allclose(dec.eigenvalues, closed[:8], rtol=0, atol=1e-12)
        assert dec.max_residual <= 1e-16

    def test_unconverged_solve_falls_back_to_dense(self, torus, monkeypatch):
        # one Lanczos restart cannot converge: ArpackNoConvergence, and the
        # block is solved densely
        g, closed = torus
        monkeypatch.setattr(spectral, "_LANCZOS_MAXITER", 1)
        dec = eigendecompose(g, 2)
        assert dec.solves["dense_fallback"] == 1
        np.testing.assert_allclose(dec.eigenvalues, closed[:2], rtol=0, atol=1e-12)
