import itertools
import json
import math
import tracemalloc
import warnings
import numpy as np
import pytest
import scipy.linalg

import rforge.bss
import rforge.linalg
from rforge import formats
from rforge.bss import sparsify_frame, support_bound
from rforge.cli import build_parser, run
from rforge.errors import CertificationError
from rforge.linalg import Certificate, Frame, _components, isotropic_reduce

from oracles import (
    adjacency,
    components_union_find,
    laplacian,
    pencil_mpmath,
    weight_form_elimination_oracle,
    weighted_graph_loop_check,
)
from rforge.graphs import (
    WeightedGraph,
    edge_frame,
    sparsify_graph,
    verify_quality,
)


def complete_graph(n, weight=1.0):
    return WeightedGraph(n, [(i, j, weight) for i in range(n) for j in range(i + 1, n)])


def random_graph(rng, n, density):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                edges.append((i, j, float(rng.uniform(0.5, 2.0))))
    if not edges:
        edges = [(0, 1, 1.0)]
    return WeightedGraph(n, edges)


def log_weighted(rng, n, pairs):
    weights = np.exp(rng.uniform(0.0, math.log(100.0), len(pairs)))
    return WeightedGraph(n, [(i, j, float(w)) for (i, j), w in zip(pairs, weights)])


def heavy_cluster_graph(n, size, heavy):
    """K_n with weight ``heavy`` on the edges inside {0..size-1}, 1 elsewhere."""
    return WeightedGraph(
        n, [(i, j, heavy if j < size else 1.0) for i, j in itertools.combinations(range(n), 2)]
    )


def dumbbell_graph(k, heavy):
    """Two K_k clusters of weight ``heavy`` on {0..k-1} and {k..2k-1}, joined by the unit edge (k-1, k)."""
    cluster = [(i, j, heavy) for i, j in itertools.combinations(range(k), 2)]
    return WeightedGraph(2 * k, cluster + [(k - 1, k, 1.0)] + [(k + i, k + j, w) for i, j, w in cluster])


def connected_block(rng, size, level):
    """A path on range(size) plus each other pair with probability 0.3, weights level * U[1, 2]."""
    pairs = [(i, j) for i, j in itertools.combinations(range(size), 2) if j == i + 1 or rng.random() < 0.3]
    return [(i, j, level * float(rng.uniform(1.0, 2.0))) for i, j in pairs]


PANEL_CASES = ["zero pivot inside a panel", "zero pivot as a panel's last vertex", "1e12 cluster across a panel edge"]


def panel_graph(n, case):
    """A graph on n vertices, relabelled at random, whose light-first elimination order puts a zero pivot
    or a heavy cluster at chosen places relative to whitening's 32-vertex panels.

    Returns the graph and, in elimination positions, the zero pivots (components' last vertices) or the
    heavy cluster; the weight levels between blocks fix those positions, and the tests check them.
    """
    rng = np.random.default_rng(n)
    if case == "zero pivot inside a panel":  # components end at positions 19, (49,) n - 1
        sizes = [20, n - 20] if n < 64 else [20, 30, n - 50]
        edges, start = [], 0
        for level, size in enumerate(sizes):
            edges += [(start + i, start + j, w) for i, j, w in connected_block(rng, size, 1e3**level)]
            start += size
        where = list(np.cumsum(sizes) - 1)
    elif case == "zero pivot as a panel's last vertex" and n <= 32:
        edges, where = connected_block(rng, n, 1.0), [n - 1]
    elif case == "zero pivot as a panel's last vertex":
        # 8 leaves of weight 10 go first, then a K24 with weights in [1, 2] (degrees 23-46) ends its
        # component at position 31; the leaves' centre (degree 80) is 32, and a heavy block follows
        edges = [(i, 32, 10.0) for i in range(8)]
        edges += [(8 + i, 8 + j, float(rng.uniform(1.0, 2.0))) for i, j in itertools.combinations(range(24), 2)]
        edges += [(33 + i, 33 + j, w) for i, j, w in connected_block(rng, n - 33, 1e3)]
        where = sorted({31, 32, n - 1})
    else:  # a 1e12 clique on the last max(4, n - 28) positions, across 31|32 (and 63|64) for n > 32
        size = max(4, n - 28)
        weights = {(i, j): w for i, j, w in connected_block(rng, n, 1.0)}
        weights.update({pair: 1e12 for pair in itertools.combinations(range(n - size, n), 2)})
        edges, where = [(i, j, w) for (i, j), w in weights.items()], list(range(n - size, n))
    label = rng.permutation(n)
    return WeightedGraph(n, [(min(label[i], label[j]), max(label[i], label[j]), w) for i, j, w in edges]), where


def sparse_random_graph(rng, n, components):
    """A random graph on n vertices, 4n edges and 1 or 2 connected components, relabelled at random: each
    component is a random tree plus random pairs inside it; weights are log-uniform in [1, 100]."""
    label = rng.permutation(n)
    side = np.zeros(n, dtype=int)
    side[label[n // 2 :]] = components - 1
    pairs = set()
    for members in (label,) if components == 1 else (label[: n // 2], label[n // 2 :]):
        pairs |= {tuple(sorted((int(members[k]), int(members[rng.integers(k)])))) for k in range(1, len(members))}
    while len(pairs) < 4 * n:
        i, j = sorted(int(v) for v in rng.integers(n, size=2))
        if i != j and side[i] == side[j]:
            pairs.add((i, j))
    pairs = np.array(sorted(pairs))
    return WeightedGraph.from_arrays(n, pairs[:, 0], pairs[:, 1], np.exp(rng.uniform(0.0, math.log(100.0), len(pairs))))


def factored_test_graphs(rng):
    """Graphs whose edge frames run the barrier loop at eps 0.5."""
    pairs30 = list(itertools.combinations(range(30), 2))
    picks = sorted(rng.choice(len(pairs30), 150, replace=False))
    return {
        "weighted K12": log_weighted(rng, 12, list(itertools.combinations(range(12), 2))),
        "sparse random": log_weighted(rng, 30, [pairs30[k] for k in picks]),
        "two components": log_weighted(
            rng, 20, [(i, j) for i, j in itertools.combinations(range(20), 2) if (i < 10) == (j < 10)]
        ),
        "isolated vertex": log_weighted(rng, 13, list(itertools.combinations(range(12), 2))),
        # weights spanning 1e12; elimination keeps the heavy rows O(w^-1/2), so the gather holds
        "heavy cluster": heavy_cluster_graph(16, 6, 1e12),
    }


class TestWeightedGraph:
    def test_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightedGraph(3, [(0, 1, 1.0), (0, 1, 2.0)])
        with pytest.raises(ValueError, match="0 <= i < j"):
            WeightedGraph(3, [(1, 0, 1.0)])
        with pytest.raises(ValueError, match="nonpositive"):
            WeightedGraph(3, [(0, 1, 0.0)])

    def test_non_finite_weight_rejected(self):
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match=r"edge \(1, 2\) .*non-finite"):
                WeightedGraph(3, [(0, 1, 1.0), (1, 2, bad)])


class TestArrayGraph:
    """The array-backed graph against the edge-by-edge validation it replaced."""

    BAD = [
        (3, [(1, 0, 1.0)]),
        (3, [(1, 1, 1.0)]),
        (3, [(0, 3, 1.0)]),
        (3, [(-1, 2, 1.0)]),
        (3, [(0, 1, 1.0), (1, 2, 1.0), (0, 1, 2.0)]),
        (3, [(0, 1, 0.0)]),
        (3, [(0, 1, 1.0), (1, 2, -2.5)]),
        (3, [(0, 1, math.inf)]),
        (3, [(0, 1, 1.0), (0, 2, math.nan)]),
        (3, [(0, 1, -1.0), (0, 1, 2.0)]),
        (3, [(0, 1, 1.0), (0, 1, -1.0), (2, 1, 1.0)]),
        (3, [(0, 2, 1.0), (0, 5, 0.0), (0, 2, 1.0)]),
        (10**10, [(5, 10**9, 1.0), (5, 10**9 + 1, 1.0), (5, 10**9, 2.0)]),
        (0, []),
        (-2, [(0, 1, 1.0)]),
    ]

    @staticmethod
    def loop_message(n, edges):
        try:
            weighted_graph_loop_check(n, edges)
        except ValueError as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("n, edges", BAD)
    def test_rejects_what_the_loop_rejects(self, n, edges):
        want = self.loop_message(n, edges)
        assert want is not None
        with pytest.raises(ValueError) as caught:
            WeightedGraph(n, edges)
        assert str(caught.value) == want

    def test_random_edge_lists_match_the_loop(self, rng):
        weights = [1.0, 2.5, 0.0, -1.0, math.inf, math.nan, 1e-300]
        for _ in range(300):
            n = int(rng.integers(1, 6))
            edges = [
                (int(rng.integers(-1, n + 1)), int(rng.integers(-1, n + 1)), weights[rng.integers(len(weights))])
                for _ in range(int(rng.integers(0, 6)))
            ]
            want = self.loop_message(n, edges)
            if want is None:
                assert WeightedGraph(n, edges).edges == weighted_graph_loop_check(n, edges)
            else:
                with pytest.raises(ValueError) as caught:
                    WeightedGraph(n, edges)
                assert str(caught.value) == want

    def test_components_match_union_find(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 40))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 2.0 / n]
            g = WeightedGraph(n, [(i, j, 1.0) for i, j in rng.permutation(pairs).tolist()] if pairs else [])
            assert _components(g.n, g.heads, g.tails).tolist() == components_union_find(n, g.edges)
        path = WeightedGraph(64, [(j, j + 1, 1.0) for j in range(63)][::-1])
        assert _components(path.n, path.heads, path.tails).tolist() == [0] * 64

    def test_edges_are_python_numbers(self):
        g = WeightedGraph(4, [(np.int64(0), 2, np.float64(4.0)), (1, 3, 0.25)])
        assert g.edges == [(0, 2, 4.0), (1, 3, 0.25)]
        assert all(type(i) is int and type(j) is int and type(w) is float for i, j, w in g.edges)
        assert json.loads(json.dumps(g.edges)) == [[0, 2, 4.0], [1, 3, 0.25]]
        assert WeightedGraph(3).edges == [] and WeightedGraph(3).edge_count == 0

    def test_arrays_are_read_only_copies(self):
        heads, tails, weights = np.array([0, 1]), np.array([1, 2]), np.array([1.0, 2.0])
        g = WeightedGraph.from_arrays(3, heads, tails, weights)
        weights[0] = -1.0
        assert g.weights.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            g.weights[0] = 5.0
        with pytest.raises(ValueError, match="equal length"):
            WeightedGraph.from_arrays(3, heads, tails, weights[:1])
        with pytest.raises(ValueError, match="triples"):
            WeightedGraph(3, [(0, 1), (1, 2)])

    def test_array_and_tuple_graphs_sparsify_identically(self, rng):
        pairs = np.array(list(itertools.combinations(range(24), 2)))
        weights = np.exp(rng.uniform(0.0, math.log(100.0), len(pairs)))
        from_arrays = WeightedGraph.from_arrays(24, pairs[:, 0], pairs[:, 1], weights)
        from_tuples = WeightedGraph(24, [(int(i), int(j), float(w)) for (i, j), w in zip(pairs, weights)])
        assert from_arrays.edges == from_tuples.edges
        h_arrays, h_tuples = sparsify_graph(from_arrays, 0.5), sparsify_graph(from_tuples, 0.5)
        assert np.array_equal(h_arrays.heads, h_tuples.heads)
        assert np.array_equal(h_arrays.tails, h_tuples.tails)
        assert np.array_equal(h_arrays.weights, h_tuples.weights)

    def test_sparsify_and_verify_form_no_edge_by_vertex_matrix(self, rng):
        # weighted K64: one m x n float64 array is 2016 * 64 * 8 bytes
        g = log_weighted(rng, 64, list(itertools.combinations(range(64), 2)))
        budget = g.edge_count * g.n * 8
        tracemalloc.start()
        try:
            verify_quality(g, sparsify_graph(g, 0.5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert budget == 1_032_192
        assert peak < budget

    def test_whitening_working_memory(self):
        # 256 vertices and 1,024 edges; whitening peaked at 4.62 MiB while it kept the elimination's
        # two n x n arrays, an LU's copies and the unrefined basis alive through the refinement (2.60 MiB now)
        g = sparse_random_graph(np.random.default_rng(0), 256, 1)
        frame = edge_frame(g)
        assert (g.n, g.edge_count) == (256, 1024)
        tracemalloc.start()
        try:
            isotropic_reduce(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestLaplacian:
    def test_single_edge(self):
        g = WeightedGraph(2, [(0, 1, 1.0)])
        assert np.allclose(laplacian(g), [[1.0, -1.0], [-1.0, 1.0]])

    def test_triangle(self):
        lap = laplacian(complete_graph(3))
        assert np.allclose(np.diag(lap), [2.0, 2.0, 2.0])
        assert np.allclose(lap - np.diag(np.diag(lap)), -1 + np.eye(3))
        assert np.allclose(sorted(np.linalg.eigvalsh(lap)), [0.0, 3.0, 3.0], atol=1e-12)

    def test_empty_graph(self):
        assert np.array_equal(laplacian(WeightedGraph(3, [])), np.zeros((3, 3)))

    def test_quadratic_form_identity(self, rng):
        # <L y, y> equals half the double sum of w_ij (y_i - y_j)^2
        for _ in range(5):
            g = random_graph(rng, 7, 0.5)
            lap = laplacian(g)
            a = adjacency(g)
            for _ in range(100):
                y = rng.standard_normal(7)
                direct = 0.5 * sum(
                    a[i, j] * (y[i] - y[j]) ** 2 for i in range(7) for j in range(7)
                )
                assert y @ lap @ y == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_row_sums_zero(self, rng):
        g = random_graph(rng, 9, 0.4)
        assert np.max(np.abs(laplacian(g).sum(axis=1))) <= 1e-10


class TestEdgeFrame:
    def test_scaling(self):
        g = WeightedGraph(2, [(0, 1, 4.0)])
        frame = edge_frame(g)
        assert frame.vectors is None
        assert np.allclose(frame.rows(), [[2.0, -2.0]])

    def test_outer_products_sum_to_laplacian(self, rng):
        g = random_graph(rng, 8, 0.6)
        frame = edge_frame(g)
        assert np.max(np.abs(frame.gram() - laplacian(g))) <= 1e-10

    def test_triangle_gram(self):
        frame = edge_frame(complete_graph(3))
        assert frame.size == 3
        assert np.max(np.abs(frame.gram() - laplacian(complete_graph(3)))) <= 1e-12

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            edge_frame(WeightedGraph(2, []))

    def test_carries_incidence_factor(self):
        g = WeightedGraph(4, [(0, 2, 4.0), (1, 3, 0.25), (2, 3, 1.0)])
        inc = edge_frame(g).incidence
        assert inc.heads.tolist() == [0, 1, 2] and inc.tails.tolist() == [2, 3, 3]
        assert inc.weights.tolist() == [4.0, 0.25, 1.0]
        assert np.array_equal(inc.basis, np.eye(4))


class TestFactoredScoring:
    """Edge frames scored from n x n matrices against their dense rows."""

    @pytest.mark.parametrize(
        "name", ["weighted K12", "sparse random", "two components", "isolated vertex", "heavy cluster"]
    )
    def test_factored_run_matches_dense_run(self, rng, name):
        frame = isotropic_reduce(edge_frame(factored_test_graphs(rng)[name]))
        factored, dense = [], []
        weights = sparsify_frame(frame, 0.5, history=factored)
        dense_frame = Frame(frame.rows(), isotropy_certified=True)
        dense_weights = sparsify_frame(dense_frame, 0.5, history=dense)
        assert len(factored) == len(dense) > 0
        assert [r["chosen"] for r in factored] == [r["chosen"] for r in dense]
        for got, want in zip(factored, dense):
            for key, value in want.items():
                # abs: spectrum_min is a rounding-level zero until A has full rank
                assert got[key] == pytest.approx(value, rel=1e-9, abs=1e-12), key
        assert np.array_equal(weights.support, dense_weights.support)
        assert weights.weights == pytest.approx(dense_weights.weights, rel=1e-9)


class TestSparsifyGraph:
    def test_single_edge_identity_quality(self):
        g = WeightedGraph(2, [(0, 1, 3.0)])
        h = sparsify_graph(g, 0.5)
        assert h.edge_pairs() == {(0, 1)}
        report = verify_quality(g, h)
        assert report.min_quotient == pytest.approx(1.0, abs=1e-9)
        assert report.max_quotient == pytest.approx(1.0, abs=1e-9)

    def test_tree_keeps_every_edge_exactly(self, rng):
        # a tree has n-1 edges on an (n-1)-dim range: no barrier step runs
        n = 9
        g = WeightedGraph(
            n, [(int(rng.integers(0, j)), j, float(rng.uniform(0.1, 10.0))) for j in range(1, n)]
        )
        h = sparsify_graph(g, 0.3)
        assert h.edge_pairs() == g.edge_pairs()
        report = verify_quality(g, h)
        assert report.min_quotient == pytest.approx(1.0, abs=1e-12)
        assert report.max_quotient == pytest.approx(1.0, abs=1e-12)

    def test_complete_graph_support_and_quality(self):
        eps = 0.6
        g = complete_graph(8)
        h = sparsify_graph(g, eps)
        assert h.ordered_support_size <= 2 * math.ceil(8 / eps**2)
        assert h.edge_pairs() <= g.edge_pairs()
        report = verify_quality(g, h)
        assert report.min_quotient >= 1.0 - 1e-8
        assert report.max_quotient <= ((1 + eps) / (1 - eps)) ** 2 + 1e-8

    def test_disconnected_components(self):
        # two triangles; kernel has dimension 2 and must be preserved
        edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0)]
        g = WeightedGraph(6, edges)
        h = sparsify_graph(g, 0.7)
        lap_g = laplacian(g)
        lap_h = laplacian(h)
        lam_g = np.linalg.eigvalsh(lap_g)
        lam_h = np.linalg.eigvalsh(lap_h)
        assert np.sum(lam_g < 1e-9) == 2
        assert np.sum(lam_h < 1e-9 * max(1.0, lam_h[-1])) == 2
        report = verify_quality(g, h)
        assert report.range_dim == 4
        assert report.min_quotient >= 1.0 - 1e-8

    def test_empty_graph(self):
        h = sparsify_graph(WeightedGraph(4, []), 0.5)
        assert h.edge_count == 0

    def test_certificate_matches_verify_quality(self, rng):
        cases = [
            (log_weighted(rng, 24, list(itertools.combinations(range(24), 2))), 0.5),
            (factored_test_graphs(rng)["two components"], 0.7),
            (heavy_cluster_graph(16, 4, 1e15), 0.5),
            (heavy_cluster_graph(24, 4, 1e12), 0.5),
        ]
        for g, eps in cases:
            h = sparsify_graph(g, eps)
            cert, report = h.certificate, verify_quality(g, h)
            assert (cert.low, cert.high) == (1.0, ((1 + eps) / (1 - eps)) ** 2)
            assert cert.range_dim == report.range_dim
            assert cert.measured_min == pytest.approx(report.min_quotient, rel=1e-12)
            assert cert.measured_max == pytest.approx(report.max_quotient, rel=1e-12)

    def test_certificate_only_on_sparsifier_output(self, tmp_path):
        g = complete_graph(5)
        assert g.certificate is None
        path = tmp_path / "h.edges"
        formats.write_graph(path, sparsify_graph(g, 0.5))
        assert formats.read_graph(path).certificate is None
        with pytest.raises(TypeError):
            WeightedGraph(2, [(0, 1, 1.0)], certificate=None)
        empty = sparsify_graph(WeightedGraph(4, []), 0.5).certificate
        assert empty == Certificate(1.0, 9.0, 1.0, 1.0, 0)

    def test_underflowing_scaled_weight_raises(self):
        # in whitening's units (largest weight in [0.5, 1)) 1e-30 next to 1e300 rounds to 0, which
        # splits vertices 2 and 3 off; the range check refuses before any barrier step
        g = WeightedGraph(4, [(i, j, 1e300 if j < 2 else 1e-30) for i, j in itertools.combinations(range(4), 2)])
        history = []
        with pytest.raises(CertificationError, match="resolved 1 of the Laplacian's 3 range"):
            sparsify_graph(g, 0.5, history=history)
        assert history == []
        with pytest.raises(CertificationError, match="resolved 1 of the Laplacian's 3 range"):
            verify_quality(g, g)

    def test_underflowing_path_raises_on_every_edge_frame_path(self):
        # 1e-30 next to 1e300 underflows in whitening's units: the frame path must refuse as the graph path does
        frame = edge_frame(WeightedGraph(3, [(0, 1, 1e300), (1, 2, 1e-30)]))
        for whiten in (isotropic_reduce, lambda f: sparsify_frame(f, 0.5)):
            with pytest.raises(CertificationError, match="resolved 1 of the Laplacian's 2 range"):
                whiten(frame)

    def test_gram_without_cholesky_factor_raises(self, monkeypatch):
        # whitening refines against the Gram of its eliminated basis, so that Gram must be positive definite
        monkeypatch.setattr(Frame, "gram", lambda frame: -np.eye(frame.ambient_dim))
        with pytest.raises(CertificationError, match="not positive definite"):
            isotropic_reduce(edge_frame(complete_graph(4)))

    @pytest.mark.parametrize("k, heavy", [(16, 1e50), (24, 1e50)])
    def test_dumbbell_whitening_miss_raises(self, k, heavy):
        # refined whitening misses the 1e-8 isotropy check here: a refusal, not bad input
        g = dumbbell_graph(k, heavy)
        with pytest.raises(CertificationError, match="identity residual"):
            sparsify_graph(g, 0.5)
        with pytest.raises(CertificationError, match="identity residual"):
            verify_quality(g, g)

    def test_power_of_four_weight_scaling(self, rng):
        g = log_weighted(rng, 16, list(itertools.combinations(range(16), 2)))
        h = sparsify_graph(g, 0.5)
        for j in (-200, -50, 50, 200):
            scaled = sparsify_graph(WeightedGraph(g.n, [(i, k, w * 4.0**j) for i, k, w in g.edges]), 0.5)
            assert [e[:2] for e in scaled.edges] == [e[:2] for e in h.edges]
            assert [e[2] for e in scaled.edges] == [e[2] * 4.0**j for e in h.edges]

    def test_subnormal_weights_keep_the_support(self, rng):
        # weights times 4^-520 are subnormal, so already rounded: only the support must match,
        # and edge scoring in whitening's units must not overflow
        g = log_weighted(rng, 16, list(itertools.combinations(range(16), 2)))
        tiny = WeightedGraph.from_arrays(g.n, g.heads, g.tails, g.weights * 4.0**-520)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = sparsify_graph(tiny, 0.5)
        assert scaled.edge_pairs() == sparsify_graph(g, 0.5).edge_pairs()

    def test_overflowing_output_weights_raise(self):
        # every input weight is finite; lifted onto [1, theta^2] at eps 0.9 some pass float64's top
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no overflow RuntimeWarning escapes
            with pytest.raises(ValueError, match="overflow float64 at the input's scale"):
                sparsify_graph(complete_graph(24, 1e307), 0.9)

    def test_random_graphs_certified(self, rng):
        for density in (0.3, 1.0):
            g = random_graph(rng, 10, density)
            eps = 0.7
            h = sparsify_graph(g, eps)
            assert h.ordered_support_size <= 2 * support_bound(10, eps)
            report = verify_quality(g, h)
            assert report.min_quotient >= 1.0 - 1e-8
            assert report.max_quotient <= ((1 + eps) / (1 - eps)) ** 2 + 1e-8


class TestVerifyQuality:
    def test_identity_sparsifier(self):
        g = complete_graph(5)
        report = verify_quality(g, g)
        assert report.min_quotient == pytest.approx(1.0, abs=1e-10)
        assert report.max_quotient == pytest.approx(1.0, abs=1e-10)

    def test_doubled_weights(self):
        g = complete_graph(5)
        h = WeightedGraph(5, [(i, j, 2 * w) for i, j, w in g.edges])
        report = verify_quality(g, h)
        assert report.min_quotient == pytest.approx(2.0, rel=1e-10)
        assert report.max_quotient == pytest.approx(2.0, rel=1e-10)

    def test_support_violation_witness(self):
        g = WeightedGraph(3, [(0, 1, 1.0)])
        h = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        with pytest.raises(CertificationError, match=r"\(1, 2\)"):
            verify_quality(g, h)

    def test_split_component_raises(self):
        # H keeps only the heavy K4 inside {0..3}; numerically its quotients
        # against G look like 1.0 on a 3-dimensional range
        g = heavy_cluster_graph(8, 4, 1e14)
        h = WeightedGraph(8, [e for e in g.edges if e[1] < 4])
        with pytest.raises(CertificationError, match="disconnects vertices 0 and 4"):
            verify_quality(g, h)

    def test_support_counts_reported(self, tmp_path):
        path = tmp_path / "k4.edges"
        formats.write_graph(path, complete_graph(4))
        status, report = run(build_parser().parse_args(["verify", str(path), str(path)]))
        assert status == 0
        assert report["results"]["reference_support_ordered"] == 12
        assert report["results"]["candidate_support_ordered"] == 12

    @pytest.mark.parametrize("n", [16, 24])
    def test_wide_weights_certify_the_whole_range(self, n):
        # eigenvalues span ~1e12: a relative kernel cut at 1e-8 would keep
        # only the heavy cluster's 3 directions
        g = heavy_cluster_graph(n, 4, 1e12)
        report = verify_quality(g, sparsify_graph(g, 0.5))
        assert report.range_dim == n - 1
        assert report.min_quotient >= 1.0 - 1e-3
        assert report.max_quotient <= 9.0 + 1e-3

    @pytest.mark.parametrize("heavy", [1e12, 1e15, 1e16, 1e20, 1e30, 1e100])
    @pytest.mark.parametrize("n", [8, 16, 24])
    def test_wide_weights_match_mpmath_pencil(self, n, heavy):
        # lambda_1 / lambda_r reaches ~1e14 at 1e15, so a whitening taken from L_G's own
        # eigenvectors is off by ~eps_mach * lambda_1 / lambda_r (0.99995 and 0.922 on K24,
        # where the pencil's minimum is 1); vertex elimination subtracts nothing
        pytest.importorskip("mpmath")
        self.assert_matches_mpmath(heavy_cluster_graph(n, 4, heavy))

    @pytest.mark.parametrize("heavy", [1e4, 1e8, 1e12])
    def test_dumbbells_match_mpmath_pencil(self, heavy, monkeypatch):
        # the gather's rounding bound fails on the 120 edges of the cluster without the ground
        # vertex, so every step scores them from their rows (bss._edge_scores' fallback)
        pytest.importorskip("mpmath")
        scored = []
        row_scores = rforge.bss._row_scores
        monkeypatch.setattr(
            rforge.bss, "_row_scores", lambda rows, *a: scored.append(len(rows)) or row_scores(rows, *a)
        )
        self.assert_matches_mpmath(dumbbell_graph(16, heavy))
        assert sum(scored) > 0

    @pytest.mark.parametrize("k, heavy", [(8, 1e15), (8, 1e16), (8, 1e20), (16, 1e14), (16, 1e16), (20, 1e20)])
    def test_refined_dumbbells_match_mpmath_pencil(self, k, heavy):
        # heavy clusters joined by a light edge: these pass the 1e-8 isotropy check only after whitening's refinement
        pytest.importorskip("mpmath")
        self.assert_matches_mpmath(dumbbell_graph(k, heavy))

    def test_heavy_triangle_matches_mpmath_pencil(self):
        pytest.importorskip("mpmath")
        self.assert_matches_mpmath(WeightedGraph(3, [(0, 1, 1e16), (0, 2, 1.0), (1, 2, 1.0)]))

    @staticmethod
    def assert_matches_mpmath(g):
        h = sparsify_graph(g, 0.5)
        low, high = pencil_mpmath(g, h)
        report = verify_quality(g, h)
        assert report.range_dim == g.n - 1
        assert report.min_quotient == pytest.approx(low, rel=1e-9)
        assert report.max_quotient == pytest.approx(high, rel=1e-9)

    def reference_cases(self, rng):
        # (G, H, component indicators of G); the indicators span L_G's kernel
        k16 = log_weighted(rng, 16, list(itertools.combinations(range(16), 2)))
        yield k16, sparsify_graph(k16, 0.5), np.ones((16, 1))
        pairs = [(i, j) for i, j in itertools.combinations(range(12), 2) if (i < 6) == (j < 6)]
        two_k6 = log_weighted(rng, 12, pairs)
        reweighted = WeightedGraph(12, [(i, j, w * rng.uniform(0.5, 2.0)) for i, j, w in two_k6.edges])
        indicators = np.zeros((12, 2))
        indicators[:6, 0] = indicators[6:, 1] = 1.0
        yield two_k6, reweighted, indicators

    def test_matches_scipy_pencil(self, rng):
        for g, h, indicators in self.reference_cases(rng):
            basis = scipy.linalg.null_space(indicators.T)
            pencil = scipy.linalg.eigh(
                basis.T @ laplacian(h) @ basis, basis.T @ laplacian(g) @ basis, eigvals_only=True
            )
            report = verify_quality(g, h)
            assert report.range_dim == basis.shape[1]
            assert report.min_quotient == pytest.approx(pencil[0], rel=1e-12)
            assert report.max_quotient == pytest.approx(pencil[-1], rel=1e-12)


class TestEdgeWhiteningPanels:
    """Edge whitening eliminates by 32-vertex panels; its results must not depend on where a panel ends."""

    @staticmethod
    def checked_oracle(g, case, where):
        basis, order, pivots = weight_form_elimination_oracle(g)
        if case == PANEL_CASES[2]:
            heavy = {v for i, j, w in g.edges if w == 1e12 for v in (i, j)}
            assert [k for k, v in enumerate(order) if v in heavy] == where
        else:
            assert list(np.flatnonzero(pivots == 0.0)) == where
        return basis

    @pytest.mark.parametrize("case", PANEL_CASES)
    @pytest.mark.parametrize("n", [31, 32, 33, 65, 97])
    def test_matches_the_scalar_elimination(self, n, case):
        g, where = panel_graph(n, case)
        basis = self.checked_oracle(g, case, where)
        frame = isotropic_reduce(edge_frame(g))
        assert frame.isotropy_certified and frame.ambient_dim == basis.shape[1]
        np.testing.assert_allclose(frame.incidence.basis, basis, rtol=1e-14, atol=0.0)
        for j in (-200, -50, 50, 200):  # weights times 4^j whiten to the same basis, bit for bit
            scaled = WeightedGraph.from_arrays(n, g.heads, g.tails, g.weights * 4.0**j)
            assert np.array_equal(isotropic_reduce(edge_frame(scaled)).incidence.basis, frame.incidence.basis)

    @pytest.mark.parametrize(
        "n, case", [(n, case) for n in (31, 32, 33) for case in PANEL_CASES] + [(65, PANEL_CASES[2])]
    )
    def test_matches_mpmath_pencil(self, n, case):
        # each component's pencil in 60 digits; n = 97 meets only the oracle, as its pencil takes about 7 s
        pytest.importorskip("mpmath")
        g, _ = panel_graph(n, case)
        factors = np.random.default_rng(n + 1).uniform(1.0, 2.0, g.edge_count)
        h = WeightedGraph.from_arrays(n, g.heads, g.tails, g.weights * factors)
        label = np.array(components_union_find(n, g.edges))
        pencils = []
        for root in np.unique(label):
            members = np.flatnonzero(label == root)
            local = {v: k for k, v in enumerate(members)}
            pencils.append(
                pencil_mpmath(
                    *(WeightedGraph(members.size, [(local[i], local[j], w) for i, j, w in x.edges if i in local])
                      for x in (g, h))
                )
            )
        report = verify_quality(g, h)
        assert report.range_dim == n - np.unique(label).size
        assert report.min_quotient == pytest.approx(min(low for low, _ in pencils), rel=1e-9)
        assert report.max_quotient == pytest.approx(max(high for _, high in pencils), rel=1e-9)

    @pytest.mark.parametrize("r", [31, 32, 33, 64, 65])
    def test_refinement_solves_by_panels(self, r, monkeypatch):
        # both triangular solves, M^-T and W C^-T, around the 32-row panels; two components, so two rows are grounded
        g = sparse_random_graph(np.random.default_rng(r), r + 2, 2)
        solves, solve = [], rforge.linalg._upper_solve

        def recorded(u, b):  # the solve overwrites b
            solves.append((u, b.copy(), solve(u, b)))
            return solves[-1][2]

        monkeypatch.setattr(rforge.linalg, "_upper_solve", recorded)
        basis = isotropic_reduce(edge_frame(g)).incidence.basis
        (u, b, inverse), (c, w, refined) = solves
        assert u.shape == b.shape == (r + 2, r + 2) and c.shape == (r, r) and w.shape == (r, r + 2)
        assert np.array_equal(c, np.triu(c)) and np.tril(u, -1).any()  # whitening leaves its fill below M^T
        for upper, rhs, x in solves:  # only the upper triangle is read
            assert np.array_equal(solve(np.triu(upper), rhs.copy()), x)
            reference = np.linalg.solve(np.triu(upper), rhs)
            assert np.max(np.abs(x - reference)) <= 1e-15 * np.max(np.abs(reference))
        # M^T = I - (the multipliers), which are nonnegative, so M^-T is too
        assert np.array_equal(np.diag(u), np.ones(r + 2)) and np.all(np.triu(u, 1) <= 0.0)
        assert np.array_equal(b, np.eye(r + 2)) and np.all(inverse >= 0.0)
        multipliers = np.triu(np.random.default_rng(r).uniform(0.0, 1.0, (r, r)), 1)
        assert np.all(solve(np.eye(r) - multipliers, np.eye(r)) >= 0.0)
        np.testing.assert_array_equal(basis, refined[::-1].T)
        grounded = ~w.any(axis=0)
        assert np.count_nonzero(grounded) == 2
        assert np.array_equal(basis[grounded], np.zeros((2, r))) and basis[~grounded].any(axis=1).all()
        for j in (-200, -50, 50, 200):  # weights times 4^j whiten to the same basis, bit for bit
            scaled = WeightedGraph.from_arrays(g.n, g.heads, g.tails, g.weights * 4.0**j)
            assert np.array_equal(isotropic_reduce(edge_frame(scaled)).incidence.basis, basis)

    @pytest.mark.parametrize("k", range(4, 44, 4))
    def test_dumbbells_verify_or_refuse(self, k):
        # K_k-K_k joined by a unit edge: after its one refinement against the per-edge Gram, whitening passes the
        # 1e-8 isotropy check on all 130 cases, and the quotients of (L_G, L_G) are 1 to rounding (observed within
        # 3.4e-15); heavier clusters still refuse (test_dumbbell_whitening_miss_raises)
        for heavy in [1e10, 3e10, 1e11, 3e11, 1e12, 3e12, 1e13, 3e13, 1e14, 3e14, 1e15, 1e16, 1e20]:
            report = verify_quality(dumbbell_graph(k, heavy), dumbbell_graph(k, heavy))
            assert report.range_dim == 2 * k - 1
            spread = max(1.0 - report.min_quotient, report.max_quotient - 1.0)
            assert spread <= 1e-12

    def test_edge_gram_matches_exact_sum(self):
        # Frame.gram of the whitened K8-K8 at 1e15 against sum_e w_e d_e d_e^T in 50 digits, from the same floats
        mpmath = pytest.importorskip("mpmath")
        inc = isotropic_reduce(edge_frame(dumbbell_graph(8, 1e15))).incidence
        r = inc.basis.shape[1]
        with mpmath.workdps(50):
            exact = mpmath.zeros(r)
            for i, j, w in zip(inc.heads, inc.tails, inc.weights):
                d = [mpmath.mpf(float(a)) - mpmath.mpf(float(b)) for a, b in zip(inc.basis[i], inc.basis[j])]
                for a in range(r):
                    for b in range(r):
                        exact[a, b] += mpmath.mpf(float(w)) * d[a] * d[b]
            exact = np.array(exact.tolist(), dtype=float)
        gram = Frame(incidence=inc).gram()
        assert np.max(np.abs(gram - exact)) <= 1e-14
