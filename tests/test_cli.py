import json
import os
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import rforge.bss
import rforge.cli
import rforge.graphs
from rforge import formats
from rforge.cli import EXIT_CERTIFICATION, EXIT_INPUT, EXIT_OK, build_parser, main, run
from rforge.embed import JohnDecomposition, embed_l1
from rforge.graphs import WeightedGraph, sparsify_graph
from rforge.restricted import ri_select

from oracles import pairwise_l1_distances, read_weights
from test_graphs import dumbbell_graph, heavy_cluster_graph


def write_single_edge(path):
    formats.write_graph(path, WeightedGraph(2, [(0, 1, 1.0)]))
    return str(path)


def cli(*argv):
    return run(build_parser().parse_args([str(a) for a in argv]))


def complete_graph(n, rng):
    """K_n with weights log-uniform in [1, 100]."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    weights = np.exp(rng.uniform(0.0, np.log(100.0), len(pairs)))
    return WeightedGraph(n, [(i, j, float(w)) for (i, j), w in zip(pairs, weights)])


def strip_timing(report):
    return {k: v for k, v in report.items() if k != "wall_clock_s"}


class TestFormats:
    def test_graph_round_trip(self, tmp_path, rng):
        edges = [(0, 3, float(rng.uniform(0.1, 5.0))), (1, 2, np.pi), (2, 3, 1e-17)]
        g = WeightedGraph(4, edges)
        path = tmp_path / "g.edges"
        formats.write_graph(path, g)
        back = formats.read_graph(path)
        assert back.n == g.n
        assert back.edges == g.edges  # exact, including the 17-digit round trip

    def test_matrix_round_trip(self, tmp_path, rng):
        m = rng.standard_normal((4, 3))
        path = tmp_path / "m.mat"
        formats.write_matrix(path, m)
        assert np.array_equal(formats.read_matrix(path), m)

    def test_weights_round_trip(self, tmp_path):
        path = tmp_path / "w.tsv"
        formats.write_weights(path, [3, 1], [0.25, 1.5], {"note": "cert"})
        assert read_weights(path) == {1: 1.5, 3: 0.25}
        sidecar = json.loads((tmp_path / "w.tsv.json").read_text())
        assert sidecar == {"note": "cert"}

    def test_graph_parse_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.edges"
        path.write_text("n 3\n0\t1\t1.0\n0\t1\t2.0\n")
        with pytest.raises(formats.ParseError, match="bad.edges:3"):
            formats.read_graph(path)
        path.write_text("nope\n")
        with pytest.raises(formats.ParseError, match="bad.edges:1"):
            formats.read_graph(path)
        path.write_text("n 2\n0\t5\t1.0\n")
        with pytest.raises(formats.ParseError, match="out of range"):
            formats.read_graph(path)

    def test_comments_and_self_loops(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# a graph\nn 3  # three vertices\n1\t0\t2.0\n2\t2\t9.0\n")
        with pytest.warns(UserWarning, match="self-loop"):
            g = formats.read_graph(path)
        assert g.edges == [(0, 1, 2.0)]

    def test_matrix_shape_errors(self, tmp_path):
        path = tmp_path / "m.mat"
        path.write_text("2 2\n1.0 2.0\n")
        with pytest.raises(formats.ParseError, match="expected 2 data rows"):
            formats.read_matrix(path)

    @pytest.mark.parametrize(
        "reader, text, line, message",
        [
            ("read_graph", "# nothing but a comment\n", 1, "empty graph file; expected a 'n <vertexcount>' header"),
            ("read_graph", "n three\n", 1, "vertex count 'three' is not an integer"),
            ("read_graph", "# header\nn 0\n", 2, "vertex count must be positive, got 0"),
            ("read_graph", "n 3\n0\t1\t1.0\n1\t2\n", 3, "expected 'i<TAB>j<TAB>w', got '1\\t2'"),
            ("read_graph", "n 3\n0\tone\t1.0\n", 2, "could not parse edge fields ['0', 'one', '1.0']"),
            ("read_graph", "n 3\n\n2\t1\t0.0\n", 3, "edge (1, 2) has nonpositive weight 0.0"),
            ("read_graph", "n 3\n0\t1\t1.0\n1\t2\tinf\n", 3, "edge (1, 2) has non-finite weight 'inf'"),
            ("read_graph", "n 3\n2\t0\t1e400\n", 2, "edge (0, 2) has non-finite weight '1e400'"),
            ("read_graph", "n 3\n0\t1\tnan\n", 2, "edge (0, 1) has non-finite weight 'nan'"),
            ("read_graph", "n 3\n0\t1\t1.0\n1\t1\tinf\n", 3, "edge (1, 1) has non-finite weight 'inf'"),
            ("read_graph", "n 3\n0\t1\t1.0\n1\t1\t-1.0\n", 3, "edge (1, 1) has nonpositive weight -1.0"),
            ("read_matrix", "\n# empty\n", 1, "empty matrix file; expected a 'rows cols' header"),
            ("read_matrix", "3\n1 2 3\n", 1, "expected header 'rows cols', got '3'"),
            ("read_matrix", "2 x\n", 1, "header fields ['2', 'x'] are not integers"),
            ("read_matrix", "# shape\n0 2\n", 2, "matrix shape (0, 2) must be positive"),
            ("read_matrix", "2 2\n1 2\n3\n", 3, "expected 2 values, found 1"),
            ("read_matrix", "1 2\n1.0 two\n", 2, "could not parse row ['1.0', 'two']"),
            ("read_matrix", "2 2\n1 2\n3 inf\n", 3, "non-finite value 'inf'"),
            ("read_matrix", "# nan\n1 2\nnan 1\n", 3, "non-finite value 'nan'"),
            ("read_matrix", "2 2\n1 2\n1e400 0\n", 3, "non-finite value '1e400'"),
        ],
    )
    def test_parse_errors_name_path_line_and_cause(self, tmp_path, reader, text, line, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(formats.ParseError) as caught:
            getattr(formats, reader)(path)
        assert (caught.value.path, caught.value.line_number) == (str(path), line)
        assert str(caught.value) == f"{path}:{line}: {message}"

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("2 2\n1 x\n3\n4 5\n", 4, "expected 2 data rows, found 3"),  # the row count first
            ("3 2\n1 inf\n2 nan\n", 3, "expected 3 data rows, found 2"),
            ("2 2\n1 inf\n1 2 3\n", 3, "expected 2 values, found 3"),  # then the first malformed row
            ("3 2\n1 2\nx 1\n1\n", 3, "could not parse row ['x', '1']"),
            ("3 2\n1 2\n-inf 1e999\n1 nan\n", 3, "non-finite value '-inf'"),  # then the first non-finite value
            ("2 3\n1 2 3\n4 5 1e999\n", 3, "non-finite value '1e999'"),
            # a header past what the file can hold allocates nothing of its claimed shape
            ("1000000 1000000\n1 2\n", 2, "expected 1000000 data rows, found 1"),
            ("99999999999999999999 1\n1\n", 2, "expected 99999999999999999999 data rows, found 1"),
            ("1 99999999999999999999\n1 2\n", 2, "expected 99999999999999999999 values, found 2"),
        ],
    )
    def test_matrix_errors_keep_their_order_while_streaming(self, tmp_path, text, line, message):
        path = tmp_path / "bad.mat"
        path.write_text(text)
        with pytest.raises(formats.ParseError) as caught:
            formats.read_matrix(path)
        assert str(caught.value) == f"{path}:{line}: {message}"

    def test_read_matrix_from_a_pipe(self, tmp_path):
        # a pipe's size reads 0 bytes, so the rows get room as they arrive
        path = tmp_path / "m.fifo"
        os.mkfifo(path)
        m = np.random.default_rng(2).standard_normal((9, 4))
        writer = threading.Thread(target=formats.write_matrix, args=(path, m), daemon=True)
        writer.start()
        try:
            back = formats.read_matrix(path)
        finally:
            writer.join(timeout=10.0)
        assert np.array_equal(back, m)

    def test_read_matrix_working_memory(self, tmp_path):
        # 300 x 300 at 17 digits: holding the list of all lines took 2.55 MiB
        path = tmp_path / "m.mat"
        m = np.random.default_rng(1).standard_normal((300, 300))
        formats.write_matrix(path, m)
        tracemalloc.start()
        try:
            back = formats.read_matrix(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, m)
        assert peak < 1.2 * 2**20

    def test_read_graph_working_memory(self, tmp_path):
        # K256 is 32,640 edges and 850 KB: holding the list of all lines took 13.4 MiB
        path = tmp_path / "k256.edges"
        g = complete_graph(256, np.random.default_rng(0))
        formats.write_graph(path, g)
        tracemalloc.start()
        try:
            back = formats.read_graph(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.edges == g.edges
        assert peak < 10 * 2**20


class TestRun:
    def test_sparsify_graph_single_edge(self, tmp_path):
        src = write_single_edge(tmp_path / "g.edges")
        out = str(tmp_path / "h.edges")
        status, report = cli("sparsify-graph", src, "--eps", 0.5, "-o", out)
        assert status == EXIT_OK
        assert report["results"]["output_support_ordered"] == 2
        assert report["results"]["quality_min"] == pytest.approx(1.0, abs=1e-9)
        assert report["results"]["quality_max"] == pytest.approx(1.0, abs=1e-9)
        h = formats.read_graph(out)
        assert h.edge_pairs() == {(0, 1)}

    def test_sparsify_graph_reports_the_certificate_it_whitened_for_once(self, tmp_path, monkeypatch):
        # the heavy K4s and the dumbbells (two K_k of weight H joined by a unit edge) certify on their whole range
        graphs = [
            complete_graph(12, np.random.default_rng(12)),
            complete_graph(24, np.random.default_rng(0)),
            heavy_cluster_graph(16, 4, 1e12),
            heavy_cluster_graph(24, 4, 1e12),
            heavy_cluster_graph(8, 4, 1e16),
            heavy_cluster_graph(8, 4, 1e300),
            dumbbell_graph(16, 1e8),
            dumbbell_graph(8, 1e15),
        ]
        src, out = tmp_path / "g.edges", tmp_path / "h.edges"
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for g in graphs:
            formats.write_graph(src, g)
            calls.update(isotropic_reduce=0, verify_quality=0)
            for module in (rforge.graphs, rforge.bss):
                monkeypatch.setattr(module, "isotropic_reduce", counted("isotropic_reduce", module.isotropic_reduce))
            for module in (rforge.cli, rforge.graphs):
                monkeypatch.setattr(module, "verify_quality", counted("verify_quality", module.verify_quality))
            status, report = cli("sparsify-graph", src, "--eps", 0.5, "-o", out)
            assert status == EXIT_OK
            assert calls == {"isotropic_reduce": 1, "verify_quality": 0}
            monkeypatch.undo()

            cert = sparsify_graph(g, 0.5).certificate
            res = report["results"]
            assert (res["quality_min"], res["quality_max"], res["range_dim"]) == (
                cert.measured_min,
                cert.measured_max,
                cert.range_dim,
            )
            assert res["quality_ceiling"] == cert.high == 9.0
            status, checked = cli("verify", src, out)
            assert status == EXIT_OK
            assert checked["results"]["range_dim"] == res["range_dim"] == g.n - 1
            for key in ("quality_min", "quality_max"):
                assert res[key] == pytest.approx(checked["results"][key], rel=1e-12)
            for quality in (res, checked["results"]):
                assert 1.0 - 1e-9 <= quality["quality_min"] and quality["quality_max"] <= 9.0

    def test_sparsify_graph_edgeless_report(self, tmp_path):
        src = tmp_path / "empty.edges"
        formats.write_graph(src, WeightedGraph(4, []))
        status, report = cli("sparsify-graph", src, "--eps", 0.5)
        assert status == EXIT_OK
        res = report["results"]
        assert (res["range_dim"], res["quality_min"], res["quality_max"]) == (0, 1.0, 1.0)

    def test_verify_identity(self, tmp_path):
        src = write_single_edge(tmp_path / "g.edges")
        status, report = cli("verify", src, src)
        assert status == EXIT_OK
        assert report["results"]["quality_min"] == pytest.approx(1.0, abs=1e-10)
        assert report["results"]["quality_max"] == pytest.approx(1.0, abs=1e-10)

    def test_verify_support_violation_exit_code(self, tmp_path):
        g_path = write_single_edge(tmp_path / "g.edges")
        h_path = str(tmp_path / "h.edges")
        formats.write_graph(h_path, WeightedGraph(2, []))
        # h with an edge absent from g
        formats.write_graph(g_path, WeightedGraph(3, [(0, 1, 1.0)]))
        formats.write_graph(h_path, WeightedGraph(3, [(1, 2, 1.0)]))
        status, report = cli("verify", g_path, h_path)
        assert status == EXIT_CERTIFICATION
        assert report["status"] == "certification-failure"

    def test_verify_split_component_exit_code(self, tmp_path):
        # K8 with weight 1e14 inside {0..3}; h keeps only those heavy edges
        g = heavy_cluster_graph(8, 4, 1e14)
        g_path, h_path = str(tmp_path / "g.edges"), str(tmp_path / "h.edges")
        formats.write_graph(g_path, g)
        formats.write_graph(h_path, WeightedGraph(8, [e for e in g.edges if e[1] < 4]))
        assert main(["verify", g_path, h_path, "--report", str(tmp_path / "v.json")]) == EXIT_CERTIFICATION
        report = json.loads((tmp_path / "v.json").read_text())
        assert report["status"] == "certification-failure"
        assert "disconnects vertices 0 and 4" in report["error"]

    @pytest.mark.parametrize("k, heavy", [(16, 1e16), (20, 1e20)])
    def test_dumbbell_whitening_miss_exit_code(self, tmp_path, k, heavy):
        # two K_k clusters of weight ``heavy`` joined by one unit edge: refined whitening misses isotropy
        path = str(tmp_path / "g.edges")
        formats.write_graph(path, dumbbell_graph(k, heavy))
        for argv in (("sparsify-graph", path, "--eps", 0.5), ("verify", path, path)):
            status, report = cli(*argv)
            assert status == EXIT_CERTIFICATION
            assert report["status"] == "certification-failure"
            assert "identity residual" in report["error"]

    def test_parse_error_exit_code(self, tmp_path):
        for command, name, text, where in (
            ("sparsify-graph", "broken.edges", "not a header\n", "broken.edges:1:"),
            ("embed-l1", "overflow.mat", "2 2\n0 1\n1e400 0\n", "overflow.mat:3:"),
        ):
            path = tmp_path / name
            path.write_text(text)
            status, report = cli(command, path, "--eps", 0.5)
            assert status == EXIT_INPUT
            assert report["status"] == "input-error"
            assert where in report["error"]

    def test_missing_file_exit_code(self, tmp_path):
        status, report = cli("sparsify-graph", tmp_path / "nope", "--eps", 0.5)
        assert status == EXIT_INPUT

    def test_infinite_weight_exit_code(self, tmp_path):
        path = tmp_path / "inf.edges"
        for text in ("n 3\n0\t1\t1.0\n1\t2\tinf\n", "n 3\n0\t1\t1.0\n1\t1\tinf\n"):  # the second on a self-loop
            path.write_text(text)
            status, report = cli("sparsify-graph", path, "--eps", 0.5)
            assert status == EXIT_INPUT
            assert "non-finite" in report["error"]

    def test_zero_frame_exit_code(self, tmp_path):
        src = tmp_path / "zero.mat"
        formats.write_matrix(src, np.zeros((3, 2)))
        status, report = cli("sparsify-frame", src, "--eps", 0.5)
        assert status == EXIT_INPUT
        assert report["status"] == "input-error"
        assert "no positive-energy direction" in report["error"]

    def test_bad_eps_exit_code(self, tmp_path):
        src = write_single_edge(tmp_path / "g.edges")
        status, _ = cli("sparsify-graph", src, "--eps", 1.5)
        assert status == EXIT_INPUT

    def test_cycle_demo_reaches_floor(self):
        status, report = cli("cycle-demo", "--n", 5, "--p", 2, "--q", 4, "--eps", 0.5)
        assert status == EXIT_OK
        assert report["results"]["q_quality_lower_bound"] >= 8.0
        assert report["results"]["p_quality_lower_bound"] <= 1.5 + 1e-9
        assert report["results"]["probes"] >= 500

    def test_cycle_demo_probe_underflow(self):
        # seed 4 draws a probe whose p-energy on h underflows to 0 while g
        # keeps its closing edge; that probe is dropped, not reported as a ratio 0
        status, report = cli("cycle-demo", "--n", 3, "--p", 300, "--q", 301, "--eps", 0.5, "--seed", 4)
        assert status == EXIT_OK
        results = report["results"]
        assert results["p_quality_lower_bound"] == pytest.approx(1.5, rel=1e-12)
        assert results["optimal_scaling"] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert results["probes"] == 500

    @pytest.mark.parametrize(
        "n, p, q",
        [
            (5, 400, 800),  # the standard probes' 400-energies overflow
            (200, 150, 300),  # the path weight (n-1)^(p-1)/eps overflows
            (200, 2, 150),  # the ramp's 150-energy overflows
        ],
    )
    def test_cycle_demo_overflow_exit_code(self, n, p, q):
        status, report = cli("cycle-demo", "--n", n, "--p", p, "--q", q, "--eps", 0.5)
        assert status == EXIT_INPUT
        assert report["status"] == "input-error" and "float64" in report["error"]
        text = json.dumps(report)
        assert "NaN" not in text and "Infinity" not in text

    def test_sparsify_frame_writes_certificate(self, tmp_path, rng):
        thin = np.random.default_rng(0).standard_normal((40, 3))
        thin[:, 2] *= 1e-10  # a Gram matrix would square this column's scale below its rank floor
        frames = [
            (rng.standard_normal((12, 3)), 0.6),
            (np.random.default_rng(0).standard_normal((60, 6)), 0.5),
            (thin, 0.5),
        ]
        src, out = tmp_path / "frame.mat", tmp_path / "weights.tsv"
        for vectors, eps in frames:
            formats.write_matrix(src, vectors)
            status, report = cli("sparsify-frame", src, "--eps", eps, "-o", out)
            assert status == EXIT_OK and report["status"] == "ok"
            weights = read_weights(out)
            assert 0 < len(weights) <= report["derived"]["support_bound"]
            cert = json.loads((tmp_path / "weights.tsv.json").read_text())
            assert cert["range_dim"] == vectors.shape[1]
            assert cert["quadratic_ratio_min"] >= (1 - eps) ** 2 - 1e-8
            assert cert["quadratic_ratio_max"] <= (1 + eps) ** 2 + 1e-8
            # the weighted form in an orthonormal basis of the frame's span, from the written weights
            idx, w = np.array(list(weights)), np.array(list(weights.values()))
            q = np.linalg.qr(vectors)[0][idx]
            lam = np.linalg.eigvalsh((q * w[:, None]).T @ q)
            assert lam[0] >= cert["quadratic_ratio_min"] * (1 - 1e-9)
            assert lam[-1] <= cert["quadratic_ratio_max"] * (1 + 1e-9)

    def test_sparsify_frame_rank_deficient(self, tmp_path, rng):
        vectors = rng.standard_normal((10, 4))
        vectors[:, 3] = vectors[:, 0] - vectors[:, 1]  # rank 3
        src = tmp_path / "frame.mat"
        formats.write_matrix(src, vectors)
        status, report = cli("sparsify-frame", src, "--eps", 0.5)
        assert status == EXIT_OK
        res = report["results"]
        assert res["quadratic_ratio_min"] >= (1 - 0.5) ** 2 - 1e-8
        assert res["quadratic_ratio_max"] <= (1 + 0.5) ** 2 + 1e-8

    def test_sparsify_frame_report_matches_span_pencil(self, tmp_path, rng):
        eps = 0.5
        vectors = rng.standard_normal((60, 6)) * np.exp(rng.uniform(-2.0, 2.0, 6))
        vectors[:, 5] = vectors[:, 1] + vectors[:, 4]  # rank 5
        src = tmp_path / "frame.mat"
        formats.write_matrix(src, vectors)
        out = tmp_path / "weights.tsv"
        status, report = cli("sparsify-frame", src, "--eps", eps, "-o", out)
        assert status == EXIT_OK
        res = report["results"]
        assert json.loads((tmp_path / "weights.tsv.json").read_text()) == res
        # independent reference: the generalized eigenproblem of the weighted
        # and plain sums, restricted to the span of the input frame
        dense = np.zeros(len(vectors))
        for idx, w in read_weights(out).items():
            dense[idx] = w
        weighted = (vectors * dense[:, None]).T @ vectors
        plain = vectors.T @ vectors
        lam, vecs = np.linalg.eigh(0.5 * (plain + plain.T))
        basis = vecs[:, lam > vectors.shape[1] * np.finfo(float).eps * lam[-1]]
        pencil = scipy.linalg.eigh(basis.T @ weighted @ basis, basis.T @ plain @ basis, eigvals_only=True)
        assert res["range_dim"] == basis.shape[1] == 5
        assert abs(res["quadratic_ratio_min"] - pencil[0]) <= 1e-12
        assert abs(res["quadratic_ratio_max"] - pencil[-1]) <= 1e-12
        assert (res["target_low"], res["target_high"]) == ((1 - eps) ** 2, (1 + eps) ** 2)
        assert res["margin"] == min(
            res["quadratic_ratio_min"] - res["target_low"], res["target_high"] - res["quadratic_ratio_max"]
        )
        assert res["headroom"] == res["target_high"] - res["quadratic_ratio_max"]
        assert res["headroom"] > 1.0  # the margin is ~0 by construction; the headroom is not

    def test_ri_select_round_trip(self, tmp_path, rng):
        n, eps = 8, 0.8
        operators = (
            np.eye(n) + 0.05 * rng.standard_normal((n, n)),
            1e-3 * rng.standard_normal((n, n)),
            np.random.default_rng(0).standard_normal((60, 60)),
        )
        for t in operators:
            src = tmp_path / "op.mat"
            formats.write_matrix(src, t)
            status, report = cli("ri-select", src, "--eps", eps, "-o", tmp_path / "sel.tsv")
            assert status == EXIT_OK
            assert list(report) == [
                "command", "input", "sizes", "eps", "derived", "results", "status", "blas_threads", "wall_clock_s"
            ]
            assert list(report["derived"]) == ["stable_rank", "selection_size"]
            assert list(report["results"]) == ["selected", "gram_min_eigenvalue", "certified_floor"]
            # independent references: numpy norms and the eigenvalues of the selected columns' Gram
            hs, op = np.linalg.norm(t, "fro") ** 2, np.linalg.norm(t, 2) ** 2
            selected, res = report["results"]["selected"], report["results"]
            assert len(selected) == report["derived"]["selection_size"] == int(np.floor(eps**2 * hs / op))
            assert report["derived"]["stable_rank"] == pytest.approx(hs / op, rel=1e-12)
            cols = t[:, selected]
            assert res["gram_min_eigenvalue"] == pytest.approx(np.linalg.eigvalsh(cols.T @ cols)[0], rel=1e-12)
            assert res["certified_floor"] == pytest.approx((1 - eps) ** 2 * hs / t.shape[1], rel=1e-12)
            assert res["gram_min_eigenvalue"] >= res["certified_floor"]
            assert read_weights(tmp_path / "sel.tsv") == {idx: 1.0 for idx in selected}

    def test_ri_select_empty_selection(self, tmp_path):
        src = tmp_path / "op.mat"
        formats.write_matrix(src, np.diag([1.0, 1e-3]))  # stable rank ~1, so k = 0
        with pytest.warns(UserWarning, match="stable rank"):
            status, report = cli("ri-select", src, "--eps", 0.8)
        assert status == EXIT_OK
        assert report["derived"]["selection_size"] == 0
        assert report["results"] == {"selected": [], "gram_min_eigenvalue": 0.0, "certified_floor": None}

    def test_ri_select_overflowing_gram_exit_code(self, tmp_path, rng):
        src = tmp_path / "op.mat"
        formats.write_matrix(src, 1e160 * rng.standard_normal((8, 8)))
        status, report = cli("ri-select", src, "--eps", 0.8)
        assert status == EXIT_INPUT
        assert "overflows" in report["error"]

    def test_embed_l1_report(self, tmp_path, rng):
        pts = rng.standard_normal((8, 3))
        src = tmp_path / "pts.mat"
        formats.write_matrix(src, pts)
        out = tmp_path / "embedded.mat"
        status, report = cli("embed-l1", src, "--eps", 0.9, "-o", out)
        assert status == EXIT_OK
        res = report["results"]
        assert res["distortion_min"] >= 1.0 - 1e-8
        assert res["distortion_max"] <= 1.9 + 1e-8
        assert res["target_dimension"] <= report["derived"]["dimension_bound"]
        embedded = formats.read_matrix(out)
        assert embedded.shape == (8, res["target_dimension"])

    def test_embed_l1_distortions_match_oracle(self, tmp_path, rng):
        point_sets = (
            rng.standard_normal((12, 3)),
            np.random.default_rng(0).standard_normal((40, 6)),
            np.random.default_rng(0).integers(0, 5, (24, 4)).astype(float),  # with coincident points
        )
        src, out = tmp_path / "pts.mat", tmp_path / "embedded.mat"
        for pts in point_sets:
            formats.write_matrix(src, pts)
            status, report = cli("embed-l1", src, "--eps", 0.5, "-o", out)
            assert status == EXIT_OK and report["status"] == "ok"
            res, cert = report["results"], embed_l1(pts, 0.5).certificate
            assert (res["distortion_min"], res["distortion_max"], res["distortion_ceiling"], res["range_dim"]) == (
                cert.measured_min,
                cert.measured_max,
                cert.high,
                cert.range_dim,
            )
            assert 1.0 - 1e-12 <= res["distortion_min"] and res["distortion_max"] <= res["distortion_ceiling"]
            direct = pairwise_l1_distances(pts)
            mask = direct > 0
            ratios = pairwise_l1_distances(formats.read_matrix(out))[mask] / direct[mask]
            assert ratios.min() >= res["distortion_min"] * (1.0 - 1e-12)
            assert ratios.max() <= res["distortion_max"] * (1.0 + 1e-12)

    def test_embed_l1_unresolved_cut_span_exit_code(self, tmp_path):
        src, out = tmp_path / "pts.mat", tmp_path / "embedded.mat"
        pts = np.array([[0.0], [1.0], [1.0 + 2.0**-52]])  # a 2^-52 cut is resolved
        formats.write_matrix(src, pts)
        status, report = cli("embed-l1", src, "--eps", 0.5, "-o", out)
        assert status == EXIT_OK
        res = report["results"]
        assert res["range_dim"] == 2
        direct = pairwise_l1_distances(pts)
        ratios = pairwise_l1_distances(formats.read_matrix(out))[direct > 0] / direct[direct > 0]
        assert ratios.min() >= res["distortion_min"] * (1.0 - 1e-12)
        assert ratios.max() <= res["distortion_max"] * (1.0 + 1e-12)
        formats.write_matrix(src, np.array([[0.0], [1e-40], [1.0]]))  # a 1e-40 cut is not
        status, report = cli("embed-l1", src, "--eps", 0.5)
        assert status == EXIT_CERTIFICATION
        assert report["status"] == "certification-failure"
        assert "span directions" in report["error"]

    def test_embed_lp_report(self, tmp_path, rng):
        basis = rng.standard_normal((2, 20))
        src = tmp_path / "basis.mat"
        formats.write_matrix(src, basis)
        status, report = cli("embed-lp", src, "--p", 4, "--eps", 0.5, "-o", tmp_path / "lp.tsv")
        assert status == EXIT_OK
        assert report["results"]["sampled_distortion_max"] <= 1.5 + 1e-8
        # the same 200 seeded draws, one vector at a time, from the written weights
        weights = read_weights(tmp_path / "lp.tsv")
        draws = np.random.default_rng(report["seed"])
        worst = 1.0
        for _ in range(200):
            x = draws.standard_normal(2) @ basis
            norm = np.sum(x**4) ** 0.25
            if norm > 0.0:
                worst = max(worst, sum(w * x[i] ** 4 for i, w in weights.items()) ** 0.25 / norm)
        assert report["results"]["sampled_distortion_max"] == pytest.approx(worst, rel=1e-12)

    def test_embed_lp_certified_distortion_brackets_written_embedding(self, tmp_path, rng):
        # 3 x 300 is past the support bound 238, so the barrier loop runs; 3 x 200 keeps every coordinate
        cases = (
            (rng.standard_normal((3, 300)), rng),
            (np.random.default_rng(0).standard_normal((3, 200)), np.random.default_rng(1)),
            (np.random.default_rng(0).standard_normal((3, 300)), np.random.default_rng(1)),
        )
        src = tmp_path / "basis.mat"
        for basis, draws in cases:
            formats.write_matrix(src, basis)
            status, report = cli("embed-lp", src, "--p", 4, "--eps", 0.9, "-o", tmp_path / "lp.tsv")
            assert status == EXIT_OK and report["status"] == "ok"
            res = report["results"]
            m = basis.shape[1]
            assert (res["selected_count"] < m if m > 238 else res["selected_count"] == m) and res["range_dim"] == 6
            assert 1.0 - 1e-12 <= res["distortion_min"] <= res["distortion_max"] <= res["distortion_ceiling"]
            assert res["distortion_ceiling"] == 1.9**0.25
            weights = read_weights(tmp_path / "lp.tsv")
            idx, w = np.array(list(weights)), np.array(list(weights.values()))
            x4 = np.square(np.square(draws.standard_normal((20000, 3)) @ basis))
            ratios = (np.sum(w * x4[:, idx], axis=1) / np.sum(x4, axis=1)) ** 0.25
            assert ratios.min() >= res["distortion_min"] * (1.0 - 1e-12)
            assert ratios.max() <= res["distortion_max"] * (1.0 + 1e-12)

    def test_john_approx_report(self, tmp_path):
        points = np.vstack([np.eye(3), -np.eye(3)])
        weights = np.full(6, 0.5)
        src = tmp_path / "john.mat"
        formats.write_matrix(src, np.column_stack([points, weights]))
        status, report = cli("john-approx", src, "--eps", 0.8)
        assert status == EXIT_OK
        assert report["results"]["identity_residual"] <= 1e-8
        assert report["results"]["center_of_mass_max"] == 0.0

    def test_john_approx_writes_decomposition(self, tmp_path):
        src, out = tmp_path / "john.mat", tmp_path / "thinned.mat"
        formats.write_matrix(src, np.column_stack([np.vstack([np.eye(3), -np.eye(3)]), np.full(6, 0.5)]))
        status, report = cli("john-approx", src, "--eps", 0.8, "-o", out)
        assert status == EXIT_OK
        written = formats.read_matrix(out)
        assert written.shape[0] == report["results"]["output_points"]
        JohnDecomposition(3, written[:, :-1], written[:, -1]).validate()

    def test_john_approx_needs_weight_column(self, tmp_path):
        src = tmp_path / "john.mat"
        formats.write_matrix(src, np.ones((4, 1)))
        status, report = cli("john-approx", src, "--eps", 0.8)
        assert status == EXIT_INPUT
        assert "weight column" in report["error"]

    def test_john_approx_non_finite_exit_code(self, tmp_path):
        raw = np.column_stack([np.vstack([np.eye(3), -np.eye(3)]), np.full(6, 0.5)])
        raw[2, 1] = np.nan
        src = tmp_path / "john.mat"
        formats.write_matrix(src, raw)
        status, report = cli("john-approx", src, "--eps", 0.8)
        assert status == EXIT_INPUT
        assert report["error"] == f"{src}:4: non-finite value 'nan'"

    def test_embed_lp_non_finite_exit_code(self, tmp_path, rng):
        basis = rng.standard_normal((2, 20))
        basis[0, 5] = np.inf
        src = tmp_path / "basis.mat"
        formats.write_matrix(src, basis)
        status, report = cli("embed-lp", src, "--p", 4, "--eps", 0.5)
        assert status == EXIT_INPUT
        assert report["error"] == f"{src}:2: non-finite value 'inf'"

    def test_ri_select_non_square_exit_code(self, tmp_path, rng):
        src = tmp_path / "op.mat"
        for t in (rng.standard_normal((4, 6)), np.random.default_rng(0).standard_normal((24, 48))):
            formats.write_matrix(src, t)
            status, report = cli("ri-select", src, "--eps", 0.8)
            assert status == EXIT_OK and report["status"] == "ok"
            assert report["sizes"] == {"rows": t.shape[0], "columns": t.shape[1]}
            result = ri_select(t, 0.8)
            res = report["results"]
            assert res["selected"] == result.selected and len(result.selected) >= 1
            assert res["gram_min_eigenvalue"] == result.certificate.measured_min >= res["certified_floor"]
            assert res["certified_floor"] == result.certificate.low == pytest.approx(0.2**2 * np.sum(t * t) / t.shape[1])

    def test_verify_edgeless_reference(self, tmp_path):
        src = tmp_path / "empty.edges"
        formats.write_graph(src, WeightedGraph(4, []))
        status, report = cli("verify", src, src)
        assert status == EXIT_OK
        res = report["results"]
        assert (res["range_dim"], res["quality_min"], res["quality_max"]) == (0, 1.0, 1.0)

    def test_sparsify_graph_disconnected_has_no_gap_ratio(self, tmp_path):
        src, path = tmp_path / "triangles.edges", tmp_path / "g.json"
        edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (3, 4, 1.0), (3, 5, 1.0), (4, 5, 1.0)]
        formats.write_graph(src, WeightedGraph(6, edges))
        assert main(["sparsify-graph", str(src), "--eps", "0.5", "--report", str(path)]) == EXIT_OK
        res = json.loads(path.read_text())["results"]
        assert res["range_dim"] == 4
        assert "spectral_gap_ratio" not in res

    def test_runner_key_error_propagates(self, tmp_path, monkeypatch):
        # no bad-input path raises KeyError, so one is a fault in the runner, not an input error
        def broken(args):
            raise KeyError("results")

        monkeypatch.setitem(rforge.cli._RUNNERS, "verify", broken)
        src = write_single_edge(tmp_path / "g.edges")
        with pytest.raises(KeyError, match="results"):
            cli("verify", src, src)

    def test_reports_deterministic(self, tmp_path, rng):
        vectors = rng.standard_normal((10, 3))
        src = tmp_path / "frame.mat"
        formats.write_matrix(src, vectors)
        _, first = cli("sparsify-frame", src, "--eps", 0.7)
        _, second = cli("sparsify-frame", src, "--eps", 0.7)
        assert strip_timing(first) == strip_timing(second)
        assert list(first.keys()) == list(second.keys())


class TestMain:
    def test_main_writes_report_file(self, tmp_path):
        src = write_single_edge(tmp_path / "g.edges")
        report_path = tmp_path / "report.json"
        status = main(
            [
                "sparsify-graph",
                src,
                "--eps",
                "0.5",
                "-o",
                str(tmp_path / "h.edges"),
                "--report",
                str(report_path),
            ]
        )
        assert status == 0
        report = json.loads(report_path.read_text())
        assert report["status"] == "ok"
        assert report["command"] == "sparsify-graph"

    def test_main_cycle_demo_stdout(self, capsys):
        status = main(["cycle-demo", "--n", "5", "--p", "2", "--q", "4", "--eps", "0.5"])
        assert status == 0
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["q_quality_lower_bound"] >= 8.0

    def test_flags_no_runner_reads_are_rejected(self, tmp_path, capsys):
        src = write_single_edge(tmp_path / "g.edges")
        for argv in (
            ["sparsify-graph", src, "--eps", "0.5", "--seed", "1"],
            ["verify", src, src, "--seed", "1"],
            ["verify", src, src, "-o", "h"],
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == EXIT_INPUT
            assert "unrecognized arguments" in capsys.readouterr().err
        for argv in (
            ["embed-lp", src, "--p", "4", "--eps", "0.5"],
            ["cycle-demo", "--n", "5", "--p", "2", "--q", "4", "--eps", "0.5"],
        ):
            assert build_parser().parse_args([*argv, "--seed", "3"]).seed == 3

    def test_cycle_demo_working_memory(self, tmp_path):
        # 502 probes (the two witnesses and 500 standard probes) of a 5,000-vertex cycle; the p-energies
        # took 4.02 times the probe array when they were one product over every probe
        probe_array = 502 * 5000 * 8
        tracemalloc.start()
        try:
            status = main(["cycle-demo", "--n", "5000", "--p", "2", "--q", "4", "--eps", "0.5",
                           "--report", str(tmp_path / "cycle.json")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert status == 0
        assert json.loads((tmp_path / "cycle.json").read_text())["results"]["probes"] == 502
        assert peak < 1.6 * probe_array

    def test_cycle_demo_reports_are_byte_identical(self, tmp_path):
        argv = ["cycle-demo", "--n", "400", "--p", "2", "--q", "4", "--eps", "0.5", "--seed", "3", "--report"]
        texts = []
        for name in ("first.json", "second.json"):
            assert main([*argv, str(tmp_path / name)]) == 0
            lines = (tmp_path / name).read_text().splitlines(keepends=True)
            texts.append("".join(line for line in lines if '"wall_clock_s"' not in line))
        assert texts[0] == texts[1]
        assert len(texts[0]) > 200

    def test_seed_flag_changes_probes(self, capsys):
        main(["cycle-demo", "--n", "5", "--p", "2", "--q", "4", "--eps", "0.5", "--seed", "7"])
        first = json.loads(capsys.readouterr().out)
        main(["cycle-demo", "--n", "5", "--p", "2", "--q", "4", "--eps", "0.5", "--seed", "7"])
        second = json.loads(capsys.readouterr().out)
        assert first["seed"] == 7
        assert strip_timing(first) == strip_timing(second)
