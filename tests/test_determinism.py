"""Results must not depend on the caller's BLAS thread count.

Each public engine call runs numpy's OpenBLAS on one thread and gives the
caller's count back when it returns (``linalg._one_blas_thread``).  The
end-to-end cases run in a fresh interpreter at ``OPENBLAS_NUM_THREADS`` 1
and 2, because OpenBLAS reads that variable once, when numpy is first
imported: K20 with dlaed9 hidden, so it takes the full eigh at every barrier
step; John thinning; K128, which takes the rank-one update at every step;
and ``rforge ri-select`` on a 300 x 300 operator.  Without the pin, K128's
certificate and the operator's ``stable_rank`` differ in their last bits
between the two counts.  The unit tests below change the count in process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_cli import strip_timing

import rforge.graphs
from rforge import (
    Frame,
    JohnDecomposition,
    WeightedGraph,
    approximate_john,
    embed_l1,
    embed_lp_even,
    formats,
    linalg,
    ri_select,
    sparsify_frame,
    sparsify_graph,
    verify_quality,
)
from rforge.cli import build_parser, run
from rforge.nonlinear import DEFAULT_PROBE_SEED, _energies, _with_standard_probes, cycle_counterexample

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
import numpy as np
from rforge import JohnDecomposition, WeightedGraph, approximate_john, linalg, sparsify_graph
from rforge.cli import main

# Without dlaed9, K20's steps take the full eigh.
dlaed9, linalg._dlaed9 = linalg._dlaed9, lambda: None
rng = np.random.default_rng(20)
n = 20
edges = [(i, j, float(w)) for (i, j), w in zip(
    [(i, j) for i in range(n) for j in range(i + 1, n)],
    np.exp(rng.uniform(0.0, np.log(100.0), n * (n - 1) // 2)),
)]
history = []
h = sparsify_graph(WeightedGraph(n, edges), 0.5, history=history)
print(repr(h.edges))
print(len(history) > 0 and all(record["eigensolve"] == "full" for record in history))
linalg._dlaed9 = dlaed9

rows = []
for _ in range(8):
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    rows += [q.T, -q.T]
points = np.vstack(rows)
out = approximate_john(JohnDecomposition(6, points, np.full(len(points), 1.0 / 16)), 0.8)
print(repr(out.points.tolist()))
print(repr(out.weights.tolist()))

# K128's steps take the rank-one update.
rng = np.random.default_rng(128)
n = 128
edges = [(i, j, float(w)) for (i, j), w in zip(
    [(i, j) for i in range(n) for j in range(i + 1, n)],
    np.exp(rng.uniform(0.0, np.log(100.0), n * (n - 1) // 2)),
)]
history = []
h = sparsify_graph(WeightedGraph(n, edges), 0.5, history=history)
print(repr(h.edges))
print(repr(h.certificate))
print(sum(record["eigensolve"] == "update" for record in history))

operator, report = sys.argv[1:]
sys.exit(main(["ri-select", operator, "--eps", "0.8", "--report", report]))
"""


def run_with_threads(threads, operator, report):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(operator), str(report)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_outputs_identical_with_one_and_two_threads(tmp_path):
    operator = tmp_path / "op.mat"
    formats.write_matrix(operator, np.random.default_rng(7).standard_normal((300, 300)))
    single = run_with_threads(1, operator, tmp_path / "ri-1.json")
    assert single.count("\n") == 7
    assert single.splitlines()[1] == "True"  # K20 took the full eigh at every step
    assert int(single.splitlines()[-1]) == 508  # K128 took the update at every step
    assert run_with_threads(2, operator, tmp_path / "ri-2.json") == single

    reports = [strip_timing(json.loads((tmp_path / f"ri-{n}.json").read_text())) for n in (1, 2)]
    assert reports[0]["status"] == "ok" and len(reports[0]["results"]["selected"]) >= 10
    assert json.dumps(reports[0]) == json.dumps(reports[1])


@pytest.fixture
def two_threads():
    """numpy's OpenBLAS at 2 threads for one test; yields the count's getter."""
    controls = linalg._blas_thread_controls()
    if controls is None:
        pytest.skip("numpy exports no OpenBLAS thread-count symbols")
    get, put = controls
    before = get()
    put(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS would not run at 2 threads")
        yield get
    finally:
        put(before)


def test_caller_count_comes_back_after_return_and_raise(two_threads, rng):
    seen = []

    @linalg._one_blas_thread
    def fails():
        seen.append(linalg._blas_threads())
        raise RuntimeError("inside")

    with pytest.raises(RuntimeError, match="inside"):
        fails()
    assert seen == [1] and two_threads() == 2
    with pytest.raises(ValueError):
        ri_select(np.ones((3, 3)), 1.5)
    assert two_threads() == 2

    weights = sparsify_frame(Frame(rng.standard_normal((30, 4))), 0.5)
    assert weights.support.size > 0 and two_threads() == 2
    status, report = run(build_parser().parse_args(["cycle-demo", "--n", "5", "--p", "2", "--q", "4", "--eps", "0.5"]))
    assert status == 0 and report["blas_threads"] == 1 and two_threads() == 2


def test_p_energies_do_not_depend_on_the_thread_count(two_threads):
    # 502 probes of a 10,000-vertex cycle: at 2 threads OpenBLAS splits a block's product between the
    # threads, and rows 472-474 and 499 then took their last bit from another summation order
    g, h, witnesses = cycle_counterexample(10_000, 2.0, 0.5)
    probes = _with_standard_probes(witnesses, seed=DEFAULT_PROBE_SEED)
    for graph in (g, h):
        at_two = _energies(graph, probes, 2.0)
        assert two_threads() == 2
        assert np.array_equal(at_two, linalg._one_blas_thread(_energies)(graph, probes, 2.0))


def test_nested_call_does_not_give_the_count_back_early(two_threads, monkeypatch):
    inner, after_inner = rforge.graphs.sparsify_frame, []

    def watched(*args, **kwargs):
        out = inner(*args, **kwargs)
        after_inner.append(linalg._blas_threads())
        return out

    monkeypatch.setattr(rforge.graphs, "sparsify_frame", watched)
    g = WeightedGraph(6, [(i, j, 1.0 + i + j) for i in range(6) for j in range(i + 1, 6)])
    sparsify_graph(g, 0.5)
    assert after_inner == [1] and two_threads() == 2


def test_every_pinned_call_runs_without_the_symbols(monkeypatch, rng):
    monkeypatch.setattr(linalg, "_blas_thread_controls", lambda: None)
    g = WeightedGraph(6, [(i, j, 1.0 + i + j) for i in range(6) for j in range(i + 1, 6)])
    h = sparsify_graph(g, 0.5)
    assert verify_quality(g, h).range_dim == 5
    assert sparsify_frame(Frame(rng.standard_normal((30, 4))), 0.5).support.size > 0
    assert len(ri_select(rng.standard_normal((12, 12)), 0.8).selected) > 0
    assert embed_l1(rng.integers(0, 10, (6, 2)).astype(float), 0.5).k > 0
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    points = np.vstack([q.T, -q.T])
    assert approximate_john(JohnDecomposition(3, points, np.full(6, 0.5)), 0.8).size > 0
    assert embed_lp_even(rng.standard_normal((2, 12)), 4, 0.5).support.size > 0
    status, report = run(build_parser().parse_args(["cycle-demo", "--n", "5", "--p", "2", "--q", "4", "--eps", "0.5"]))
    assert status == 0 and report["blas_threads"] is None


def test_a_missing_openblas_symbol_reads_none(monkeypatch):
    # both loaders resolve through linalg._openblas, so a numpy without the symbols gives None from each
    assert linalg._openblas("no_such_openblas_symbol", None) is None
    monkeypatch.setattr(linalg, "_openblas", lambda name, *types: None)
    assert linalg._blas_thread_controls() is None and linalg._dlaed9() is None
