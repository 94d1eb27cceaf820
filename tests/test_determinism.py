"""Results must not depend on the BLAS thread count at these sizes.

Each case runs in a fresh interpreter, because OpenBLAS reads its thread
count once, when numpy is first imported.  K20 runs with dlaed9 hidden, so
it takes the full eigh at every barrier step, and K64 the rank-one update;
``rforge ri-select`` runs on a 120 x 120 operator.  Larger inputs are not
covered: at K100 the selected edges still agree, but weights differ in the
last few bits between 1 and 2 threads (see README).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from test_cli import strip_timing

from rforge import formats

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

# K64's steps take the rank-one update.
rng = np.random.default_rng(64)
n = 64
edges = [(i, j, float(w)) for (i, j), w in zip(
    [(i, j) for i in range(n) for j in range(i + 1, n)],
    np.exp(rng.uniform(0.0, np.log(100.0), n * (n - 1) // 2)),
)]
history = []
h = sparsify_graph(WeightedGraph(n, edges), 0.5, history=history)
print(repr(h.edges))
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
    formats.write_matrix(operator, np.random.default_rng(120).standard_normal((120, 120)))
    single = run_with_threads(1, operator, tmp_path / "ri-1.json")
    assert single.count("\n") == 6
    assert single.splitlines()[1] == "True"  # K20 took the full eigh at every step
    assert int(single.splitlines()[-1]) > 0  # the update path ran
    assert run_with_threads(2, operator, tmp_path / "ri-2.json") == single

    reports = [strip_timing(json.loads((tmp_path / f"ri-{n}.json").read_text())) for n in (1, 2)]
    assert reports[0]["status"] == "ok" and len(reports[0]["results"]["selected"]) >= 10
    assert json.dumps(reports[0]) == json.dumps(reports[1])
