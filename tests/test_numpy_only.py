"""The runtime needs numpy and the standard library only.

The check runs in a fresh interpreter with ``sys.modules["scipy"] = None``,
which makes every scipy import raise ImportError, then imports rforge and
runs every CLI command.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

sys.modules["scipy"] = None

import itertools

import numpy as np

from rforge import WeightedGraph, formats
from rforge.cli import main

rng = np.random.default_rng(7)
pairs = list(itertools.combinations(range(12), 2))
weights = np.exp(rng.uniform(0.0, np.log(100.0), len(pairs)))
formats.write_graph("g.edges", WeightedGraph(12, [(i, j, float(w)) for (i, j), w in zip(pairs, weights)]))
formats.write_matrix("basis.mat", rng.standard_normal((2, 20)))
formats.write_matrix("op.mat", rng.standard_normal((24, 24)))
q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
points = np.vstack([q.T, -q.T])
formats.write_matrix("john.mat", np.column_stack([points, np.full(6, 0.5)]))
formats.write_matrix("frame.mat", rng.standard_normal((30, 4)))
formats.write_matrix("points.mat", rng.standard_normal((8, 3)))

commands = [
    ["sparsify-graph", "g.edges", "--eps", "0.5", "-o", "h.edges"],
    ["verify", "g.edges", "h.edges"],
    ["embed-lp", "basis.mat", "--p", "4", "--eps", "0.5"],
    ["ri-select", "op.mat", "--eps", "0.8", "-o", "sel.tsv"],
    ["john-approx", "john.mat", "--eps", "0.8"],
    ["sparsify-frame", "frame.mat", "--eps", "0.5", "-o", "weights.tsv"],
    ["embed-l1", "points.mat", "--eps", "0.5", "-o", "embedded.mat"],
    ["cycle-demo", "--n", "5", "--p", "2", "--q", "4", "--eps", "0.5"],
]
for argv in commands:
    status = main(argv + ["--report", argv[0] + ".json"])
    print(argv[0], status)
"""


def test_cli_runs_with_scipy_blocked(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "sparsify-graph 0",
        "verify 0",
        "embed-lp 0",
        "ri-select 0",
        "john-approx 0",
        "sparsify-frame 0",
        "embed-l1 0",
        "cycle-demo 0",
    ]
