"""Measuring process of the rforge benchmark.

run.py starts this script once per set-up sample (``--setup-only``) and
once to measure.  It imports rforge, builds the workload's inputs from
``--seed``, and reports its set-up time counted from ``--spawned-at`` (the
launcher's ``time.monotonic()`` just before it started this process).  It
then runs timed passes over the workload's certified calls until
``--seconds`` have gone by, checks every output with checks.py after each
pass, and prints one JSON line.  With ``--trace 1`` untraced and traced
passes alternate, and the line carries the per-layer figures instead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import rforge
import rforge.cli

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Call:
    label: str
    run: Callable[[], object]
    check: Callable[[object], checks.Verdict]


def log_uniform(rng, size, low=1.0, high=100.0) -> np.ndarray:
    return np.exp(rng.uniform(math.log(low), math.log(high), size))


def random_graph(rng, n: int, m: int) -> rforge.WeightedGraph:
    """Connected: a random spanning tree plus random extra pairs."""
    order = rng.permutation(n)
    pairs = {tuple(sorted((int(order[k]), int(order[rng.integers(k)])))) for k in range(1, n)}
    while len(pairs) < m:
        i, j = (int(v) for v in rng.integers(n, size=2))
        if i != j:
            pairs.add((min(i, j), max(i, j)))
    ordered = sorted(pairs)
    return rforge.WeightedGraph(n, [(i, j, float(w)) for (i, j), w in zip(ordered, log_uniform(rng, m))])


def mirrored_bases(rng, dim: int, count: int) -> rforge.JohnDecomposition:
    """±(rows of `count` random orthonormal bases), equal weights: a John
    decomposition of the identity with centre of mass exactly zero."""
    rows = []
    for _ in range(count):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        rows += [q.T, -q.T]
    points = np.vstack(rows)
    jd = rforge.JohnDecomposition(dim, points, np.full(len(points), 1.0 / (2 * count)))
    jd.validate()
    return jd


def write_edges(path, g) -> None:
    lines = [f"n {g.n}"] + [f"{i}\t{j}\t{w:.17g}" for i, j, w in g.edges]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_matrix(path, m: np.ndarray) -> None:
    lines = [f"{m.shape[0]} {m.shape[1]}"] + [" ".join(f"{v:.17g}" for v in row) for row in m]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class GraphDense:
    """sparsify_graph at eps 0.5, then verify_quality, on K64 with weights
    log-uniform in [1, 100].

    2016 candidates over 256 steps at n = 64: each step's two resolvent
    solves have 2016 right-hand sides, so candidate scoring dominates.  With
    m > ceil(n/eps^2) an identity short-circuit must leave it unchanged.
    """

    eps = 0.5

    def __init__(self, rng, small: bool, workdir: Path):
        n = 12 if small else 64
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        weights = log_uniform(rng, len(pairs))
        self.g = rforge.WeightedGraph(n, [(i, j, float(w)) for (i, j), w in zip(pairs, weights)])

    def calls(self) -> list[Call]:
        g, eps, out = self.g, self.eps, {}

        def sparsify():
            out["h"] = rforge.sparsify_graph(g, eps)
            return out["h"]

        def check_report(rep):
            return checks.quality_report(
                g.n, g.edges, out["h"].edges, rep.min_quotient, rep.max_quotient, 1.0, checks.theta(eps) ** 2
            )

        return [
            Call("sparsify_graph", sparsify, lambda h: checks.graph_sparsifier(g.n, g.edges, h.edges, eps)),
            Call("verify_quality", lambda: rforge.verify_quality(g, out["h"]), check_report),
        ]


class EmbedSteps:
    """embed_l1 at eps 0.5 on seeded integer point sets 24x4, 20x5 and
    16x6, and approximate_john at eps 0.8 on a 6-dim decomposition of 96
    points.

    About 2,000-2,900 barrier steps per call at n <= 24 over fewer than 100
    candidates, and few steps add a new vector: the per-step fixed cost
    (validated eigh, small factorizations, Python dispatch) dominates.
    """

    eps_l1 = 0.5
    eps_john = 0.8

    def __init__(self, rng, small: bool, workdir: Path):
        shapes = [(6, 3), (5, 3)] if small else [(24, 4), (20, 5), (16, 6)]
        self.point_sets = [rng.integers(0, 100, size=s).astype(float) for s in shapes]
        self.john = mirrored_bases(rng, *((3, 2) if small else (6, 8)))

    def calls(self) -> list[Call]:
        calls = [
            Call(
                f"embed_l1 {pts.shape[0]}x{pts.shape[1]}",
                lambda pts=pts: rforge.embed_l1(pts, self.eps_l1),
                lambda e, pts=pts: checks.l1_embedding(pts, e.points, self.eps_l1),
            )
            for pts in self.point_sets
        ]
        jd, eps = self.john, self.eps_john
        calls.append(
            Call(
                f"approximate_john {jd.dim}d",
                lambda: rforge.approximate_john(jd, eps),
                lambda out: checks.john_decomposition(jd.dim, out.points, out.weights, eps),
            )
        )
        return calls


class CliBatch:
    """rforge.cli.main, in process, over input files written at set-up.

    The only workload that runs formats, cli, restricted and nonlinear, the
    frame whitening of a non-isotropic input, and the n = 256 certifier.
    Its larger matrices gain from a second BLAS thread.
    """

    def __init__(self, rng, small: bool, workdir: Path):
        d = workdir
        self.d = d
        self.g48 = random_graph(rng, *((16, 40) if small else (48, 300)))
        self.g256 = random_graph(rng, *((32, 64) if small else (256, 1024)))
        factors = rng.uniform(1.0, 2.0, self.g256.edge_count)
        self.h256 = rforge.WeightedGraph(self.g256.n, [(i, j, w * f) for (i, j, w), f in zip(self.g256.edges, factors)])
        rows, dim = (60, 6) if small else (600, 24)
        self.frame = rforge.Frame(rng.standard_normal((rows, dim)) * np.exp(rng.uniform(-2.0, 2.0, dim))).vectors
        self.operator = rng.standard_normal((40, 40) if small else (300, 300))
        self.basis = rng.standard_normal((3, 40 if small else 200))
        self.john = mirrored_bases(rng, *((3, 2) if small else (5, 6)))
        self.cycle_n = 40 if small else 400
        write_edges(d / "g48.edges", self.g48)
        write_edges(d / "g256.edges", self.g256)
        write_edges(d / "h256.edges", self.h256)
        write_matrix(d / "frame.mat", self.frame)
        write_matrix(d / "operator.mat", self.operator)
        write_matrix(d / "basis.mat", self.basis)
        write_matrix(d / "john.mat", np.column_stack([self.john.points, self.john.weights]))

    def _call(self, name: str, argv: list[str], check) -> Call:
        report = self.d / f"{name}.json"

        def run():
            return rforge.cli.main([*argv, "--report", str(report)])

        def verdict(status):
            body = checks.read_report(report)
            checks.require(status == 0 and body.get("status") == "ok", f"exit {status}: {body.get('error')}")
            return check(body)

        return Call(f"cli {name}", run, verdict)

    def calls(self) -> list[Call]:
        d = self.d

        def path(name):
            return str(d / name)

        def sparsify_graph(body):
            res = body["results"]
            checks.at_most(res["quality_max"] / res["quality_min"], res["quality_ceiling"], "reported quality")
            checks.at_most(res["output_support_ordered"], body["derived"]["support_bound_ordered"], "support")
            n, h_edges = checks.read_edges(d / "h48.edges")
            return checks.graph_sparsifier(n, self.g48.edges, h_edges, 0.7)

        def verify(g, h_file, low, high):
            def check(body):
                n, h_edges = checks.read_edges(d / h_file)
                res = body["results"]
                return checks.quality_report(
                    n, g.edges, h_edges, res["quality_min"], res["quality_max"], low, high
                )

            return check

        def sparsify_frame(body):
            res = body["results"]
            checks.at_least(res["quadratic_ratio_min"], res["target_low"], "reported ratio")
            checks.at_most(res["quadratic_ratio_max"], res["target_high"], "reported ratio")
            return checks.frame_sparsifier(self.frame, checks.read_weights(d / "frame.tsv"), 0.5)

        def ri_select(body):
            res = body["results"]
            checks.at_least(res["gram_min_eigenvalue"], res["certified_floor"], "reported Gram eigenvalue")
            return checks.column_selection(self.operator, res["selected"], 0.8)

        def embed_lp(body):
            res = body["results"]
            checks.at_most(res["sampled_distortion_max"], res["distortion_ceiling"], "sampled distortion")
            return checks.even_p_selection(self.basis, 4, checks.read_weights(d / "lp.tsv"), 0.5)

        def john(body):
            res = body["results"]
            checks.at_most(max(res["identity_residual"], res["center_of_mass_max"]), checks.TOL, "residual")
            out = checks.read_matrix(d / "john.out")
            return checks.john_decomposition(self.john.dim, out[:, :-1], out[:, -1], 0.8)

        g48, h48 = path("g48.edges"), path("h48.edges")
        theta_sq = checks.theta(0.7) ** 2
        return [
            self._call("sparsify-graph", ["sparsify-graph", g48, "--eps", "0.7", "-o", h48], sparsify_graph),
            self._call("verify-48", ["verify", g48, h48], verify(self.g48, "h48.edges", 1.0, theta_sq)),
            self._call(
                "sparsify-frame",
                ["sparsify-frame", path("frame.mat"), "--eps", "0.5", "-o", path("frame.tsv")],
                sparsify_frame,
            ),
            self._call(
                "ri-select", ["ri-select", path("operator.mat"), "--eps", "0.8", "-o", path("selected.tsv")], ri_select
            ),
            self._call(
                "verify-256",
                ["verify", path("g256.edges"), path("h256.edges")],
                verify(self.g256, "h256.edges", 1.0, 2.0),
            ),
            self._call(
                "embed-lp", ["embed-lp", path("basis.mat"), "--p", "4", "--eps", "0.5", "-o", path("lp.tsv")], embed_lp
            ),
            self._call("john-approx", ["john-approx", path("john.mat"), "--eps", "0.8", "-o", path("john.out")], john),
            self._call(
                "cycle-demo",
                ["cycle-demo", "--n", str(self.cycle_n), "--p", "2", "--q", "4", "--eps", "0.5"],
                lambda body: checks.cycle_demo(body, self.cycle_n, 2.0, 4.0, 0.5),
            ),
        ]


WORKLOADS = {"graph-dense": GraphDense, "embed-steps": EmbedSteps, "cli-batch": CliBatch}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    headroom: float = math.inf
    selections: dict[str, dict] = field(default_factory=dict)

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {why}")

    def record(self, label: str, verdict: checks.Verdict) -> None:
        if verdict.headroom is not None:
            self.headroom = min(self.headroom, verdict.headroom)
        if verdict.selection is not None:
            first = self.selections.setdefault(label, verdict.selection)
            if first != verdict.selection:
                self.fail(label, f"selection changed between passes: {first} -> {verdict.selection}")


def run_pass(calls: list[Call]) -> tuple[float, list]:
    """Wall clock of one pass over the calls, and what each returned or raised."""
    results = []
    start = time.perf_counter()
    for call in calls:
        try:
            results.append(call.run())
        except Exception as exc:  # noqa: BLE001 - a raising call is a counted failure
            results.append(exc)
    return time.perf_counter() - start, results


def check_pass(calls: list[Call], results: list, tally: Tally) -> None:
    for call, result in zip(calls, results):
        tally.attempted += 1
        if isinstance(result, Exception):
            tally.fail(call.label, f"raised {type(result).__name__}: {result}")
            continue
        try:
            verdict = call.check(result)
        except (checks.CheckError, OSError, LookupError, TypeError, ValueError, np.linalg.LinAlgError) as exc:
            tally.fail(call.label, f"check failed: {type(exc).__name__}: {exc}")
            continue
        tally.record(call.label, verdict)


def measure(workload, seconds: float, trace: bool, spans_path: Path) -> dict:
    tally = Tally()
    walls: dict[bool, list[float]] = {False: [], True: []}
    layers: list[dict[str, float]] = []
    tracer = tracing.Tracer()
    started = time.monotonic()
    traced = False
    while time.monotonic() - started < seconds or (trace and not walls[True]):
        calls = workload.calls()
        if traced:
            tracer.clear()
            tracer.install()
            try:
                wall, results = run_pass(calls)
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics(wall))
        else:
            wall, results = run_pass(calls)
        walls[traced].append(wall)
        check_pass(calls, results, tally)
        traced = trace and not traced
    out = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "selections": tally.selections,
        "wall_s": statistics.median(walls[False]),
        "pass_walls": walls[False],
        "quality_headroom": tally.headroom if math.isfinite(tally.headroom) else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        tracer.write(spans_path)
        per_layer = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        per_layer["trace.untraced_wall_s"] = out["wall_s"]
        per_layer["trace.overhead_s"] = per_layer["trace.wall_s"] - out["wall_s"]
        out["per_layer"] = {name: {"value": per_layer[name], "unit": unit} for name, unit in tracing.METRICS}
    return out


def blas_threads() -> dict[str, int | None]:
    """Effective thread count of each OpenBLAS library mapped into this process.

    numpy's build exports ``scipy_openblas_get_num_threads64_`` and scipy's
    ``scipy_openblas_get_num_threads``; both are read through ctypes on the
    paths listed in /proc/self/maps.
    """
    symbols = (
        ("libscipy_openblas64_", "scipy_openblas_get_num_threads64_", "numpy"),
        ("libscipy_openblas", "scipy_openblas_get_num_threads", "scipy"),
    )
    out: dict[str, int | None] = {"numpy": None, "scipy": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = sorted({line.split()[-1] for line in handle if ".so" in line})
    except OSError:
        return out
    for path in paths:
        base = os.path.basename(path)
        for prefix, symbol, owner in symbols:
            if base.startswith(prefix):
                try:
                    fn = getattr(ctypes.CDLL(path), symbol)
                except (OSError, AttributeError):
                    break
                fn.argtypes = []
                fn.restype = ctypes.c_int
                out[owner] = fn()
                break
    return out


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--small", action="store_true", help="smoke-check sizes")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = WORKLOADS[args.workload](np.random.default_rng(args.seed), args.small, workdir)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}), flush=True)
            return 0
        spans = scratch / f"spans-{args.workload}.jsonl"
        out = measure(workload, args.seconds, bool(args.trace), spans)
        out["setup_s"] = setup_s
        out["env"] = environment()
        print(json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
