"""Batch command-line interface with JSON run reports.

Every command reads the text formats of :mod:`rforge.formats`, dispatches
to one library operation, and writes a JSON report with the input sizes,
the derived barrier parameters, the support counts, and the certified
bounds.  Field order is fixed, so reports are byte-identical across runs
on the same platform (apart from the wall-clock entry).  A command runs
with numpy's OpenBLAS on one thread, and its report's ``blas_threads`` is
the count it ran at (null where the count cannot be read).  Exit status is 0
on success, 1 when a certificate or invariant fails, and 2 for bad input.

``embed-lp`` and ``cycle-demo`` take --seed, the seed of their sampled
vectors and probes; no other command draws random numbers.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import formats
from .bss import _theta, check_eps, sparsify_frame, support_bound
from .embed import (
    JohnDecomposition,
    apply_lp_embedding,
    approximate_john,
    barrier_eps_for_ratio,
    embed_l1,
    embed_lp_even,
)
from .errors import RforgeError
from .graphs import sparsify_graph, verify_quality
from .linalg import Frame, _blas_threads, _one_blas_thread
from .nonlinear import (
    DEFAULT_PROBE_SEED,
    _energies,
    _nonzero_energies,
    _with_standard_probes,
    cycle_counterexample,
    quality_lower_bound,
)
from .restricted import ri_select

EXIT_OK = 0
EXIT_CERTIFICATION = 1
EXIT_INPUT = 2


def _run_sparsify_graph(args: argparse.Namespace) -> dict:
    eps = check_eps(args.eps)
    g = formats.read_graph(args.input)
    h = sparsify_graph(g, eps)
    cert = h.certificate
    if args.output:
        formats.write_graph(args.output, h)
    avg_degree = h.ordered_support_size / h.n
    return {
        "sizes": {"vertices": g.n, "edges": g.edge_count},
        "eps": eps,
        "derived": {
            "theta": _theta(eps),
            "support_bound_ordered": 2 * support_bound(g.n, eps),
        },
        "results": {
            "input_support_ordered": g.ordered_support_size,
            "output_support_ordered": h.ordered_support_size,
            "quality_min": cert.measured_min,
            "quality_max": cert.measured_max,
            "quality_ceiling": cert.high,
            "range_dim": cert.range_dim,
            "twice_ramanujan_benchmark": 1.0 + 4.0 / math.sqrt(avg_degree) if avg_degree > 0 else None,
        },
    }


def _run_sparsify_frame(args: argparse.Namespace) -> dict:
    eps = check_eps(args.eps)
    vectors = formats.read_matrix(args.input)
    frame = Frame(vectors)
    weights = sparsify_frame(frame, eps)
    # the quadratic-form ratio on the span of the input frame, as certified
    cert = weights.certificate
    certificate = {
        "eps": eps,
        "support": len(weights.support),
        "support_bound": support_bound(vectors.shape[1], eps),
        "quadratic_ratio_min": cert.measured_min,
        "quadratic_ratio_max": cert.measured_max,
        "target_low": cert.low,
        "target_high": cert.high,
        "range_dim": cert.range_dim,
        "margin": cert.margin,
        "headroom": cert.headroom,
    }
    if args.output:
        formats.write_weights(args.output, weights.support, weights.weights, certificate)
    return {
        "sizes": {"vectors": vectors.shape[0], "dimension": vectors.shape[1]},
        "eps": eps,
        "derived": {
            "theta": _theta(eps),
            "support_bound": support_bound(vectors.shape[1], eps),
        },
        "results": certificate,
    }


def _run_ri_select(args: argparse.Namespace) -> dict:
    eps = check_eps(args.eps)
    operator = formats.read_matrix(args.input)
    result = ri_select(operator, eps)
    sigma, cert = result.selected, result.certificate
    lam_min = cert.measured_min if cert else 0.0
    if args.output:
        sidecar = {"selected": sigma, "gram_min_eigenvalue": lam_min}
        formats.write_weights(args.output, sorted(sigma), np.ones(len(sigma)), sidecar)
    return {
        "sizes": {"rows": operator.shape[0], "columns": operator.shape[1]},
        "eps": eps,
        "derived": {
            "stable_rank": result.stable_rank,
            "selection_size": len(sigma),
        },
        "results": {
            "selected": sigma,
            "gram_min_eigenvalue": lam_min,
            "certified_floor": cert.low if cert else None,
        },
    }


def _run_embed_l1(args: argparse.Namespace) -> dict:
    eps = check_eps(args.eps)
    points = formats.read_matrix(args.input)
    embedded = embed_l1(points, eps)
    cert = embedded.certificate
    if args.output:
        formats.write_matrix(args.output, embedded.points)
    n = points.shape[0]
    eps0 = barrier_eps_for_ratio(1.0 + eps)
    return {
        "sizes": {"points": n, "dimension": points.shape[1]},
        "eps": eps,
        "derived": {"eps0": eps0, "dimension_bound": support_bound(n, eps0)},
        "results": {
            "target_dimension": embedded.k,
            # certified bounds over every pair of distinct points
            "distortion_min": cert.measured_min,
            "distortion_max": cert.measured_max,
            "distortion_ceiling": cert.high,
            "range_dim": cert.range_dim,
        },
    }


def _run_embed_lp(args: argparse.Namespace) -> dict:
    eps = check_eps(args.eps)
    p = args.p
    basis = formats.read_matrix(args.input)
    lp = embed_lp_even(basis, p, eps)
    if args.output:
        sidecar = {"p": p, "eps": eps, "selected": lp.support.tolist()}
        formats.write_weights(args.output, lp.support, lp.weights, sidecar)
    n = basis.shape[0]
    half = p // 2
    eps0 = barrier_eps_for_ratio(1.0 + eps * p / 4.0)
    samples = np.random.default_rng(args.seed).standard_normal((200, n)) @ basis
    norms = np.sum(np.abs(samples) ** p, axis=1) ** (1 / p)
    embedded = np.sum(np.abs(apply_lp_embedding(samples, lp.support, lp.weights, p)) ** p, axis=1) ** (1 / p)
    nonzero = norms > 0.0
    worst = float(np.max(embedded[nonzero] / norms[nonzero], initial=1.0))
    return {
        "sizes": {"subspace_dim": n, "coordinates": basis.shape[1]},
        "eps": eps,
        "seed": args.seed,
        "derived": {
            "p": p,
            "eps0": eps0,
            "lift_dimension_bound": math.comb(n + half - 1, half),
            "support_bound": support_bound(math.comb(n + half - 1, half), eps0),
        },
        "results": {
            "selected_count": len(lp.support),
            "sampled_distortion_max": worst,
            # certified bounds on ||x||_{p,s} / ||x||_p over the whole subspace
            "distortion_min": lp.certificate.measured_min ** (1.0 / p),
            "distortion_max": lp.certificate.measured_max ** (1.0 / p),
            "distortion_ceiling": lp.certificate.high ** (1.0 / p),
            "range_dim": lp.certificate.range_dim,
        },
    }


def _run_john_approx(args: argparse.Namespace) -> dict:
    eps = check_eps(args.eps)
    raw = formats.read_matrix(args.input)
    if raw.shape[1] < 2:
        raise ValueError("John input needs point coordinates plus a trailing weight column")
    jd = JohnDecomposition(raw.shape[1] - 1, raw[:, :-1], raw[:, -1])
    out = approximate_john(jd, eps)
    if args.output:
        formats.write_matrix(args.output, np.column_stack([out.points, out.weights]))
    eps0 = barrier_eps_for_ratio(1.0 + eps / 4.0)
    return {
        "sizes": {"points": jd.size, "dimension": jd.dim},
        "eps": eps,
        "derived": {"eps0": eps0, "support_bound": support_bound(jd.dim, eps0)},
        "results": {
            "output_points": out.size,
            "identity_residual": out.identity_residual(),
            "center_of_mass_max": float(np.max(np.abs(out.center_of_mass()))),
        },
    }


def _run_verify(args: argparse.Namespace) -> dict:
    g = formats.read_graph(args.input)
    h = formats.read_graph(args.input2)
    report_quality = verify_quality(g, h)
    return {
        "sizes": {"vertices": g.n, "reference_edges": g.edge_count, "candidate_edges": h.edge_count},
        "results": {
            "quality_min": report_quality.min_quotient,
            "quality_max": report_quality.max_quotient,
            "reference_support_ordered": g.ordered_support_size,
            "candidate_support_ordered": h.ordered_support_size,
            "range_dim": report_quality.range_dim,
        },
    }


def _run_cycle_demo(args: argparse.Namespace) -> dict:
    n, p, q, eps = args.n, args.p, args.q, args.eps
    g, h, witnesses = cycle_counterexample(n, p, eps)
    # h is a path on g's edges, so a positive h-energy makes g's positive too;
    # a non-constant probe has zero h-energy only where its path terms underflow.
    # energy_ratio_range over the probes, with h's energies taken once
    probes, h_energies = _nonzero_energies(_with_standard_probes(witnesses, seed=args.seed), h, p)
    ratios = h_energies / _energies(g, probes, p)
    low_p, high_p = float(ratios.min()), float(ratios.max())
    # Raises unless the ramp's q-energy, at least (n-1)^q, is finite; then so is the floor's power.
    q_bound = quality_lower_bound(g, h, q, witnesses)
    return {
        "sizes": {"vertices": n, "edges": g.edge_count},
        "eps": eps,
        "seed": args.seed,
        "derived": {"p": p, "q": q, "heavy_weight": float(h.weights[0])},
        "results": {
            "p_quality_lower_bound": high_p / low_p,
            "p_quality_ceiling": 1.0 + eps,
            "optimal_scaling": low_p,
            "q_quality_lower_bound": q_bound,
            "q_quality_floor": eps * (n - 1) ** (q - p),
            "probes": len(probes),
        },
    }


_RUNNERS = {
    "sparsify-graph": _run_sparsify_graph,
    "sparsify-frame": _run_sparsify_frame,
    "ri-select": _run_ri_select,
    "embed-l1": _run_embed_l1,
    "embed-lp": _run_embed_lp,
    "john-approx": _run_john_approx,
    "verify": _run_verify,
    "cycle-demo": _run_cycle_demo,
}


@_one_blas_thread
def run(args: argparse.Namespace) -> tuple[int, dict]:
    """Dispatch one command parsed by ``build_parser``; returns (exit_status, report)."""
    started = time.perf_counter()
    report = {"command": args.command, "input": getattr(args, "input", None)}
    if getattr(args, "input2", None):
        report["input2"] = args.input2
    try:
        body = _RUNNERS[args.command](args)
    except (formats.ParseError, FileNotFoundError, ValueError) as exc:
        report["status"] = "input-error"
        report["error"] = str(exc)
        status = EXIT_INPUT
    except RforgeError as exc:
        report["status"] = "certification-failure"
        report["error"] = str(exc)
        status = EXIT_CERTIFICATION
    else:
        report.update(body)
        report["status"] = "ok"
        status = EXIT_OK
    report["blas_threads"] = _blas_threads()
    report["wall_clock_s"] = round(time.perf_counter() - started, 6)
    return status, report


def _write_report(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``rforge`` parser, built once per process; each command declares only the flags its runner reads."""
    parser = argparse.ArgumentParser(
        prog="rforge",
        description="Deterministic spectral sparsification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, inputs=("input file",), *, eps=True, output=True):
        cmd = sub.add_parser(name, help=help_text)
        for dest, text in zip(("input", "input2"), inputs):
            cmd.add_argument(dest, help=text)
        if eps:
            cmd.add_argument("--eps", type=float, required=True, help="accuracy in (0, 1)")
        if output:
            cmd.add_argument("-o", "--output", help="output file")
        cmd.add_argument("--report", help="JSON report path (default: stdout)")
        return cmd

    add("sparsify-graph", "sparsify a weighted graph")
    add("sparsify-frame", "sparsify a vector frame (rows of a dense matrix)")
    add("ri-select", "select well-conditioned columns of a matrix")
    add("embed-l1", "reduce the dimension of an L1 point set")
    lp = add("embed-lp", "coordinate selection for an even-p subspace")
    lp.add_argument("--p", type=int, required=True, help="even exponent >= 4")
    add("john-approx", "thin a John decomposition (points plus weight column)")
    add("verify", "certify one graph against another", ("reference graph", "candidate graph"),
        eps=False, output=False)
    cycle = add("cycle-demo", "weighted-cycle exponent separation demo", (), output=False)
    cycle.add_argument("--n", type=int, required=True, help="cycle length")
    cycle.add_argument("--p", type=float, required=True, help="certified exponent")
    cycle.add_argument("--q", type=float, required=True, help="probe exponent")
    for cmd in (lp, cycle):
        cmd.add_argument("--seed", type=int, default=DEFAULT_PROBE_SEED, help="sampling seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    status, report = run(args)
    _write_report(report, args.report)
    return status


if __name__ == "__main__":
    sys.exit(main())
