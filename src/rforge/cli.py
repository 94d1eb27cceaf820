"""Batch command-line interface with JSON run reports.

Every command reads the text formats of :mod:`rforge.formats`, dispatches
to one library operation, and writes a JSON report with the input sizes,
the derived barrier parameters, the support counts, and the certified
bounds.  Field order is fixed, so reports are byte-identical across runs
on the same platform (apart from the wall-clock entry).  Exit status is 0
on success, 1 when a certificate or invariant fails, and 2 for bad input.

--seed overrides the probe-generation seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import formats
from .bss import check_eps, sparsify_frame, support_bound
from .embed import (
    JohnDecomposition,
    apply_lp_embedding,
    approximate_john,
    barrier_eps_for_ratio,
    embed_l1,
    embed_lp_even,
)
from .errors import RforgeError
from .graphs import sparsify_graph, spectral_gap_ratio, verify_quality
from .linalg import Frame
from .nonlinear import (
    DEFAULT_PROBE_SEED,
    ProbeSet,
    cycle_counterexample,
    energy_ratio_range,
    quality_lower_bound,
    standard_probes,
)
from .restricted import operator_norms, ri_select, selection_size

COMMANDS = (
    "sparsify-graph",
    "sparsify-frame",
    "ri-select",
    "embed-l1",
    "embed-lp",
    "john-approx",
    "verify",
    "cycle-demo",
)

EXIT_OK = 0
EXIT_CERTIFICATION = 1
EXIT_INPUT = 2


@dataclass
class RunConfig:
    command: str
    eps: float | None = None
    input: str | None = None
    input2: str | None = None
    output: str | None = None
    report: str | None = None
    seed: int = DEFAULT_PROBE_SEED
    n: int | None = None
    p: float | None = None
    q: float | None = None


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(config, name) is None:
            raise ValueError(f"command {config.command!r} requires --{name.replace('_', '-')}")


def _theta(eps: float) -> float:
    return (1.0 + eps) / (1.0 - eps)


def _run_sparsify_graph(config: RunConfig) -> dict:
    _require(config, "eps", "input")
    eps = check_eps(config.eps)
    g = formats.read_graph(config.input)
    h = sparsify_graph(g, eps)
    report_quality = verify_quality(g, h)
    if config.output:
        formats.write_graph(config.output, h)
    try:
        gap_ratio = spectral_gap_ratio(h)
    except ValueError:
        gap_ratio = None  # disconnected or trivial output; diagnostic not defined
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
            "quality_min": report_quality.min_quotient,
            "quality_max": report_quality.max_quotient,
            "quality_ceiling": _theta(eps) ** 2,
            "range_dim": report_quality.range_dim,
            "spectral_gap_ratio": gap_ratio,
            "twice_ramanujan_benchmark": 1.0 + 4.0 / math.sqrt(avg_degree) if avg_degree > 0 else None,
        },
    }


def _run_sparsify_frame(config: RunConfig) -> dict:
    _require(config, "eps", "input")
    eps = check_eps(config.eps)
    vectors = formats.read_matrix(config.input)
    frame = Frame(vectors)
    weights = sparsify_frame(frame, eps)
    # the quadratic-form ratio on the span of the input frame, as certified
    cert = weights.certificate
    certificate = {
        "eps": eps,
        "support": weights.support_size,
        "support_bound": support_bound(vectors.shape[1], eps),
        "quadratic_ratio_min": cert.measured_min,
        "quadratic_ratio_max": cert.measured_max,
        "target_low": cert.low,
        "target_high": cert.high,
        "range_dim": cert.range_dim,
        "margin": cert.margin,
        "headroom": cert.headroom,
    }
    if config.output:
        formats.write_weights(config.output, weights.weights, certificate)
    return {
        "sizes": {"vectors": vectors.shape[0], "dimension": vectors.shape[1]},
        "eps": eps,
        "derived": {
            "theta": _theta(eps),
            "support_bound": support_bound(vectors.shape[1], eps),
        },
        "results": certificate,
    }


def _run_ri_select(config: RunConfig) -> dict:
    _require(config, "eps", "input")
    eps = check_eps(config.eps)
    operator = formats.read_matrix(config.input)
    if operator.shape[0] != operator.shape[1]:
        raise ValueError(f"operator must be square, got shape {operator.shape}")
    n = operator.shape[0]
    frame = Frame(np.eye(n), isotropy_certified=True)
    sigma, gram = ri_select(frame, operator, eps)
    hs_sq, op_sq = operator_norms(operator)
    lam_min = float(np.linalg.eigvalsh(gram)[0]) if sigma else 0.0
    if config.output:
        formats.write_weights(
            config.output,
            {idx: 1.0 for idx in sigma},
            {"selected": sigma, "gram_min_eigenvalue": lam_min},
        )
    return {
        "sizes": {"dimension": n},
        "eps": eps,
        "derived": {
            "stable_rank": hs_sq / op_sq,
            "selection_size": selection_size(hs_sq, op_sq, eps),
        },
        "results": {
            "selected": sigma,
            "gram_min_eigenvalue": lam_min,
            "certified_floor": (1 - eps) ** 2 * hs_sq / n,
        },
    }


def _run_embed_l1(config: RunConfig) -> dict:
    _require(config, "eps", "input")
    eps = check_eps(config.eps)
    points = formats.read_matrix(config.input)
    embedded = embed_l1(points, eps)
    if config.output:
        formats.write_matrix(config.output, embedded.points)
    n = points.shape[0]
    direct = np.sum(np.abs(points[:, None, :] - points[None, :, :]), axis=2)
    image = np.sum(np.abs(embedded.points[:, None, :] - embedded.points[None, :, :]), axis=2)
    mask = direct > 0
    ratios = image[mask] / direct[mask]
    eps0 = barrier_eps_for_ratio(1.0 + eps)
    return {
        "sizes": {"points": n, "dimension": points.shape[1]},
        "eps": eps,
        "derived": {"eps0": eps0, "dimension_bound": support_bound(n, eps0)},
        "results": {
            "target_dimension": embedded.k,
            "distortion_min": float(ratios.min()) if ratios.size else 1.0,
            "distortion_max": float(ratios.max()) if ratios.size else 1.0,
            "distortion_ceiling": 1.0 + eps,
        },
    }


def _run_embed_lp(config: RunConfig) -> dict:
    _require(config, "eps", "input", "p")
    eps = check_eps(config.eps)
    p = int(config.p)
    basis = formats.read_matrix(config.input)
    selected, weights = embed_lp_even(basis, p, eps)
    if config.output:
        formats.write_weights(
            config.output,
            dict(zip(selected, weights)),
            {"p": p, "eps": eps, "selected": selected},
        )
    n = basis.shape[0]
    half = p // 2
    eps0 = barrier_eps_for_ratio(1.0 + eps * p / 4.0)
    rng = np.random.default_rng(config.seed)
    worst = 1.0
    for _ in range(200):
        x = rng.standard_normal(n) @ basis
        norm = float(np.sum(np.abs(x) ** p) ** (1 / p))
        if norm == 0.0:
            continue
        embedded = apply_lp_embedding(x, selected, weights, p)
        worst = max(worst, float(np.sum(np.abs(embedded) ** p) ** (1 / p)) / norm)
    return {
        "sizes": {"subspace_dim": n, "coordinates": basis.shape[1]},
        "eps": eps,
        "seed": config.seed,
        "derived": {
            "p": p,
            "eps0": eps0,
            "lift_dimension_bound": math.comb(n + half - 1, half),
            "support_bound": support_bound(math.comb(n + half - 1, half), eps0),
        },
        "results": {
            "selected_count": len(selected),
            "sampled_distortion_max": worst,
            "distortion_ceiling": (1.0 + eps * p / 4.0) ** (1.0 / p),
        },
    }


def _run_john_approx(config: RunConfig) -> dict:
    _require(config, "eps", "input")
    eps = check_eps(config.eps)
    raw = formats.read_matrix(config.input)
    if raw.shape[1] < 2:
        raise ValueError("John input needs point coordinates plus a trailing weight column")
    jd = JohnDecomposition(raw.shape[1] - 1, raw[:, :-1], raw[:, -1])
    out = approximate_john(jd, eps)
    if config.output:
        formats.write_matrix(config.output, np.column_stack([out.points, out.weights]))
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


def _run_verify(config: RunConfig) -> dict:
    _require(config, "input", "input2")
    g = formats.read_graph(config.input)
    h = formats.read_graph(config.input2)
    report_quality = verify_quality(g, h)
    return {
        "sizes": {"vertices": g.n, "reference_edges": g.edge_count, "candidate_edges": h.edge_count},
        "results": {
            "quality_min": report_quality.min_quotient,
            "quality_max": report_quality.max_quotient,
            "reference_support_ordered": report_quality.reference_support,
            "candidate_support_ordered": report_quality.candidate_support,
            "range_dim": report_quality.range_dim,
        },
    }


def _run_cycle_demo(config: RunConfig) -> dict:
    _require(config, "eps", "n", "p", "q")
    n, p, q, eps = int(config.n), float(config.p), float(config.q), float(config.eps)
    g, h, witnesses = cycle_counterexample(n, p, eps)
    probes = ProbeSet.filtered(
        witnesses.probes + standard_probes(n, seed=config.seed), g, p
    )
    low_p, high_p = energy_ratio_range(g, h, p, probes)
    p_quality = high_p / low_p if low_p > 0 else float("inf")
    q_bound = quality_lower_bound(g, h, q, witnesses)
    return {
        "sizes": {"vertices": n, "edges": g.edge_count},
        "eps": eps,
        "seed": config.seed,
        "derived": {"p": p, "q": q, "heavy_weight": (n - 1) ** (p - 1) / eps},
        "results": {
            "p_quality_lower_bound": p_quality,
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


def run(config: RunConfig) -> tuple[int, dict]:
    """Dispatch one command; returns (exit_status, report)."""
    started = time.perf_counter()
    report = {"command": config.command, "input": config.input}
    if config.input2:
        report["input2"] = config.input2
    try:
        body = _RUNNERS[config.command](config)
    except (formats.ParseError, FileNotFoundError, ValueError, KeyError) as exc:
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
    report["wall_clock_s"] = round(time.perf_counter() - started, 6)
    return status, report


def _write_report(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rforge",
        description="Deterministic spectral sparsification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, inputs=1, eps=True, p_only=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("input", help="input file")
        if inputs == 2:
            cmd.add_argument("input2", help="second input file")
        if eps:
            cmd.add_argument("--eps", type=float, required=True, help="accuracy in (0, 1)")
        if p_only:
            cmd.add_argument("--p", type=int, required=True, help="even exponent >= 4")
        cmd.add_argument("-o", "--output", help="output file")
        cmd.add_argument("--report", help="JSON report path (default: stdout)")
        cmd.add_argument("--seed", type=int, default=DEFAULT_PROBE_SEED, help="probe seed")
        return cmd

    add("sparsify-graph", "sparsify a weighted graph")
    add("sparsify-frame", "sparsify a vector frame (rows of a dense matrix)")
    add("ri-select", "select well-conditioned columns of a square operator")
    add("embed-l1", "reduce the dimension of an L1 point set")
    add("embed-lp", "coordinate selection for an even-p subspace", p_only=True)
    add("john-approx", "thin a John decomposition (points plus weight column)")
    add("verify", "certify one graph against another", inputs=2, eps=False)
    cycle = sub.add_parser("cycle-demo", help="weighted-cycle exponent separation demo")
    cycle.add_argument("--n", type=int, required=True, help="cycle length")
    cycle.add_argument("--p", type=float, required=True, help="certified exponent")
    cycle.add_argument("--q", type=float, required=True, help="probe exponent")
    cycle.add_argument("--eps", type=float, required=True, help="accuracy in (0, 1)")
    cycle.add_argument("--report", help="JSON report path (default: stdout)")
    cycle.add_argument("--seed", type=int, default=DEFAULT_PROBE_SEED, help="probe seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = RunConfig(
        command=args.command,
        eps=getattr(args, "eps", None),
        input=getattr(args, "input", None),
        input2=getattr(args, "input2", None),
        output=getattr(args, "output", None),
        report=getattr(args, "report", None),
        seed=getattr(args, "seed", DEFAULT_PROBE_SEED),
        n=getattr(args, "n", None),
        p=getattr(args, "p", None),
        q=getattr(args, "q", None),
    )
    status, report = run(config)
    _write_report(report, config.report)
    return status


if __name__ == "__main__":
    sys.exit(main())
