"""Acceptance suite: one test per certified guarantee, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion.  Any failure is a real defect: the tolerances below are part of
the contract, not calibration knobs.
"""

import math
import time
import warnings

import numpy as np
import pytest

from rforge.bss import barrier_gaps, candidate_scores, initial_barrier_state, select_and_step, support_bound
from rforge.cli import build_parser, run
from rforge.embed import (
    JohnDecomposition,
    apply_lp_embedding,
    approximate_john,
    barrier_eps_for_ratio,
    embed_l1,
    embed_lp_even,
)
from rforge.graphs import WeightedGraph, sparsify_graph, verify_quality
from rforge.linalg import Frame, isotropic_reduce
from rforge.restricted import ri_barrier, ri_select, selection_size

from oracles import (
    barrier_step_oracle,
    lp_norm,
    pairwise_l1_distances,
    random_john_decomposition,
)

GRID_SIZES = (8, 16, 32, 64)
GRID_DENSITIES = (0.3, 1.0)
GRID_EPS = (0.5, 0.7, 0.9)


def _random_graph(n, density, seed):
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if density >= 1.0 or rng.random() < density:
                edges.append((i, j, float(rng.uniform(0.5, 2.0))))
    if not edges:
        edges = [(0, 1, 1.0)]
    return WeightedGraph(n, edges)


@pytest.fixture(scope="module")
def sparsification_grid():
    """All criterion-1 instances, run once and shared by criteria 1-3."""
    instances = []
    for n in GRID_SIZES:
        for density in GRID_DENSITIES:
            for eps in GRID_EPS:
                g = _random_graph(n, density, seed=hash((n, density, eps)) % 2**32)
                history = []
                started = time.perf_counter()
                h = sparsify_graph(g, eps, history=history)
                elapsed = time.perf_counter() - started
                instances.append(
                    {
                        "n": n,
                        "density": density,
                        "eps": eps,
                        "graph": g,
                        "sparsifier": h,
                        "history": history,
                        "elapsed": elapsed,
                    }
                )
    return instances


def test_criterion_1_support_bound_and_runtime(sparsification_grid):
    for inst in sparsification_grid:
        n, eps, h = inst["n"], inst["eps"], inst["sparsifier"]
        bound = 2 * math.ceil(n / eps**2)
        assert h.ordered_support_size <= bound, (
            f"n={n} density={inst['density']} eps={eps}: support "
            f"{h.ordered_support_size} > {bound}"
        )
        assert h.edge_pairs() <= inst["graph"].edge_pairs()
        if n == 64:
            assert inst["elapsed"] < 60.0, f"n=64 instance took {inst['elapsed']:.1f}s"
    print(f"PASS criterion 1: ordered support <= 2*ceil(n/eps^2) on all "
          f"{len(sparsification_grid)} instances; n=64 runtime < 60 s")


def test_criterion_2_spectral_sandwich(sparsification_grid):
    for inst in sparsification_grid:
        eps = inst["eps"]
        report = verify_quality(inst["graph"], inst["sparsifier"])
        ceiling = ((1 + eps) / (1 - eps)) ** 2
        assert report.min_quotient >= 1.0 - 1e-8, (
            f"n={inst['n']} eps={eps}: min quotient {report.min_quotient}"
        )
        assert report.max_quotient <= ceiling + 1e-8, (
            f"n={inst['n']} eps={eps}: max quotient {report.max_quotient} > {ceiling}"
        )
    print("PASS criterion 2: generalized Rayleigh quotients inside "
          "[1 - 1e-8, ((1+eps)/(1-eps))^2 + 1e-8] on the full grid")


def test_criterion_3_barrier_invariants(sparsification_grid):
    checked = 0
    for inst in sparsification_grid:
        eps = inst["eps"]
        theta = (1 + eps) / (1 - eps)
        target = eps / theta
        previous_lower = eps
        for record in inst["history"]:
            assert record["spectrum_max"] < record["upper_barrier"]
            assert record["spectrum_min"] > record["lower_barrier"]
            assert abs(record["upper_potential"] - target) <= 1e-8 * target
            assert record["lower_potential"] <= previous_lower + 1e-9
            assert record["lower_potential"] <= eps + 1e-8
            assert record["lower_score_sum"] >= record["upper_score_sum"] - 1e-9
            previous_lower = record["lower_potential"]
            checked += 1
    # hand-derived scalar instance: n = 1, m = 1, eps = 1/2
    state = initial_barrier_state(1, 0.5)
    upper_gap, lower_gap = barrier_gaps(state)
    assert upper_gap == pytest.approx(1.0 / 18.0, abs=1e-12)
    assert lower_gap == pytest.approx(0.5, abs=1e-12)
    print(f"PASS criterion 3: four barrier assertions on {checked} recorded steps; "
          f"scalar gaps match (1/18, 1/2) to 1e-12")


def test_criterion_4_restricted_invertibility():
    rng = np.random.default_rng(411)
    cases = 0
    for n in (4, 8, 16):
        operators = [
            np.eye(n) + 0.05 * rng.standard_normal((n, n)),
            rng.standard_normal((n, n)),
        ]
        for t in operators:
            hs = float(np.sum(t * t))
            op = float(np.linalg.norm(t, 2) ** 2)
            for eps in (0.5, 0.8):
                k = selection_size(hs, op, eps)
                history = []
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    sigma, gram, *_ = ri_select(t, eps, history=history)
                assert len(sigma) == k, f"n={n} eps={eps}: |sigma|={len(sigma)} != k={k}"
                if k == 0:
                    continue
                lam_min = float(np.linalg.eigvalsh(gram)[0])
                floor = (1 - eps) ** 2 * hs / n
                assert lam_min >= floor - 1e-8
                # potential decrease per step, and the eigenvalue-count invariant
                last = 0.0
                running = np.zeros((n, n))
                for step, record in enumerate(history, start=1):
                    if step > 1:
                        assert record["potential"] < last + 1e-9 * abs(last)
                    last = record["potential"]
                    image = t[:, sigma[step - 1]]
                    running = running + np.outer(image, image)
                    b_i = ri_barrier(step, hs, op, n, eps)
                    lam = np.linalg.eigvalsh(0.5 * (running + running.T))[::-1]
                    assert np.count_nonzero(lam > b_i) == step
                    assert np.max(np.abs(lam[step:])) <= 1e-9 * max(lam[0], 1.0)
                cases += 1
    print(f"PASS criterion 4: |sigma| = floor(eps^2 ||T||_HS^2/||T||^2) exactly and "
          f"Gram floor certified on {cases} nontrivial instances")


def test_criterion_5_l1_embedding():
    rng = np.random.default_rng(511)
    count = 0
    for n in (8, 16):
        for eps in (0.5, 0.9):
            for _ in range(5):
                points = rng.standard_normal((n, 3))
                embedded = embed_l1(points, eps)
                eps0 = (math.sqrt(1 + eps) - 1) / (math.sqrt(1 + eps) + 1)
                assert embedded.k <= math.ceil(n / eps0**2)
                direct = pairwise_l1_distances(points)
                image = pairwise_l1_distances(embedded.points)
                for i in range(n):
                    for j in range(i + 1, n):
                        ratio = image[i, j] / direct[i, j]
                        assert ratio >= 1.0 - 1e-8
                        assert ratio <= 1.0 + eps + 1e-8
                count += 1
    assert count == 20
    print("PASS criterion 5: 20 point sets embedded with distortions in "
          "[1 - 1e-8, 1 + eps + 1e-8] and dimension within bound")


def test_criterion_6_even_p_embedding():
    rng = np.random.default_rng(611)
    basis = rng.standard_normal((2, 20))
    eps, p = 0.5, 4
    lp = embed_lp_even(basis, p, eps)
    selected, weights = lp.support, lp.weights
    # independent certificate: orthonormalize the monomial lift by SVD
    import scipy.linalg

    monomials = np.stack(
        [basis[0] * basis[0], basis[0] * basis[1], basis[1] * basis[1]], axis=1
    )
    lift_basis = scipy.linalg.orth(monomials)
    d = lift_basis.shape[1]
    assert d <= 3
    rows = lift_basis[selected]
    certificate = (rows * np.asarray(weights)[:, None]).T @ rows
    lam = np.linalg.eigvalsh(0.5 * (certificate + certificate.T))
    assert lam[0] >= 1.0 - 1e-8
    assert lam[-1] <= 1.0 + eps * p / 4.0 + 1e-8
    worst = 1.0
    for _ in range(200):
        x = rng.standard_normal(2) @ basis
        norm = lp_norm(x, p)
        if norm == 0:
            continue
        worst = max(worst, lp_norm(apply_lp_embedding(x, selected, weights, p), p) / norm)
    assert worst <= 1.5 + 1e-8
    print(f"PASS criterion 6: lift dimension {d} <= 3, certified ratio <= 1 + eps*p/4, "
          f"sampled distortion {worst:.6f} <= 1.5")


def test_criterion_7_john_decompositions():
    rng = np.random.default_rng(711)
    eps = 0.8
    eps0 = barrier_eps_for_ratio(1 + eps / 4)
    done = 0
    for n, pairs in [(3, 12)] * 5 + [(5, 30)] * 5:
        pts, wts = random_john_decomposition(n, pairs, rng)
        jd = JohnDecomposition(n, pts, wts)
        out = approximate_john(jd, eps)
        assert out.identity_residual() <= 1e-8
        assert np.array_equal(out.center_of_mass(), np.zeros(n))
        assert out.size // 2 <= math.ceil(n / eps0**2)
        done += 1
    assert done == 10
    print("PASS criterion 7: 10 thinned John decompositions with identity residual "
          "<= 1e-8, exactly zero center of mass, support within bound")


def test_criterion_8_cycle_counterexample():
    demo = ["cycle-demo", "--p", "2", "--q", "4", "--eps", "0.5", "--n"]
    status, report = run(build_parser().parse_args([*demo, "5"]))
    assert status == 0
    assert report["results"]["probes"] >= 500
    assert report["results"]["p_quality_lower_bound"] <= 1.5 + 1e-9
    assert report["results"]["q_quality_lower_bound"] >= 8.0
    floors = {5: 8.0, 9: 32.0, 17: 128.0}
    for n, floor in floors.items():
        _, rep = run(build_parser().parse_args([*demo, str(n)]))
        assert rep["results"]["q_quality_lower_bound"] >= floor
    print("PASS criterion 8: cycle demo p-quality <= 1.5 on 500 seeded probes and "
          "q-quality floors 8/32/128 at n = 5/9/17")


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(911)
    compared = 0
    instances = [(1, 1), (2, 3), (2, 6), (3, 4), (3, 6)]
    for n, m in instances:
        if n == 1:
            frame = Frame(np.ones((1, 1)), isotropy_certified=True)
        else:
            frame = isotropic_reduce(Frame(rng.standard_normal((m, n))))
        eps = 0.8
        state = initial_barrier_state(n, eps)
        for _ in range(support_bound(n, eps)):
            oracle = barrier_step_oracle(state.A, frame.vectors, eps, state.step + 1)
            upper_gap, lower_gap = barrier_gaps(state)
            assert upper_gap == pytest.approx(oracle["upper_gap"], rel=1e-9)
            assert lower_gap == pytest.approx(oracle["lower_gap"], rel=1e-9)
            upper_scores, lower_scores = candidate_scores(state, frame, upper_gap, lower_gap)
            np.testing.assert_allclose(upper_scores, oracle["upper_scores"], rtol=1e-9)
            np.testing.assert_allclose(lower_scores, oracle["lower_scores"], rtol=1e-9)
            state, chosen, _ = select_and_step(state, frame, upper_scores, lower_scores)
            assert chosen == oracle["chosen"]
            compared += 1
    print(f"PASS criterion 9: production path matches the brute-force eigendecomposition "
          f"oracle on {compared} steps across {len(instances)} instances")
