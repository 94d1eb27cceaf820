import tracemalloc

import numpy as np
import pytest

from rforge.errors import CertificationError
from rforge.graphs import WeightedGraph, sparsify_graph, verify_quality
from rforge.linalg import _one_blas_thread
from rforge.nonlinear import (
    _PROBE_BLOCK,
    _energies,
    _with_standard_probes,
    cycle_counterexample,
    energy_ratio_range,
    nonzero_energy_probes,
    quality_lower_bound,
    standard_probes,
)

from oracles import monotonicity_check, p_energy, power_energy_double_sum


class TestPEnergy:
    def test_single_edge_double_count(self):
        g = WeightedGraph(2, [(0, 1, 1.0)])
        assert p_energy(g, np.array([0.0, 1.0]), 2.0) == pytest.approx(2.0)

    def test_constant_configuration(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        assert p_energy(g, np.full(3, 4.2), 3.0) == 0.0

    def test_cycle_against_double_sum_oracle(self):
        n, p, eps = 5, 2.0, 0.5
        g, _, _ = cycle_counterexample(n, p, eps)
        x = np.arange(n, dtype=float)
        got = p_energy(g, x, p)
        want = power_energy_double_sum(n, g.edges, x, p)
        assert got == pytest.approx(want, rel=1e-12)
        # closed form: 2 (n-1)^p + 2 (n-1)^p / eps
        assert got == pytest.approx(2 * 4**2 + 2 * 4**2 / eps, rel=1e-12)

    def test_random_against_oracle(self, rng):
        g = WeightedGraph(6, [(0, 1, 1.5), (0, 5, 0.5), (2, 4, 2.0), (3, 4, 1.0)])
        for p in (1.0, 2.0, 3.5):
            x = rng.standard_normal(6)
            assert p_energy(g, x, p) == pytest.approx(
                power_energy_double_sum(6, g.edges, x, p), rel=1e-12
            )

    def test_ratio_range_matches_per_probe_loop(self, rng):
        g = WeightedGraph(6, [(0, 1, 1.5), (0, 5, 0.5), (2, 4, 2.0), (3, 4, 1.0), (1, 2, 0.7)])
        h = WeightedGraph(6, [(0, 1, 3.0), (2, 4, 1.0), (3, 4, 2.5)])
        probes = nonzero_energy_probes(standard_probes(6)[:40], g, 3.0)
        ratios = [
            power_energy_double_sum(6, h.edges, x, 3.0) / power_energy_double_sum(6, g.edges, x, 3.0)
            for x in probes
        ]
        low, high = energy_ratio_range(g, h, 3.0, probes)
        assert low == pytest.approx(min(ratios), rel=1e-12)
        assert high == pytest.approx(max(ratios), rel=1e-12)


class TestProbes:
    def test_standard_probes_are_sequential_draws(self):
        draws = np.random.default_rng(7)
        want = [draws.standard_normal(5) for _ in range(500)]
        assert np.array_equal(standard_probes(5, seed=7), np.array(want))

    def test_cycle_witnesses(self):
        _, _, witnesses = cycle_counterexample(5, 2.0, 0.5)
        assert witnesses.tolist() == [[0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, 0.0, 0.0]]

    @pytest.mark.parametrize("n, seed", [(3, 0), (5, 7), (400, 1), (1001, 0x5EED)])
    def test_in_place_draw_matches_stacked_draw(self, n, seed):
        _, _, witnesses = cycle_counterexample(n, 2.0, 0.5)
        stacked = np.vstack([witnesses, standard_probes(n, seed=seed)])
        drawn = _with_standard_probes(witnesses, seed=seed)
        assert drawn.shape == stacked.shape and drawn.tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("dropped", [False, True])
    def test_nonzero_energy_probes_never_return_the_callers_array(self, dropped):
        g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)])
        candidates = standard_probes(4)[:70].copy()
        if dropped:
            candidates[65] = 3.0  # constant: zero energy
        probes = nonzero_energy_probes(candidates, g, 2.0)
        assert len(probes) == 70 - dropped
        assert not np.shares_memory(probes, candidates)
        probes[0] = 0.0
        assert candidates[0].any()


class TestBlockedEnergies:
    """``_energies`` takes the probes 64 rows at a time."""

    def test_working_memory_is_a_few_probe_blocks(self):
        # 502 probes of a 5,000-vertex cycle: one product over all of them held three k x m temporaries
        g, _, witnesses = cycle_counterexample(5000, 2.0, 0.5)
        probes = _with_standard_probes(witnesses, seed=1)
        budget = 4 * _PROBE_BLOCK * g.edge_count * 8
        tracemalloc.start()
        try:
            _energies(g, probes, 2.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _PROBE_BLOCK == 64 and budget == 10_240_000
        assert peak < budget

    @pytest.mark.parametrize("k", [1, 2, 3, 63, 64, 65, 66, 129, 130, 502])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
    def test_matches_one_product_over_every_probe(self, rng, k, p):
        n = 50
        g = WeightedGraph.from_arrays(n, np.arange(n - 1), np.arange(1, n), rng.uniform(0.1, 10.0, n - 1))
        x = rng.standard_normal((k, n))
        whole = _one_blas_thread(lambda: 2.0 * (np.abs(x[:, g.heads] - x[:, g.tails]) ** p) @ g.weights)()
        # blocks may sum a probe's m positive terms in another order: at most m roundings apart
        rtol = g.edge_count * np.finfo(float).eps
        np.testing.assert_allclose(_one_blas_thread(_energies)(g, x, p), whole, rtol=rtol, atol=0.0)

    def test_non_finite_energy_in_a_later_block_names_its_probe(self, rng):
        g, _, _ = cycle_counterexample(6, 2.0, 0.5)
        x = rng.standard_normal((130, 6))
        x[100, 2] = 1e200  # its square overflows
        with pytest.raises(ValueError, match=r"^2-energy of probe 100 is inf, not a finite float64$"):
            _energies(g, x, 2.0)
        x[100, 2] = np.nan
        with pytest.raises(ValueError, match=r"^2-energy of probe 100 is nan"):
            _energies(g, x, 2.0)


class TestQualityLowerBound:
    def test_identity_pair(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        probes = nonzero_energy_probes(standard_probes(3)[:50], g, 2.0)
        assert quality_lower_bound(g, g, 2.0, probes) == pytest.approx(1.0)

    def test_scaling_invariance(self):
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        h = WeightedGraph(3, [(0, 1, 3.0), (1, 2, 3.0)])
        probes = nonzero_energy_probes(standard_probes(3)[:50], g, 2.0)
        assert quality_lower_bound(g, h, 2.0, probes) == pytest.approx(1.0)

    def test_cycle_witnesses_reach_paper_bound(self):
        n, p, q, eps = 5, 2.0, 4.0, 0.5
        g, h, witnesses = cycle_counterexample(n, p, eps)
        bound = quality_lower_bound(g, h, q, witnesses)
        assert bound >= eps * (n - 1) ** (q - p)

    def test_support_violation(self):
        g = WeightedGraph(3, [(0, 1, 1.0)])
        h = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        probes = np.array([[0.0, 1.0, 2.0]])
        with pytest.raises(ValueError, match="support"):
            quality_lower_bound(g, h, 2.0, probes)

    def test_probe_filtering(self):
        g = WeightedGraph(3, [(0, 1, 1.0)])
        # constant probes have zero energy and must be dropped
        probes = nonzero_energy_probes([np.zeros(3), np.array([1.0, 0.0, 0.0])], g, 2.0)
        assert len(probes) == 1
        with pytest.raises(ValueError, match="zero energy"):
            nonzero_energy_probes([np.zeros(3)], g, 2.0)
        with pytest.raises(ValueError, match="zero energy"):
            nonzero_energy_probes(np.empty((0, 3)), g, 2.0)

    def test_probes_from_matrix_rows(self, tmp_path):
        from rforge import formats

        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        path = tmp_path / "probes.mat"
        formats.write_matrix(path, np.array([[0.0, 1.0, 2.0], [5.0, 5.0, 5.0]]))
        probes = nonzero_energy_probes(formats.read_matrix(path), g, 2.0)
        assert len(probes) == 1  # the constant row is filtered out


class TestCycleCounterexample:
    def test_edge_weights(self):
        g, h, _ = cycle_counterexample(5, 2.0, 0.5)
        weights = {(i, j): w for i, j, w in g.edges}
        assert weights[(0, 4)] == 1.0
        for i in range(4):
            assert weights[(i, i + 1)] == pytest.approx(8.0)  # 4^1 / 0.5
        assert (0, 4) not in h.edge_pairs()
        assert h.edge_pairs() <= g.edge_pairs()

    def test_p_quality_stays_within_one_plus_eps(self):
        n, p, eps = 5, 2.0, 0.5
        g, h, witnesses = cycle_counterexample(n, p, eps)
        probes = nonzero_energy_probes(np.vstack([witnesses, standard_probes(n)]), g, p)
        assert len(probes) >= 500
        assert quality_lower_bound(g, h, p, probes) <= 1 + eps + 1e-9

    def test_q_bound_growth(self):
        eps, p, q = 0.5, 2.0, 4.0
        expected = {5: 8.0, 9: 32.0, 17: 128.0}
        previous = 0.0
        for n, floor in expected.items():
            g, h, witnesses = cycle_counterexample(n, p, eps)
            bound = quality_lower_bound(g, h, q, witnesses)
            assert bound >= floor
            assert bound > previous
            previous = bound

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            cycle_counterexample(2, 2.0, 0.5)
        with pytest.raises(ValueError):
            cycle_counterexample(5, 0.0, 0.5)


class TestMonotonicityCheck:
    def test_same_exponent(self):
        n, p, eps = 5, 2.0, 0.5
        g, h, witnesses = cycle_counterexample(n, p, eps)
        report = monotonicity_check(g, h, p, p, witnesses, quality=1 + eps)
        assert report["q_quality_lower_bound"] <= 1 + eps + 1e-8

    def test_half_exponent_with_many_probes(self):
        n, p, eps = 5, 2.0, 0.5
        g, h, witnesses = cycle_counterexample(n, p, eps)
        probes = nonzero_energy_probes(np.vstack([witnesses, standard_probes(n)]), g, p)
        report = monotonicity_check(g, h, p, p / 2, probes, quality=1 + eps)
        assert report["q_quality_lower_bound"] <= 1 + eps + 1e-8

    def test_identity_any_exponent(self):
        g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0)])
        probes = nonzero_energy_probes(standard_probes(4)[:100], g, 3.0)
        report = monotonicity_check(g, g, 3.0, 1.5, probes, quality=1.0)
        assert report["q_quality_lower_bound"] == pytest.approx(1.0)

    def test_rejects_q_above_p(self):
        g, h, witnesses = cycle_counterexample(5, 2.0, 0.5)
        with pytest.raises(ValueError, match="q <= p"):
            monotonicity_check(g, h, 2.0, 4.0, witnesses, quality=1.5)

    def test_violation_raises(self):
        # claiming quality 1.0 for the cycle pair at q = p is false
        g, h, witnesses = cycle_counterexample(5, 2.0, 0.5)
        with pytest.raises(CertificationError):
            monotonicity_check(g, h, 2.0, 2.0, witnesses, quality=1.0)


class TestSpectralConsistency:
    def test_probe_bound_below_spectral_quality_at_p_two(self, rng):
        # the p = 2 probe bound can never exceed the certified spectral range
        edges = [
            (i, j, float(rng.uniform(0.5, 2.0)))
            for i in range(8)
            for j in range(i + 1, 8)
            if rng.random() < 0.6
        ]
        g = WeightedGraph(8, edges or [(0, 1, 1.0)])
        h = sparsify_graph(g, 0.6)
        report = verify_quality(g, h)
        probes = nonzero_energy_probes(standard_probes(8)[:200], g, 2.0)
        bound = quality_lower_bound(g, h, 2.0, probes)
        assert bound <= report.max_quotient / report.min_quotient + 1e-8
