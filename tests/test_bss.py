import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
import scipy.linalg

from rforge import bss, linalg
from rforge.bss import (
    BarrierState,
    SparseWeights,
    barrier_gaps,
    candidate_scores,
    initial_barrier_state,
    select_and_step,
    sparsify_frame,
    support_bound,
)
from rforge.errors import BarrierInvariantError
from rforge.graphs import WeightedGraph, edge_frame, sparsify_graph
from rforge.linalg import Frame, eigh, isotropic_reduce, symmetrize

from oracles import barrier_loop_oracle, barrier_step_oracle, quadratic_ratio_range


def dense(weights):
    """Per-row weights of a SparseWeights, zero off its support."""
    out = np.zeros(weights.source_size)
    out[weights.support] = weights.weights
    return out


def scalar_frame():
    return Frame(np.array([[1.0]]), isotropy_certified=True)


def complete_graph(n, seed, heavy=0, heavy_weight=1e12):
    """K_n with weights log-uniform in [1, 100], except weight ``heavy_weight`` among the first ``heavy`` vertices."""
    pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
    weights = np.exp(np.random.default_rng(seed).uniform(0.0, math.log(100.0), len(pairs)))
    weights[pairs[:, 1] < heavy] = heavy_weight
    return WeightedGraph.from_arrays(n, pairs[:, 0], pairs[:, 1], weights)


def random_isotropic_frame(rng, n, m):
    vectors = rng.standard_normal((m, n))
    frame = isotropic_reduce(Frame(vectors))
    assert frame.ambient_dim == n
    return frame


class TestBarrierState:
    def test_stores_only_what_a_step_cannot_recompute(self):
        names = [f.name for f in fields(BarrierState) if not f.name.startswith("_")]
        assert names == [
            "step",
            "A",
            "eps",
            "upper_potential",
            "lower_potential",
            "eigenvalues",
            "eigenvectors",
            "eigensolve",
        ]
        # the one private field is the run's dlaed9 scratch, outside equality and repr
        private = [(f.name, f.compare, f.repr) for f in fields(BarrierState) if f.name.startswith("_")]
        assert private == [("_workspace", False, False)]

    def test_barriers_follow_from_eps_step_and_order(self, rng):
        frame = random_isotropic_frame(rng, 3, 7)
        eps = 0.6
        theta = (1 + eps) / (1 - eps)
        state = initial_barrier_state(3, eps)
        for _ in range(4):
            assert state.theta == theta
            assert (state.upper, state.lower) == (theta * (3 / eps + state.step), -3 / eps + state.step)
            scores = candidate_scores(state, frame, *barrier_gaps(state))
            state, _, _ = select_and_step(state, frame, *scores)

    def test_gaps_and_scores_leave_the_state_untouched(self, rng):
        frame = random_isotropic_frame(rng, 3, 7)
        state = initial_barrier_state(3, 0.6)
        for _ in range(3):
            before = {name: np.copy(value) for name, value in vars(state).items()}
            scores = candidate_scores(state, frame, *barrier_gaps(state))
            assert vars(state).keys() == before.keys()
            for name, value in vars(state).items():
                assert np.array_equal(value, before[name]), name
            state, _, _ = select_and_step(state, frame, *scores)

    def test_state_built_by_hand_steps_in_a_workspace_of_its_own(self, rng):
        frame = random_isotropic_frame(rng, 3, 7)
        start = initial_barrier_state(3, 0.6)
        public = [f.name for f in fields(BarrierState) if not f.name.startswith("_")]
        state = BarrierState(**{name: getattr(start, name) for name in public})
        assert state._workspace is not start._workspace and state._workspace.order == 3
        stepped, _, _ = select_and_step(state, frame, *candidate_scores(state, frame, *barrier_gaps(state)))
        assert stepped.eigensolve == "update" and stepped._workspace is state._workspace

    def test_frozen(self):
        state = initial_barrier_state(2, 0.5)
        for name in ("step", "A", "eigenvalues", "upper_potential", "upper", "theta"):
            with pytest.raises(FrozenInstanceError):
                setattr(state, name, 1.0)


class TestBarrierGaps:
    def test_scalar_first_step(self):
        state = initial_barrier_state(1, 0.5)
        upper_gap, lower_gap = barrier_gaps(state)
        assert upper_gap == pytest.approx(1.0 / 18.0, abs=1e-12)
        assert lower_gap == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("lam", [-1.0, 9.0, -2.0, 10.0])
    def test_refuses_spectrum_outside_advanced_window(self, lam):
        # eps 0.5, n = 1: the step-1 barriers are l' = -1 and u' = 9, and the window is open
        state = replace(initial_barrier_state(1, 0.5), eigenvalues=np.array([lam]))
        with pytest.raises(BarrierInvariantError, match="window"):
            barrier_gaps(state)

    def test_gaps_positive_along_run(self, rng):
        frame = random_isotropic_frame(rng, 3, 7)
        state = initial_barrier_state(3, 0.6)
        for _ in range(support_bound(3, 0.6)):
            upper_gap, lower_gap = barrier_gaps(state)
            assert upper_gap > 0 and lower_gap > 0
            scores = candidate_scores(state, frame, upper_gap, lower_gap)
            state, _, _ = select_and_step(state, frame, *scores)


class TestCandidateScores:
    def test_scalar_values_match_oracle(self):
        state = initial_barrier_state(1, 0.5)
        upper_gap, lower_gap = barrier_gaps(state)
        upper_scores, lower_scores = candidate_scores(state, scalar_frame(), upper_gap, lower_gap)
        oracle = barrier_step_oracle(np.zeros((1, 1)), np.array([[1.0]]), 0.5, 1)
        assert upper_scores[0] == pytest.approx(oracle["upper_scores"][0], rel=1e-12)
        assert lower_scores[0] == pytest.approx(oracle["lower_scores"][0], rel=1e-12)
        # frozen from the scalar oracle
        assert upper_scores[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert lower_scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_lower_sum_dominates_upper_sum(self, rng):
        for n, m, eps in [(2, 5, 0.5), (4, 9, 0.7), (3, 6, 0.9)]:
            frame = random_isotropic_frame(rng, n, m)
            state = initial_barrier_state(n, eps)
            for _ in range(support_bound(n, eps)):
                upper_gap, lower_gap = barrier_gaps(state)
                upper_scores, lower_scores = candidate_scores(state, frame, upper_gap, lower_gap)
                assert lower_scores.sum() >= upper_scores.sum() - 1e-9
                assert upper_scores.sum() <= 1 - eps + 1e-8
                assert lower_scores.sum() >= 1 - eps - 1e-8
                state, _, _ = select_and_step(state, frame, upper_scores, lower_scores)

    def test_window_guard_upper(self):
        state = initial_barrier_state(1, 0.5)  # advanced barriers: (-1, 9)
        state = replace(state, A=np.array([[9.0]]), eigenvalues=np.array([9.0]))
        with pytest.raises(BarrierInvariantError, match="window"):
            candidate_scores(state, scalar_frame(), 1.0, 1.0)

    def test_window_guard_lower(self):
        state = initial_barrier_state(1, 0.5)
        state = replace(state, A=np.array([[-1.0]]), eigenvalues=np.array([-1.0]))
        with pytest.raises(BarrierInvariantError, match="window"):
            candidate_scores(state, scalar_frame(), 1.0, 1.0)

    def test_requires_certified_frame(self):
        state = initial_barrier_state(2, 0.5)
        with pytest.raises(ValueError, match="certified"):
            candidate_scores(state, Frame(np.eye(2) * 2.0), 1.0, 1.0)


class TestSelectAndStep:
    def test_scalar_step(self):
        state = initial_barrier_state(1, 0.5)
        gaps = barrier_gaps(state)
        scores = candidate_scores(state, scalar_frame(), *gaps)
        new_state, chosen, weight = select_and_step(state, scalar_frame(), *scores)
        assert chosen == 0
        assert weight == pytest.approx(3.0, rel=1e-12)
        # spectrum strictly inside the advanced window (-1, 9)
        assert new_state.lower < new_state.eigenvalues[-1]
        assert new_state.eigenvalues[0] < new_state.upper

    def test_upper_potential_conserved_and_lower_monotone(self, rng):
        frame = random_isotropic_frame(rng, 4, 10)
        eps = 0.6
        state = initial_barrier_state(4, eps)
        target = eps / state.theta
        for _ in range(support_bound(4, eps)):
            before = state.lower_potential
            gaps = barrier_gaps(state)
            scores = candidate_scores(state, frame, *gaps)
            state, _, _ = select_and_step(state, frame, *scores)
            assert state.upper_potential == pytest.approx(target, rel=1e-8)
            assert state.lower_potential <= before + 1e-9
            assert state.lower_potential <= eps + 1e-8

    def test_infeasible_scores_raise(self):
        state = initial_barrier_state(1, 0.5)
        with pytest.raises(BarrierInvariantError, match="no feasible"):
            select_and_step(state, scalar_frame(), np.array([1.0]), np.array([0.5]))


class TestSparseWeights:
    def test_rejects_out_of_range_index_and_nonpositive_weight(self):
        cert = sparsify_frame(scalar_frame(), 0.5).certificate
        assert SparseWeights([0, 2], [1.0, 0.5], 3, cert).support.dtype == np.intp
        with pytest.raises(ValueError, match="index 3 outside"):
            SparseWeights([0, 3], [1.0, 0.5], 3, cert)
        with pytest.raises(ValueError, match="positive"):
            SparseWeights([0, 2], [1.0, 0.0], 3, cert)

    @pytest.mark.parametrize("weight", [np.inf, np.nan, -np.inf])
    def test_rejects_non_finite_weights(self, weight):
        cert = sparsify_frame(scalar_frame(), 0.5).certificate
        with pytest.raises(ValueError, match="finite"):
            SparseWeights([0, 1], [1.0, weight], 2, cert)

    @pytest.mark.parametrize("support", [[1, 1], [2, 0], [0, 2, 1]])
    def test_rejects_repeated_or_unsorted_support(self, support):
        cert = sparsify_frame(scalar_frame(), 0.5).certificate
        with pytest.raises(ValueError, match="strictly ascending"):
            SparseWeights(support, np.ones(len(support)), 3, cert)

    def test_rejects_a_repeated_index_with_an_infinite_weight(self):
        cert = sparsify_frame(scalar_frame(), 0.5).certificate
        with pytest.raises(ValueError):
            SparseWeights([1, 1], [1.0, np.inf], 2, cert)


class TestSparsifyFrame:
    def test_diagonal_case(self):
        frame = Frame(np.eye(2), isotropy_certified=True)
        weights = sparsify_frame(frame, 0.5)
        assert len(weights.support) <= support_bound(2, 0.5)
        assert set(weights.support.tolist()) <= {0, 1}
        total = symmetrize(
            (frame.vectors * dense(weights)[:, None]).T @ frame.vectors
        )
        lam = np.linalg.eigvalsh(total)
        assert lam[0] >= 0.25 - 1e-8 and lam[-1] <= 2.25 + 1e-8

    def test_unscaled_ratio_bound(self, rng):
        eps = 0.5
        # m = 12 = ceil(3/eps^2): uniform weights, no barrier step, no history
        history = []
        weights = sparsify_frame(random_isotropic_frame(rng, 3, 12), eps, history=history)
        assert history == []
        assert np.all(weights.weights == (1 - eps) ** 2)
        # m = 13: the loop runs, and its final unscaled spectrum fits the ratio
        sparsify_frame(random_isotropic_frame(rng, 3, 13), eps, history=history)
        last = history[-1]
        ratio = last["spectrum_max"] / last["spectrum_min"]
        assert ratio <= ((1 + eps) / (1 - eps)) ** 2 + 1e-9

    def test_random_frame_against_dense_verifier(self, rng):
        eps = 0.6
        vectors = rng.standard_normal((60, 6))
        frame = Frame(vectors)
        weights = sparsify_frame(frame, eps)
        assert len(weights.support) <= support_bound(6, eps)
        # independent verifier: eigendecompose the weighted sum directly
        weighted = symmetrize((vectors * dense(weights)[:, None]).T @ vectors)
        plain = symmetrize(vectors.T @ vectors)
        lam_w = np.linalg.eigvalsh(weighted)
        lam_p = np.linalg.eigvalsh(plain)
        # both forms live on the same span here (full rank); compare Rayleigh bounds
        sandwich = scipy.linalg.eigh(weighted, plain, eigvals_only=True)
        assert sandwich[0] >= (1 - eps) ** 2 - 1e-7
        assert sandwich[-1] <= (1 + eps) ** 2 + 1e-7
        assert lam_w[0] > 0 and lam_p[0] > 0

    def test_support_bound_exact_count(self, rng):
        frame = random_isotropic_frame(rng, 2, 40)
        weights = sparsify_frame(frame, 0.9)
        assert len(weights.support) <= math.ceil(2 / 0.81)

    def test_weights_accumulate_on_repeats(self):
        weights = sparsify_frame(scalar_frame(), 0.5)
        # all four iterations pick the single vector; weights fold together
        assert weights.support.tolist() == [0]
        assert weights.weights[0] == pytest.approx(0.25, rel=1e-12)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            sparsify_frame(scalar_frame(), 1.5)
        with pytest.raises(ValueError):
            sparsify_frame(scalar_frame(), 0.0)

    def test_non_certified_frame_guarantee_on_span(self, rng):
        vectors = rng.standard_normal((10, 3))
        vectors[:, 2] = vectors[:, 0] + vectors[:, 1]  # rank 2
        eps = 0.7
        weights = sparsify_frame(Frame(vectors), eps)
        weighted = symmetrize((vectors * dense(weights)[:, None]).T @ vectors)
        plain = symmetrize(vectors.T @ vectors)
        lam, vecs = np.linalg.eigh(plain)
        keep = lam > 1e-12 * lam[-1]
        v = vecs[:, keep]
        pencil = scipy.linalg.eigh(
            symmetrize(v.T @ weighted @ v), symmetrize(v.T @ plain @ v), eigvals_only=True
        )
        assert pencil[0] >= (1 - eps) ** 2 - 1e-7
        assert pencil[-1] <= (1 + eps) ** 2 + 1e-7


class TestShortCircuit:
    def test_boundary(self, rng):
        eps = 0.5
        bound = support_bound(3, eps)
        history = []
        weights = sparsify_frame(random_isotropic_frame(rng, 3, bound), eps, history=history)
        assert history == []
        assert weights.support.tolist() == list(range(bound))
        sparsify_frame(random_isotropic_frame(rng, 3, bound + 1), eps, history=history)
        assert len(history) == bound

    def test_zero_rows_get_no_weight(self, rng):
        vectors = rng.standard_normal((6, 3))
        vectors[[1, 4]] = 0.0
        weights = sparsify_frame(Frame(vectors), 0.5)
        assert weights.support.tolist() == [0, 2, 3, 5]

    def test_rescaling_gives_identical_weights(self, rng):
        vectors = rng.standard_normal((10, 3))
        weights = sparsify_frame(Frame(vectors), 0.5)
        assert len(weights.support) == 10
        scaled = sparsify_frame(Frame(1e3 * vectors), 0.5)
        assert np.array_equal(scaled.support, weights.support)
        assert np.array_equal(scaled.weights, weights.weights)

    def test_uncertifiable_uniform_weights_run_the_loop(self, rng):
        # certified isotropic to 9.9e-9 max-entry, but lambda_min(Gram) is
        # 1 - 4.95e-8: uniform (1-eps)^2 weights would fall below the window
        frame = random_isotropic_frame(rng, 6, 20)
        target = np.eye(6) - 0.99e-8 * (np.ones((6, 6)) - np.eye(6))
        near = Frame(frame.vectors @ np.real(scipy.linalg.sqrtm(target)), isotropy_certified=True)
        history = []
        weights = sparsify_frame(near, 0.5, history=history)
        assert len(history) == support_bound(6, 0.5)
        weighted = symmetrize((near.vectors * dense(weights)[:, None]).T @ near.vectors)
        lam = np.linalg.eigvalsh(weighted)
        assert lam[0] >= 0.25 - 1e-8 and lam[-1] <= 2.25 + 1e-8


class TestScaleInvariance:
    @pytest.mark.parametrize("rows, dim", [(60, 6), (600, 24)])
    def test_power_of_two_rescaling_gives_identical_weights(self, rng, rows, dim):
        vectors = rng.standard_normal((rows, dim)) * np.exp(rng.uniform(-2.0, 2.0, dim))
        weights = sparsify_frame(Frame(vectors), 0.5)
        assert len(weights.support) < rows  # the barrier loop ran
        for j in (-500, -100, 100, 500):
            scaled = sparsify_frame(Frame(np.ldexp(vectors, j)), 0.5)
            assert np.array_equal(scaled.support, weights.support)
            assert np.array_equal(scaled.weights, weights.weights)

    @pytest.mark.parametrize("factor", [1e160, 1e-170])
    def test_extreme_scales_certify(self, rng, factor):
        # the Gram matrix of these frames overflows / underflows float64
        vectors = rng.standard_normal((60, 6)) * np.exp(rng.uniform(-2.0, 2.0, 6))
        weights = sparsify_frame(Frame(vectors * factor), 0.5)
        cert = weights.certificate
        assert cert.range_dim == 6
        assert cert.measured_min >= 0.25 - 1e-8 and cert.measured_max <= 2.25 + 1e-8
        assert np.array_equal(weights.support, sparsify_frame(Frame(vectors), 0.5).support)


class TestCertificate:
    def test_short_circuit_path(self, rng):
        eps = 0.5
        history = []
        weights = sparsify_frame(Frame(rng.standard_normal((12, 3))), eps, history=history)
        assert history == []
        cert = weights.certificate
        assert (cert.low, cert.high, cert.range_dim) == ((1 - eps) ** 2, (1 + eps) ** 2, 3)
        assert cert.measured_min == pytest.approx((1 - eps) ** 2, abs=1e-12)
        assert cert.measured_max == pytest.approx((1 - eps) ** 2, abs=1e-12)

    def test_loop_path(self, rng):
        eps = 0.5
        vectors = rng.standard_normal((40, 4))
        vectors[:, 3] = vectors[:, 0] - vectors[:, 2]  # rank 3
        history = []
        weights = sparsify_frame(Frame(vectors), eps, history=history)
        assert len(history) == support_bound(3, eps)
        cert = weights.certificate
        assert cert.range_dim == 3
        assert cert.measured_min == pytest.approx((1 - eps) ** 2, abs=1e-12)
        assert cert.measured_max <= (1 + eps) ** 2 + 1e-8
        assert cert.margin == pytest.approx(0.0, abs=1e-12)  # the rescaling lands on the low end

    @pytest.mark.parametrize("scale", [1e-8, 1e-12, 1e-15])
    def test_small_column_is_certified_on_the_whole_span(self, scale):
        # A Gram matrix would square the column's singular value below the rank floor.
        vectors = np.random.default_rng(0).standard_normal((40, 3))
        vectors[:, 2] *= scale
        weights = sparsify_frame(Frame(vectors), 0.5)
        cert = weights.certificate
        assert cert.range_dim == 3
        low, high = quadratic_ratio_range(vectors, weights.support, weights.weights)
        assert cert.measured_min <= low * (1.0 + 1e-9) and high <= cert.measured_max * (1.0 + 1e-9)


class TestOracleEquivalence:
    @staticmethod
    def assert_run_matches_oracle(frame, eps):
        state = initial_barrier_state(frame.ambient_dim, eps)
        for _ in range(support_bound(frame.ambient_dim, eps)):
            oracle = barrier_step_oracle(state.A, frame.rows(), eps, state.step + 1)
            upper_gap, lower_gap = barrier_gaps(state)
            assert upper_gap == pytest.approx(oracle["upper_gap"], rel=1e-9)
            assert lower_gap == pytest.approx(oracle["lower_gap"], rel=1e-9)
            upper_scores, lower_scores = candidate_scores(state, frame, upper_gap, lower_gap)
            np.testing.assert_allclose(upper_scores, oracle["upper_scores"], rtol=1e-9)
            np.testing.assert_allclose(lower_scores, oracle["lower_scores"], rtol=1e-9)
            state, chosen, weight = select_and_step(state, frame, upper_scores, lower_scores)
            assert chosen == oracle["chosen"]
            assert weight == pytest.approx(oracle["weight"], rel=1e-9)

    def test_single_step_matches_brute_force(self, rng):
        # small instances, large eps so runs stay short
        for n, m in [(1, 1), (2, 4), (3, 6), (2, 6), (3, 3)]:
            frame = random_isotropic_frame(rng, n, m) if n > 1 else scalar_frame()
            self.assert_run_matches_oracle(frame, 0.8)

    def test_full_run_matches_brute_force(self, rng):
        # 32 steps at n = 8 over 40 candidates
        self.assert_run_matches_oracle(random_isotropic_frame(rng, 8, 40), 0.5)

    def test_factored_edge_frame_matches_brute_force(self, rng):
        # whitened weighted K12: 44 steps scored from the incidence factor
        n = 12
        weights = np.exp(rng.uniform(0.0, math.log(100.0), n * (n - 1) // 2))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = WeightedGraph(n, [(i, j, float(w)) for (i, j), w in zip(pairs, weights)])
        frame = isotropic_reduce(edge_frame(g))
        assert frame.incidence is not None
        self.assert_run_matches_oracle(frame, 0.5)


class TestTieRule:
    def run_choices(self, frame, eps):
        state = initial_barrier_state(frame.ambient_dim, eps)
        choices = []
        for _ in range(support_bound(frame.ambient_dim, eps)):
            scores = candidate_scores(state, frame, *barrier_gaps(state))
            state, chosen, _ = select_and_step(state, frame, *scores)
            choices.append(chosen)
        return choices

    def test_orthonormal_basis_picks_lowest_index(self, rng):
        # every slack ties at the first step, up to rounding
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        for vectors in (np.eye(4), q):
            frame = Frame(vectors, isotropy_certified=True)
            assert self.run_choices(frame, 0.8)[0] == 0

    def test_mirrored_frame_never_picks_the_mirror(self, rng):
        # x and -x always tie exactly; the lower index must win every step
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        frame = Frame(np.vstack([q, -q]) / math.sqrt(2.0), isotropy_certified=True)
        choices = self.run_choices(frame, 0.5)
        assert choices[0] == 0
        assert all(chosen < 3 for chosen in choices)


class TestEigenWindow:
    def test_window_strict_at_every_step(self, rng):
        frame = random_isotropic_frame(rng, 3, 9)
        eps = 0.7
        state = initial_barrier_state(3, eps)
        for _ in range(support_bound(3, eps)):
            gaps = barrier_gaps(state)
            scores = candidate_scores(state, frame, *gaps)
            state, _, _ = select_and_step(state, frame, *scores)
            lam = eigh(state.A).values
            assert lam[-1] > -3 / eps + state.step
            assert lam[0] < state.theta * (3 / eps + state.step)


class TestRankOneStep:
    def test_k64_updates_every_step(self):
        history = []
        sparsify_graph(complete_graph(64, 1), 0.5, history=history)
        assert len(history) == 252
        assert all(record["eigensolve"] == "update" for record in history)

    @pytest.mark.parametrize("case", ["K64", "whitened 600x40 Gaussian frame"])
    def test_running_sum_stays_exactly_symmetric(self, case):
        if case == "K64":
            frame = isotropic_reduce(edge_frame(complete_graph(64, 1)))
        else:
            frame = isotropic_reduce(Frame(np.random.default_rng(1).standard_normal((600, 40))))
        state = initial_barrier_state(frame.ambient_dim, 0.5)
        for _ in range(support_bound(frame.ambient_dim, 0.5)):
            scores = candidate_scores(state, frame, *barrier_gaps(state))
            state, _, _ = select_and_step(state, frame, *scores)
            assert np.array_equal(state.A, state.A.T)
            assert state.eigensolve == "update"

    @pytest.mark.parametrize("fault", ["shifted", "scaled"])
    def test_bad_roots_fall_back_to_full_eigh(self, monkeypatch, fault):
        g = complete_graph(48, 2)
        reference = []
        sparsify_graph(g, 0.5, history=reference)
        assert all(record["eigensolve"] == "update" for record in reference)
        solve, calls = linalg._secular_roots, []

        def perturbed(d, z, t, workspace):
            roots, vectors = solve(d, z, t, workspace)  # descending
            calls.append(None)
            if len(calls) % 4:
                return roots, vectors
            if fault == "shifted":  # the smallest root drops below every pole
                roots[-1] -= 1.0 + abs(roots[-1])
                return roots, vectors
            # each root's distance from the pole below it shrinks by 1e-3: interlacing holds, the roots are wrong
            return d + (roots - d) * (1.0 - 1e-3), vectors

        update, updates = bss._rank_one_update, []
        monkeypatch.setattr(linalg, "_secular_roots", perturbed)
        monkeypatch.setattr(bss, "_rank_one_update", lambda *args: updates.append(update(*args)) or updates[-1])
        history = []
        sparsify_graph(g, 0.5, history=history)
        expected = ["update" if (step + 1) % 4 else "full" for step in range(len(history))]
        assert [record["eigensolve"] for record in history] == expected
        # the shifted roots are refused for not interlacing; the scaled ones fail the residual check
        refused = [out is None for out in updates[3::4]]
        assert all(refused) if fault == "shifted" else not any(refused)
        assert [record["chosen"] for record in history] == [record["chosen"] for record in reference]
        np.testing.assert_allclose(
            [record["weight"] for record in history], [record["weight"] for record in reference], rtol=1e-9
        )

    def test_missing_lapack_symbol_takes_full_eigh(self, monkeypatch):
        monkeypatch.setattr(linalg, "_dlaed9", lambda: None)
        frame = isotropic_reduce(edge_frame(complete_graph(48, 1)))
        history = []
        sparsify_frame(frame, 0.5, history=history)
        assert all(record["eigensolve"] == "full" for record in history)
        choices, weights = barrier_loop_oracle(frame, 0.5)
        assert [record["chosen"] for record in history] == choices
        np.testing.assert_allclose([record["weight"] for record in history], weights, rtol=1e-9)

    @pytest.mark.parametrize(
        "case",
        [
            "K24",
            "K48 at eps 0.7",
            "K64",
            "K128",
            "K16 with a 1e12-weight K4",
            "K32 with a 1e12-weight K6",  # the update before dlaed9 fell back on 5 of its 124 steps
            "whitened 600x40 Gaussian frame",
        ],
    )
    def test_loop_matches_full_eigh_oracle(self, case):
        eps = 0.7 if "0.7" in case else 0.5
        if case.startswith("whitened"):
            frame = isotropic_reduce(Frame(np.random.default_rng(1).standard_normal((600, 40))))
        else:
            n = int(case.split()[0][1:])
            heavy = int(case.split(" K")[-1]) if "1e12" in case else 0
            frame = isotropic_reduce(edge_frame(complete_graph(n, 1, heavy=heavy)))
        history = []
        sparsify_frame(frame, eps, history=history)
        choices, weights = barrier_loop_oracle(frame, eps)
        assert [record["chosen"] for record in history] == choices
        np.testing.assert_allclose([record["weight"] for record in history], weights, rtol=1e-9)
        assert all(record["eigensolve"] == "update" for record in history)
