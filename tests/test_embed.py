import math
from itertools import combinations_with_replacement

import numpy as np
import pytest
import scipy.linalg

from rforge.bss import support_bound
from rforge.embed import (
    CutDecomposition,
    JohnDecomposition,
    apply_lp_embedding,
    approximate_john,
    barrier_eps_for_ratio,
    cut_decompose,
    embed_l1,
    embed_lp_even,
)
from rforge.errors import CertificationError
from rforge.linalg import Certificate

from oracles import cut_decompose_oracle, lp_norm, pairwise_l1_distances, random_john_decomposition


class TestBarrierEpsForRatio:
    def test_inverts_sandwich(self):
        for ratio in (1.15, 1.5, 1.9, 4.0):
            eps0 = barrier_eps_for_ratio(ratio)
            assert ((1 + eps0) / (1 - eps0)) ** 2 == pytest.approx(ratio, rel=1e-12)

    def test_requires_ratio_above_one(self):
        with pytest.raises(ValueError):
            barrier_eps_for_ratio(1.0)


class TestApproximateJohn:
    def coordinate_decomposition(self):
        points = np.vstack([np.eye(2), -np.eye(2)])
        weights = np.full(4, 0.5)
        return JohnDecomposition(2, points, weights)

    def test_coordinate_case(self):
        out = approximate_john(self.coordinate_decomposition(), 0.5)
        out.validate()
        assert out.identity_residual() <= 1e-8

    def test_center_of_mass_exact_zero(self):
        out = approximate_john(self.coordinate_decomposition(), 0.5)
        assert np.array_equal(out.center_of_mass(), np.zeros(2))

    def test_random_inputs(self, rng):
        for n, pairs, eps in [(3, 12, 0.6), (3, 15, 0.9), (5, 30, 0.8)]:
            pts, wts = random_john_decomposition(n, pairs, rng)
            jd = JohnDecomposition(n, pts, wts)
            out = approximate_john(jd, eps)
            out.validate()
            eps0 = barrier_eps_for_ratio(1 + eps / 4)
            assert out.size <= 2 * support_bound(n, eps0)
            assert out.identity_residual() <= 1e-8
            assert np.array_equal(out.center_of_mass(), np.zeros(n))
            assert np.max(np.abs(np.linalg.norm(out.points, axis=1) - 1)) <= 1e-10

    def test_invalid_input_rejected(self):
        bad = JohnDecomposition(2, np.array([[1.0, 0.0], [0.0, 2.0]]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="norm|residual"):
            approximate_john(bad, 0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, value):
        points, weights = np.vstack([np.eye(2), -np.eye(2)]), np.full(4, 0.5)
        bad_points, bad_weights = points.copy(), weights.copy()
        bad_points[1, 0] = bad_weights[1] = value
        with pytest.raises(ValueError, match="points must be finite"):
            JohnDecomposition(2, bad_points, weights)
        with pytest.raises(ValueError, match="weights must be positive and finite"):
            JohnDecomposition(2, points, bad_weights)


def cut_distances(cd):
    """The cut metric: l1 distances between the points' weighted cut profiles."""
    return pairwise_l1_distances(cd.indicators.T * cd.weights)


class TestCutDecompose:
    def test_line_metric(self):
        cd = cut_decompose(np.array([[0.0], [1.0], [3.0]]))
        weights = {tuple(np.flatnonzero(row).tolist()): w for row, w in zip(cd.indicators, cd.weights)}
        assert weights == {(1, 2): 1.0, (2,): 2.0}
        assert cut_distances(cd)[0, 2] == pytest.approx(3.0)

    def test_identical_points(self):
        cd = cut_decompose(np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 2.0]]))
        d = cut_distances(cd)
        assert d[0, 1] == 0.0
        assert d[0, 2] == pytest.approx(1.0)

    def test_random_reconstruction_exact(self, rng):
        pts = rng.standard_normal((5, 3))
        cd = cut_decompose(pts)
        direct = pairwise_l1_distances(pts)
        rec = cut_distances(cd)
        scale = np.maximum(direct, 1e-300)
        assert np.max(np.abs(rec - direct) / scale) <= 1e-12
        assert cd.size <= 3 * (5 - 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="proper"):
            CutDecomposition([[True, True]], [1.0])
        with pytest.raises(ValueError, match="positive"):
            CutDecomposition([[True, False]], [0.0])

    def test_validation_rejects_bad_rows_and_weights(self):
        with pytest.raises(ValueError, match="proper"):
            CutDecomposition([[True, False, False], [False, False, False]], [1.0, 2.0])
        with pytest.raises(ValueError, match="distinct"):
            CutDecomposition([[True, False, True], [False, True, False], [True, False, True]], [1.0, 2.0, 3.0])
        for bad in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="positive"):
                CutDecomposition([[True, False, False]], [bad])
        with pytest.raises(ValueError, match="one weight per cut"):
            CutDecomposition([[True, False, False]], [1.0, 2.0])

    def test_zero_cuts_accepted(self):
        cd = CutDecomposition(np.zeros((0, 4), dtype=bool), np.zeros(0))
        assert (cd.size, cd.n) == (0, 4)
        assert cut_decompose(np.full((3, 2), -0.0)).size == 0

    @staticmethod
    def oracle_arrays(pts):
        cuts = cut_decompose_oracle(pts)
        rows = np.zeros((len(cuts), pts.shape[0]), dtype=bool)
        for k, (subset, _) in enumerate(cuts):
            rows[k, sorted(subset)] = True
        return rows, np.array([w for _, w in cuts], dtype=float)

    def test_matches_per_threshold_oracle(self):
        rng = np.random.default_rng(7)
        for case in range(240):
            n, d = int(rng.integers(2, 31)), int(rng.integers(1, 9))
            kind = case % 6
            if kind == 0:  # integer grid, heavy ties
                pts = rng.integers(-2, 3, size=(n, d)).astype(float)
            elif kind == 1:  # columns duplicated, negated or rescaled: one cut from several coordinates
                base = rng.integers(-3, 4, size=(n, d)).astype(float)
                pts = base[:, rng.integers(0, d, size=d)] * rng.choice([-1.0, 1.0, 0.1, -2.7], size=d)
            elif kind == 2:  # signed zeros
                pts = rng.choice([-0.0, 0.0, 1.0, -1.5], size=(n, d))
            elif kind == 3:  # a constant column
                pts = rng.standard_normal((n, d))
                pts[:, rng.integers(0, d)] = rng.standard_normal()
            elif kind == 4:  # all points identical
                pts = np.tile(rng.standard_normal(d), (n, 1))
            else:  # distinct values over a wide range of scales
                pts = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-6, 7)
            cd = cut_decompose(pts)
            rows, weights = self.oracle_arrays(pts)
            assert np.array_equal(cd.indicators, rows), (case, pts)
            assert cd.weights.tobytes() == weights.tobytes(), (case, pts)


class TestEmbedL1:
    def test_two_points(self):
        out = embed_l1(np.array([[0.0, 0.0], [1.0, 2.0]]), 0.5)
        assert out.k == 1
        got = abs(out.points[0, 0] - out.points[1, 0])
        assert got == pytest.approx(3.0, rel=1e-9)

    def test_random_points_distortion(self, rng):
        eps = 0.9
        pts = rng.standard_normal((8, 3))
        out = embed_l1(pts, eps)
        eps0 = barrier_eps_for_ratio(1 + eps)
        assert out.k <= support_bound(8, eps0)
        direct = pairwise_l1_distances(pts)
        embedded = pairwise_l1_distances(out.points)
        for i in range(8):
            for j in range(i + 1, 8):
                ratio = embedded[i, j] / direct[i, j]
                assert ratio >= 1.0 - 1e-8
                assert ratio <= 1.0 + eps + 1e-8

    def test_lower_bound_one_sided(self, rng):
        pts = rng.standard_normal((6, 2))
        out = embed_l1(pts, 0.5)
        direct = pairwise_l1_distances(pts)
        embedded = pairwise_l1_distances(out.points)
        assert np.all(embedded >= direct - 1e-8)

    def test_few_cuts_embed_isometrically(self, rng):
        pts = rng.integers(0, 3, size=(6, 2)).astype(float)
        out = embed_l1(pts, 0.5)
        assert out.k == cut_decompose(pts).size
        direct = pairwise_l1_distances(pts)
        mask = direct > 0
        ratios = pairwise_l1_distances(out.points)[mask] / direct[mask]
        np.testing.assert_allclose(ratios, 1.0, rtol=0, atol=1e-12)

    def test_non_finite_points_rejected(self):
        pts = np.array([[0.0, 1.0], [np.nan, 2.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="points must be finite"):
            embed_l1(pts, 0.5)

    def test_coincident_points(self):
        pts = np.zeros((3, 2))
        out = embed_l1(pts, 0.5)
        assert np.array_equal(out.points, np.zeros((3, 1)))
        assert out.certificate == Certificate(1.0, 1.5, 1.0, 1.0, 0)
        self.assert_certificate_brackets_pairs(pts, 0.5, out)

    @staticmethod
    def assert_certificate_brackets_pairs(pts, eps, out):
        cert = out.certificate
        assert (cert.low, cert.high) == (1.0, 1.0 + eps)
        assert cert.measured_max <= 1.0 + eps
        direct, image = pairwise_l1_distances(pts), pairwise_l1_distances(out.points)
        apart = direct > 0
        assert np.all(image[~apart] == 0)
        ratios = image[apart] / direct[apart]
        assert np.all(ratios >= cert.measured_min * (1.0 - 1e-12))
        assert np.all(ratios <= cert.measured_max * (1.0 + 1e-12))

    def test_certificate_brackets_every_pair_after_barrier_run(self, rng):
        pts = rng.standard_normal((40, 60))
        out = embed_l1(pts, 0.9)
        assert out.k < cut_decompose(pts).size  # the barrier loop dropped cuts
        assert 0 < out.certificate.range_dim <= 40
        self.assert_certificate_brackets_pairs(pts, 0.9, out)

    def test_certificate_brackets_every_pair_when_all_cuts_kept(self, rng):
        pts = rng.standard_normal((40, 6))
        out = embed_l1(pts, 0.5)
        assert out.k == cut_decompose(pts).size  # short-circuit: no barrier step
        self.assert_certificate_brackets_pairs(pts, 0.5, out)

    @pytest.mark.parametrize("offset", [1e-9, 1e-12])
    def test_near_duplicate_point_is_bracketed_or_refused(self, rng, offset):
        # The pair's only separating cuts weigh about offset; at 1e-12 whitening cannot resolve them.
        pts = rng.standard_normal((40, 60))
        pts[-1] = pts[0] + offset * rng.standard_normal(60)
        try:
            out = embed_l1(pts, 0.9)
        except CertificationError:
            return
        self.assert_certificate_brackets_pairs(pts, 0.9, out)

    def test_unresolved_cut_span_is_refused(self):
        # The cut separating 1 from 1 + 2^-52 weighs 2^-52, a singular value 2^-26 relative: resolved.
        for pts in ([[0.0], [1.0], [1.0 + 2.0**-52]], [[0.0, 0.0], [1.0, 1.0], [1.0 + 2.0**-52, 1.0]]):
            out = embed_l1(np.array(pts), 0.5)
            assert out.certificate.range_dim == 2
            assert out.certificate.measured_min == pytest.approx(1.0, abs=1e-12)
            assert out.certificate.measured_max == pytest.approx(1.0, abs=1e-12)
            self.assert_certificate_brackets_pairs(np.array(pts), 0.5, out)
        # A 1e-40 cut beside a unit one is a singular value 1e-20 relative: below whitening's rank floor.
        for pts in ([[0.0], [1e-40], [1.0]], [[0.0, 0.0], [1e-40, 0.0], [1.0, 1.0]]):
            with pytest.raises(CertificationError, match="resolved 1 of the cut frame's 2 span directions"):
                embed_l1(np.array(pts), 0.5)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            embed_l1(np.zeros((3, 2)), 1.2)


class TestEmbedLpEven:
    def test_one_dimensional_subspace(self, rng):
        basis = rng.standard_normal((1, 12))
        lp = embed_lp_even(basis, 4, 0.5)
        selected, weights = lp.support, lp.weights
        x = 2.7 * basis[0]
        embedded = apply_lp_embedding(x, selected, weights, 4)
        ratio = lp_norm(embedded, 4) / lp_norm(x, 4)
        assert 1.0 - 1e-9 <= ratio <= (1 + 0.5) ** 0.25 + 1e-9
        # a batch embeds row by row
        batch = apply_lp_embedding(np.stack([x, -x, 0 * x]), selected, weights, 4)
        assert np.array_equal(batch, np.stack([embedded, -embedded, 0 * embedded]))

    def test_dimension_bound(self, rng):
        basis = rng.standard_normal((2, 20))
        selected = embed_lp_even(basis, 4, 0.5).support
        # lift dimension is at most C(3, 2) = 3
        assert len(selected) <= support_bound(math.comb(3, 2), barrier_eps_for_ratio(1.5))

    def test_sampled_distortion(self, rng):
        basis = rng.standard_normal((2, 20))
        eps = 0.5
        lp = embed_lp_even(basis, 4, eps)
        selected, weights = lp.support, lp.weights
        worst = 1.0
        for _ in range(200):
            coeffs = rng.standard_normal(2)
            x = coeffs @ basis
            if np.allclose(x, 0):
                continue
            ratio = lp_norm(apply_lp_embedding(x, selected, weights, 4), 4) / lp_norm(x, 4)
            assert ratio >= 1.0 - 1e-8
            worst = max(worst, ratio)
        assert worst <= 1.0 + eps + 1e-8

    @pytest.mark.parametrize(
        "scale", [2.0**600, 2.0**-600, 1e200, 1e-200], ids=["2^600", "2^-600", "1e200", "1e-200"]
    )
    def test_scaled_basis_selects_alike(self, scale):
        basis = np.random.default_rng(0).standard_normal((2, 200))
        lp = embed_lp_even(basis, 4, 0.9)
        assert len(lp.support) < 200  # the barrier loop ran
        scaled = embed_lp_even(basis * scale, 4, 0.9)
        assert np.array_equal(scaled.support, lp.support)
        if np.frexp(scale)[0] == 0.5:  # a power of two
            assert np.array_equal(scaled.weights, lp.weights)
        else:
            assert np.allclose(scaled.weights, lp.weights, rtol=1e-13, atol=0.0)

    def test_argument_validation(self, rng):
        basis = rng.standard_normal((2, 8))
        with pytest.raises(ValueError, match="even"):
            embed_lp_even(basis, 3, 0.5)
        with pytest.raises(ValueError, match="even"):
            embed_lp_even(basis, 2, 0.5)
        dependent = np.vstack([basis[0], 2 * basis[0]])
        with pytest.raises(ValueError, match="dependent"):
            embed_lp_even(dependent, 4, 0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_basis_rejected(self, rng, value):
        basis = rng.standard_normal((2, 8))
        basis[1, 3] = value
        with pytest.raises(ValueError, match="basis must be finite"):
            embed_lp_even(basis, 4, 0.5)

    def check_lifted_certificate(self, basis, p, eps, lift_dim):
        # independent orthonormal basis of the monomial lift
        monomials = np.stack(
            [np.prod(basis[list(c)], axis=0) for c in combinations_with_replacement(range(len(basis)), p // 2)],
            axis=1,
        )
        lift_basis = scipy.linalg.orth(monomials, rcond=1e-14)
        assert lift_basis.shape[1] == lift_dim
        lp = embed_lp_even(basis, p, eps)
        rows = lift_basis[lp.support]
        lam = np.linalg.eigvalsh((rows * lp.weights[:, None]).T @ rows)
        assert lam[0] >= 1.0 - 1e-8
        assert lam[-1] <= 1.0 + eps * p / 4.0 + 1e-8
        # the returned certificate is this spectrum, measured on the sparsifier's own whitening
        cert = lp.certificate
        assert (cert.low, cert.high, cert.range_dim) == (1.0, 1.0 + eps * p / 4.0, lift_dim)
        assert cert.measured_min == pytest.approx(lam[0], rel=0.0, abs=1e-12)
        assert cert.measured_max == pytest.approx(lam[-1], rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("n, p, eps", [(3, 4, 0.5), (2, 6, 0.4)])
    def test_certificate_is_the_independent_lift_spectrum(self, rng, n, p, eps):
        self.check_lifted_certificate(rng.standard_normal((n, 60)), p, eps, lift_dim=math.comb(n + p // 2 - 1, p // 2))

    def test_rank_cut_disjoint_supports(self, rng):
        # u0 * u1 vanishes identically, so the lift has rank 2 of 3
        basis = np.zeros((2, 400))
        basis[0, :200] = rng.standard_normal(200)
        basis[1, 200:] = rng.standard_normal(200)
        self.check_lifted_certificate(basis, 4, 0.5, lift_dim=2)

    def test_rank_cut_near_degenerate(self, rng):
        # b2's own direction is 1e-9 of b0's, so the lift has singular values
        # near 5e-10 relative; a cut on Gram eigenvalues at n * eps_mach
        # would drop them and leave this span uncertified
        b0, b1 = rng.standard_normal((2, 300))
        b2 = 1e-4 * b0 + 1e-9 * rng.standard_normal(300)
        self.check_lifted_certificate(np.vstack([b0, b1, b2]), 4, 0.9, lift_dim=5)

    def test_higher_exponent(self, rng):
        basis = rng.standard_normal((2, 24))
        eps = 0.4
        lp = embed_lp_even(basis, 6, eps)
        selected, weights = lp.support, lp.weights
        for _ in range(50):
            x = rng.standard_normal(2) @ basis
            ratio = lp_norm(apply_lp_embedding(x, selected, weights, 6), 6) / lp_norm(x, 6)
            assert 1.0 - 1e-8 <= ratio <= 1.0 + eps + 1e-8
