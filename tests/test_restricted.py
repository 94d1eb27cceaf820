import numpy as np
import pytest

import rforge.restricted
from oracles import ri_select_oracle
from rforge import RiSelection
from rforge.errors import SelectionInvariantError
from rforge.linalg import eigh
from rforge.restricted import (
    _check_kernel_mass,
    _shifted_inverse,
    ri_barrier,
    ri_select,
    selection_size,
)


def check_result(result, t, eps):
    # certificate and stable rank against numpy, for the columns of T
    n = t.shape[1]
    lam = np.linalg.eigvalsh(result.gram)
    cert = result.certificate
    assert cert.measured_min == pytest.approx(lam[0], rel=1e-12)
    assert cert.measured_max == pytest.approx(lam[-1], rel=1e-12)
    assert cert.low == pytest.approx((1 - eps) ** 2 * np.linalg.norm(t, "fro") ** 2 / n, rel=1e-12)
    assert cert.high == np.inf and cert.range_dim == len(result.selected)
    assert cert.measured_min >= cert.low - 1e-8
    expected_rank = np.linalg.norm(t, "fro") ** 2 / np.linalg.norm(t, 2) ** 2
    assert result.stable_rank == pytest.approx(expected_rank, rel=1e-12)


def well_spread_operator(rng, n):
    # singular values in [1, 2]: stable rank stays a decent fraction of n
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q1 * rng.uniform(1.0, 2.0, size=n)) @ q2.T


class TestRiBarrier:
    def test_initial_level(self):
        # b_0 = (1 - eps) ||T||_HS^2 / m
        assert ri_barrier(0, 4.0, 1.0, 4, 0.5) == pytest.approx(0.5)

    def test_identity_operator(self):
        assert ri_barrier(0, 4.0, 1.0, 4, 0.5) == pytest.approx(0.5)
        # k = floor(0.25 * 4) = 1 and b_1 = 0.5 * (4 - 2) / 4 = 0.25
        assert selection_size(4.0, 1.0, 0.5) == 1
        assert ri_barrier(1, 4.0, 1.0, 4, 0.5) == pytest.approx(0.25)

    def test_final_level_floor(self):
        # b_k >= (1-eps)^2 ||T||_HS^2 / m
        for hs, op, m, eps in [(4.0, 1.0, 4, 0.5), (10.0, 2.0, 7, 0.9), (6.0, 1.5, 6, 0.3)]:
            k = selection_size(hs, op, eps)
            assert ri_barrier(k, hs, op, m, eps) >= (1 - eps) ** 2 * hs / m - 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            ri_barrier(2, 4.0, 1.0, 4, 0.5)


class TestSelectionSize:
    def test_formula(self):
        assert selection_size(10.0, 2.0, 0.9) == 4  # floor(0.81 * 5)
        assert selection_size(8.0, 1.0, 0.5) == 2  # floor(0.25 * 8)


class TestFirstStep:
    def test_hand_derived_first_step(self):
        # T = I_2, eps = 0.8: k = 1, b_0 = 0.2.
        # By direct substitution: b_1 = 0.075, mu = 50/3, and for column 0
        # lhs = (40/3)^2 = 1600/9, rhs = -(50/3) * (1 - 40/3) = 1850/9, so the
        # margin is -250/9; the tied column 1 loses to the lower index.
        history = []
        sigma, *_ = ri_select(np.eye(2), 0.8, history=history)
        expected_sigma, expected = ri_select_oracle(np.eye(2), np.eye(2), 0.8)
        assert sigma == expected_sigma == [0]
        for record in (history[0], expected[0]):
            assert record["chosen"] == 0
            assert record["barrier"] == pytest.approx(0.075, rel=1e-12)
            assert record["mu"] == pytest.approx(50.0 / 3.0, rel=1e-12)
            assert record["margin"] == pytest.approx(-250.0 / 9.0, rel=1e-12)

    def test_barrier_on_spectrum_raises(self):
        # on the Gram spectrum (Cholesky of G - b I fails), within 1e-12 of it
        # (the Frobenius gap bound), and on the zero eigenvalue of A
        barrier = ri_barrier(1, 2.0, 1.0, 2, 0.8)
        for gram, b in (
            ([[barrier]], barrier),
            ([[barrier * (1 + 1e-14)]], barrier),
            ([[2.0, 0.0], [0.0, 3.0]], 1e-13),
        ):
            with pytest.raises(SelectionInvariantError, match="spectrum"):
                _shifted_inverse(np.array(gram), b, 1)
        inverse = _shifted_inverse(np.array([[2.0, 1.0], [1.0, 3.0]]), 0.5, 3)
        np.testing.assert_allclose(inverse, np.linalg.inv([[1.5, 1.0], [1.0, 2.5]]), rtol=1e-14)


class TestKernelMass:
    def test_range_mass_from_the_gram_matrix(self, rng):
        # tr(G^{-1} F^T F) is ||T^* U||_F^2 for an orthonormal basis U of
        # range(P): after 3 steps the check passes while 3 ||T||^2 is above
        # that mass and refuses once it is below
        t = rng.standard_normal((6, 6))
        p = t @ rng.standard_normal((6, 3))
        f = t.T @ p
        u, _ = np.linalg.qr(p)
        range_mass = float(np.sum((t.T @ u) ** 2))
        hs = float(np.sum(t * t))
        _check_kernel_mass(p.T @ p, f.T @ f, 4, hs, range_mass / 3.0 * (1 + 1e-6))
        with pytest.raises(SelectionInvariantError, match="kernel mass"):
            _check_kernel_mass(p.T @ p, f.T @ f, 4, hs, range_mass / 3.0 * (1 - 1e-6))

    def test_empty_selection_has_no_range_mass(self):
        _check_kernel_mass(np.zeros((0, 0)), np.zeros((0, 0)), 1, 2.0, 1.0)


class TestRiSelect:
    @pytest.mark.parametrize("eps", [0.5, 0.6])
    def test_orthonormal_columns(self, rng, eps):
        # orthonormal columns: the Gram matrix is the identity and every
        # unselected column ties, so the tie rule picks the lowest index, also
        # for a rotated basis q^T, where rounding alone would decide.  At eps
        # 0.5, eps^2 * 8 = 2 is on the boundary and the rotated basis's k
        # follows its computed norms; at 0.6 (2.88) both select two columns.
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        for rotated, s in ((False, np.eye(8)), (True, q.T)):
            _, exponent = np.frexp(np.max(np.abs(s)))
            scaled = np.ldexp(s, -int(exponent))
            k = selection_size(float(np.sum(scaled * scaled)), float(np.linalg.eigvalsh(scaled.T @ scaled)[-1]), eps)
            assert k == 2 or (rotated and eps == 0.5 and k == 1)
            sigma, gram, *_ = ri_select(s, eps)
            assert sigma == list(range(k))
            assert np.allclose(gram, np.eye(k), atol=1e-12)
            assert np.linalg.eigvalsh(gram)[0] >= (1 - eps) ** 2 * 8 / 8 - 1e-8

    def test_selection_count_exact(self, rng):
        for n in (4, 8, 16):
            t = well_spread_operator(rng, n)
            hs = float(np.sum(t * t))
            op = float(np.linalg.norm(t, 2) ** 2)
            for eps in (0.5, 0.8):
                k = selection_size(hs, op, eps)
                if k == 0:
                    with pytest.warns(UserWarning, match="stable rank"):
                        sigma, gram, *_ = ri_select(t, eps)
                    assert sigma == []
                    continue
                result = ri_select(t, eps)
                assert len(result.selected) == k
                assert np.linalg.eigvalsh(result.gram)[0] >= (1 - eps) ** 2 * hs / n - 1e-8
                check_result(result, t, eps)

    def test_history_margins_strictly_feasible(self, rng):
        t = well_spread_operator(rng, 6)
        history = []
        sigma, *_ = ri_select(t, 0.6, history=history)
        assert len(history) == len(sigma)
        for record in history:
            assert record["margin"] < 0.0
            assert record["mu"] >= -1e-9

    def test_potential_decreases_and_stays_below_floor(self, rng):
        t = well_spread_operator(rng, 8)
        history = []
        ri_select(t, 0.7, history=history)
        floor_level = -8 / (1 - 0.7)
        last = 0.0
        for idx, record in enumerate(history):
            assert record["potential"] <= floor_level * (1 - 1e-9)
            if idx:
                assert record["potential"] < last + 1e-9 * abs(last)
            last = record["potential"]

    def test_final_norm_bound_random_coefficients(self, rng):
        t = well_spread_operator(rng, 8)
        eps = 0.6
        sigma, *_ = ri_select(t, eps)
        hs = float(np.sum(t * t))
        bound = (1 - eps) ** 2 * hs / 8
        cols = t[:, sigma]
        for _ in range(100):
            a = rng.standard_normal(len(sigma))
            assert np.sum((cols @ a) ** 2) >= bound * np.sum(a**2) - 1e-8

    def test_one_eigensolve_per_call(self, rng, monkeypatch):
        # the steps run on Cholesky factors and inverses of the i x i Gram
        # matrix; only the final certificate decomposes it
        calls = []

        def counted(m):
            calls.append(m.shape)
            return eigh(m)

        monkeypatch.setattr(rforge.restricted, "eigh", counted)
        result = ri_select(rng.standard_normal((40, 40)), 0.8)
        k = len(result.selected)
        assert k >= 5 and calls == [(k, k)]

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            ri_select(np.zeros((3, 3)), 0.5)

    def test_non_finite_operator_rejected(self):
        t = np.eye(3)
        t[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ri_select(t, 0.5)

    def test_k_zero_warns(self):
        # scalar operator: stable rank 1, so eps < 1 always gives k = 0
        with pytest.warns(UserWarning, match="stable rank"):
            result = ri_select(np.eye(1), 0.5)
        assert isinstance(result, RiSelection)
        assert RiSelection._fields == ("selected", "gram", "certificate", "stable_rank")
        assert result.selected == [] and result.gram.shape == (0, 0)
        assert result.certificate is None and result.stable_rank == 1.0

    def test_k_zero_warning_names_the_caller(self):
        # the warning points past ri_select's one-BLAS-thread wrapper, at the line that called it
        with pytest.warns(UserWarning, match="stable rank") as caught:
            ri_select(np.eye(1), 0.5)
        assert [w.filename for w in caught] == [__file__]

    def test_near_identity_gives_large_selection(self, rng):
        n = 16
        t = np.eye(n) + 0.05 * rng.standard_normal((n, n))
        hs = float(np.sum(t * t))
        op = float(np.linalg.norm(t, 2) ** 2)
        eps = 0.8
        k = selection_size(hs, op, eps)
        assert k >= 6  # sanity: the instance is actually exercising the loop
        result = ri_select(t, eps)
        assert len(result.selected) == k
        assert np.linalg.eigvalsh(result.gram)[0] >= (1 - eps) ** 2 * hs / n - 1e-8
        check_result(result, t, eps)
        for t in (rng.standard_normal((n, n)), rng.standard_normal((6, n)), np.diag(np.geomspace(1.0, 1e-3, n))):
            check_result(ri_select(t, 0.9), t, 0.9)


class TestEigenvalueCounts:
    def test_counts_hold_along_run(self, rng):
        # the production path asserts them; a run completing is the check,
        # but verify independently from the history side as well
        n = 8
        t = np.eye(n) + 0.05 * rng.standard_normal((n, n))
        sigma, *_ = ri_select(t, 0.8)
        hs = float(np.sum(t * t))
        op = float(np.linalg.norm(t, 2) ** 2)
        a = np.zeros((n, n))
        for step, idx in enumerate(sigma, start=1):
            image = t[:, idx]
            a = a + np.outer(image, image)
            b_i = ri_barrier(step, hs, op, n, 0.8)
            lam = np.linalg.eigvalsh(0.5 * (a + a.T))[::-1]
            assert np.count_nonzero(lam > b_i) == step
            assert np.max(np.abs(lam[step:])) <= 1e-9 * max(lam[0], 1.0)


class TestOperatorNorms:
    def test_matches_singular_values(self, rng):
        # the stable rank ||T||_HS^2 / ||T||^2 against the singular values,
        # for square, wide and tall T
        for shape in ((7, 7), (5, 11), (11, 5)):
            t = rng.standard_normal(shape)
            sv = np.linalg.svd(t, compute_uv=False)
            stable_rank = ri_select(t, 0.9).stable_rank
            assert stable_rank == pytest.approx(float(np.sum(sv**2) / sv[0] ** 2), rel=1e-12)


class TestScaleInvariance:
    @pytest.mark.parametrize("on_frame", [False, True])
    def test_power_of_two_scaling_is_exact(self, rng, on_frame):
        # T itself, or T on a non-isotropic frame of 48 vectors as T X^T
        n = 16
        t = rng.standard_normal((n, n))
        if on_frame:
            t = t @ rng.standard_normal((3 * n, n)).T
        base = ri_select(t, 0.8)
        assert len(base.selected) >= 2
        for j in (-400, -100, 100, 400):
            scaled = ri_select(np.ldexp(t, j), 0.8)
            assert scaled.selected == base.selected
            assert np.array_equal(scaled.gram, np.ldexp(base.gram, 2 * j))
            for field in ("low", "high", "measured_min", "measured_max"):
                got, want = getattr(scaled.certificate, field), getattr(base.certificate, field)
                assert got == np.ldexp(want, 2 * j), field
            assert scaled.certificate.range_dim == base.certificate.range_dim
            assert scaled.stable_rank == base.stable_rank

    def test_tiny_operator_selects_the_same_columns(self, rng):
        t = rng.standard_normal((16, 16))
        sigma, gram, *_ = ri_select(t, 0.8)
        sigma_tiny, gram_tiny, *_ = ri_select(1e-30 * t, 0.8)
        assert sigma_tiny == sigma
        np.testing.assert_allclose(gram_tiny, 1e-60 * gram, rtol=1e-12, atol=0.0)

    def test_gram_out_of_range_raises(self, rng):
        t = rng.standard_normal((8, 8))
        with pytest.raises(ValueError, match="overflows"):
            ri_select(1e160 * t, 0.8)
        with pytest.raises(ValueError, match="underflows"):
            ri_select(1e-170 * t, 0.8)
        # every Gram entry fits, but its top eigenvalue (1.3125 s^2 against
        # entries up to 1.15625 s^2) does not
        skewed = np.sqrt(np.finfo(float).max / 1.2) * (np.eye(8) + 0.5 / 8)
        with pytest.raises(ValueError, match="overflows"):
            ri_select(skewed, 0.8)


class TestDenseOracle:
    def instances(self, rng):
        # (frame vectors x, operator T, eps); ri_select runs on T X^T
        yield np.eye(20), rng.standard_normal((20, 20)), 0.8
        yield np.eye(48), rng.standard_normal((24, 48)), 0.8
        vectors = rng.standard_normal((60, 12)) * np.exp(rng.uniform(-0.5, 0.5, 12))
        yield vectors, well_spread_operator(rng, 12), 0.8
        # 60 vectors spanning 8 orthonormal directions of R^12: T X^T has rank 8
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        yield rng.standard_normal((60, 8)) @ q[:8], well_spread_operator(rng, 12), 0.8
        # singular values over six decades, and a wide operator: both stress
        # the expanded form of ||T^* R y||^2 where it could cancel
        q1, _ = np.linalg.qr(rng.standard_normal((150, 150)))
        q2, _ = np.linalg.qr(rng.standard_normal((150, 150)))
        yield np.eye(150), (q1 * np.geomspace(1.0, 1e-6, 150)) @ q2.T, 0.8
        yield np.eye(400), rng.standard_normal((60, 400)), 0.8
        # a tall operator: ||T||^2 from T^T T with more rows than columns
        yield np.eye(40), rng.standard_normal((120, 40)), 0.8

    def test_selection_and_history_match(self, rng):
        for x, t, eps in self.instances(rng):
            history = []
            sigma, gram, *_ = ri_select(t @ x.T, eps, history=history)
            expected_sigma, expected = ri_select_oracle(x, t, eps)
            assert len(sigma) >= 2
            assert sigma == expected_sigma
            assert len(history) == len(expected)
            for got, want in zip(history, expected):
                assert got["step"] == want["step"] and got["chosen"] == want["chosen"]
                for key in ("barrier", "mu", "margin", "potential"):
                    assert got[key] == pytest.approx(want[key], rel=1e-9), key
            images = (t @ x.T)[:, sigma]
            np.testing.assert_allclose(gram, images.T @ images, rtol=1e-9, atol=1e-9 * np.max(np.abs(gram)))
