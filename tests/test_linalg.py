from dataclasses import replace

import numpy as np
import pytest

from rforge import linalg
from rforge.errors import CertificationError, EigenConvergenceError, ZeroFrameError
from rforge.linalg import Certificate, Frame, Incidence, certify_spectrum, eigh, isotropic_reduce, symmetrize

from oracles import whitening_lift


class TestEigh:
    def test_identity(self):
        d = eigh(np.eye(3))
        assert np.allclose(d.values, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_descending(self):
        d = eigh(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(d.values, [3.0, 2.0, 1.0])

    def test_offdiagonal_two_by_two(self):
        # characteristic polynomial lambda^2 - 1 = 0
        d = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(d.values, [1.0, -1.0], atol=1e-14)

    def test_reconstruction_and_orthonormality(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 17))
            m = symmetrize(rng.standard_normal((n, n)))
            d = eigh(m)
            scale = 1.0 + np.max(np.abs(m))
            assert np.max(np.abs(d.reconstruct() - m)) <= 1e-10 * scale
            assert np.max(np.abs(d.vectors.T @ d.vectors - np.eye(n))) <= 1e-10
            assert np.all(np.diff(d.values) <= 1e-12)

    @pytest.mark.parametrize(
        "fault, detail",
        [
            ("raise", "did not converge"),
            ("perturb", "reconstruction residual"),
            ("rescale", "orthonormality residual"),
        ],
    )
    def test_failures_name_order_and_off_diagonal_residual(self, monkeypatch, fault, detail):
        m = symmetrize(np.random.default_rng(3).standard_normal((5, 5)))
        solve = np.linalg.eigh

        def faulty(a):
            values, vectors = solve(a)
            if fault == "raise":
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            if fault == "perturb":
                return values, vectors + 1e-6
            # vectors scaled by 2 and values by 1/4 reconstruct m but are not orthonormal
            return values / 4.0, vectors * 2.0

        monkeypatch.setattr(linalg.np.linalg, "eigh", faulty)
        with pytest.raises(EigenConvergenceError, match=detail) as info:
            eigh(m)
        assert info.value.order == 5
        assert info.value.off_diagonal_residual == float(np.max(np.abs(m - np.diag(np.diag(m)))))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigh(np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]]))


class TestIsotropicReduce:
    def test_already_isotropic(self):
        frame = Frame(np.eye(2))
        reduced = isotropic_reduce(frame)
        assert reduced.ambient_dim == 2
        assert reduced.isotropy_certified

    def test_rank_one_scaling(self):
        frame = Frame(np.array([[2.0, 0.0]]))
        reduced = isotropic_reduce(frame)
        assert reduced.ambient_dim == 1
        assert abs(abs(reduced.vectors[0, 0]) - 1.0) <= 1e-12

    def test_two_vector_whitening(self):
        frame = Frame(np.array([[1.0, 1.0], [1.0, -1.0]]))
        reduced = isotropic_reduce(frame)
        gram = reduced.gram()
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-12

    def test_zero_frame(self):
        with pytest.raises(ZeroFrameError):
            isotropic_reduce(Frame(np.zeros((3, 2))))

    def test_quadratic_forms_preserved(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(n, 3 * n))
            vectors = rng.standard_normal((m, n))
            if rng.random() < 0.5:
                # force a rank deficit to exercise the range restriction
                vectors[:, -1] = vectors[:, 0]
            frame = Frame(vectors)
            reduced = isotropic_reduce(frame)
            assert np.max(np.abs(reduced.gram() - np.eye(reduced.ambient_dim))) <= 1e-8
            lift = whitening_lift(reduced.vectors, vectors)
            # draw w in the span of the input vectors
            w = vectors.T @ rng.standard_normal(m)
            original = np.sum((vectors @ w) ** 2)
            transported = np.sum((reduced.vectors @ (lift.T @ w)) ** 2)
            assert transported == pytest.approx(original, rel=1e-8)

    def test_lift_inverts_reduction(self, rng):
        vectors = rng.standard_normal((6, 4))
        reduced = isotropic_reduce(Frame(vectors))
        lifted = reduced.vectors @ whitening_lift(reduced.vectors, vectors).T
        assert np.max(np.abs(lifted - vectors)) <= 1e-9

    def test_power_of_two_scale_whitens_identically(self, rng):
        vectors = rng.standard_normal((20, 5)) * np.exp(rng.uniform(-2.0, 2.0, 5))
        reduced = isotropic_reduce(Frame(vectors))
        for j in (-600, -1, 1, 600):
            scaled = isotropic_reduce(Frame(np.ldexp(vectors, j)))
            assert np.array_equal(scaled.vectors, reduced.vectors)

    def test_carries_incidence_factor(self):
        # path 0-1-2 plus the chord 0-2; row e is sqrt(w) (B[i] - B[j])
        heads, tails, weights = np.array([0, 1, 0]), np.array([1, 2, 2]), np.array([4.0, 1.0, 9.0])
        vectors = np.zeros((3, 3))
        vectors[np.arange(3), heads] = np.sqrt(weights)
        vectors[np.arange(3), tails] = -np.sqrt(weights)
        frame = Frame(incidence=Incidence(heads, tails, weights, np.eye(3)))
        reduced = isotropic_reduce(frame)
        inc = reduced.incidence
        assert reduced.vectors is None and inc.basis.shape == (3, 2)
        # whitening's units: the largest weight, 9, moves into [0.5, 1) by 2^-4
        assert np.array_equal(inc.heads, heads) and np.array_equal(inc.weights, weights / 16.0)
        rebuilt = np.sqrt(inc.weights)[:, None] * (inc.basis[heads] - inc.basis[tails])
        assert np.array_equal(reduced.rows(), rebuilt)
        assert np.max(np.abs(rebuilt @ whitening_lift(rebuilt, vectors).T - vectors)) <= 1e-9
        dense = isotropic_reduce(Frame(vectors))
        assert dense.incidence is None
        # the two whitenings differ by a rotation of the reduced space
        assert np.max(np.abs(rebuilt @ rebuilt.T - dense.vectors @ dense.vectors.T)) <= 1e-14

    def test_edge_whitening_needs_identity_basis(self):
        heads, tails, weights = np.array([0, 1]), np.array([1, 2]), np.array([4.0, 1.0])
        with pytest.raises(ValueError, match="identity incidence basis"):
            isotropic_reduce(Frame(incidence=Incidence(heads, tails, weights, 2.0 * np.eye(3))))


class TestFrame:
    def test_certification_rejects_non_isotropic(self):
        with pytest.raises(ValueError, match="identity residual"):
            Frame(np.array([[2.0, 0.0], [0.0, 1.0]]), isotropy_certified=True)

    def test_certification_accepts_identity_frame(self):
        frame = Frame(np.eye(3), isotropy_certified=True)
        assert frame.size == 3 and frame.ambient_dim == 3

    def test_vectors_or_incidence_factor(self):
        vectors = np.array([[2.0, -2.0, 0.0], [0.0, 1.0, -1.0]])  # edges 0-1 (w 4), 1-2 (w 1)
        heads, tails = np.array([0, 1]), np.array([1, 2])
        inc = Incidence(heads, tails, np.array([4.0, 1.0]), np.eye(3))
        frame = Frame(incidence=inc)
        assert frame.vectors is None and frame.size == 2 and frame.ambient_dim == 3
        assert np.array_equal(frame.rows(), vectors)
        assert np.array_equal(frame.rows(1), vectors[1])
        assert np.array_equal(frame.gram(), Frame(vectors).gram())
        with pytest.raises(ValueError, match="not both"):
            Frame(vectors, incidence=inc)
        with pytest.raises(ValueError, match="at least one vector"):
            Frame(incidence=Incidence(heads[:0], tails[:0], np.zeros(0), np.eye(3)))
        with pytest.raises(ValueError, match="endpoints"):
            Incidence(heads, np.array([1, 3]), np.array([4.0, 1.0]), np.eye(3))

    def test_gather_index_follows_the_incidence(self, rng):
        heads, tails = np.triu_indices(16, 1)
        weights = np.exp(rng.uniform(0.0, np.log(100.0), heads.size))
        inc = isotropic_reduce(Frame(incidence=Incidence(heads, tails, weights, np.eye(16)))).incidence
        m = symmetrize(rng.standard_normal((16, 16)))
        for inc in (inc, replace(inc, weights=2.0 * inc.weights), replace(inc, heads=inc.tails, tails=inc.heads)):
            h, t, n = inc.heads, inc.tails, inc.basis.shape[0]
            assert np.array_equal(inc._gather, [h * (n + 1), t * (n + 1), h * n + t])
            assert np.array_equal(m.take(inc._gather), [m[h, h], m[t, t], m[h, t]])
            assert inc._max_weight == inc.weights.max()


class TestCertifySpectrum:
    def test_returns_extremes_and_margin(self):
        cert = certify_spectrum([1.5, 0.5, 1.0], 0.25, 2.25, tol=1e-8, what="test")
        assert cert == Certificate(0.25, 2.25, 0.5, 1.5, 3)
        assert cert.margin == 0.25

    def test_headroom_is_distance_to_high_end(self):
        cert = certify_spectrum([0.25, 1.5], 0.25, 2.25, tol=1e-8, what="test")
        assert cert.margin == 0.0
        assert cert.headroom == 0.75

    def test_margin_negative_within_tolerance(self):
        cert = certify_spectrum([1.0 + 5e-9], 0.0, 1.0, tol=1e-8, what="test")
        assert -1e-8 <= cert.margin < 0.0

    def test_either_end_escaping_raises(self):
        with pytest.raises(CertificationError, match=r"low end spectrum \[0\.2, 1\] escapes \[0\.25, 2\.25\]"):
            certify_spectrum([0.2, 1.0], 0.25, 2.25, tol=1e-8, what="low end")
        with pytest.raises(CertificationError, match="high end spectrum"):
            certify_spectrum([1.0, 2.3], 0.25, 2.25, tol=1e-8, what="high end")

    def test_unbounded_above(self):
        cert = certify_spectrum([3.0, 1e300], 2.0, np.inf, tol=1e-8, what="floor")
        assert cert.measured_max == 1e300 and cert.margin == 1.0
        with pytest.raises(CertificationError, match=r"escapes \[2, inf\]"):
            certify_spectrum([1.9, 1e300], 2.0, np.inf, tol=1e-8, what="floor")

    def test_nan_fails(self):
        with pytest.raises(CertificationError):
            certify_spectrum([1.0, np.nan], 0.0, 2.0, tol=1e-8, what="test")


def random_orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def assert_update_matches(d, u, x, t, rtol=1e-12):
    """The rank-one update of (d, u) by t x x^T agrees with eigh of the explicit sum."""
    m = (u * d) @ u.T + t * np.outer(x, x)
    out = linalg._rank_one_update(d, u, x, t, linalg._SecularWorkspace(d.size))
    assert out is not None
    scale = max(1.0, np.max(np.abs(m)))
    reference = np.linalg.eigvalsh(m)[::-1]
    np.testing.assert_allclose(out.values, reference, rtol=rtol, atol=rtol * scale)
    assert np.all(np.diff(out.values) <= 0.0)
    assert np.max(np.abs(out.reconstruct() - m)) <= 1e-12 * scale
    assert np.max(np.abs(out.vectors.T @ out.vectors - np.eye(d.size))) <= 1e-12
    return out


class TestRankOneUpdate:
    @pytest.mark.parametrize("n", [32, 63, 127, 255])
    def test_diagonal_plus_rank_one_matches_eigh(self, rng, n):
        for _ in range(3):
            d = np.sort(rng.uniform(1.0, 10.0, n))[::-1]
            z = rng.standard_normal(n)
            t = float(rng.uniform(0.1, 2.0))
            assert_update_matches(d, np.eye(n), z, t)

    def test_from_zero(self, rng):
        # A = 0 is one run of equal eigenvalues: the update is t |x|^2 along x
        n = 8
        x = rng.standard_normal(n)
        out = assert_update_matches(np.zeros(n), random_orthogonal(rng, n), x, 0.5)
        assert out.values[0] == pytest.approx(0.5 * (x @ x), rel=1e-14)
        assert np.all(out.values[1:] == 0.0)
        assert abs(out.vectors[:, 0] @ x) == pytest.approx(np.linalg.norm(x), rel=1e-14)

    def test_repeated_cluster(self, rng):
        d = np.array([5.0, 5.0, 5.0, 3.0, 2.0, 2.0, 1.0, 0.0, 0.0])
        out = assert_update_matches(d, random_orthogonal(rng, d.size), rng.standard_normal(d.size), 0.7)
        # each run of k equal values keeps k - 1 of them exactly
        assert np.count_nonzero(out.values == 5.0) == 2
        assert np.count_nonzero(out.values == 2.0) == 1
        assert np.count_nonzero(out.values == 0.0) == 1

    def test_zero_components_keep_their_pairs(self, rng):
        n = 10
        d = np.sort(rng.uniform(0.0, 4.0, n))[::-1]
        u = random_orthogonal(rng, n)
        z = rng.standard_normal(n)
        z[[2, 7]] = 0.0
        out = assert_update_matches(d, u, u @ z, 1.3)
        for j in (2, 7):
            k = int(np.flatnonzero(out.values == d[j])[0])
            assert np.array_equal(out.vectors[:, k], u[:, j])

    def test_tiny_components(self, rng):
        n = 12
        d = np.sort(rng.uniform(1.0, 5.0, n))[::-1]
        z = rng.standard_normal(n)
        z[3] = 1e-20  # negligible: deflated, its pair unchanged
        z[8] = 1e-6  # kept: its root sits about 1e-12 above d[8], near LAPACK's rounding
        out = assert_update_matches(d, np.eye(n), z, 1.0)
        assert d[3] in out.values
        assert np.count_nonzero(out.values == d[3]) == 1

    @pytest.mark.skipif(linalg._dlaed9() is None, reason="numpy exports no dlaed9")
    def test_secular_roots_in_two_workspaces_do_not_share_memory(self, rng):
        # the returned vectors are a view of their workspace: a call in another one leaves them as they were
        calls = []
        for workspace in (linalg._SecularWorkspace(16), linalg._SecularWorkspace(20)):
            d = np.arange(16.0, 0.0, -1.0) + rng.uniform(0.0, 0.5, 16)
            z, t = rng.standard_normal(16), float(rng.uniform(0.1, 2.0))
            roots, vectors = linalg._secular_roots(d, z, t, workspace)
            calls.append((d, z, t, roots, vectors, roots.copy(), vectors.copy()))
        for d, z, t, roots, vectors, roots_then, vectors_then in calls:
            assert np.array_equal(roots, roots_then) and np.array_equal(vectors, vectors_then)
            values, reference = np.linalg.eigh(np.diag(d) + t * np.outer(z, z))
            np.testing.assert_allclose(roots, values[::-1], rtol=1e-13)
            reference = reference[:, ::-1] * np.sign(np.sum(vectors * reference[:, ::-1], axis=0))
            np.testing.assert_allclose(vectors, reference, atol=1e-12)

    def test_refuses_a_nonpositive_weight(self, rng):
        workspace = linalg._SecularWorkspace(3)
        assert linalg._rank_one_update(np.ones(3), np.eye(3), np.ones(3), 0.0, workspace) is None
        assert linalg._rank_one_update(np.ones(3), np.eye(3), np.ones(3), -1.0, workspace) is None

    def test_zero_vector_changes_nothing(self):
        d = np.array([3.0, 1.0])
        out = linalg._rank_one_update(d, np.eye(2), np.zeros(2), 1.0, linalg._SecularWorkspace(2))
        assert np.array_equal(out.values, d) and np.array_equal(out.vectors, np.eye(2))
