import numpy as np
import pytest

from rforge.errors import SingularUpdateError, ZeroFrameError
from rforge.linalg import (
    Frame,
    eigh,
    isotropic_reduce,
    sherman_morrison_inverse_update,
    symmetrize,
    trace_after_rank_one,
)

from conftest import random_spd
from oracles import explicit_inverse


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

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigh(np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]]))


class TestShermanMorrison:
    def test_orthogonal_coordinates(self):
        out = sherman_morrison_inverse_update(np.eye(2), np.array([1.0, 0.0]))
        assert np.allclose(out, np.diag([0.5, 1.0]))

    def test_scalar(self):
        out = sherman_morrison_inverse_update(np.eye(1), np.array([1.0]))
        assert np.allclose(out, [[0.5]])

    def test_product_with_updated_matrix_is_identity(self):
        m_inv = np.diag([1.0, 0.5])
        z = np.array([1.0, 1.0])
        out = sherman_morrison_inverse_update(m_inv, z)
        updated = np.diag([1.0, 2.0]) + np.outer(z, z)
        assert np.max(np.abs(out @ updated - np.eye(2))) <= 1e-12

    def test_random_trials(self, rng):
        # 100 well-conditioned trials, n <= 16
        for _ in range(100):
            n = int(rng.integers(1, 17))
            m = random_spd(rng, n)
            z = rng.standard_normal(n)
            out = sherman_morrison_inverse_update(symmetrize(explicit_inverse(m)), z)
            product = out @ (m + np.outer(z, z))
            assert np.max(np.abs(product - np.eye(n))) <= 1e-10
            assert np.array_equal(out, out.T)

    def test_singular_update(self):
        with pytest.raises(SingularUpdateError):
            sherman_morrison_inverse_update(np.array([[-1.0]]), np.array([1.0]))


class TestTraceAfterRankOne:
    def test_identity_plus_e1(self):
        got = trace_after_rank_one(2.0, np.array([1.0, 0.0]), 1.0, np.array([1.0, 0.0]))
        assert got == pytest.approx(1.5, abs=1e-15)

    def test_zero_update(self):
        got = trace_after_rank_one(2.0, np.zeros(2), 0.0, np.zeros(2))
        assert got == 2.0

    def test_against_explicit_inversion(self):
        # M = diag(2, 2), z = e1: trace of (M + z z^T)^-1 is 1/3 + 1/2
        m = np.diag([2.0, 2.0])
        z = np.array([1.0, 0.0])
        m_inv = explicit_inverse(m)
        got = trace_after_rank_one(
            float(np.trace(m_inv)), m_inv @ z, float(z @ m_inv @ m_inv @ z), z
        )
        want = float(np.trace(explicit_inverse(m + np.outer(z, z))))
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.8333333333333334, rel=1e-12)

    def test_random_trials(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 17))
            m = random_spd(rng, n)
            z = rng.standard_normal(n)
            m_inv = symmetrize(explicit_inverse(m))
            got = trace_after_rank_one(
                float(np.trace(m_inv)), m_inv @ z, float(z @ m_inv @ m_inv @ z), z
            )
            want = float(np.trace(explicit_inverse(m + np.outer(z, z))))
            assert got == pytest.approx(want, rel=1e-10)

    def test_singular_denominator(self):
        with pytest.raises(SingularUpdateError):
            trace_after_rank_one(1.0, np.array([-1.0]), 1.0, np.array([1.0]))


class TestIsotropicReduce:
    def test_already_isotropic(self):
        frame = Frame(np.eye(2))
        reduced, mapping = isotropic_reduce(frame)
        assert reduced.ambient_dim == 2
        assert reduced.isotropy_certified
        assert mapping.rank == 2

    def test_rank_one_scaling(self):
        frame = Frame(np.array([[2.0, 0.0]]))
        reduced, mapping = isotropic_reduce(frame)
        assert reduced.ambient_dim == 1
        assert abs(abs(reduced.vectors[0, 0]) - 1.0) <= 1e-12
        assert mapping.rank == 1

    def test_two_vector_whitening(self):
        frame = Frame(np.array([[1.0, 1.0], [1.0, -1.0]]))
        reduced, _ = isotropic_reduce(frame)
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
            reduced, mapping = isotropic_reduce(frame)
            assert np.max(np.abs(reduced.gram() - np.eye(mapping.rank))) <= 1e-8
            # draw w in the span of the input vectors
            w = vectors.T @ rng.standard_normal(m)
            original = np.sum((vectors @ w) ** 2)
            transported = np.sum((reduced.vectors @ mapping.to_reduced(w)) ** 2)
            assert transported == pytest.approx(original, rel=1e-8)

    def test_lift_inverts_reduction(self, rng):
        vectors = rng.standard_normal((6, 4))
        frame = Frame(vectors)
        reduced, mapping = isotropic_reduce(frame)
        lifted = reduced.vectors @ mapping.matrix.T
        assert np.max(np.abs(lifted - vectors)) <= 1e-9


class TestFrame:
    def test_certification_rejects_non_isotropic(self):
        with pytest.raises(ValueError, match="identity residual"):
            Frame(np.array([[2.0, 0.0], [0.0, 1.0]]), isotropy_certified=True)

    def test_certification_accepts_identity_frame(self):
        frame = Frame(np.eye(3), isotropy_certified=True)
        assert frame.size == 3 and frame.ambient_dim == 3
