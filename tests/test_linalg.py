import numpy as np
import pytest

from teleportsim import linalg
from teleportsim.states import bell_state


def random_psd(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return z @ z.conj().T


def brute_force_partial_trace(m, dims, trace_out):
    """Independent oracle: explicit index sums."""
    d_a, d_b = dims
    if trace_out == "A":
        out = np.zeros((d_b, d_b), dtype=complex)
        for b1 in range(d_b):
            for b2 in range(d_b):
                out[b1, b2] = sum(m[a * d_b + b1, a * d_b + b2] for a in range(d_a))
    else:
        out = np.zeros((d_a, d_a), dtype=complex)
        for a1 in range(d_a):
            for a2 in range(d_a):
                out[a1, a2] = sum(m[a1 * d_b + b, a2 * d_b + b] for b in range(d_b))
    return out


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(linalg.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        lam = 0.3
        got = linalg.kron(np.diag([lam, 1.0]), np.diag([lam, 1.0]))
        np.testing.assert_allclose(got, np.diag([lam**2, lam, lam, 1.0]), atol=1e-15)

    def test_basis_vectors(self):
        zero = np.array([1, 0])
        one = np.array([0, 1])
        np.testing.assert_array_equal(linalg.kron(zero, one), np.array([0, 1, 0, 0]))

    def test_associative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            np.testing.assert_allclose(
                linalg.kron(linalg.kron(a, b), c), linalg.kron(a, linalg.kron(b, c)), atol=1e-12
            )


class TestPartialTrace:
    def test_singlet_reduces_to_maximally_mixed(self):
        rho = bell_state("psi-").density().matrix
        np.testing.assert_allclose(
            linalg.partial_trace(rho, (2, 2), "A"), np.eye(2) / 2, atol=1e-12
        )

    def test_product_state(self):
        rng = np.random.default_rng(5)
        rho_a = random_psd(2, rng)
        rho_a /= np.trace(rho_a)
        rho_b = random_psd(2, rng)
        rho_b /= np.trace(rho_b)
        got = linalg.partial_trace(linalg.kron(rho_a, rho_b), (2, 2), "A")
        np.testing.assert_allclose(got, rho_b, atol=1e-12)

    def test_schmidt_state_populations(self):
        a, b = np.sqrt(0.8), np.sqrt(0.2)
        chi = np.array([a, 0, 0, b])
        got = linalg.partial_trace(np.outer(chi, chi), (2, 2), "A")
        np.testing.assert_allclose(got, np.diag([0.8, 0.2]), atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for d_a, d_b in [(2, 2), (2, 3), (4, 2)]:
            m = rng.normal(size=(d_a * d_b,) * 2) + 1j * rng.normal(size=(d_a * d_b,) * 2)
            for side in ("A", "B"):
                np.testing.assert_allclose(
                    linalg.partial_trace(m, (d_a, d_b), side),
                    brute_force_partial_trace(m, (d_a, d_b), side),
                    atol=1e-12,
                )

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = random_psd(4, rng)
            reduced = linalg.partial_trace(m, (2, 2), "A")
            assert abs(np.trace(reduced) - np.trace(m)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linalg.partial_trace(np.eye(3), (2, 2), "A")


class TestIsPsd:
    def test_povm_element(self):
        from teleportsim.povm import teleportation_povm

        p = teleportation_povm(0.6, 0.8j)
        assert all(linalg.is_psd(a) for a in p.elements)

    def test_negative_diagonal(self):
        assert not linalg.is_psd(np.diag([1.0, -0.1]))

    def test_flip_matrix(self):
        assert not linalg.is_psd(np.array([[0, 1], [1, 0]], dtype=complex))

    def test_non_hermitian(self):
        assert not linalg.is_psd(np.array([[1, 1], [0, 1]], dtype=complex))


def test_smallest_eigenvalue_2x2_closed_form_matches_eigvalsh():
    # the closed form and LAPACK round differently; both are backward stable,
    # so they agree to a few ulps of the largest entry
    rng = np.random.default_rng(5)
    for scale in (1e-6, 1.0, 1e6):
        for _ in range(500):
            m = scale * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            h = (m + m.conj().T) / 2
            expected = np.linalg.eigvalsh(h).min()
            assert abs(linalg.smallest_eigenvalue(m) - expected) <= 1e-14 * np.abs(h).max()
    assert linalg.smallest_eigenvalue(np.diag([0.25, -0.5])) == -0.5


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        linalg.as_complex_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        linalg.as_complex_vector([np.inf, 0])
