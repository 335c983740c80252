import numpy as np
import pytest

from teleportsim.states import (
    BELL_LABELS,
    DensityMatrix,
    PureState,
    SchmidtPair,
    bell_state,
    canonical_phase,
    fidelity,
    haar_random_amplitudes,
    haar_random_state,
    haar_random_unitary,
    mixed_resource,
    partially_entangled,
    qubit,
    schmidt_coeffs,
)

SQ2 = 1 / np.sqrt(2)


class TestBellStates:
    def test_psi_minus(self):
        np.testing.assert_allclose(
            bell_state("psi-").amplitudes, [0, SQ2, -SQ2, 0], atol=1e-15
        )

    def test_phi_plus(self):
        np.testing.assert_allclose(
            bell_state("phi+").amplitudes, [SQ2, 0, 0, SQ2], atol=1e-15
        )

    def test_orthonormal(self):
        vecs = [bell_state(lbl).amplitudes for lbl in BELL_LABELS]
        gram = np.array([[np.vdot(u, v) for v in vecs] for u in vecs])
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            bell_state("sigma+")

    def test_shared_and_read_only(self):
        assert bell_state("psi-") is bell_state("psi-")
        with pytest.raises(ValueError):
            bell_state("psi-").amplitudes[1] = 1.0


class TestPartiallyEntangled:
    def test_maximal_is_phi_plus(self):
        s = SchmidtPair(SQ2, SQ2)
        assert partially_entangled(s).isclose_up_to_phase(bell_state("phi+"))

    def test_product(self):
        np.testing.assert_allclose(
            partially_entangled(SchmidtPair(1.0, 0.0)).amplitudes, [1, 0, 0, 0], atol=1e-15
        )

    def test_specific_weights(self):
        psi = partially_entangled(SchmidtPair.from_a_squared(0.8))
        np.testing.assert_allclose(
            psi.amplitudes, [0.894427190999916, 0, 0, 0.447213595499958], atol=1e-12
        )


class TestSchmidtCoeffs:
    def test_bell_state(self):
        s = schmidt_coeffs(bell_state("psi-"))
        np.testing.assert_allclose([s.a, s.b], [SQ2, SQ2], atol=1e-12)

    def test_product_state(self):
        s = schmidt_coeffs(PureState([0, 1, 0, 0]))
        np.testing.assert_allclose([s.a, s.b], [1.0, 0.0], atol=1e-12)

    def test_round_trip(self):
        s = SchmidtPair.from_a_squared(0.8)
        back = schmidt_coeffs(partially_entangled(s))
        np.testing.assert_allclose([back.a, back.b], [s.a, s.b], atol=1e-12)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            psi = haar_random_state(4, rng)
            u = haar_random_unitary(2, rng)
            v = haar_random_unitary(2, rng)
            rotated = PureState(np.kron(u, v) @ psi.amplitudes)
            s1, s2 = schmidt_coeffs(psi), schmidt_coeffs(rotated)
            np.testing.assert_allclose([s1.a, s1.b], [s2.a, s2.b], atol=1e-8)

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            schmidt_coeffs(qubit(1, 0))


class TestFidelity:
    def test_pure_self(self):
        psi = qubit(0.6, 0.8j)
        assert abs(fidelity(psi, psi.density()) - 1.0) < 1e-12

    def test_singlet_fraction_of_mixture(self):
        for p in (0.1, 0.5, 0.9):
            assert abs(fidelity(bell_state("psi-"), mixed_resource(p)) - p) < 1e-12

    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(4) / 4)
        assert abs(fidelity(bell_state("phi+"), rho) - 0.25) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            psi = haar_random_state(2, rng)
            chi = haar_random_state(2, rng)
            f = fidelity(psi, chi.density())
            assert -1e-12 <= f <= 1 + 1e-12

    def test_pure_state_matches_its_density(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            psi = haar_random_state(2, rng)
            chi = haar_random_state(2, rng)
            assert abs(fidelity(psi, chi) - fidelity(psi, chi.density())) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(qubit(1, 0), DensityMatrix(np.eye(4) / 4))
        with pytest.raises(ValueError):
            fidelity(qubit(1, 0), bell_state("phi+"))


class TestMixedResource:
    def test_entries_at_half(self):
        m = mixed_resource(0.5).matrix
        expected = np.zeros((4, 4))
        expected[0, 0] = 0.5
        expected[1, 1] = expected[2, 2] = 0.25
        expected[1, 2] = expected[2, 1] = -0.25
        np.testing.assert_allclose(m, expected, atol=1e-12)

    def test_unit_trace(self):
        for p in (0.01, 0.3, 0.99):
            assert abs(np.trace(mixed_resource(p).matrix) - 1.0) < 1e-12

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            mixed_resource(0.0)
        with pytest.raises(ValueError):
            mixed_resource(1.0)


class TestValidation:
    def test_pure_state_norm(self):
        with pytest.raises(ValueError):
            PureState([1.0, 1.0])
        with pytest.raises(ValueError):  # norm^2 off by 1e-8, above ATOL
            PureState(np.array([np.sqrt(1 + 1e-8), 0]))

    def test_density_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_density_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_density_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.2, -0.2]))

    def test_schmidt_pair_ordering(self):
        with pytest.raises(ValueError):
            SchmidtPair(0.4, np.sqrt(1 - 0.16))

    def test_schmidt_pair_normalization(self):
        with pytest.raises(ValueError):
            SchmidtPair(1.0, 1.0)

    @pytest.mark.parametrize("a2", [
        np.nextafter(0.5, 0.0), np.nextafter(1.0, 2.0), -0.0, np.nan, np.inf, -np.inf, -1.0,
        np.array([0.6, 1.5]),
    ], ids=repr)
    def test_from_a_squared_rejects_outside_closed_interval(self, a2):
        # the pair's own check on the roots is the only one, and it warns of nothing
        with pytest.raises(ValueError, match="a >= b >= 0"):
            SchmidtPair.from_a_squared(a2)

    def test_from_a_squared_accepts_closed_interval(self):
        for a2 in (0.5, np.nextafter(0.5, 1.0)):
            s = SchmidtPair.from_a_squared(a2)
            assert s.a >= s.b > 0.0
        assert SchmidtPair.from_a_squared(1.0) == SchmidtPair(1.0, 0.0)

    def test_random_constructions_normalized(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            psi = haar_random_state(4, rng)
            assert abs(np.sum(np.abs(psi.amplitudes) ** 2) - 1.0) <= 1e-9


class TestHaarAmplitudes:
    def test_single_draw_normalized_as_one_vector(self):
        # the per-trial draws of `teleport` keep their exact bytes
        for seed in range(2000):
            v_rng = np.random.default_rng(seed)
            v = v_rng.normal(size=2) + 1j * v_rng.normal(size=2)
            got = haar_random_amplitudes(2, np.random.default_rng(seed))
            assert got.shape == (2,)
            assert got.tobytes() == (v / np.linalg.norm(v)).tobytes()

    def test_batch_rows_are_single_draws_normalized(self):
        for dim, exact in ((2, True), (4, False)):
            rng = np.random.default_rng(17)
            v = rng.normal(size=(3, 5, dim)) + 1j * rng.normal(size=(3, 5, dim))
            got = haar_random_amplitudes(dim, np.random.default_rng(17), (3, 5))
            assert got.shape == (3, 5, dim)
            for idx in np.ndindex(3, 5):
                want = v[idx] / np.linalg.norm(v[idx])
                if exact:
                    assert got[idx].tobytes() == want.tobytes()
                else:
                    np.testing.assert_allclose(got[idx], want, rtol=0, atol=1e-15)


class TestPhaseConventions:
    def test_equality_up_to_phase(self):
        psi = qubit(0.6, 0.8)
        rotated = PureState(np.exp(1j * 1.3) * psi.amplitudes)
        assert psi.isclose_up_to_phase(rotated)
        assert not psi.isclose_up_to_phase(qubit(0.8, 0.6))

    def test_canonical_leading_amplitude(self):
        psi = PureState(np.exp(1j * 0.4) * np.array([0.0, 0.6, 0.8]))
        canon = canonical_phase(psi.amplitudes)
        assert abs(canon[1].imag) < 1e-12 and canon[1].real > 0
        # an amplitude of 1e-7 lies above ATOL, so it sets the phase
        canon = canonical_phase(np.array([1e-7j, np.sqrt(1 - 1e-14)]))
        np.testing.assert_allclose(canon[0], 1e-7, rtol=1e-12)
