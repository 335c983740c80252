import numpy as np
import pytest

from teleportsim import steering
from teleportsim.linalg import max_abs, partial_trace
from teleportsim.povm import discrimination_povm, projective, teleportation_povm
from teleportsim.states import (
    MINUS,
    ONE,
    PLUS,
    ZERO,
    PureState,
    SchmidtPair,
    bell_state,
    canonical_phase,
    haar_random_state,
    haar_random_unitary,
    partially_entangled,
    qubit,
)
from teleportsim.steering import b92_generation, canonical_ensemble, steer


def reduced_bob(shared: PureState) -> np.ndarray:
    rho = np.outer(shared.amplitudes, shared.amplitudes.conj())
    return partial_trace(rho, (2, shared.dim // 2), trace_out="A")


def dense_bob(shared: PureState, element: np.ndarray) -> np.ndarray:
    """Bob's unnormalized conditional state the long way:
    Tr_A[(A (x) I) |psi><psi|] on the full joint operator."""
    d_a = element.shape[0]
    d_b = shared.dim // d_a
    rho = np.outer(shared.amplitudes, shared.amplitudes.conj())
    return partial_trace(np.kron(element, np.eye(d_b)) @ rho, (d_a, d_b), trace_out="A")


class TestEnsembleDensity:
    def test_e1_is_maximally_mixed(self):
        rho = canonical_ensemble("E1").realized_density()
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_e2_e3_are_maximally_mixed(self):
        for name in ("E2", "E3"):
            rho = canonical_ensemble(name).realized_density()
            np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_e4_is_maximally_mixed_for_any_parameters(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            rho = canonical_ensemble("E4", v[0], v[1]).realized_density()
            np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)


class TestCanonicalEnsembles:
    def test_e1_members(self):
        e = canonical_ensemble("E1")
        np.testing.assert_allclose(e.probabilities, [0.5, 0.5], atol=1e-12)
        assert e.branches[0].bob_state.isclose_up_to_phase(ONE)
        assert e.branches[1].bob_state.isclose_up_to_phase(ZERO)

    def test_e2_members(self):
        e = canonical_ensemble("E2")
        np.testing.assert_allclose(e.probabilities, [0.5, 0.5], atol=1e-12)
        assert e.branches[0].bob_state.isclose_up_to_phase(MINUS)
        assert e.branches[1].bob_state.isclose_up_to_phase(PLUS)

    def test_e3_probabilities(self):
        e = canonical_ensemble("E3")
        np.testing.assert_allclose(e.probabilities, [0.25] * 4, atol=1e-12)
        for branch, want in zip(e.branches, (ONE, ZERO, MINUS, PLUS)):
            assert branch.bob_state.isclose_up_to_phase(want)

    def test_e4_members(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            alpha, beta = haar_random_state(2, rng).amplitudes
            e = canonical_ensemble("E4", alpha, beta)
            np.testing.assert_allclose(e.probabilities, [0.25] * 4, atol=1e-12)
            expected = (qubit(beta, -alpha), qubit(alpha, beta), qubit(alpha, -beta), qubit(beta, alpha))
            for branch, want in zip(e.branches, expected):
                assert branch.bob_state.isclose_up_to_phase(want)

    def test_e4_computational_limit(self):
        e = canonical_ensemble("E4", 1.0, 0.0)
        np.testing.assert_allclose(e.probabilities, [0.25] * 4, atol=1e-12)
        for branch, want in zip(e.branches, (ONE, ZERO, ZERO, ONE)):
            assert branch.bob_state.isclose_up_to_phase(want)

    def test_e4_requires_parameters(self):
        with pytest.raises(ValueError, match="E4 requires alpha and beta"):
            canonical_ensemble("E4")

    def test_e4_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            canonical_ensemble("E4", 1.0, 1.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="E1..E4"):
            canonical_ensemble("E5")


class TestSteer:
    def test_singlet_rectilinear_creates_e1(self):
        alice = projective((ZERO, ONE), ("0", "1"))
        result = steer(bell_state("psi-"), alice)
        np.testing.assert_allclose(result.probabilities, [0.5, 0.5], atol=1e-12)
        bobs = [b.bob_state for b in result.branches]
        assert bobs[0].isclose_up_to_phase(ONE)
        assert bobs[1].isclose_up_to_phase(ZERO)

    def test_singlet_diagonal_creates_e2(self):
        alice = projective((PLUS, MINUS), ("+", "-"))
        result = steer(bell_state("psi-"), alice)
        np.testing.assert_allclose(result.probabilities, [0.5, 0.5], atol=1e-12)
        labels = {canonical_phase(b.bob_state.amplitudes)[1].real > 0 for b in result.branches}
        assert labels == {True, False}  # one of each diagonal state

    def test_singlet_with_teleportation_povm(self):
        alpha, beta = 0.6, 0.8
        result = steer(bell_state("psi-"), teleportation_povm(alpha, beta))
        expected = [qubit(beta, -alpha), qubit(alpha, beta), qubit(alpha, -beta), qubit(beta, alpha)]
        np.testing.assert_allclose(result.probabilities, [0.25] * 4, atol=1e-12)
        for branch, want in zip(result.branches, expected):
            assert branch.bob_state.isclose_up_to_phase(want)

    def test_partial_resource_diagonal_measurement(self):
        s = SchmidtPair.from_a_squared(0.8)
        alice = projective((PLUS, MINUS), ("+", "-"))
        result = steer(partially_entangled(s), alice)
        np.testing.assert_allclose(result.probabilities, [0.5, 0.5], atol=1e-12)
        assert result.branches[0].bob_state.isclose_up_to_phase(qubit(s.a, s.b))
        assert result.branches[1].bob_state.isclose_up_to_phase(qubit(s.a, -s.b))

    def test_hjw_consistency(self):
        # every steered ensemble reassembles Bob's reduced state
        rng = np.random.default_rng(67)
        povms = [
            projective((ZERO, ONE), ("0", "1")),
            projective((PLUS, MINUS), ("+", "-")),
            teleportation_povm(0.6, 0.8j),
            discrimination_povm(SchmidtPair.from_a_squared(0.7)),
        ]
        for _ in range(10):
            shared = haar_random_state(4, rng)
            for alice in povms:
                result = steer(shared, alice)
                assert max_abs(result.realized_density() - reduced_bob(shared)) < 1e-9
                assert abs(result.probabilities.sum() - 1.0) < 1e-10

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(71)
        for d_a, d_b in ((2, 2), (2, 3), (3, 2)):
            for _ in range(10):
                shared = haar_random_state(d_a * d_b, rng)
                basis = haar_random_unitary(d_a, rng)
                alice = projective([PureState(col) for col in basis.T], list("xyz"[:d_a]))
                for branch, element in zip(steer(shared, alice).branches, alice.elements):
                    ref = dense_bob(shared, element)
                    assert abs(branch.probability - np.trace(ref).real) < 1e-12
                    bob = branch.bob_state.amplitudes
                    assert max_abs(branch.probability * np.outer(bob, bob.conj()) - ref) < 1e-12

    def test_zero_probability_branch_flagged(self):
        # a product shared state makes one rectilinear branch impossible
        shared = partially_entangled(SchmidtPair(1.0, 0.0))
        result = steer(shared, projective((ZERO, ONE), ("0", "1")))
        assert result.branches[1].probability == 0.0
        assert result.branches[1].bob_state is None
        assert result.branches[0].probability > 1 - 1e-12

    def test_rank_two_element_rejected(self):
        alice = projective((ZERO, ONE), ("0", "1"))
        full = steering.Povm((np.eye(2),), ("all",))
        with pytest.raises(ValueError):
            steer(bell_state("psi-"), full)

    def test_rank_one_slack(self):
        # Alice's element diag(1, eps) leaves Bob in diag(eps, 1) / (1 + eps),
        # off pure by eps / (1 + eps) in the max-norm
        def bob_after(eps):
            alice = steering.Povm((np.diag([1.0, eps]), np.diag([0.0, 1.0 - eps])), ("a", "b"))
            return steer(bell_state("psi-"), alice).branches[0].bob_state

        bob = bob_after(5e-9)  # within the slack: accepted, and still normalized
        assert bob.isclose_up_to_phase(ONE)
        assert abs(np.linalg.norm(bob.amplitudes) - 1.0) < 1e-15
        with pytest.raises(ValueError):
            bob_after(2e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            steer(qubit(1, 0), projective((ZERO, ONE), ("0", "1")))


class TestB92:
    def test_maximal_entanglement_gives_orthogonal_pair(self):
        result = b92_generation(SchmidtPair(1 / np.sqrt(2), 1 / np.sqrt(2)))
        s0, s1 = (b.bob_state for b in result.branches)
        assert abs(s0.overlap(s1)) < 1e-12

    def test_product_state_gives_useless_pair(self):
        result = b92_generation(SchmidtPair(1.0, 0.0))
        s0, s1 = (b.bob_state for b in result.branches)
        assert abs(abs(s0.overlap(s1)) - 1.0) < 1e-12
        assert s0.isclose_up_to_phase(ZERO)

    def test_overlap_value(self):
        result = b92_generation(SchmidtPair.from_a_squared(0.8))
        s0, s1 = (b.bob_state for b in result.branches)
        assert abs(abs(s0.overlap(s1)) - 0.6) < 1e-12
        np.testing.assert_allclose(result.probabilities, [0.5, 0.5], atol=1e-12)

    def test_rectilinear_reading(self):
        s = SchmidtPair.from_a_squared(0.8)
        result = b92_generation(s, basis="rectilinear")
        np.testing.assert_allclose(result.probabilities, [0.8, 0.2], atol=1e-12)
        assert result.branches[0].bob_state.isclose_up_to_phase(ZERO)
        assert result.branches[1].bob_state.isclose_up_to_phase(ONE)

    def test_unknown_basis(self):
        with pytest.raises(ValueError):
            b92_generation(SchmidtPair.from_a_squared(0.8), basis="circular")

