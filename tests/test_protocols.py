import numpy as np
import pytest

from teleportsim import protocols as pr
from teleportsim.linalg import is_unitary, kron, max_abs
from teleportsim.states import (
    BELL_LABELS,
    PureState,
    SchmidtPair,
    bell_state,
    fidelity,
    haar_random_qubit,
    mixed_resource,
    partially_entangled,
    qubit,
)

SQ2 = 1 / np.sqrt(2)


class TestCorrectionTable:
    def test_singlet_table_matrices(self):
        table = pr.correction_table("psi-")
        np.testing.assert_array_equal(table["phi+"], [[0, 1], [-1, 0]])
        np.testing.assert_array_equal(table["phi-"], [[0, 1], [1, 0]])
        np.testing.assert_array_equal(table["psi+"], [[-1, 0], [0, 1]])
        np.testing.assert_array_equal(table["psi-"], [[1, 0], [0, 1]])

    def test_all_entries_unitary(self):
        for resource in BELL_LABELS:
            for u in pr.correction_table(resource).values():
                assert is_unitary(u, 1e-12)

    def test_unknown_resource(self):
        with pytest.raises(ValueError):
            pr.correction_table("w-state")


class TestStandardTeleport:
    def test_computational_input_over_singlet(self):
        records = pr.standard_teleport(qubit(1, 0), bell_state("psi-"))
        assert [r.outcome_label for r in records] == list(BELL_LABELS)
        for r in records:
            assert abs(r.probability - 0.25) < 1e-12
            assert r.fidelity > 1 - 1e-12
            assert r.classical_bits == 2

    def test_random_inputs_over_singlet(self):
        rng = np.random.default_rng(71)
        for _ in range(50):
            phi = haar_random_qubit(rng)
            records = pr.standard_teleport(phi, bell_state("psi-"))
            total = sum(r.probability for r in records)
            assert abs(total - 1.0) < 1e-12
            assert min(r.fidelity for r in records) > 1 - 1e-10
            assert max(abs(r.probability - 0.25) for r in records) < 1e-10

    def test_every_bell_resource_with_matched_table(self):
        rng = np.random.default_rng(73)
        phi = haar_random_qubit(rng)
        for resource in BELL_LABELS:
            records = pr.standard_teleport(
                phi, bell_state(resource), corrections=pr.correction_table(resource)
            )
            assert min(r.fidelity for r in records) > 1 - 1e-12

    def test_entangled_input(self):
        # teleport one half of a maximally entangled pair: the full protocol
        # run on the 4-qubit state (spectator, input, resource pair)
        # transfers the entanglement onto (spectator, output)
        spectator_pair = bell_state("phi+").amplitudes  # qubits (S, 1)
        resource = bell_state("psi-").amplitudes  # qubits (2, 3)
        joint = kron(spectator_pair, resource)  # order S, 1, 2, 3
        table = pr.correction_table("psi-")
        total = 0.0
        for label in BELL_LABELS:
            chi = bell_state(label).amplitudes
            # project qubits (1, 2): contract the middle index of (S, 12, 3)
            psi_mid = joint.reshape(2, 4, 2)
            post = np.einsum("m,smb->sb", chi.conj(), psi_mid)
            prob = float(np.vdot(post, post).real)
            post = post / np.sqrt(prob)
            corrected = np.einsum("bc,sc->sb", table[label], post)
            f = abs(np.vdot(spectator_pair, corrected.reshape(4))) ** 2
            assert abs(prob - 0.25) < 1e-12
            assert f > 1 - 1e-10
            total += prob
        assert abs(total - 1.0) < 1e-12

    def test_density_matrix_resource_matches_pure_path(self):
        rng = np.random.default_rng(79)
        phi = haar_random_qubit(rng)
        pure_records = pr.standard_teleport(phi, bell_state("psi-"))
        mixed_records = pr.standard_teleport(phi, bell_state("psi-").density())
        for a, b in zip(pure_records, mixed_records):
            assert abs(a.probability - b.probability) < 1e-12
            assert abs(a.fidelity - b.fidelity) < 1e-12

    def test_input_dimension_checked(self):
        with pytest.raises(ValueError):
            pr.standard_teleport(bell_state("phi+"), bell_state("psi-"))


class TestNaivePartialTeleport:
    def test_computational_input(self):
        # beta = 0 puts all the weight on the Schmidt-aligned component
        for a2 in (0.6, 0.8, 0.95):
            s = SchmidtPair.from_a_squared(a2)
            records = pr.naive_partial_teleport(qubit(1, 0), s)
            phi_plus = records[0]
            assert phi_plus.outcome_label == "phi+"
            assert abs(phi_plus.probability - a2 / 2) < 1e-12
            assert phi_plus.fidelity > 1 - 1e-12

    def test_spot_value(self):
        s = SchmidtPair.from_a_squared(0.8)
        phi = qubit(SQ2, SQ2)
        rec = pr.naive_partial_teleport(phi, s)[0]
        assert abs(rec.probability - 0.25) < 1e-10
        assert abs(rec.fidelity - 0.9) < 1e-10

    def test_simulation_matches_closed_forms(self):
        rng = np.random.default_rng(83)
        for a2 in np.arange(0.5, 1.0 + 1e-9, 0.1):
            s = SchmidtPair.from_a_squared(float(a2))
            for _ in range(20):
                phi = haar_random_qubit(rng)
                rec = pr.naive_partial_teleport(phi, s)[0]
                assert abs(rec.probability - pr.naive_phi_plus_probability(phi, s)) < 1e-10
                assert abs(rec.fidelity - pr.naive_phi_plus_fidelity(phi, s)) < 1e-10

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(89)
        phi = haar_random_qubit(rng)
        records = pr.naive_partial_teleport(phi, SchmidtPair.from_a_squared(0.7))
        assert abs(sum(r.probability for r in records) - 1.0) < 1e-12

    def test_maximal_entanglement_reduces_to_standard(self):
        rng = np.random.default_rng(97)
        phi = haar_random_qubit(rng)
        records = pr.naive_partial_teleport(phi, SchmidtPair(SQ2, SQ2))
        for r in records:
            assert abs(r.probability - 0.25) < 1e-12
            assert r.fidelity > 1 - 1e-10


class TestTwoStepBell:
    def test_stage_one_probabilities_over_singlet(self):
        rng = np.random.default_rng(101)
        phi = haar_random_qubit(rng)
        joint = PureState(kron(phi.amplitudes, bell_state("psi-").amplitudes))
        result = pr.two_step_bell(joint)
        for _, prob in result.stage_one:
            assert abs(prob - 0.5) < 1e-12

    def test_composition_reproduces_bell_statistics(self):
        # oracle: single-shot Bell projector probabilities
        rng = np.random.default_rng(103)
        for _ in range(20):
            phi = haar_random_qubit(rng)
            a2 = rng.uniform(0.5, 1.0)
            resource = partially_entangled(SchmidtPair.from_a_squared(a2))
            joint = PureState(kron(phi.amplitudes, resource.amplitudes))
            result = pr.two_step_bell(joint)
            staged = {b.outcome: b.probability for b in result.branches}
            for label in BELL_LABELS:
                chi = bell_state(label).amplitudes
                direct = float(
                    np.linalg.norm(chi.conj() @ joint.amplitudes.reshape(4, 2)) ** 2
                )
                assert abs(staged[label] - direct) < 1e-10

    def test_subspace_pure_input_is_deterministic(self):
        joint = PureState(np.eye(8)[0])  # |000>, entirely in the even subspace
        result = pr.two_step_bell(joint)
        probs = dict(result.stage_one)
        assert abs(probs["even"] - 1.0) < 1e-12
        assert abs(probs["odd"]) < 1e-12

    def test_stage_probabilities_marginalize(self):
        rng = np.random.default_rng(107)
        phi = haar_random_qubit(rng)
        joint = PureState(kron(phi.amplitudes, partially_entangled(SchmidtPair.from_a_squared(0.8)).amplitudes))
        result = pr.two_step_bell(joint)
        for name, stage_prob in result.stage_one:
            total = sum(b.probability for b in result.branches if b.subspace == name)
            assert abs(total - stage_prob) < 1e-12


class TestConclusiveTeleport:
    def test_maximal_entanglement_always_succeeds(self):
        rng = np.random.default_rng(109)
        phi = haar_random_qubit(rng)
        records = pr.conclusive_teleport(phi, SchmidtPair(SQ2, SQ2))
        success = sum(r.probability for r in records if r.success)
        assert abs(success - 1.0) < 1e-10
        for r in records:
            if r.success and r.probability > 0:
                assert r.fidelity > 1 - 1e-10

    def test_partial_resource_statistics(self):
        s = SchmidtPair.from_a_squared(0.8)
        rng = np.random.default_rng(113)
        for _ in range(20):
            phi = haar_random_qubit(rng)
            records = pr.conclusive_teleport(phi, s)
            assert len(records) == 6
            assert abs(sum(r.probability for r in records) - 1.0) < 1e-10
            success = sum(r.probability for r in records if r.success)
            assert abs(success - 0.4) < 1e-12
            for r in records:
                if r.success:
                    assert r.fidelity > 1 - 1e-10
                assert r.classical_bits == 3

    def test_success_probability_closed_form(self):
        rng = np.random.default_rng(127)
        phi = haar_random_qubit(rng)
        for a2 in np.linspace(0.5, 0.99, 8):
            s = SchmidtPair.from_a_squared(float(a2))
            records = pr.conclusive_teleport(phi, s)
            success = sum(r.probability for r in records if r.success)
            assert abs(success - pr.conclusive_success_probability(s)) < 1e-12

    def test_product_resource_never_succeeds(self):
        rng = np.random.default_rng(131)
        phi = haar_random_qubit(rng)
        records = pr.conclusive_teleport(phi, SchmidtPair(1.0, 0.0))
        assert sum(r.probability for r in records if r.success) == 0.0

    def test_monte_carlo_within_binomial_error(self):
        s = SchmidtPair.from_a_squared(0.8)
        mc = pr.conclusive_monte_carlo(s, trials=20000, seed=5)
        sigma = np.sqrt(0.4 * 0.6 / 20000)
        assert abs(mc.empirical_rate - 0.4) <= 3 * sigma
        assert mc.wrong_outcomes == 0
        assert mc.min_conclusive_fidelity > 1 - 1e-10

    def test_monte_carlo_deterministic(self):
        s = SchmidtPair.from_a_squared(0.7)
        a = pr.conclusive_monte_carlo(s, trials=5000, seed=42)
        b = pr.conclusive_monte_carlo(s, trials=5000, seed=42)
        assert a == b


class TestBilocalFilter:
    def test_identity_filter(self):
        rho = mixed_resource(0.3)
        post, prob = pr.bilocal_filter(rho, pr.FilterParams.from_n(1))
        assert abs(prob - 1.0) < 1e-12
        assert max_abs(post.matrix - rho.matrix) < 1e-12

    def test_spot_value(self):
        post, prob = pr.bilocal_filter(mixed_resource(0.5), pr.FilterParams.from_n(4))
        assert abs(prob - 0.15625) < 1e-12
        assert abs(fidelity(bell_state("psi-"), post) - 0.8) < 1e-12

    def test_output_is_filtered_mixture(self):
        # criterion: the post state is exactly the same mixture at p'
        for p in np.arange(0.1, 0.95, 0.1):
            for n in (1, 2, 4, 16, 256):
                post, prob = pr.bilocal_filter(mixed_resource(float(p)), pr.FilterParams.from_n(n))
                p_prime = pr.p_prime_after_filter(float(p), n)
                assert max_abs(post.matrix - mixed_resource(p_prime).matrix) < 1e-12
                assert abs(prob - pr.filter_success_probability(float(p), n)) < 1e-12

    def test_near_pure_singlet_limit(self):
        # as p -> 1 the singlet passes the filter with probability 1/n unchanged
        p = 1 - 1e-9
        for n in (2, 8):
            post, prob = pr.bilocal_filter(mixed_resource(p), pr.FilterParams.from_n(n))
            assert abs(prob - 1.0 / n) < 1e-8
            assert fidelity(bell_state("psi-"), post) > 1 - 1e-8

    def test_monotonicity_in_n(self):
        grid = (1, 2, 4, 16, 256)
        for p in np.arange(0.1, 0.95, 0.1):
            primes = [pr.p_prime_after_filter(float(p), n) for n in grid]
            succ = [pr.filter_success_probability(float(p), n) for n in grid]
            assert all(x < y for x, y in zip(primes, primes[1:]))
            assert all(x > y for x, y in zip(succ, succ[1:]))

    def test_filter_params_validation(self):
        with pytest.raises(ValueError):
            pr.FilterParams(n=4.0, strength=0.9)
        with pytest.raises(ValueError):
            pr.FilterParams.from_n(0.5)
        fp = pr.FilterParams.from_strength(0.25)
        assert abs(fp.n - 16.0) < 1e-12


class TestAverageFidelity:
    def test_matches_closed_form_on_filtered_mixtures(self):
        # composition oracle: full density-matrix simulation of filter +
        # teleport against (2 p' + 1) / 3
        for p in (0.2, 0.5, 0.8):
            for n in (1, 4, 16):
                post, _ = pr.bilocal_filter(mixed_resource(p), pr.FilterParams.from_n(n))
                p_prime = pr.p_prime_after_filter(p, n)
                avg = pr.teleport_average_fidelity(post)
                assert abs(avg - (2 * p_prime + 1) / 3) < 1e-9

    def test_monte_carlo_agrees(self):
        post, _ = pr.bilocal_filter(mixed_resource(0.5), pr.FilterParams.from_n(4))
        analytic = pr.teleport_average_fidelity(post)
        rng = np.random.default_rng(137)
        total = 0.0
        trials = 1500
        for _ in range(trials):
            phi = haar_random_qubit(rng)
            records = pr.standard_teleport(phi, post)
            total += sum(r.probability * r.fidelity for r in records)
        assert abs(total / trials - analytic) < 0.02

    def test_perfect_resource(self):
        assert abs(pr.teleport_average_fidelity(bell_state("psi-").density()) - 1.0) < 1e-12

    def test_entanglement_fidelity_equals_singlet_fraction(self):
        for p in (0.1, 0.5, 0.9):
            rho = mixed_resource(p)
            assert abs(pr.teleport_entanglement_fidelity(rho) - p) < 1e-12


class TestMaxTeleportFidelity:
    def test_values(self):
        assert pr.max_teleport_fidelity(1.0) == 1.0
        assert abs(pr.max_teleport_fidelity(0.25) - 0.5) < 1e-15
        assert abs(pr.max_teleport_fidelity(0.5) - 2 / 3) < 1e-15

    def test_domain(self):
        with pytest.raises(ValueError):
            pr.max_teleport_fidelity(1.5)
        with pytest.raises(ValueError):
            pr.max_teleport_fidelity(-0.1)


class TestQuasiConclusive:
    def test_loose_target_needs_no_filtering(self):
        phi = qubit(0.6, 0.8)
        result = pr.quasi_conclusive_teleport(phi, 0.5, 0.5)
        assert result.n == 1
        assert abs(result.filter_success_prob - 1.0) < 1e-12

    def test_planner_spot_value(self):
        phi = qubit(0.6, 0.8)
        result = pr.quasi_conclusive_teleport(phi, 0.5, 0.01)
        assert result.n == 66
        expected_success = pr.filter_success_probability(0.5, 66)
        assert abs(result.filter_success_prob - expected_success) < 1e-12
        assert abs(expected_success - (1 + 65 * 0.5) / 66**2) < 1e-15
        assert result.average_fidelity >= 0.99

    def test_requested_fidelity_is_reached(self):
        phi = qubit(1, 0)
        for eps in (0.1, 0.01, 0.001):
            result = pr.quasi_conclusive_teleport(phi, 0.5, eps)
            assert result.average_fidelity >= 1 - eps
            assert result.n == pr.required_filter_index(0.5, eps)

    def test_success_probability_decreases_with_target(self):
        phi = qubit(1, 0)
        succ = [
            pr.quasi_conclusive_teleport(phi, 0.5, eps).filter_success_prob
            for eps in (0.1, 0.01, 0.001)
        ]
        assert succ[0] > succ[1] > succ[2] > 0

    def test_minimality_of_planned_index(self):
        for p in (0.3, 0.5, 0.7):
            for eps in (0.05, 0.01):
                n = pr.required_filter_index(p, eps)
                target = 1 - eps
                assert pr.max_teleport_fidelity(pr.p_prime_after_filter(p, n)) >= target
                if n > 1:
                    assert pr.max_teleport_fidelity(pr.p_prime_after_filter(p, n - 1)) < target

    def test_unreachable_epsilon_rejected(self):
        with pytest.raises(ValueError):
            pr.required_filter_index(0.5, 1e-18)

    def test_record_structure(self):
        phi = qubit(0.6, 0.8)
        result = pr.quasi_conclusive_teleport(phi, 0.5, 0.1)
        assert len(result.records) == 4
        assert abs(sum(r.probability for r in result.records) - 1.0) < 1e-10
        assert abs(result.p_prime - pr.p_prime_after_filter(0.5, result.n)) < 1e-12


class TestTrialRng:
    def test_deterministic_per_key(self):
        a = pr.trial_rng(7, 3).random(5)
        b = pr.trial_rng(7, 3).random(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams(self):
        a = pr.trial_rng(7, 3).random(5)
        b = pr.trial_rng(7, 4).random(5)
        assert not np.allclose(a, b)
