import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teleportsim import protocols as pr
from teleportsim.linalg import kron, max_abs
from teleportsim.states import (
    BELL_LABELS,
    SchmidtPair,
    bell_state,
    fidelity,
    haar_random_qubit,
    mixed_resource,
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
                assert max_abs(u.conj().T @ u - np.eye(2)) <= 1e-12

    def test_unknown_resource(self):
        with pytest.raises(ValueError):
            pr.correction_table("w-state")

    def test_shared_tables_cannot_be_changed(self):
        table = pr.correction_table("psi-")
        assert not any(u.flags.writeable for u in table.values())
        table["psi-"] = np.zeros((2, 2))
        np.testing.assert_array_equal(pr.correction_table("psi-")["psi-"], np.eye(2))


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
    """The Bell measurement split into a parity check on particles (1, 2)
    and a second stage inside the parity subspace; ``conclusive_maps`` is
    that split with unambiguous discrimination as the second stage."""

    def test_composition_reproduces_bell_statistics(self):
        # At a = b the discrimination stage is the projective one, so the
        # split must reproduce Bell-measurement teleportation over phi+.
        split = pr.conclusive_maps(SchmidtPair(SQ2, SQ2))
        bell = pr.teleport_maps(bell_state("phi+"), pr.correction_table("phi+"))
        pairs = {
            "even:conclusive+": "phi+",
            "even:conclusive-": "phi-",
            "odd:conclusive+": "psi+",
            "odd:conclusive-": "psi-",
        }
        for label, m in zip(split.labels, split.maps):
            if label in pairs:
                expected = bell.maps[bell.labels.index(pairs[label])]
                assert max_abs(m - expected) < 1e-15
            else:
                assert max_abs(m) == 0.0


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

    def test_prob_floor_near_product_resource(self):
        # PROB_FLOOR applies to each branch.  At a^2 = 1 - 1e-12 each of the
        # four conclusive branches has probability 5e-13, so the reported
        # success is exactly 0 where the closed form gives 2e-12; at
        # a^2 = 1 - 1e-11 the two agree.
        rng = np.random.default_rng(137)
        phis = np.array([haar_random_qubit(rng).amplitudes for _ in range(20)])

        def reported_and_closed(a2):
            s = SchmidtPair.from_a_squared(a2)
            maps = pr.conclusive_maps(s)
            success = maps.evaluate(phis)[0][:, maps.success].sum(axis=1)
            return success, pr.conclusive_success_probability(s)

        success, closed = reported_and_closed(1 - 1e-12)
        assert abs(closed - 2.0e-12) < 1e-16
        assert np.all(success == 0.0)
        success, closed = reported_and_closed(1 - 1e-11)
        assert abs(closed - 2.0e-11) < 1e-16
        np.testing.assert_allclose(success, closed, rtol=1e-12)
        # b = 7.1e-7 is far above DEGENERATE_B, yet each conclusive branch
        # (2.5e-13) falls under the floor: probability 0 and never a success
        records = pr.conclusive_teleport(qubit(0.6, 0.8), SchmidtPair.from_a_squared(1 - 5e-13))
        conclusive = [r for r in records if not r.outcome_label.endswith("inconclusive")]
        assert len(conclusive) == 4
        assert all(r.probability == 0.0 and not r.success for r in conclusive)

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
            pr.FilterParams(n=float("nan"))
        with pytest.raises(ValueError):
            pr.FilterParams.from_n(0.5)
        with pytest.raises(ValueError):
            pr.FilterParams.from_n(pr.MAX_FILTER_INDEX + 1.0e6)
        assert pr.FilterParams.from_n(pr.MAX_FILTER_INDEX).n == pr.MAX_FILTER_INDEX
        assert pr.FilterParams.from_n(16).strength == 0.25

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.floats(1e-3, 1 - 1e-3),
        n=st.floats(0.0, np.log10(pr.MAX_FILTER_INDEX)).map(
            lambda e: min(10.0**e, pr.MAX_FILTER_INDEX)
        ),
    )
    @example(p=0.5, n=1e17)
    def test_dense_filter_matches_closed_forms(self, p, n):
        # no representable success probability is rejected, however strong the filter
        post, prob = pr.bilocal_filter(mixed_resource(p), pr.FilterParams.from_n(n))
        expected = pr.filter_success_probability(p, n)
        assert abs(prob - expected) <= 1e-12 * expected
        assert abs(fidelity(bell_state("psi-"), post) - pr.p_prime_after_filter(p, n)) <= 1e-12


class TestAverageFidelity:
    def test_matches_closed_form_on_filtered_mixtures(self):
        # filter + teleport through the kernel against p' and (2 p' + 1) / 3
        for p in (0.2, 0.5, 0.8):
            for n in (1, 4, 16):
                maps, _ = pr.filtered_teleport_maps(p, pr.FilterParams.from_n(n))
                p_prime = pr.p_prime_after_filter(p, n)
                entanglement, average = maps.haar_averages()
                assert abs(entanglement - p_prime) < 1e-12
                assert abs(average - (2 * p_prime + 1) / 3) < 1e-12

    def test_monte_carlo_agrees(self):
        maps, _ = pr.filtered_teleport_maps(0.5, pr.FilterParams.from_n(4))
        analytic = maps.haar_averages()[1]
        rng = np.random.default_rng(137)
        total = 0.0
        trials = 1500
        for _ in range(trials):
            records = maps.records(haar_random_qubit(rng))
            total += sum(r.probability * r.fidelity for r in records)
        assert abs(total / trials - analytic) < 0.02

    def test_perfect_resource(self):
        entanglement, average = pr.teleport_maps(bell_state("psi-")).haar_averages()
        assert abs(entanglement - 1.0) < 1e-12
        assert abs(average - 1.0) < 1e-12

    def test_entanglement_fidelity_equals_singlet_fraction(self):
        for p in (0.1, 0.5, 0.9):
            assert abs(pr.teleport_maps(mixed_resource(p)).haar_averages()[0] - p) < 1e-12


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

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(0.01, 0.99), epsilon=st.floats(-15.0, -0.5).map(lambda e: 10.0**e))
    @example(p=0.20786527963173337, epsilon=3.98589309185896e-07)
    @example(p=0.01, epsilon=1e-13)  # a filter that succeeds with probability 1.5e-17
    def test_reported_fidelity_meets_target(self, p, epsilon):
        result = pr.quasi_conclusive_teleport(qubit(1, 0), p, epsilon)
        assert result.average_fidelity >= 1.0 - epsilon

    @settings(max_examples=200, deadline=None)
    @given(p=st.floats(0.01, 0.99), epsilon=st.floats(-15.0, -0.5).map(lambda e: 10.0**e))
    def test_planned_index_is_least_meeting_target(self, p, epsilon):
        def meets(n):
            return pr.max_teleport_fidelity(pr.p_prime_after_filter(p, n)) >= 1.0 - epsilon

        n = pr.required_filter_index(p, epsilon)
        assert meets(n)
        assert n == 1 or not meets(n - 1)

    def test_unreachable_epsilon_rejected(self):
        # 1 - 5e-17 rounds to 1; at p = 5e-324, p * (1 - f_req) underflows to 0
        for p, epsilon in ((0.5, 1e-18), (0.5, 5e-17), (1e-300, 0.01), (5e-324, 0.01)):
            with pytest.raises(ValueError, match="requires a filter index beyond"):
                pr.required_filter_index(p, epsilon)

    def test_record_structure(self):
        phi = qubit(0.6, 0.8)
        result = pr.quasi_conclusive_teleport(phi, 0.5, 0.1)
        assert len(result.records) == 4
        assert abs(sum(r.probability for r in result.records) - 1.0) < 1e-10
        assert abs(result.p_prime - pr.p_prime_after_filter(0.5, result.n)) < 1e-12
        # records are given that the filter passed, here with probability 1.5e-17
        result = pr.quasi_conclusive_teleport(phi, 0.01, 1e-13)
        assert abs(sum(r.probability for r in result.records) - 1.0) < 1e-12
        assert all(r.probability > 0.0 for r in result.records)


class TestTrialRng:
    def test_deterministic_per_key(self):
        a = pr.trial_rng(7, 3).random(5)
        b = pr.trial_rng(7, 3).random(5)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams(self):
        a = pr.trial_rng(7, 3).random(5)
        b = pr.trial_rng(7, 4).random(5)
        assert not np.allclose(a, b)
