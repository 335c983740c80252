import numpy as np
import pytest

from teleportsim import linalg, states
from teleportsim import povm as pv
from teleportsim.linalg import ATOL
from teleportsim.states import (
    DensityMatrix,
    SchmidtPair,
    bell_state,
    qubit,
)

# Bell projector order matching the four-element builder: element i of the
# builder is induced by this projector when the dilated measurement is
# performed with the ancilla carrying (alpha, beta).
BUILDER_BELL_ORDER = ("phi+", "psi-", "psi+", "phi-")


def bell_projector_list(order=BUILDER_BELL_ORDER):
    out = []
    for lbl in order:
        v = bell_state(lbl).amplitudes
        out.append(np.outer(v, v.conj()))
    return out


def random_unit_pair(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return v[0], v[1]


class TestTeleportationPovm:
    def test_computational_ancilla(self):
        p = pv.teleportation_povm(1.0, 0.0)
        np.testing.assert_allclose(p.elements[0], np.diag([0.5, 0.0]), atol=1e-15)
        np.testing.assert_allclose(p.elements[1], np.diag([0.0, 0.5]), atol=1e-15)
        np.testing.assert_allclose(p.elements[2], np.diag([0.0, 0.5]), atol=1e-15)
        np.testing.assert_allclose(p.elements[3], np.diag([0.5, 0.0]), atol=1e-15)

    def test_completeness_random_parameters(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            alpha, beta = random_unit_pair(rng)
            p = pv.teleportation_povm(alpha, beta)
            assert pv.completeness_residual(p.elements) < 1e-9
            assert pv.min_eigenvalue(p.elements) >= -1e-9

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            pv.teleportation_povm(1.0, 1.0)


class TestDiscriminationPovm:
    def test_equal_weights_has_no_inconclusive_outcome(self):
        s = SchmidtPair(1 / np.sqrt(2), 1 / np.sqrt(2))
        p = pv.discrimination_povm(s)
        np.testing.assert_allclose(p.elements[2], np.zeros((2, 2)), atol=1e-12)
        # conclusive elements are the diagonal-basis projectors
        plus = np.array([1, 1]) / np.sqrt(2)
        np.testing.assert_allclose(p.elements[0], np.outer(plus, plus), atol=1e-12)

    def test_inconclusive_element_value(self):
        p = pv.discrimination_povm(SchmidtPair.from_a_squared(0.8))
        np.testing.assert_allclose(p.elements[2], np.diag([0.75, 0.0]), atol=1e-12)

    def test_never_wrong(self):
        # conclusive outcomes have zero weight on the other signal state
        for a2 in np.linspace(0.5, 0.99, 12):
            s = SchmidtPair.from_a_squared(a2)
            p = pv.discrimination_povm(s)
            psi1 = np.array([s.a, s.b])
            psi2 = np.array([s.a, -s.b])
            assert abs(psi2 @ p.elements[0] @ psi2) < 1e-12
            assert abs(psi1 @ p.elements[1] @ psi1) < 1e-12

    def test_degenerate_returns_all_inconclusive(self):
        p = pv.discrimination_povm(SchmidtPair(1.0, 0.0))
        assert len(p) == 2
        assert all(not pv.is_conclusive_label(lbl) for lbl in p.labels)
        np.testing.assert_allclose(sum(p.elements), np.eye(2), atol=1e-15)
        # b = 1e-9 lies above DEGENERATE_B, so the POVM stays the generic one
        assert len(pv.discrimination_povm(SchmidtPair(np.sqrt(1 - 1e-18), 1e-9))) == 3

    def test_conclusive_elements_require_normalization(self):
        # regression: without the 1/(2 a^2) factor on the conclusive elements
        # the three operators sum to the identity only at a^2 = 1/2
        for a2 in (0.6, 0.8, 0.95):
            s = SchmidtPair.from_a_squared(a2)
            a, b = s.a, s.b
            raw = [
                np.array([[b * b, a * b], [a * b, a * a]]),
                np.array([[b * b, -a * b], [-a * b, a * a]]),
                np.diag([1 - b * b / (a * a), 0.0]),
            ]
            assert pv.completeness_residual(raw) > 1e-3
        s = SchmidtPair.from_a_squared(0.5)
        raw = [
            np.array([[s.b**2, s.a * s.b], [s.a * s.b, s.a**2]]),
            np.array([[s.b**2, -s.a * s.b], [-s.a * s.b, s.a**2]]),
            np.diag([1 - s.b**2 / s.a**2, 0.0]),
        ]
        assert pv.completeness_residual(raw) < 1e-12


class TestInducedPovm:
    def test_reproduces_teleportation_povm(self):
        rng = np.random.default_rng(43)
        projs = bell_projector_list()
        for _ in range(50):
            alpha, beta = random_unit_pair(rng)
            aux = qubit(alpha, beta).density()
            induced = pv.induced_povm(projs, aux)
            direct = pv.teleportation_povm(alpha, beta)
            for got, want in zip(induced.elements, direct.elements):
                assert np.max(np.abs(got - want)) < 1e-10

    def test_computational_ancilla(self):
        induced = pv.induced_povm(bell_projector_list(), qubit(1, 0).density())
        expected = [np.diag([0.5, 0]), np.diag([0, 0.5]), np.diag([0, 0.5]), np.diag([0.5, 0])]
        for got, want in zip(induced.elements, expected):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_block_contraction_entry(self):
        # the (0,0) entry of the first element equals the trace of the
        # ancilla state against the upper-left ancilla block of the phi+
        # projector, i.e. |alpha|^2 / 2
        alpha, beta = 0.6, 0.8
        aux = qubit(alpha, beta).density()
        induced = pv.induced_povm(bell_projector_list(), aux)
        proj = bell_projector_list()[0].reshape(2, 2, 2, 2)
        upper_left_block = proj[0, :, 0, :]
        entry = np.trace(upper_left_block @ aux.matrix)
        assert abs(induced.elements[0][0, 0] - entry) < 1e-15
        assert abs(entry - 0.5 * alpha**2) < 1e-15
        # the value 0.5 * beta^2 shows up as the (0,0) entry of the two
        # elements induced by the psi-type projectors
        assert abs(induced.elements[1][0, 0] - 0.5 * beta**2) < 1e-15
        assert abs(induced.elements[2][0, 0] - 0.5 * beta**2) < 1e-15

    def test_rejects_incomplete_set(self):
        projs = bell_projector_list()[:3]
        with pytest.raises(ValueError):
            pv.induced_povm(projs, qubit(1, 0).density())

    def test_rejects_non_orthogonal_set(self):
        v1 = np.array([1, 0, 0, 0], dtype=complex)
        v2 = np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2)
        projs = [np.outer(v1, v1), np.outer(v2, v2), np.eye(4) - np.outer(v1, v1) - np.outer(v2, v2)]
        with pytest.raises(ValueError):
            pv.induced_povm(projs, qubit(1, 0).density())


class TestMeasure:
    def test_teleportation_on_maximally_mixed(self):
        p = pv.teleportation_povm(0.6, 0.8)
        rho = DensityMatrix(np.eye(2) / 2)
        probs = [np.trace(a @ rho.matrix).real for a in p.elements]
        np.testing.assert_allclose(probs, [0.25] * 4, atol=1e-12)

    def test_discrimination_inconclusive_rate(self):
        s = SchmidtPair.from_a_squared(0.8)
        p = pv.discrimination_povm(s)
        psi1 = qubit(s.a, s.b)
        psi2 = qubit(s.a, -s.b)
        rho = DensityMatrix(0.5 * psi1.density().matrix + 0.5 * psi2.density().matrix)
        prob_inconclusive = np.trace(p.elements[2] @ rho.matrix).real
        assert abs(prob_inconclusive - 0.6) < 1e-12


class TestPovmValidation:
    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            pv.Povm((np.diag([0.5, 0.5]),), ("half",))

    def test_rejects_non_psd_element(self):
        with pytest.raises(ValueError):
            pv.Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])), ("a", "b"))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            pv.Povm((np.diag([0.5, 0.5]), np.diag([0.5, 0.5])), ("x", "x"))

    def test_coerces_each_element_once(self, monkeypatch):
        calls = []
        real = linalg.as_complex_matrix

        def counting(m):
            calls.append(1)
            return real(m)

        for module in (linalg, pv, states):
            if hasattr(module, "as_complex_matrix"):
                monkeypatch.setattr(module, "as_complex_matrix", counting)
        p = pv.discrimination_povm(SchmidtPair.from_a_squared(0.8))
        assert len(p) == 3
        assert len(calls) <= 3

    def test_rejects_non_finite_element(self):
        with pytest.raises(ValueError, match="non-finite"):
            pv.Povm((np.diag([np.nan, 0.0]), np.diag([0.0, 1.0])), ("a", "b"))

    def test_builders_satisfy_invariants(self):
        rng = np.random.default_rng(53)
        built = [pv.teleportation_povm(*random_unit_pair(rng)) for _ in range(10)]
        for a2 in np.linspace(0.5, 1.0, 6):
            built.append(pv.discrimination_povm(SchmidtPair.from_a_squared(a2)))
        for p in built:
            assert pv.completeness_residual(p.elements) <= ATOL
            assert pv.min_eigenvalue(p.elements) >= -ATOL
