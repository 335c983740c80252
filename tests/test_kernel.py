"""The batched transfer-map kernel against independent references.

Every protocol is recomputed here the long way: the 8x8 joint density
matrix, Alice's Kraus operator kron(sqrt(A), I) on particles (1, 2), a
partial trace down to Bob and his correction.  The sampler is checked
against a plain per-trial loop over the same records.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teleportsim import protocols as pr
from teleportsim.linalg import kron, partial_trace, sqrt_psd
from teleportsim.povm import discrimination_povm
from teleportsim.states import (
    BELL_LABELS,
    DensityMatrix,
    PureState,
    SchmidtPair,
    bell_state,
    haar_random_qubit,
    mixed_resource,
    partially_entangled,
)

TOL = 1e-12

amplitude = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def qubits(draw):
    v = np.array([draw(amplitude) + 1j * draw(amplitude), draw(amplitude) + 1j * draw(amplitude)])
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v, norm = np.array([1.0, 0.0]), 1.0
    return PureState(v / norm)


a_squared = st.floats(0.5, 1.0)
mixing = st.floats(0.01, 0.99)


def dense_branches(phi, resource, elements, corrections):
    """(probability, fidelity) per branch from the full 8x8 density matrix."""
    v = phi.amplitudes
    full = kron(np.outer(v, v.conj()), resource)
    out = []
    for a, u in zip(elements, corrections):
        op = kron(sqrt_psd(a), np.eye(2))
        sub = op @ full @ op.conj().T
        prob = float(np.trace(sub).real)
        if prob < pr.PROB_FLOOR:
            out.append((0.0, 0.0))
            continue
        bob = u @ partial_trace(sub, (4, 2), trace_out="A") @ u.conj().T / prob
        out.append((prob, float(np.vdot(v, bob @ v).real)))
    return out


def bell_elements():
    return [np.outer(bell_state(lbl).amplitudes, bell_state(lbl).amplitudes.conj())
            for lbl in BELL_LABELS]


def assert_matches(records, reference):
    assert len(records) == len(reference)
    for rec, (prob, fid) in zip(records, reference):
        assert abs(rec.probability - prob) <= TOL
        assert abs(rec.fidelity - fid) <= TOL
    assert abs(sum(r.probability for r in records) - 1.0) <= TOL


@settings(max_examples=60, deadline=None)
@given(phi=qubits(), resource=st.sampled_from(BELL_LABELS))
def test_standard_over_every_bell_resource(phi, resource):
    table = pr.correction_table(resource)
    records = pr.standard_teleport(phi, bell_state(resource), corrections=table)
    rho = bell_state(resource).density().matrix
    assert_matches(records, dense_branches(phi, rho, bell_elements(),
                                           [table[lbl] for lbl in BELL_LABELS]))
    assert all(r.success and r.fidelity > 1 - TOL for r in records)


@settings(max_examples=60, deadline=None)
@given(phi=qubits(), a2=a_squared)
@example(phi=PureState(np.array([0.6, 0.8j])), a2=0.5)
@example(phi=PureState(np.array([0.6, 0.8j])), a2=1.0)
def test_naive_over_partial_resource(phi, a2):
    s = SchmidtPair.from_a_squared(a2)
    table = pr.correction_table("phi+")
    rho = partially_entangled(s).density().matrix
    assert_matches(pr.naive_partial_teleport(phi, s),
                   dense_branches(phi, rho, bell_elements(), [table[lbl] for lbl in BELL_LABELS]))


# Parity subspaces of particles (1, 2) and the recovery rotation of each
# conclusive outcome, written out independently of the library.
_EVEN = np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=complex)  # |00>, |11>
_ODD = np.array([[0, 0], [0, 1], [1, 0], [0, 0]], dtype=complex)  # |10>, |01>
_RECOVERY = {
    ("even", "conclusive+"): np.eye(2),
    ("even", "conclusive-"): np.diag([-1.0, 1.0]),
    ("odd", "conclusive+"): np.array([[0.0, 1.0], [1.0, 0.0]]),
    ("odd", "conclusive-"): np.array([[0.0, 1.0], [-1.0, 0.0]]),
}


@settings(max_examples=60, deadline=None)
@given(phi=qubits(), a2=a_squared)
@example(phi=PureState(np.array([0.6, 0.8j])), a2=0.5)
@example(phi=PureState(np.array([0.6, 0.8j])), a2=1.0)
def test_conclusive_over_partial_resource(phi, a2):
    s = SchmidtPair.from_a_squared(a2)
    disc = discrimination_povm(s)
    labels, elements, corrections = [], [], []
    for name, t in (("even", _EVEN), ("odd", _ODD)):
        for label, a in zip(disc.labels, disc.elements):
            labels.append(f"{name}:{label}")
            elements.append(t @ a @ t.conj().T)
            corrections.append(_RECOVERY.get((name, label), np.eye(2)))
    records = pr.conclusive_teleport(phi, s)
    assert [r.outcome_label for r in records] == labels
    rho = partially_entangled(s).density().matrix
    assert_matches(records, dense_branches(phi, rho, elements, corrections))
    success = sum(r.probability for r in records if r.success)
    assert abs(success - pr.conclusive_success_probability(s)) <= TOL
    assert all(r.fidelity > 1 - TOL for r in records if r.success)


@settings(max_examples=60, deadline=None)
@given(phi=qubits(), p=mixing, n=st.sampled_from([1, 2, 4, 16, 256]))
def test_standard_over_filtered_mixture(phi, p, n):
    table = pr.correction_table("psi-")
    filtered, _ = pr.bilocal_filter(mixed_resource(p), pr.FilterParams.from_n(n))
    for rho in (mixed_resource(p), filtered):
        assert_matches(pr.standard_teleport(phi, rho),
                       dense_branches(phi, rho.matrix, bell_elements(),
                                      [table[lbl] for lbl in BELL_LABELS]))


def dense_entanglement_fidelity(rho):
    """The teleportation channel applied to half of |phi+>, term by term."""
    table = pr.correction_table("psi-")
    phi_plus = bell_state("phi+").amplitudes
    out = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            e_ij = np.zeros((2, 2), dtype=complex)
            e_ij[i, j] = 1.0
            full = kron(e_ij, rho.matrix)
            channel = np.zeros((2, 2), dtype=complex)
            for lbl, proj in zip(BELL_LABELS, bell_elements()):
                op = kron(proj, np.eye(2))
                u = table[lbl]
                channel += u @ partial_trace(op @ full @ op, (4, 2), trace_out="A") @ u.conj().T
            out += 0.5 * kron(channel, e_ij)
    return float(np.vdot(phi_plus, out @ phi_plus).real)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_entanglement_fidelity_is_singlet_fraction(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    assert abs(pr.teleport_entanglement_fidelity(rho) - dense_entanglement_fidelity(rho)) <= TOL


def loop_monte_carlo(s, trials, seed, blocks=200):
    """Per-trial reference for the conclusive sampler: same draws, one
    record lookup per sampled outcome."""
    blocks = min(blocks, trials)
    sizes = [trials // blocks + (1 if i < trials % blocks else 0) for i in range(blocks)]
    successes = wrong = 0
    min_fid = 1.0
    for b, size in enumerate(sizes):
        rng = pr.trial_rng(seed, b)
        records = pr.conclusive_teleport(haar_random_qubit(rng), s)
        cum = np.cumsum([r.probability for r in records])
        idx = np.searchsorted(cum, rng.random(size) * cum[-1], side="right")
        for k in np.minimum(idx, len(records) - 1):
            r = records[k]
            if r.success:
                successes += 1
                min_fid = min(min_fid, r.fidelity)
                if r.fidelity < 1.0 - 1e-10:
                    wrong += 1
    return successes, wrong, min_fid


@pytest.mark.parametrize(
    "a2, trials, seed",
    [(0.8, 3000, 7), (0.5, 1000, 3), (0.75, 999, 11), (1.0, 500, 2), (0.62, 57, 5)],
)
def test_vectorized_sampler_equals_per_trial_loop(a2, trials, seed):
    s = SchmidtPair.from_a_squared(a2)
    mc = pr.conclusive_monte_carlo(s, trials, seed)
    assert (mc.successes, mc.wrong_outcomes, mc.min_conclusive_fidelity) == loop_monte_carlo(
        s, trials, seed
    )

