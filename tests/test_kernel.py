"""The batched transfer-map kernel against independent references.

Every protocol is recomputed here the long way: the 8x8 joint density
matrix, Alice's Kraus operator kron(sqrt(A), I) on particles (1, 2), a
partial trace down to Bob and his correction.  The uncorrected branches
over a random pure resource are also recomputed as steering.  The sampler is checked
against a per-block loop over the same records and generator, and against
the binomial law of its success count.  The exact Haar averages read from
the maps are checked against the six Pauli eigenstates and the dense channel.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teleportsim import cli
from teleportsim import protocols as pr
from teleportsim.linalg import kron, max_abs, partial_trace
from teleportsim.povm import Povm, discrimination_povm
from teleportsim.states import (
    BELL_LABELS,
    DensityMatrix,
    PureState,
    SchmidtPair,
    bell_state,
    haar_random_state,
    mixed_resource,
    partially_entangled,
)
from teleportsim.steering import steer

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


def sqrt_psd(a):
    """Positive square root of a PSD element, the Kraus operator realizing it."""
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


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


@settings(max_examples=60, deadline=None)
@given(
    phi=qubits(),
    p=st.floats(1e-3, 1 - 1e-3),
    n=st.floats(0.0, np.log10(pr.MAX_FILTER_INDEX)).map(
        lambda e: min(10.0**e, pr.MAX_FILTER_INDEX)
    ),
)
@example(phi=PureState(np.array([0.6, 0.8j])), p=0.5, n=1e17)
@example(phi=PureState(np.array([0.6, 0.8j])), p=0.01, n=float(pr.MAX_FILTER_INDEX))
def test_filtered_maps_match_dense_filter(phi, p, n):
    # the entrywise-scaled resource in the kernel against kron(V, V) rho
    # kron(V, V)^dag and the 8x8 reference; branches given that the filter passed
    fp = pr.FilterParams.from_n(n)
    maps, prob = pr.filtered_teleport_maps(p, fp)
    filtered, dense_prob = pr.bilocal_filter(mixed_resource(p), fp)
    assert abs(prob - dense_prob) <= 1e-12 * dense_prob
    table = pr.correction_table("psi-")
    assert_matches(maps.records(phi), dense_branches(phi, filtered.matrix, bell_elements(),
                                                     [table[lbl] for lbl in BELL_LABELS]))


@settings(max_examples=100, deadline=None)
@given(phi=qubits(), seed=st.integers(0, 2**32 - 1))
def test_teleportation_is_steering(phi, seed):
    # The paper's thesis: branch l of the Bell measurement over any pure
    # resource R, uncorrected, is Alice steering R with the element
    # <phi|_1 P_l |phi>_1 on particle 2.
    resource = haar_random_state(4, np.random.default_rng(seed))
    maps = pr.teleport_maps(resource, {lbl: np.eye(2) for lbl in BELL_LABELS})
    v = phi.amplitudes
    elements = [np.einsum("b,byaz,a->yz", v.conj(), p.reshape(2, 2, 2, 2), v)
                for p in bell_elements()]
    result = steer(resource, Povm(tuple(elements), BELL_LABELS))
    bob_unnormalized = (maps.maps @ np.outer(v, v.conj()).reshape(4)).reshape(-1, 2, 2)
    for branch, rho in zip(result.branches, bob_unnormalized):
        assert abs(branch.probability - np.trace(rho).real) <= TOL
        bob = np.zeros(2) if branch.bob_state is None else branch.bob_state.amplitudes
        assert max_abs(branch.probability * np.outer(bob, bob.conj()) - rho) <= TOL


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


def random_density_matrix(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)


# The six Pauli eigenstates form a 3-design: their mean of any polynomial of
# degree (2, 2) in (phi, conj(phi)) is its Haar average.
PAULI_EIGENSTATES = np.array(
    [[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j]], dtype=complex
) / np.sqrt([1, 1, 2, 2, 2, 2])[:, None]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_entanglement_fidelity_is_singlet_fraction(seed):
    rho = random_density_matrix(seed)
    entanglement = pr.teleport_maps(rho).haar_averages()[0]
    assert abs(entanglement - dense_entanglement_fidelity(rho)) <= TOL
    singlet = bell_state("psi-").amplitudes
    assert abs(entanglement - np.vdot(singlet, rho.matrix @ singlet).real) <= TOL


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_average_fidelity_is_pauli_design_mean(seed):
    maps = pr.teleport_maps(random_density_matrix(seed))
    prob, fid = maps.evaluate(PAULI_EIGENSTATES)
    assert abs(maps.haar_averages()[1] - (prob * fid).sum() / prob.sum()) <= TOL


@settings(max_examples=100, deadline=None)
@given(a2=st.floats(0.5, 0.999))
def test_conclusive_success_is_optimal(a2):
    # 2 b^2 is the largest probability of turning a|00> + b|11> into a
    # maximally entangled state by LOCC (Vidal, PRL 83, 1046 (1999)).  The
    # Procrustean filter diag(b/a, 1) on particle 2 reaches it, leaving
    # b(|00> + |11>); teleporting over that with the phi+ table is perfect.
    # The conclusive protocol must match both.  b^2 >= 1e-3 keeps every
    # branch far above PROB_FLOOR, which dense_branches applies like the kernel.
    s = SchmidtPair.from_a_squared(a2)
    r = kron(np.diag([s.b / s.a, 1.0]), np.eye(2)) @ partially_entangled(s).amplitudes
    table = pr.correction_table("phi+")
    branches = np.array([
        dense_branches(PureState(v), np.outer(r, r.conj()), bell_elements(),
                       [table[lbl] for lbl in BELL_LABELS])
        for v in PAULI_EIGENSTATES
    ])
    prob, fid = branches[..., 0], branches[..., 1]
    assert abs(prob.sum(axis=1).mean() - pr.conclusive_success_probability(s)) <= 1e-14
    assert abs((prob * fid).sum() / prob.sum() - 1.0) <= 1e-14
    entanglement, average = pr.conclusive_maps(s).haar_averages()
    assert abs(entanglement - 1.0) <= 1e-14
    assert abs(average - 1.0) <= 1e-14


def block_monte_carlo(s, trials, seed):
    """Per-block reference for the conclusive sampler on the same generator:
    the Haar inputs normalized one row at a time, one record lookup per
    block and one ``multinomial`` call per block."""
    blocks = min(pr.CONCLUSIVE_BLOCKS, trials)
    sizes = [trials // blocks + (1 if i < trials % blocks else 0) for i in range(blocks)]
    rng = pr.trial_rng(seed, 0)
    v = rng.normal(size=(blocks, 2)) + 1j * rng.normal(size=(blocks, 2))
    successes = wrong = 0
    min_fid = 1.0
    for size, row in zip(sizes, v):
        records = pr.conclusive_teleport(PureState(row / np.linalg.norm(row)), s)
        probs = np.array([r.probability for r in records])
        counts = rng.multinomial(size, probs / probs.sum())
        for r, k in zip(records, counts):
            if r.success and k > 0:
                successes += int(k)
                min_fid = min(min_fid, r.fidelity)
                if r.fidelity < 1.0 - 1e-10:
                    wrong += int(k)
    return successes, wrong, min_fid


@pytest.mark.parametrize(
    "a2, trials, seed",
    [(0.8, 3000, 7), (0.5, 1000, 3), (0.75, 999, 11), (1.0, 500, 2), (0.62, 57, 5)],
)
def test_batched_sampler_equals_per_block_loop(a2, trials, seed):
    s = SchmidtPair.from_a_squared(a2)
    mc = pr.conclusive_monte_carlo(s, trials, seed)
    assert mc.trials == trials
    assert (mc.successes, mc.wrong_outcomes, mc.min_conclusive_fidelity) == block_monte_carlo(
        s, trials, seed
    )


@pytest.mark.parametrize("a2, trials", [(0.75, 2000), (0.9, 777)])
def test_successes_are_binomial_over_seeds(a2, trials):
    # successes ~ Binomial(trials, p) whatever the block inputs, since every
    # input's total success probability is p.  With N seeds the sample mean
    # has standard error sqrt(var / N) and the sample variance about
    # var * sqrt(2 / (N - 1)); both are held to 5 of them.
    seeds = 1500
    s = SchmidtPair.from_a_squared(a2)
    p = pr.conclusive_success_probability(s)
    counts = np.array([pr.conclusive_monte_carlo(s, trials, seed).successes
                       for seed in range(seeds)])
    mean, var = trials * p, trials * p * (1.0 - p)
    assert abs(counts.mean() - mean) <= 5.0 * np.sqrt(var / seeds)
    assert abs(counts.var(ddof=1) - var) <= 5.0 * var * np.sqrt(2.0 / (seeds - 1))


def test_conclusive_row_does_not_depend_on_sweep(capsys):
    argv = ["conclusive", "--trials", "2000", "--seed", "3", "--a2"]
    assert cli.main(argv + ["0.5:1.0:0.25"]) == 0
    sweep = capsys.readouterr().out.splitlines()
    assert len(sweep) == 5
    for a2, row in zip(("0.5", "0.75", "1.0"), sweep[2:]):
        assert cli.main(argv + [a2]) == 0
        assert capsys.readouterr().out.splitlines()[2] == row
