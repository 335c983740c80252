"""The batched transfer-map kernel against independent references.

Every protocol is recomputed here the long way: the 8x8 joint density
matrix, Alice's Kraus operator kron(sqrt(A), I) on particles (1, 2), a
partial trace down to Bob and his correction.  The branches over a
random pure resource, in any Bell frame, are also recomputed as steering
followed by Bob's rotation, and the builders' invariants hold over random
inputs.  The conclusive maps, Alice's filter then the Bell measurement, are
checked against the paper's discrimination construction, and the filter
makes random pure resources teleport perfectly.  The sampler is checked
against a per-block loop over the same records and generator, and against
the binomial law of its success count.
The exact Haar averages read from the maps are checked against the six
Pauli eigenstates and the dense channel.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from teleportsim import cli
from teleportsim import protocols as pr
from teleportsim.linalg import ATOL, kron, max_abs, partial_trace
from teleportsim.povm import (
    Povm,
    completeness_residual,
    discrimination_povm,
    min_eigenvalue,
    teleportation_povm,
)
from teleportsim.states import (
    BELL_LABELS,
    MINUS,
    PLUS,
    DensityMatrix,
    PureState,
    SchmidtPair,
    bell_state,
    haar_random_state,
    mixed_resource,
    partially_entangled,
    schmidt_coeffs,
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
    records = pr.teleport_maps(bell_state(resource), frame=resource).records(phi)
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
    assert_matches(pr.naive_maps(s).records(phi),
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
    records = pr.conclusive_maps(s).records(phi)
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
        assert_matches(pr.teleport_maps(rho).records(phi),
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
@given(phi=qubits(), seed=st.integers(0, 2**32 - 1), frame=st.sampled_from(BELL_LABELS))
def test_teleportation_is_steering(phi, seed, frame):
    # The paper's thesis: branch l of the Bell measurement over any pure
    # resource R is Alice steering R with the element <phi|_1 P_l |phi>_1
    # on particle 2, followed by Bob's rotation U_l of the frame.
    resource = haar_random_state(4, np.random.default_rng(seed))
    maps = pr.teleport_maps(resource, frame=frame)
    table = pr.correction_table(frame)
    v = phi.amplitudes
    elements = [np.einsum("b,byaz,a->yz", v.conj(), p.reshape(2, 2, 2, 2), v)
                for p in bell_elements()]
    result = steer(resource, Povm(tuple(elements), BELL_LABELS))
    bob_corrected = (maps.maps @ np.outer(v, v.conj()).reshape(4)).reshape(-1, 2, 2)
    for branch, rho in zip(result.branches, bob_corrected):
        u = table[branch.label]
        bob = np.zeros(2) if branch.bob_state is None else branch.bob_state.amplitudes
        steered = branch.probability * np.outer(bob, bob.conj())
        assert max_abs(u @ steered @ u.conj().T - rho) <= TOL


@settings(max_examples=100, deadline=None)
@given(
    phi=qubits(),
    frame=st.sampled_from(BELL_LABELS),
    seed=st.integers(0, 2**32 - 1),
    a2=a_squared,
    p=mixing,
    n=st.floats(0.0, 6.0).map(lambda e: 10.0**e),
)
@example(phi=PureState(np.array([0.6, 0.8j])), frame="psi-", seed=0, a2=0.5, p=0.5, n=1.0)
@example(phi=PureState(np.array([0.6, 0.8j])), frame="phi+", seed=1, a2=1.0, p=0.01, n=1e6)
def test_builder_invariants(phi, frame, seed, a2, p, n):
    # every builder's branches sum to 1; the conclusive ones that succeed
    # sum to the closed form and are perfect; every POVM builder is a POVM
    s = SchmidtPair.from_a_squared(a2)
    conclusive = pr.conclusive_maps(s)
    for maps in (
        pr.teleport_maps(haar_random_state(4, np.random.default_rng(seed)), frame=frame),
        pr.naive_maps(s),
        conclusive,
        pr.filtered_teleport_maps(p, pr.FilterParams.from_n(n))[0],
    ):
        prob, _ = maps.evaluate(phi.amplitudes[None])
        assert abs(prob.sum() - 1.0) <= TOL
    prob, fid = (v[0] for v in conclusive.evaluate(phi.amplitudes[None]))
    assert abs(prob[conclusive.success].sum() - pr.conclusive_success_probability(s)) <= TOL
    assert all(fid[conclusive.success & (prob > 0.0)] >= 1.0 - 1e-10)
    for povm in (teleportation_povm(*phi.amplitudes),
                 discrimination_povm(SchmidtPair.from_a_squared(np.array([0.5, a2, 1.0])))):
        assert np.max(completeness_residual(povm.elements)) <= ATOL
        assert np.min(min_eigenvalue(povm.elements)) >= -ATOL


def reference_maps(elements, resource, corrections):
    """The branch maps as one four-operand contraction of element, resource
    and correction, the form the kernel had before it split off the
    resource-free tensor."""
    a = np.asarray(elements).reshape(-1, 2, 2, 2, 2)  # A[l, (b, y), (a, z)]
    r = resource.reshape(2, 2, 2, 2)  # rho_R[(z, x), (y, w)]
    u = np.asarray(corrections)  # U[l, c, x]
    return np.einsum("lcx,lbyaz,zxyw,ldw->lcdab", u, a, r, u.conj()).reshape(-1, 4, 4)


def parity_embedding(stage):
    """A 2x2 stage placed by index in the even subspace (|00>, |11>), then
    in the odd one (|10>, |01>)."""
    out = np.zeros((2, len(stage), 4, 4), dtype=complex)
    for k, basis in enumerate(np.array([[0, 3], [2, 1]])):
        out[k][:, basis[:, None], basis] = stage
    return out.reshape(-1, 4, 4)


BELL_PROJECTORS = parity_embedding(
    [np.outer(v.amplitudes, v.amplitudes.conj()) for v in (PLUS, MINUS)]
)


# Conclusive teleportation as Alice's filter diag(b/a, 1), then the Bell
# measurement: per parity, the Bell maps over the exact |phi+><phi+| (entries
# 0.5, not bell_state("phi+")'s 0.4999999999999999) for the two conclusive
# branches, and the uncorrected parity check over |00><00| for the filter's
# failure.  Weighted by 2 b^2 and a^2 - b^2, these are the conclusive maps.
_BELL_UNITS = reference_maps(BELL_PROJECTORS, np.outer([1, 0, 0, 1], [0.5, 0, 0, 0.5]),
                             [pr.correction_table("phi+")[lbl] for lbl in BELL_LABELS])
_CHECK_UNITS = reference_maps(parity_embedding([np.eye(2)]), np.diag([1.0, 0, 0, 0]),
                              [np.eye(2)] * 2)
CONCLUSIVE_UNITS = np.array([_BELL_UNITS[0], _BELL_UNITS[1], _CHECK_UNITS[0],
                             _BELL_UNITS[2], _BELL_UNITS[3], _CHECK_UNITS[1]])


def assert_bitwise(maps, reference):
    assert maps.shape == reference.shape
    assert maps.tobytes() == reference.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
    a2s=st.lists(a_squared, min_size=1, max_size=6),
    ps=st.lists(mixing, min_size=1, max_size=6),
    n=st.sampled_from([1, 4, 37.3, 1e6]),
)
@example(seeds=[0], a2s=[0.5, 1.0], ps=[0.01, 0.99], n=1e6)
def test_split_kernel_is_bitwise_the_four_operand_contraction(seeds, a2s, ps, n):
    # the resource-free tensor contracted with a stack of resources gives
    # exactly the maps of one four-operand einsum per resource
    for label in BELL_LABELS:
        table = pr.correction_table(label)
        corrections = [table[lbl] for lbl in BELL_LABELS]
        for seed in seeds:
            v = haar_random_state(4, np.random.default_rng(seed)).amplitudes
            assert_bitwise(pr.teleport_maps(PureState(v), frame=label).maps,
                           reference_maps(BELL_PROJECTORS, np.outer(v, v.conj()), corrections))
        for p in ps:
            assert_bitwise(pr.teleport_maps(mixed_resource(p), frame=label).maps,
                           reference_maps(BELL_PROJECTORS, mixed_resource(p).matrix, corrections))
    stack = SchmidtPair.from_a_squared(np.array(a2s))
    phi_plus = pr.correction_table("phi+")
    for a2, maps in zip(a2s, pr.naive_maps(stack).maps):
        s = SchmidtPair.from_a_squared(a2)
        rho = partially_entangled(s).density().matrix
        assert_bitwise(maps, reference_maps(BELL_PROJECTORS, rho,
                                            [phi_plus[lbl] for lbl in BELL_LABELS]))
        conclusive, failure = 2.0 * (s.b * s.b), s.a * s.a - s.b * s.b
        weights = np.array([conclusive, conclusive, failure] * 2)
        assert_bitwise(pr.conclusive_maps(s).maps, weights[:, None, None] * CONCLUSIVE_UNITS)
    fp = pr.FilterParams.from_n(n)
    psi_minus = pr.correction_table("psi-")
    filtered, _ = pr.filtered_teleport_maps(np.array(ps), fp)
    s = fp.strength
    w = np.array([s * s, s, s, 1.0])
    for p, maps in zip(ps, filtered.maps):
        unnorm = mixed_resource(p).matrix * np.multiply.outer(w, w)
        assert_bitwise(maps, reference_maps(BELL_PROJECTORS, unnorm / np.trace(unnorm).real,
                                            [psi_minus[lbl] for lbl in BELL_LABELS]))


@settings(max_examples=60, deadline=None)
@given(a2s=st.lists(a_squared, min_size=1, max_size=8))
@example(a2s=[0.5])
@example(a2s=[1.0])
@example(a2s=[1 - 1e-12])
def test_filter_then_bell_is_the_discrimination_construction(a2s):
    # The paper's construction, the discrimination POVM of (a, b) vs
    # (a, -b) inside each parity subspace with the Bell corrections, and the
    # library's filter-then-Bell reading check each other; a stack of pairs
    # is its scalar calls, bit for bit.
    stack = pr.conclusive_maps(SchmidtPair.from_a_squared(np.array(a2s)))
    for a2, maps in zip(a2s, stack.maps):
        s = SchmidtPair.from_a_squared(a2)
        disc = discrimination_povm(s)
        labels = [(name, label) for name in ("even", "odd") for label in disc.labels]
        reference = reference_maps(parity_embedding(disc.elements),
                                   partially_entangled(s).density().matrix,
                                   [_RECOVERY.get(key, np.eye(2)) for key in labels])
        scalar = pr.conclusive_maps(s)
        assert scalar.labels == stack.labels == tuple(f"{n}:{lbl}" for n, lbl in labels)
        assert max_abs(scalar.maps - reference) <= 1e-15
        assert_bitwise(maps, scalar.maps)


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


@settings(max_examples=60, deadline=None)
@given(phi=qubits(), seed=st.integers(0, 2**32 - 1))
def test_filter_makes_any_pure_resource_teleport(phi, seed):
    # The abstract's "any pure entangled state": write the resource's
    # amplitude matrix as U diag(a, b) Vh.  Alice's filter U diag(b/a, 1) U^dag
    # on particle 2 and Bob's fixed rotation conj(U Vh) on particle 3 leave
    # sqrt(2) b |phi+>, with squared norm the closed form 1 - (a^2 - b^2),
    # and teleporting over it in the phi+ frame is perfect on every branch.
    resource = haar_random_state(4, np.random.default_rng(seed))
    u, (a, b), vh = np.linalg.svd(resource.amplitudes.reshape(2, 2))
    assume(b > 1e-3)
    filtered = kron(u @ np.diag([b / a, 1.0]) @ u.conj().T, (u @ vh).conj()) @ resource.amplitudes
    assert max_abs(filtered - np.sqrt(2) * b * bell_state("phi+").amplitudes) <= TOL
    norm2 = np.vdot(filtered, filtered).real
    assert abs(norm2 - pr.conclusive_success_probability(schmidt_coeffs(resource))) <= TOL
    maps = pr.teleport_maps(PureState(filtered / np.sqrt(norm2)), frame="phi+")
    prob, fid = maps.evaluate(phi.amplitudes[None])
    assert abs(prob.sum() - 1.0) <= TOL
    assert np.all(fid >= 1.0 - TOL)


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
    maps = pr.conclusive_maps(s)
    for size, row in zip(sizes, v):
        records = maps.records(PureState(row / np.linalg.norm(row)))
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


SAMPLER_A2S = np.array([0.8, 0.5, 0.75, 1.0, 0.62])  # the pairs of the per-block reference cases


@pytest.mark.parametrize("trials, seed", [(3000, 7), (1000, 3), (999, 11), (500, 2), (57, 5), (1, 9)])
def test_stacked_sampler_equals_scalar_calls(trials, seed):
    # one call over the stack rewinds its generator for each pair: every
    # field of a pair is bitwise that of the call on the pair alone
    stacked = pr.conclusive_monte_carlo(SchmidtPair.from_a_squared(SAMPLER_A2S), trials, seed)
    assert stacked.trials == trials
    for i, a2 in enumerate(SAMPLER_A2S):
        alone = pr.conclusive_monte_carlo(SchmidtPair.from_a_squared(a2), trials, seed)
        for field, dtype in [("successes", np.int64), ("wrong_outcomes", np.int64),
                             ("empirical_rate", float), ("min_conclusive_fidelity", float)]:
            got = getattr(stacked, field)
            assert got.shape == SAMPLER_A2S.shape and got.dtype == dtype
            assert got[i].tobytes() == np.array(getattr(alone, field), dtype).tobytes(), (a2, field)
    column = pr.conclusive_monte_carlo(SchmidtPair.from_a_squared(SAMPLER_A2S[:, None]), trials, seed)
    assert column.min_conclusive_fidelity.shape == (len(SAMPLER_A2S), 1)
    assert (column.successes[:, 0] == stacked.successes).all()


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
