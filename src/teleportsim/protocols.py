"""End-to-end teleportation protocols and their closed-form figures of merit.

Particle layout for a three-qubit run: particle 1 carries the unknown input
and is the highest-order factor, particles 2 and 3 are the shared resource
with 3 (Bob) lowest.  A joint measurement on particles (1, 2) therefore acts
as ``kron(M, I_2)`` on the 8-dimensional state.

Every branch of a protocol (one outcome of Alice's measurement on particles
(1, 2), then Bob's recovery rotation) acts on the input as one fixed linear
map, set by the measurement element, the resource and the correction.
``TransferMaps`` holds these maps for all branches and evaluates branch
probabilities and fidelities for a whole batch of inputs at once; the
per-input protocol functions are views over it.

All protocol functions are pure; Monte Carlo helpers take an explicit seed
and derive per-block generators from a counter-based (Philox) stream keyed
by (seed, block index), so results are independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .linalg import dagger, kron, readonly
from .povm import discrimination_povm, is_conclusive_label
from .states import (
    BELL_LABELS,
    DensityMatrix,
    PureState,
    SchmidtPair,
    bell_state,
    fidelity,
    haar_random_amplitudes,
    mixed_resource,
    partially_entangled,
)

MAX_FILTER_INDEX = 2**63 - 1

PROB_FLOOR = 1e-12
"""Branches less likely than this are reported as impossible: probability
and fidelity 0, and never a success."""

_I2 = np.eye(2, dtype=complex)

# The four recovery rotations; every correction table below draws from this set.
_ROT_SWAP_NEG = np.array([[0, 1], [-1, 0]], dtype=complex)
_ROT_SWAP = np.array([[0, 1], [1, 0]], dtype=complex)
_ROT_FLIP = np.array([[-1, 0], [0, 1]], dtype=complex)
_ROT_ID = np.array([[1, 0], [0, 1]], dtype=complex)

# Outcome -> rotation restoring the input, keyed by the Bell state of the
# shared resource.  Rotations restore the input up to a global sign.
_CORRECTIONS = {
    "psi-": {"phi+": _ROT_SWAP_NEG, "phi-": _ROT_SWAP, "psi+": _ROT_FLIP, "psi-": _ROT_ID},
    "phi+": {"phi+": _ROT_ID, "phi-": _ROT_FLIP, "psi+": _ROT_SWAP, "psi-": _ROT_SWAP_NEG},
    "phi-": {"phi+": _ROT_FLIP, "phi-": _ROT_ID, "psi+": _ROT_SWAP_NEG, "psi-": _ROT_SWAP},
    "psi+": {"phi+": _ROT_SWAP, "phi-": _ROT_SWAP_NEG, "psi+": _ROT_ID, "psi-": _ROT_FLIP},
}


def correction_table(resource: str = "psi-") -> dict[str, np.ndarray]:
    """Bell outcome -> 2x2 recovery unitary for teleporting over the given
    Bell resource state."""
    if resource not in _CORRECTIONS:
        raise ValueError(f"unknown resource label {resource!r}; expected one of {BELL_LABELS}")
    return {k: readonly(v.copy()) for k, v in _CORRECTIONS[resource].items()}


def bell_projectors() -> dict[str, np.ndarray]:
    """The four rank-one Bell projectors on two qubits."""
    out = {}
    for label in BELL_LABELS:
        v = bell_state(label).amplitudes
        out[label] = readonly(np.outer(v, v.conj()))
    return out


@dataclass(frozen=True)
class ProtocolRecord:
    """One branch of a protocol run on one input."""

    outcome_label: str
    probability: float
    fidelity: float
    success: bool
    classical_bits: int = 2


@dataclass(frozen=True)
class TransferMaps:
    """All branches of one protocol as linear maps on the input qubit.

    ``maps[l]`` is a 4x4 matrix over flattened 2x2 operators that carries
    the input projector phi phi^dag to Bob's corrected, unnormalized state
    in branch l:

        rho_l[c, d] = sum_ab maps[l, (c, d), (a, b)] phi_a conj(phi_b).

    Its trace is the branch probability and <phi|rho_l|phi> / Tr rho_l the
    fidelity.  A pure resource with a rank-one element gives one 2x2 map
    K_l and maps[l] = K_l (x) conj(K_l); a mixed resource gives a sum of
    such terms, so pure and mixed resources share this one path.
    """

    labels: tuple[str, ...]
    maps: np.ndarray
    success: np.ndarray
    """Per branch: whether the branch is a success when it occurs."""
    classical_bits: int

    def evaluate(self, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Branch probabilities and fidelities, each of shape (inputs,
        branches), for normalized input amplitudes of shape (inputs, 2)."""
        x = (phis[:, :, None] * phis[:, None, :].conj()).reshape(-1, 4)
        out = np.einsum("lij,nj->nli", self.maps, x)
        prob = out[:, :, 0].real + out[:, :, 3].real
        overlap = np.einsum("nj,nlj->nl", x.conj(), out).real
        occurs = prob >= PROB_FLOOR
        prob = np.where(occurs, prob, 0.0)
        fid = np.divide(overlap, prob, out=np.zeros_like(prob), where=occurs)
        return prob, fid

    def records(self, phi: PureState) -> list[ProtocolRecord]:
        """One record per branch for a single input."""
        if phi.dim != 2:
            raise ValueError("input state must be a single qubit")
        prob, fid = self.evaluate(phi.amplitudes[None, :])
        return [
            ProtocolRecord(label, float(p), float(f), bool(ok and p > 0.0), self.classical_bits)
            for label, p, f, ok in zip(self.labels, prob[0], fid[0], self.success)
        ]


def _resource_matrix(resource: PureState | DensityMatrix) -> np.ndarray:
    if isinstance(resource, PureState):
        return np.outer(resource.amplitudes, resource.amplitudes.conj())
    return resource.matrix


def _transfer_maps(elements, resource: np.ndarray, corrections) -> np.ndarray:
    """Branch maps for Alice's POVM elements on particles (1, 2), the
    resource density matrix on (2, 3) and Bob's correction per branch.

    Bob's state depends on Alice's element A alone, not on the Kraus
    operator that realizes it: rho_B = Tr_12[(A (x) I)(phi phi^dag (x) rho_R)],
    corrected to U rho_B U^dag.
    """
    a = np.asarray(elements).reshape(-1, 2, 2, 2, 2)  # A[l, (b, y), (a, z)]
    r = resource.reshape(2, 2, 2, 2)  # rho_R[(z, x), (y, w)]
    u = np.asarray(corrections)  # U[l, c, x]
    maps = np.einsum("lcx,lbyaz,zxyw,ldw->lcdab", u, a, r, u.conj())
    return readonly(maps.reshape(-1, 4, 4))


def teleport_maps(
    resource: PureState | DensityMatrix,
    corrections: Mapping[str, np.ndarray] | None = None,
) -> TransferMaps:
    """Bell measurement on particles (1, 2) over a two-qubit resource, pure
    or mixed, then the outcome's recovery rotation (the singlet table by
    default)."""
    if resource.dim != 4:
        raise ValueError("resource must be a two-qubit state")
    corr = correction_table("psi-") if corrections is None else corrections
    projectors = bell_projectors()
    maps = _transfer_maps(
        [projectors[label] for label in BELL_LABELS],
        _resource_matrix(resource),
        [corr[label] for label in BELL_LABELS],
    )
    return TransferMaps(BELL_LABELS, maps, readonly(np.ones(4, dtype=bool)), 2)


@dataclass(frozen=True)
class FilterParams:
    """Local filter diag(strength, 1) parameterized by the index n = 1/strength^2."""

    n: float
    strength: float

    def __post_init__(self):
        if not (np.isfinite(self.n) and self.n >= 1.0):
            raise ValueError(f"filter index must satisfy n >= 1, got {self.n!r}")
        if not 0.0 < self.strength <= 1.0:
            raise ValueError(f"filter strength must lie in (0, 1], got {self.strength!r}")
        if abs(self.strength**2 - 1.0 / self.n) > 1e-12:
            raise ValueError("strength^2 must equal 1/n within 1e-12")

    @classmethod
    def from_n(cls, n: float) -> "FilterParams":
        return cls(n=float(n), strength=float(1.0 / np.sqrt(n)))

    @classmethod
    def from_strength(cls, strength: float) -> "FilterParams":
        return cls(n=float(1.0 / strength**2), strength=float(strength))


def standard_teleport(
    phi: PureState,
    resource: PureState | DensityMatrix,
    corrections: Mapping[str, np.ndarray] | None = None,
) -> list[ProtocolRecord]:
    """Teleport ``phi`` over a two-qubit resource via a Bell measurement on
    particles (1, 2) followed by the outcome-dependent recovery rotation.

    With the singlet resource every branch occurs with probability 1/4 and
    reaches fidelity one after correction.  A density-matrix resource (used
    after filtering) runs through the same branch maps.
    """
    return teleport_maps(resource, corrections).records(phi)


def naive_phi_plus_probability(phi: PureState, s: SchmidtPair) -> float:
    """Closed-form probability of the phi+ branch when teleporting over
    a|00> + b|11> with a plain Bell measurement."""
    aa, bb = abs(phi.amplitudes[0]) ** 2, abs(phi.amplitudes[1]) ** 2
    return (aa * s.a**2 + bb * s.b**2) / 2.0


def naive_phi_plus_fidelity(phi: PureState, s: SchmidtPair) -> float:
    """Closed-form output fidelity of the phi+ branch of the same protocol."""
    aa, bb = abs(phi.amplitudes[0]) ** 2, abs(phi.amplitudes[1]) ** 2
    return (aa * s.a + bb * s.b) ** 2 / (aa * s.a**2 + bb * s.b**2)


def naive_partial_teleport(phi: PureState, s: SchmidtPair) -> list[ProtocolRecord]:
    """Bell-measurement teleportation over the partially entangled resource
    a|00> + b|11>.  Branch statistics depend on the input and the resource;
    the fidelity reaches one only at a = b."""
    return standard_teleport(phi, partially_entangled(s), corrections=correction_table("phi+"))


# Parity subspaces of particles (1, 2): "even" spans {|00>, |11>}, "odd"
# spans {|01>, |10>}.  Isometry columns fix the subspace coordinate order;
# the odd block is ordered (|10>, |01>) so the states to discriminate take
# the same (a, +-b) form in both blocks.
_EVEN_ISOMETRY = np.zeros((4, 2), dtype=complex)
_EVEN_ISOMETRY[0, 0] = 1.0
_EVEN_ISOMETRY[3, 1] = 1.0
_ODD_ISOMETRY = np.zeros((4, 2), dtype=complex)
_ODD_ISOMETRY[2, 0] = 1.0
_ODD_ISOMETRY[1, 1] = 1.0

_SUBSPACES = (("even", _EVEN_ISOMETRY), ("odd", _ODD_ISOMETRY))


@dataclass(frozen=True)
class StagedBranch:
    subspace: str
    outcome: str
    probability: float
    post_joint: PureState | None


@dataclass(frozen=True)
class TwoStepResult:
    stage_one: tuple[tuple[str, float], ...]
    branches: tuple[StagedBranch, ...]


def two_step_bell(joint: PureState) -> TwoStepResult:
    """Bell measurement on particles (1, 2) split into a parity check
    followed by a projective measurement inside the selected subspace.

    The composed branch statistics are identical to the single-shot Bell
    measurement; the split exists so the second stage can be replaced by a
    discrimination POVM.
    """
    if joint.dim != 8:
        raise ValueError("expected a three-qubit joint state")
    psi = joint.amplitudes
    stage_one = []
    branches = []
    sub_outcomes = {"even": ("phi+", "phi-"), "odd": ("psi+", "psi-")}
    half = np.array([1.0, 1.0]) / np.sqrt(2)
    for name, t in _SUBSPACES:
        proj = kron(t @ dagger(t), _I2)
        stage_vec = proj @ psi
        stage_prob = float(np.vdot(stage_vec, stage_vec).real)
        stage_one.append((name, stage_prob))
        for sign, outcome in zip((1.0, -1.0), sub_outcomes[name]):
            coords = half * np.array([1.0, sign])
            vec12 = t @ coords
            op = kron(np.outer(vec12, vec12.conj()), _I2)
            out_vec = op @ psi
            prob = float(np.vdot(out_vec, out_vec).real)
            post = PureState(out_vec / np.sqrt(prob)) if prob > 1e-12 else None
            branches.append(StagedBranch(name, outcome, prob, post))
    return TwoStepResult(tuple(stage_one), tuple(branches))


def conclusive_success_probability(s: SchmidtPair) -> float:
    """Closed-form success probability 1 - (a^2 - b^2) of the conclusive protocol."""
    return 1.0 - (s.a**2 - s.b**2)


# Recovery rotation per (subspace, discrimination outcome); all entries are
# members of the standard four-rotation set.
_CONCLUSIVE_CORRECTIONS = {
    ("even", "conclusive+"): _ROT_ID,
    ("even", "conclusive-"): _ROT_FLIP,
    ("odd", "conclusive+"): _ROT_SWAP,
    ("odd", "conclusive-"): _ROT_SWAP_NEG,
}


def conclusive_maps(s: SchmidtPair) -> TransferMaps:
    """Branch maps of the conclusive protocol over a|00> + b|11>: inside
    each parity subspace of particles (1, 2), the unambiguous
    discrimination POVM for (a, b) vs (a, -b).  Inconclusive branches get
    no correction."""
    disc = discrimination_povm(s)
    labels, elements, corrections, success = [], [], [], []
    for name, t in _SUBSPACES:
        for label, a in zip(disc.labels, disc.elements):
            labels.append(f"{name}:{label}")
            elements.append(t @ a @ dagger(t))
            corrections.append(_CONCLUSIVE_CORRECTIONS.get((name, label), _ROT_ID))
            success.append(is_conclusive_label(label))
    maps = _transfer_maps(elements, _resource_matrix(partially_entangled(s)), corrections)
    return TransferMaps(tuple(labels), maps, readonly(np.array(success)), 3)


def conclusive_teleport(phi: PureState, s: SchmidtPair) -> list[ProtocolRecord]:
    """Teleportation over a|00> + b|11> that is perfect whenever it succeeds.

    The Bell measurement's second stage is replaced inside each parity
    subspace by the unambiguous discrimination POVM for (a, b) vs (a, -b).
    Conclusive branches deliver the input exactly after the recovery
    rotation; inconclusive branches are flagged unsuccessful and report the
    fidelity of Bob's uncorrected state.  The total success probability is
    1 - (a^2 - b^2), independent of the input.
    """
    return conclusive_maps(s).records(phi)


def p_prime_after_filter(p: float, n: float) -> float:
    """Closed-form singlet fraction after a successful bilocal filter."""
    return 1.0 / (1.0 + (1.0 - p) / (n * p))


def filter_success_probability(p: float, n: float) -> float:
    """Closed-form probability that both local filters succeed."""
    return (1.0 + (n - 1.0) * p) / (n * n)


def bilocal_filter(rho: DensityMatrix, fp: FilterParams) -> tuple[DensityMatrix, float]:
    """Apply diag(strength, 1) locally on both sides and renormalize.

    Returns (post state, success probability).  On the singlet/|00> mixture
    with parameter p the output is the same mixture with parameter
    1 / (1 + (1-p)/(n p)) and the success probability is (1 + (n-1) p) / n^2.
    """
    if rho.dim != 4:
        raise ValueError("bilocal filter expects a two-qubit state")
    v = np.diag([fp.strength, 1.0]).astype(complex)
    k = kron(v, v)
    unnorm = k @ rho.matrix @ dagger(k)
    prob = float(np.trace(unnorm).real)
    if prob < 1e-15:
        raise ValueError("filter success probability vanished")
    return DensityMatrix(unnorm / prob), prob


def max_teleport_fidelity(f: float) -> float:
    """Best average teleportation fidelity (2F + 1) / 3 attainable from a
    resource with singlet fraction F."""
    if not -1e-12 <= f <= 1.0 + 1e-12:
        raise ValueError(f"singlet fraction must lie in [0, 1], got {f!r}")
    return (2.0 * f + 1.0) / 3.0


def teleport_entanglement_fidelity(resource: DensityMatrix) -> float:
    """Entanglement fidelity of standard teleportation (singlet correction
    table) over the given resource.  It equals the resource's singlet
    fraction <psi-|rho|psi-> (Horodecki, Horodecki & Horodecki, PRA 60,
    1888 (1999))."""
    return fidelity(bell_state("psi-"), resource)


def teleport_average_fidelity(resource: DensityMatrix) -> float:
    """Average fidelity of standard teleportation over the resource, uniform
    over pure inputs: (2 F_e + 1) / 3 with F_e the entanglement fidelity."""
    return max_teleport_fidelity(teleport_entanglement_fidelity(resource))


def required_filter_index(p: float, epsilon: float) -> int:
    """Smallest integer n whose filtered singlet fraction pushes the average
    teleportation fidelity bound (2F + 1)/3 above 1 - epsilon."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    f_req = 1.0 - 1.5 * epsilon
    if f_req <= p:
        return 1
    if f_req >= 1.0:  # epsilon below float resolution
        raise ValueError(
            f"epsilon={epsilon!r} requires a filter index beyond {MAX_FILTER_INDEX}"
        )
    n_real = f_req * (1.0 - p) / (p * (1.0 - f_req))
    if not np.isfinite(n_real) or n_real > MAX_FILTER_INDEX:
        raise ValueError(
            f"epsilon={epsilon!r} requires a filter index beyond {MAX_FILTER_INDEX}"
        )
    n = max(1, int(np.ceil(n_real)))
    while p_prime_after_filter(p, n) < f_req:  # guard against ceil rounding
        n += 1
    return n


@dataclass(frozen=True)
class QuasiConclusiveResult:
    filter_params: FilterParams
    n: int
    p_prime: float
    filter_success_prob: float
    average_fidelity: float
    records: tuple[ProtocolRecord, ...]


def quasi_conclusive_teleport(phi: PureState, p: float, epsilon: float) -> QuasiConclusiveResult:
    """Filtered teleportation over the singlet/|00> mixture.

    Picks the minimal filter index n whose post-filter singlet fraction
    yields average fidelity at least 1 - epsilon, applies the bilocal filter
    (two-way confirmation assumed free), then teleports over the filtered
    resource.  Higher target fidelity costs success probability: the filter
    success probability decreases toward zero as epsilon shrinks.
    """
    n = required_filter_index(p, epsilon)
    fp = FilterParams.from_n(n)
    post, success = bilocal_filter(mixed_resource(p), fp)
    p_prime = fidelity(bell_state("psi-"), post)
    records = standard_teleport(phi, post)
    return QuasiConclusiveResult(
        filter_params=fp,
        n=n,
        p_prime=p_prime,
        filter_success_prob=success,
        average_fidelity=teleport_average_fidelity(post),
        records=tuple(records),
    )


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, index); deterministic and
    safe to evaluate in any order."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class ConclusiveMonteCarlo:
    trials: int
    successes: int
    wrong_outcomes: int
    empirical_rate: float
    min_conclusive_fidelity: float


def conclusive_monte_carlo(
    s: SchmidtPair, trials: int, seed: int, blocks: int = 200
) -> ConclusiveMonteCarlo:
    """Sample the conclusive protocol ``trials`` times.

    Inputs are drawn Haar-uniformly once per block and evaluated in one
    batch; outcomes are sampled by inverse CDF over the branch
    probabilities, block by block.  A wrong outcome is a sampled conclusive
    branch whose post-correction fidelity falls below 1 - 1e-10.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    blocks = min(blocks, trials)
    sizes = [trials // blocks + (1 if i < trials % blocks else 0) for i in range(blocks)]
    maps = conclusive_maps(s)
    rngs = [trial_rng(seed, b) for b in range(blocks)]
    probs, fids = maps.evaluate(np.array([haar_random_amplitudes(2, rng) for rng in rngs]))
    last = len(maps.labels) - 1
    successes = 0
    wrong = 0
    min_fid = 1.0
    for rng, size, prob, fid in zip(rngs, sizes, probs, fids):
        cum = np.cumsum(prob)
        idx = np.searchsorted(cum, rng.random(size) * cum[-1], side="right")
        counts = np.bincount(np.minimum(idx, last), minlength=last + 1)
        hit = maps.success & (counts > 0)
        if hit.any():
            successes += int(counts[hit].sum())
            wrong += int(counts[hit & (fid < 1.0 - 1e-10)].sum())
            min_fid = min(min_fid, float(fid[hit].min()))
    return ConclusiveMonteCarlo(
        trials=trials,
        successes=successes,
        wrong_outcomes=wrong,
        empirical_rate=successes / trials,
        min_conclusive_fidelity=min_fid,
    )
