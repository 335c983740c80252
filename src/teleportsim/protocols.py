"""End-to-end teleportation protocols and their closed-form figures of merit.

Particle layout for a three-qubit run: particle 1 carries the unknown input
and is the highest-order factor, particles 2 and 3 are the shared resource
with 3 (Bob) lowest.  Alice's joint measurement on particles (1, 2) enters
only through its POVM elements.  Conclusive teleportation is her local
filter on particle 2, then the Bell measurement.

Every branch of a protocol (one outcome of Alice's measurement on particles
(1, 2), then Bob's recovery rotation) acts on the input as one fixed linear
map, set by the measurement element, the resource and the correction.
``TransferMaps`` holds these maps for all branches and evaluates branch
probabilities and fidelities for a whole batch of inputs at once, or as
one record per branch for a single input.  The maps are linear in the
resource, so a whole sweep of resources is one contraction, and one
resource is a stack of one.

All protocol functions are pure; Monte Carlo helpers take an explicit seed
and draw from counter-based (Philox) generators (``trial_rng``), so results
are independent of execution order.  The CLI's ``teleport`` keys one
generator by (seed, trial index) for each trial.  The conclusive sampler
uses one generator per sweep, keyed by (seed, 0): it draws one Haar input
per block once, then is rewound to its post-Haar state for each Schmidt
pair, whose blocks' outcome counts are one multinomial draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PROB_FLOOR, dagger, kron, readonly
from .states import (
    BELL_LABELS,
    MINUS,
    PLUS,
    DensityMatrix,
    PureState,
    SchmidtPair,
    haar_random_amplitudes,
    mixture_matrix,
    schmidt_amplitudes,
)

MAX_FILTER_INDEX = 2**62
"""Largest filter index.  It keeps n * n finite, and as a power of two it
bounds an integer index and the same index as a float alike."""

WRONG_OUTCOME_DEFECT = 1e-10
"""Fidelity defect above which a sampled conclusive branch is a wrong outcome."""

CONCLUSIVE_BLOCKS = 200
"""Blocks of a conclusive Monte Carlo run; the trials of a block share one
Haar-random input."""

CONCLUSIVE_CHUNK = 16
"""Schmidt pairs whose maps a conclusive Monte Carlo run evaluates per
batch.  A pair's evaluation temporaries take about 77 KB, so the chunk
bounds the memory of a long sweep."""

# The four recovery rotations, in BELL_LABELS order: the one that restores
# the input over the phi+ resource after that Bell outcome.
_ROTATIONS = readonly(np.array([
    [[1, 0], [0, 1]],
    [[-1, 0], [0, 1]],
    [[0, 1], [1, 0]],
    [[0, 1], [-1, 0]],
], dtype=complex))


def correction_table(resource: str = "psi-") -> dict[str, np.ndarray]:
    """Bell outcome -> 2x2 recovery unitary for teleporting over the given
    Bell resource state.

    A Bell index is 2 * parity + sign (parity 1 for psi, sign 1 for minus),
    and the Pauli frames of resource and outcome compose as the XOR of their
    indices (Bennett et al., PRL 70, 1895 (1993)); rotations restore the
    input up to a global sign.
    """
    if resource not in BELL_LABELS:
        raise ValueError(f"unknown resource label {resource!r}; expected one of {BELL_LABELS}")
    r = BELL_LABELS.index(resource)
    return {label: _ROTATIONS[r ^ m] for m, label in enumerate(BELL_LABELS)}


# Parity subspaces of particles (1, 2): even spans (|00>, |11>), odd spans
# (|10>, |01>).  This order gives the states to discriminate the same
# (a, +-b) form in both subspaces.
_PARITY_BASES = np.array([[0, 3], [2, 1]])


def _in_parity_subspaces(elements) -> np.ndarray:
    """The 2x2 stage ``elements`` placed in the even subspace, then the odd
    one: a measurement on particles (1, 2) that checks parity first."""
    out = np.zeros((2, len(elements), 4, 4), dtype=complex)
    for k, basis in enumerate(_PARITY_BASES):
        out[k][:, basis[:, None], basis] = elements
    return out.reshape(-1, 4, 4)


# The Bell measurement is the parity check, then the diagonal basis: its
# projectors come out in BELL_LABELS order.
_BELL_PROJECTORS = readonly(
    _in_parity_subspaces([np.outer(v.amplitudes, v.amplitudes.conj()) for v in (PLUS, MINUS)])
)
_BELL_SUCCESS = readonly(np.ones(4, dtype=bool))
_CONCLUSIVE_SUCCESS = readonly(np.tile([True, True, False], 2))


@dataclass(frozen=True)
class ProtocolRecord:
    """One branch of a protocol run on one input."""

    outcome_label: str
    probability: float
    fidelity: float
    success: bool


@dataclass(frozen=True)
class TransferMaps:
    """All branches of one protocol as linear maps on the input qubit, for
    one resource (``maps`` of shape (branches, 4, 4)) or a stack of them
    (..., branches, 4, 4).

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
    """Bits Alice sends Bob per run: 2 for a Bell outcome, 3 for a conclusive one."""

    def evaluate(self, phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Branch probabilities and fidelities, each of shape (inputs, ...,
        branches), for normalized input amplitudes of shape (inputs, 2)."""
        x = (phis[:, :, None] * phis[:, None, :].conj()).reshape(-1, 4)
        out = np.einsum("lij,nj->nli", self.maps.reshape(-1, 4, 4), x)
        prob = out[:, :, 0].real + out[:, :, 3].real
        overlap = np.einsum("nj,nlj->nl", x.conj(), out).real
        occurs = prob >= PROB_FLOOR
        prob = np.where(occurs, prob, 0.0)
        fid = np.divide(overlap, prob, out=np.zeros_like(prob), where=occurs)
        shape = (len(x), *self.maps.shape[:-2])
        return prob.reshape(shape), fid.reshape(shape)

    def records(self, phi: PureState) -> list[ProtocolRecord]:
        """One record per branch for a single input."""
        if phi.dim != 2:
            raise ValueError("input state must be a single qubit")
        prob, fid = self.evaluate(phi.amplitudes[None, :])
        return [
            ProtocolRecord(label, float(p), float(f), bool(ok and p > 0.0))
            for label, p, f, ok in zip(self.labels, prob[0], fid[0], self.success)
        ]

    def haar_averages(self) -> tuple[np.ndarray, np.ndarray]:
        """Entanglement fidelity and average fidelity over Haar-random pure
        inputs, both given success, read exactly from the success maps S_l;
        one value per resource of the stack.
        As E[(phi phi^dag)^(x2)] = (I + SWAP) / 6, the Haar mean of
        <phi|E_l(phi phi^dag)|phi> is (Tr S_l + Tr E_l(I)) / 6 and that of the
        branch probability Tr E_l(I) / 2; half of |phi+> gives Tr S_l / 4."""
        s = self.maps[..., self.success, :, :]
        tr_s = np.trace(s, axis1=-2, axis2=-1).real.sum(axis=-1)
        # sum_l Tr E_l(I), one contiguous row per resource: the same sum for any stack
        tr_id = s[..., ::3, ::3].reshape(*s.shape[:-3], -1).sum(axis=-1).real
        return tr_s / (2.0 * tr_id), (tr_s + tr_id) / (3.0 * tr_id)


def _branch_tensor(elements, corrections) -> np.ndarray:
    """The resource-free half of the branch maps for Alice's POVM elements A
    on particles (1, 2) and Bob's correction U per branch,
    T[l, (c, d, a, b), (z, x, y, w)] = U[l, c, x] A[l, (b, y), (a, z)] conj(U[l, d, w]).

    Bob's state depends on Alice's element A alone, not on the Kraus
    operator that realizes it: rho_B = Tr_12[(A (x) I)(phi phi^dag (x) rho_R)],
    corrected to U rho_B U^dag.  As the corrections are signed permutations,
    T holds entries of A up to sign."""
    a = np.asarray(elements).reshape(-1, 2, 2, 2, 2)
    u = np.asarray(corrections)
    return np.einsum("lcx,lbyaz,ldw->lcdabzxyw", u, a, u.conj()).reshape(len(a), 16, 16)


def _transfer_maps(tensor: np.ndarray, resources: np.ndarray) -> np.ndarray:
    """Branch maps of shape (..., branches, 4, 4) for resource density
    matrices rho_R[(z, x), (y, w)] on particles (2, 3) of shape (..., 4, 4):
    one contraction of the branch tensor with the whole stack."""
    r = resources.reshape(-1, 16)
    maps = np.einsum("lij,sj->sli", tensor, r)
    return readonly(maps.reshape(*resources.shape[:-2], len(tensor), 4, 4))


# The Bell measurement's branch tensor in each frame, built once.
_BELL_TENSORS = {
    frame: readonly(_branch_tensor(_BELL_PROJECTORS, list(correction_table(frame).values())))
    for frame in BELL_LABELS
}


def _bell_maps(resources: np.ndarray, frame: str) -> TransferMaps:
    """Bell measurement over each resource density matrix of a stack, then
    the outcome's recovery rotation in Bell frame ``frame``."""
    maps = _transfer_maps(_BELL_TENSORS[frame], resources)
    return TransferMaps(BELL_LABELS, maps, _BELL_SUCCESS, 2)


def teleport_maps(resource: PureState | DensityMatrix, frame: str = "psi-") -> TransferMaps:
    """Bell measurement on particles (1, 2) over a two-qubit resource, pure
    or mixed, then the outcome's recovery rotation in Bell frame ``frame``:
    ``correction_table(frame)``, the singlet's by default."""
    if frame not in _BELL_TENSORS:
        correction_table(frame)  # raises ValueError for an unknown label
    if resource.dim != 4:
        raise ValueError("resource must be a two-qubit state")
    if isinstance(resource, PureState):
        matrix = np.outer(resource.amplitudes, resource.amplitudes.conj())
    else:
        matrix = resource.matrix
    return _bell_maps(matrix, frame)


@dataclass(frozen=True)
class FilterParams:
    """Local filter diag(strength, 1) parameterized by the index n = 1/strength^2."""

    n: float

    def __post_init__(self):
        if not 1.0 <= self.n <= MAX_FILTER_INDEX:
            raise ValueError(f"filter index must lie in [1, {MAX_FILTER_INDEX}], got {self.n!r}")

    @classmethod
    def from_n(cls, n: float) -> "FilterParams":
        return cls(n=float(n))

    @property
    def strength(self) -> float:
        return float(1.0 / np.sqrt(self.n))


def _input_weights(phi: PureState) -> tuple[float, float]:
    alpha, beta = abs(phi.amplitudes[0]), abs(phi.amplitudes[1])
    return alpha * alpha, beta * beta


def _schmidt_resources(s: SchmidtPair) -> np.ndarray:
    """Density matrices of a|00> + b|11>, of shape (..., 4, 4) for a stack."""
    v = schmidt_amplitudes(s)
    return v[..., :, None] * v[..., None, :].conj()


def naive_phi_plus_probability(phi: PureState, s: SchmidtPair):
    """Closed-form probability of the phi+ branch when teleporting over
    a|00> + b|11> with a plain Bell measurement; an array for a stack of
    pairs.  Squares are products, so no libm ``pow`` rounds them."""
    aa, bb = _input_weights(phi)
    return (aa * (s.a * s.a) + bb * (s.b * s.b)) / 2.0


def naive_phi_plus_fidelity(phi: PureState, s: SchmidtPair):
    """Closed-form output fidelity of the phi+ branch of the same protocol;
    0 when the branch is impossible (probability below PROB_FLOOR), as in
    ``TransferMaps.evaluate``."""
    aa, bb = _input_weights(phi)
    weight = np.asarray(aa * (s.a * s.a) + bb * (s.b * s.b))  # twice the branch probability
    amp = aa * s.a + bb * s.b
    occurs = weight / 2.0 >= PROB_FLOOR
    return np.divide(amp * amp, weight, out=np.zeros_like(weight), where=occurs)[()]


def naive_maps(s: SchmidtPair) -> TransferMaps:
    """Bell measurement over a|00> + b|11> in the phi+ frame, for one
    Schmidt pair or a stack of them."""
    return _bell_maps(_schmidt_resources(s), "phi+")


def conclusive_success_probability(s: SchmidtPair) -> float | np.ndarray:
    """Closed-form success probability 1 - (a^2 - b^2) of the conclusive protocol."""
    return 1.0 - (s.a * s.a - s.b * s.b)  # products, so no libm pow rounds them


# Unit maps of the conclusive branches (see conclusive_maps): the Bell
# measurement over the exact |phi+><phi+|, the bare parity check over |00><00|.
_PARITY_CHECK = _branch_tensor(_in_parity_subspaces([np.eye(2)]), [np.eye(2)] * 2)
_CONCLUSIVE_UNITS = readonly(np.concatenate([
    _transfer_maps(_BELL_TENSORS["phi+"], np.outer([1, 0, 0, 1], [.5, 0, 0, .5])).reshape(2, 2, 4, 4),
    _transfer_maps(_PARITY_CHECK, np.diag([1.0, 0, 0, 0]))[:, None]], axis=1).reshape(6, 4, 4))
_CONCLUSIVE_LABELS = tuple(f"{parity}:{outcome}" for parity in ("even", "odd")
                           for outcome in ("conclusive+", "conclusive-", "inconclusive"))


def conclusive_maps(s: SchmidtPair) -> TransferMaps:
    """Branch maps of the conclusive protocol over a|00> + b|11>, for one
    Schmidt pair or a stack: Alice's filter diag(b/a, 1) on particle 2
    leaves sqrt(2) b |phi+>, teleported in the phi+ frame, and its failure
    sqrt(a^2 - b^2) |00>, split by the parity check with no correction
    (Bennett, Bernstein, Popescu & Schumacher, PRA 53, 2046 (1996)).  This
    is the paper's discrimination of (a, b) vs (a, -b) in each subspace."""
    conclusive, failure = 2.0 * (s.b * s.b), s.a * s.a - s.b * s.b  # products, not libm pow
    w = np.where(_CONCLUSIVE_SUCCESS, np.asarray(conclusive)[..., None],
                 np.asarray(failure)[..., None])
    return TransferMaps(_CONCLUSIVE_LABELS, readonly(w[..., None, None] * _CONCLUSIVE_UNITS),
                        _CONCLUSIVE_SUCCESS, 3)


def p_prime_after_filter(p: float | np.ndarray, n: float) -> float | np.ndarray:
    """Closed-form singlet fraction after a successful bilocal filter."""
    return 1.0 / (1.0 + (1.0 - p) / (n * p))


def filter_success_probability(p: float | np.ndarray, n: float) -> float | np.ndarray:
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
    if not prob > 0.0:
        raise ValueError("filter success probability vanished")
    return DensityMatrix(unnorm / prob), prob


def filtered_teleport_maps(p, fp: FilterParams) -> tuple[TransferMaps, float | np.ndarray]:
    """``bilocal_filter`` then ``teleport_maps`` over the singlet/|00> mixture:
    the maps given that the filter passed, and its success probability; for
    an array of p, a stack of maps and an array of probabilities.  V (x) V
    is diagonal, so the filter scales the resource entrywise."""
    s = fp.strength
    w = np.array([s * s, s, s, 1.0])  # the diagonal of V (x) V
    unnorm = mixture_matrix(p) * np.multiply.outer(w, w)
    prob = np.trace(unnorm, axis1=-2, axis2=-1).real
    maps = _bell_maps(unnorm / prob[..., None, None], "psi-")
    return maps, prob[()]


def max_teleport_fidelity(f: float | np.ndarray) -> float | np.ndarray:
    """Best average teleportation fidelity (2F + 1) / 3 attainable from a
    resource with singlet fraction F, or from each of an array of them."""
    if not np.logical_and(0.0 <= f, f <= 1.0).all():  # a nan fails both comparisons
        raise ValueError(f"singlet fraction must lie in [0, 1], got {f!r}")
    return (2.0 * f + 1.0) / 3.0


def required_filter_index(p: float | np.ndarray, epsilon: float) -> int | np.ndarray:
    """Smallest integer n whose filtered singlet fraction pushes the average
    teleportation fidelity bound (2F + 1)/3 above 1 - epsilon: an int for
    one p, an int64 array for an array of p.

    Every point starts at n = max(1, ceil(n_real)) of the closed form, and
    n stands where it meets the target and n - 1 does not.  Elsewhere
    rounding moved the least n (on tiny epsilon by many steps), and a
    scalar search finds it: a bracket widened with doubling steps, then
    bisection."""
    ps = np.asarray(p, dtype=float)
    if not np.logical_and(0.0 < ps, ps < 1.0).all():  # a nan fails both comparisons
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    too_far = f"epsilon={epsilon!r} requires a filter index beyond {MAX_FILTER_INDEX}"
    f_req = 1.0 - 1.5 * epsilon
    if 1.0 - epsilon >= 1.0:  # the target rounds to 1, which no finite n reaches
        raise ValueError(too_far)
    with np.errstate(over="ignore"):  # a tiny p overflows to inf, rejected below
        n_real = f_req * (1.0 - ps) / ps / (1.0 - f_req)  # p * (1 - f_req) may underflow to 0
    if not (np.isfinite(n_real) & (n_real <= MAX_FILTER_INDEX)).all():
        raise ValueError(too_far)

    def meets(x, k):
        return max_teleport_fidelity(p_prime_after_filter(x, k)) >= 1.0 - epsilon

    n = np.array(np.maximum(np.ceil(n_real), 1.0), dtype=np.int64)  # 0-d for one p
    with np.errstate(divide="ignore"):  # p_prime is 0 at n - 1 = 0
        least = meets(ps, n) & ~meets(ps, n - 1)
    # meets() is monotone in n: widen a bracket (lo fails, hi meets) around
    # each point's n, then bisect
    for i in np.flatnonzero(~least):
        p_i, hi = float(ps.flat[i]), int(n.flat[i])
        lo, step = hi - 1, 1
        while not meets(p_i, hi):
            if hi >= MAX_FILTER_INDEX:
                raise ValueError(too_far)
            lo, hi, step = hi, min(hi + step, MAX_FILTER_INDEX), 2 * step
        while lo >= 1 and meets(p_i, lo):
            lo, hi, step = max(lo - step, 0), lo, 2 * step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if meets(p_i, mid) else (mid, hi)
        n.flat[i] = hi
    return n if n.ndim else n.item()


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, index); deterministic and
    safe to evaluate in any order."""
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class ConclusiveMonteCarlo:
    """Sampled conclusive-protocol figures: scalars for one Schmidt pair,
    arrays of the pairs' shape for a stack."""

    trials: int
    successes: int | np.ndarray
    wrong_outcomes: int | np.ndarray
    empirical_rate: float | np.ndarray
    min_conclusive_fidelity: float | np.ndarray


def conclusive_monte_carlo(s: SchmidtPair, trials: int, seed: int) -> ConclusiveMonteCarlo:
    """Sample the conclusive protocol ``trials`` times over each Schmidt
    pair of ``s``, one pair or a stack (a sweep).

    The trials fall into ``CONCLUSIVE_BLOCKS`` blocks of near-equal size
    (fewer when there are fewer trials), each with one Haar-random input.
    One generator, ``trial_rng(seed, 0)``, draws all block inputs in one
    batch, shared by every pair.  Each pair's outcome counts are then one
    multinomial draw over all blocks' normalized branch probabilities, from
    the generator rewound to its state right after the Haar draw, so a
    pair's figures are bitwise those of the same call on that pair alone.
    The maps of ``CONCLUSIVE_CHUNK`` pairs are evaluated at a time.  Cost
    and memory grow with the blocks and the pairs, not with ``trials``.
    A wrong outcome is a sampled conclusive branch whose post-correction
    fidelity falls below 1 - WRONG_OUTCOME_DEFECT.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    blocks = min(CONCLUSIVE_BLOCKS, trials)
    sizes = np.full(blocks, trials // blocks)
    sizes[: trials % blocks] += 1
    rng = trial_rng(seed, 0)
    phis = haar_random_amplitudes(2, rng, (blocks,))
    pairs = np.size(s.a)
    after_haar = rng.bit_generator.state if pairs > 1 else None
    successes, wrong = np.empty(pairs, dtype=np.int64), np.empty(pairs, dtype=np.int64)
    min_fid = np.empty(pairs)
    for lo in range(0, pairs, CONCLUSIVE_CHUNK):
        chunk = slice(lo, lo + CONCLUSIVE_CHUNK)
        maps = conclusive_maps(s if pairs <= CONCLUSIVE_CHUNK
                               else SchmidtPair(np.ravel(s.a)[chunk], np.ravel(s.b)[chunk]))
        # pair-major, (pairs, blocks, branches), as is every array below
        probs, fids = (v.reshape(blocks, -1, len(maps.labels)).swapaxes(0, 1)
                       for v in maps.evaluate(phis))
        counts = []
        for pvals in probs / probs.sum(axis=-1, keepdims=True):
            if after_haar is not None:  # every pair draws from the post-Haar state
                rng.bit_generator.state = after_haar
            counts.append(rng.multinomial(sizes, pvals))
        counts = np.array(counts)
        hit = maps.success & (counts > 0)
        sampled = np.where(hit, fids, 1.0)  # the fidelity of each sampled success branch
        successes[chunk] = np.where(hit, counts, 0).sum(axis=(1, 2))
        wrong[chunk] = np.where(sampled < 1.0 - WRONG_OUTCOME_DEFECT, counts, 0).sum(axis=(1, 2))
        min_fid[chunk] = sampled.min(axis=(1, 2))
    figures = successes, wrong, successes / trials, min_fid
    shape = np.shape(s.a)
    # one pair gives Python scalars, a stack arrays of its shape
    return ConclusiveMonteCarlo(trials, *(f.reshape(shape) if shape else f.item() for f in figures))
