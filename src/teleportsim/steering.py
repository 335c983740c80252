"""Steering: remote preparation of state ensembles.

A measurement on Alice's half of a shared pure state selects which ensemble
realizes Bob's (unchanged) reduced density matrix.  Branch order always
follows POVM element order; impossible branches are kept with probability
zero and a ``None`` placeholder state so indices stay aligned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PROB_FLOOR, max_abs
from .povm import Povm, projective, teleportation_povm
from .states import (
    MINUS,
    ONE,
    PLUS,
    ZERO,
    PureState,
    SchmidtPair,
    bell_state,
    canonical_phase,
    partially_entangled,
)

RANK_ONE_SLACK = 1e-8
"""Largest entry of rho - b b^dag that ``steer`` accepts as pure, where b is
the column of the conditional state rho at its largest diagonal entry k,
divided by sqrt(rho[k, k])."""


@dataclass(frozen=True)
class SteeringBranch:
    label: str
    probability: float
    bob_state: PureState | None


@dataclass(frozen=True)
class SteeringResult:
    branches: tuple[SteeringBranch, ...]

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([b.probability for b in self.branches])

    def realized_density(self) -> np.ndarray:
        """sum_i p_i |bob_i><bob_i| over the non-degenerate branches."""
        dim = next(b.bob_state.dim for b in self.branches if b.bob_state is not None)
        rho = np.zeros((dim, dim), dtype=complex)
        for b in self.branches:
            if b.bob_state is not None:
                v = b.bob_state.amplitudes
                rho += b.probability * np.outer(v, v.conj())
        return rho


def steer(shared: PureState, alice_povm: Povm) -> SteeringResult:
    """Ensemble created on Bob's side by Alice measuring her half.

    Branch i occurs with probability Tr[(A_i (x) I) |psi><psi|]; Bob's
    conditional state is pure for rank-one elements, so its amplitudes are
    read off one column of it, without an eigensolver, and returned with a
    canonical phase (first nonzero amplitude real positive).  The weighted
    branch projectors always reassemble Bob's reduced density matrix.
    """
    d_a = alice_povm.dim
    if shared.dim % d_a != 0 or shared.dim // d_a < 2:
        raise ValueError(
            f"shared dimension {shared.dim} is not bipartite with Alice dimension {d_a}"
        )
    psi = shared.amplitudes.reshape(d_a, -1)  # psi[i, j]: Alice index i, Bob index j
    # unnorms[l] = Tr_A[(A_l (x) I) |psi><psi|]
    unnorms = np.einsum("ib,lki,kc->lbc", psi, alice_povm.elements, psi.conj())
    branches = []
    for label, unnorm in zip(alice_povm.labels, unnorms):
        prob = float(np.trace(unnorm).real)
        if prob < PROB_FLOOR:
            branches.append(SteeringBranch(label=label, probability=0.0, bob_state=None))
            continue
        rho_b = unnorm / prob
        k = int(np.argmax(np.diagonal(rho_b).real))
        b = rho_b[:, k] / np.sqrt(rho_b[k, k].real)  # rho_b = b b^dag when pure
        if max_abs(rho_b - np.outer(b, b.conj())) > RANK_ONE_SLACK:
            raise ValueError("POVM element of rank > 1 leaves Bob in a mixed conditional state")
        bob = PureState(canonical_phase(b / np.linalg.norm(b)))
        branches.append(SteeringBranch(label=label, probability=prob, bob_state=bob))
    return SteeringResult(tuple(branches))


_B92_BASES = {
    "diagonal": projective((PLUS, MINUS), ("+", "-")),
    "rectilinear": projective((ZERO, ONE), ("0", "1")),
}

# Alice's measurements that steer the singlet into the reference ensembles
# E1 to E3; E4's depends on its parameters.
_REFERENCE_MEASUREMENTS = {
    "E1": _B92_BASES["rectilinear"],
    "E2": _B92_BASES["diagonal"],
    "E3": Povm(
        tuple(0.5 * e for basis in ("rectilinear", "diagonal") for e in _B92_BASES[basis].elements),
        ("0", "1", "+", "-"),
    ),
}


def canonical_ensemble(
    name: str, alpha: complex | None = None, beta: complex | None = None
) -> SteeringResult:
    """The four reference ensembles of the maximally mixed qubit, each the
    steering of the singlet by one measurement on Alice's half.

    E1: rectilinear basis; Bob holds |1>, |0>, probabilities 1/2 each.
    E2: diagonal basis; Bob holds |->, |+>, probabilities 1/2 each.
    E3: both bases at half weight; the union of E1 and E2, probabilities
        1/4 each.
    E4: ``teleportation_povm(alpha, beta)``; Bob holds (beta, -alpha),
        (alpha, beta), (alpha, -beta), (beta, alpha), probabilities 1/4
        each; requires unit-norm (alpha, beta).
    """
    if name == "E4":
        if alpha is None or beta is None:
            raise ValueError("E4 requires alpha and beta")
        measurement = teleportation_povm(alpha, beta)
    elif name in _REFERENCE_MEASUREMENTS:
        measurement = _REFERENCE_MEASUREMENTS[name]
    else:
        raise ValueError(f"unknown ensemble {name!r}; expected E1..E4")
    return steer(bell_state("psi-"), measurement)


def b92_generation(s: SchmidtPair, basis: str = "diagonal") -> SteeringResult:
    """Two-branch steering of a|00> + b|11> into a nonorthogonal signal pair.

    With the default diagonal-basis measurement the branches occur with
    probability 1/2 each and Bob holds (a, b) or (a, -b), whose mutual
    overlap is a^2 - b^2.  The rectilinear basis is exposed as the
    alternative reading; it yields the orthogonal pair |0>, |1> with
    probabilities a^2 and b^2 instead.
    """
    if basis not in _B92_BASES:
        raise ValueError(f"basis must be 'diagonal' or 'rectilinear', got {basis!r}")
    return steer(partially_entangled(s), _B92_BASES[basis])
