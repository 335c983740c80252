"""Ensembles and steering: remote preparation of state ensembles.

A measurement on Alice's half of a shared pure state selects which ensemble
realizes Bob's (unchanged) reduced density matrix.  Branch order always
follows POVM element order; impossible branches are kept with probability
zero and a ``None`` placeholder state so indices stay aligned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ATOL, PROB_FLOOR
from .povm import Povm, projective
from .states import (
    MINUS,
    ONE,
    PLUS,
    ZERO,
    DensityMatrix,
    PureState,
    SchmidtPair,
    partially_entangled,
    qubit,
)

NEGATIVE_WEIGHT_SLACK = 1e-12
"""How far below zero an ``Ensemble`` member probability may round."""

RANK_ONE_SLACK = 1e-8
"""Largest 1 - lambda_max of a conditional state that ``steer`` accepts as pure."""


@dataclass(frozen=True)
class Ensemble:
    """Weighted pure states realizing a density matrix."""

    members: tuple[tuple[float, PureState], ...]

    def __post_init__(self):
        members = tuple((float(p), psi) for p, psi in self.members)
        if not members:
            raise ValueError("ensemble needs at least one member")
        if any(p < -NEGATIVE_WEIGHT_SLACK for p, _ in members):
            raise ValueError("ensemble probabilities must be non-negative")
        total = sum(p for p, _ in members)
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"ensemble probabilities sum to {total!r}, expected 1")
        dim = members[0][1].dim
        if any(psi.dim != dim for _, psi in members):
            raise ValueError("ensemble states must share one dimension")
        object.__setattr__(self, "members", members)


def ensemble_density(e: Ensemble) -> DensityMatrix:
    """Density matrix sum_i p_i |psi_i><psi_i| of an ensemble."""
    dim = e.members[0][1].dim
    rho = np.zeros((dim, dim), dtype=complex)
    for p, psi in e.members:
        rho += p * np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(rho)


def canonical_ensemble(name: str, alpha: complex | None = None, beta: complex | None = None) -> Ensemble:
    """The four reference ensembles of the maximally mixed qubit.

    E1: computational basis, probabilities 1/2 each.
    E2: diagonal basis, probabilities 1/2 each.
    E3: union of E1 and E2, probabilities 1/4 each.
    E4: (alpha, beta), (alpha, -beta), (beta, alpha), (beta, -alpha),
        probabilities 1/4 each; requires unit-norm (alpha, beta).
    """
    if name == "E1":
        return Ensemble(((0.5, ZERO), (0.5, ONE)))
    if name == "E2":
        return Ensemble(((0.5, PLUS), (0.5, MINUS)))
    if name == "E3":
        return Ensemble(((0.25, ZERO), (0.25, ONE), (0.25, PLUS), (0.25, MINUS)))
    if name == "E4":
        if alpha is None or beta is None:
            raise ValueError("E4 requires alpha and beta")
        states = (
            qubit(alpha, beta),
            qubit(alpha, -beta),
            qubit(beta, alpha),
            qubit(beta, -alpha),
        )
        return Ensemble(tuple((0.25, s) for s in states))
    raise ValueError(f"unknown ensemble {name!r}; expected E1..E4")


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
    conditional state is pure for rank-one elements and is returned with a
    canonical phase (first nonzero amplitude real positive).  The weighted
    branch projectors always reassemble Bob's reduced density matrix.
    """
    d_a = alice_povm.dim
    if shared.dim % d_a != 0 or shared.dim // d_a < 2:
        raise ValueError(
            f"shared dimension {shared.dim} is not bipartite with Alice dimension {d_a}"
        )
    psi = shared.amplitudes.reshape(d_a, -1)  # psi[i, j]: Alice index i, Bob index j
    branches = []
    for label, element in zip(alice_povm.labels, alice_povm.elements):
        unnorm = psi.T @ element.T @ psi.conj()  # Tr_A[(A (x) I) |psi><psi|]
        prob = float(np.trace(unnorm).real)
        if prob < PROB_FLOOR:
            branches.append(SteeringBranch(label=label, probability=0.0, bob_state=None))
            continue
        rho_b = unnorm / prob
        w, v = np.linalg.eigh((rho_b + rho_b.conj().T) / 2)
        if 1.0 - w[-1] > RANK_ONE_SLACK:
            raise ValueError("POVM element of rank > 1 leaves Bob in a mixed conditional state")
        bob = PureState(v[:, -1] / np.linalg.norm(v[:, -1])).canonical()
        branches.append(SteeringBranch(label=label, probability=prob, bob_state=bob))
    return SteeringResult(tuple(branches))


_B92_BASES = {
    "diagonal": projective((PLUS, MINUS), ("+", "-")),
    "rectilinear": projective((ZERO, ONE), ("0", "1")),
}


def b92_generation(s: SchmidtPair, basis: str = "diagonal") -> SteeringResult:
    """Two-branch steering of a|00> + b|11| into a nonorthogonal signal pair.

    With the default diagonal-basis measurement the branches occur with
    probability 1/2 each and Bob holds (a, b) or (a, -b), whose mutual
    overlap is a^2 - b^2.  The rectilinear basis is exposed as the
    alternative reading; it yields the orthogonal pair |0>, |1> with
    probabilities a^2 and b^2 instead.
    """
    if basis not in _B92_BASES:
        raise ValueError(f"basis must be 'diagonal' or 'rectilinear', got {basis!r}")
    return steer(partially_entangled(s), _B92_BASES[basis])
