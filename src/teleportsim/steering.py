"""Steering: remote preparation of state ensembles.

A measurement on Alice's half of a shared pure state selects which ensemble
realizes Bob's (unchanged) reduced density matrix.  Branch order always
follows POVM element order; an impossible branch has probability zero and
a zero vector (``None`` in ``branches``), so indices stay aligned.
"""

from __future__ import annotations

from collections import namedtuple
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
    schmidt_amplitudes,
)

RANK_ONE_SLACK = 1e-8
"""Largest entry of rho - b b^dag that ``steer`` accepts as pure, where b is
the column of the conditional state rho at its largest diagonal entry k,
divided by sqrt(rho[k, k])."""


SteeringBranch = namedtuple("SteeringBranch", "label probability bob_state")


@dataclass(frozen=True)
class SteeringResult:
    """Bob's ensemble, one branch per element of Alice's POVM, for one shared
    state or each of a stack: ``probabilities`` (..., branches) and Bob's
    amplitudes ``states`` (..., branches, d), zero in an impossible branch."""

    labels: tuple[str, ...]
    probabilities: np.ndarray
    states: np.ndarray

    @property
    def branches(self) -> tuple[SteeringBranch, ...]:
        """The branches of a single shared state, with ``None`` for Bob's
        state in an impossible branch."""
        return tuple(
            SteeringBranch(label, float(p), PureState(v) if p > 0.0 else None)
            for label, p, v in zip(self.labels, self.probabilities, self.states)
        )

    def realized_density(self) -> np.ndarray:
        """sum_i p_i |bob_i><bob_i|, per shared state of the stack."""
        v = self.states
        weighted = self.probabilities[..., None, None] * (v[..., :, None] * v[..., None, :].conj())
        return weighted.sum(axis=-3)


def steer(shared: PureState | np.ndarray, alice_povm: Povm) -> SteeringResult:
    """Ensemble created on Bob's side by Alice measuring her half.

    ``shared`` is one state, or a stack of normalized amplitudes (..., d).
    Branch i occurs with probability Tr[(A_i (x) I) |psi><psi|]; Bob's
    conditional state is pure for rank-one elements, so its amplitudes are
    read off one column of it, without an eigensolver, and returned with a
    canonical phase (first amplitude above ``ATOL`` real positive).  The
    weighted branch projectors always reassemble Bob's reduced density
    matrix.  Every step is an array operation over the whole stack; none
    calls BLAS.
    """
    amps = shared.amplitudes if isinstance(shared, PureState) else shared
    d_a, dim = alice_povm.dim, amps.shape[-1]
    if dim % d_a != 0 or dim // d_a < 2:
        raise ValueError(f"shared dimension {dim} is not bipartite with Alice dimension {d_a}")
    psi = amps.reshape(-1, d_a, dim // d_a)  # psi[s, i, j]: Alice index i, Bob index j
    # unnorms[s, l] = Tr_A[(A_l (x) I) |psi_s><psi_s|]
    unnorms = np.einsum("sib,lki,skc->slbc", psi, alice_povm.elements, psi.conj())
    prob = np.trace(unnorms, axis1=-2, axis2=-1).real
    possible = prob >= PROB_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):  # impossible branches are masked
        rho = unnorms / prob[..., None, None]
        diag = np.diagonal(rho, axis1=-2, axis2=-1).real
        k = np.argmax(diag, axis=-1)[..., None]
        col = np.take_along_axis(rho, k[..., None, :], axis=-1)[..., 0]  # rho[:, k]
        b = col / np.sqrt(np.take_along_axis(diag, k, axis=-1))  # rho = b b^dag when pure
        if np.any(possible & (max_abs(rho - b[..., :, None] * b[..., None, :].conj(),
                                      axis=(-2, -1)) > RANK_ONE_SLACK)):
            raise ValueError("POVM element of rank > 1 leaves Bob in a mixed conditional state")
        norm = np.sqrt((b.real * b.real).sum(axis=-1) + (b.imag * b.imag).sum(axis=-1))
        bob = canonical_phase(b / norm[..., None])
    shape = (*amps.shape[:-1], len(alice_povm))
    return SteeringResult(
        alice_povm.labels,
        np.where(possible, prob, 0.0).reshape(shape),
        np.where(possible[..., None], bob, 0.0).reshape(*shape, -1),
    )


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
    """Two-branch steering of a|00> + b|11> into a nonorthogonal signal pair,
    for one Schmidt pair or a stack of them.

    With the default diagonal-basis measurement the branches occur with
    probability 1/2 each and Bob holds (a, b) or (a, -b), whose mutual
    overlap is a^2 - b^2.  The rectilinear basis is exposed as the
    alternative reading; it yields the orthogonal pair |0>, |1> with
    probabilities a^2 and b^2 instead.
    """
    if basis not in _B92_BASES:
        raise ValueError(f"basis must be 'diagonal' or 'rectilinear', got {basis!r}")
    return steer(schmidt_amplitudes(s), _B92_BASES[basis])
