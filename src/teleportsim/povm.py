"""Generalized measurements: POVM validation, builders and dilation.

A POVM is stored as one array of ordered positive operators that sum to the
identity; a stack of POVMs with shared labels is checked as one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    ATOL,
    as_complex_matrix,
    is_psd,
    max_abs,
    readonly,
    smallest_eigenvalue,
)
from .states import DensityMatrix, PureState, SchmidtPair, qubit

CONCLUSIVE_PLUS = "conclusive+"
CONCLUSIVE_MINUS = "conclusive-"
INCONCLUSIVE = "inconclusive"


def completeness_residual(elements) -> float | np.ndarray:
    """Entrywise max-norm of (sum of elements) - identity, for a sequence of
    elements or per POVM of a stack (..., elements, d, d)."""
    mats = np.asarray(elements)
    return max_abs(mats.sum(axis=-3) - np.eye(mats.shape[-1]), axis=(-2, -1))


def min_eigenvalue(elements) -> float | np.ndarray:
    """Smallest eigenvalue across the Hermitian parts of all elements, per
    POVM of a stack."""
    return smallest_eigenvalue(np.asarray(elements)).min(axis=-1)


@dataclass(frozen=True)
class Povm:
    """Ordered positive operators summing to the identity, with unique labels:
    one array (elements, d, d), or (..., elements, d, d) for a stack of POVMs
    that share their labels, each of them checked."""

    elements: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        mats = readonly(as_complex_matrix(self.elements))
        if mats.ndim < 3 or mats.shape[-3] == 0:
            raise ValueError("POVM needs at least one element")
        if mats.shape[-1] != mats.shape[-2]:
            raise ValueError("POVM elements must share one square dimension")
        bad = np.flatnonzero(~is_psd(mats).all(axis=tuple(range(mats.ndim - 3))))
        if bad.size:
            raise ValueError(f"POVM element {bad[0]} is not positive semidefinite")
        res = np.max(completeness_residual(mats))
        if res > ATOL:
            raise ValueError(f"POVM elements do not sum to identity (residual {res:.3e})")
        labels = tuple(self.labels)
        if len(labels) != mats.shape[-3] or len(set(labels)) != len(labels):
            raise ValueError("labels must be unique and match the number of elements")
        object.__setattr__(self, "elements", mats)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.elements.shape[-1]

    def __len__(self) -> int:
        return len(self.labels)


def projective(states: Sequence[PureState], labels: Sequence[str]) -> Povm:
    """Projective POVM |s_i><s_i| onto an orthonormal basis."""
    elems = tuple(np.outer(s.amplitudes, s.amplitudes.conj()) for s in states)
    return Povm(elems, tuple(labels))


def teleportation_povm(alpha: complex, beta: complex) -> Povm:
    """Four-element POVM whose outcome steers a shared singlet onto rotations
    of (alpha, beta).

    Element i corresponds to the Bell outcome ("phi+", "psi-", "psi+", "phi-")[i]
    of the dilated measurement and leaves the remote qubit in
    (beta, -alpha), (alpha, beta), (alpha, -beta), (beta, alpha) respectively.
    """
    alpha, beta = qubit(alpha, beta).amplitudes
    aa = abs(alpha) * abs(alpha)  # products, so no libm pow rounds them
    bb = abs(beta) * abs(beta)
    ba = beta * np.conj(alpha)  # off-diagonal of the first element
    a1 = 0.5 * np.array([[aa, ba], [np.conj(ba), bb]])
    a2 = 0.5 * np.array([[bb, -np.conj(ba)], [-ba, aa]])
    a3 = 0.5 * np.array([[bb, np.conj(ba)], [ba, aa]])
    a4 = 0.5 * np.array([[aa, -ba], [-np.conj(ba), bb]])
    return Povm((a1, a2, a3, a4), ("phi+", "psi-", "psi+", "phi-"))


def discrimination_povm(s: SchmidtPair) -> Povm:
    """Unambiguous discrimination of (a, b) versus (a, -b), a >= b.

    Conclusive outcomes never misidentify the state; the inconclusive outcome
    occurs with probability a^2 - b^2 on an equal mixture.  The conclusive
    elements carry a 1/(2 a^2) normalization so the three operators sum to the
    identity; without it the set is complete only at a^2 = 1/2 while the
    stated success probability 1 - (a^2 - b^2) already presumes completeness.

    At b = 0 the two states coincide; the elements stay a valid POVM whose
    conclusive outcomes have probability zero on both.
    For a stack of pairs it is the stack of their POVMs, checked at once.
    """
    a, b = np.asarray(s.a), np.asarray(s.b)
    v = np.stack([b, a], axis=-1)
    plus = (1.0 / (2.0 * a * a))[..., None, None] * (v[..., :, None] * v[..., None, :])
    inconclusive = np.zeros_like(plus)
    inconclusive[..., 0, 0] = 1.0 - (b * b) / (a * a)
    elements = np.stack([plus, plus * [[1, -1], [-1, 1]], inconclusive], axis=-3)
    return Povm(elements, (CONCLUSIVE_PLUS, CONCLUSIVE_MINUS, INCONCLUSIVE))


def _check_projective_set(projectors: Sequence[np.ndarray]) -> np.ndarray:
    # Povm checks shape, PSD and completeness.  Orthogonality is checked
    # explicitly: as P0 P1 = P0 - P0^2 + P0 (I - P0 - P1), idempotency and
    # completeness within ATOL bound the cross products only to about 2 ATOL.
    mats = Povm(tuple(projectors), tuple(map(str, range(len(projectors))))).elements
    for i, m in enumerate(mats):
        if max_abs(m @ m - m) > ATOL:
            raise ValueError(f"projector {i} is not idempotent")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if max_abs(mats[i] @ mats[j]) > ATOL:
                raise ValueError(f"projectors {i} and {j} are not orthogonal")
    return mats


def induced_povm(projectors: Sequence[np.ndarray], rho_aux: DensityMatrix) -> Povm:
    """POVM on the system alone induced by a projective measurement on
    system (x) ancilla with the ancilla prepared in ``rho_aux``.

    The projectors act on the composite space with the system as the
    high-order factor.  Element-wise the construction contracts the ancilla
    indices of each projector against the ancilla state:

        A[m, n] = sum_{r, s} P[(m, r), (n, s)] * rho_aux[s, r]

    which equals the ancilla partial trace of P (I (x) rho_aux).
    """
    mats = _check_projective_set(projectors)
    d_aux = rho_aux.dim
    d_total = mats.shape[-1]
    if d_total % d_aux != 0:
        raise ValueError(f"projector dimension {d_total} does not factor by ancilla dimension {d_aux}")
    d_sys = d_total // d_aux
    p = mats.reshape(-1, d_sys, d_aux, d_sys, d_aux)
    elems = np.einsum("lmrns,sr->lmn", p, rho_aux.matrix)
    return Povm(elems, tuple(f"P{i}" for i in range(len(elems))))
