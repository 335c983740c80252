"""Generalized measurements: POVM validation, builders and dilation.

A POVM is stored as an ordered list of positive operators that sum to the
identity.
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


def completeness_residual(elements: Sequence[np.ndarray]) -> float:
    """Entrywise max-norm of (sum of elements) - identity."""
    mats = [np.asarray(e) for e in elements]
    return max_abs(sum(mats) - np.eye(mats[0].shape[0]))


def min_eigenvalue(elements: Sequence[np.ndarray]) -> float:
    """Smallest eigenvalue across the Hermitian parts of all elements."""
    return min(smallest_eigenvalue(e) for e in elements)


@dataclass(frozen=True)
class Povm:
    """Ordered positive operators summing to the identity, with unique labels."""

    elements: tuple[np.ndarray, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        mats = tuple(readonly(as_complex_matrix(e)) for e in self.elements)
        if not mats:
            raise ValueError("POVM needs at least one element")
        dim = mats[0].shape[0]
        if any(m.shape != (dim, dim) for m in mats):
            raise ValueError("POVM elements must share one square dimension")
        for i, m in enumerate(mats):
            if not is_psd(m):
                raise ValueError(f"POVM element {i} is not positive semidefinite")
        res = completeness_residual(mats)
        if res > ATOL:
            raise ValueError(f"POVM elements do not sum to identity (residual {res:.3e})")
        labels = tuple(self.labels)
        if len(labels) != len(mats) or len(set(labels)) != len(labels):
            raise ValueError("labels must be unique and match the number of elements")
        object.__setattr__(self, "elements", mats)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)


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
    aa = abs(alpha) ** 2
    bb = abs(beta) ** 2
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
    """
    a, b = s.a, s.b
    q = 1.0 / (2.0 * a * a)
    a1 = q * np.array([[b * b, a * b], [a * b, a * a]], dtype=complex)
    a2 = q * np.array([[b * b, -a * b], [-a * b, a * a]], dtype=complex)
    a3 = np.array([[1.0 - (b * b) / (a * a), 0.0], [0.0, 0.0]], dtype=complex)
    return Povm((a1, a2, a3), (CONCLUSIVE_PLUS, CONCLUSIVE_MINUS, INCONCLUSIVE))


def _check_projective_set(projectors: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    # Povm checks shape, PSD and completeness.  Orthogonality is checked
    # explicitly: it follows from the others only to about sqrt(ATOL).
    mats = Povm(tuple(projectors), tuple(map(str, range(len(projectors))))).elements
    for i, m in enumerate(mats):
        if max_abs(m @ m - m) > ATOL:
            raise ValueError(f"projector {i} is not idempotent")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if max_abs(mats[i] @ mats[j]) > ATOL:
                raise ValueError(f"projectors {i} and {j} are not orthogonal")
    return mats


def induced_povm(
    projectors: Sequence[np.ndarray],
    rho_aux: DensityMatrix,
    labels: Sequence[str] | None = None,
) -> Povm:
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
    d_total = mats[0].shape[0]
    if d_total % d_aux != 0:
        raise ValueError(f"projector dimension {d_total} does not factor by ancilla dimension {d_aux}")
    d_sys = d_total // d_aux
    elems = tuple(
        np.einsum("mrns,sr->mn", p.reshape(d_sys, d_aux, d_sys, d_aux), rho_aux.matrix)
        for p in mats
    )
    if labels is None:
        labels = tuple(f"P{i}" for i in range(len(elems)))
    return Povm(elems, tuple(labels))
