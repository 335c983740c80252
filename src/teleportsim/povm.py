"""Generalized measurements: POVM validation, builders, dilation, sampling.

A POVM is stored as an ordered list of positive operators that sum to the
identity.  Post-measurement states use the canonical Kraus choice
M_i = sqrt(A_i), which is what makes conclusive protocols well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    ATOL,
    as_complex_matrix,
    dagger,
    is_hermitian,
    is_psd,
    max_abs,
    readonly,
    sqrt_psd,
)
from .states import DensityMatrix, PureState, SchmidtPair

CONCLUSIVE_PLUS = "conclusive+"
CONCLUSIVE_MINUS = "conclusive-"
INCONCLUSIVE = "inconclusive"


def completeness_residual(elements: Sequence[np.ndarray]) -> float:
    """Entrywise max-norm of (sum of elements) - identity."""
    mats = [as_complex_matrix(e) for e in elements]
    dim = mats[0].shape[0]
    return max_abs(sum(mats) - np.eye(dim))


def min_eigenvalue(elements: Sequence[np.ndarray]) -> float:
    """Smallest eigenvalue across the Hermitian parts of all elements."""
    vals = []
    for e in elements:
        m = as_complex_matrix(e)
        vals.append(np.linalg.eigvalsh((m + dagger(m)) / 2).min())
    return float(min(vals))


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
            if not is_psd(m, ATOL):
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


@dataclass(frozen=True)
class KrausSet:
    """Measurement operators M_i with sum M_i^dag M_i = I."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(readonly(as_complex_matrix(o)) for o in self.operators)
        if not ops:
            raise ValueError("Kraus set needs at least one operator")
        dim = ops[0].shape[1]
        total = sum(dagger(o) @ o for o in ops)
        res = max_abs(total - np.eye(dim))
        if res > ATOL:
            raise ValueError(f"Kraus operators are not complete (residual {res:.3e})")
        object.__setattr__(self, "operators", ops)


@dataclass(frozen=True)
class MeasurementOutcome:
    index: int
    label: str
    probability: float
    post_state: DensityMatrix | None


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
    alpha = complex(alpha)
    beta = complex(beta)
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > ATOL:
        raise ValueError("parameters must satisfy |alpha|^2 + |beta|^2 = 1")
    aa = abs(alpha) ** 2
    bb = abs(beta) ** 2
    ba = beta * np.conj(alpha)  # off-diagonal of the first element
    a1 = 0.5 * np.array([[aa, ba], [np.conj(ba), bb]])
    a2 = 0.5 * np.array([[bb, -np.conj(ba)], [-ba, aa]])
    a3 = 0.5 * np.array([[bb, np.conj(ba)], [ba, aa]])
    a4 = 0.5 * np.array([[aa, -ba], [-np.conj(ba), bb]])
    return Povm((a1, a2, a3, a4), ("phi+", "psi-", "psi+", "phi-"))


def discrimination_povm(s: SchmidtPair, degenerate_atol: float = 1e-12) -> Povm:
    """Unambiguous discrimination of (a, b) versus (a, -b), a >= b.

    Conclusive outcomes never misidentify the state; the inconclusive outcome
    occurs with probability a^2 - b^2 on an equal mixture.  The conclusive
    elements carry a 1/(2 a^2) normalization so the three operators sum to the
    identity; without it the set is complete only at a^2 = 1/2 while the
    stated success probability 1 - (a^2 - b^2) already presumes completeness.

    For b below ``degenerate_atol`` the two states coincide up to phase and
    cannot be discriminated; a two-element always-inconclusive POVM is
    returned so sweeps over a in [1/sqrt(2), 1] terminate cleanly.
    """
    a, b = s.a, s.b
    if b < degenerate_atol:
        return Povm(
            (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
            (f"{INCONCLUSIVE}_0", f"{INCONCLUSIVE}_1"),
        )
    q = 1.0 / (2.0 * a * a)
    a1 = q * np.array([[b * b, a * b], [a * b, a * a]], dtype=complex)
    a2 = q * np.array([[b * b, -a * b], [-a * b, a * a]], dtype=complex)
    a3 = np.array([[1.0 - (b * b) / (a * a), 0.0], [0.0, 0.0]], dtype=complex)
    return Povm((a1, a2, a3), (CONCLUSIVE_PLUS, CONCLUSIVE_MINUS, INCONCLUSIVE))


def is_conclusive_label(label: str) -> bool:
    return label.startswith("conclusive")


def _check_projective_set(projectors: Sequence[np.ndarray], atol: float = ATOL) -> list[np.ndarray]:
    mats = [as_complex_matrix(p) for p in projectors]
    dim = mats[0].shape[0]
    if any(m.shape != (dim, dim) for m in mats):
        raise ValueError("projectors must share one square dimension")
    for i, m in enumerate(mats):
        if not is_hermitian(m, atol):
            raise ValueError(f"projector {i} is not Hermitian")
        if max_abs(m @ m - m) > atol:
            raise ValueError(f"projector {i} is not idempotent")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if max_abs(mats[i] @ mats[j]) > atol:
                raise ValueError(f"projectors {i} and {j} are not orthogonal")
    if max_abs(sum(mats) - np.eye(dim)) > atol:
        raise ValueError("projector set is not complete")
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


def kraus_from_povm(p: Povm) -> KrausSet:
    """Canonical Kraus operators M_i = sqrt(A_i)."""
    return KrausSet(tuple(sqrt_psd(a) for a in p.elements))


def filter_pair(v1) -> KrausSet:
    """Two-outcome local filter {V1, sqrt(I - V1 V1^dag)}.

    Requires the largest singular value of V1 to be at most one.  For normal
    V1 (in particular the diagonal filters used here) the pair satisfies the
    Kraus completeness relation; non-normal V1 is rejected by KrausSet.
    """
    v = as_complex_matrix(v1)
    if v.shape[0] != v.shape[1]:
        raise ValueError("filter operator must be square")
    smax = float(np.linalg.svd(v, compute_uv=False).max())
    if smax > 1.0 + 1e-12:
        raise ValueError(f"largest singular value {smax!r} exceeds 1")
    v2 = sqrt_psd(np.eye(v.shape[0]) - v @ dagger(v), atol=1e-9)
    return KrausSet((v, v2))


def inverse_cdf(probs: np.ndarray, draws: float | np.ndarray) -> np.ndarray:
    """Outcome index for each draw in [0, 1) over non-negative, unnormalized
    outcome probabilities: the first i with draw * total < probs[0] + ... +
    probs[i], or the last outcome where rounding lifts draw * total to the
    total.  Takes a scalar or an array of draws and returns the same shape."""
    cum = np.cumsum(probs)
    return np.searchsorted(cum[:-1], draws * cum[-1], side="right")


def measure(p: Povm, rho: DensityMatrix, rng_draw: float) -> MeasurementOutcome:
    """Sample one outcome by inverse CDF over p_i = Tr(A_i rho).

    ``rng_draw`` in [0, 1) is supplied by the caller, so identical inputs
    always produce identical outcomes.  The post state is M rho M^dag / p
    with M = sqrt(A); it is omitted for branches of negligible probability.
    """
    if not 0.0 <= rng_draw < 1.0:
        raise ValueError(f"rng_draw must lie in [0, 1), got {rng_draw!r}")
    if p.dim != rho.dim:
        raise ValueError("POVM and state dimensions do not match")
    probs = np.array([float(np.trace(a @ rho.matrix).real) for a in p.elements])
    if probs.sum() < 1e-12:
        raise RuntimeError("all outcome probabilities vanish for a valid POVM and state")
    idx = int(inverse_cdf(probs, rng_draw))
    prob = float(probs[idx])
    post = None
    if prob > 1e-12:
        m = sqrt_psd(p.elements[idx])
        post = DensityMatrix(m @ rho.matrix @ dagger(m) / prob)
    return MeasurementOutcome(index=idx, label=p.labels[idx], probability=prob, post_state=post)
