"""Pure states, density matrices, the Bell basis, Schmidt form, and fidelity.

Two-qubit basis ordering is |00>, |01>, |10>, |11> with the first label the
high-order (Alice) qubit.  Pure states are compared up to global phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ATOL,
    as_complex_matrix,
    as_complex_vector,
    dagger,
    hermitian_eigh,
    is_hermitian,
    kron,
    readonly,
)


@dataclass(frozen=True)
class PureState:
    """Normalized state vector. Equality of physical states is up to phase."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = as_complex_vector(self.amplitudes)
        norm2 = float(np.sum(np.abs(v) ** 2))
        if abs(norm2 - 1.0) > ATOL:
            raise ValueError(f"state not normalized: sum |amp|^2 = {norm2!r}")
        object.__setattr__(self, "amplitudes", readonly(v))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def isclose_up_to_phase(self, other: "PureState", atol: float = ATOL) -> bool:
        """True iff the two states agree up to a global phase."""
        return abs(abs(self.overlap(other)) - 1.0) <= atol

    def canonical(self) -> "PureState":
        """Copy with the first non-negligible amplitude made real positive."""
        v = self.amplitudes
        idx = np.flatnonzero(np.abs(v) > ATOL)
        if idx.size == 0:
            return self
        lead = v[idx[0]]
        return PureState(v * (np.conj(lead) / np.abs(lead)))

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace PSD Hermitian operator.  Construction validates all three."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        if not is_hermitian(m, ATOL):
            raise ValueError("density matrix is not Hermitian within 1e-9")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        w = np.linalg.eigvalsh((m + dagger(m)) / 2)
        if w.min() < -ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {w.min():.3e}")
        object.__setattr__(self, "matrix", readonly(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def pure_state(self, atol: float = 1e-8) -> PureState:
        """Extract the state vector of a (numerically) pure density matrix."""
        w, v = hermitian_eigh(self.matrix)
        if 1.0 - w[-1] > atol:
            raise ValueError(f"not a pure state: largest eigenvalue {w[-1]!r}")
        return PureState(v[:, -1] / np.linalg.norm(v[:, -1])).canonical()


@dataclass(frozen=True)
class SchmidtPair:
    """Real non-negative Schmidt coefficients of a two-qubit pure state, a >= b."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("Schmidt coefficients must be finite")
        if self.a < 0 or self.b < 0 or self.a < self.b:
            raise ValueError(f"require a >= b >= 0, got a={self.a!r}, b={self.b!r}")
        if abs(self.a**2 + self.b**2 - 1.0) > ATOL:
            raise ValueError("Schmidt coefficients must satisfy a^2 + b^2 = 1")

    @classmethod
    def from_a_squared(cls, a2: float) -> "SchmidtPair":
        if not 0.5 <= a2 <= 1.0:
            raise ValueError(f"a^2 must lie in [0.5, 1], got {a2!r}")
        return cls(float(np.sqrt(a2)), float(np.sqrt(1.0 - a2)))


def qubit(alpha: complex, beta: complex) -> PureState:
    """Single-qubit state (alpha, beta)."""
    return PureState(np.array([alpha, beta]))


ZERO = qubit(1, 0)
ONE = qubit(0, 1)
PLUS = qubit(1 / np.sqrt(2), 1 / np.sqrt(2))
MINUS = qubit(1 / np.sqrt(2), -1 / np.sqrt(2))

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")

_BELL_AMPLITUDES = {
    "phi+": np.array([1, 0, 0, 1]) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1]) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0]) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0]) / np.sqrt(2),
}


def bell_state(label: str) -> PureState:
    """One of the four maximally entangled two-qubit basis states."""
    if label not in _BELL_AMPLITUDES:
        raise ValueError(f"unknown Bell label {label!r}; expected one of {BELL_LABELS}")
    return PureState(_BELL_AMPLITUDES[label])


def partially_entangled(s: SchmidtPair) -> PureState:
    """Two-qubit state a|00> + b|11> in Schmidt form."""
    return PureState(np.array([s.a, 0.0, 0.0, s.b]))


def schmidt_coeffs(psi: PureState) -> SchmidtPair:
    """Schmidt coefficients of a two-qubit pure state (descending)."""
    if psi.dim != 4:
        raise ValueError(f"Schmidt decomposition implemented for dim 4 only, got {psi.dim}")
    sv = np.linalg.svd(psi.amplitudes.reshape(2, 2), compute_uv=False)
    return SchmidtPair(float(sv[0]), float(sv[1]))


def fidelity(target: PureState, rho: DensityMatrix | PureState) -> float:
    """Overlap <psi| rho |psi> of a state with a pure target."""
    if isinstance(rho, PureState):
        rho = rho.density()
    if target.dim != rho.dim:
        raise ValueError("dimension mismatch between target and state")
    val = complex(np.vdot(target.amplitudes, rho.matrix @ target.amplitudes))
    return float(val.real)


def mixed_resource(p: float) -> DensityMatrix:
    """Mixture p |psi-><psi-| + (1-p) |00><00| with singlet fraction p."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"mixing probability must lie in (0, 1), got {p!r}")
    singlet = bell_state("psi-").density().matrix
    zero2 = kron(ZERO.amplitudes, ZERO.amplitudes)
    return DensityMatrix(p * singlet + (1.0 - p) * np.outer(zero2, zero2.conj()))


def haar_random_amplitudes(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Normalized amplitudes of a Haar-distributed pure state, as a plain
    array for batched evaluation."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def haar_random_state(dim: int, rng: np.random.Generator) -> PureState:
    """Haar-distributed pure state of the given dimension."""
    return PureState(haar_random_amplitudes(dim, rng))


def haar_random_qubit(rng: np.random.Generator) -> PureState:
    return haar_random_state(2, rng)


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
