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
    is_psd,
    kron,
    readonly,
)


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Unit vector ``v``, or each of a stack (..., d), times the global
    phase that makes its first amplitude above ``ATOL`` real positive."""
    lead = np.take_along_axis(v, np.argmax(np.abs(v) > ATOL, axis=-1)[..., None], axis=-1)
    return v * (np.conj(lead) / np.abs(lead))


@dataclass(frozen=True)
class PureState:
    """Normalized state vector. Equality of physical states is up to phase."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = as_complex_vector(self.amplitudes)
        with np.errstate(over="ignore"):  # an overflowing norm is inf, rejected below
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

    def isclose_up_to_phase(self, other: "PureState") -> bool:
        """True iff the two states agree up to a global phase."""
        return abs(abs(self.overlap(other)) - 1.0) <= ATOL

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace PSD Hermitian operator.  Construction validates all three."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > ATOL:
            raise ValueError(f"density matrix trace {tr!r} != 1")
        if not is_psd(m):
            raise ValueError(f"density matrix is not positive semidefinite within {ATOL:g}")
        object.__setattr__(self, "matrix", readonly(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SchmidtPair:
    """Real non-negative Schmidt coefficients of a two-qubit pure state, a >= b;
    or of a stack of such states, with ``a`` and ``b`` arrays of one shape."""

    a: float | np.ndarray
    b: float | np.ndarray

    def __post_init__(self):
        a, b = self.a, self.b  # a nan or an infinity fails every comparison below
        if not np.asarray((b >= 0) & (a >= b) & (abs(a * a + b * b - 1.0) <= ATOL)).all():
            raise ValueError(f"require finite a >= b >= 0 with a^2 + b^2 = 1, got a={a!r}, b={b!r}")

    @classmethod
    def from_a_squared(cls, a2) -> "SchmidtPair":
        """The pair of a^2, or the stack of pairs of an array of a^2.  An a^2
        below 0.5 gives a < b, and one above 1 (or nan) a nan root, which
        the pair's own check rejects."""
        with np.errstate(invalid="ignore"):
            a, b = np.sqrt(a2), np.sqrt(1.0 - a2)
        return cls(float(a), float(b)) if np.ndim(a2) == 0 else cls(a, b)


def qubit(alpha: complex, beta: complex) -> PureState:
    """Single-qubit state (alpha, beta)."""
    return PureState(np.array([alpha, beta]))


ZERO = qubit(1, 0)
ONE = qubit(0, 1)
PLUS = qubit(1 / np.sqrt(2), 1 / np.sqrt(2))
MINUS = qubit(1 / np.sqrt(2), -1 / np.sqrt(2))

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")

_BELL_STATES = {
    "phi+": PureState(np.array([1, 0, 0, 1]) / np.sqrt(2)),
    "phi-": PureState(np.array([1, 0, 0, -1]) / np.sqrt(2)),
    "psi+": PureState(np.array([0, 1, 1, 0]) / np.sqrt(2)),
    "psi-": PureState(np.array([0, 1, -1, 0]) / np.sqrt(2)),
}

_SINGLET_PROJECTOR = _BELL_STATES["psi-"].density().matrix
_ZERO_ZERO_PROJECTOR = PureState(kron(ZERO.amplitudes, ZERO.amplitudes)).density().matrix


def bell_state(label: str) -> PureState:
    """One of the four maximally entangled two-qubit basis states."""
    if label not in _BELL_STATES:
        raise ValueError(f"unknown Bell label {label!r}; expected one of {BELL_LABELS}")
    return _BELL_STATES[label]


def schmidt_amplitudes(s: SchmidtPair) -> np.ndarray:
    """Amplitudes of a|00> + b|11>, of shape (..., 4) for a stack of pairs."""
    a = np.asarray(s.a, dtype=float)
    zero = np.zeros_like(a)
    return np.stack([a, zero, zero, np.asarray(s.b, dtype=float)], axis=-1).astype(complex)


def partially_entangled(s: SchmidtPair) -> PureState:
    """Two-qubit state a|00> + b|11> in Schmidt form."""
    return PureState(schmidt_amplitudes(s))


def schmidt_coeffs(psi: PureState) -> SchmidtPair:
    """Schmidt coefficients of a two-qubit pure state (descending)."""
    if psi.dim != 4:
        raise ValueError(f"Schmidt decomposition implemented for dim 4 only, got {psi.dim}")
    sv = np.linalg.svd(psi.amplitudes.reshape(2, 2), compute_uv=False)
    return SchmidtPair(float(sv[0]), float(sv[1]))


def fidelity(target: PureState, rho: DensityMatrix | PureState) -> float:
    """Overlap <psi| rho |psi> of a state with a pure target; |<psi|phi>|^2
    for a pure state phi."""
    if target.dim != rho.dim:
        raise ValueError("dimension mismatch between target and state")
    if isinstance(rho, PureState):
        return float(abs(np.vdot(target.amplitudes, rho.amplitudes)) ** 2)
    val = complex(np.vdot(target.amplitudes, rho.matrix @ target.amplitudes))
    return float(val.real)


def mixture_matrix(p) -> np.ndarray:
    """Matrix of p |psi-><psi-| + (1-p) |00><00|, of shape (..., 4, 4) for an
    array of p.  Every p in (0, 1) gives a density matrix."""
    q = np.asarray(p, dtype=float)[..., None, None]
    if not np.all((0.0 < q) & (q < 1.0)):
        raise ValueError(f"mixing probability must lie in (0, 1), got {p!r}")
    return q * _SINGLET_PROJECTOR + (1.0 - q) * _ZERO_ZERO_PROJECTOR


def mixed_resource(p: float) -> DensityMatrix:
    """Mixture p |psi-><psi-| + (1-p) |00><00| with singlet fraction p."""
    return DensityMatrix(mixture_matrix(p))


def haar_random_amplitudes(
    dim: int, rng: np.random.Generator, shape: tuple[int, ...] = ()
) -> np.ndarray:
    """Normalized amplitudes of Haar-distributed pure states, as a plain
    array of shape ``shape + (dim,)`` for batched evaluation.

    All real parts are drawn before all imaginary parts.  Each norm is
    sqrt(re . re + im . im), the sum ``np.linalg.norm`` forms for one
    complex vector, so a qubit row equals ``v / np.linalg.norm(v)`` to the
    bit and ``teleport``'s per-trial inputs keep their exact values.
    """
    g = rng.normal(size=(2, *shape, dim))
    sq = np.vecdot(g, g)
    return (g[0] + 1j * g[1]) / np.sqrt(sq[0] + sq[1])[..., None]


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
