"""Dense complex linear algebra for small dimensions (2 to 8).

Conventions used throughout the package:

* Matrices and vectors are ``numpy`` arrays with dtype ``complex128``.
* In every tensor product the FIRST factor is the high-order subsystem:
  ``kron(a, b)`` indexes as ``i_a * dim_b + i_b``.  Alice's subsystems
  always occupy the high-order positions.
* All values are treated as immutable after construction; helpers return
  fresh arrays and mark them read-only where practical.
"""

from __future__ import annotations

import numpy as np

ATOL = 1e-9
"""Absolute tolerance of every validation check in the package."""

PROB_FLOOR = 1e-12
"""Outcomes less likely than this are impossible: no state, never a success."""


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a complex128 2-D array, rejecting non-finite entries."""
    a = np.array(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def as_complex_vector(v) -> np.ndarray:
    """Coerce to a complex128 1-D array, rejecting non-finite entries."""
    a = np.array(v, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(a)):
        raise ValueError("vector contains non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def kron(a, b) -> np.ndarray:
    """Kronecker product with the first factor as the high-order subsystem.

    ``kron(a, b)[i_a * rows_b + i_b, j_a * cols_b + j_b] = a[i_a, j_a] * b[i_b, j_b]``
    Accepts matrices or vectors; vectors are combined into a vector.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return np.kron(a, b)


def partial_trace(m, dims: tuple[int, int], trace_out: str = "A") -> np.ndarray:
    """Trace out one subsystem of a bipartite operator.

    Args:
        m: square matrix on H_A (x) H_B with H_A the high-order factor.
        dims: (dim_A, dim_B).
        trace_out: "A" returns the dim_B x dim_B operator on B,
            "B" returns the dim_A x dim_A operator on A.
    """
    a = as_complex_matrix(m)
    d_a, d_b = dims
    if a.shape != (d_a * d_b, d_a * d_b):
        raise ValueError(f"matrix shape {a.shape} does not match dims {dims}")
    r = a.reshape(d_a, d_b, d_a, d_b)
    if trace_out == "A":
        return np.trace(r, axis1=0, axis2=2)
    if trace_out == "B":
        return np.trace(r, axis1=1, axis2=3)
    raise ValueError(f"trace_out must be 'A' or 'B', got {trace_out!r}")


def is_hermitian(m) -> bool:
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    return bool(np.max(np.abs(a - dagger(a))) <= ATOL)


def smallest_eigenvalue(m) -> float:
    """Smallest eigenvalue of the Hermitian part (m + m^dag) / 2 of a square matrix."""
    a = as_complex_matrix(m)
    return float(np.linalg.eigvalsh((a + dagger(a)) / 2).min())


def hermitian_eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvectors as columns).  The input is
    symmetrized before decomposition; inputs that are not Hermitian within
    ``ATOL`` are rejected.
    """
    a = as_complex_matrix(m)
    if not is_hermitian(a):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((a + dagger(a)) / 2)
    return w, v


def is_psd(m) -> bool:
    """True iff ``m`` is Hermitian within ``ATOL`` with eigenvalues >= -ATOL."""
    return is_hermitian(m) and smallest_eigenvalue(m) >= -ATOL


def sqrt_psd(m) -> np.ndarray:
    """Positive square root of a PSD Hermitian matrix.

    Eigenvalues in [-ATOL, 0) are clamped to zero; anything below -ATOL is
    an error.  The result s satisfies s @ s == m entrywise to ~1e-8.
    """
    w, v = hermitian_eigh(m)
    if w.min() < -ATOL:
        raise ValueError(f"matrix has eigenvalue {w.min():.3e} below -{ATOL:.1e}")
    w = np.clip(w, 0.0, None)
    s = (v * np.sqrt(w)) @ dagger(v)
    return (s + dagger(s)) / 2


def is_unitary(m, atol: float = ATOL) -> bool:
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        return False
    return bool(np.max(np.abs(dagger(a) @ a - np.eye(a.shape[0]))) <= atol)


def max_abs(m) -> float:
    """Entrywise max-norm, used for completeness residuals."""
    return float(np.max(np.abs(np.asarray(m))))


def readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a
