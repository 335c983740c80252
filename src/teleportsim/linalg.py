"""Dense complex linear algebra for small dimensions (2 to 8).

Conventions used throughout the package:

* Matrices and vectors are ``numpy`` arrays with dtype ``complex128``.
* In every tensor product the FIRST factor is the high-order subsystem:
  ``kron(a, b)`` indexes as ``i_a * dim_b + i_b``.  Alice's subsystems
  always occupy the high-order positions.
* All values are treated as immutable after construction; helpers return
  fresh arrays and mark them read-only where practical.
* Values are coerced and checked for finite entries once, where they enter
  (``as_complex_matrix`` in ``DensityMatrix`` and ``Povm``).  The
  predicates below take the arrays as they are and do not coerce again.
"""

from __future__ import annotations

import functools
import math

import numpy as np

ATOL = 1e-9
"""Absolute tolerance of every validation check in the package."""

PROB_FLOOR = 1e-12
"""Outcomes less likely than this are impossible: no state, never a success."""


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a complex128 matrix, or a stack of matrices (..., rows,
    cols), rejecting non-finite entries."""
    a = np.array(m, dtype=np.complex128)
    if a.ndim < 2:
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
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(m, -1, -2).conj()


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


def is_hermitian(m):
    """Whether a square matrix, or each matrix of a stack, equals its
    conjugate transpose within ``ATOL``."""
    a = np.asarray(m)
    return max_abs(a - dagger(a), axis=(-2, -1)) <= ATOL


@functools.partial(np.vectorize, otypes=[float])
def _smallest_2x2(d0: float, d1: float, h01: complex) -> float:
    # Python float arithmetic per matrix: numpy's SIMD complex abs rounds
    # differently from the C library's hypot behind abs(complex)
    return (d0 + d1) / 2 - math.hypot((d0 - d1) / 2, abs(h01))


def smallest_eigenvalue(m):
    """Smallest eigenvalue of the Hermitian part h = (m + m^dag) / 2 of a
    square matrix, or of each matrix of a stack (..., d, d).

    For 2x2 input it is the closed form (h00 + h11)/2 - hypot((h00 - h11)/2, |h01|),
    so the value does not depend on the LAPACK build; larger input goes to ``eigvalsh``.
    """
    a = np.asarray(m)
    h = (a + dagger(a)) / 2
    if h.shape[-2:] == (2, 2):
        return _smallest_2x2(h[..., 0, 0].real, h[..., 1, 1].real, h[..., 0, 1])[()]
    return np.linalg.eigvalsh(h).min(axis=-1)


def is_psd(m):
    """Whether a matrix, or each matrix of a stack, is Hermitian within
    ``ATOL`` with eigenvalues >= -ATOL."""
    return is_hermitian(m) & (smallest_eigenvalue(m) >= -ATOL)


def max_abs(m, axis=None):
    """Entrywise max-norm, over all entries or over ``axis``."""
    return np.abs(np.asarray(m)).max(axis=axis)


def readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a
