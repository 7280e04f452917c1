"""Small dense linear-algebra helpers shared by the quantum solvers."""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-10


def _hermitian_part(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one Hermitian rule: (max|H - H^dag| <= HERMITIAN_TOL per matrix, (H + H^dag)/2)."""
    H_dag = H.conj().swapaxes(-1, -2)
    # a NaN or infinite entry makes the gap NaN or infinite, so one test refuses both
    try:
        with np.errstate(over="raise", invalid="ignore"):
            gap, part = np.abs(H - H_dag), H + H_dag
            part /= 2.0  # in place, bitwise (H + H_dag) / 2.0
    except FloatingPointError:  # entries above half the largest float are halved first
        with np.errstate(over="ignore", invalid="ignore"):
            gap, part = np.abs(H - H_dag), H / 2.0 + H_dag / 2.0
    return gap.max(axis=(-2, -1)) <= HERMITIAN_TOL, part


def herm_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix or a stack of them.

    Takes shape (..., d, d) and returns (w, v) with eigenvalues w[..., :]
    in ascending order and eigenvectors in the columns of v[..., :, :].
    Every matrix must be square, finite and Hermitian within 1e-10 entrywise,
    an absolute test whatever the scale of the input and the one rule that
    QuantumStrategy's POVMs follow too (_hermitian_part), applied to every
    matrix of every call; the Hermitian part (H + H^dag)/2 is what gets
    decomposed, so tiny asymmetries do not leak into the result.
    """
    H = np.asarray(mat, dtype=complex)
    if H.ndim < 2 or H.shape[-2] != H.shape[-1]:
        raise ValueError(f"herm_eig needs square matrices, got shape {H.shape}")
    if H.size == 0:
        raise ValueError("herm_eig needs a nonempty matrix")
    hermitian, part = _hermitian_part(H)
    if not hermitian.all():
        if not np.isfinite(H).all():
            raise ValueError("herm_eig needs finite entries")
        raise ValueError(f"matrix is not Hermitian within {HERMITIAN_TOL}")
    return np.linalg.eigh(part)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the row-major composite index (i*dB + k)."""
    return np.kron(np.asarray(a), np.asarray(b))


def _split(mat: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    M = np.asarray(mat)
    d = d_a * d_b
    if M.shape != (d, d):
        raise ValueError(f"matrix has shape {M.shape}, expected {(d, d)} for dims ({d_a},{d_b})")
    return M.reshape(d_a, d_b, d_a, d_b)


def partial_trace_b(mat: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Trace out the second factor: result[i, j] = sum_k M[(i,k), (j,k)]."""
    return np.trace(_split(mat, d_a, d_b), axis1=1, axis2=3)


def partial_trace_a(mat: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Trace out the first factor: result[i, j] = sum_k M[(k,i), (k,j)]."""
    return np.trace(_split(mat, d_a, d_b), axis1=0, axis2=2)
