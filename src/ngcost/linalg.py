"""Small dense linear-algebra helpers shared by the quantum solvers."""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-10


def herm_eig(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix or a stack of them.

    Takes shape (..., d, d) and returns (w, v) with eigenvalues w[..., :]
    in ascending order and eigenvectors in the columns of v[..., :, :].
    Every matrix must be square and Hermitian within 1e-10 entrywise; the
    Hermitian average (H + H^dag)/2 is what actually gets decomposed, so
    tiny asymmetries do not leak into the result.
    """
    H = np.asarray(mat, dtype=complex)
    if H.ndim < 2 or H.shape[-2] != H.shape[-1]:
        raise ValueError(f"herm_eig needs square matrices, got shape {H.shape}")
    if H.size == 0:
        raise ValueError("herm_eig needs a nonempty matrix")
    H_dag = H.conj().swapaxes(-1, -2)
    if np.max(np.abs(H - H_dag)) > HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within 1e-10")
    return np.linalg.eigh((H + H_dag) / 2.0)


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
