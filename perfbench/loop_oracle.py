"""Reference loop fixed point, written from the mathematics, not from ctcbox.

The loop map sigma -> Tr_CR(U (rho (x) sigma) U^+) is linear in sigma, so
it is a d^2 x d^2 superoperator S.  The Cesaro limit of S^k applied to
I/d, which is what an iteration started at I/d approaches, is the
projection of I/d onto ker(S - 1) along range(S - 1).  The eigenvalue-1
block of a channel is semisimple, so the projector is R (L^+ R)^-1 L^+
with R and L bases of the right and left kernels of S - 1.
"""

from __future__ import annotations

import numpy as np

KERNEL_TOL = 1e-9


def superoperator(u: np.ndarray, rho_cr: np.ndarray, d_loop: int) -> np.ndarray:
    """Matrix of sigma -> Tr_CR(U (rho (x) sigma) U^+) on row-major vec(sigma)."""
    d_cr = rho_cr.shape[0]
    t = u.reshape(d_cr, d_loop, d_cr, d_loop)
    # out[j, l] = sum U[c, j, a, p] rho[a, b] sigma[p, q] conj(U[c, l, b, q])
    s = np.einsum("cjap,ab,clbq->jlpq", t, rho_cr, t.conj())
    return s.reshape(d_loop * d_loop, d_loop * d_loop)


def _kernel(m: np.ndarray) -> np.ndarray:
    _, sv, vh = np.linalg.svd(m)
    scale = max(1.0, float(sv[0]))
    rank = int((sv > KERNEL_TOL * scale).sum())
    return vh[rank:].conj().T


def reference_fixed_point(u: np.ndarray, rho_cr: np.ndarray,
                          d_loop: int) -> np.ndarray:
    """Projection of I/d onto the fixed space of the loop map."""
    s = superoperator(np.asarray(u, dtype=complex),
                      np.asarray(rho_cr, dtype=complex), d_loop)
    shifted = s - np.eye(s.shape[0])
    right = _kernel(shifted)
    left = _kernel(shifted.conj().T)
    start = (np.eye(d_loop, dtype=complex) / d_loop).reshape(-1)
    coeffs = np.linalg.solve(left.conj().T @ right, left.conj().T @ start)
    sigma = (right @ coeffs).reshape(d_loop, d_loop)
    return (sigma + sigma.conj().T) / 2


def spectral_gap(matrix: np.ndarray) -> float:
    """1 - largest modulus among the eigenvalues of ``matrix`` other than 1."""
    eig = np.linalg.eigvals(matrix)
    rest = np.abs(eig[np.abs(eig - 1) > KERNEL_TOL])
    return 1.0 - float(rest.max()) if rest.size else 1.0


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace norm of a - b for Hermitian a, b.

    No factor 1/2, matching the residuals ctcbox reports.
    """
    return float(np.abs(np.linalg.eigvalsh(a - b)).sum())
