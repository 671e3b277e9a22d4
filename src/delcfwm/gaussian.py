"""Symplectic and covariance-matrix linear algebra for n-mode Gaussian states.

Conventions used throughout the package:

* Quadratures are X = a + a' and P = i(a' - a), so the vacuum state has unit
  variance in both and its covariance matrix is the identity.
* The quadrature vector is interleaved, r = (X1, P1, X2, P2, ..., Xn, Pn);
  every 2n x 2n matrix in this package follows that ordering.
* Modes are numbered from 1.

All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np

#: tolerance for the +/- pairing of the eigenvalues of i L^T Omega L (sigma = L L^T)
PAIRING_TOL = 1e-8

#: symmetry tolerance accepted on covariance-matrix inputs
SYMMETRY_TOL = 1e-10


def _as_even_square(mat, name: str, stack: bool = False) -> np.ndarray:
    """``mat`` as a float (2n, 2n) array or, with ``stack``, (..., 2n, 2n)."""
    mat = np.asarray(mat, dtype=float)
    if not (mat.ndim == 2 or stack and mat.ndim > 2) or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"{name} must be a square matrix, got shape {mat.shape}")
    if mat.shape[-1] == 0 or mat.shape[-1] % 2:
        raise ValueError(f"{name} must have even, positive dimension, got {mat.shape[-1]}")
    return mat


def _as_cm(sigma, name: str = "sigma") -> np.ndarray:
    sigma = _as_even_square(sigma, name)
    asym = np.max(np.abs(sigma - sigma.T))
    if asym > SYMMETRY_TOL:
        raise ValueError(f"{name} is not symmetric (max asymmetry {asym:.3e})")
    return sigma


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form with n copies of [[0, 1], [-1, 0]]."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def vacuum_cm(n_modes: int) -> np.ndarray:
    """Covariance matrix of the n-mode vacuum (identity in this normalization)."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    return np.eye(2 * n_modes)


def is_symplectic(u, tol: float = 1e-10) -> tuple[bool, float]:
    """Check U Omega U^T = Omega for a transform or a stack (..., 2n, 2n) of them.

    Returns
    -------
    (ok, residual)
        ``residual`` is the max-abs entry of U Omega U^T - Omega over the
        stack and ``ok`` is True when it is below ``tol``.
    """
    u = _as_even_square(u, "transform", stack=True)
    omega = symplectic_form(u.shape[-1] // 2)
    residual = float(np.max(np.abs(u @ omega @ np.swapaxes(u, -1, -2) - omega)))
    return residual < tol, residual


def evolve_cm(u, sigma_in) -> np.ndarray:
    """Propagate a covariance matrix through a quadrature transform: U sigma U^T.

    The result is explicitly symmetrized to remove floating-point asymmetry.
    """
    u = _as_even_square(u, "transform")
    sigma_in = _as_cm(sigma_in, "sigma_in")
    if u.shape != sigma_in.shape:
        raise ValueError(f"dimension mismatch: transform {u.shape} vs sigma {sigma_in.shape}")
    out = u @ sigma_in @ u.T
    return (out + out.T) / 2.0


def _symplectic_spectrum(sigmas: np.ndarray) -> tuple[np.ndarray, float]:
    """Symplectic eigenvalues (ascending, last axis) of a stack of covariance
    matrices (..., 2n, 2n), and the worst +/- pairing residual.

    With sigma = L L^T (Cholesky), the Hermitian matrix i L^T Omega L has
    the eigenvalues +/-nu_k; each pair is averaged. The whole stack is
    solved in one call, so its temporaries grow with the stack; the sweeps
    pass one block of grid points at a time. A matrix that is not finite or
    not positive definite, or a pairing mismatch above PAIRING_TOL relative
    to the largest eigenvalue of this call's stack (for a sweep: of one
    block), raises ValueError: the input is not a valid covariance matrix.
    Symmetry is the caller's responsibility.
    """
    n = sigmas.shape[-1] // 2
    flat = sigmas.reshape((-1, 2 * n, 2 * n))
    if not np.isfinite(flat).all():
        raise ValueError("covariance matrix is not finite")
    try:
        low = np.linalg.cholesky(flat)
    except np.linalg.LinAlgError:
        raise ValueError(
            "covariance matrix is not positive definite; input is not a valid covariance matrix"
        ) from None
    eigs = np.linalg.eigvalsh(1j * (low.transpose(0, 2, 1) @ symplectic_form(n) @ low))
    pos, neg = eigs[:, n:], -eigs[:, n - 1::-1]
    residual = float(np.max(np.abs(pos - neg), initial=0.0))
    if residual > PAIRING_TOL * max(1.0, float(pos[:, -1].max(initial=0.0))):
        raise ValueError(
            f"symplectic eigenvalues do not pair up (+/- pairing residual {residual:.3e}); "
            "input is not a valid covariance matrix"
        )
    return ((pos + neg) / 2.0).reshape(sigmas.shape[:-2] + (n,)), residual


def symplectic_eigenvalues(sigma, return_residual: bool = False):
    """Symplectic eigenvalues of a covariance matrix, ascending, as computed
    by :func:`_symplectic_spectrum` (which raises ValueError on invalid input)."""
    nus, residual = _symplectic_spectrum(_as_cm(sigma)[None])
    return (nus[0], residual) if return_residual else nus[0]


def _min_symplectic_eigenvalue_batch(sigmas: np.ndarray) -> np.ndarray:
    """Smallest symplectic eigenvalue of each matrix of a stack (..., 2m, 2m)."""
    return _symplectic_spectrum(sigmas)[0][..., 0]


def reduced_cm(sigma, modes) -> np.ndarray:
    """Covariance matrix of a subset of modes (principal submatrix)."""
    sigma = _as_cm(sigma)
    n = sigma.shape[0] // 2
    kept = sorted(set(int(m) for m in modes))
    if not kept:
        raise ValueError("cannot reduce to an empty mode set")
    bad = [m for m in kept if m < 1 or m > n]
    if bad:
        raise ValueError(f"modes {bad} out of range 1..{n}")
    idx = [q for m in kept for q in (2 * (m - 1), 2 * (m - 1) + 1)]
    return sigma[np.ix_(idx, idx)]
