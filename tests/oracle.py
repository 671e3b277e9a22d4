"""Cross-check oracle: symplectic spectra from ``numpy.linalg.eigvals``.

This is the package's former kernel. The symplectic eigenvalues of a
covariance matrix are the moduli of the eigenvalues of Omega @ sigma, which
come in +/- pairs. It shares no code with the package's singular-value,
Hermitian and closed-form routes, so tests compare those against it.
"""

import numpy as np

from delcfwm.model import quad_transform_batch, tri_transform_batch


def symplectic_form(n_modes: int) -> np.ndarray:
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def symplectic_eigenvalues(sigmas: np.ndarray) -> tuple:
    """Ascending symplectic eigenvalues of a stack (..., 2n, 2n), and the
    worst +/- pairing mismatch of the moduli."""
    n = sigmas.shape[-1] // 2
    moduli = np.sort(np.abs(np.linalg.eigvals(symplectic_form(n) @ sigmas)), axis=-1)
    pairs = moduli.reshape(moduli.shape[:-1] + (n, 2))
    return pairs.mean(axis=-1), float(np.max(np.abs(pairs[..., 1] - pairs[..., 0])))


def ppt_values(sigmas: np.ndarray, label: str) -> np.ndarray:
    """PPT value of ``"PPT:a|b"`` on a stack of covariance matrices: reduce
    to the named modes, flip the P quadratures of side a, take the smallest
    symplectic eigenvalue minus 1."""
    side_a, side_b = label[4:].split("|")
    kept = sorted(int(m) for m in side_a + side_b)
    idx = [q for m in kept for q in (2 * m - 2, 2 * m - 1)]
    flip = np.array([-1.0 if q and str(m) in side_a else 1.0 for m in kept for q in (0, 1)])
    reduced = sigmas[..., idx, :][..., :, idx]
    nus, _ = symplectic_eigenvalues(flip[:, None] * reduced * flip[None, :])
    return nus[..., 0] - 1.0


def output_cms(gains: np.ndarray) -> np.ndarray:
    """Covariance matrices U U^T of the tri (two gain columns) or quad
    (three gain columns) source at each row of ``gains``."""
    build = tri_transform_batch if gains.shape[-1] == 2 else quad_transform_batch
    u = build(*np.moveaxis(gains, -1, 0))
    return u @ np.swapaxes(u, -1, -2)
