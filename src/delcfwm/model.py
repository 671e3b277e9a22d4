"""Quadrature transforms of the cascaded four-wave-mixing source.

The three-mode source is two parametric amplifiers sharing the probe mode
(pump couples modes 1-2, then 2-3); the four-mode source adds a third
amplifier on modes 1-4. Each amplifier is a two-mode squeezer with amplitude
gain G = cosh(kappa*t) and conjugate gain g = sqrt(G^2 - 1); the full network
transform is the matrix product of the individual squeezers.

Output covariance matrices follow as sigma = U U^T for vacuum or coherent
inputs (the covariance matrix is displacement independent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import _as_even_square


def conjugate_gain(g_amp: float) -> float:
    """g = sqrt(G^2 - 1), the conjugate-beam gain paired with amplitude gain G."""
    if not (g_amp >= 1.0):
        raise ValueError(f"amplitude gain must be >= 1, got {g_amp}")
    return math.sqrt(g_amp * g_amp - 1.0)


@dataclass(frozen=True)
class GainSet:
    """Amplitude gains of the cascaded amplifiers (g3_amp only for four-mode)."""

    g1_amp: float
    g2_amp: float
    g3_amp: float | None = None

    def __post_init__(self):
        for name in ("g1_amp", "g2_amp", "g3_amp"):
            val = getattr(self, name)
            if val is None:
                continue
            if not (val >= 1.0) or not math.isfinite(val):
                raise ValueError(f"{name} must be a finite value >= 1, got {val}")


def two_mode_squeezer(n_modes: int, i: int, j: int, g_amp: float) -> np.ndarray:
    """Two-mode squeezer on modes (i, j) embedded in an n-mode identity.

    On quadratures: Xi' = G Xi + g Xj, Pi' = G Pi - g Pj, and symmetrically
    for mode j.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if i == j or not (1 <= i <= n_modes) or not (1 <= j <= n_modes):
        raise ValueError(f"invalid mode pair ({i}, {j}) for {n_modes} modes")
    big_g = float(g_amp)
    small_g = conjugate_gain(big_g)
    u = np.eye(2 * n_modes)
    xi, pi = 2 * (i - 1), 2 * (i - 1) + 1
    xj, pj = 2 * (j - 1), 2 * (j - 1) + 1
    u[xi, xi] = big_g
    u[xi, xj] = small_g
    u[pi, pi] = big_g
    u[pi, pj] = -small_g
    u[xj, xi] = small_g
    u[xj, xj] = big_g
    u[pj, pi] = -small_g
    u[pj, pj] = big_g
    return u


def _gain_arrays(*gains):
    """Gains G as broadcast float arrays and g = sqrt(G^2 - 1); ValueError unless all G >= 1."""
    arrays = [np.asarray(g, dtype=float) for g in gains]
    if not all((a >= 1.0).all() for a in arrays):
        raise ValueError("all amplitude gains must be >= 1")
    big = np.broadcast_arrays(*arrays)
    small = [np.sqrt(g * g - 1.0) for g in big]
    return big, small


def tri_transform_batch(g1_amp, g2_amp) -> np.ndarray:
    """Three-mode transform for broadcastable gain arrays; shape (..., 6, 6)."""
    (G1, G2), (c1, c2) = _gain_arrays(g1_amp, g2_amp)
    u = np.zeros(G1.shape + (6, 6))
    u[..., 0, 0] = G1
    u[..., 0, 2] = c1
    u[..., 1, 1] = G1
    u[..., 1, 3] = -c1
    u[..., 2, 0] = c1 * G2
    u[..., 2, 2] = G1 * G2
    u[..., 2, 4] = c2
    u[..., 3, 1] = -c1 * G2
    u[..., 3, 3] = G1 * G2
    u[..., 3, 5] = -c2
    u[..., 4, 0] = c1 * c2
    u[..., 4, 2] = G1 * c2
    u[..., 4, 4] = G2
    u[..., 5, 1] = c1 * c2
    u[..., 5, 3] = -G1 * c2
    u[..., 5, 5] = G2
    return u


def quad_transform_batch(g1_amp, g2_amp, g3_amp) -> np.ndarray:
    """Four-mode transform for broadcastable gain arrays; shape (..., 8, 8)."""
    (G1, G2, G3), (c1, c2, c3) = _gain_arrays(g1_amp, g2_amp, g3_amp)
    u = np.zeros(G1.shape + (8, 8))
    u[..., 0, 0] = G1 * G3
    u[..., 0, 2] = c1 * G3
    u[..., 0, 6] = c3
    u[..., 1, 1] = G1 * G3
    u[..., 1, 3] = -c1 * G3
    u[..., 1, 7] = -c3
    u[..., 2, 0] = c1 * G2
    u[..., 2, 2] = G1 * G2
    u[..., 2, 4] = c2
    u[..., 3, 1] = -c1 * G2
    u[..., 3, 3] = G1 * G2
    u[..., 3, 5] = -c2
    u[..., 4, 0] = c1 * c2
    u[..., 4, 2] = G1 * c2
    u[..., 4, 4] = G2
    u[..., 5, 1] = c1 * c2
    u[..., 5, 3] = -G1 * c2
    u[..., 5, 5] = G2
    u[..., 6, 0] = G1 * c3
    u[..., 6, 2] = c1 * c3
    u[..., 6, 6] = G3
    u[..., 7, 1] = -G1 * c3
    u[..., 7, 3] = c1 * c3
    u[..., 7, 7] = G3
    return u


def build_tri_transform(gains: GainSet) -> np.ndarray:
    """6x6 transform of the three-mode source.

    Equals two_mode_squeezer(3, 2, 3, G2) @ two_mode_squeezer(3, 1, 2, G1):
    the single-cell source is equivalent to cascading two amplifier cells.
    """
    if gains.g3_amp is not None:
        raise ValueError("three-mode transform takes a gain set without g3_amp")
    return tri_transform_batch(gains.g1_amp, gains.g2_amp)


def build_quad_transform(gains: GainSet) -> np.ndarray:
    """8x8 transform of the four-mode source.

    Equals S(2,3; G2) @ S(1,4; G3) @ S(1,2; G1); the second and third
    squeezers act on disjoint modes and commute.
    """
    if gains.g3_amp is None:
        raise ValueError("four-mode transform requires g3_amp")
    return quad_transform_batch(gains.g1_amp, gains.g2_amp, gains.g3_amp)


def output_cm(u) -> np.ndarray:
    """Output covariance matrix U U^T for vacuum (or coherent) inputs."""
    u = _as_even_square(u, "transform")
    out = u @ u.T
    return (out + out.T) / 2.0
