"""Brute-force number-basis oracle for the Gaussian model.

Evolves truncated multimode states under the pair-creation generator
r * (a_i' a_j' - a_i a_j) of each amplifier and reconstructs quadrature
covariances directly from expectation values. This path shares no code with
the symplectic construction, so agreement between the two is a meaningful
cross-check. Only small squeezing is reachable before truncation bites; the
closed-form checks cover the high-gain regime instead. Each squeezer acts on
two modes only, so it is exponentiated on their cutoff**2 block and applied to
those two axes of the amplitude tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: hard cap on the squeezing parameter per evolution (safe at cutoff 12)
MAX_SQUEEZING = 0.35

#: tolerated probability mass in the top Fock layer after an evolution
LEAK_TOL = 1e-6

MIN_CUTOFF = 4


class TruncationError(RuntimeError):
    """Raised when an evolution pushes too much population to the cutoff."""

    def __init__(self, message: str, leakage: float):
        super().__init__(message)
        self.leakage = leakage


@dataclass
class TruncatedState:
    """State on a truncated number basis with ``cutoff`` levels per mode."""

    n_modes: int
    cutoff: int
    amplitudes: np.ndarray
    leakage: float = field(default=0.0)

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if self.cutoff < MIN_CUTOFF:
            raise ValueError(f"cutoff must be >= {MIN_CUTOFF}, got {self.cutoff}")
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        expected = (self.cutoff,) * self.n_modes
        if self.amplitudes.shape != expected:
            raise ValueError(
                f"amplitude tensor has shape {self.amplitudes.shape}, expected {expected}"
            )

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def vacuum_state(n_modes: int, cutoff: int) -> TruncatedState:
    """All modes in the ground state."""
    amps = np.zeros((cutoff,) * n_modes, dtype=complex)
    amps[(0,) * n_modes] = 1.0
    return TruncatedState(n_modes, cutoff, amps)


def _lowering(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)


def _apply(op: np.ndarray, amplitudes: np.ndarray, modes: tuple[int, ...]) -> np.ndarray:
    """Apply a k-mode operator, shaped (out..., in...), to those modes (1 = slowest axis)."""
    k, axes = len(modes), [m - 1 for m in modes]
    out = np.tensordot(op, amplitudes, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def _top_layer_mass(amplitudes: np.ndarray) -> float:
    """Probability of finding any mode in its highest retained level."""
    prob = np.abs(amplitudes) ** 2
    interior = prob[tuple(slice(0, -1) for _ in range(amplitudes.ndim))]
    return float(prob.sum() - interior.sum())


def evolve_tms(state: TruncatedState, i: int, j: int, r: float) -> TruncatedState:
    """Apply the two-mode squeezer exp[r (a_i' a_j' - a_i a_j)] to the state.

    ``r`` is capped at MAX_SQUEEZING and the evolution is rejected with
    :class:`TruncationError` if more than LEAK_TOL of the population ends up
    in the top Fock layer.
    """
    n, cutoff = state.n_modes, state.cutoff
    if i == j or not (1 <= i <= n) or not (1 <= j <= n):
        raise ValueError(f"invalid mode pair ({i}, {j}) for {n} modes")
    if not (0.0 <= r <= MAX_SQUEEZING):
        raise ValueError(f"squeezing parameter must be in [0, {MAX_SQUEEZING}], got {r}")
    if r == 0.0:
        return TruncatedState(n, cutoff, state.amplitudes.copy(), state.leakage)
    pair_down = np.kron(_lowering(cutoff), _lowering(cutoff))
    # exp(K) for the real antisymmetric K = r (a'b' - ab), through the Hermitian iK
    lam, vec = np.linalg.eigh(1j * r * (pair_down.T - pair_down))
    block = (vec * np.exp(-1j * lam)) @ vec.conj().T
    amps = _apply(block.reshape((cutoff,) * 4), state.amplitudes, (i, j))
    leak = _top_layer_mass(amps)
    if leak > LEAK_TOL:
        raise TruncationError(
            f"truncation leakage {leak:.3e} exceeds {LEAK_TOL:.0e} "
            f"(r={r}, cutoff={cutoff}); increase the cutoff or lower r",
            leakage=leak,
        )
    return TruncatedState(n, cutoff, amps, max(state.leakage, leak))


def covariance_from_state(state: TruncatedState) -> np.ndarray:
    """Quadrature covariance matrix from expectation values on the state.

    Uses X = a + a', P = i(a' - a) and the symmetrized second moments minus
    first-moment products, in the interleaved (X1, P1, ...) ordering.
    """
    if abs(state.norm - 1.0) > 1e-6:
        raise ValueError(f"state is not normalized (norm {state.norm:.8f})")
    a = _lowering(state.cutoff)
    quadratures = (a + a.T, 1j * (a.T - a))  # X, P
    quad = np.column_stack([
        _apply(q, state.amplitudes, (mode,)).ravel()
        for mode in range(1, state.n_modes + 1) for q in quadratures
    ])
    means = np.real(state.amplitudes.ravel().conj() @ quad)
    second = np.real(quad.conj().T @ quad)
    sigma = (second + second.T) / 2.0 - np.outer(means, means)
    return sigma
