"""Dressed atomic-coherence spectra and coherent channels of the FWM source.

The third-order density-matrix element behind each generated signal is a
product of three complex lorentzian-like factors in the quantum frequency
deviation delta1 of the first signal; its resonances are the coherent
channels of the mixing process. A strong field dressing one step of the
perturbation chain adds a complex level-shift term to the corresponding
factor, splitting that factor's resonance into two.

Frequency correlation of the generated photons: delta2 = -delta1 and
delta3 = delta1, and for a dressed channel the four deviations
(delta1, delta2, delta2', delta3) sum to zero.

All detunings, Rabi frequencies and relaxation rates are in MHz; spectra are
vectorized over delta1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .criteria import Sweep, _walk, parse_request, verdicts


class ResonanceError(ValueError):
    """Raised when a closed-form resonance position has no real solution."""


class DressingCase(str, Enum):
    """Which perturbation chain is evaluated and which step (if any) is dressed."""

    FWM1_S1 = "fwm1_s1"  # first amplifier, first signal (undressed)
    FWM1_S2 = "fwm1_s2"  # first amplifier, shared signal (undressed)
    FWM2_S2 = "fwm2_s2"  # second amplifier, shared signal (undressed)
    FWM2_S3 = "fwm2_s3"  # second amplifier, third signal (undressed)
    RHO2_BY_E1 = "rho2_e1"  # second-order coherence dressed by pump E1
    RHO1_BY_E1 = "rho1_e1"  # first-order coherence dressed by pump E1
    RHO3_BY_E1 = "rho3_e1"  # third-order coherence dressed by pump E1
    RHO2_BY_E3 = "rho2_e3"  # second-order coherence dressed by pump E3


_UNDRESSED_CASES = frozenset(
    {DressingCase.FWM1_S1, DressingCase.FWM1_S2, DressingCase.FWM2_S2, DressingCase.FWM2_S3}
)


@dataclass(frozen=True)
class AtomicParams:
    """Rabi frequencies, detunings and transverse relaxation rates (MHz).

    omega1/omega3 are the pump Rabi frequencies (they also set the dressing
    strength), omega2 the probe and omega_s1/omega_s3 the generated signals
    (omega_s3 defaults to omega_s1). delta1/delta1p are the detunings of pump
    E1 from its two transitions, delta3/delta3p those of pump E3 (delta3p is
    part of the four-mode level scheme and enters no implemented spectrum).
    """

    omega1: float = 20.0
    omega3: float = 20.0
    omega2: float = 1.0
    omega_s1: float = 1.0
    omega_s3: float | None = None
    delta1: float = 13.0
    delta1p: float = 20.0
    delta3: float = 13.0
    delta3p: float = 20.0
    gamma31: float = 1.0
    gamma21: float = 1.0
    gamma32: float = 1.0
    gamma12: float = 1.0
    gamma23: float = 1.0
    gamma33: float = 1.0

    def __post_init__(self):
        if self.omega_s3 is None:
            object.__setattr__(self, "omega_s3", self.omega_s1)
        for name in ("omega1", "omega3", "omega2", "omega_s1", "omega_s3"):
            if not (0 <= getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and >= 0")
        for name in ("gamma31", "gamma21", "gamma32", "gamma12", "gamma23", "gamma33"):
            if not (0 < getattr(self, name) < math.inf):
                raise ValueError(f"{name} must be finite and > 0")
        for name in ("delta1", "delta1p", "delta3", "delta3p"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def min_gamma(self) -> float:
        return min(self.gamma31, self.gamma21, self.gamma32, self.gamma12, self.gamma23, self.gamma33)

    @property
    def max_gamma(self) -> float:
        return max(self.gamma31, self.gamma21, self.gamma32, self.gamma12, self.gamma23, self.gamma33)


@dataclass(frozen=True)
class CoherentChannel:
    """One coherent channel: resonance position in delta1 plus the companion
    deviations fixed by energy conservation."""

    label: str
    delta1: float
    delta2: float
    delta2p: float
    delta3: float

    @classmethod
    def at(cls, label: str, delta1: float) -> "CoherentChannel":
        return cls(label, delta1, -delta1, -delta1, delta1)


@dataclass(frozen=True)
class Peak:
    """A numerically located spectrum maximum."""

    delta1: float
    height: float


def deviation_tuple(delta1: float) -> tuple:
    """Deviations (delta1, delta2, delta3) of the three generated photons."""
    return (delta1, -delta1, delta1)


def deviation_quadruple(delta1: float) -> tuple:
    """Four-deviation form (delta1, delta2, delta2', delta3); sums to zero."""
    return (delta1, -delta1, -delta1, delta1)


def channel_capacity(n_channels: int) -> int:
    """Information capacity n^3 of n coherent channels."""
    n = int(n_channels)
    if n < 1:
        raise ValueError("channel count must be >= 1")
    return n**3


# --------------------------------------------------------------------------
# spectra
# --------------------------------------------------------------------------

# The signal detunings are eliminated in favour of the deviation delta1 of
# the first signal: each signal sits at its central resonance plus its
# deviation, with delta2 = -delta1 and delta3 = delta1.


def _chain_parts(case, p: AtomicParams, d):
    case = DressingCase(case)
    if case in (DressingCase.FWM1_S1, DressingCase.FWM2_S3):
        f1 = p.gamma32 + 1j * p.delta1p
        f2 = p.gamma12 - 1j * d
        if case is DressingCase.FWM1_S1:
            num = p.omega1 * p.omega1 * p.omega2
            f3 = p.gamma32 + 1j * (p.delta1 - d)
        else:
            num = p.omega1 * p.omega2 * p.omega3
            f3 = p.gamma32 + 1j * (p.delta3 - d)
        return num, f1, f2, f3

    # the remaining cases are the shared-signal chain and its dressed variants
    if case is DressingCase.FWM2_S2:
        num = p.omega1 * p.omega3 * p.omega_s3
        f1 = p.gamma31 + 1j * p.delta3
    else:
        num = p.omega1 * p.omega1 * p.omega_s1
        f1 = p.gamma31 + 1j * p.delta1
    f2 = p.gamma21 + 1j * d
    f3 = p.gamma31 + 1j * (d + p.delta1p)

    if case is DressingCase.RHO2_BY_E1:
        f2 = f2 + p.omega1 * p.omega1 / (p.gamma23 + 1j * (d - p.delta1))
    elif case is DressingCase.RHO2_BY_E3:
        f2 = f2 + p.omega3 * p.omega3 / (p.gamma23 + 1j * (d - p.delta3))
    elif case is DressingCase.RHO1_BY_E1:
        f1 = f1 + p.omega1 * p.omega1 / p.gamma33
    elif case is DressingCase.RHO3_BY_E1:
        f3 = f3 + p.omega1 * p.omega1 / (p.gamma33 + 1j * (d + p.delta1p - p.delta1))
    return num, f1, f2, f3


def rho3_numerator(case, p: AtomicParams) -> complex:
    """The constant -i * (Rabi-frequency product) in front of the chain."""
    num, _, _, _ = _chain_parts(case, p, 0.0)
    return -1j * num


def rho3_denominator(case, p: AtomicParams, delta1):
    """Product of the three complex resonance factors at deviation delta1."""
    d = np.asarray(delta1, dtype=float)
    _, f1, f2, f3 = _chain_parts(case, p, d)
    out = np.asarray(f1 * f2 * f3, dtype=complex)
    return complex(out) if np.ndim(delta1) == 0 else out


def rho3_dressed(case, p: AtomicParams, delta1):
    """Third-order coherence amplitude for any case (undressed tags included).
    Not finite, without a warning, where the parameters overflow."""
    d = np.asarray(delta1, dtype=float)
    with np.errstate(all="ignore"):
        num, f1, f2, f3 = _chain_parts(case, p, d)
        out = np.asarray(-1j * num / (f1 * f2 * f3), dtype=complex)
    return complex(out) if np.ndim(delta1) == 0 else out


def rho3_undressed(chain, p: AtomicParams, delta1):
    """Amplitude of one of the four bare perturbation chains."""
    chain = DressingCase(chain)
    if chain not in _UNDRESSED_CASES:
        raise ValueError(f"{chain.value!r} is a dressed case; use rho3_dressed")
    return rho3_dressed(chain, p, delta1)


# --------------------------------------------------------------------------
# resonances
# --------------------------------------------------------------------------


def analytic_resonances(case, p: AtomicParams) -> list:
    """Closed-form coherent-channel positions, sorted by delta1.

    Labels identify the formula: C1 is the channel inherited from the
    undressed chain factor that the dressing does not split; C2/C3 are the
    split pair (for two-channel cases C2 is the probe-coherence channel at
    delta1 = 0).
    """
    case = DressingCase(case)
    if case in (DressingCase.FWM1_S2, DressingCase.FWM2_S2, DressingCase.RHO1_BY_E1):
        channels = [("C1", -p.delta1p), ("C2", 0.0)]
    elif case is DressingCase.FWM1_S1:
        channels = [("C1", p.delta1), ("C2", 0.0)]
    elif case is DressingCase.FWM2_S3:
        channels = [("C1", p.delta3), ("C2", 0.0)]
    elif case in (DressingCase.RHO2_BY_E1, DressingCase.RHO2_BY_E3):
        if case is DressingCase.RHO2_BY_E1:
            det, omega = p.delta1, p.omega1
        else:
            det, omega = p.delta3, p.omega3
        root = math.sqrt(det * det + 4.0 * p.gamma21 * p.gamma23 + 4.0 * omega * omega)
        channels = [
            ("C1", -p.delta1p),
            ("C2", (det + root) / 2.0),
            ("C3", (det - root) / 2.0),
        ]
    elif case is DressingCase.RHO3_BY_E1:
        b = p.delta1 - 2.0 * p.delta1p
        disc = b * b - 4.0 * (
            p.delta1p * p.delta1p - p.delta1 * p.delta1p - p.omega1 * p.omega1
            - p.gamma31 * p.gamma33
        )
        if disc < 0:
            raise ResonanceError(
                f"no real resonance positions: discriminant {disc:.6g} < 0"
            )
        root = math.sqrt(disc)
        channels = [("C1", 0.0), ("C2", (b + root) / 2.0), ("C3", (b - root) / 2.0)]
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unhandled case {case!r}")
    if not all(math.isfinite(pos) for _, pos in channels):
        raise ValueError(f"the {case.value} channel positions are not finite for these parameters")
    return sorted(
        (CoherentChannel.at(lbl, pos) for lbl, pos in channels),
        key=lambda ch: ch.delta1,
    )


def _uniform_step(grid: np.ndarray) -> float:
    if grid.ndim != 1 or grid.size < 5:
        raise ValueError("delta1 grid must be a 1-d array with at least 5 points")
    steps = np.diff(grid)
    step = float(steps[0])
    if step <= 0 or np.max(np.abs(steps - step)) > 1e-9 * max(1.0, abs(step)):
        raise ValueError("delta1 grid must be uniformly increasing")
    return step


def find_peaks(case, p: AtomicParams, grid, on: str = "amplitude") -> list:
    """Local maxima of the spectrum on a uniform delta1 grid.

    The grid must cover every analytic resonance with a margin of at least
    5 * max(gamma) and its step must not exceed min(gamma). Interior strict
    maxima are refined with a three-point parabola; a plateau counts once, at
    its leftmost point. ``on="lineshape"`` searches 1/|denominator| instead
    of |amplitude| (identical peaks whenever the numerator is nonzero).
    """
    grid = np.asarray(grid, dtype=float)
    step = _uniform_step(grid)
    if step > p.min_gamma:
        raise ValueError(
            f"grid step {step:g} MHz is too coarse: must be <= min gamma {p.min_gamma:g} MHz"
        )
    margin = 5.0 * p.max_gamma
    positions = [ch.delta1 for ch in analytic_resonances(case, p)]
    lo, hi = grid[0] + margin, grid[-1] - margin
    outside = [pos for pos in positions if not (lo <= pos <= hi)]
    if outside:
        raise ValueError(
            f"grid [{grid[0]:g}, {grid[-1]:g}] does not cover resonances {outside} "
            f"with margin {margin:g} MHz"
        )
    if on == "amplitude":
        y = np.abs(rho3_dressed(case, p, grid))
    elif on == "lineshape":
        y = 1.0 / np.abs(rho3_denominator(case, p, grid))
    else:
        raise ValueError(f"unknown spectrum kind {on!r}")

    peaks = []
    i = 1
    last = grid.size - 1
    while i < last:
        if y[i] <= y[i - 1]:
            i += 1
            continue
        # run of equal values starting at i (single point in the generic case)
        j = i
        while j < last and y[j + 1] == y[i]:
            j += 1
        if j < last and y[j + 1] < y[i]:
            if i == j:
                ym, y0, yp = y[i - 1], y[i], y[i + 1]
                curv = ym - 2.0 * y0 + yp
                shift = 0.5 * (ym - yp) / curv
                peaks.append(
                    Peak(float(grid[i] + shift * step), float(y0 - 0.25 * (ym - yp) * shift))
                )
            else:
                peaks.append(Peak(float(grid[i]), float(y[i])))
        i = j + 1
    return peaks


# --------------------------------------------------------------------------
# dressed gain and criteria profiles
# --------------------------------------------------------------------------


def gain_profile(case, p: AtomicParams, grid, amplitude: float = 1.0):
    """Dressing-modulated amplitude gain along the deviation axis.

    G1(delta1) = cosh(amplitude * |rho3|/max|rho3|), so G1 >= 1 everywhere
    and its maxima sit at the coherent channels.
    """
    if not (amplitude >= 0):
        raise ValueError("gain-mapping amplitude must be >= 0")
    grid = np.asarray(grid, dtype=float)
    spectrum = np.abs(rho3_dressed(case, p, grid))
    if not np.isfinite(spectrum).all():
        raise ValueError(f"the {DressingCase(case).value} spectrum is not finite on this grid")
    top = spectrum.max() if spectrum.size else 0.0
    if top == 0.0:
        raise ValueError("spectrum is identically zero; cannot normalize the gain mapping")
    with np.errstate(over="ignore"):  # an infinite gain fails criteria_profile's finite check
        return grid.copy(), np.cosh(amplitude * spectrum / top)


def criteria_profile(
    system: str,
    case,
    p: AtomicParams,
    grid,
    amplitude: float,
    g2_amp: float,
    g3_amp: float | None = None,
    criteria=("D12",),
) -> Sweep:
    """Entanglement criteria along the deviation axis with G1 = G1(delta1).

    The first amplifier's gain follows the dressed spectrum via
    :func:`gain_profile`; the remaining gains stay fixed. The points are
    (delta1, G1) in grid order. Raises ValueError when a criterion value is
    not finite.
    """
    _, crits = parse_request(system, criteria)
    if (g3_amp is not None) != (system == "quad"):
        raise ValueError("four-mode profiles need g3_amp and three-mode profiles take none")
    delta, g1 = gain_profile(case, p, grid, amplitude)
    fixed = [g2_amp] if g3_amp is None else [g2_amp, g3_amp]
    gains = np.column_stack([g1] + [np.full_like(g1, g) for g in fixed])
    values = _walk(system, gains, crits, 1)
    axes, points = ("delta1", "G1"), np.column_stack([delta, g1])
    labels = tuple(c.label for c in crits)
    return Sweep(axes, points, labels, values, verdicts(crits, values, axes, points))
