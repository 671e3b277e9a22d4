"""Duan and PPT entanglement criteria for the cascaded-FWM output states.

The Duan value for a mode pair (i, j) is

    D_ij = V(Xi - Xj) + V(Pi + Pj),

with separable states satisfying D_ij >= 4 in this normalization; a value
below 4 certifies entanglement. The PPT value for a bipartition A|B is the
smallest symplectic eigenvalue of the partially transposed covariance matrix
minus 1, so separability requires value >= 0 and a negative value certifies
entanglement (necessary and sufficient only for 1-vs-n splits).

Criterion labels accepted by the sweep machinery:

* ``"D12"``            Duan value of modes 1 and 2.
* ``"PPT:1|23"``       PPT value of the bipartition {1} | {2,3}.

A PPT label whose two sides do not cover all modes of the state is evaluated
on the reduced covariance matrix of the modes it names, e.g. ``"PPT:1|3"``
inside a three-mode state traces out mode 2 first.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .gaussian import _as_cm, _min_symplectic_eigenvalue_batch
from .model import quad_transform_batch, tri_transform_batch

DUAN_BOUND = 4.0


def _gain_arrays(*gains) -> list:
    """The amplitude gains as float arrays; ValueError unless all are >= 1."""
    arrays = [np.asarray(g, dtype=float) for g in gains]
    if not all((a >= 1.0).all() for a in arrays):
        raise ValueError("amplitude gains must be >= 1")
    return arrays


def duan_tri_closed_grid(pair: str, g1_amp, g2_amp):
    """Vectorized closed-form three-mode Duan values over gain arrays."""
    big1, big2 = _gain_arrays(g1_amp, g2_amp)
    if pair == "12":
        c1 = np.sqrt(big1**2 - 1.0)
        return 4.0 * (big1**2 * (big2**2 + 1.0) - 2.0 * big1 * big2 * c1 - 1.0)
    if pair == "13":
        return 4.0 * big1**2 * big2**2
    if pair == "23":
        c2 = np.sqrt(big2**2 - 1.0)
        return 4.0 * big1**2 * (2.0 * big2**2 - 2.0 * big2 * c2 - 1.0)
    raise ValueError(f"unknown three-mode pair label {pair!r}; expected 12, 13 or 23")


def duan_quad_closed_grid(pair: str, g1_amp, g2_amp, g3_amp):
    """Vectorized closed-form four-mode Duan values over gain arrays."""
    big1, big2, big3 = _gain_arrays(g1_amp, g2_amp, g3_amp)
    if pair == "12":
        c1 = np.sqrt(big1**2 - 1.0)
        return 4.0 * (
            big1**2 * big2**2 + big1**2 * big3**2 - 2.0 * big1 * big2 * big3 * c1 - 1.0
        )
    if pair in ("13", "24"):
        return 4.0 * big1**2 * (big2**2 + big3**2 - 1.0)
    if pair == "14":
        c3 = np.sqrt(big3**2 - 1.0)
        return 4.0 * big1**2 * (2.0 * big3**2 - 2.0 * big3 * c3 - 1.0)
    if pair == "23":
        c2 = np.sqrt(big2**2 - 1.0)
        return 4.0 * big1**2 * (2.0 * big2**2 - 2.0 * big2 * c2 - 1.0)
    if pair == "34":
        c1 = np.sqrt(big1**2 - 1.0)
        c2 = np.sqrt(big2**2 - 1.0)
        c3 = np.sqrt(big3**2 - 1.0)
        return 4.0 * (
            -2.0 * big1**2 + big1**2 * big2**2 + big1**2 * big3**2
            - 2.0 * big1 * c1 * c2 * c3 + 1.0
        )
    raise ValueError(f"unknown four-mode pair label {pair!r}")


#: region names indexed by (D12 < 4) + 2 * (D23 < 4)
_REGION_NAMES = np.array(["none", "I", "II", "III"])


def classify_tri_region(g1_amp, g2_amp) -> np.ndarray:
    """Entanglement regions of the three-mode source at gains (G1, G2),
    scalars or arrays.

    "I" if only D12 < 4, "II" if only D23 < 4, "III" if both, "none" otherwise
    (D13 never violates the bound).
    """
    d12 = duan_tri_closed_grid("12", g1_amp, g2_amp) < DUAN_BOUND
    d23 = duan_tri_closed_grid("23", g1_amp, g2_amp) < DUAN_BOUND
    return _REGION_NAMES[d12 + 2 * d23]


# --------------------------------------------------------------------------
# criterion labels and batched evaluation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Criterion:
    """Parsed criterion label: a Duan pair or a PPT bipartition."""

    kind: str  # "duan" | "ppt"
    modes_a: tuple
    modes_b: tuple
    label: str


class CriterionError(ValueError):
    """Raised for criterion labels that cannot be parsed for the given system."""


def _parse_mode_group(text: str, n_modes: int, label: str) -> tuple:
    if not text or not text.isdigit():
        raise CriterionError(f"invalid criterion label {label!r}")
    modes = tuple(sorted(int(ch) for ch in text))
    if len(set(modes)) != len(modes):
        raise CriterionError(f"repeated mode in criterion label {label!r}")
    if any(m < 1 or m > n_modes for m in modes):
        raise CriterionError(f"criterion label {label!r} names a mode outside 1..{n_modes}")
    return modes


def parse_criterion(label: str, n_modes: int) -> Criterion:
    """Parse ``"Dij"`` or ``"PPT:a...|b..."`` into a Criterion."""
    if label.startswith("D") and ":" not in label:
        modes = _parse_mode_group(label[1:], n_modes, label)
        if len(modes) != 2:
            raise CriterionError(f"Duan label {label!r} must name exactly two modes")
        return Criterion("duan", (modes[0],), (modes[1],), label)
    if label.startswith("PPT:"):
        body = label[4:]
        if body.count("|") != 1:
            raise CriterionError(f"PPT label {label!r} must contain exactly one '|'")
        a_text, b_text = body.split("|")
        modes_a = _parse_mode_group(a_text, n_modes, label)
        modes_b = _parse_mode_group(b_text, n_modes, label)
        if set(modes_a) & set(modes_b):
            raise CriterionError(f"PPT label {label!r} has overlapping sides")
        return Criterion("ppt", modes_a, modes_b, label)
    raise CriterionError(f"unknown criterion label {label!r}")


def _pure_split_value(block: np.ndarray) -> np.ndarray:
    """PPT value of 1|n-1 splits of pure states from the single mode's
    reduced CMs ``block`` (..., 2, 2).

    By the mode-wise normal form of pure Gaussian states (Holevo & Werner,
    PRA 63, 032312 (2001); Botero & Reznik, PRA 67, 052311 (2003)), the
    partial transpose has smallest symplectic eigenvalue
    1/(nu + sqrt(nu^2 - 1)), with nu^2 = det of the mode's CM = ab - c^2.
    A determinant below 1 by more than its roundoff bound,
    64 eps (|ab| + |c^2|), raises ValueError.
    """
    ab = block[..., 0, 0] * block[..., 1, 1]
    cc = block[..., 0, 1] * block[..., 1, 0]
    nu2 = ab - cc
    if np.any(nu2 < 1.0 - 64 * np.finfo(float).eps * (np.abs(ab) + np.abs(cc))):
        raise ValueError("a single-mode reduced covariance matrix has determinant below 1")
    return 1.0 / (np.sqrt(nu2) + np.sqrt(np.maximum(nu2 - 1.0, 0.0))) - 1.0


def evaluate_criterion_batch(sigmas: np.ndarray, crit: Criterion, pure: bool = False) -> np.ndarray:
    """Evaluate one criterion on a stack of covariance matrices (..., 2n, 2n).

    ``pure`` states that every matrix is the CM of a pure state (U U^T of
    a symplectic U): a PPT split of one mode against all others then takes
    the closed form :func:`_pure_split_value`. Every other PPT label takes
    the smallest symplectic eigenvalue of the reduced, partially transposed
    CM (:func:`~delcfwm.gaussian._min_symplectic_eigenvalue_batch`).
    A criterion naming a mode beyond the matrices' raises CriterionError.
    """
    n = sigmas.shape[-1] // 2
    if max(crit.modes_a + crit.modes_b) > n:
        raise CriterionError(f"criterion {crit.label} names a mode outside 1..{n}")
    if crit.kind == "duan":
        xi, xj = 2 * crit.modes_a[0] - 2, 2 * crit.modes_b[0] - 2
        pi, pj = xi + 1, xj + 1
        return (
            sigmas[..., xi, xi] + sigmas[..., xj, xj] - 2.0 * sigmas[..., xi, xj]
            + sigmas[..., pi, pi] + sigmas[..., pj, pj] + 2.0 * sigmas[..., pi, pj]
        )
    kept = sorted(crit.modes_a + crit.modes_b)
    single = min(crit.modes_a, crit.modes_b, key=len)
    if pure and len(kept) == n and len(single) == 1:
        q = 2 * single[0] - 2
        return _pure_split_value(sigmas[..., q:q + 2, q:q + 2])
    if len(kept) < n:
        idx = [q for m in kept for q in (2 * m - 2, 2 * m - 1)]
        sigmas = sigmas[..., idx, :][..., :, idx]
    # partial transposition on side A flips the sign of its modes' P rows and columns
    signs = np.array([-1.0 if p and m in crit.modes_a else 1.0 for m in kept for p in (0, 1)])
    return _min_symplectic_eigenvalue_batch(signs[:, None] * sigmas * signs[None, :]) - 1.0


def evaluate_criterion(sigma, crit: Criterion | str) -> float:
    """:func:`evaluate_criterion_batch` of a single state. ``crit`` is a
    Criterion or a label such as ``"PPT:1|23"``, parsed against the mode
    count of ``sigma``."""
    sigma = _as_cm(sigma)
    if isinstance(crit, str):
        crit = parse_criterion(crit, sigma.shape[0] // 2)
    return float(evaluate_criterion_batch(sigma[None], crit)[0])


def verdicts(crits: list, values: np.ndarray, axes: tuple, points: np.ndarray) -> np.ndarray:
    """Entanglement flags of (points, criteria) ``values``: strictly below 4
    (Duan) or 0 (PPT). A non-finite value raises ValueError naming its
    label and its point, a row of ``points`` with coordinates ``axes``.
    """
    bad = ~np.isfinite(values)
    if bad.any():
        p_idx, c_idx = np.argwhere(bad)[0]
        value = float(values[p_idx, c_idx])
        where = ", ".join(f"{n}={v!r}" for n, v in zip(axes, points[p_idx].tolist()))
        raise ValueError(f"criterion {crits[c_idx].label} is not finite ({value!r}) at {where}")
    return values < np.array([DUAN_BOUND if c.kind == "duan" else 0.0 for c in crits])


# --------------------------------------------------------------------------
# gain-grid sweeps
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GridAxis:
    """Inclusive uniform range start, start+step, ..., stop."""

    start: float
    stop: float
    step: float

    def values(self) -> np.ndarray:
        if not all(map(math.isfinite, (self.start, self.stop, self.step))):
            raise ValueError(f"grid start, stop and step must be finite, got {self}")
        if self.step <= 0:
            raise ValueError(f"grid step must be > 0, got {self.step}")
        if self.stop < self.start:
            raise ValueError("grid stop must be >= start")
        span = (self.stop - self.start) / self.step
        if not math.isfinite(span):
            raise ValueError(f"grid has too many points: {self}")
        count = int(round(span)) + 1
        return self.start + self.step * np.arange(count)


@dataclass(frozen=True, eq=False)
class Sweep:
    """Criteria over a list of points, as columns.

    Row p of ``points`` (points, len(axes)), of ``values`` and ``entangled``
    (points, criteria) and of ``region`` (points,) is point p; column c of
    ``values`` is criterion ``labels[c]`` (sorted). ``region`` is None
    except for three-mode gain sweeps.
    """

    axes: tuple
    points: np.ndarray
    labels: tuple
    values: np.ndarray
    entangled: np.ndarray
    region: np.ndarray | None = None


def _axis_values(axis) -> np.ndarray:
    if isinstance(axis, GridAxis):
        vals = axis.values()
    else:
        vals = np.atleast_1d(np.asarray(axis, dtype=float))
    if vals.size == 0:
        raise ValueError("empty gain grid")
    if np.any(~(vals >= 1.0)) or not np.isfinite(vals).all():
        raise ValueError("all gains in a sweep must be finite and >= 1")
    return vals


def parse_request(system: str, criteria) -> tuple:
    """Gain axis names of ``system`` ("tri" or "quad") and its parsed
    criteria, sorted by label and without repeats."""
    if system not in ("tri", "quad"):
        raise ValueError(f"unknown system {system!r}; expected 'tri' or 'quad'")
    names = ("G1", "G2") if system == "tri" else ("G1", "G2", "G3")
    labels = sorted(set(criteria))
    if not labels:
        raise ValueError("no criteria requested")
    return names, [parse_criterion(lbl, len(names) + 1) for lbl in labels]


#: grid points per block: sweeps and profiles evaluate their points block by
#: block, so the transforms, covariance matrices and kernel temporaries held
#: at once do not grow with the grid
BLOCK = 1024


def _sweep_chunk(system: str, pts: np.ndarray, crits: list) -> np.ndarray:
    """Values (points, criteria) of the pure output states at the gains
    ``pts``; NaN at points whose covariance matrix is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        if system == "tri":
            u = tri_transform_batch(pts[:, 0], pts[:, 1])
        else:
            u = quad_transform_batch(pts[:, 0], pts[:, 1], pts[:, 2])
        sigmas = u @ u.transpose(0, 2, 1)
        bad = ~np.isfinite(sigmas).all(axis=(1, 2))
        sigmas[bad] = np.eye(sigmas.shape[-1])  # a valid stand-in, so no kernel sees inf or NaN
        values = np.column_stack([evaluate_criterion_batch(sigmas, c, pure=True) for c in crits])
    values[bad] = np.nan
    return values


def _walk(system: str, pts: np.ndarray, crits: list, jobs: int) -> np.ndarray:
    """Values (points, criteria) at the gains ``pts``: :func:`_sweep_chunk`
    of each block of BLOCK points, on ``jobs`` worker threads. The blocks
    do not depend on ``jobs``, so neither do the values."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    size = BLOCK
    starts = range(0, pts.shape[0], size)
    values = np.empty((pts.shape[0], len(crits)))
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        parts = pool.map(lambda lo: _sweep_chunk(system, pts[lo:lo + size], crits), starts)
        for lo, part in zip(starts, parts):
            values[lo:lo + size] = part
    return values


def sweep_criteria(system: str, axes: dict, criteria, jobs: int = 1) -> Sweep:
    """Evaluate criteria over a gain grid.

    Parameters
    ----------
    system : "tri" or "quad"
    axes : mapping with keys "G1", "G2" (and "G3" for quad); each value is a
        GridAxis or a fixed float.
    criteria : iterable of criterion label strings.
    jobs : number of worker threads (>= 1); they share the grid's fixed
        blocks of BLOCK points, so the output is identical for any value.

    Raises ValueError when ``jobs`` < 1 or a criterion value is not finite.
    """
    names, crits = parse_request(system, criteria)
    missing = [k for k in names if k not in axes]
    extra = [k for k in axes if k not in names]
    if missing or extra:
        raise ValueError(f"sweep axes must be exactly {names}; missing {missing}, extra {extra}")
    grids = np.meshgrid(*[_axis_values(axes[k]) for k in names], indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    values = _walk(system, pts, crits, jobs)
    entangled = verdicts(crits, values, names, pts)
    region = classify_tri_region(*pts.T) if system == "tri" else None
    return Sweep(names, pts, tuple(c.label for c in crits), values, entangled, region)
