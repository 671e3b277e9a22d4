"""Self-validation checks for the package.

Each check pins a quantitative property of the implementation (closed-form
equality, symplecticity, purity, entanglement sign structure, resonance
agreement, oracle equivalence, ...) with an explicit tolerance, and some
carry a wall-clock budget. They back both ``delcfwm validate`` and the
acceptance test module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import coherence, criteria, fock, gaussian, model

TRI_PAIRS = ("12", "13", "23")
QUAD_PAIRS = ("12", "13", "14", "23", "24", "34")

#: four-mode bipartitions that must test entangled at the reference preset
QUAD_ENTANGLED = (
    "PPT:1|234",
    "PPT:2|134",
    "PPT:3|124",
    "PPT:4|123",
    "PPT:12|34",
    "PPT:13|24",
    "PPT:14|23",
)
#: and those that must not
QUAD_SEPARABLE = ("PPT:1|3", "PPT:2|4", "PPT:3|4", "PPT:3|14", "PPT:4|23")

#: expected numeric peak counts per dressing case at the default parameters
EXPECTED_PEAKS = {
    coherence.DressingCase.RHO2_BY_E1: 3,
    coherence.DressingCase.RHO1_BY_E1: 2,
    coherence.DressingCase.RHO3_BY_E1: 3,
    coherence.DressingCase.RHO2_BY_E3: 3,
    coherence.DressingCase.FWM1_S2: 2,
}

DEFAULT_SPECTRUM_GRID = np.arange(-50.0, 40.0 + 1e-9, 0.1)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


#: reference gain axes: [1, 3] step 0.01 (three-mode), [1, 2] step 0.02 (four-mode)
TRI_AXIS = 1.0 + 0.01 * np.arange(201)
QUAD_AXIS = 1.0 + 0.02 * np.arange(51)


def _reference_transforms():
    """Transforms at every point of the three-mode, then the four-mode
    reference grid, in blocks of criteria.BLOCK points."""
    for build, axes in ((model.tri_transform_batch, [TRI_AXIS] * 2),
                        (model.quad_transform_batch, [QUAD_AXIS] * 3)):
        grid = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
        for lo in range(0, grid[0].size, criteria.BLOCK):
            yield build(*(g[lo:lo + criteria.BLOCK] for g in grid))


def _sweep(system, axis, labels):
    """Criteria over the full reference grid of ``system``."""
    names = criteria.parse_request(system, labels)[0]
    return criteria.sweep_criteria(system, dict.fromkeys(names, axis), labels)


def check_closed_form():
    """CM-derived Duan values equal the closed forms on the reference grids."""
    worst = 0.0
    for system, axis, pairs, closed in (
        ("tri", TRI_AXIS, TRI_PAIRS, criteria.duan_tri_closed_grid),
        ("quad", QUAD_AXIS, QUAD_PAIRS, criteria.duan_quad_closed_grid),
    ):
        sweep = _sweep(system, axis, [f"D{pair}" for pair in pairs])
        for c_idx, pair in enumerate(pairs):  # pairs are sorted, like the labels
            diff = np.abs(sweep.values[:, c_idx] - closed(pair, *sweep.points.T))
            worst = max(worst, float(diff.max()))
    return worst < 1e-9, f"max |CM Duan - closed form| = {worst:.3e} (tol 1e-9)"


def check_symplecticity():
    """Every transform on the reference grids satisfies U Omega U^T = Omega."""
    worst = 0.0
    for u in _reference_transforms():
        worst = max(worst, gaussian.is_symplectic(u)[1])
    return worst < 1e-10, f"max |U Omega U^T - Omega| = {worst:.3e} (tol 1e-10)"


def check_purity():
    """Output covariance matrices have all symplectic eigenvalues equal to 1."""
    worst = 0.0
    for u in _reference_transforms():
        nus, _ = gaussian._symplectic_spectrum(u @ u.transpose(0, 2, 1))
        worst = max(worst, float(np.abs(nus - 1.0).max()))
    return worst < 1e-8, f"max |nu - 1| = {worst:.3e} (tol 1e-8)"


def check_separability_1_3():
    """Modes 1 and 3 of the three-mode source never entangle for G1, G2 > 1."""
    d13, ppt = _sweep("tri", TRI_AXIS[1:], ["D13", "PPT:1|3"]).values.T  # interior of the grid
    ok = bool(np.all(d13 > 4.0) and np.all(ppt >= 0.0))
    return ok, f"min D13 = {d13.min():.6f} (> 4), min PPT value = {ppt.min():.3e} (>= 0)"


def check_tri_regions():
    """The (G1, G2) plane shows all three entanglement regions, with witnesses."""
    v = 1.0 + 0.02 * np.arange(101)
    regions = criteria.classify_tri_region(*np.meshgrid(v, v, indexing="ij"))
    names, n = np.unique(regions, return_counts=True)
    counts = {"I": 0, "II": 0, "III": 0, "none": 0}
    counts.update(zip(names.tolist(), n.tolist()))
    # witness gains (G1, G2) of regions I, II and III
    witnesses = criteria.classify_tri_region([1.2, 1.05, 1.3], [1.0001, 2.0, 1.05])
    wit_ok = witnesses.tolist() == ["I", "II", "III"]
    ok = counts["I"] > 0 and counts["II"] > 0 and counts["III"] > 0 and wit_ok
    return ok, f"region counts {counts}, witnesses {'ok' if wit_ok else 'WRONG'}"


def check_quad_structure():
    """Four-mode identities and the sign structure at G2=1.3, G3=1.1."""
    duan = _sweep("quad", QUAD_AXIS, ["D13", "D14", "D23", "D24"]).values
    d13, d14, d23, d24 = duan.T.reshape((4,) + (QUAD_AXIS.size,) * 3)  # axes G1, G2, G3
    sym_diff = float(np.abs(d13 - d24).max())
    d14_spread = float(np.ptp(d14, axis=1).max())  # along G2
    d23_spread = float(np.ptp(d23, axis=2).max())  # along G3

    g1_axis = 1.0 + 0.01 * np.arange(1, 101)  # (1, 2]
    sweep = criteria.sweep_criteria(
        "quad",
        {"G1": g1_axis, "G2": 1.3, "G3": 1.1},
        QUAD_ENTANGLED + QUAD_SEPARABLE,
    )
    must_entangle = np.isin(sweep.labels, QUAD_ENTANGLED)
    ent_max = float(sweep.values[:, must_entangle].max())
    sep_min = float(sweep.values[:, ~must_entangle].min())

    # some separable splits sit exactly on the boundary (value 0), so the
    # nonnegativity assertion carries an eigensolver-roundoff guard
    ok = (
        sym_diff < 1e-12
        and d14_spread < 1e-10
        and d23_spread < 1e-10
        and ent_max < 0.0
        and sep_min >= -1e-12
    )
    return ok, (
        f"|D13-D24| = {sym_diff:.2e} (tol 1e-12), D14 spread over G2 = {d14_spread:.2e}, "
        f"D23 spread over G3 = {d23_spread:.2e} (tol 1e-10); at G2=1.3, G3=1.1: "
        f"max entangled PPT = {ent_max:.3e} (< 0), min separable PPT = {sep_min:.3e} "
        f"(>= 0 within 1e-12 roundoff)"
    )


def check_resonances():
    """Numeric peaks match the closed-form channel positions and counts."""
    p = coherence.AtomicParams()
    grid = DEFAULT_SPECTRUM_GRID
    step = float(grid[1] - grid[0])
    tol = max(2.0 * step, 2.0 * p.gamma21)
    problems = []
    worst = 0.0
    for case, expected in EXPECTED_PEAKS.items():
        channels = coherence.analytic_resonances(case, p)
        peaks = coherence.find_peaks(case, p, grid)
        if len(peaks) != expected:
            problems.append(f"{case.value}: {len(peaks)} peaks, expected {expected}")
            continue
        if len(channels) != expected:
            problems.append(f"{case.value}: {len(channels)} analytic channels, expected {expected}")
            continue
        for ch, pk in zip(channels, peaks):  # both sorted by position
            diff = abs(ch.delta1 - pk.delta1)
            worst = max(worst, diff)
            if diff > tol:
                problems.append(
                    f"{case.value}: peak {pk.delta1:.3f} vs channel {ch.label} {ch.delta1:.3f}"
                )
    ok = not problems
    detail = f"worst |numeric - analytic| = {worst:.3f} MHz (tol {tol:.1f})"
    if problems:
        detail += "; " + "; ".join(problems)
    return ok, detail


def check_energy_conservation():
    """Channel deviations obey delta2 = -delta1, delta3 = delta1, sum = 0 exactly."""
    p = coherence.AtomicParams()
    for case in EXPECTED_PEAKS:
        for ch in coherence.analytic_resonances(case, p):
            if ch.delta2 != -ch.delta1 or ch.delta3 != ch.delta1:
                return False, f"{case.value}/{ch.label}: companion deviations wrong"
            if ch.delta1 + ch.delta2 + ch.delta2p + ch.delta3 != 0.0:
                return False, f"{case.value}/{ch.label}: deviations do not sum to zero"
    return True, "all channels satisfy the deviation relations exactly"


def check_capacity():
    """Information capacity is the cube of the channel count."""
    values = {n: coherence.channel_capacity(n) for n in (1, 2, 3)}
    ok = values == {1: 1, 2: 8, 3: 27}
    return ok, f"capacity(1, 2, 3) = {tuple(values.values())}"


def check_oracle_tri():
    """Truncated-basis three-mode covariance matches the transform route."""
    r = 0.2
    state = fock.vacuum_state(3, 12)
    state = fock.evolve_tms(state, 1, 2, r)
    state = fock.evolve_tms(state, 2, 3, r)
    sigma_fock = fock.covariance_from_state(state)
    gains = model.GainSet(math.cosh(r), math.cosh(r))
    sigma_model = model.output_cm(model.build_tri_transform(gains))
    diff = float(np.abs(sigma_fock - sigma_model).max())
    return diff < 1e-3, f"max entry diff = {diff:.2e} (tol 1e-3, r={r}, cutoff 12)"


def check_oracle_quad():
    """Truncated-basis four-mode covariance matches the transform route."""
    r = 0.15
    state = fock.vacuum_state(4, 8)
    state = fock.evolve_tms(state, 1, 2, r)
    state = fock.evolve_tms(state, 1, 4, r)
    state = fock.evolve_tms(state, 2, 3, r)
    sigma_fock = fock.covariance_from_state(state)
    gains = model.GainSet(math.cosh(r), math.cosh(r), math.cosh(r))
    sigma_model = model.output_cm(model.build_quad_transform(gains))
    diff = float(np.abs(sigma_fock - sigma_model).max())
    return diff < 1e-3, f"max entry diff = {diff:.2e} (tol 1e-3, r={r}, cutoff 8)"


#: (name, function, wall-clock budget in seconds or None)
CHECKS = (
    ("closed-form", check_closed_form, 30.0),
    ("symplecticity", check_symplecticity, None),
    ("purity", check_purity, None),
    ("separability-1-3", check_separability_1_3, None),
    ("tri-regions", check_tri_regions, None),
    ("quad-structure", check_quad_structure, None),
    ("resonances", check_resonances, 5.0),
    ("energy-conservation", check_energy_conservation, None),
    ("capacity", check_capacity, None),
    ("oracle-tri", check_oracle_tri, 60.0),
    ("oracle-quad", check_oracle_quad, 60.0),
)


def run_check(name: str) -> CheckResult:
    for check_name, fn, budget in CHECKS:
        if check_name == name:
            start = time.perf_counter()
            ok, detail = fn()
            seconds = time.perf_counter() - start
            if budget is not None:
                detail += f"; runtime {seconds:.1f}s (budget {budget:.0f}s)"
                ok = ok and seconds <= budget
            return CheckResult(name, ok, detail, seconds)
    raise KeyError(f"unknown check {name!r}")


def run_checks(name_filter: str | None = None) -> list:
    """Run all checks whose name contains ``name_filter`` (all when None)."""
    selected = [name for name, _, _ in CHECKS if not name_filter or name_filter in name]
    if not selected:
        raise KeyError(f"no check matches filter {name_filter!r}")
    return [run_check(name) for name in selected]
