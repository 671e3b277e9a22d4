"""The PPT kernel against the eigvals oracle (``oracle.py``).

Every PPT value of the bundled PPT presets and of the golden-hash grids must
match the oracle within 1e-11 relative, and its verdict must match wherever
the oracle lies outside the 1e-9 roundoff band of the bound. Property tests
cover gains up to 50 on every three- and four-mode label, and invalid input.
"""

import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from delcfwm.cli import main
from delcfwm.criteria import (
    CriterionError,
    evaluate_criterion,
    evaluate_criterion_batch,
    parse_criterion,
)
from delcfwm.gaussian import _min_symplectic_eigenvalue_batch, symplectic_eigenvalues
from delcfwm.presets import load_preset
from test_cli import QUAD_GRID, QUAD_LABELS, TRI_GRID, TRI_LABELS, write_config

#: relative agreement of a PPT value with the oracle
AGREEMENT = 1e-11
#: around the bound 0 a verdict is roundoff and is not compared
BAND = 1e-9


def _ppt_rows(path, fixed):
    """Gains, label, value and verdict of each PPT row of a CSV output.

    ``fixed`` holds the gains absent from the rows (a profile's G2, G3).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.DictReader(fh) if r["criterion"].startswith("PPT:")]
    assert rows, "the output has no PPT rows"
    axes = [a for a in ("G1", "G2", "G3") if a in rows[0]]
    gains = np.array([[float(r[a]) for a in axes] + fixed for r in rows])
    labels = np.array([r["criterion"] for r in rows])
    values = np.array([float(r["value"]) for r in rows])
    entangled = np.array([r["entangled"] == "true" for r in rows])
    return gains, labels, values, entangled


def _profile_gains(name):
    gains = load_preset(name)["gains"]
    return [float(gains[k]) for k in ("G2", "G3") if k in gains]


CASES = [
    (["region-scan", "--preset", "fig4"], None, []),
    (["region-scan", "--preset", "fig6"], None, []),
    (["region-scan"], TRI_GRID, []),
    (["region-scan"], QUAD_GRID, []),
    (["profile", "--preset", "fig9_tri"], None, _profile_gains("fig9_tri")),
    (["profile", "--preset", "fig9_quad"], None, _profile_gains("fig9_quad")),
]


@pytest.mark.parametrize(
    "args, config, fixed", CASES, ids=["fig4", "fig6", "tri21", "quad7", "fig9_tri", "fig9_quad"]
)
def test_ppt_values_agree_with_oracle(tmp_path, args, config, fixed):
    if config is not None:
        args = args + ["--config", write_config(tmp_path, config)]
    out = tmp_path / "out.csv"
    assert main(args + ["--format", "csv", "--out", str(out)]) == 0
    gains, labels, values, entangled = _ppt_rows(out, fixed)
    sigmas = oracle.output_cms(gains)
    for label in np.unique(labels):
        rows = labels == label
        want = oracle.ppt_values(sigmas[rows], label)
        err = np.abs(values[rows] - want) / np.maximum(1.0, np.abs(want))
        assert err.max() <= AGREEMENT, f"{label}: relative error {err.max():.3e}"
        decided = np.abs(want) > BAND
        assert np.array_equal(entangled[rows][decided], want[decided] < 0.0), label


# --------------------------------------------------------------------------
# properties over gains far beyond the presets
# --------------------------------------------------------------------------

EPS = np.finfo(float).eps
#: symplectic eigenvalues are conditioned like ||sigma||^2 (the symplectic
#: diagonaliser of a pure state has norm sqrt||sigma||), so every route and
#: the oracle may differ by this many eps ||sigma||^2
COND = 8.0
#: mode pairs coupled by each amplifier gain, tri (G1, G2) and quad (G1, G2, G3)
COUPLINGS = {2: ((1, 2), (2, 3)), 3: ((1, 2), (2, 3), (1, 4))}

GAIN = st.floats(1.0, 50.0)
#: a gain of exactly 1 decouples its amplifier's modes
GAIN_OR_ONE = st.one_of(st.just(1.0), GAIN)
#: tri (G1, G2) or quad (G1, G2, G3) gains
GAINS = st.integers(2, 3).flatmap(lambda k: st.lists(GAIN_OR_ONE, min_size=k, max_size=k))


def _ppt_crits(gains):
    labels = TRI_LABELS if len(gains) == 2 else QUAD_LABELS
    return [parse_criterion(lbl, len(gains) + 1) for lbl in labels if lbl.startswith("PPT:")]


def _state(gains):
    sigmas = oracle.output_cms(np.array([gains]))
    return sigmas, EPS * np.linalg.norm(sigmas[0], 2) ** 2


def _pure_split(crit, n_modes):
    sides = (len(crit.modes_a), len(crit.modes_b))
    return sum(sides) == n_modes and 1 in sides


def _decoupled(crit, gains):
    """No mode of side A is coupled, through amplifiers with gain > 1, to a mode of side B."""
    group = {m: {m} for m in range(1, len(gains) + 2)}
    for g, (i, j) in zip(gains, COUPLINGS[len(gains)]):
        if g > 1.0:
            joined = group[i] | group[j]
            group.update(dict.fromkeys(joined, joined))
    return not any(group[m] & set(crit.modes_b) for m in crit.modes_a)


@settings(max_examples=60, deadline=None)
@given(GAINS)
def test_kernel_matches_oracle(gains):
    sigmas, scale = _state(gains)
    for crit in _ppt_crits(gains):
        want = oracle.ppt_values(sigmas, crit.label)[0]
        for pure in (True, False):
            got = evaluate_criterion_batch(sigmas, crit, pure=pure)[0]
            assert abs(got - want) <= COND * scale, (crit.label, pure, got, want)


@settings(max_examples=60, deadline=None)
@given(GAINS)
def test_closed_form_matches_hermitian_route(gains):
    sigmas, scale = _state(gains)
    for crit in _ppt_crits(gains):
        if _pure_split(crit, len(gains) + 1):
            closed = evaluate_criterion_batch(sigmas, crit, pure=True)[0]
            hermitian = evaluate_criterion_batch(sigmas, crit)[0]
            assert abs(closed - hermitian) <= COND * scale, crit.label


@settings(max_examples=80, deadline=None)
@given(GAINS)
def test_decoupled_splits_are_not_entangled(gains):
    """A split that unit gains decouple is separable, value >= 0: exactly
    for the closed form, within the conditioning bound otherwise."""
    sigmas, scale = _state(gains)
    for crit in _ppt_crits(gains):
        if _decoupled(crit, gains):
            value = evaluate_criterion_batch(sigmas, crit, pure=True)[0]
            bound = 4 * EPS if _pure_split(crit, len(gains) + 1) else COND * scale
            assert value >= -bound, (crit.label, value)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(GAIN, min_size=3, max_size=3), min_size=1, max_size=5))
def test_scalar_equals_batch(points):
    sigmas = oracle.output_cms(np.array(points))
    for crit in _ppt_crits(points[0]):
        batch = evaluate_criterion_batch(sigmas, crit)
        assert batch.tolist() == [evaluate_criterion(s, crit) for s in sigmas]
    nus = [symplectic_eigenvalues(s)[0] for s in sigmas]
    assert _min_symplectic_eigenvalue_batch(sigmas).tolist() == nus


@settings(max_examples=30, deadline=None)
@given(st.floats(1e-3, 1e6), st.integers(1, 4))
def test_non_positive_definite_rejected(scale, n_modes):
    sigma = -scale * np.eye(2 * n_modes)
    with pytest.raises(ValueError, match="positive definite"):
        symplectic_eigenvalues(sigma)
    if n_modes > 1:
        label = f"PPT:1|{''.join(map(str, range(2, n_modes + 1)))}"
        with pytest.raises(ValueError, match="positive definite"):
            evaluate_criterion(sigma, label)


def test_closed_form_rejects_determinant_below_one():
    crit = parse_criterion("PPT:1|23", 3)
    with pytest.raises(ValueError, match="determinant below 1"):
        evaluate_criterion_batch(0.5 * np.eye(6)[None], crit, pure=True)
    assert evaluate_criterion_batch(np.eye(6)[None], crit, pure=True)[0] == 0.0


@pytest.mark.parametrize("label", ["D13", "PPT:1|3", "PPT:1|23"])
def test_mode_beyond_the_matrices_rejected(label):
    with pytest.raises(CriterionError, match=re.escape(f"{label} names a mode outside 1..2")):
        evaluate_criterion_batch(np.eye(4)[None], parse_criterion(label, 3))


def test_non_finite_matrix_rejected():
    with pytest.raises(ValueError, match="not finite"):
        symplectic_eigenvalues(np.full((4, 4), np.nan))
