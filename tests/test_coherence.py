import math

import numpy as np
import pytest

from delcfwm import (
    AtomicParams,
    CoherentChannel,
    DressingCase,
    Peak,
    analytic_resonances,
    channel_capacity,
    criteria,
    criteria_profile,
    duan_tri_closed_grid,
    find_peaks,
    gain_profile,
    rho3_denominator,
    rho3_dressed,
    rho3_undressed,
)
from delcfwm.coherence import _peaks

WIDE_GRID = np.arange(-50.0, 40.0 + 1e-9, 0.1)

#: parameter set used by the closed-form examples below
TABLE_PARAMS = AtomicParams(omega1=10.0, omega3=10.0)


class TestAtomicParams:
    def test_defaults_valid(self):
        p = AtomicParams()
        assert p.min_gamma == 1.0 and p.max_gamma == 1.0

    def test_omega_s3_defaults_to_omega_s1(self):
        assert AtomicParams(omega_s1=2.5).omega_s3 == 2.5
        assert AtomicParams(omega_s1=2.5, omega_s3=0.5).omega_s3 == 0.5

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError):
            AtomicParams(gamma21=0.0)

    def test_negative_rabi_rejected(self):
        with pytest.raises(ValueError):
            AtomicParams(omega1=-1.0)

    def test_nonfinite_detuning_rejected(self):
        with pytest.raises(ValueError):
            AtomicParams(delta1=float("inf"))


class TestUndressedChains:
    def test_shared_signal_chain_explicit_formula(self):
        p = AtomicParams()
        for d in (-7.3, 0.0, 4.1, 22.0):
            expected = (-1j * p.omega1**2 * p.omega_s1) / (
                (p.gamma31 + 1j * p.delta1)
                * (p.gamma21 + 1j * d)
                * (p.gamma31 + 1j * d + 1j * p.delta1p)
            )
            assert rho3_undressed("fwm1_s2", p, d) == pytest.approx(expected, rel=1e-14)

    def test_resonant_limit(self):
        p = AtomicParams(delta1=0.0, delta1p=0.0, delta3=0.0)
        value = rho3_undressed("fwm1_s2", p, 0.0)
        expected = -1j * p.omega1**2 * p.omega_s1 / (p.gamma31 * p.gamma21 * p.gamma31)
        assert value == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("chain", ["fwm1_s1", "fwm1_s2", "fwm2_s2", "fwm2_s3"])
    def test_far_detuned_decay(self, chain):
        p = AtomicParams()
        near = abs(rho3_undressed(chain, p, 0.0))
        far = abs(rho3_undressed(chain, p, 1e6))
        assert far < 1e-9 * near

    @pytest.mark.parametrize("chain", ["fwm1_s1", "fwm1_s2", "fwm2_s2", "fwm2_s3"])
    def test_detuning_sign_flip_conjugates(self, chain):
        # flipping the sign of every detuning and of the deviation conjugates
        # the amplitude apart from the fixed -i prefactor
        p = AtomicParams()
        flipped = AtomicParams(
            omega1=p.omega1, omega3=p.omega3, omega2=p.omega2, omega_s1=p.omega_s1,
            delta1=-p.delta1, delta1p=-p.delta1p, delta3=-p.delta3, delta3p=-p.delta3p,
        )
        for d in (-3.0, 1.5, 17.0):
            lhs = rho3_undressed(chain, flipped, -d)
            rhs = -np.conj(rho3_undressed(chain, p, d))
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_dressed_tag_rejected(self):
        with pytest.raises(ValueError):
            rho3_undressed("rho2_e1", AtomicParams(), 0.0)

    def test_vectorized_matches_scalar(self):
        # array and 0-d evaluations may differ by an ulp (simd vs scalar paths)
        p = AtomicParams()
        grid = np.array([-2.0, 0.0, 3.0])
        vec = rho3_dressed("rho2_e1", p, grid)
        for k, d in enumerate(grid):
            assert vec[k] == pytest.approx(rho3_dressed("rho2_e1", p, float(d)), rel=1e-14)


class TestDressedSpectra:
    def test_zero_dressing_recovers_bare_lineshape(self):
        p = AtomicParams(omega1=0.0)
        np.testing.assert_allclose(
            rho3_denominator("rho2_e1", p, WIDE_GRID),
            rho3_denominator("fwm1_s2", p, WIDE_GRID),
            rtol=0,
        )

    def test_numerator_prefactor(self):
        p = AtomicParams()
        value = rho3_dressed("fwm2_s3", p, 3.0) * rho3_denominator("fwm2_s3", p, 3.0)
        assert value == pytest.approx(-1j * p.omega1 * p.omega2 * p.omega3)

    def test_rho1_dressing_only_rescales(self):
        # the first factor is deviation independent, so the dressed spectrum
        # is a constant multiple of the undressed one
        p = AtomicParams()
        dressed = rho3_dressed("rho1_e1", p, WIDE_GRID)
        bare = rho3_dressed("fwm1_s2", p, WIDE_GRID)
        ratio = dressed / bare
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)

    def test_two_peaks_for_rho1_dressing(self):
        assert len(find_peaks("rho1_e1", AtomicParams(), WIDE_GRID)) == 2

    def test_three_peaks_for_rho2_dressing(self):
        assert len(find_peaks("rho2_e1", AtomicParams(), WIDE_GRID)) == 3


class TestAnalyticResonances:
    def test_rho2_dressing_keeps_unsplit_channel(self):
        channels = analytic_resonances("rho2_e1", AtomicParams(delta1p=20.0))
        c1 = [ch for ch in channels if ch.label == "C1"]
        assert len(c1) == 1 and c1[0].delta1 == -20.0

    def test_split_pair_positions(self):
        channels = {ch.label: ch for ch in analytic_resonances("rho2_e1", TABLE_PARAMS)}
        root = math.sqrt(13.0**2 + 4.0 + 4.0 * 10.0**2)  # sqrt(573)
        assert channels["C2"].delta1 == pytest.approx((13.0 + root) / 2.0, rel=1e-14)
        assert channels["C3"].delta1 == pytest.approx((13.0 - root) / 2.0, rel=1e-14)
        assert channels["C2"].delta1 == pytest.approx(18.4687, abs=1e-4)
        assert channels["C3"].delta1 == pytest.approx(-5.4687, abs=1e-4)

    def test_rho1_dressing_positions(self):
        positions = {ch.delta1 for ch in analytic_resonances("rho1_e1", AtomicParams())}
        assert positions == {0.0, -20.0}

    def test_rho3_dressing_positions(self):
        p = AtomicParams()
        channels = analytic_resonances("rho3_e1", p)
        b = p.delta1 - 2.0 * p.delta1p
        disc = b**2 - 4.0 * (
            p.delta1p**2 - p.delta1 * p.delta1p - p.omega1**2 - p.gamma31 * p.gamma33
        )
        expected = sorted([0.0, (b + math.sqrt(disc)) / 2.0, (b - math.sqrt(disc)) / 2.0])
        np.testing.assert_allclose([ch.delta1 for ch in channels], expected, rtol=1e-14)

    def test_e3_dressing_mirrors_e1_formulas(self):
        p = AtomicParams(delta3=13.0, omega3=10.0, omega1=10.0)
        by_e1 = [ch.delta1 for ch in analytic_resonances("rho2_e1", p)]
        by_e3 = [ch.delta1 for ch in analytic_resonances("rho2_e3", p)]
        np.testing.assert_allclose(by_e1, by_e3, rtol=1e-14)

    def test_sorted_by_position(self):
        for case in DressingCase:
            positions = [ch.delta1 for ch in analytic_resonances(case, AtomicParams())]
            assert positions == sorted(positions)

    def test_energy_conservation_exact(self):
        for case in DressingCase:
            for ch in analytic_resonances(case, AtomicParams()):
                assert ch.delta2 == -ch.delta1
                assert ch.delta2p == -ch.delta1
                assert ch.delta3 == ch.delta1
                assert ch.delta1 + ch.delta2 + ch.delta2p + ch.delta3 == 0.0


def deviations(delta1):
    """(delta1, delta2, delta2', delta3) of a channel at ``delta1``."""
    ch = CoherentChannel.at("C1", delta1)
    return (ch.delta1, ch.delta2, ch.delta2p, ch.delta3)


class TestDeviationRelations:
    def test_zero(self):
        assert deviations(0.0) == (0.0, 0.0, 0.0, 0.0)

    def test_correlated_signs(self):
        assert deviations(5.0) == (5.0, -5.0, -5.0, 5.0)

    @pytest.mark.parametrize("d", [-17.25, 0.3, 8.0])
    def test_quadruple_sums_to_zero(self, d):
        quad = deviations(d)
        assert quad == (d, -d, -d, d)
        assert sum(quad) == 0.0


class TestChannelCapacity:
    @pytest.mark.parametrize("n, capacity", [(1, 1), (2, 8), (3, 27)])
    def test_cubic(self, n, capacity):
        assert channel_capacity(n) == capacity

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            channel_capacity(0)


class TestFindPeaks:
    def test_undressed_two_peaks_near_channels(self):
        p = AtomicParams()
        peaks = find_peaks("fwm1_s2", p, WIDE_GRID)
        assert len(peaks) == 2
        assert abs(peaks[0].delta1 - (-20.0)) < 2.0
        assert abs(peaks[1].delta1 - 0.0) < 2.0

    def test_counts_per_case(self):
        p = AtomicParams()
        expected = {"fwm1_s2": 2, "rho2_e1": 3, "rho1_e1": 2, "rho3_e1": 3, "rho2_e3": 3}
        for case, count in expected.items():
            assert len(find_peaks(case, p, WIDE_GRID)) == count, case

    def test_positions_match_analytic(self):
        p = AtomicParams()
        tol = max(2 * 0.1, 2 * p.gamma21)
        for case in ("rho2_e1", "rho2_e3", "rho3_e1"):
            channels = analytic_resonances(case, p)
            peaks = find_peaks(case, p, WIDE_GRID)
            assert len(peaks) == len(channels)
            for ch, pk in zip(channels, peaks):
                assert abs(ch.delta1 - pk.delta1) < tol

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError, match="coarse"):
            find_peaks("fwm1_s2", AtomicParams(), np.arange(-50.0, 40.0, 1.5))

    def test_insufficient_margin_rejected(self):
        with pytest.raises(ValueError, match="margin"):
            find_peaks("fwm1_s2", AtomicParams(), np.arange(-10.0, 10.0, 0.1))

    def test_step_equal_to_min_gamma_accepted(self):
        p = AtomicParams(gamma21=0.1)
        assert len(find_peaks("fwm1_s2", p, np.arange(-50.0, 40.0 + 1e-9, 0.1))) == 2

    def test_non_finite_spectrum_rejected(self):
        with pytest.raises(ValueError, match="the rho2_e1 spectrum is not finite on this grid"):
            find_peaks("rho2_e1", AtomicParams(omega_s1=1e307), WIDE_GRID)

    @pytest.mark.parametrize("omega", [5.0, 20.0])
    def test_rho1_dressing_never_splits(self, omega):
        # dressing strength does not change the peak count of this case
        p = AtomicParams(omega1=omega)
        assert len(find_peaks("rho1_e1", p, WIDE_GRID)) == 2

    def test_split_separation_shrinks_with_dressing(self):
        base = math.sqrt(13.0**2 + 4.0)
        previous = None
        for omega in (5.0, 2.0, 1.0, 0.5):
            channels = {ch.label: ch for ch in analytic_resonances("rho2_e1", AtomicParams(omega1=omega))}
            separation = channels["C2"].delta1 - channels["C3"].delta1
            assert separation == pytest.approx(math.sqrt(13.0**2 + 4.0 + 4.0 * omega**2), rel=1e-12)
            if previous is not None:
                assert separation < previous
            assert separation > base
            previous = separation


class TestPeakCore:
    """Run and refinement rules of the peak finder on hand-made sequences."""

    GRID = np.arange(7.0)

    def peaks(self, y):
        return _peaks(self.GRID, np.array(y, dtype=float), 1.0)

    def test_interior_plateau_gives_leftmost_point_unrefined(self):
        assert self.peaks([0, 1, 3, 3, 3, 1, 0]) == [Peak(2.0, 3.0)]

    @pytest.mark.parametrize("y", [[3, 3, 1, 0, 1, 2, 2], [2, 2, 2, 1, 0, 0, 0]])
    def test_plateau_touching_an_end_is_no_peak(self, y):
        assert self.peaks(y) == []

    @pytest.mark.parametrize("y", [[2] * 7, [0, 1, 1, 2, 3, 5, 8], [8, 5, 3, 2, 1, 1, 0]])
    def test_constant_or_monotone_gives_no_peak(self, y):
        assert self.peaks(y) == []

    def test_strict_maximum_refined_by_parabola(self):
        # samples of 4 - (x - 2.25)^2 at x = 1, 2, 3: the vertex is (2.25, 4)
        y = [0.0, 4.0 - 1.25**2, 4.0 - 0.25**2, 4.0 - 0.75**2, 0.0, -1.0, -2.0]
        (peak,) = self.peaks(y)
        assert peak.delta1 == pytest.approx(2.25, abs=1e-12)
        assert peak.height == pytest.approx(4.0, abs=1e-12)


class TestGainProfile:
    def test_zero_amplitude_gives_unit_gain(self):
        _, gains = gain_profile("rho2_e1", AtomicParams(), WIDE_GRID, amplitude=0.0)
        np.testing.assert_array_equal(gains, np.ones_like(gains))

    def test_peak_alignment(self):
        p = AtomicParams()
        grid, gains = gain_profile("rho2_e1", p, WIDE_GRID, amplitude=1.3)
        spectrum = np.abs(rho3_dressed("rho2_e1", p, WIDE_GRID))
        assert np.argmax(gains) == np.argmax(spectrum)
        assert gains.max() == pytest.approx(np.cosh(1.3), rel=1e-12)
        assert gains.min() >= 1.0

    def test_three_local_maxima(self):
        _, gains = gain_profile("rho2_e1", AtomicParams(), WIDE_GRID, amplitude=1.0)
        interior = (gains[1:-1] > gains[:-2]) & (gains[1:-1] > gains[2:])
        assert interior.sum() == 3

    def test_zero_spectrum_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            gain_profile("fwm1_s2", AtomicParams(omega1=0.0), WIDE_GRID, amplitude=1.0)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            gain_profile("rho2_e1", AtomicParams(), WIDE_GRID, amplitude=-0.5)


class TestCriteriaProfile:
    GRID = np.arange(-50.0, 40.0 + 1e-9, 0.2)

    def test_zero_amplitude_flat(self):
        prof = criteria_profile(
            "tri", "rho2_e1", AtomicParams(), self.GRID, 0.0, 1.2, criteria=["D12", "D23"]
        )
        baseline = {
            "D12": float(duan_tri_closed_grid("12", 1.0, 1.2)),
            "D23": float(duan_tri_closed_grid("23", 1.0, 1.2)),
        }
        assert prof.axes == ("delta1", "G1") and prof.region is None
        assert np.all(prof.points[:, 1] == 1.0)
        assert prof.values.shape == (self.GRID.size, 2)
        for c_idx, label in enumerate(prof.labels):
            assert prof.values[:, c_idx] == pytest.approx(baseline[label], abs=1e-12)

    def test_modes_1_3_never_violate(self):
        prof = criteria_profile(
            "tri", "rho2_e1", AtomicParams(), self.GRID, 1.0, 1.2, criteria=["D13"]
        )
        assert np.all(prof.values > 4.0)
        assert not prof.entangled.any()

    def test_criterion_extrema_sit_on_channels(self):
        p = AtomicParams()
        prof = criteria_profile("tri", "rho2_e1", p, self.GRID, 1.0, 1.2, criteria=["D12"])
        values, delta = prof.values[:, 0], prof.points[:, 0]
        interior = (values[1:-1] < values[:-2]) & (values[1:-1] < values[2:])
        minima = delta[1:-1][interior]
        channels = [ch.delta1 for ch in analytic_resonances("rho2_e1", p)]
        assert len(minima) == len(channels)
        for pos, ch in zip(sorted(minima), channels):
            assert abs(pos - ch) < 2.0

    def test_quad_profile_entangled_bipartitions(self):
        prof = criteria_profile(
            "quad",
            "rho2_e1",
            AtomicParams(),
            self.GRID,
            1.0,
            1.3,
            1.1,
            criteria=["PPT:1|234", "PPT:12|34"],
        )
        assert np.all(prof.values < 0.0)
        assert np.all(prof.entangled)

    def test_row_ordering(self):
        prof = criteria_profile(
            "tri", "rho2_e1", AtomicParams(), self.GRID, 1.0, 1.2, criteria=["D23", "D12"]
        )
        assert prof.labels == ("D12", "D23")
        assert np.array_equal(prof.points[:, 0], self.GRID)
        assert np.all(np.diff(prof.points[:, 0]) > 0)

    def test_columns_follow_gain_profile(self):
        p = AtomicParams()
        prof = criteria_profile("tri", "rho2_e1", p, self.GRID, 1.0, 1.2, criteria=["D12", "D23"])
        delta, g1 = gain_profile("rho2_e1", p, self.GRID, 1.0)
        assert np.array_equal(prof.points, np.column_stack([delta, g1]))
        for c_idx, pair in enumerate(("12", "23")):
            assert prof.values[:, c_idx] == pytest.approx(
                duan_tri_closed_grid(pair, g1, 1.2), abs=1e-9
            )
        assert np.array_equal(prof.entangled, prof.values < 4.0)

    def test_blocks_do_not_change_rows(self, monkeypatch):
        args = ("quad", "rho2_e1", AtomicParams(), self.GRID, 1.0, 1.3, 1.1)
        # PPT:1|3 and PPT:12|34 take the singular-value route, PPT:1|234 the closed form
        labels = ["D12", "PPT:1|234", "PPT:12|34", "PPT:1|3"]
        whole = criteria_profile(*args, criteria=labels)  # 451 points, one block
        monkeypatch.setattr(criteria, "BLOCK", 7)  # 65 blocks, the last of three points
        blocked = criteria_profile(*args, criteria=labels)
        for name in ("points", "values", "entangled"):
            assert np.array_equal(getattr(blocked, name), getattr(whole, name)), name

    def test_non_finite_value_rejected(self):
        with pytest.raises(ValueError, match=r"D12 is not finite .* at delta1="):
            criteria_profile(
                "tri", "rho2_e1", AtomicParams(), self.GRID, 1.0, 1e200, criteria=["D12"]
            )

    def test_system_gain_mismatch_rejected(self):
        with pytest.raises(ValueError):
            criteria_profile(
                "tri", "rho2_e1", AtomicParams(), self.GRID, 1.0, 1.2, 1.1, criteria=["D12"]
            )
        with pytest.raises(ValueError):
            criteria_profile(
                "quad", "rho2_e1", AtomicParams(), self.GRID, 1.0, 1.3, criteria=["D12"]
            )
