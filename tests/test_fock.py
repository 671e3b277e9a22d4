import math

import numpy as np
import pytest

from delcfwm import (
    GainSet,
    TruncationError,
    build_quad_transform,
    build_tri_transform,
    covariance_from_state,
    evaluate_criterion,
    evolve_tms,
    output_cm,
    two_mode_squeezer,
    vacuum_state,
)


class TestTruncatedState:
    def test_vacuum_norm_and_covariance(self):
        state = vacuum_state(2, 6)
        assert state.norm == 1.0
        np.testing.assert_allclose(covariance_from_state(state), np.eye(4), atol=1e-12)

    def test_cutoff_floor(self):
        with pytest.raises(ValueError):
            vacuum_state(2, 3)

    def test_shape_validation(self):
        from delcfwm.fock import TruncatedState

        with pytest.raises(ValueError):
            TruncatedState(2, 6, np.zeros((6, 5), dtype=complex))


def mean_photon_number(state, mode):
    """<n> = (V(X) + V(P) - 2) / 4 of one mode, from the reconstructed covariances."""
    sigma = covariance_from_state(state)
    q = 2 * mode - 2
    return (sigma[q, q] + sigma[q + 1, q + 1] - 2.0) / 4.0


class TestEvolveTms:
    def test_zero_squeezing_is_identity(self):
        state = vacuum_state(2, 6)
        evolved = evolve_tms(state, 1, 2, 0.0)
        np.testing.assert_array_equal(evolved.amplitudes, state.amplitudes)

    def test_mean_photon_number(self):
        state = evolve_tms(vacuum_state(2, 12), 1, 2, 0.2)
        expected = math.sinh(0.2) ** 2
        assert mean_photon_number(state, 1) == pytest.approx(expected, abs=1e-5)

    def test_pair_emission(self):
        state = evolve_tms(vacuum_state(2, 12), 1, 2, 0.2)
        n1 = mean_photon_number(state, 1)
        n2 = mean_photon_number(state, 2)
        assert n1 == pytest.approx(n2, abs=1e-12)

    def test_norm_preserved(self):
        state = evolve_tms(vacuum_state(2, 12), 1, 2, 0.3)
        assert abs(state.norm - 1.0) < 1e-10

    def test_invalid_modes(self):
        with pytest.raises(ValueError):
            evolve_tms(vacuum_state(2, 6), 1, 1, 0.1)
        with pytest.raises(ValueError):
            evolve_tms(vacuum_state(2, 6), 1, 3, 0.1)

    def test_squeezing_cap(self):
        with pytest.raises(ValueError):
            evolve_tms(vacuum_state(2, 12), 1, 2, 0.4)

    def test_truncation_error_reports_leakage(self):
        with pytest.raises(TruncationError) as info:
            evolve_tms(vacuum_state(2, 4), 1, 2, 0.35)
        assert info.value.leakage > 1e-6


class TestCovariance:
    def test_two_mode_squeezed_variance(self):
        r = 0.2
        state = evolve_tms(vacuum_state(2, 12), 1, 2, r)
        sigma = covariance_from_state(state)
        assert sigma[0, 0] == pytest.approx(math.cosh(2 * r), abs=2e-4)

    def test_matches_squeezer_matrix(self):
        r = 0.2
        state = evolve_tms(vacuum_state(2, 12), 1, 2, r)
        sigma = covariance_from_state(state)
        expected = output_cm(two_mode_squeezer(2, 1, 2, math.cosh(r)))
        assert np.abs(sigma - expected).max() < 1e-3

    def test_unnormalized_state_rejected(self):
        state = vacuum_state(2, 6)
        state.amplitudes = state.amplitudes * 0.9
        with pytest.raises(ValueError):
            covariance_from_state(state)


class TestOracleEquivalence:
    def test_three_mode_cascade(self):
        r1 = r2 = 0.2
        state = vacuum_state(3, 12)
        state = evolve_tms(state, 1, 2, r1)
        state = evolve_tms(state, 2, 3, r2)
        sigma = covariance_from_state(state)
        expected = output_cm(build_tri_transform(GainSet(math.cosh(r1), math.cosh(r2))))
        assert np.abs(sigma - expected).max() < 1e-3

    def test_four_mode_cascade(self):
        r = 0.15
        state = vacuum_state(4, 8)
        state = evolve_tms(state, 1, 2, r)
        state = evolve_tms(state, 1, 4, r)
        state = evolve_tms(state, 2, 3, r)
        sigma = covariance_from_state(state)
        expected = output_cm(
            build_quad_transform(GainSet(math.cosh(r), math.cosh(r), math.cosh(r)))
        )
        assert np.abs(sigma - expected).max() < 1e-3

    def test_difference_shrinks_with_cutoff(self):
        expected = output_cm(build_tri_transform(GainSet(math.cosh(0.2), math.cosh(0.2))))
        diffs = []
        for cutoff in (8, 10, 12):
            state = vacuum_state(3, cutoff)
            state = evolve_tms(state, 1, 2, 0.2)
            state = evolve_tms(state, 2, 3, 0.2)
            diffs.append(np.abs(covariance_from_state(state) - expected).max())
        assert diffs[0] > diffs[1] > diffs[2]

    def test_duan_agreement_with_model(self):
        r = 0.2
        big_g = math.cosh(r)
        state = vacuum_state(3, 12)
        state = evolve_tms(state, 1, 2, r)
        state = evolve_tms(state, 2, 3, r)
        oracle_cm = covariance_from_state(state)
        model_cm = output_cm(build_tri_transform(GainSet(big_g, big_g)))
        for label in ("D12", "D13", "D23"):
            from_oracle = evaluate_criterion(oracle_cm, label)
            from_model = evaluate_criterion(model_cm, label)
            assert from_oracle == pytest.approx(from_model, abs=1e-3)
            assert (from_oracle < 4.0) == (from_model < 4.0)


class TestDenseReference:
    """The two-mode-block evolution and per-mode quadratures against operators
    built on the full 3-mode space with ``np.kron``, for every ordered pair."""

    N, CUTOFF, R = 3, 6, 0.1

    def full_lowering(self, mode):
        lowering = np.diag(np.sqrt(np.arange(1.0, self.CUTOFF)), 1)
        op = np.eye(1)
        for m in range(1, self.N + 1):
            op = np.kron(op, lowering if m == mode else np.eye(self.CUTOFF))
        return op

    def start(self):
        # asymmetric in every mode pair, so a swapped axis shows
        return evolve_tms(evolve_tms(vacuum_state(self.N, self.CUTOFF), 1, 2, 0.1), 2, 3, 0.05)

    @pytest.mark.parametrize("i, j", [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j])
    def test_evolution_matches_full_space_exponential(self, i, j):
        pair_down = self.full_lowering(i) @ self.full_lowering(j)
        lam, vec = np.linalg.eigh(1j * self.R * (pair_down.T - pair_down))
        dense = (vec * np.exp(-1j * lam)) @ vec.conj().T
        state = self.start()
        expected = dense @ state.amplitudes.ravel()
        got = evolve_tms(state, i, j, self.R).amplitudes.ravel()
        assert np.abs(got - expected).max() < 1e-13

    def test_covariance_matches_full_space_quadratures(self):
        quads = []
        for mode in range(1, self.N + 1):
            a = self.full_lowering(mode)
            quads += [a + a.T, 1j * (a.T - a)]
        state = evolve_tms(self.start(), 3, 1, self.R)
        psi = state.amplitudes.ravel()
        means = np.array([np.real(psi.conj() @ q @ psi) for q in quads])
        second = np.array(
            [[np.real(psi.conj() @ (qk @ ql + ql @ qk) @ psi) / 2 for ql in quads] for qk in quads]
        )
        expected = second - np.outer(means, means)
        assert np.abs(covariance_from_state(state) - expected).max() < 1e-13
