import numpy as np
import pytest

from delcfwm import (
    GainSet,
    build_quad_transform,
    build_tri_transform,
    conjugate_gain,
    is_symplectic,
    output_cm,
    quad_transform_batch,
    symplectic_eigenvalues,
    tri_transform_batch,
    two_mode_squeezer,
)


def literal_tri(big1, big2):
    """Hand-written three-mode matrix, kept independent of model.py."""
    c1 = np.sqrt(big1**2 - 1.0)
    c2 = np.sqrt(big2**2 - 1.0)
    return np.array(
        [
            [big1, 0, c1, 0, 0, 0],
            [0, big1, 0, -c1, 0, 0],
            [c1 * big2, 0, big1 * big2, 0, c2, 0],
            [0, -c1 * big2, 0, big1 * big2, 0, -c2],
            [c1 * c2, 0, big1 * c2, 0, big2, 0],
            [0, c1 * c2, 0, -big1 * c2, 0, big2],
        ]
    )


def literal_quad(big1, big2, big3):
    """Hand-written four-mode matrix, kept independent of model.py."""
    c1 = np.sqrt(big1**2 - 1.0)
    c2 = np.sqrt(big2**2 - 1.0)
    c3 = np.sqrt(big3**2 - 1.0)
    return np.array(
        [
            [big1 * big3, 0, c1 * big3, 0, 0, 0, c3, 0],
            [0, big1 * big3, 0, -c1 * big3, 0, 0, 0, -c3],
            [c1 * big2, 0, big1 * big2, 0, c2, 0, 0, 0],
            [0, -c1 * big2, 0, big1 * big2, 0, -c2, 0, 0],
            [c1 * c2, 0, big1 * c2, 0, big2, 0, 0, 0],
            [0, c1 * c2, 0, -big1 * c2, 0, big2, 0, 0],
            [big1 * c3, 0, c1 * c3, 0, 0, 0, big3, 0],
            [0, -big1 * c3, 0, c1 * c3, 0, 0, 0, big3],
        ]
    )


class TestGainSet:
    def test_conjugate_gain_identity(self):
        for big in (1.0, 1.2, 2.0, 3.0):
            assert conjugate_gain(big) ** 2 == pytest.approx(big**2 - 1.0, rel=1e-15, abs=1e-15)

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            GainSet(0.9, 1.2)
        with pytest.raises(ValueError):
            conjugate_gain(0.5)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            GainSet(float("nan"), 1.2)


class TestTwoModeSqueezer:
    def test_unit_gain_is_identity(self):
        np.testing.assert_array_equal(two_mode_squeezer(3, 1, 2, 1.0), np.eye(6))

    def test_x_block_entries(self):
        # G = 1.25 gives exactly g = 0.75
        s = two_mode_squeezer(2, 1, 2, 1.25)
        np.testing.assert_allclose(s[0, 0], 1.25)
        np.testing.assert_allclose(s[0, 2], 0.75)
        np.testing.assert_allclose(s[2, 0], 0.75)
        np.testing.assert_allclose(s[2, 2], 1.25)
        # P rows carry the sign flips
        np.testing.assert_allclose(s[1, 3], -0.75)
        np.testing.assert_allclose(s[3, 1], -0.75)

    def test_composition_stays_symplectic(self):
        s = two_mode_squeezer(2, 1, 2, 1.4)
        ok, residual = is_symplectic(s @ s, tol=1e-12)
        assert ok and residual < 1e-12

    def test_invalid_modes(self):
        with pytest.raises(ValueError):
            two_mode_squeezer(2, 1, 1, 1.2)
        with pytest.raises(ValueError):
            two_mode_squeezer(2, 1, 3, 1.2)


class TestTriTransform:
    def test_unit_gains_identity(self):
        np.testing.assert_array_equal(build_tri_transform(GainSet(1.0, 1.0)), np.eye(6))

    def test_literal_matrix(self):
        gains = GainSet(1.2, 1.3)
        np.testing.assert_allclose(
            build_tri_transform(gains), literal_tri(1.2, 1.3), atol=1e-15
        )

    def test_corner_entry(self):
        # X3-row, X1-column entry is the product of the conjugate gains
        u = build_tri_transform(GainSet(1.2, 1.3))
        np.testing.assert_allclose(u[4, 0], np.sqrt(0.44) * np.sqrt(0.69), rtol=1e-14)
        assert u[4, 0] == pytest.approx(0.551, abs=1e-3)

    def test_equals_squeezer_cascade(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            big1, big2 = rng.uniform(1.0, 3.0, size=2)
            cascade = two_mode_squeezer(3, 2, 3, big2) @ two_mode_squeezer(3, 1, 2, big1)
            diff = np.abs(build_tri_transform(GainSet(big1, big2)) - cascade).max()
            assert diff < 1e-12

    def test_rejects_three_gains(self):
        with pytest.raises(ValueError):
            build_tri_transform(GainSet(1.1, 1.2, 1.3))

    def test_rejects_gain_below_one(self):
        with pytest.raises(ValueError):
            tri_transform_batch(0.99, 1.2)


class TestQuadTransform:
    def test_unit_gains_identity(self):
        np.testing.assert_array_equal(
            build_quad_transform(GainSet(1.0, 1.0, 1.0)), np.eye(8)
        )

    def test_literal_matrix(self):
        np.testing.assert_allclose(
            build_quad_transform(GainSet(1.3, 1.2, 1.1)),
            literal_quad(1.3, 1.2, 1.1),
            atol=1e-15,
        )

    def test_corner_entry(self):
        u = build_quad_transform(GainSet(1.0, 1.0, 1.1))
        np.testing.assert_allclose(u[0, 6], np.sqrt(0.21), rtol=1e-14)
        assert u[0, 6] == pytest.approx(0.4583, abs=1e-4)

    def test_equals_squeezer_cascade(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            big1, big2, big3 = rng.uniform(1.0, 3.0, size=3)
            first = two_mode_squeezer(4, 1, 2, big1)
            cascade = two_mode_squeezer(4, 2, 3, big2) @ two_mode_squeezer(4, 1, 4, big3) @ first
            commuted = two_mode_squeezer(4, 1, 4, big3) @ two_mode_squeezer(4, 2, 3, big2) @ first
            u = build_quad_transform(GainSet(big1, big2, big3))
            assert np.abs(u - cascade).max() < 1e-12
            assert np.abs(u - commuted).max() < 1e-12

    def test_missing_g3_rejected(self):
        with pytest.raises(ValueError):
            build_quad_transform(GainSet(1.1, 1.2))


class TestOutputCm:
    def test_identity(self):
        np.testing.assert_array_equal(output_cm(np.eye(6)), np.eye(6))

    def test_first_mode_variance(self):
        for big1 in (1.0, 1.2, 2.4):
            sigma = output_cm(build_tri_transform(GainSet(big1, 1.7)))
            np.testing.assert_allclose(sigma[0, 0], 2.0 * big1**2 - 1.0, rtol=1e-13)

    @pytest.mark.parametrize(
        "builder, gains",
        [
            (build_tri_transform, GainSet(1.5, 1.2)),
            (build_quad_transform, GainSet(1.5, 1.2, 1.3)),
        ],
    )
    def test_no_amplitude_phase_cross_correlation(self, builder, gains):
        sigma = output_cm(builder(gains))
        x_idx = np.arange(0, sigma.shape[0], 2)
        p_idx = np.arange(1, sigma.shape[0], 2)
        assert np.abs(sigma[np.ix_(x_idx, p_idx)]).max() == 0.0

    def test_purity_over_gain_grid(self):
        for big1 in (1.0, 1.5, 3.0):
            for big2 in (1.0, 2.0, 3.0):
                sigma = output_cm(build_tri_transform(GainSet(big1, big2)))
                np.testing.assert_allclose(
                    symplectic_eigenvalues(sigma), np.ones(3), atol=1e-8
                )


def test_batch_matches_scalar():
    rng = np.random.default_rng(3)
    big = rng.uniform(1.0, 3.0, size=(20, 3))
    stacked = quad_transform_batch(big[:, 0], big[:, 1], big[:, 2])
    for k in range(big.shape[0]):
        expected = build_quad_transform(GainSet(*big[k]))
        np.testing.assert_array_equal(stacked[k], expected)
