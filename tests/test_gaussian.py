import numpy as np
import pytest

from delcfwm import (
    CriterionError,
    GainSet,
    build_tri_transform,
    conjugate_gain,
    evaluate_criterion,
    is_symplectic,
    output_cm,
    parse_criterion,
    reduced_cm,
    symplectic_eigenvalues,
    symplectic_form,
    two_mode_squeezer,
    vacuum_cm,
)
from delcfwm.gaussian import _symplectic_spectrum
from test_kernel import phase_rotated

J = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestSymplecticForm:
    def test_single_mode(self):
        np.testing.assert_array_equal(symplectic_form(1), J)

    def test_two_modes_block_diagonal(self):
        omega = symplectic_form(2)
        expected = np.zeros((4, 4))
        expected[:2, :2] = J
        expected[2:, 2:] = J
        np.testing.assert_array_equal(omega, expected)

    def test_squares_to_minus_identity(self):
        omega = symplectic_form(3)
        np.testing.assert_allclose(omega @ omega, -np.eye(6), atol=0)

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            symplectic_form(0)


class TestVacuum:
    @pytest.mark.parametrize("n", [1, 3])
    def test_identity(self, n):
        np.testing.assert_array_equal(vacuum_cm(n), np.eye(2 * n))

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            vacuum_cm(0)


class TestIsSymplectic:
    def test_identity(self):
        ok, residual = is_symplectic(np.eye(4), tol=1e-12)
        assert ok and residual == 0.0

    def test_tri_transform(self):
        ok, residual = is_symplectic(build_tri_transform(GainSet(1.2, 1.3)), tol=1e-12)
        assert ok and residual < 1e-12

    def test_perturbed_entry_fails(self):
        u = build_tri_transform(GainSet(1.2, 1.3))
        u[0, 1] += 1e-3
        ok, residual = is_symplectic(u)
        assert not ok and residual > 1e-4

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            is_symplectic(np.eye(3))

    def test_stack_reports_its_worst_member(self):
        stack = np.stack([build_tri_transform(GainSet(1.2, 1.3)), np.eye(6)])
        assert is_symplectic(stack, tol=1e-12) == is_symplectic(stack[0], tol=1e-12)
        stack[1, 0, 0] += 1e-3
        ok, residual = is_symplectic(stack[None])
        assert not ok and residual == is_symplectic(stack[1])[1]


class TestEvolveCm:
    """The vacuum evolved through a transform: output_cm(U) = U U^T."""

    def test_identity_on_vacuum(self):
        np.testing.assert_array_equal(output_cm(np.eye(6)), np.eye(6))

    def test_tri_variance_entry(self):
        gains = GainSet(1.3, 1.1)
        sigma = output_cm(build_tri_transform(gains))
        expected = gains.g1_amp**2 + conjugate_gain(gains.g1_amp) ** 2  # = 2 G1^2 - 1
        np.testing.assert_allclose(sigma[0, 0], expected, rtol=1e-14)

    def test_output_symmetric(self):
        sigma = output_cm(build_tri_transform(GainSet(2.0, 1.7)))
        np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        np.testing.assert_allclose(symplectic_eigenvalues(vacuum_cm(2)), [1.0, 1.0])

    @pytest.mark.parametrize("gains", [(1.2, 1.3), (1.01, 2.5), (3.0, 3.0)])
    def test_pure_tri_state(self, gains):
        sigma = output_cm(build_tri_transform(GainSet(*gains)))
        np.testing.assert_allclose(symplectic_eigenvalues(sigma), np.ones(3), atol=1e-10)

    def test_partially_transposed_two_mode_squeezed(self):
        # analytic spectrum of the 4x4 partially transposed squeezed state:
        # {(G - g)^2, (G + g)^2}
        big_g = 1.2
        small_g = np.sqrt(big_g**2 - 1.0)
        sigma = output_cm(two_mode_squeezer(2, 1, 2, big_g))
        flip = np.array([1.0, -1.0, 1.0, 1.0])  # the sign of P1
        nus = symplectic_eigenvalues(flip[:, None] * sigma * flip[None, :])
        np.testing.assert_allclose(
            nus, [(big_g - small_g) ** 2, (big_g + small_g) ** 2], rtol=1e-12
        )
        assert abs(nus[0] - 0.288) < 1e-3

    def test_residual_reported(self):
        # X-P covariance sends a state down the Hermitian route, whose +/-
        # eigenvalue pairs give the residual; a state without it adds nothing
        rotated = phase_rotated(output_cm(build_tri_transform(GainSet(1.2, 1.3))), [0.3, 1.1, 2.0])
        _, residual = _symplectic_spectrum(rotated[None])
        assert 0.0 < residual < 1e-12
        assert _symplectic_spectrum(np.stack([vacuum_cm(3), rotated]))[1] == residual
        assert _symplectic_spectrum(vacuum_cm(3)[None])[1] == 0.0

    def test_asymmetric_input_rejected(self):
        bad = np.eye(4)
        bad[0, 1] = 1e-3
        with pytest.raises(ValueError, match="not symmetric"):
            symplectic_eigenvalues(bad)

    def test_invariant_under_symplectic_conjugation(self):
        # thermal-like CM with distinct symplectic eigenvalues 1.5, 2, 3
        sigma = np.diag([2.0, 2.0, 1.5, 1.5, 3.0, 3.0])
        reference = symplectic_eigenvalues(sigma)
        rng = np.random.default_rng(7)
        pairs = [(1, 2), (2, 3), (1, 3)]
        for _ in range(10):
            s = np.eye(6)
            for _ in range(4):
                i, j = pairs[rng.integers(len(pairs))]
                s = two_mode_squeezer(3, i, j, float(rng.uniform(1.0, 1.5))) @ s
            conjugated = s @ sigma @ s.T
            np.testing.assert_allclose(
                symplectic_eigenvalues(conjugated), reference, atol=1e-8
            )


class TestPartialTranspose:
    """Partial transposition as PPT labels name it and evaluate_criterion applies it."""

    def test_empty_subset_rejected(self):
        with pytest.raises(CriterionError):
            evaluate_criterion(vacuum_cm(3), "PPT:|123")

    def test_full_subset_rejected(self):
        with pytest.raises(CriterionError):
            evaluate_criterion(vacuum_cm(3), "PPT:123|")

    def test_vacuum_unchanged(self):
        for label in ("PPT:1|23", "PPT:2|13", "PPT:13|2"):
            assert evaluate_criterion(vacuum_cm(3), label) == 0.0

    def test_wrong_mode_count(self):
        with pytest.raises(CriterionError):
            evaluate_criterion(vacuum_cm(2), "PPT:1|3")
        with pytest.raises(CriterionError):
            evaluate_criterion(vacuum_cm(2), parse_criterion("PPT:1|3", 3))


class TestReducedCm:
    def test_keep_all_unchanged(self):
        sigma = output_cm(build_tri_transform(GainSet(1.4, 1.2)))
        np.testing.assert_array_equal(reduced_cm(sigma, [1, 2, 3]), sigma)

    def test_vacuum_subset(self):
        np.testing.assert_array_equal(reduced_cm(vacuum_cm(3), [1, 3]), np.eye(4))

    def test_decoupled_third_mode(self):
        # with unit second-stage gain the first two modes form a plain
        # two-mode squeezed state
        big_g = 1.6
        sigma = output_cm(build_tri_transform(GainSet(big_g, 1.0)))
        expected = output_cm(two_mode_squeezer(2, 1, 2, big_g))
        np.testing.assert_allclose(reduced_cm(sigma, [1, 2]), expected, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reduced_cm(vacuum_cm(2), [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            reduced_cm(vacuum_cm(2), [3])


class TestModeBipartition:
    """Bipartitions as PPT labels name them."""

    def test_canonical_from_any_iterable(self):
        crit = parse_criterion("PPT:42|31", 4)
        assert crit.modes_a == (2, 4) and crit.modes_b == (1, 3)
        with pytest.raises(CriterionError):
            parse_criterion("PPT:221|3", 3)

    def test_out_of_range(self):
        with pytest.raises(CriterionError):
            parse_criterion("PPT:3|1", 2)
