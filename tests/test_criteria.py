import tracemalloc

import numpy as np
import pytest

from delcfwm import (
    DUAN_BOUND,
    Criterion,
    CriterionError,
    GainSet,
    GridAxis,
    build_quad_transform,
    build_tri_transform,
    classify_tri_region,
    criteria,
    duan_quad_closed_grid,
    duan_tri_closed_grid,
    evaluate_criterion,
    output_cm,
    parse_criterion,
    reduced_cm,
    sweep_criteria,
    two_mode_squeezer,
    vacuum_cm,
)
from delcfwm.criteria import evaluate_criterion_batch


def tri_cm(big1, big2):
    return output_cm(build_tri_transform(GainSet(big1, big2)))


def quad_cm(big1, big2, big3):
    return output_cm(build_quad_transform(GainSet(big1, big2, big3)))


class TestDuanValue:
    def test_two_vacua_saturate_bound(self):
        assert evaluate_criterion(vacuum_cm(2), "D12") == DUAN_BOUND

    def test_tri_pair_13(self):
        value = evaluate_criterion(tri_cm(1.2, 1.3), "D13")
        np.testing.assert_allclose(value, 9.7344, rtol=1e-12)
        assert not value < DUAN_BOUND

    def test_two_mode_squeezed(self):
        big_g = 1.2
        small_g = np.sqrt(big_g**2 - 1.0)
        sigma = output_cm(two_mode_squeezer(2, 1, 2, big_g))
        value = evaluate_criterion(sigma, "D12")
        np.testing.assert_allclose(value, 4.0 * (big_g - small_g) ** 2, rtol=1e-12)
        assert value == pytest.approx(1.152, abs=1e-3)
        assert value < DUAN_BOUND

    def test_symmetric_in_modes(self):
        sigma = tri_cm(1.4, 1.2)[None]
        d12 = evaluate_criterion_batch(sigma, Criterion("duan", (1,), (2,), "D12"))
        d21 = evaluate_criterion_batch(sigma, Criterion("duan", (2,), (1,), "D21"))
        assert d12 == d21

    def test_index_errors(self):
        with pytest.raises(CriterionError):
            evaluate_criterion(vacuum_cm(2), "D11")
        with pytest.raises(CriterionError):
            evaluate_criterion(vacuum_cm(2), "D13")


class TestClosedFormsTri:
    @pytest.mark.parametrize("pair", ["12", "13", "23"])
    def test_boundary_is_four(self, pair):
        assert duan_tri_closed_grid(pair, 1.0, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_pair_13_value(self):
        assert duan_tri_closed_grid("13", 1.2, 1.3) == pytest.approx(9.7344, rel=1e-12)

    def test_pair_23_value(self):
        assert duan_tri_closed_grid("23", 1.3, 1.05) == pytest.approx(3.6009, abs=1e-3)

    def test_invalid_pair(self):
        with pytest.raises(ValueError):
            duan_tri_closed_grid("31", 1.2, 1.3)

    @pytest.mark.parametrize("pair", ["12", "13", "23"])
    def test_matches_cm_route(self, pair):
        rng = np.random.default_rng(2)
        for _ in range(50):
            big1, big2 = rng.uniform(1.0, 3.0, size=2)
            closed = duan_tri_closed_grid(pair, big1, big2)
            from_cm = evaluate_criterion(tri_cm(big1, big2), f"D{pair}")
            assert abs(closed - from_cm) < 1e-9


class TestClosedFormsQuad:
    @pytest.mark.parametrize("pair", ["12", "13", "14", "23", "24", "34"])
    def test_boundary_is_four(self, pair):
        assert duan_quad_closed_grid(pair, 1.0, 1.0, 1.0) == pytest.approx(4.0, abs=1e-12)

    def test_d13_equals_d24(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            gains = rng.uniform(1.0, 2.0, size=3)
            assert duan_quad_closed_grid("13", *gains) == duan_quad_closed_grid("24", *gains)

    def test_d14_independent_of_g2(self):
        base = duan_quad_closed_grid("14", 1.1, 1.0, 1.2)
        for big2 in (1.3, 1.7, 2.0):
            assert duan_quad_closed_grid("14", 1.1, big2, 1.2) == base

    def test_d23_independent_of_g3(self):
        base = duan_quad_closed_grid("23", 1.1, 1.2, 1.0)
        for big3 in (1.3, 1.7, 2.0):
            assert duan_quad_closed_grid("23", 1.1, 1.2, big3) == base

    @pytest.mark.parametrize("pair", ["12", "13", "14", "23", "24", "34"])
    def test_matches_cm_route(self, pair):
        rng = np.random.default_rng(4)
        for _ in range(30):
            big = rng.uniform(1.0, 2.0, size=3)
            closed = duan_quad_closed_grid(pair, *big)
            from_cm = evaluate_criterion(quad_cm(*big), f"D{pair}")
            assert abs(closed - from_cm) < 1e-9

    def test_invalid_pair(self):
        with pytest.raises(ValueError):
            duan_quad_closed_grid("15", 1.1, 1.2, 1.3)


class TestMonotonicity:
    @pytest.mark.parametrize("big1", [1.1, 1.2, 1.5])
    def test_d12_nondecreasing_in_g2(self, big1):
        grid = 1.0 + 0.02 * np.arange(101)
        values = [duan_tri_closed_grid("12", big1, float(b2)) for b2 in grid]
        assert np.all(np.diff(values) >= -1e-12)


class TestPPT:
    def test_vacuum_value_zero(self):
        for label in ("PPT:1|23", "PPT:2|13", "PPT:13|2"):
            value = evaluate_criterion(vacuum_cm(3), label)
            assert value == pytest.approx(0.0, abs=1e-12)
            assert not value < 0.0

    def test_unit_gain_squeezer(self):
        sigma = output_cm(two_mode_squeezer(2, 1, 2, 1.0))
        assert evaluate_criterion(sigma, "PPT:1|2") == pytest.approx(0.0, abs=1e-12)

    def test_two_mode_squeezed_entangled(self):
        big_g = 1.2
        small_g = np.sqrt(big_g**2 - 1.0)
        sigma = output_cm(two_mode_squeezer(2, 1, 2, big_g))
        value = evaluate_criterion(sigma, "PPT:1|2")
        np.testing.assert_allclose(value, (big_g - small_g) ** 2 - 1.0, rtol=1e-12)
        assert value < 0.0

    def test_modes_1_3_never_entangled(self):
        for big1 in (1.05, 1.5, 2.5):
            for big2 in (1.05, 1.5, 2.5):
                sigma = reduced_cm(tri_cm(big1, big2), [1, 3])
                assert evaluate_criterion(sigma, "PPT:1|2") >= 0.0

    def test_complement_symmetry_pure_state(self):
        sigma = tri_cm(1.6, 1.3)
        for side, rest in (("1", "23"), ("2", "13"), ("3", "12")):
            a = evaluate_criterion(sigma, f"PPT:{side}|{rest}")
            b = evaluate_criterion(sigma, f"PPT:{rest}|{side}")
            assert abs(a - b) < 1e-10

    def test_duan_violation_implies_npt(self):
        grid = 1.0 + 0.2 * np.arange(11)
        for big1 in grid:
            for big2 in grid:
                sigma = tri_cm(float(big1), float(big2))
                for i, j in ((1, 2), (2, 3), (1, 3)):
                    if evaluate_criterion(sigma, f"D{i}{j}") < DUAN_BOUND:
                        pair_cm = reduced_cm(sigma, [i, j])
                        assert evaluate_criterion(pair_cm, "PPT:1|2") < 0.0

    def test_tripartite_sign_pattern_follows_bipartite(self):
        # away from the G=1 boundary the entanglement flags of 1|{23} track
        # 1|2, and 3|{12} track 2|3 (dead band absorbs exact zeros)
        def flag(value):
            return value < -1e-12

        grid = 1.0 + 0.1 * np.arange(21)
        for big1 in grid:
            for big2 in grid:
                sigma = tri_cm(float(big1), float(big2))
                p1_23 = evaluate_criterion(sigma, "PPT:1|23")
                p12 = evaluate_criterion(reduced_cm(sigma, [1, 2]), "PPT:1|2")
                assert flag(p1_23) == flag(p12)
                p3_12 = evaluate_criterion(sigma, "PPT:3|12")
                p23 = evaluate_criterion(reduced_cm(sigma, [2, 3]), "PPT:1|2")
                assert flag(p3_12) == flag(p23)


class TestRegionClassifier:
    @pytest.mark.parametrize(
        "gains, region",
        [
            ((1.2, 1.0001), "I"),
            ((1.05, 2.0), "II"),
            ((1.3, 1.05), "III"),
            ((1.0, 1.0), "none"),
            ((3.8, 2.0), "none"),
        ],
    )
    def test_witness_points(self, gains, region):
        assert classify_tri_region(*gains) == region

    def test_vectorised_matches_scalar_definition(self):
        v = 1.0 + 0.05 * np.arange(41)
        g1, g2 = np.meshgrid(v, v, indexing="ij")
        regions = classify_tri_region(g1, g2)
        assert regions.shape == g1.shape
        for k in np.ndindex(g1.shape):
            d12 = duan_tri_closed_grid("12", float(g1[k]), float(g2[k])) < DUAN_BOUND
            d23 = duan_tri_closed_grid("23", float(g1[k]), float(g2[k])) < DUAN_BOUND
            want = "III" if d12 and d23 else "I" if d12 else "II" if d23 else "none"
            assert regions[k] == want
        assert set(regions.ravel().tolist()) == {"I", "II", "III", "none"}

    @pytest.mark.parametrize("gains", [(0.5, 1.2), (1.2, float("nan")), ([1.1, 0.99], 1.2)])
    def test_gain_below_one_rejected(self, gains):
        with pytest.raises(ValueError, match="gains must be >= 1"):
            classify_tri_region(*gains)
        with pytest.raises(ValueError, match="gains must be >= 1"):
            duan_quad_closed_grid("12", *gains, 1.1)


class TestCriterionParsing:
    def test_duan_label(self):
        crit = parse_criterion("D13", 3)
        assert crit.kind == "duan" and crit.modes_a == (1,) and crit.modes_b == (3,)

    def test_ppt_label(self):
        crit = parse_criterion("PPT:2|134", 4)
        assert crit.kind == "ppt" and crit.modes_a == (2,) and crit.modes_b == (1, 3, 4)

    @pytest.mark.parametrize("label", ["D1", "D123", "X12", "PPT:12", "PPT:1|1", "PPT:1|5", "D14"])
    def test_bad_labels(self, label):
        with pytest.raises(CriterionError):
            parse_criterion(label, 3)

    def test_reduced_ppt_matches_manual_route(self):
        sigma = quad_cm(1.4, 1.3, 1.1)
        value = evaluate_criterion(sigma, parse_criterion("PPT:1|3", 4))
        manual = evaluate_criterion(reduced_cm(sigma, [1, 3]), "PPT:1|2")
        assert value == pytest.approx(manual, abs=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(12)
        big = rng.uniform(1.0, 2.0, size=(10, 3))
        from delcfwm.model import quad_transform_batch

        u = quad_transform_batch(big[:, 0], big[:, 1], big[:, 2])
        sigmas = u @ u.transpose(0, 2, 1)
        for label in ("D12", "PPT:1|234", "PPT:12|34", "PPT:1|3"):
            crit = parse_criterion(label, 4)
            batch = evaluate_criterion_batch(sigmas, crit)
            for k in range(big.shape[0]):
                assert batch[k] == pytest.approx(
                    evaluate_criterion(sigmas[k], crit), abs=1e-10
                )


class TestSweep:
    def test_single_point_reduces_to_single_evaluation(self):
        sweep = sweep_criteria("tri", {"G1": 1.2, "G2": 1.3}, ["D13"])
        assert sweep.labels == ("D13",) and sweep.axes == ("G1", "G2")
        assert sweep.points.tolist() == [[1.2, 1.3]]
        assert sweep.values.shape == sweep.entangled.shape == (1, 1)
        assert sweep.values[0, 0] == pytest.approx(9.7344, rel=1e-12)
        assert not sweep.entangled[0, 0]

    def test_d13_above_bound_except_boundary(self):
        axis = GridAxis(1.0, 3.0, 0.05)
        sweep = sweep_criteria("tri", {"G1": axis, "G2": axis}, ["D13"])
        assert sweep.points.shape == (41 * 41, 2)
        for gains, value in zip(sweep.points.tolist(), sweep.values[:, 0]):
            if gains == [1.0, 1.0]:
                assert value == pytest.approx(4.0, abs=1e-12)
            else:
                assert value > 4.0

    def test_quad_ppt_preset_line(self):
        sweep = sweep_criteria(
            "quad",
            {"G1": GridAxis(1.1, 2.0, 0.1), "G2": 1.3, "G3": 1.1},
            ["PPT:12|34", "PPT:1|234"],
        )
        assert sweep.axes == ("G1", "G2", "G3") and sweep.values.shape == (10, 2)
        assert np.all(sweep.values < 0.0)
        assert np.all(sweep.entangled)
        assert sweep.region is None

    def test_row_ordering(self):
        sweep = sweep_criteria(
            "tri", {"G1": GridAxis(1.0, 1.1, 0.1), "G2": GridAxis(1.0, 1.1, 0.1)}, ["D13", "D12"]
        )
        assert sweep.labels == ("D12", "D13")
        key = [(tuple(g), lbl) for g in sweep.points.tolist() for lbl in sweep.labels]
        assert key == sorted(key) and len(set(key)) == 4 * 2
        assert sweep.points[:, 0].tolist() == [1.0, 1.0, 1.1, 1.1]  # G1 outermost

    def test_values_match_evaluate_criterion(self):
        sweep = sweep_criteria(
            "tri", {"G1": GridAxis(1.0, 1.4, 0.2), "G2": 1.3}, ["D12", "PPT:1|23", "PPT:1|3"]
        )
        for p_idx, (g1, g2) in enumerate(sweep.points.tolist()):
            sigma = tri_cm(g1, g2)
            for c_idx, label in enumerate(sweep.labels):
                want = evaluate_criterion(sigma, parse_criterion(label, 3))
                assert sweep.values[p_idx, c_idx] == pytest.approx(want, abs=1e-10)

    def test_verdicts_are_strict_bound_comparisons(self):
        axis = GridAxis(1.0, 2.0, 0.1)
        sweep = sweep_criteria("tri", {"G1": axis, "G2": axis}, ["D12", "D23", "PPT:1|23"])
        bounds = [DUAN_BOUND, DUAN_BOUND, 0.0]
        assert sweep.entangled.dtype == bool
        assert np.array_equal(sweep.entangled, sweep.values < np.array(bounds))
        assert sweep.entangled.any() and not sweep.entangled.all()

    def test_region_column(self):
        sweep = sweep_criteria("tri", {"G1": 1.3, "G2": 1.05}, ["D12"])
        assert sweep.region.tolist() == ["III"]

    def test_region_column_matches_scalar_classifier(self):
        axis = GridAxis(1.0, 3.0, 0.1)
        sweep = sweep_criteria("tri", {"G1": axis, "G2": axis}, ["D13"])
        assert sweep.region.shape == (21 * 21,)
        assert sweep.region.tolist() == [
            classify_tri_region(g1, g2) for g1, g2 in sweep.points.tolist()
        ]

    def test_unknown_label_rejected(self):
        with pytest.raises(CriterionError):
            sweep_criteria("tri", {"G1": 1.2, "G2": 1.2}, ["D99"])

    def test_empty_criteria_rejected(self):
        with pytest.raises(ValueError):
            sweep_criteria("tri", {"G1": 1.2, "G2": 1.2}, [])

    def test_bad_axes_rejected(self):
        with pytest.raises(ValueError):
            sweep_criteria("tri", {"G1": 1.2}, ["D12"])
        with pytest.raises(ValueError):
            sweep_criteria("tri", {"G1": 1.2, "G2": 1.2, "G3": 1.2}, ["D12"])

    def test_parallel_rows_identical(self, monkeypatch):
        axes = {"G1": GridAxis(1.0, 1.5, 0.05), "G2": GridAxis(1.0, 1.5, 0.05)}
        # PPT:1|3 takes the singular-value route, PPT:1|23 the pure-state closed form
        labels = ["D12", "D23", "PPT:1|23", "PPT:1|3"]
        whole = sweep_criteria("tri", axes, labels)  # 121 points, one block
        for block in (criteria.BLOCK, 7):  # 7: 18 blocks, the last of one point
            monkeypatch.setattr(criteria, "BLOCK", block)
            for jobs in (1, 3):
                sweep = sweep_criteria("tri", axes, labels, jobs=jobs)
                assert sweep.labels == whole.labels
                for name in ("points", "values", "entangled", "region"):
                    assert np.array_equal(getattr(sweep, name), getattr(whole, name)), (
                        block, jobs, name,
                    )

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            sweep_criteria("tri", {"G1": 1.2, "G2": 1.2}, ["D12"], jobs=jobs)

    def test_memory_does_not_grow_with_the_grid(self):
        labels = ["D12", "PPT:1|234", "PPT:12|34", "PPT:1|3"]

        def peak(n):
            axis = 1.0 + 0.02 * np.arange(n)
            tracemalloc.start()
            try:
                sweep = sweep_criteria("quad", dict.fromkeys(("G1", "G2", "G3"), axis), labels)
                return tracemalloc.get_traced_memory()[1], sweep
            finally:
                tracemalloc.stop()

        small, _ = peak(11)
        big, sweep = peak(22)  # 8x the points of the small grid
        outputs = sweep.points.nbytes + sweep.values.nbytes + sweep.entangled.nbytes
        assert big - small < 2 * outputs, (big, small, outputs)

    @pytest.mark.parametrize(
        "axes",
        [
            {"G1": GridAxis(1.0, float("inf"), 0.1), "G2": 1.2},
            {"G1": GridAxis(1.0, 2.0, float("nan")), "G2": 1.2},
            {"G1": float("inf"), "G2": 1.2},
        ],
    )
    def test_non_finite_gains_rejected(self, axes):
        with pytest.raises(ValueError, match="finite"):
            sweep_criteria("tri", axes, ["D12"])

    def test_overflowing_point_count_rejected(self):
        with pytest.raises(ValueError, match="too many points"):
            sweep_criteria("tri", {"G1": GridAxis(1.0, 1e300, 1e-300), "G2": 1.2}, ["D12"])

    def test_non_finite_value_names_label_and_point(self):
        with pytest.raises(ValueError, match=r"D12 is not finite .* at G1=1e\+200, G2=1.2"):
            sweep_criteria("tri", {"G1": 1e200, "G2": 1.2}, ["D12", "D13"])
