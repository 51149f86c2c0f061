import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avcount.dataio import PassByAnnotation
from avcount.metrics import (
    PassByInterval,
    _interval_minima,
    build_intervals,
    classify_detections,
    compute_curve,
    confidence_interval,
    rvce,
    write_curve_csv,
    write_summary_csv,
)
from avcount.peakdet import Peak

T_D = 0.75


def det(time, distance=0.0):
    return Peak(frame_index=0, time=time, magnitude=T_D - distance, prominence=0.1,
                distance=distance)


class TestBuildIntervals:
    def test_single_instant(self):
        ann = PassByAnnotation("a", (5.0,), 20.0)
        (iv,) = build_intervals(ann, T_D)
        assert (iv.start, iv.end, iv.center) == (4.25, 5.75, 5.0)

    def test_overlapping_instants_split_at_midpoint(self):
        ann = PassByAnnotation("a", (5.0, 5.8), 20.0)
        first, second = build_intervals(ann, T_D)
        assert (first.start, first.end) == (4.25, 5.4)
        assert (second.start, second.end) == (5.4, 6.55)

    def test_clipped_to_clip_bounds(self):
        ann = PassByAnnotation("a", (0.3,), 20.0)
        (iv,) = build_intervals(ann, T_D)
        assert (iv.start, iv.end) == (0.0, 1.05)

    def test_intervals_partition_without_overlap(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            instants = np.sort(rng.uniform(0, 20, rng.integers(1, 8)))
            instants = tuple(np.unique(instants))
            ivs = build_intervals(PassByAnnotation("a", instants, 20.0), T_D)
            assert len(ivs) == len(instants)
            for a, b in zip(ivs, ivs[1:]):
                assert a.end <= b.start + 1e-12


class TestClassifyDetections:
    def _one_interval(self):
        return build_intervals(PassByAnnotation("a", (5.0,), 20.0), T_D)

    def test_single_true_positive(self):
        assert classify_detections(self._one_interval(), [det(5.0, 0.1)], 0.5) == (1, 0, 0)

    def test_max_one_detection_per_interval(self):
        dets = [det(4.9, 0.1), det(5.1, 0.2)]
        assert classify_detections(self._one_interval(), dets, 0.5) == (1, 1, 0)

    def test_detection_outside_all_intervals_is_fp(self):
        assert classify_detections(self._one_interval(), [det(15.0, 0.1)], 0.5) == (0, 1, 1)

    def test_detection_above_threshold_ignored(self):
        assert classify_detections(self._one_interval(), [det(5.0, 0.6)], 0.5) == (0, 0, 1)

    def test_threshold_is_strict(self):
        assert classify_detections(self._one_interval(), [det(5.0, 0.5)], 0.5) == (0, 0, 1)

    def test_order_invariance(self):
        ivs = build_intervals(PassByAnnotation("a", (3.0, 9.0), 20.0), T_D)
        dets = [det(9.1, 0.05), det(2.9, 0.2), det(15.0, 0.1), det(3.2, 0.3)]
        fwd = classify_detections(ivs, dets, 0.6)
        rev = classify_detections(ivs, list(reversed(dets)), 0.6)
        assert fwd == rev == (2, 2, 0)


def first_containing_minima(intervals, detections):
    """Reference matcher: each detection goes to the first interval holding it."""
    best = np.full(len(intervals), np.inf)
    for p in detections:
        for k, iv in enumerate(intervals):
            if iv.start <= p.time <= iv.end:
                best[k] = min(best[k], p.distance)
                break
    return best


class TestIntervalMinima:
    def test_shared_boundary_goes_to_earlier_interval(self):
        ivs = build_intervals(PassByAnnotation("a", (5.0, 5.8), 20.0), T_D)
        best, values = _interval_minima(ivs, [det(5.4, 0.1), det(5.41, 0.3)])
        assert best.tolist() == [0.1, 0.3]
        assert values.tolist() == [0.1, 0.3]

    @settings(max_examples=300, deadline=None)
    @given(
        first=st.floats(0.0, 2.0),
        gaps=st.lists(st.floats(0.01, 3.0), max_size=10),
        tail=st.floats(0.0, 2.0),
        t_d=st.floats(0.05, 2.0),
        data=st.data(),
    )
    def test_equals_first_containing_interval(self, first, gaps, tail, t_d, data):
        instants = tuple(np.cumsum([first, *gaps]).tolist())
        ann = PassByAnnotation("a", instants, instants[-1] + tail + 0.01)
        ivs = build_intervals(ann, t_d)
        starts = [iv.start for iv in ivs]
        ends = [iv.end for iv in ivs]
        # every boundary (shared ones included), a point in each gap between
        # intervals, and points before the first and after the last interval
        times = starts + ends + [starts[0] - 0.5, ends[-1] + 0.5]
        times += [0.5 * (a.end + b.start) for a, b in zip(ivs, ivs[1:]) if a.end < b.start]
        times += data.draw(st.lists(st.floats(-1.0, ann.duration + 1.0), max_size=20))
        distances = data.draw(
            st.lists(st.floats(0.0, T_D), min_size=len(times), max_size=len(times))
        )
        dets = [det(t, d) for t, d in zip(times, distances)]
        best, values = _interval_minima(ivs, data.draw(st.permutations(dets)))
        assert np.array_equal(best, first_containing_minima(ivs, dets))
        assert sorted(values.tolist()) == sorted(distances)


class TestComputeCurve:
    def _perfect(self, n_clips=4, per_clip=3):
        out = []
        for c in range(n_clips):
            instants = tuple(2.0 + 4.0 * k for k in range(per_clip))
            ann = PassByAnnotation(f"c{c}", instants, 20.0)
            ivs = build_intervals(ann, T_D)
            dets = [det(t, 0.0) for t in instants]
            out.append((ivs, dets))
        return out

    def test_perfect_detector(self):
        report = compute_curve(self._perfect(), T_D)
        p_tps = [pt.p_tp for pt in report.curve]
        assert p_tps[0] == 0.0  # nothing falls strictly below zero
        assert all(p == 1.0 for p in p_tps[1:])
        assert report.area_ptp == pytest.approx(0.99)
        assert report.efp_value == pytest.approx(0.0)
        rv = dict(report.rvce_by_tdet)
        assert all(r == 0.0 for t, r in report.rvce_by_tdet if t > 0)

    def test_no_detections(self):
        per_clip = [(ivs, []) for ivs, _ in self._perfect()]
        report = compute_curve(per_clip, T_D)
        assert all(pt.p_tp == 0.0 and pt.p_fn == 1.0 and pt.p_fp == 0.0 for pt in report.curve)
        assert report.efp_tdet is None and report.efp_value is None
        assert report.area_ptp == 0.0

    def test_identity_ptp_plus_pfn(self):
        rng = np.random.default_rng(1)
        per_clip = []
        for c in range(6):
            instants = tuple(np.sort(rng.uniform(1, 19, 3)))
            ann = PassByAnnotation(f"c{c}", instants, 20.0)
            ivs = build_intervals(ann, T_D)
            dets = [det(t + rng.normal(0, 0.2), rng.uniform(0, 0.75)) for t in instants]
            dets += [det(rng.uniform(0, 20), rng.uniform(0, 0.75))]
            per_clip.append((ivs, sorted(dets, key=lambda p: p.time)))
        report = compute_curve(per_clip, T_D)
        for pt in report.curve:
            assert pt.p_tp + pt.p_fn == pytest.approx(1.0)
        p_tps = [pt.p_tp for pt in report.curve]
        assert all(b >= a for a, b in zip(p_tps, p_tps[1:]))
        assert 0.0 <= report.area_ptp <= 1.0

    def test_grid_is_equidistant_over_range(self):
        report = compute_curve(self._perfect(), T_D)
        ts = [pt.t_det for pt in report.curve]
        assert len(ts) == 100
        assert ts[0] == 0.0 and ts[-1] == pytest.approx(T_D)
        diffs = np.diff(ts)
        assert np.allclose(diffs, diffs[0])

    def test_efp_interpolation_between_grid_points(self):
        # both step changes land inside one grid gap (0.3712, 0.3788), so
        # the crossing must be interpolated strictly between grid points
        ann = PassByAnnotation("a", (3.0, 9.0), 20.0)
        ivs = build_intervals(ann, T_D)
        dets = [det(3.0, 0.1), det(9.0, 0.374), det(15.0, 0.376)]
        report = compute_curve([(ivs, dets)], T_D)
        gap = T_D / 99
        assert 49 * gap < report.efp_tdet < 50 * gap
        assert report.efp_value == pytest.approx(0.25)

    def test_efp_on_grid_point_when_curves_meet_there(self):
        ann = PassByAnnotation("a", (5.0,), 20.0)
        ivs = build_intervals(ann, T_D)
        dets = [det(5.0, 0.4), det(10.0, 0.2)]
        report = compute_curve([(ivs, dets)], T_D)
        # p_fp and p_fn are both 1 over [0.2, 0.4]; the first grid point
        # with p_fp == p_fn is reported
        assert report.efp_tdet == pytest.approx(27 * T_D / 99)
        assert report.efp_value == 1.0

    def test_empty_truth_rejected(self):
        ann = PassByAnnotation("a", (), 20.0)
        with pytest.raises(ValueError):
            compute_curve([(build_intervals(ann, T_D), [])], T_D)


class TestRvce:
    def test_exact_count(self):
        assert rvce(100, 100) == 0.0

    def test_overestimation_is_negative(self):
        assert rvce(100, 102) == pytest.approx(-2.0)

    def test_vcprg6_scale_value(self):
        assert rvce(580, 570) == pytest.approx(1.7241379310344827)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            rvce(0, 5)


class TestConfidenceInterval:
    def test_equal_values_zero_width(self):
        mean, lo, hi = confidence_interval([3.0, 3.0, 3.0])
        assert (mean, lo, hi) == (3.0, 3.0, 3.0)

    def test_two_point_t_table_value(self):
        mean, lo, hi = confidence_interval([-1.0, 1.0])
        assert mean == 0.0
        assert hi == pytest.approx(12.706204736, abs=1e-6)
        assert lo == pytest.approx(-12.706204736, abs=1e-6)

    def test_forty_values_narrow_band(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0.0, 0.5, 40)
        mean, lo, hi = confidence_interval(values)
        assert lo < mean < hi
        # t_{0.975,39} = 2.0227, s/sqrt(40) scaling
        s = values.std(ddof=1)
        assert hi - mean == pytest.approx(2.02269092 * s / np.sqrt(40), rel=1e-6)

    def test_single_value_rejected(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0])


def test_report_csvs(tmp_path):
    ann = PassByAnnotation("a", (5.0, 9.0), 20.0)
    ivs = build_intervals(ann, T_D)
    report = compute_curve([(ivs, [det(5.0, 0.1), det(9.0, 0.2)])], T_D)
    curve_path = tmp_path / "curve.csv"
    summary_path = tmp_path / "summary.csv"
    write_curve_csv(curve_path, report)
    write_summary_csv(summary_path, report)
    lines = curve_path.read_text().strip().splitlines()
    assert lines[0] == "t_det,p_tp,p_fp,p_fn,rvce"
    assert len(lines) == 101
    summary = summary_path.read_text().strip().splitlines()
    assert summary[0] == "area_ptp,efp_tdet,efp_value"


def test_interval_validation():
    with pytest.raises(ValueError):
        PassByInterval("a", 2.0, 1.0, 1.5)
    with pytest.raises(ValueError):
        PassByInterval("a", 1.0, 2.0, 5.0)
