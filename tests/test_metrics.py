import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from avcount.dataio import PassByAnnotation
from avcount.metrics import (
    _interval_minima,
    build_intervals,
    classify_detections,
    compute_curve,
    confidence_interval,
    rvce,
    write_curve_csv,
    write_summary_csv,
)
from avcount.peakdet import Detections

T_D = 0.75


def dets(*pairs):
    """Detections at the given (time, distance) pairs, in the given order."""
    times = [float(t) for t, _ in pairs]
    distances = [float(d) for _, d in pairs]
    n = len(pairs)
    return Detections(np.zeros(n, dtype=int), times, [T_D - d for d in distances],
                      np.full(n, 0.1), distances)


def loop_intervals(ann, t_d):
    """Reference: the per-instant loop build_intervals replaced, as (start, end) pairs."""
    instants = ann.instants
    out = []
    for i, t in enumerate(instants):
        start = t - t_d
        end = t + t_d
        if i > 0:
            start = max(start, 0.5 * (instants[i - 1] + t))
        if i + 1 < len(instants):
            end = min(end, 0.5 * (t + instants[i + 1]))
        out.append((max(start, 0.0), min(end, ann.duration)))
    return out


@st.composite
def annotations(draw):
    """None, one or several instants; neighbours often overlap; 0 and duration occur."""
    n = draw(st.integers(0, 10))
    first = draw(st.just(0.0) | st.floats(0.0, 5.0))
    gaps = draw(st.lists(st.floats(1e-3, 4.0), min_size=max(n - 1, 0), max_size=max(n - 1, 0)))
    instants = np.cumsum([first, *gaps])[:n].tolist()
    tail = draw(st.just(0.0) | st.floats(1e-3, 5.0))
    duration = (instants[-1] if instants else 1.0) + tail
    assume(duration > 0)
    return PassByAnnotation("a", tuple(instants), duration)


class TestBuildIntervals:
    def test_single_instant(self):
        ann = PassByAnnotation("a", (5.0,), 20.0)
        (iv,) = build_intervals(ann, T_D)
        assert iv.tolist() == [4.25, 5.75]

    def test_overlapping_instants_split_at_midpoint(self):
        ann = PassByAnnotation("a", (5.0, 5.8), 20.0)
        first, second = build_intervals(ann, T_D)
        assert first.tolist() == [4.25, 5.4]
        assert second.tolist() == [5.4, 6.55]

    def test_clipped_to_clip_bounds(self):
        ann = PassByAnnotation("a", (0.3,), 20.0)
        (iv,) = build_intervals(ann, T_D)
        assert iv.tolist() == [0.0, 1.05]

    def test_intervals_partition_without_overlap(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            instants = np.sort(rng.uniform(0, 20, rng.integers(1, 8)))
            instants = tuple(np.unique(instants))
            ivs = build_intervals(PassByAnnotation("a", instants, 20.0), T_D)
            assert len(ivs) == len(instants)
            for a, b in zip(ivs, ivs[1:]):
                assert a[1] <= b[0] + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(ann=annotations(), t_d=st.floats(0.05, 3.0))
    def test_equals_per_instant_loop(self, ann, t_d):
        ivs = build_intervals(ann, t_d)
        want = np.array(loop_intervals(ann, t_d), dtype=np.float64).reshape(-1, 2)
        assert ivs.shape == (ann.n_vehicles, 2) and ivs.dtype == np.float64
        assert ivs.tobytes() == want.tobytes()
        starts, ends = ivs[:, 0], ivs[:, 1]
        instants = np.array(ann.instants)
        assert np.all(starts < ends)
        assert np.all((starts <= instants) & (instants <= ends))
        # the rows partition their union: inside the clip, in order, disjoint
        # apart from shared endpoints
        assert np.all(starts >= 0.0) and np.all(ends <= ann.duration)
        assert np.all(ends[:-1] <= starts[1:])


class TestClassifyDetections:
    def _one_interval(self):
        return build_intervals(PassByAnnotation("a", (5.0,), 20.0), T_D)

    def test_single_true_positive(self):
        assert classify_detections(self._one_interval(), dets((5.0, 0.1)), 0.5) == (1, 0, 0)

    def test_max_one_detection_per_interval(self):
        d = dets((4.9, 0.1), (5.1, 0.2))
        assert classify_detections(self._one_interval(), d, 0.5) == (1, 1, 0)

    def test_detection_outside_all_intervals_is_fp(self):
        assert classify_detections(self._one_interval(), dets((15.0, 0.1)), 0.5) == (0, 1, 1)

    def test_detection_above_threshold_ignored(self):
        assert classify_detections(self._one_interval(), dets((5.0, 0.6)), 0.5) == (0, 0, 1)

    def test_threshold_is_strict(self):
        assert classify_detections(self._one_interval(), dets((5.0, 0.5)), 0.5) == (0, 0, 1)

    def test_order_invariance(self):
        ivs = build_intervals(PassByAnnotation("a", (3.0, 9.0), 20.0), T_D)
        pairs = [(9.1, 0.05), (2.9, 0.2), (15.0, 0.1), (3.2, 0.3)]
        fwd = classify_detections(ivs, dets(*pairs), 0.6)
        rev = classify_detections(ivs, dets(*reversed(pairs)), 0.6)
        assert fwd == rev == (2, 2, 0)


def first_containing_minima(intervals, detections):
    """Reference matcher: each detection goes to the first interval holding it."""
    best = np.full(len(intervals), np.inf)
    for time, distance in zip(detections.time.tolist(), detections.distance.tolist()):
        for k, (start, end) in enumerate(intervals.tolist()):
            if start <= time <= end:
                best[k] = min(best[k], distance)
                break
    return best


class TestIntervalMinima:
    def test_shared_boundary_goes_to_earlier_interval(self):
        ivs = build_intervals(PassByAnnotation("a", (5.0, 5.8), 20.0), T_D)
        best, values = _interval_minima(ivs, dets((5.4, 0.1), (5.41, 0.3)))
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
        starts = ivs[:, 0].tolist()
        ends = ivs[:, 1].tolist()
        # every boundary (shared ones included), a point in each gap between
        # intervals, and points before the first and after the last interval
        times = starts + ends + [starts[0] - 0.5, ends[-1] + 0.5]
        times += [0.5 * (end + start) for end, start in zip(ends, starts[1:]) if end < start]
        times += data.draw(st.lists(st.floats(-1.0, ann.duration + 1.0), max_size=20))
        distances = data.draw(
            st.lists(st.floats(0.0, T_D), min_size=len(times), max_size=len(times))
        )
        pairs = list(zip(times, distances))
        best, values = _interval_minima(ivs, dets(*data.draw(st.permutations(pairs))))
        assert np.array_equal(best, first_containing_minima(ivs, dets(*pairs)))
        assert sorted(values.tolist()) == sorted(distances)


def loop_efp(report):
    """Reference: the per-threshold scan that located the EFP point -> (t_det, value)."""
    t, p_fp = report.t_det, report.p_fp
    diff = p_fp - report.p_fn
    for i in range(t.size):
        if diff[i] == 0.0:
            return float(t[i]), float(p_fp[i])
        if i + 1 < t.size and (diff[i] < 0.0 < diff[i + 1] or diff[i] > 0.0 > diff[i + 1]):
            frac = diff[i] / (diff[i] - diff[i + 1])
            return (
                float(t[i] + frac * (t[i + 1] - t[i])),
                float(p_fp[i] + frac * (p_fp[i + 1] - p_fp[i])),
            )
    return None, None


class TestComputeCurve:
    def _perfect(self, n_clips=4, per_clip=3):
        out = []
        for c in range(n_clips):
            instants = tuple(2.0 + 4.0 * k for k in range(per_clip))
            ann = PassByAnnotation(f"c{c}", instants, 20.0)
            ivs = build_intervals(ann, T_D)
            out.append((ivs, dets(*[(t, 0.0) for t in instants])))
        return out

    def test_perfect_detector(self):
        report = compute_curve(self._perfect(), T_D)
        p_tps = report.p_tp.tolist()
        assert p_tps[0] == 0.0  # nothing falls strictly below zero
        assert all(p == 1.0 for p in p_tps[1:])
        assert report.area_ptp == pytest.approx(0.99)
        assert report.efp_value == pytest.approx(0.0)
        assert all(r == 0.0 for t, r in zip(report.t_det, report.rvce) if t > 0)

    def test_no_detections(self):
        per_clip = [(ivs, dets()) for ivs, _ in self._perfect()]
        report = compute_curve(per_clip, T_D)
        assert all(p_tp == 0.0 and p_fn == 1.0 and p_fp == 0.0
                   for p_tp, p_fp, p_fn in zip(report.p_tp, report.p_fp, report.p_fn))
        assert report.efp_tdet is None and report.efp_value is None
        assert report.area_ptp == 0.0

    def test_identity_ptp_plus_pfn(self):
        rng = np.random.default_rng(1)
        per_clip = []
        for c in range(6):
            instants = tuple(np.sort(rng.uniform(1, 19, 3)))
            ann = PassByAnnotation(f"c{c}", instants, 20.0)
            ivs = build_intervals(ann, T_D)
            pairs = [(t + rng.normal(0, 0.2), rng.uniform(0, 0.75)) for t in instants]
            pairs += [(rng.uniform(0, 20), rng.uniform(0, 0.75))]
            per_clip.append((ivs, dets(*sorted(pairs, key=lambda p: p[0]))))
        report = compute_curve(per_clip, T_D)
        for p_tp, p_fn in zip(report.p_tp, report.p_fn):
            assert p_tp + p_fn == pytest.approx(1.0)
        p_tps = report.p_tp.tolist()
        assert all(b >= a for a, b in zip(p_tps, p_tps[1:]))
        assert 0.0 <= report.area_ptp <= 1.0

    def test_grid_is_equidistant_over_range(self):
        report = compute_curve(self._perfect(), T_D)
        ts = report.t_det.tolist()
        assert len(ts) == 100
        assert ts[0] == 0.0 and ts[-1] == pytest.approx(T_D)
        diffs = np.diff(ts)
        assert np.allclose(diffs, diffs[0])

    def test_efp_interpolation_between_grid_points(self):
        # both step changes land inside one grid gap (0.3712, 0.3788), so
        # the crossing must be interpolated strictly between grid points
        ann = PassByAnnotation("a", (3.0, 9.0), 20.0)
        ivs = build_intervals(ann, T_D)
        d = dets((3.0, 0.1), (9.0, 0.374), (15.0, 0.376))
        report = compute_curve([(ivs, d)], T_D)
        gap = T_D / 99
        assert 49 * gap < report.efp_tdet < 50 * gap
        assert report.efp_value == pytest.approx(0.25)

    def test_efp_on_grid_point_when_curves_meet_there(self):
        ann = PassByAnnotation("a", (5.0,), 20.0)
        ivs = build_intervals(ann, T_D)
        d = dets((5.0, 0.4), (10.0, 0.2))
        report = compute_curve([(ivs, d)], T_D)
        # p_fp and p_fn are both 1 over [0.2, 0.4]; the first grid point
        # with p_fp == p_fn is reported
        assert report.efp_tdet == pytest.approx(27 * T_D / 99)
        assert report.efp_value == 1.0

    def test_empty_truth_rejected(self):
        ann = PassByAnnotation("a", (), 20.0)
        with pytest.raises(ValueError):
            compute_curve([(build_intervals(ann, T_D), dets())], T_D)

    @settings(max_examples=300, deadline=None)
    @given(ann=annotations(), n_points=st.integers(1, 120), data=st.data())
    def test_efp_equals_per_threshold_scan(self, ann, n_points, data):
        assume(ann.n_vehicles > 0)
        pairs = data.draw(
            st.lists(st.tuples(st.floats(0.0, ann.duration), st.floats(0.0, T_D)), max_size=15)
        )
        report = compute_curve([(build_intervals(ann, T_D), dets(*pairs))], T_D, n_points)
        got = (report.efp_tdet, report.efp_value)
        assert repr(got) == repr(loop_efp(report))


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
    report = compute_curve([(ivs, dets((5.0, 0.1), (9.0, 0.2)))], T_D)
    curve_path = tmp_path / "curve.csv"
    summary_path = tmp_path / "summary.csv"
    write_curve_csv(curve_path, report)
    write_summary_csv(summary_path, report)
    lines = curve_path.read_text().strip().splitlines()
    assert lines[0] == "t_det,p_tp,p_fp,p_fn,rvce"
    assert len(lines) == 101
    summary = summary_path.read_text().strip().splitlines()
    assert summary[0] == "area_ptp,efp_tdet,efp_value"

