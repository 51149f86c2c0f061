import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avcount.dataio import DistanceSeries
from avcount.peakdet import (
    Detections,
    DetectorSpec,
    SmootherSpec,
    _ma_single,
    count_at_threshold,
    detect_vehicles,
    moving_average_cascade,
    peak_candidates,
    peak_indices,
    prominence,
)


def _separates(v, peak_index, level):
    """Whether the run around the peak strictly above `level` isolates it.

    The run must neither run off either end of the sequence nor touch a
    strictly higher point.
    """
    stops_left = np.flatnonzero(v[:peak_index] <= level)
    stops_right = np.flatnonzero(v[peak_index + 1 :] <= level)
    if stops_left.size == 0 or stops_right.size == 0:
        return False  # the run would reach a sequence end
    lo = stops_left[-1] + 1
    hi = peak_index + stops_right[0]
    if np.max(v[lo : hi + 1]) > v[peak_index]:
        return False  # a strictly higher summit shares the run
    return True


def contour_oracle(values, peak_index):
    """Brute-force contour lowering, independent of the scan implementation.

    A candidate level l (any signal value up to the peak height) separates
    the peak when the contiguous run around it where values stay strictly
    above l neither touches a strictly higher point nor runs off either end
    of the sequence. The prominence is the peak height minus the lowest
    separating level.

    Raising the level keeps every stop point (a value <= l) a stop, so the
    run only shrinks: a bounded run stays bounded and cannot gain a higher
    point. The separating levels are therefore an upper set of the sorted
    candidates, and the lowest one is found by bisection.
    """
    v = np.asarray(values, dtype=np.float64)
    levels = np.unique(v)
    levels = levels[levels <= v[peak_index]]
    first = bisect.bisect_left(levels, True, key=lambda level: _separates(v, peak_index, level))
    if first == levels.size:
        raise AssertionError(f"index {peak_index} never separates: not a peak")
    return float(v[peak_index] - levels[first])


def series(values, frame_period=0.1, t_d=0.75, clip_id="c"):
    return DistanceSeries(clip_id=clip_id, values=np.asarray(values, dtype=np.float64),
                          frame_period=frame_period, t_d=t_d)


class TestMovingAverage:
    def test_empty_cascade_is_identity(self):
        v = np.array([0.1, 0.5, 0.3])
        out = moving_average_cascade(v, SmootherSpec(()))
        assert np.array_equal(out, v)

    def test_constant_series_unchanged_exactly(self):
        v = np.full(20, 0.75)
        out = moving_average_cascade(v, SmootherSpec((5, 3)))
        assert np.array_equal(out, v)

    def test_impulse_through_ma3(self):
        v = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        out = moving_average_cascade(v, SmootherSpec((3,)))
        expect = np.array([0.0, 1 / 3, 1 / 3, 1 / 3, 0.0])
        assert np.allclose(out, expect, atol=1e-15)

    def test_edges_average_in_range_samples_only(self):
        v = np.array([6.0, 0.0, 0.0, 0.0, 3.0])
        out = moving_average_cascade(v, SmootherSpec((3,)))
        assert out[0] == 3.0  # mean of first two
        assert out[-1] == 1.5  # mean of last two

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            SmootherSpec((4,))
        with pytest.raises(ValueError):
            SmootherSpec((5, 2))

    def test_non_integer_length_rejected(self):
        with pytest.raises(TypeError):
            SmootherSpec((5.0, 3))
        with pytest.raises(TypeError):
            SmootherSpec("53")

    def test_filters_applied_in_listed_order(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(0, 1, 40)
        once = moving_average_cascade(v, SmootherSpec((5,)))
        both = moving_average_cascade(once, SmootherSpec((3,)))
        cascade = moving_average_cascade(v, SmootherSpec((5, 3)))
        assert np.array_equal(both, cascade)

    @staticmethod
    def gather_oracle(values, length):
        """The clipped-window mean of every frame read from one index gather."""
        if length == 1:
            return values.copy()
        n = values.size
        half = length // 2
        csum = np.concatenate(([0.0], np.cumsum(values)))
        lo = np.maximum(np.arange(n) - half, 0)
        hi = np.minimum(np.arange(n) + half, n - 1) + 1
        return (csum[hi] - csum[lo]) / (hi - lo)

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=80),
        length=st.integers(0, 7).map(lambda h: 2 * h + 1),
    )
    def test_single_pass_equals_gather_oracle_bitwise(self, values, length):
        v = np.array(values)
        out = _ma_single(v, length)
        assert out.tobytes() == self.gather_oracle(v, length).tobytes()

    def test_never_expands_value_range(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.uniform(0, 0.75, 60)
            out = moving_average_cascade(v, SmootherSpec((7, 5, 3)))
            assert out.min() >= v.min() - 1e-15
            assert out.max() <= v.max() + 1e-15


class TestFindPeaks:
    def test_simple_peak(self):
        assert peak_indices([0, 1, 0]).tolist() == [1]

    def test_monotone_has_no_peaks(self):
        assert peak_indices([0, 1, 2, 3]).tolist() == []
        assert peak_indices([3, 2, 1, 0]).tolist() == []

    def test_plateau_and_sharp_peak(self):
        assert peak_indices([0, 2, 2, 1, 3, 0]).tolist() == [1, 4]

    def test_odd_plateau_takes_middle(self):
        assert peak_indices([0, 5, 5, 5, 0]).tolist() == [2]

    def test_even_plateau_takes_left_middle(self):
        assert peak_indices([0, 5, 5, 5, 5, 0]).tolist() == [2]

    def test_endpoints_never_peaks(self):
        assert peak_indices([9, 1, 2]).tolist() == []
        assert peak_indices([2, 1, 9]).tolist() == []
        assert peak_indices([5, 5, 1]).tolist() == []

    def test_short_sequences(self):
        assert peak_indices([1.0, 2.0]).tolist() == []
        assert peak_indices([1.0]).tolist() == []

    def test_matches_definition_on_random_sequences(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            v = rng.integers(0, 6, size=rng.integers(3, 40)).astype(float)
            got = set(peak_indices(v).tolist())
            # direct definition: strictly above nearest unequal neighbors
            expect = set()
            for i in range(1, v.size - 1):
                li = i - 1
                while li >= 0 and v[li] == v[i]:
                    li -= 1
                ri = i + 1
                while ri < v.size and v[ri] == v[i]:
                    ri += 1
                if li >= 0 and ri < v.size and v[li] < v[i] and v[ri] < v[i]:
                    lo = li + 1
                    hi = ri - 1
                    if (lo + hi) // 2 == i:
                        expect.add(i)
            assert got == expect


class TestProminence:
    def test_isolated_peak(self):
        assert prominence([0.0, 1.0, 0.0], 1) == 1.0

    def test_global_max_prominence_equals_height_from_base(self):
        v = [0.0, 0.2, 0.74, 0.1, 0.3, 0.0]
        assert prominence(v, 2) == 0.74

    def test_side_peak_keyed_to_saddle(self):
        v = np.array([0.0, 3.0, 1.0, 2.0, 0.0])
        assert prominence(v, 3) == 1.0

    def test_non_peak_index_rejected(self):
        with pytest.raises(ValueError):
            prominence([0.0, 1.0, 0.0], 0)
        with pytest.raises(ValueError):
            prominence([0.0, 1.0, 2.0, 1.0, 0.0], 1)

    def test_equals_contour_oracle_on_random_floats(self):
        rng = np.random.default_rng(3)
        for _ in range(150):
            v = rng.uniform(0, 1, size=rng.integers(3, 80))
            for i in peak_indices(v):
                assert prominence(v, int(i)) == contour_oracle(v, int(i))

    def test_equals_contour_oracle_on_plateaued_integers(self):
        rng = np.random.default_rng(4)
        for _ in range(150):
            v = rng.integers(0, 5, size=rng.integers(3, 60)).astype(float)
            for i in peak_indices(v):
                assert prominence(v, int(i)) == contour_oracle(v, int(i))

    def test_prominence_never_exceeds_magnitude_above_base(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(0, 1, 200)
        for i in peak_indices(v):
            p = prominence(v, int(i))
            assert 0 <= p <= v[i]


class TestDetectVehicles:
    def test_detector_wraps_lengths_into_smoother(self):
        assert DetectorSpec((7, 3)).smoother == SmootherSpec((7, 3))

    def test_paper_like_peak_kept_by_magnitude(self):
        # a weak peak of magnitude 0.46 and prominence 0.20 next to a tall
        # (0.74, 0.74) neighbor, against M = 0.40*0.75 = 0.30 and P = 0.15
        det = DetectorSpec(SmootherSpec(()), m_frac=0.40, p_frac=0.20)
        v = 0.75 - np.array([0.0, 0.2, 0.74, 0.26, 0.46, 0.2, 0.0, 0.0, 0.0, 0.0])
        s = series(v)
        kept = detect_vehicles(s, det)
        mags = [round(m, 2) for m in kept.magnitude.tolist()]
        assert sorted(mags) == [0.46, 0.74]
        weaker = kept[np.array(mags) == 0.46]
        assert weaker.prominence[0] == pytest.approx(0.20)
        assert weaker.magnitude[0] > 0.40 * 0.75
        assert weaker.prominence[0] > 0.20 * 0.75  # also clears P

    def test_weak_peak_failing_both_clauses_rejected(self):
        det = DetectorSpec(SmootherSpec(()), m_frac=0.40, p_frac=0.20)
        # (0.25, 0.10) peak beside a taller one: fails both clauses
        v = 0.75 - np.array([0.0, 0.6, 0.15, 0.25, 0.15, 0.15, 0.0, 0.0])
        kept = detect_vehicles(series(v), det)
        assert [round(m, 2) for m in kept.magnitude.tolist()] == [0.6]
        rejected = peak_candidates(series(v), SmootherSpec(()))
        weak = rejected[np.array([round(m, 2) for m in rejected.magnitude.tolist()]) == 0.25]
        assert weak.prominence[0] == pytest.approx(0.10)
        assert weak.magnitude[0] <= 0.30 and weak.prominence[0] <= 0.15

    def test_flat_series_at_t_d_has_no_detections(self):
        det = DetectorSpec(SmootherSpec((5, 3)), 0.40, 0.20)
        assert len(detect_vehicles(series(np.full(50, 0.75)), det)) == 0

    def test_monotone_in_thresholds(self):
        rng = np.random.default_rng(6)
        v = np.clip(0.75 - np.abs(rng.normal(0, 0.3, 120)), 0, 0.75)
        s = series(v)
        base = detect_vehicles(s, DetectorSpec(SmootherSpec((3,)), 0.30, 0.10))
        for m, p in [(0.4, 0.1), (0.3, 0.2), (0.5, 0.25)]:
            tighter = detect_vehicles(s, DetectorSpec(SmootherSpec((3,)), m, p))
            base_ids = set(base.frame_index.tolist())
            assert set(tighter.frame_index.tolist()) <= base_ids

    def test_detections_sorted_by_time_with_metadata(self):
        v = 0.75 - np.array([0, 0.5, 0, 0, 0.6, 0, 0, 0.4, 0], dtype=float)
        det = DetectorSpec(SmootherSpec(()), 0.3, 0.2)
        kept = detect_vehicles(series(v, frame_period=0.2), det)
        times = kept.time.tolist()
        assert times == sorted(times)
        for i, t, m, d in zip(kept.frame_index, kept.time, kept.magnitude, kept.distance):
            assert d == pytest.approx(0.75 - m)
            assert t == pytest.approx(i * 0.2)

    def test_prominence_only_mode_disables_magnitude(self):
        v = 0.75 - np.array([0, 0.74, 0, 0, 0, 0, 0, 0, 0, 0], dtype=float)
        pp = DetectorSpec(SmootherSpec(()), m_frac=1.0, p_frac=0.15)
        kept = detect_vehicles(series(v), pp)
        assert len(kept) == 1  # by prominence: 0.74 > 0.15 * 0.75
        tiny = 0.75 - np.array([0, 0.1, 0, 0, 0, 0, 0, 0, 0, 0], dtype=float)
        assert len(detect_vehicles(series(tiny), pp)) == 0


class TestCountAtThreshold:
    def _peaks(self, distances):
        d = np.array(distances, dtype=float)
        i = np.arange(d.size)
        return Detections(
            frame_index=i, time=i.astype(float), magnitude=0.75 - d,
            prominence=np.full(d.size, 0.1), distance=d,
        )

    def test_zero_threshold_counts_nothing(self):
        assert count_at_threshold(self._peaks([0.0, 0.1]), 0.0) == 0

    def test_full_threshold_counts_positive_magnitudes(self):
        peaks = self._peaks([0.1, 0.4, 0.75])
        assert count_at_threshold(peaks, 0.75) == 2

    def test_hand_case(self):
        assert count_at_threshold(self._peaks([0.1, 0.4, 0.6]), 0.5) == 2

    def test_nondecreasing_in_threshold(self):
        peaks = self._peaks([0.05, 0.2, 0.42, 0.6, 0.74])
        counts = [count_at_threshold(peaks, t) for t in np.linspace(0, 0.75, 40)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_peak_candidates_reports_every_peak():
    v = 0.75 - np.array([0, 0.7, 0.2, 0.3, 0.1, 0.05, 0], dtype=float)
    cands = peak_candidates(series(v), SmootherSpec(()))
    assert cands.frame_index.tolist() == [1, 3]
    det_all = DetectorSpec(SmootherSpec(()), 0.0, 0.0)
    assert len(detect_vehicles(series(v), det_all)) == 2


@pytest.mark.parametrize("smoother", [(), (5, 3)])
def test_candidates_equal_contour_oracle(smoother):
    rng = np.random.default_rng(7)
    spec = SmootherSpec(smoother)
    for case in range(60):
        n = int(rng.integers(3, 120))
        if case % 2:  # plateau-rich: few distinct levels
            values = rng.integers(0, 6, size=n) * (0.75 / 5)
        else:
            values = rng.uniform(0.0, 0.75, size=n)
        s = series(values, frame_period=0.037)
        smoothed = moving_average_cascade(values, spec)
        inverted = s.t_d - smoothed
        cands = peak_candidates(s, spec)
        assert cands.frame_index.tolist() == peak_indices(inverted).tolist()
        for i, t, m, p, d in zip(
            cands.frame_index.tolist(), cands.time.tolist(), cands.magnitude.tolist(),
            cands.prominence.tolist(), cands.distance.tolist(),
        ):
            assert p == contour_oracle(inverted, i)
            assert m == inverted[i]
            assert d == smoothed[i]
            assert t == i * 0.037


class TestDetections:
    def test_len_and_mask_select_every_field(self):
        d = Detections([2, 5, 9], [0.2, 0.5, 0.9], [0.7, 0.1, 0.4], [0.3, 0.1, 0.2],
                       [0.05, 0.65, 0.35])
        assert len(d) == 3
        sub = d[np.array([True, False, True])]
        assert len(sub) == 2
        assert sub.frame_index.tolist() == [2, 9]
        assert sub.time.tolist() == [0.2, 0.9]
        assert sub.magnitude.tolist() == [0.7, 0.4]
        assert sub.prominence.tolist() == [0.3, 0.2]
        assert sub.distance.tolist() == [0.05, 0.35]

    def test_fields_must_share_one_length(self):
        with pytest.raises(ValueError):
            Detections([1, 2], [0.1, 0.2], [0.5], [0.1, 0.1], [0.2, 0.2])
        with pytest.raises(ValueError):
            Detections([[1]], [[0.1]], [[0.5]], [[0.1]], [[0.2]])
