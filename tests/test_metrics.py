import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from opencil import metrics
from opencil.metrics import CurvePoint, af, aia, auc, aupr, lca, rejection_curve


def roc_area_by_threshold_sweep(ind, ood):
    """Trapezoidal integration of the ROC curve over all thresholds."""
    ind = np.asarray(ind, float)
    ood = np.asarray(ood, float)
    thresholds = np.concatenate([[np.inf], np.unique(np.concatenate([ind, ood]))[::-1]])
    points = []
    for thr in thresholds:
        tpr = np.mean(ind >= thr)
        fpr = np.mean(ood >= thr)
        points.append((fpr, tpr))
    points.append((1.0, 1.0))
    area = 0.0
    for (f0, t0), (f1, t1) in zip(points, points[1:]):
        area += (f1 - f0) * (t0 + t1) / 2.0
    return area


def pr_area_by_exhaustive_thresholds(ind, ood):
    """Step-wise PR area from explicit counting at every distinct score."""
    ind = list(map(float, ind))
    ood = list(map(float, ood))
    thresholds = sorted(set(ind) | set(ood), reverse=True)
    area = 0.0
    previous_recall = 0.0
    for thr in thresholds:
        tp = sum(1 for s in ind if s >= thr)
        fp = sum(1 for s in ood if s >= thr)
        precision = tp / (tp + fp)
        recall = tp / len(ind)
        area += (recall - previous_recall) * precision
        previous_recall = recall
    return area


class TestClosedWorldMetrics:
    def test_lca_is_last(self):
        assert lca([0.9, 0.8, 0.7]) == 0.7
        assert lca([0.42]) == 0.42

    def test_aia_is_mean(self):
        assert aia([0.9, 0.8, 0.7]) == pytest.approx(0.8)
        assert aia([1.0]) == 1.0

    def test_aia_at_least_lca_for_declining_runs(self):
        steps = [0.95, 0.9, 0.85, 0.8]
        assert aia(steps) >= lca(steps)

    def test_af_single_term(self):
        assert af([[0.9], [0.8, 0.85]]) == pytest.approx(0.1)

    def test_af_zero_for_constant_columns(self):
        matrix = [[0.8], [0.8, 0.9], [0.8, 0.9, 0.7]]
        assert af(matrix) == 0.0

    def test_af_negative_when_tasks_improve(self):
        assert af([[0.7], [0.9, 0.8]]) == pytest.approx(-0.2)

    def test_af_shape_validation(self):
        with pytest.raises(ValueError):
            af([[0.9]])
        with pytest.raises(ValueError):
            af([[0.9], [0.8]])


class TestAuc:
    def test_perfect_separation(self):
        assert auc([1.0, 2.0], [-1.0, 0.0]) == 1.0

    def test_tie_half_credit(self):
        assert auc([0.0], [0.0]) == 0.5

    def test_against_threshold_sweep_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            ind = rng.normal(0.5, 1.0, rng.integers(5, 100))
            ood = rng.normal(0.0, 1.2, rng.integers(5, 100))
            if trial % 3 == 0:  # force ties
                ind = np.round(ind, 1)
                ood = np.round(ood, 1)
            expected = roc_area_by_threshold_sweep(ind, ood)
            assert abs(auc(ind, ood) - expected) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=30),
           st.lists(st.floats(-5, 5), min_size=1, max_size=30))
    def test_complement_identity(self, a, b):
        combined = a + b
        if len(set(combined)) != len(combined):
            return  # identity stated for tie-free inputs
        assert auc(a, b) + auc(b, a) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-5, 5).map(lambda v: round(v, 3)),
                    min_size=2, max_size=30),
           st.lists(st.floats(-5, 5).map(lambda v: round(v, 3)),
                    min_size=2, max_size=30))
    def test_monotone_transform_invariance(self, a, b):
        # inputs on a 1e-3 grid so the float transform stays strictly increasing
        raw = auc(a, b)
        transform = lambda s: np.exp(np.asarray(s) / 3.0) * 2.0 + 1.0
        assert auc(transform(a), transform(b)) == pytest.approx(raw, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auc([], [1.0])

    @pytest.mark.parametrize("metric", [auc, aupr])
    @pytest.mark.parametrize("ind,ood", [([np.nan, 1.0], [0.5]), ([1.0], [-np.inf]),
                                         ([np.inf, 2.0], [0.5, 0.1])])
    def test_non_finite_rejected(self, metric, ind, ood):
        # auc([nan, 1.0], [0.5]) used to read 1.0 and aupr 0.833
        with pytest.raises(ValueError, match="finite"):
            metric(ind, ood)


class TestAupr:
    def test_perfect_separation(self):
        assert aupr([3.0, 2.0], [1.0, 0.0]) == 1.0

    def test_all_equal_scores_give_base_rate(self):
        assert aupr([1.0] * 3, [1.0] * 9) == pytest.approx(0.25)

    def test_against_exhaustive_threshold_oracle(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            ind = rng.normal(0.8, 1.0, rng.integers(3, 60))
            ood = rng.normal(0.0, 1.0, rng.integers(3, 60))
            if trial % 4 == 0:
                ind = np.round(ind, 1)
                ood = np.round(ood, 1)
            expected = pr_area_by_exhaustive_thresholds(ind, ood)
            assert abs(aupr(ind, ood) - expected) < 1e-9

    def test_exceeds_base_rate_on_separated_scores(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            ind = rng.normal(2.0, 1.0, 50)
            ood = rng.normal(0.0, 1.0, 100)
            assert aupr(ind, ood) >= 50 / 150


class TestRejectionCurve:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            rejection_curve([1.0, bad, 0.5], [True, False, True])

    def test_one_to_four_mixture_endpoint(self):
        # 20 correct in-distribution samples among 100, scores favor them
        scores = np.concatenate([np.full(20, 2.0), np.full(80, 1.0)])
        correct = np.concatenate([np.ones(20, bool), np.zeros(80, bool)])
        points = rejection_curve(scores, correct, 5.0)
        assert points[0].rejection_rate == 0.0
        assert points[0].accuracy == pytest.approx(0.2)
        assert points[0].retained_count == 100

    def test_all_correct_stays_at_one(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=60)
        points = rejection_curve(scores, np.ones(60, bool), 10.0)
        assert all(p.accuracy == 1.0 for p in points)

    def test_zero_rejection_equals_plain_accuracy(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=50)
        correct = rng.uniform(size=50) < 0.6
        points = rejection_curve(scores, correct, 25.0)
        assert points[0].accuracy == pytest.approx(correct.mean())

    def test_default_grid_yields_twenty_points(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=200)  # continuous, no empty retained sets
        points = rejection_curve(scores, np.ones(200, bool), 5.0)
        assert len(points) == 20
        assert points[-1].rejection_rate == pytest.approx(0.95)

    def test_retained_sets_nested(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=120)
        correct = rng.uniform(size=120) < 0.5
        points = rejection_curve(scores, correct, 5.0)
        counts = [p.retained_count for p in points]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        # nested membership, not just shrinking counts
        previous = None
        for p in points:
            rho = p.rejection_rate * 100.0
            from opencil.detectors import percentile
            retained = set(np.flatnonzero(scores >= percentile(scores, rho)))
            if previous is not None:
                assert retained <= previous
            previous = retained

    def test_retained_count_tracks_rate(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=400)
        for p in rejection_curve(scores, np.ones(400, bool), 5.0):
            expected = round((1.0 - p.rejection_rate) * 400)
            assert abs(p.retained_count - expected) <= 1

    def test_bad_grid_step(self):
        with pytest.raises(ValueError, match="divide"):
            rejection_curve([1.0, 2.0], [True, False], 33.0)

    @pytest.mark.parametrize("grid_step", [1e-300, 5e-324, 100 / 10_001, 0.001])
    def test_oversized_grid_refused_before_any_point(self, grid_step, monkeypatch):
        def no_point(*args):
            raise AssertionError("a grid point was computed")

        monkeypatch.setattr(metrics, "_nearest_rank_index", no_point)
        with pytest.raises(ValueError, match="more than 10000 points"):
            rejection_curve([1.0, 2.0], [True, False], grid_step)

    def test_largest_grid_accepted(self):
        points = rejection_curve([1.0, 2.0], [True, False], 100 / metrics.MAX_CURVE_POINTS)
        assert len(points) == metrics.MAX_CURVE_POINTS
        assert (points[0].retained_count, points[-1].retained_count) == (2, 1)

    def test_misaligned_inputs(self):
        with pytest.raises(ValueError):
            rejection_curve([1.0], [True, False], 5.0)

    def test_curve_point_fields(self):
        p = CurvePoint(0.25, 0.9, 30)
        assert (p.rejection_rate, p.accuracy, p.retained_count) == (0.25, 0.9, 30)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([-1.0, 0.0, 0.5, 0.5 + 2.0 ** -53, 2.0]),
                          st.booleans()), min_size=1, max_size=40),
       st.sampled_from([1.0, 2.5, 5.0, 12.5, 20.0, 50.0, 100.0]))
def test_rejection_curve_points_match_per_point_percentiles(samples, grid_step):
    # few distinct values, so most thresholds fall inside a run of ties
    from opencil.detectors import percentile
    scores = np.array([s for s, _ in samples])
    correct = np.array([c for _, c in samples])
    points = rejection_curve(scores, correct, grid_step)
    assert len(points) == metrics.grid_points(grid_step)
    for i, point in enumerate(points):
        rho = i * grid_step
        retained = scores >= percentile(scores, rho)
        assert point == CurvePoint(rho / 100.0, float(correct[retained].mean()),
                                   int(retained.sum()))
