import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import manual_model, manual_stats
from opencil.detectors import Detector, build_dice_mask, dice_keep_count, percentile
from opencil.errors import ModelError
from opencil.model import TaskHead
from opencil.pipeline import predict
from per_vector import detector_logits, rectify_react, rectify_scale


class TestPercentile:
    def test_nearest_rank(self):
        assert percentile([1, 2, 3, 4], 75) == 3

    def test_singleton(self):
        for p in (0, 13, 50, 99, 100):
            assert percentile([5], p) == 5

    def test_maximum(self):
        assert percentile([1, 2, 3, 4], 100) == 4

    def test_minimum(self):
        assert percentile([4, 1, 3, 2], 0) == 1

    def test_float_fuzz_guard(self):
        # 0.9 * 10 overshoots 9.0 in floats; nearest rank must stay the 9th
        assert percentile(list(range(1, 11)), 90) == 9

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)

    def test_unsorted_input(self):
        assert percentile([4, 2, 1, 3], 75) == 3

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.one_of(
               st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan,
                                float(np.array(0xFFF8000000000123, np.uint64)
                                      .view(np.float64))]),
               st.floats(width=64)), min_size=1, max_size=300),
           p=st.one_of(st.floats(0.0, 100.0), st.sampled_from([0.0, 50.0, 90.0, 100.0])))
    def test_selection_equals_the_sorted_element(self, values, p):
        a = np.array(values)
        k = math.ceil(p * len(a) / 100.0 - 1e-9) if p > 0 else 1
        want = np.sort(a)[min(max(k, 1), len(a)) - 1]
        got = percentile(a, p)
        # equal-comparing elements may sit at the index in either order: a zero's
        # sign and a NaN's payload are the only bits that may differ
        if math.isnan(want):
            assert math.isnan(got)
        elif want == 0.0:
            assert got == 0.0
        else:
            assert np.float64(got).view(np.uint64) == want.view(np.uint64)


class TestRectifyReact:
    def test_elementwise_min(self):
        out = rectify_react(np.array([0.5, 2.0, 1.0]), 1.0)
        assert np.array_equal(out, [0.5, 1.0, 1.0])

    def test_identity_regime(self):
        z = np.array([0.1, 0.7, 0.3])
        assert np.array_equal(rectify_react(z, 0.7), z)

    def test_full_clip(self):
        assert np.array_equal(rectify_react(np.array([1.0, 2.0]), 0.0), [0.0, 0.0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 100), min_size=1, max_size=16),
           st.floats(0, 50))
    def test_idempotent_and_monotone(self, values, threshold):
        z = np.asarray(values)
        once = rectify_react(z, threshold)
        assert np.array_equal(rectify_react(once, threshold), once)
        assert np.all(once <= z)


class TestDiceMask:
    def test_keep_everything_at_p0(self):
        w = np.arange(12, dtype=float).reshape(3, 4)
        mask = build_dice_mask(w, np.ones(4), 0.0)
        assert np.array_equal(mask, np.ones((3, 4)))

    def test_two_element_top1(self):
        mask = build_dice_mask(np.array([[1.0, -1.0]]), np.array([1.0, 1.0]), 50.0)
        assert np.array_equal(mask, [[1.0, 0.0]])

    def test_tie_keeps_lower_index(self):
        mask = build_dice_mask(np.array([[1.0, 1.0]]), np.array([1.0, 1.0]), 50.0)
        assert np.array_equal(mask, [[1.0, 0.0]])

    def test_against_bruteforce_sort(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(4, 8))
        act = rng.uniform(0.1, 2.0, 8)
        mask = build_dice_mask(w, act, 85.0)
        keep = dice_keep_count(85.0, 8)
        for i in range(4):
            contributions = [(w[i, j] * act[j], j) for j in range(8)]
            ranked = sorted(contributions, key=lambda cj: (-cj[0], cj[1]))
            expected = {j for _, j in ranked[:keep]}
            assert {j for j in range(8) if mask[i, j] == 1.0} == expected

    def test_keep_count_formula_exhaustive(self):
        for width in range(1, 65):
            for p in (0.0, 10.0, 25.0, 50.0, 85.0, 90.0, 99.0, 100.0):
                expected = max(1, math.ceil(round((100.0 - p) * width, 9) / 100.0))
                assert dice_keep_count(p, width) == min(expected, width), (width, p)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mean_activations"):
            build_dice_mask(np.ones((2, 3)), np.ones(4), 50.0)


class TestRectifyScale:
    def test_hand_computed_factor(self):
        z = np.array([1.0, 2.0, 3.0, 4.0])
        # threshold at p=75 is 3, top sum 7, ratio 10/7
        out = rectify_scale(z, 75.0)
        np.testing.assert_allclose(out, z * math.exp(10.0 / 7.0), rtol=1e-15)

    def test_all_equal_gives_e(self):
        z = np.full(5, 2.5)
        np.testing.assert_allclose(rectify_scale(z, 0.0), z * math.e, rtol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0, 10), min_size=1, max_size=12),
           st.floats(0, 100))
    def test_ratio_at_least_one(self, values, p):
        z = np.asarray(values)
        if not np.any(z > 0):
            z[0] = 1.0
        out = rectify_scale(z, p)
        factor = out[z > 0][0] / z[z > 0][0]
        assert factor >= math.e - 1e-9

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            rectify_scale(np.zeros(4), 85.0)


class TestDetectorLogits:
    def _head(self, hidden=4, classes=3, seed=0):
        rng = np.random.default_rng(seed)
        return TaskHead(rng.normal(size=(hidden, classes)), rng.normal(size=classes))

    def test_base_identity_head(self):
        head = TaskHead(np.eye(3), np.zeros(3))
        z = np.array([0.3, 1.2, 0.0])
        assert np.array_equal(detector_logits(head, z, Detector("base")), z)

    def test_base_matches_direct_evaluation(self):
        head = self._head()
        z = np.random.default_rng(1).uniform(0, 2, 4)
        direct = z @ head.weights + head.bias
        assert np.array_equal(detector_logits(head, z, Detector("base")), direct)

    def test_react_inactive_clip_equals_base(self):
        head = self._head(seed=2)
        z = np.random.default_rng(2).uniform(0, 2, 4)
        stats = manual_stats(np.zeros((3, 4)), react_threshold=float(z.max()))
        react = detector_logits(head, z, Detector("react"), stats)
        base = detector_logits(head, z, Detector("base"))
        assert np.array_equal(react, base)

    def test_dice_p0_equals_base(self):
        head = self._head(seed=3)
        z = np.random.default_rng(3).uniform(0, 2, 4)
        stats = manual_stats(np.zeros((3, 4)), mean_activations=np.ones(4))
        dice = detector_logits(head, z, Detector("dice", 0.0), stats)
        base = detector_logits(head, z, Detector("base"))
        assert np.array_equal(dice, base)

    def test_scale_all_zero_falls_back_to_base(self):
        head = self._head(seed=4)
        z = np.zeros(4)
        scale = detector_logits(head, z, Detector("scale"), None)
        base = detector_logits(head, z, Detector("base"))
        assert np.array_equal(scale, base)

    def test_react_never_raises_logits_through_nonnegative_weights(self):
        rng = np.random.default_rng(7)
        head = TaskHead(rng.uniform(0.0, 1.0, (6, 3)), np.zeros(3))
        stats = manual_stats(np.zeros((3, 6)), react_threshold=0.8)
        for _ in range(20):
            z = rng.uniform(0.0, 2.0, 6)
            clipped = detector_logits(head, z, Detector("react"), stats)
            plain = detector_logits(head, z, Detector("base"))
            assert np.all(clipped <= plain + 1e-12)

    def test_missing_stats_rejected(self):
        # react and dice read the train statistics, so scoring without them is refused
        model = manual_model(np.eye(4), np.zeros(4), [np.full(4, 10.0)],
                             [(np.ones((4, 3)), np.zeros(3), False)], classes_per_task=3)
        for kind in ("react", "dice"):
            with pytest.raises(ModelError, match="train statistics"):
                predict(model, kind, "sm", np.ones(4))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown detector"):
            Detector("ash")

    def test_percentile_range_checked(self):
        with pytest.raises(ValueError, match="percentile"):
            Detector("react", 101.0)

    @pytest.mark.parametrize("kind", ["dice", "scale"])
    def test_percentile_range_checked_where_it_is_read(self, kind):
        assert Detector(kind).percentile == 85.0
        for p in (-1.0, 100.5, math.nan):
            with pytest.raises(ValueError, match="must lie in"):
                Detector(kind, p)

    @pytest.mark.parametrize("kind", ["base", "react"])
    def test_percentile_refused_where_none_is_read(self, kind):
        # react clips at the threshold fitted at train time
        for p in (0.0, 50.0, 90.0):
            with pytest.raises(ValueError, match=f"detector '{kind}' reads no percentile"):
                Detector(kind, p)
        assert Detector(kind).percentile is None
        assert Detector(kind) == Detector(kind)
