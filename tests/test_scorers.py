import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import manual_model, manual_stats
from opencil.errors import ModelError
from opencil.pipeline import predict
from opencil.scorers import Scorer
from per_vector import (mahalanobis_confidence, md_coefficient, score_combined, score_energy,
                        score_sm)

finite_logits = st.lists(st.floats(-30, 30), min_size=1, max_size=8)


class TestScoreSm:
    def test_uniform(self):
        assert score_sm([0.0, 0.0, 0.0, 0.0]) == 0.25

    def test_two_class_sigmoid(self):
        np.testing.assert_allclose(score_sm([10.0, 0.0]), 1 / (1 + math.exp(-10)),
                                   rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(finite_logits, st.floats(-20, 20))
    def test_shift_invariance(self, logits, shift):
        a = score_sm(logits)
        b = score_sm(np.asarray(logits) + shift)
        assert abs(a - b) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(finite_logits)
    def test_range(self, logits):
        assert 0.0 < score_sm(logits) <= 1.0


class TestScoreEnergy:
    def test_logsumexp_of_zeros(self):
        np.testing.assert_allclose(score_energy([0.0, 0.0], 1.0), math.log(2),
                                   rtol=1e-12)

    def test_single_logit_any_temperature(self):
        for v in (0.5, 1.0, 3.0):
            np.testing.assert_allclose(score_energy([2.75], v), 2.75, rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(finite_logits, st.floats(-15, 15))
    def test_shift_identity(self, logits, shift):
        a = score_energy(logits)
        b = score_energy(np.asarray(logits) + shift)
        assert abs(b - a - shift) <= 1e-12

    def test_bad_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            Scorer("en", 0.0)


class TestMahalanobis:
    def test_zero_at_class_mean(self):
        stats = manual_stats([[1.0, 2.0], [3.0, -1.0]])
        assert mahalanobis_confidence([3.0, -1.0], stats) == 0.0

    def test_identity_covariance_is_euclidean(self):
        stats = manual_stats([[0.0, 0.0]])
        assert mahalanobis_confidence([3.0, 4.0], stats) == -25.0

    def test_against_bruteforce_quadratic_form(self):
        rng = np.random.default_rng(9)
        dim, classes = 8, 3
        means = rng.normal(size=(classes, dim))
        basis = rng.normal(size=(dim, dim))
        cov = basis @ basis.T + dim * np.eye(dim)
        stats = manual_stats(means, covariance=cov)
        z = rng.normal(size=dim)

        inv = np.linalg.inv(cov)
        best = -np.inf
        for c in range(classes):
            quad = 0.0
            for i in range(dim):
                for j in range(dim):
                    quad += (z[i] - means[c, i]) * inv[i, j] * (z[j] - means[c, j])
            best = max(best, -quad)
        np.testing.assert_allclose(mahalanobis_confidence(z, stats), best, atol=1e-9)

    def test_missing_stats(self):
        # the md scorers read the train statistics, so scoring without them is refused
        model = manual_model(np.eye(2), np.zeros(2), [np.full(2, 10.0)],
                             [(np.eye(2), np.zeros(2), False)], classes_per_task=2)
        with pytest.raises(ModelError, match="train statistics"):
            predict(model, "base", "smmd", np.ones(2))


class TestMdCoefficient:
    def test_one_at_mean(self):
        stats = manual_stats([[2.0, 2.0]])
        assert md_coefficient([2.0, 2.0], stats) == 1.0

    def test_half_at_unit_distance(self):
        stats = manual_stats([[0.0]], covariance=[[1.0]])
        assert md_coefficient([1.0], stats) == 0.5

    def test_monotone_in_distance(self):
        stats = manual_stats([[0.0, 0.0]])
        prev = 2.0
        for radius in (0.5, 1.0, 2.0, 5.0):
            value = md_coefficient([radius, 0.0], stats)
            assert value < prev
            prev = value


class TestScoreCombined:
    def test_smmd_equals_sm_at_mean(self):
        stats = manual_stats([[1.0, 0.5]])
        logits = [0.2, 1.7, -0.4]
        assert score_combined("smmd", logits, [1.0, 0.5], stats) == score_sm(logits)

    def test_enmd_equals_en_at_mean(self):
        stats = manual_stats([[1.0, 0.5]])
        logits = [0.2, 1.7, -0.4]
        np.testing.assert_allclose(
            score_combined("enmd", logits, [1.0, 0.5], stats),
            score_energy(logits), rtol=1e-15,
        )

    def test_enmd_ordering_matches_multiplicative_form(self):
        stats = manual_stats([[0.0, 0.0]])
        logits_a, z_a = [2.0, 0.5], [0.5, 0.0]
        logits_b, z_b = [1.5, 1.0], [2.0, 1.0]
        enmd_a = score_combined("enmd", logits_a, z_a, stats)
        enmd_b = score_combined("enmd", logits_b, z_b, stats)
        mult_a = math.exp(score_energy(logits_a)) * md_coefficient(z_a, stats)
        mult_b = math.exp(score_energy(logits_b)) * md_coefficient(z_b, stats)
        assert (enmd_a > enmd_b) == (mult_a > mult_b)

    @settings(max_examples=40, deadline=None)
    @given(finite_logits)
    def test_smmd_range(self, logits):
        stats = manual_stats([[0.0]])
        value = score_combined("smmd", logits, [3.0], stats)
        assert 0.0 < value <= 1.0

    def test_identical_logits_ordering_by_coefficient(self):
        stats = manual_stats([[0.0, 0.0]])
        logits = [1.0, 3.0]
        near = score_combined("smmd", logits, [0.1, 0.0], stats)
        far = score_combined("smmd", logits, [4.0, 0.0], stats)
        assert near > far
        near_e = score_combined("enmd", logits, [0.1, 0.0], stats)
        far_e = score_combined("enmd", logits, [4.0, 0.0], stats)
        assert near_e > far_e

    def test_scorer_config_validation(self):
        with pytest.raises(ValueError):
            Scorer("sm", temperature=0.0)
        with pytest.raises(ValueError):
            Scorer("softmax")

    @pytest.mark.parametrize("kind", ["sm", "smmd"])
    def test_temperature_refused_where_none_is_read(self, kind):
        with pytest.raises(ValueError, match=f"scorer '{kind}' reads no temperature"):
            Scorer(kind, 3.0)
        assert Scorer(kind, 1.0) == Scorer(kind)


class TestHeadSelectionInvariance:
    def test_argmax_invariant_under_monotone_rescale(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(20, 4))
        transformed = np.exp(scores / 2.0) * 3.0 + 1.0
        assert np.array_equal(scores.argmax(axis=1), transformed.argmax(axis=1))
