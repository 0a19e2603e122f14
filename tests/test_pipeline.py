import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opencil as oc
from conftest import manual_model, manual_stats
from opencil.data import task_local
from opencil.detectors import detector_logits
from opencil.errors import ModelError
from opencil.model import TrainStats, activations
from opencil.pipeline import _mixed_steps
from opencil.scorers import score_combined


def toy_model():
    """Identity adapter (dim 3), two 2-class heads with hand-set weights."""
    heads = [
        (np.array([[3.0, 0.0], [0.0, 3.0], [0.0, 0.0]]), np.zeros(2), False),
        (np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]), np.zeros(2), False),
    ]
    stats = [
        manual_stats([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        manual_stats([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ]
    return manual_model(
        adapter_weights=np.eye(3),
        adapter_bias=np.zeros(3),
        embeddings=[np.full(3, 10.0), np.full(3, 10.0)],  # saturated gates
        heads=heads,
        stats=stats,
        classes_per_task=2,
    )


class TestHeadScore:
    def test_base_sm_on_identity_head(self):
        model = manual_model(np.eye(2), np.zeros(2), [np.full(2, 10.0)],
                             [(np.eye(2), np.zeros(2), False)],
                             stats=[manual_stats([[1.0, 0.0]])],
                             classes_per_task=2)
        x = np.array([2.0, 0.5])
        z = oc.forward_features(model, 0, x)
        expected = oc.score_sm(z)
        assert oc.head_score(model, 0, "base", "sm", x) == pytest.approx(expected,
                                                                         rel=1e-12)

    def test_matches_manual_three_step_composition(self, small_model, small_stream):
        rng = np.random.default_rng(17)
        x = rng.normal(size=8)
        features = np.concatenate([test.features for _, test in small_stream.tasks])

        def manual(task, sample, detector, scorer):
            z = oc.forward_features(small_model, task, sample)
            stats = small_model.stats[task]
            logits = detector_logits(small_model.heads[task], z, oc.Detector(detector),
                                     stats)
            return score_combined(scorer, logits, z, stats)

        for detector in ("base", "react", "dice", "scale"):
            for scorer in ("sm", "smmd", "en", "enmd"):
                table = oc.score_table(small_model, small_stream, detector, scorer)
                for t in range(small_model.trained_tasks):
                    got = oc.head_score(small_model, t, detector, scorer, x)
                    assert got == pytest.approx(manual(t, x, detector, scorer),
                                                rel=1e-12), (detector, scorer, t)
                    expected = [manual(t, s, detector, scorer) for s in features]
                    np.testing.assert_allclose(table.scores[:, t], expected, rtol=1e-10,
                                               err_msg=f"{detector}/{scorer} head {t}")

    def test_deterministic(self, small_model):
        x = np.random.default_rng(2).normal(size=8)
        a = oc.head_score(small_model, 0, "base", "enmd", x)
        b = oc.head_score(small_model, 0, "base", "enmd", x)
        assert a == b


def random_md_model(seed, hidden, classes):
    """Identity adapter, two fully open heads, random positive-definite covariances.

    Eigenvalues lie in [0.1, 10]; each inverse covariance gets an
    antisymmetric perturbation of relative size 1e-13, above the ~4e-14
    that np.linalg.inv leaves.
    """
    rng = np.random.default_rng(seed)
    heads, stats = [], []
    for _ in range(2):
        q, _ = np.linalg.qr(rng.normal(size=(hidden, hidden)))
        covariance = (q * np.exp(rng.uniform(np.log(0.1), np.log(10.0), hidden))) @ q.T
        inv = np.linalg.inv(covariance)
        skew = rng.normal(size=(hidden, hidden))
        inv = inv + 1e-13 * np.abs(inv).max() * (skew - skew.T)
        means = rng.uniform(0.0, 3.0, (classes, hidden))
        stats.append(dataclasses.replace(manual_stats(means), covariance_inv=inv))
        heads.append((rng.normal(size=(hidden, classes)), rng.normal(size=classes), False))
    model = manual_model(np.eye(hidden), np.zeros(hidden), [np.full(hidden, 10.0)] * 2,
                         heads, stats=stats, classes_per_task=classes)
    tasks = []
    for t in range(2):
        labels = np.arange(4 * classes) % classes + t * classes
        features = np.abs(stats[t].class_means[labels % classes]
                          + rng.normal(size=(len(labels), hidden)))
        data = oc.Dataset(features, labels)
        tasks.append((data, data))
    return model, oc.TaskStream(tuple(tasks), classes)


class TestWhitenedMahalanobis:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.integers(1, 5))
    def test_score_table_matches_per_vector_reference(self, seed, hidden, classes):
        model, stream = random_md_model(seed, hidden, classes)
        features = np.concatenate([test.features for _, test in stream.tasks])
        for detector in ("base", "dice"):
            for scorer in ("smmd", "enmd"):
                table = oc.score_table(model, stream, detector, scorer)
                for t in range(2):
                    stats = model.stats[t]
                    expected = [
                        score_combined(scorer, detector_logits(model.heads[t], z,
                                                               oc.Detector(detector), stats),
                                       z, stats)
                        for z in features  # identity adapter, open gates: z = x
                    ]
                    np.testing.assert_allclose(table.scores[:, t], expected, rtol=1e-10,
                                               err_msg=f"{detector}/{scorer} head {t}")

    def test_inverse_covariance_without_cholesky_factor_rejected(self):
        stats = manual_stats([[1.0, 0.0], [0.0, 1.0]])
        bad = dataclasses.replace(stats, covariance_inv=np.diag([1.0, -1.0]))
        model = manual_model(np.eye(2), np.zeros(2), [np.full(2, 10.0)],
                             [(np.eye(2), np.zeros(2), False)], stats=[bad],
                             classes_per_task=2)
        with pytest.raises(ModelError, match="positive definite"):
            oc.predict(model, "base", "enmd", np.array([1.0, 0.0]))
        assert oc.predict(model, "base", "en", np.array([1.0, 0.0])).predicted_task == 0


def predictions(model, features, pairs=(("dice", "enmd"), ("dice", "sm"), ("base", "smmd"))):
    return [oc.predict(model, d, s, x) for d, s in pairs for x in features]


class TestDerivedStateStaysCurrent:
    def _assert_matches_fresh_load(self, model, features, tmp_path):
        path = tmp_path / "model.txt"
        oc.save_model(model, str(path))
        assert predictions(model, features) == predictions(oc.load_model(str(path)), features)

    def test_head_weights_edited_in_place(self, small_model, small_stream, tmp_path):
        model = oc.load_model(_saved(small_model, tmp_path))
        features = small_stream.tasks[1][1].features[:6]
        before = predictions(model, features)
        model.heads[0].weights *= -1.0
        model.heads[1].weights[:, 0] += 0.5
        after = predictions(model, features)
        assert after != before
        self._assert_matches_fresh_load(model, features, tmp_path)

    def test_statistics_replaced(self, small_model, small_stream, tmp_path):
        model = oc.load_model(_saved(small_model, tmp_path))
        features = np.concatenate([test.features[:3] for _, test in small_stream.tasks])
        before = predictions(model, features)
        stats = model.stats[0]
        model.stats[0] = dataclasses.replace(
            stats, covariance_inv=4.0 * stats.covariance_inv,
            class_means=stats.class_means[::-1].copy(),
            mean_activations=stats.mean_activations[::-1].copy())
        stats = model.stats[1]  # new arrays on the same object
        stats.covariance_inv = 0.25 * stats.covariance_inv
        stats.class_means = stats.class_means[::-1].copy()
        assert predictions(model, features) != before
        self._assert_matches_fresh_load(model, features, tmp_path)

    def test_back_update(self, small_stream, small_hp, tmp_path):
        model = oc.new_model(8, small_hp)
        buffer = oc.Buffer.empty(100, 8)
        for t in range(2):
            oc.train_task_replay(model, task_local(small_stream.tasks[t][0], t, 2), buffer,
                                 small_hp)
            buffer = oc.buffer_update(buffer, small_stream.tasks[t][0], t, small_hp.seed)
        features = np.concatenate([test.features[:4] for _, test in small_stream.tasks])
        before = predictions(model, features)
        oc.back_update(model, buffer, small_hp)
        assert predictions(model, features) != before
        self._assert_matches_fresh_load(model, features, tmp_path)


def _saved(model, tmp_path):
    path = tmp_path / "source.txt"
    oc.save_model(model, str(path))
    return str(path)


class TestPredictTask:
    def test_argmax_wins(self):
        model = toy_model()
        assert oc.predict_task(model, "base", "sm", np.array([5.0, 0.0, 0.0])) == 0
        assert oc.predict_task(model, "base", "sm", np.array([0.0, 0.0, 5.0])) == 1

    def test_single_head_always_zero(self, small_model):
        x = np.random.default_rng(0).normal(size=8)
        assert oc.predict_task(small_model, "base", "sm", x, upto=1) == 0

    def test_tie_breaks_to_lower_index(self):
        model = toy_model()
        # identical heads and stats: scores tie exactly
        model.heads[1] = model.heads[0]
        model.stats[1] = model.stats[0]
        model.adapters.task_embeddings[1] = model.adapters.task_embeddings[0]
        x = np.array([1.0, 1.0, 1.0])
        assert oc.predict_task(model, "base", "sm", x) == 0

    def test_untrained_model_rejected(self):
        model = manual_model(np.eye(2), np.zeros(2), [], [], classes_per_task=2)
        with pytest.raises(ModelError):
            oc.predict_task(model, "base", "sm", np.zeros(2))


class TestPredictClass:
    def test_global_index_arithmetic(self):
        model = toy_model()
        # head 1 logits for x = (0, 1, 2): (2, 4) -> local 1 -> global 3
        prediction = oc.predict_class(model, np.array([0.0, 1.0, 2.0]), 1)
        assert prediction.predicted_task == 1
        assert prediction.predicted_class == 3

    def test_choice_identical_across_detectors(self, small_model, small_stream):
        x = small_stream.tasks[1][1].features[0]
        chosen = {
            oc.predict_class(small_model, x, 1).predicted_class
            for _ in range(2)
        }
        assert len(chosen) == 1  # predict_class never consults a detector

    def test_ood_logit_never_returned(self):
        # replay-style head whose OOD logit dominates everything
        weights = np.array([[1.0, 0.0, 50.0], [0.0, 1.0, 50.0]])
        model = manual_model(np.eye(2), np.zeros(2), [np.full(2, 10.0)],
                             [(weights, np.zeros(3), True)],
                             stats=[manual_stats([[1.0, 0.0]])],
                             classes_per_task=2)
        prediction = oc.predict_class(model, np.array([0.3, 0.9]), 0)
        assert prediction.predicted_class in (0, 1)

    def test_full_predict_carries_winning_score(self, small_model):
        x = np.random.default_rng(1).normal(size=8)
        prediction = oc.predict(small_model, "base", "enmd", x)
        expected = max(oc.head_score(small_model, t, "base", "enmd", x)
                       for t in range(small_model.trained_tasks))
        assert prediction.ind_score == pytest.approx(expected, rel=1e-12)


class TestEvaluateClosed:
    def test_step_one_equals_within_task_accuracy(self, small_model, small_stream):
        result = oc.evaluate_closed(small_model, small_stream, 1, "base", "sm")
        test_ds = small_stream.tasks[0][1]
        z = activations(small_model, 0, test_ds.features)
        head = small_model.heads[0]
        predicted = (z @ head.weights + head.bias).argmax(axis=1)
        assert result.accuracy == pytest.approx(np.mean(predicted == test_ds.labels))
        assert result.per_task == (result.accuracy,)

    def test_sample_order_irrelevant(self, small_model, small_stream):
        shuffled_tasks = []
        rng = np.random.default_rng(9)
        for train_ds, test_ds in small_stream.tasks:
            order = rng.permutation(len(test_ds))
            shuffled_tasks.append((train_ds, test_ds.subset(order)))
        shuffled = oc.TaskStream(tuple(shuffled_tasks), small_stream.classes_per_task)
        for upto in (1, 2):
            a = oc.evaluate_closed(small_model, small_stream, upto, "base", "enmd")
            b = oc.evaluate_closed(small_model, shuffled, upto, "base", "enmd")
            assert a.accuracy == pytest.approx(b.accuracy)
            assert a.per_task == pytest.approx(b.per_task)

    def test_enmd_tracks_nearest_mean_oracle(self, small_model, small_stream):
        # nearest-class-mean on the raw features certifies separability first
        train_parts = [t[0] for t in small_stream.tasks]
        features = np.concatenate([p.features for p in train_parts])
        labels = np.concatenate([p.labels for p in train_parts])
        means = np.stack([features[labels == c].mean(axis=0) for c in range(4)])
        test_features = np.concatenate([t[1].features for t in small_stream.tasks])
        test_labels = np.concatenate([t[1].labels for t in small_stream.tasks])
        distances = ((test_features[:, None, :] - means[None]) ** 2).sum(axis=2)
        oracle = np.mean(distances.argmin(axis=1) == test_labels)
        assert oracle >= 0.99

        result = oc.evaluate_closed(small_model, small_stream, 2, "base", "enmd")
        assert result.accuracy >= 0.95

    def test_oracle_mode_identical_across_detectors(self, small_model, small_stream):
        accuracies = {
            det: oc.evaluate_closed(small_model, small_stream, 2, det, "enmd",
                                    oracle_task=True).accuracy
            for det in ("base", "react", "dice", "scale")
        }
        assert len(set(accuracies.values())) == 1

    def test_step_out_of_range(self, small_model, small_stream):
        with pytest.raises(ModelError):
            oc.evaluate_closed(small_model, small_stream, 3, "base", "sm")


class TestEvaluateOpen:
    def test_population_sizes(self, small_model, small_stream):
        ind, ood = oc.evaluate_open(small_model, small_stream, 1, "base", "enmd")
        assert len(ind) == len(small_stream.tasks[0][1])
        assert len(ood) == len(small_stream.tasks[1][1])

    def test_ind_scores_higher_on_separated_data(self, small_model, small_stream):
        ind, ood = oc.evaluate_open(small_model, small_stream, 1, "base", "enmd")
        assert ind.mean() > ood.mean()

    def test_last_step_rejected(self, small_model, small_stream):
        with pytest.raises(ModelError, match="no unseen classes"):
            oc.evaluate_open(small_model, small_stream, 2, "base", "enmd")


class TestScoreTable:
    def test_shape_and_labels(self, small_model, small_stream):
        table = oc.score_table(small_model, small_stream, "base", "sm")
        total = sum(len(t[1]) for t in small_stream.tasks)
        assert table.scores.shape == (total, 2)
        assert table.detector == "base"
        assert table.scorer == "sm"
        assert set(np.unique(table.tasks)) == {0, 1}


class TestRunSweep:
    def test_full_grid_shape(self, small_model, small_stream):
        report = oc.run_sweep(small_model, small_stream,
                              ["base", "react", "dice", "scale"],
                              ["sm", "smmd", "en", "enmd"])
        assert len(report.rows) == 16
        keys = [(r.detector, r.scorer) for r in report.rows]
        assert keys[0] == ("base", "sm")
        assert keys[-1] == ("scale", "enmd")
        assert len(set(keys)) == 16

    def test_smaller_grid(self, small_model, small_stream):
        report = oc.run_sweep(small_model, small_stream,
                              ["base", "react", "dice"],
                              ["sm", "smmd", "en", "enmd"])
        assert len(report.rows) == 12

        # two detectors of one kind are told apart by position, not by kind
        pair = [oc.Detector("dice", 10), oc.Detector("dice", 95)]
        both = oc.run_sweep(small_model, small_stream, pair, ["en"]).rows
        alone = [oc.run_sweep(small_model, small_stream, [d], ["en"]).rows[0]
                 for d in pair]
        assert [vars(r) for r in both] == [vars(r) for r in alone]
        assert vars(alone[0]) != vars(alone[1])

    def test_deterministic(self, small_model, small_stream):
        a = oc.run_sweep(small_model, small_stream, ["base"], ["enmd"]).rows[0]
        b = oc.run_sweep(small_model, small_stream, ["base"], ["enmd"]).rows[0]
        assert (a.lca, a.aia, a.af, a.auc, a.aupr) == (b.lca, b.aia, b.af, b.auc, b.aupr)

    def test_metric_ranges(self, small_model, small_stream):
        report = oc.run_sweep(small_model, small_stream,
                              ["base", "react", "dice", "scale"],
                              ["sm", "smmd", "en", "enmd"])
        for row in report.rows:
            assert 0.0 <= row.lca <= 1.0
            assert 0.0 <= row.aia <= 1.0
            assert -1.0 <= row.af <= 1.0
            assert 0.0 <= row.auc <= 1.0
            assert 0.0 < row.aupr <= 1.0
            assert len(row.step_accuracies) == 2
            assert len(row.step_auc) == 1

    def test_never_mutates_model(self, small_model, small_stream, tmp_path):
        before = tmp_path / "before.txt"
        after = tmp_path / "after.txt"
        oc.save_model(small_model, str(before))
        oc.run_sweep(small_model, small_stream,
                     ["base", "react", "dice", "scale"],
                     ["sm", "smmd", "en", "enmd"])
        x = small_stream.tasks[0][1].features[0]
        for detector in ("base", "react", "dice", "scale"):
            oc.predict(small_model, detector, "enmd", x)
            oc.mixed_scores(small_model, small_stream, 2, detector, "smmd")
        oc.save_model(small_model, str(after))
        assert before.read_bytes() == after.read_bytes()

        # the inference state derived above is in no field, so == and replace miss it
        for obj in [small_model, *small_model.heads, *small_model.stats]:
            names = [f.name for f in dataclasses.fields(obj)]
            twin = type(obj)(**{n: getattr(obj, n) for n in names if not n.startswith("_")})
            assert all(getattr(obj, n) is getattr(twin, n) for n in names)
            assert obj == twin and twin == obj
            copy = dataclasses.replace(obj)
            assert copy == obj
            assert set(vars(copy)) == set(names)

    def test_partially_trained_model_rejected(self, small_model, small_stream):
        half = oc.TaskStream(small_stream.tasks[:1], small_stream.classes_per_task)
        with pytest.raises(ModelError, match="trained tasks"):
            oc.run_sweep(small_model, half, ["base"], ["sm"])


class TestMixedScores:
    def test_flags_false_for_unseen_tasks(self, small_model, small_stream):
        scores, correct = oc.mixed_scores(small_model, small_stream, 1,
                                          "base", "enmd")
        n0 = len(small_stream.tasks[0][1])
        assert not correct[n0:].any()
        assert len(scores) == n0 + len(small_stream.tasks[1][1])

    def test_steps_from_one_pass_equal_separate_passes(self, small_model, small_stream):
        for detector, scorer in (("dice", "enmd"), ("scale", "sm"), ("base", "smmd")):
            together = _mixed_steps(small_model, small_stream, [2, 1, 2], detector, scorer)
            for k, (scores, correct) in zip([2, 1, 2], together):
                alone = oc.mixed_scores(small_model, small_stream, k, detector, scorer)
                assert np.array_equal(scores, alone[0])
                assert np.array_equal(correct, alone[1])
        with pytest.raises(ModelError, match="head count 3"):
            _mixed_steps(small_model, small_stream, [1, 3], "base", "en")

    def test_rejection_curve_composes(self, small_model, small_stream):
        scores, correct = oc.mixed_scores(small_model, small_stream, 1,
                                          "base", "enmd")
        points = oc.rejection_curve(scores, correct, 10.0)
        assert points[0].retained_count == len(scores)
        assert points[0].accuracy == pytest.approx(correct.mean())
