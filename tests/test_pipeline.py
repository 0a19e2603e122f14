import copy
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opencil as oc
from conftest import manual_model, manual_stats
from opencil.data import task_local
from opencil.errors import ModelError
from opencil.model import _shared_adapter, activations
from opencil import pipeline
from opencil.pipeline import _forward
from per_vector import (detector_logits, forward_features, score_combined, score_sm,
                        whitening_factor)


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
                             stats=[manual_stats([[1.0, 0.0], [0.0, 1.0]])],
                             classes_per_task=2)
        x = np.array([2.0, 0.5])
        z = forward_features(model, 0, x)
        expected = score_sm(z)
        assert oc.predict(model, "base", "sm", x).ind_score == pytest.approx(expected,
                                                                            rel=1e-12)

    def test_matches_manual_three_step_composition(self, small_model, small_stream):
        features = np.concatenate([test.features for _, test in small_stream.tasks])

        def manual(task, sample, detector, scorer):
            z = forward_features(small_model, task, sample)
            stats = small_model.stats[task]
            logits = detector_logits(small_model.heads[task], z, oc.Detector(detector),
                                     stats)
            return score_combined(scorer, logits, z, stats)

        for detector in ("base", "react", "dice", "scale"):
            for scorer in ("sm", "smmd", "en", "enmd"):
                table = oc.score_table(small_model, small_stream, detector, scorer)
                for t in range(small_model.trained_tasks):
                    expected = [manual(t, s, detector, scorer) for s in features]
                    np.testing.assert_allclose(table.scores[:, t], expected, rtol=1e-10,
                                               err_msg=f"{detector}/{scorer} head {t}")

    def test_deterministic(self, small_model):
        x = np.random.default_rng(2).normal(size=8)
        a = oc.predict(small_model, "base", "enmd", x)
        b = oc.predict(small_model, "base", "enmd", x)
        assert a == b


def random_md_model(seed, hidden, classes):
    """Identity adapter, two fully open heads, random positive-definite covariances.

    Eigenvalues lie in [0.1, 10]; each inverse covariance gets an
    antisymmetric perturbation of relative size 1e-13, above the ~4e-14
    that np.linalg.inv leaves, before its whitening factor is built from
    its symmetric part.
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
        stats.append(dataclasses.replace(manual_stats(means),
                                         whitening_factor=whitening_factor(inv)))
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


def md_pairs():
    return [(oc.Detector(d), oc.Scorer(s)) for d in ("base", "dice") for s in ("smmd", "enmd")]


def per_vector_scores(model, features, detector, scorer):
    """(n, T) scores of the per-vector reference."""
    rows = []
    for x in features:
        row = []
        for t, (head, stats) in enumerate(zip(model.heads, model.stats)):
            z = forward_features(model, t, x)
            row.append(score_combined(scorer.kind, detector_logits(head, z, detector, stats),
                                      z, stats))
        rows.append(row)
    return np.array(rows)


class TestMahalanobisBlocks:
    """The md product skips the zeros above each column block of the
    lower-triangular whitening factors."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 16), st.integers(1, 5), st.integers(1, 5))
    def test_uneven_blocks_match_per_vector_reference(self, seed, hidden, classes, width):
        model, stream = random_md_model(seed, hidden, classes)
        features = np.concatenate([test.features for _, test in stream.tasks])
        with mock.patch.object(pipeline, "_MD_BLOCK", width):
            blocks = pipeline._plan(model).mahalanobis(model.stats)[0]
            count = max(1, hidden // width)
            assert [(a, b) for a, b, _ in blocks] == \
                [(hidden * i // count, hidden * (i + 1) // count) for i in range(count)]
            for detector, scorer in md_pairs():
                expected = per_vector_scores(model, features, detector, scorer)
                table = oc.score_table(model, stream, detector, scorer)
                np.testing.assert_allclose(table.scores, expected, rtol=1e-10,
                                           err_msg=f"{detector}/{scorer} table")
                for x, row in zip(features, expected):
                    _, scores = _forward(model, x[None, :], 2, [detector], [scorer])
                    np.testing.assert_allclose(scores[0, 0, 0], row, rtol=1e-10,
                                               err_msg=f"{detector}/{scorer} one row")
                    assert oc.predict(model, detector, scorer, x).ind_score == \
                        pytest.approx(row.max(), rel=1e-10)

    def test_default_split_matches_per_vector_reference(self, wide_case):
        model, stream = wide_case
        blocks = pipeline._plan(model).mahalanobis(model.stats)[0]
        assert [(a, b) for a, b, _ in blocks] == [(0, 128), (128, 256), (256, 384), (384, 512)]
        features = np.concatenate([test.features for _, test in stream.tasks])
        for detector, scorer in md_pairs():
            table = oc.score_table(model, stream, detector, scorer)
            np.testing.assert_allclose(table.scores,
                                       per_vector_scores(model, features, detector, scorer),
                                       rtol=1e-10, err_msg=f"{detector}/{scorer}")

    def test_predict_equals_score_table_row(self, wide_case):
        model, stream = wide_case
        features = np.concatenate([test.features for _, test in stream.tasks])
        for detector, scorer in md_pairs():
            table = oc.score_table(model, stream, detector, scorer).scores
            for row in range(0, len(features), 7):
                _, scores = _forward(model, features[row][None, :], 2, [detector], [scorer])
                np.testing.assert_allclose(scores[0, 0, 0], table[row], rtol=1e-12)
                prediction = oc.predict(model, detector, scorer, features[row])
                assert prediction.predicted_task == table[row].argmax()
                assert prediction.ind_score == pytest.approx(table[row].max(), rel=1e-12)

    def test_blocks_hold_the_lower_triangle(self, wide_case):
        model, _ = wide_case
        tasks, hidden = model.trained_tasks, model.hidden_width
        plan = pipeline._plan(model)
        blocks = plan.mahalanobis(model.stats)[0]
        assert sum(block.size for *_, block in blocks) <= 0.65 * tasks * hidden * hidden
        for a, b, block in blocks:
            for t, stats in enumerate(model.stats):
                folded = plan.masks[t][:, None] * stats.whitening_factor
                assert not folded[:a, a:b].any()  # the rows a block leaves out are zero
                assert np.array_equal(block.reshape(hidden - a, tasks, b - a)[:, t],
                                      folded[a:, a:b])

    def test_plan_of_ten_tasks_at_hidden_512_holds_at_most_13_2_mb(self):
        model, _ = random_plan_model(3, 512, 2, 10)
        blocks = pipeline._plan(model).mahalanobis(model.stats)[0]
        assert sum(block.nbytes for *_, block in blocks) <= 13.2e6

    @pytest.mark.parametrize("hidden", [24, 128, 255])
    def test_one_block_below_hidden_256_is_bit_for_bit(self, hidden):
        model, _ = random_plan_model(11, hidden, 3, 3)
        features = np.random.default_rng(hidden).normal(size=(300, 3))
        plan = pipeline._plan(model)
        md = plan.mahalanobis(model.stats)
        blocks, centers, means, norms = md
        folded = np.concatenate([m[:, None] * s.whitening_factor
                                 for m, s in zip(plan.masks, model.stats)], axis=1)
        assert len(blocks) == 1 and np.array_equal(blocks[0][2], folded)
        for rows in (features[:1], features):
            relu = _shared_adapter(model, rows)
            # the whitened activations of every head from the whole folded factor
            w = np.matmul(relu, folded.reshape(hidden, 3, hidden).transpose(1, 0, 2))
            w -= centers[:, None, :]
            nearest = (norms[:, None, :] - 2.0 * np.matmul(w, means)).min(axis=2)
            d_min = np.maximum(np.einsum("tnh,tnh->tn", w, w) + nearest, 0.0)
            expected = (1.0 / (1.0 + d_min)).T
            assert pipeline._md_coefficient(relu, md).tobytes() == expected.tobytes()
            # the pass weights each softmax maximum by that coefficient
            _, scores = pipeline._pass(model, rows, [oc.Detector("base")],
                                       [oc.Scorer("sm"), oc.Scorer("smmd")])
            assert scores[0, 1].tobytes() == (scores[0, 0] * expected).tobytes()


def random_plan_model(seed, hidden, classes, tasks):
    """A random model whose masks are fractional or saturated per unit, with
    replay heads (an OOD logit) mixed in and random positive-definite covariances."""
    rng = np.random.default_rng(seed)
    dim = 3
    embeddings, heads, stats = [], [], []
    for _ in range(tasks):
        # slope 400: |e| <= 0.02 gives masks in (3e-4, 1 - 3e-4), 6 gives 0 or 1
        embeddings.append(np.where(rng.random(hidden) < 0.7, rng.uniform(-0.02, 0.02, hidden),
                                   rng.choice([-6.0, 6.0], hidden)))
        ood = bool(rng.random() < 0.5)
        width = classes + ood
        heads.append((rng.normal(size=(hidden, width)), rng.normal(size=width), ood))
        q, _ = np.linalg.qr(rng.normal(size=(hidden, hidden)))
        covariance = (q * np.exp(rng.uniform(np.log(0.1), np.log(10.0), hidden))) @ q.T
        stats.append(manual_stats(rng.uniform(0.0, 2.0, (classes, hidden)), covariance,
                                  mean_activations=rng.uniform(0.0, 2.0, hidden),
                                  react_threshold=float(rng.uniform(0.1, 2.0))))
    model = manual_model(rng.normal(size=(dim, hidden)), rng.normal(size=hidden), embeddings,
                         heads, stats=stats, classes_per_task=classes)
    return model, rng.normal(size=(6, dim))


class TestPlanMatchesPerHeadReference:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 4), st.integers(1, 3),
           st.data())
    def test_every_pair_matches(self, seed, hidden, classes, tasks, data):
        model, features = random_plan_model(seed, hidden, classes, tasks)
        upto = data.draw(st.integers(1, tasks), label="upto")
        features = features[:data.draw(st.integers(1, len(features)), label="rows")]
        p = st.floats(0.0, 100.0)
        detectors = [oc.Detector("base"), oc.Detector("react"),
                     oc.Detector("dice", data.draw(p)), oc.Detector("dice", data.draw(p)),
                     oc.Detector("scale", data.draw(p)), oc.Detector("scale", data.draw(p))]
        temperature = data.draw(st.floats(0.5, 2.0), label="temperature")
        scorers = [oc.Scorer("sm"), oc.Scorer("smmd"), oc.Scorer("en", temperature),
                   oc.Scorer("enmd", temperature)]
        classes_by_head, scores = _forward(model, features, upto, detectors, scorers)
        for t in range(upto):
            head, stats = model.heads[t], model.stats[t]
            z = activations(model, t, features)
            raw = (z @ head.weights + head.bias)[:, :classes]
            assert np.array_equal(classes_by_head[:, t], raw.argmax(axis=1) + t * classes)
            for i, detector in enumerate(detectors):
                logits = [detector_logits(head, row, detector, stats)[:classes] for row in z]
                for j, scorer in enumerate(scorers):
                    expected = [score_combined(scorer.kind, lg, row, stats, temperature)
                                for lg, row in zip(logits, z)]
                    np.testing.assert_allclose(scores[i, j, :, t], expected, rtol=1e-10,
                                               err_msg=f"{detector}/{scorer.kind} head {t}")


@pytest.fixture(scope="module")
def five_task_case():
    spec = oc.SynthSpec(num_classes=10, dim=12, per_class=40, mean_separation=5.0, seed=8)
    train, test = oc.holdout(oc.synth_gaussian(spec), 0.25, 8)
    stream = oc.split_tasks(train, test, 5)
    hp = oc.Hyperparams(epochs=5, learning_rate=0.01, batch_size=32, hidden_width=24, seed=2)
    return oc.train_stream(oc.new_model(12, hp), stream, hp), stream


@pytest.fixture(scope="module")
def wide_case():
    """A trained two-task model at hidden 512, four md blocks by default."""
    spec = oc.SynthSpec(num_classes=4, dim=8, per_class=40, mean_separation=6.0, seed=9)
    train, test = oc.holdout(oc.synth_gaussian(spec), 0.25, 9)
    stream = oc.split_tasks(train, test, 2)
    hp = oc.Hyperparams(epochs=3, learning_rate=0.01, batch_size=32, hidden_width=512, seed=4)
    return oc.train_stream(oc.new_model(8, hp), stream, hp), stream


class TestDetectorDegenerations:
    """Acceptance criterion 1 on the batched path that inference runs."""

    @pytest.mark.parametrize("scorer", ["sm", "smmd", "en", "enmd"])
    def test_dice_at_p0_is_base_bit_for_bit(self, scorer, five_task_case):
        model, stream = five_task_case
        base = oc.score_table(model, stream, "base", scorer).scores
        dice = oc.score_table(model, stream, oc.Detector("dice", 0.0), scorer).scores
        assert dice.tobytes() == base.tobytes()

    @pytest.mark.parametrize("scorer", ["sm", "smmd", "en", "enmd"])
    def test_react_above_every_activation_is_base(self, scorer, five_task_case):
        # react clips z_t before W_t, base folds m_t into W_t: equal up to rounding
        model, stream = five_task_case
        features = np.concatenate([test.features for _, test in stream.tasks])
        top = max(float(activations(model, t, features).max())
                  for t in range(model.trained_tasks))
        base = oc.score_table(model, stream, "base", scorer).scores
        for thresholds in ([top] * 5, [top, 2.0 * top, top + 1.0, 10.0 * top, top]):
            opened = dataclasses.replace(model, stats=[
                dataclasses.replace(s, react_threshold=r) for s, r in zip(model.stats, thresholds)])
            react = oc.score_table(opened, stream, "react", scorer).scores
            np.testing.assert_allclose(react, base, rtol=1e-12, atol=0)


def predictions(model, features, pairs=(("dice", "enmd"), ("dice", "sm"), ("base", "smmd"))):
    return [oc.predict(model, d, s, x) for d, s in pairs for x in features]


def _replaced(array, index, change):
    """A copy of ``array`` with ``change`` applied at ``index``, once the same
    write into ``array`` itself has raised: inference has made it read-only."""
    with pytest.raises(ValueError, match="read-only"):
        array[index] = change(array[index])
    array = array.copy()
    array[index] = change(array[index])
    return array


class TestDerivedStateStaysCurrent:
    def _assert_matches_fresh_load(self, model, features, tmp_path, **pairs):
        path = tmp_path / "model.txt"
        oc.save_model(model, str(path))
        assert predictions(model, features, **pairs) == \
            predictions(oc.load_model(str(path)), features, **pairs)

    @pytest.mark.parametrize("edit", ["embedding", "head_bias", "slope_max"])
    def test_gate_or_bias_edited_in_place(self, edit, small_model, small_stream, tmp_path):
        model = oc.load_model(_saved(small_model, tmp_path))
        features = np.concatenate([test.features[:3] for _, test in small_stream.tasks])
        before = predictions(model, features)
        embeddings, head = model.adapters.task_embeddings, model.heads[1]
        if edit == "embedding":
            embeddings[0] = _replaced(embeddings[0], ..., np.negative)
        elif edit == "head_bias":
            head.bias = _replaced(head.bias, 0, lambda v: v + 5.0)
        else:
            model.adapters.slope_max = 0.5  # fractional masks
        assert predictions(model, features) != before
        self._assert_matches_fresh_load(model, features, tmp_path)

    def test_react_threshold_changed(self, small_model, small_stream, tmp_path):
        model = oc.load_model(_saved(small_model, tmp_path))
        features = np.concatenate([test.features[:3] for _, test in small_stream.tasks])
        pairs = {"pairs": (("react", "en"), ("react", "smmd"))}
        before = predictions(model, features, **pairs)
        model.stats[0].react_threshold *= 0.1
        assert predictions(model, features, **pairs) != before
        self._assert_matches_fresh_load(model, features, tmp_path, **pairs)

    def test_one_more_task_trained_after_predict(self, small_stream, small_hp, tmp_path):
        model = oc.new_model(8, small_hp)
        oc.train_task(model, task_local(small_stream.tasks[0][0], 0, 2), small_hp)
        features = np.concatenate([test.features[:3] for _, test in small_stream.tasks])
        before = predictions(model, features)
        oc.train_task(model, task_local(small_stream.tasks[1][0], 1, 2), small_hp)
        assert predictions(model, features) != before
        self._assert_matches_fresh_load(model, features, tmp_path)

    def test_head_weights_edited_in_place(self, small_model, small_stream, tmp_path):
        model = oc.load_model(_saved(small_model, tmp_path))
        features = small_stream.tasks[1][1].features[:6]
        before = predictions(model, features)
        first, second = model.heads[:2]
        first.weights = _replaced(first.weights, ..., np.negative)
        second.weights = _replaced(second.weights, (slice(None), 0), lambda v: v + 0.5)
        after = predictions(model, features)
        assert after != before
        self._assert_matches_fresh_load(model, features, tmp_path)

    def test_statistics_replaced(self, small_model, small_stream, tmp_path):
        model = oc.load_model(_saved(small_model, tmp_path))
        features = np.concatenate([test.features[:3] for _, test in small_stream.tasks])
        before = predictions(model, features)
        stats = model.stats[0]
        model.stats[0] = dataclasses.replace(
            stats, whitening_factor=2.0 * stats.whitening_factor,
            class_means=stats.class_means[::-1].copy(),
            mean_activations=stats.mean_activations[::-1].copy())
        stats = model.stats[1]  # new arrays on the same object
        stats.whitening_factor = 0.5 * stats.whitening_factor
        stats.class_means = stats.class_means[::-1].copy()
        assert predictions(model, features) != before
        self._assert_matches_fresh_load(model, features, tmp_path)

    def test_covariance_replaced_before_first_use(self, small_model, small_stream, tmp_path):
        # a factor replaced before the plan is first built must be the one it folds
        model = oc.load_model(_saved(small_model, tmp_path))
        features = np.concatenate([test.features[:3] for _, test in small_stream.tasks])
        model.stats[1].whitening_factor = 0.5 * model.stats[1].whitening_factor
        assert predictions(model, features) != \
            predictions(oc.load_model(_saved(small_model, tmp_path)), features)
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
        assert oc.predict(model, "base", "sm", np.array([5.0, 0.0, 0.0])).predicted_task == 0
        assert oc.predict(model, "base", "sm", np.array([0.0, 0.0, 5.0])).predicted_task == 1

    def test_single_head_always_zero(self):
        model = toy_model()
        del model.heads[1], model.stats[1], model.adapters.task_embeddings[1]
        x = np.array([0.0, 0.0, 5.0])  # head 1 would win
        assert oc.predict(model, "base", "sm", x).predicted_task == 0

    def test_tie_breaks_to_lower_index(self):
        model = toy_model()
        # identical heads and stats: scores tie exactly
        model.heads[1] = model.heads[0]
        model.stats[1] = model.stats[0]
        model.adapters.task_embeddings[1] = model.adapters.task_embeddings[0]
        x = np.array([1.0, 1.0, 1.0])
        assert oc.predict(model, "base", "sm", x).predicted_task == 0

    def test_untrained_model_rejected(self):
        model = manual_model(np.eye(2), np.zeros(2), [], [], classes_per_task=2)
        with pytest.raises(ModelError):
            oc.predict(model, "base", "sm", np.zeros(2))


class TestPredictClass:
    def test_global_index_arithmetic(self):
        model = toy_model()
        # x = (0, 0, 2): head 0 logits (0, 0), head 1 (0, 4) -> local 1 -> global 3
        prediction = oc.predict(model, "base", "sm", np.array([0.0, 0.0, 2.0]))
        assert prediction.predicted_task == 1
        assert prediction.predicted_class == 3

    def test_choice_identical_across_detectors(self, small_model, small_stream):
        test = small_stream.tasks[1][1]
        chosen = {
            (p.predicted_task, p.predicted_class)
            for p in (oc.predict(small_model, d, "sm", test.features[0])
                      for d in ("base", "react", "dice", "scale"))
        }
        assert chosen == {(1, test.labels[0])}  # the class comes from the unrectified logits

    def test_ood_logit_never_returned(self):
        # replay-style head whose OOD logit dominates everything
        weights = np.array([[1.0, 0.0, 50.0], [0.0, 1.0, 50.0]])
        model = manual_model(np.eye(2), np.zeros(2), [np.full(2, 10.0)],
                             [(weights, np.zeros(3), True)],
                             stats=[manual_stats([[1.0, 0.0], [0.0, 1.0]])],
                             classes_per_task=2)
        prediction = oc.predict(model, "base", "sm", np.array([0.3, 0.9]))
        assert prediction.predicted_class in (0, 1)

    def test_full_predict_carries_winning_score(self, small_model, small_stream):
        features = np.concatenate([test.features for _, test in small_stream.tasks])
        table = oc.score_table(small_model, small_stream, "base", "enmd")
        for row in (0, len(features) - 1):
            prediction = oc.predict(small_model, "base", "enmd", features[row])
            assert prediction.predicted_task == table.scores[row].argmax()
            assert prediction.ind_score == pytest.approx(table.scores[row].max(), rel=1e-12)


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
        # a step needs its task's test set as well as its head
        half = oc.TaskStream(small_stream.tasks[:1], small_stream.classes_per_task)
        with pytest.raises(ModelError, match="step 2 outside 1..1"):
            oc.evaluate_closed(small_model, half, 2, "base", "sm")


class TestEvaluateOpen:
    def test_population_sizes(self, small_model, small_stream):
        ind, ood = oc.evaluate_open(small_model, small_stream, 1, "base", "enmd")
        assert len(ind) == len(small_stream.tasks[0][1])
        assert len(ood) == len(small_stream.tasks[1][1])

    def test_ind_scores_higher_on_separated_data(self, small_model, small_stream):
        ind, ood = oc.evaluate_open(small_model, small_stream, 1, "base", "enmd")
        assert ind.mean() > ood.mean()

    def test_last_step_rejected(self, small_model, small_stream):
        # no unseen classes remain at the stream's last step
        with pytest.raises(ModelError, match=r"^step 2 outside 1\.\.1$"):
            oc.evaluate_open(small_model, small_stream, 2, "base", "enmd")

    def test_one_task_stream_has_no_open_world_step(self, small_model, small_stream):
        # the empty range 1..0 is refused with its reason
        one = oc.TaskStream(small_stream.tasks[:1], small_stream.classes_per_task)
        with pytest.raises(ModelError, match="^open-world evaluation needs an unseen task, "
                                             "and the stream has 1 task$"):
            oc.evaluate_open(small_model, one, 1, "base", "enmd")

    def test_step_below_a_stream_longer_than_the_model_is_accepted(self, small_model,
                                                                   small_stream):
        # a third task of two unseen classes: step 2 reads both heads and keeps it unseen
        (train, test), = small_stream.tasks[1:]
        shifted = [oc.Dataset(d.features, d.labels + 2) for d in (train, test)]
        stream = oc.TaskStream((*small_stream.tasks, tuple(shifted)), 2)
        ind, ood = oc.evaluate_open(small_model, stream, 2, "base", "enmd")
        assert (len(ind), len(ood)) == (len(small_stream.tasks[0][1]) + len(test), len(test))
        with pytest.raises(ModelError, match=r"^step 3 outside 1\.\.2$"):
            oc.evaluate_open(small_model, stream, 3, "base", "enmd")


class TestStepRule:
    @pytest.mark.parametrize("evaluate", [oc.evaluate_closed, oc.evaluate_open,
                                          oc.mixed_scores])
    @pytest.mark.parametrize("step", [1.5, 1.0, np.float64(1.0), True])
    def test_step_that_is_not_an_integer_is_refused(self, evaluate, step, small_model,
                                                    small_stream):
        with pytest.raises(ModelError, match=r"^step must be an integer, got "):
            evaluate(small_model, small_stream, step, "base", "sm")

    @pytest.mark.parametrize("evaluate", [oc.evaluate_closed, oc.mixed_scores])
    def test_step_needs_its_task_in_the_stream(self, evaluate, small_model, small_stream):
        half = oc.TaskStream(small_stream.tasks[:1], small_stream.classes_per_task)
        evaluate(small_model, half, np.int64(1), "base", "sm")  # numpy integers pass
        with pytest.raises(ModelError, match=r"^step 2 outside 1\.\.1$"):
            evaluate(small_model, half, 2, "base", "sm")


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
        features, labels, tasks = pipeline._stack_tests(small_stream)
        for detector, scorer in (("dice", "enmd"), ("scale", "sm"), ("base", "smmd")):
            for k in (2, 1, 2):
                scores, correct = oc.mixed_scores(small_model, small_stream, k, detector, scorer)
                classes, alone = _forward(small_model, features, k, [oc.Detector(detector)],
                                          [oc.Scorer(scorer)])
                alone = alone[0, 0]
                predicted = classes[np.arange(len(labels)), alone.argmax(axis=1)]
                assert scores.tobytes() == alone.max(axis=1).tobytes()
                assert np.array_equal(correct, (predicted == labels) & (tasks < k))
        with pytest.raises(ModelError, match=r"^step 3 outside 1\.\.2$"):
            oc.mixed_scores(small_model, small_stream, 3, "base", "en")

    def test_rejection_curve_composes(self, small_model, small_stream):
        scores, correct = oc.mixed_scores(small_model, small_stream, 1,
                                          "base", "enmd")
        points = oc.rejection_curve(scores, correct, 10.0)
        assert points[0].retained_count == len(scores)
        assert points[0].accuracy == pytest.approx(correct.mean())


@pytest.fixture(scope="module")
def memo_case(tmp_path_factory):
    """A saved 4-task model with a trunk projection, and a test set of more
    than one row chunk."""
    spec = oc.SynthSpec(num_classes=8, dim=8, per_class=80, mean_separation=5.0, seed=4)
    train, test = oc.holdout(oc.synth_gaussian(spec), 0.25, 4)
    stream = oc.split_tasks(train, test, 4)
    hp = oc.Hyperparams(epochs=8, learning_rate=0.01, batch_size=32, hidden_width=16, seed=6)
    model = oc.train_stream(oc.new_model(8, hp, trunk_dim=6), stream, hp)
    path = tmp_path_factory.mktemp("memo") / "model.bin"
    oc.save_model(model, str(path))
    return str(path), stream


def _call(model, stream, kind, step, detector, scorer):
    """The arrays one call of ``kind`` returns."""
    if kind == "mixed":
        return oc.mixed_scores(model, stream, step, detector, scorer)
    if kind == "closed":
        result = oc.evaluate_closed(model, stream, step, detector, scorer)
        return [np.array([result.accuracy, *result.per_task])]
    if kind == "open":
        return oc.evaluate_open(model, stream, min(step, stream.num_tasks - 1),
                                detector, scorer)
    return [oc.score_table(model, stream, detector, scorer).scores]


def _assert_same_bits(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


_PERCENTILES = st.sampled_from([None, 0.0, 40.0, 85.0, 100.0])
_DETECTORS = st.one_of(st.sampled_from([oc.Detector("base"), oc.Detector("react")]),
                       st.builds(oc.Detector, st.sampled_from(["dice", "scale"]), _PERCENTILES))
_REPLACEMENTS = ["adapter_bias", "projection", "embedding", "head_weights", "class_means",
                 "whitening_factor", "features"]
_CALLS = st.lists(st.one_of(st.tuples(st.sampled_from(["mixed", "closed", "open", "table"]),
                                      st.integers(1, 4), _DETECTORS,
                                      st.sampled_from(["sm", "smmd", "en", "enmd"])),
                            st.tuples(st.just("replace"), st.sampled_from(_REPLACEMENTS))),
                  min_size=1, max_size=8)


def _apply_replacement(model, stream, target):
    """Replace one array the calls read by an edited copy: a model array, or
    a test set's features through a rebuilt stream, which is returned."""
    adapters, stats = model.adapters, model.stats
    if target == "adapter_bias":
        adapters.bias = adapters.bias + 0.25
    elif target == "projection":
        model.trunk.projection = -model.trunk.projection
    elif target == "embedding":
        adapters.task_embeddings[1] = -adapters.task_embeddings[1]
    elif target == "head_weights":
        model.heads[2].weights = 1.5 * model.heads[2].weights
    elif target == "class_means":
        stats[0].class_means = stats[0].class_means[::-1].copy()
    elif target == "whitening_factor":
        stats[3].whitening_factor = 0.5 * stats[3].whitening_factor
    else:
        (train, test), *rest = stream.tasks
        edited = oc.Dataset(test.features + 0.5, test.labels)
        return dataclasses.replace(stream, tasks=((train, edited), *rest))
    return stream


class TestColumnMemo:
    @settings(max_examples=30, deadline=None)
    @given(calls=_CALLS, repeat=st.integers(0, 7))
    def test_call_sequence_matches_fresh_loads(self, calls, repeat, memo_case):
        path, stream = memo_case
        calls = calls + calls[repeat % len(calls):]  # repeats, from the slot
        calls += [("mixed", 2, oc.Detector("dice"), "enmd"), ("mixed", 3, oc.Detector("scale"), "sm"),
                  ("table", 4, oc.Detector("base"), "smmd"), ("open", 1, oc.Detector("base"), "smmd")]
        model, reference = oc.load_model(path), path
        for call in calls:
            if call[0] == "replace":
                stream, reference = _apply_replacement(model, stream, call[1]), f"{path}.replaced"
                oc.save_model(model, reference)
                continue
            _assert_same_bits(_call(model, stream, *call),
                              _call(oc.load_model(reference), stream, *call))

    @pytest.mark.parametrize("read", ["predict", "table"])
    @pytest.mark.parametrize("array", ["whitening_factor", "class_means", "head_weights",
                                       "embedding", "adapter_weights", "projection"])
    def test_write_after_a_call_raises(self, array, read, memo_case):
        # a cached plan cannot see such a write, so the write must fail
        path, stream = memo_case
        model = oc.load_model(path)
        target = {"whitening_factor": model.stats[0].whitening_factor,
                  "class_means": model.stats[1].class_means,
                  "head_weights": model.heads[2].weights,
                  "embedding": model.adapters.task_embeddings[3],
                  "adapter_weights": model.adapters.weights,
                  "projection": model.trunk.projection}[array]
        assert target.flags.writeable  # until inference reads it
        if read == "predict":
            oc.predict(model, "base", "sm", stream.tasks[0][1].features[0])
        else:
            oc.score_table(model, stream, "dice", "enmd")
        with pytest.raises(ValueError, match="read-only"):
            target[0] *= 3.0

    def test_write_into_a_deepcopy_with_a_plan_is_seen(self, memo_case, tmp_path):
        path, stream = memo_case
        model = oc.load_model(path)
        calls = [("table", 4, "dice", "enmd"), ("mixed", 2, "base", "smmd"),
                 ("closed", 3, "scale", "enmd")]
        original = [_call(model, stream, *call) for call in calls]  # a plan and a slot
        copied = copy.deepcopy(model)  # carries the plan along, with writable arrays
        copied.stats[0].whitening_factor[0, 0] *= 3.0
        copied.stats[1].class_means[0] += 1.0
        saved = tmp_path / "copied.bin"
        oc.save_model(copied, str(saved))
        fresh = oc.load_model(str(saved))
        for call in calls:
            _assert_same_bits(_call(copied, stream, *call), _call(fresh, stream, *call))
        features = stream.tasks[1][1].features[:4]
        assert predictions(copied, features) == predictions(fresh, features)
        for call, before in zip(calls, original):  # the model copied from is untouched
            _assert_same_bits(_call(model, stream, *call), before)

    def test_each_head_computed_once(self, memo_case, monkeypatch):
        # one pass per batch and pair scores every head; each call cuts it
        path, stream = memo_case
        model, passes = oc.load_model(path), []
        heads = pipeline._heads
        monkeypatch.setattr(pipeline, "_heads", lambda plan, md, relu, detectors, scorers:
                            passes.append((len(relu), *detectors, *scorers))
                            or heads(plan, md, relu, detectors, scorers))
        n = sum(len(test) for _, test in stream.tasks)
        for k in (1, 2, 2, 4, 3):
            oc.mixed_scores(model, stream, k, "dice", "enmd")
        oc.evaluate_open(model, stream, 3, "dice", "enmd")
        oc.score_table(model, stream, "dice", "enmd")
        for k in (2, 4):
            oc.evaluate_closed(model, stream, k, "dice", "enmd")
            oc.evaluate_closed(model, stream, k, "dice", "enmd", oracle_task=True)
        assert passes == [(n, oc.Detector("dice"), oc.Scorer("enmd"))]
        oc.score_table(model, stream, "dice", "smmd")  # another pair takes the slot
        oc.evaluate_closed(model, stream, 1, "dice", "enmd")
        assert [p[2].kind for p in passes[1:]] == ["smmd", "enmd"]

    def test_non_finite_head_fails_only_the_calls_that_return_it(self, memo_case):
        path, stream = memo_case
        model, fresh = oc.load_model(path), oc.load_model(path)
        model.heads[3].bias[0] = np.inf  # head 4's scores are NaN on every row
        n = sum(len(test) for _, test in stream.tasks)
        calls = [("mixed", k, oc.Detector("base"), "sm") for k in (1, 2, 3)]
        calls += [("closed", 3, oc.Detector("base"), "sm"), ("open", 3, oc.Detector("base"), "sm")]
        for kind in ("mixed", "closed", "table", "mixed"):
            with pytest.raises(ModelError, match=f"non-finite scores for {n} of {n} samples"):
                _call(model, stream, kind, 4, "base", "sm")
            for call in calls:
                _assert_same_bits(_call(model, stream, *call), _call(fresh, stream, *call))

    @pytest.mark.parametrize("edit", ["adapter_weights", "adapter_bias", "projection",
                                      "embedding", "head_bias", "whitening_factor",
                                      "feature"])
    def test_edit_between_calls_is_seen(self, edit, memo_case, tmp_path):
        path, stream = memo_case
        model, stream = oc.load_model(path), copy.deepcopy(stream)
        pairs = [("mixed", 2, "dice", "enmd"), ("mixed", 4, "dice", "enmd"),
                 ("table", 4, "dice", "enmd"), ("open", 3, "dice", "enmd")]
        before = [_call(model, stream, *pair) for pair in pairs[:1]]
        adapters, stats = model.adapters, model.stats[0]
        if edit == "adapter_weights":
            adapters.weights = _replaced(adapters.weights, 0, lambda v: v + 0.5)
        elif edit == "adapter_bias":
            adapters.bias = _replaced(adapters.bias, ..., lambda v: v + 0.25)
        elif edit == "projection":
            model.trunk.projection = _replaced(model.trunk.projection, (slice(None), 0),
                                               np.negative)
        elif edit == "embedding":
            adapters.task_embeddings[1] = _replaced(adapters.task_embeddings[1], ..., np.negative)
        elif edit == "head_bias":
            model.heads[0].bias = _replaced(model.heads[0].bias, 0, lambda v: v + 5.0)
        elif edit == "whitening_factor":
            stats.whitening_factor = _replaced(stats.whitening_factor, ..., lambda v: 0.5 * v)
        else:
            (train, test), *rest = stream.tasks
            features = _replaced(test.features, slice(5), lambda v: v + 1.0)
            stream = dataclasses.replace(
                stream, tasks=((train, oc.Dataset(features, test.labels)), *rest))
        saved = tmp_path / "edited.bin"
        oc.save_model(model, str(saved))
        after = [_call(model, stream, *pair) for pair in pairs]
        assert after[0][0].tobytes() != before[0][0].tobytes()
        fresh = oc.load_model(str(saved))
        for pair, got in zip(pairs, after):
            _assert_same_bits(got, _call(fresh, stream, *pair))

    def test_returned_arrays_do_not_alias_the_slot(self, memo_case):
        path, stream = memo_case
        model = oc.load_model(path)
        table = oc.score_table(model, stream, "scale", "enmd")
        expected = table.scores.copy()
        table.scores[:] = 0.0
        scores, correct = oc.mixed_scores(model, stream, 4, "scale", "enmd")
        scores[:] = 0.0
        correct[:] = True
        ind, ood = oc.evaluate_open(model, stream, 3, "scale", "enmd")
        ind[:] = 0.0
        labels, tasks = table.labels.copy(), table.tasks.copy()
        table.labels[:] = table.tasks[:] = 0
        fresh = oc.load_model(path)
        again = oc.score_table(model, stream, "scale", "enmd")
        _assert_same_bits([again.scores, again.labels, again.tasks], [expected, labels, tasks])
        for call in [("mixed", 4, "scale", "enmd"), ("open", 3, "scale", "enmd")]:
            _assert_same_bits(_call(model, stream, *call), _call(fresh, stream, *call))
        key, _detector, _scorer, *held = model._inference_plan.columns
        assert not any(a.flags.writeable for a in key)
        for a in held:  # the classes, scores, labels and tasks the calls copied from
            with pytest.raises(ValueError, match="read-only"):
                a[:] = 0
