import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opencil as oc
from opencil.data import task_local
from opencil.errors import ModelError, ModelIOError
from opencil.model import activations, loss_and_grads


# a one-task model as version 1 of the file format wrote it
V1_MODEL = """\
opencil-model 1
meta dim_in 2
meta has_projection 0
meta hidden_width 2
meta slope_max 400
meta trained_tasks 1
meta classes_per_task 2
array adapter_weights 2 2
1 0.5
-0.5 2
array adapter_bias 2
0.25 0
array embedding_0 2
6 -6
array head_weights_0 2 2
1.5 -1
0.5 2
array head_bias_0 2
0 0.125
meta head_ood_0 0
array stats_means_0 2 2
1 0
0 2
array stats_cov_0 2 2
2 0
0 4
array stats_covinv_0 2 2
0.5 0
0 0.25
array stats_meanact_0 2
0.5 1
meta stats_react_0 1.5
meta stats_ridge_0 0.0001
end
"""


def two_class_task(dim=8, per_class=40, separation=8.0, seed=21):
    spec = oc.SynthSpec(num_classes=2, dim=dim, per_class=per_class,
                        mean_separation=separation, seed=seed)
    return oc.synth_gaussian(spec)


def fit_logistic_regression(features, labels, steps=400, lr=0.5):
    """Independent full-batch logistic regression on the raw features."""
    n, d = features.shape
    w = np.zeros(d)
    b = 0.0
    y = labels.astype(float)
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-(features @ w + b)))
        g = p - y
        w -= lr * features.T @ g / n
        b -= lr * g.mean()
    predictions = (features @ w + b) > 0
    return float(np.mean(predictions == labels))


class TestHatMask:
    def test_zero_embedding(self):
        assert np.array_equal(oc.hat_mask(np.zeros(5), 37.0), np.full(5, 0.5))

    def test_saturation(self):
        mask = oc.hat_mask(np.array([10.0]), 400.0)
        assert mask[0] == 1.0

    def test_extreme_negative_no_overflow(self):
        mask = oc.hat_mask(np.array([-10.0]), 400.0)
        assert mask[0] == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=8),
           st.floats(0.01, 500))
    def test_sigmoid_symmetry(self, values, slope):
        e = np.asarray(values)
        a = oc.hat_mask(e, slope)
        b = oc.hat_mask(-e, slope)
        np.testing.assert_allclose(a, 1.0 - b, atol=1e-15)

    def test_bad_slope(self):
        with pytest.raises(ModelError):
            oc.hat_mask(np.zeros(2), 0.0)


class TestHatGradientGate:
    def test_no_previous_tasks(self):
        grad = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(oc.hat_gradient_gate(grad, []), grad)

    def test_full_protection(self):
        grad = np.ones((2, 3))
        gated = oc.hat_gradient_gate(grad, [np.array([1.0, 0.0, 0.0])])
        assert np.array_equal(gated[:, 0], [0.0, 0.0])
        assert np.array_equal(gated[:, 1:], np.ones((2, 2)))

    def test_linear_gate(self):
        grad = np.full(3, 2.0)
        gated = oc.hat_gradient_gate(grad, [np.array([0.5, 0.25, 0.0])])
        assert np.array_equal(gated, [1.0, 1.5, 2.0])

    def test_max_over_masks(self):
        grad = np.ones(2)
        masks = [np.array([0.2, 0.9]), np.array([0.7, 0.1])]
        assert np.allclose(oc.hat_gradient_gate(grad, masks), [0.3, 0.1])


class TestForwardFeatures:
    def _model(self, dim=4, hidden=6, seed=0):
        hp = oc.Hyperparams(hidden_width=hidden, seed=seed)
        model = oc.new_model(dim, hp)
        model.adapters.task_embeddings.append(np.full(hidden, 0.05))
        return model

    def test_zero_weights_leaves_bias(self):
        model = self._model()
        model.adapters.weights[:] = 0.0
        model.adapters.bias[:] = np.array([1.0, -1.0, 0.5, 0.0, 2.0, -0.1])
        mask = oc.hat_mask(model.adapters.task_embeddings[0], 400.0)
        z = oc.forward_features(model, 0, np.ones(4))
        expected = np.maximum(model.adapters.bias, 0.0) * mask
        assert np.array_equal(z, expected)

    def test_all_ones_mask_is_plain_relu(self):
        model = self._model()
        model.adapters.task_embeddings[0] = np.full(6, 10.0)  # saturates to 1.0
        x = np.array([0.5, -1.0, 2.0, 0.1])
        z = oc.forward_features(model, 0, x)
        expected = np.maximum(x @ model.adapters.weights + model.adapters.bias, 0.0)
        assert np.array_equal(z, expected)

    def test_deterministic(self):
        model = self._model()
        x = np.array([0.3, 0.1, -0.2, 0.9])
        assert np.array_equal(oc.forward_features(model, 0, x),
                              oc.forward_features(model, 0, x))

    def test_nonnegative(self):
        model = self._model()
        rng = np.random.default_rng(5)
        z = activations(model, 0, rng.normal(size=(50, 4)))
        assert np.all(z >= 0.0)

    def test_unknown_task(self):
        model = self._model()
        with pytest.raises(ModelError, match="unknown task"):
            oc.forward_features(model, 3, np.ones(4))

    def test_dimension_mismatch(self):
        model = self._model()
        with pytest.raises(ModelError, match="dimension mismatch"):
            oc.forward_features(model, 0, np.ones(5))


class TestGradientCheck:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(33)
        n, d, h, c = 5, 6, 7, 3
        inputs = rng.normal(size=(n, d))
        labels = rng.integers(0, c, n)
        params = {
            "adapter_weights": rng.normal(size=(d, h)) * 0.5,
            "adapter_bias": rng.normal(size=h) * 0.1,
            "embedding": rng.uniform(-0.5, 0.5, h),
            "head_weights": rng.normal(size=(h, c)) * 0.5,
            "head_bias": rng.normal(size=c) * 0.1,
        }
        slope = 3.0

        def loss_of(p):
            return loss_and_grads(inputs, labels, p["adapter_weights"],
                                  p["adapter_bias"], p["embedding"],
                                  p["head_weights"], p["head_bias"], slope)[0]

        _, grads = loss_and_grads(inputs, labels, **{
            "adapter_w": params["adapter_weights"],
            "adapter_b": params["adapter_bias"],
            "embedding": params["embedding"],
            "head_w": params["head_weights"],
            "head_b": params["head_bias"],
            "slope": slope,
        })
        eps = 1e-6
        for name in params:
            flat = params[name].reshape(-1)
            for _ in range(4):
                k = rng.integers(0, flat.size)
                saved = flat[k]
                flat[k] = saved + eps
                up = loss_of(params)
                flat[k] = saved - eps
                down = loss_of(params)
                flat[k] = saved
                numeric = (up - down) / (2 * eps)
                analytic = grads[name].reshape(-1)[k]
                denom = max(abs(numeric), 1e-8)
                assert abs(analytic - numeric) / denom < 1e-4, (name, k)


class TestTrainTask:
    def test_separable_task_reaches_high_accuracy(self):
        task = two_class_task()
        oracle = fit_logistic_regression(task.features, task.labels)
        assert oracle >= 0.99  # the stream is linearly separable

        hp = oc.Hyperparams(epochs=30, learning_rate=0.01, batch_size=32,
                            hidden_width=32, seed=5)
        model = oc.new_model(task.dim, hp)
        oc.train_task(model, task, hp)
        z = activations(model, 0, task.features)
        head = model.heads[0]
        predictions = (z @ head.weights + head.bias).argmax(axis=1)
        assert np.mean(predictions == task.labels) >= 0.99

    def test_retrain_same_seed_identical(self):
        task = two_class_task(seed=4)
        hp = oc.Hyperparams(epochs=8, hidden_width=16, seed=9)
        runs = []
        for _ in range(2):
            model = oc.new_model(task.dim, hp)
            oc.train_task(model, task, hp)
            runs.append(model)
        a, b = runs
        assert np.array_equal(a.adapters.weights, b.adapters.weights)
        assert np.array_equal(a.heads[0].weights, b.heads[0].weights)
        assert np.array_equal(a.adapters.task_embeddings[0],
                              b.adapters.task_embeddings[0])
        assert np.array_equal(a.stats[0].covariance_inv, b.stats[0].covariance_inv)

    def test_parameter_isolation(self, small_stream, small_hp):
        model = oc.new_model(small_stream.tasks[0][0].dim, small_hp)
        oc.train_task(model, task_local(small_stream.tasks[0][0], 0, 2), small_hp)
        head_before = copy.deepcopy(model.heads[0])
        embedding_before = model.adapters.task_embeddings[0].copy()
        stats_before = copy.deepcopy(model.stats[0])

        oc.train_task(model, task_local(small_stream.tasks[1][0], 1, 2), small_hp)

        assert np.array_equal(model.heads[0].weights, head_before.weights)
        assert np.array_equal(model.heads[0].bias, head_before.bias)
        assert np.array_equal(model.adapters.task_embeddings[0], embedding_before)
        assert np.array_equal(model.stats[0].class_means, stats_before.class_means)

    def test_protected_units_exactly_frozen(self, small_stream, small_hp):
        model = oc.new_model(small_stream.tasks[0][0].dim, small_hp)
        oc.train_task(model, task_local(small_stream.tasks[0][0], 0, 2), small_hp)
        mask = oc.hat_mask(model.adapters.task_embeddings[0], small_hp.slope_max)
        frozen = mask == 1.0
        assert frozen.any()
        weights_before = model.adapters.weights.copy()
        oc.train_task(model, task_local(small_stream.tasks[1][0], 1, 2), small_hp)
        assert np.array_equal(model.adapters.weights[:, frozen],
                              weights_before[:, frozen])

    def test_wrong_class_count_rejected(self, small_stream, small_hp):
        model = oc.new_model(small_stream.tasks[0][0].dim, small_hp)
        oc.train_task(model, task_local(small_stream.tasks[0][0], 0, 2), small_hp)
        three_class = oc.synth_gaussian(
            oc.SynthSpec(num_classes=3, dim=8, per_class=5, mean_separation=4.0, seed=1)
        )
        with pytest.raises(ModelError, match="expects 2 per task"):
            oc.train_task(model, three_class, small_hp)

    def test_epoch_hook_reports_progress(self):
        task = two_class_task(seed=6)
        hp = oc.Hyperparams(epochs=3, hidden_width=16, seed=2)
        seen = []
        model = oc.new_model(task.dim, hp)
        oc.train_task(model, task, hp,
                      epoch_hook=lambda **kw: seen.append(kw))
        assert [e["epoch"] for e in seen] == [1, 2, 3]
        assert all(e["task"] == 0 for e in seen)
        assert all(math.isfinite(e["loss"]) and e["seconds"] >= 0 for e in seen)


class TestComputeTrainStats:
    def test_one_sample_per_class_gives_ridge_identity(self):
        hp = oc.Hyperparams(hidden_width=8, seed=1)
        model = oc.new_model(4, hp)
        model.adapters.task_embeddings.append(np.full(8, 10.0))
        model.heads.append(oc.TaskHead(np.zeros((8, 2)), np.zeros(2)))
        data = oc.Dataset(np.array([[1.0, 0.5, 0.2, 0.1], [0.0, 1.0, 0.3, 0.9]]),
                          np.array([0, 1]))
        stats = oc.compute_train_stats(model, data, task=0, ridge_coefficient=1e-4)
        assert np.array_equal(stats.covariance_inv, np.linalg.inv(1e-4 * np.eye(8)))

    def test_duplicating_samples_preserves_stats(self, small_stream, small_hp,
                                                 small_model):
        data = task_local(small_stream.tasks[0][0], 0, 2)
        doubled = oc.Dataset(np.concatenate([data.features, data.features]),
                             np.concatenate([data.labels, data.labels]))
        a = oc.compute_train_stats(small_model, data, task=0)
        b = oc.compute_train_stats(small_model, doubled, task=0)
        np.testing.assert_allclose(a.class_means, b.class_means, atol=1e-12)
        # the inverse's entries reach 1e4, so the bound scales with them
        scale = np.abs(a.covariance_inv).max()
        np.testing.assert_allclose(a.covariance_inv, b.covariance_inv, rtol=0,
                                   atol=1e-12 * scale)
        assert a.react_threshold == b.react_threshold

    def test_against_bruteforce_recomputation(self, small_model, small_stream):
        rng = np.random.default_rng(44)
        features = rng.normal(size=(50, small_stream.tasks[0][0].dim))
        labels = rng.integers(0, 2, 50)
        labels[:2] = [0, 1]
        data = oc.Dataset(features, labels)
        stats = oc.compute_train_stats(small_model, data, task=0,
                                       ridge_coefficient=1e-4,
                                       react_percentile=90.0)

        z = activations(small_model, 0, features)
        hidden = z.shape[1]
        means = []
        for c in range(2):
            rows = z[labels == c]
            means.append(sum(rows) / len(rows))
        scatter = np.zeros((hidden, hidden))
        for i in range(len(z)):
            diff = z[i] - means[labels[i]]
            scatter += np.outer(diff, diff)
        tied = scatter / len(z)
        ridge = 1e-4 * np.trace(tied) / hidden
        expected_cov = tied + ridge * np.eye(hidden)

        np.testing.assert_allclose(stats.class_means, np.stack(means), atol=1e-9)
        np.testing.assert_allclose(stats.covariance_inv @ expected_cov, np.eye(hidden),
                                   atol=1e-9)
        np.testing.assert_allclose(stats.mean_activations, z.mean(axis=0), atol=1e-9)
        pooled = np.sort(z.ravel())
        assert stats.react_threshold == pooled[math.ceil(0.9 * pooled.size) - 1]

    def test_untrained_task_rejected(self, small_model):
        data = oc.Dataset(np.zeros((2, 8)), np.array([0, 1]))
        with pytest.raises(ModelError, match="not trained"):
            oc.compute_train_stats(small_model, data, task=7)


class TestBuffer:
    def _task(self, classes, per_class, dim=4, seed=0, base=0):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(classes * per_class, dim))
        labels = np.repeat(np.arange(base, base + classes), per_class)
        return oc.Dataset(features, labels)

    def test_two_classes_split_evenly(self):
        buffer = oc.Buffer.empty(200, 4)
        buffer = oc.buffer_update(buffer, self._task(2, 150), task_id=0, seed=3)
        assert buffer.class_counts() == {0: 100, 1: 100}

    def test_no_eviction_when_capacity_suffices(self):
        buffer = oc.Buffer.empty(500, 4)
        task = self._task(2, 100)
        buffer = oc.buffer_update(buffer, task, task_id=0, seed=3)
        assert len(buffer) == 200

    def test_balance_with_remainder(self):
        buffer = oc.Buffer.empty(25, 4)
        for t in range(5):
            task = self._task(2, 60, seed=t, base=2 * t)
            buffer = oc.buffer_update(buffer, task, task_id=t, seed=9)
        counts = buffer.class_counts()
        assert len(buffer) == 25
        assert set(counts.values()) <= {2, 3}

    def test_deterministic(self):
        task = self._task(4, 50)
        a = oc.buffer_update(oc.Buffer.empty(30, 4), task, task_id=0, seed=7)
        b = oc.buffer_update(oc.Buffer.empty(30, 4), task, task_id=0, seed=7)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_capacity_below_classes_rejected(self):
        task = self._task(5, 10)
        with pytest.raises(ModelError, match="capacity"):
            oc.buffer_update(oc.Buffer.empty(3, 4), task, task_id=0, seed=0)


class TestReplayTraining:
    def test_first_task_gets_untrained_ood_logit(self, small_stream, small_hp):
        model = oc.new_model(8, small_hp)
        buffer = oc.Buffer.empty(100, 8)
        local = task_local(small_stream.tasks[0][0], 0, 2)
        oc.train_task_replay(model, local, buffer, small_hp)
        head = model.heads[0]
        assert head.ood_logit_present
        assert head.weights.shape[1] == 3
        assert head.num_classes == 2

    def test_buffer_samples_predicted_ood(self, small_stream, small_hp):
        model = oc.new_model(8, small_hp)
        buffer = oc.Buffer.empty(100, 8)
        for t in range(2):
            local = task_local(small_stream.tasks[t][0], t, 2)
            oc.train_task_replay(model, local, buffer, small_hp)
            buffer = oc.buffer_update(buffer, small_stream.tasks[t][0], t,
                                      small_hp.seed)
        old = buffer.tasks == 0
        z = activations(model, 1, buffer.features[old])
        head = model.heads[1]
        predictions = (z @ head.weights + head.bias).argmax(axis=1)
        assert np.mean(predictions == 2) >= 0.9  # index 2 = the OOD logit

    def test_deterministic(self, small_stream, small_hp):
        states = []
        for _ in range(2):
            model = oc.new_model(8, small_hp)
            oc.train_stream(model, small_stream, small_hp, replay=True,
                            buffer_capacity=50)
            states.append(model)
        a, b = states
        assert np.array_equal(a.heads[1].weights, b.heads[1].weights)
        assert np.array_equal(a.adapters.weights, b.adapters.weights)


class TestBackUpdate:
    def _trained_replay(self, small_stream, small_hp):
        model = oc.new_model(8, small_hp)
        buffer = oc.Buffer.empty(100, 8)
        for t in range(2):
            local = task_local(small_stream.tasks[t][0], t, 2)
            oc.train_task_replay(model, local, buffer, small_hp)
            buffer = oc.buffer_update(buffer, small_stream.tasks[t][0], t,
                                      small_hp.seed)
        return model, buffer

    def test_adapter_untouched(self, small_stream, small_hp):
        model, buffer = self._trained_replay(small_stream, small_hp)
        adapter_before = model.adapters.weights.copy()
        embeddings_before = [e.copy() for e in model.adapters.task_embeddings]
        last_head_before = model.heads[1].weights.copy()
        oc.back_update(model, buffer, small_hp)
        assert np.array_equal(model.adapters.weights, adapter_before)
        for before, after in zip(embeddings_before, model.adapters.task_embeddings):
            assert np.array_equal(before, after)
        assert np.array_equal(model.heads[1].weights, last_head_before)

    def test_single_task_noop(self, small_stream, small_hp):
        model = oc.new_model(8, small_hp)
        buffer = oc.Buffer.empty(100, 8)
        local = task_local(small_stream.tasks[0][0], 0, 2)
        oc.train_task_replay(model, local, buffer, small_hp)
        head_before = model.heads[0].weights.copy()
        oc.back_update(model, buffer, small_hp)
        assert np.array_equal(model.heads[0].weights, head_before)

    def test_ind_accuracy_preserved(self, small_stream, small_hp):
        model, buffer = self._trained_replay(small_stream, small_hp)
        own = buffer.tasks == 0
        z = activations(model, 0, buffer.features[own])
        labels = buffer.labels[own]

        def ind_accuracy():
            head = model.heads[0]
            predictions = (z @ head.weights + head.bias).argmax(axis=1)
            return np.mean(predictions == labels)

        before = ind_accuracy()
        oc.back_update(model, buffer, small_hp)
        after = ind_accuracy()
        assert after >= before - 0.05

    def test_empty_buffer_rejected(self, small_stream, small_hp):
        model, _ = self._trained_replay(small_stream, small_hp)
        with pytest.raises(ModelError, match="non-empty buffer"):
            oc.back_update(model, oc.Buffer.empty(10, 8), small_hp)


class TestSerialization:
    def test_round_trip_equality(self, small_model, small_stream, tmp_path):
        path = tmp_path / "model.txt"
        oc.save_model(small_model, str(path))
        loaded = oc.load_model(str(path))
        assert loaded.trained_tasks == small_model.trained_tasks
        assert loaded.classes_per_task == small_model.classes_per_task
        assert np.array_equal(loaded.adapters.weights, small_model.adapters.weights)
        for t in range(small_model.trained_tasks):
            assert np.array_equal(loaded.heads[t].weights,
                                  small_model.heads[t].weights)
            assert np.array_equal(loaded.stats[t].covariance_inv,
                                  small_model.stats[t].covariance_inv)
            assert loaded.stats[t].react_threshold == \
                small_model.stats[t].react_threshold

    def test_save_load_save_byte_identical(self, small_model, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        oc.save_model(small_model, str(p1))
        oc.save_model(oc.load_model(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_forward_identical_after_round_trip(self, small_model, tmp_path):
        path = tmp_path / "model.txt"
        oc.save_model(small_model, str(path))
        loaded = oc.load_model(str(path))
        x = np.random.default_rng(3).normal(size=8)
        assert np.array_equal(oc.forward_features(small_model, 1, x),
                              oc.forward_features(loaded, 1, x))

    def test_truncated_file(self, small_model, tmp_path):
        path = tmp_path / "model.txt"
        oc.save_model(small_model, str(path))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(ModelIOError, match="truncated"):
            oc.load_model(str(path))

    def test_version_one_file_loads(self, tmp_path):
        path = tmp_path / "v1.txt"
        path.write_text(V1_MODEL)
        model = oc.load_model(str(path))
        assert np.array_equal(model.stats[0].covariance_inv, [[0.5, 0.0], [0.0, 0.25]])
        assert model.stats[0].react_threshold == 1.5
        assert oc.predict(model, "react", "enmd", np.array([1.0, 0.0])).predicted_class == 0
        # re-saving writes version 2: the covariance and ridge records are gone
        oc.save_model(model, str(path))
        v2 = V1_MODEL.replace("opencil-model 1", "opencil-model 2")
        v2 = v2.replace("array stats_cov_0 2 2\n2 0\n0 4\n", "")
        assert path.read_text() == v2.replace("meta stats_ridge_0 0.0001\n", "")

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("opencil-model 99\nend\n")
        with pytest.raises(ModelIOError, match="version"):
            oc.load_model(str(path))

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("label,f0\n0,1.0\n")
        with pytest.raises(ModelIOError, match="header"):
            oc.load_model(str(path))

    def test_binary_file(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_bytes(b"opencil-model 2\n\xff\xfe\x00\x81\n")
        with pytest.raises(ModelIOError, match="UTF-8"):
            oc.load_model(str(path))

    @pytest.mark.parametrize("shape", ["2 2 2", "-1 2"])
    def test_bad_array_shape(self, shape, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(f"opencil-model 2\narray x {shape}\n1 1\n1 1\nend\n")
        with pytest.raises(ModelIOError, match="bad shape"):
            oc.load_model(str(path))

    def test_projection_trunk_round_trip(self, tmp_path):
        hp = oc.Hyperparams(epochs=2, hidden_width=8, seed=3)
        model = oc.new_model(6, hp, trunk_dim=4)
        task = oc.synth_gaussian(
            oc.SynthSpec(num_classes=2, dim=6, per_class=10,
                         mean_separation=6.0, seed=5)
        )
        oc.train_task(model, task, hp)
        path = tmp_path / "model.txt"
        oc.save_model(model, str(path))
        loaded = oc.load_model(str(path))
        assert np.array_equal(loaded.trunk.projection, model.trunk.projection)
        x = np.random.default_rng(0).normal(size=6)
        assert np.array_equal(oc.forward_features(model, 0, x),
                              oc.forward_features(loaded, 0, x))
