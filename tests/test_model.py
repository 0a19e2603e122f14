import copy
import math
import os
import threading
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opencil as oc
from conftest import (manual_model, manual_stats, model_records, record_values,
                      version_five_bytes)
from opencil.data import task_local
from opencil.errors import ModelError, ModelIOError
from opencil.model import (EMBEDDING_CLAMP, _covariance_whitening_factor, activations,
                           loss_and_grads)
from per_vector import covariance_inv, forward_features, whitening_factor


# a one-task model with its arrays as decimal rows; version_five_bytes makes
# the file. The factor diag(sqrt(0.5), 0.5) whitens the covariance diag(2, 4).
DECIMAL_MODEL = f"""\
opencil-model 5
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
array stats_factor_0 3
{math.sqrt(0.5)!r} 0 0.5
array stats_meanact_0 2
0.5 1
meta stats_react_0 1.5
end
"""


def _projection_record(dim_in, shape):
    """The start of a model file up to the record line of its first array, a
    trunk projection of the declared ``shape``."""
    return (f"opencil-model 5\nmeta dim_in {dim_in}\nmeta has_projection 1\n"
            f"array trunk_projection {shape}\n").encode()


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
        z = forward_features(model, 0, np.ones(4))
        expected = np.maximum(model.adapters.bias, 0.0) * mask
        assert np.array_equal(z, expected)

    def test_all_ones_mask_is_plain_relu(self):
        model = self._model()
        model.adapters.task_embeddings[0] = np.full(6, 10.0)  # saturates to 1.0
        x = np.array([0.5, -1.0, 2.0, 0.1])
        z = forward_features(model, 0, x)
        expected = np.maximum(x @ model.adapters.weights + model.adapters.bias, 0.0)
        assert np.array_equal(z, expected)

    def test_deterministic(self):
        model = self._model()
        x = np.array([0.3, 0.1, -0.2, 0.9])
        assert np.array_equal(forward_features(model, 0, x),
                              forward_features(model, 0, x))

    def test_nonnegative(self):
        model = self._model()
        rng = np.random.default_rng(5)
        z = activations(model, 0, rng.normal(size=(50, 4)))
        assert np.all(z >= 0.0)

    def test_unknown_task(self):
        model = self._model()
        with pytest.raises(ModelError, match=r"^task 3 outside 0\.\.0$"):
            forward_features(model, 3, np.ones(4))

    def test_task_that_is_not_an_integer_is_refused(self):
        with pytest.raises(ModelError, match=r"^task must be an integer, got 0\.0$"):
            activations(self._model(), 0.0, np.ones((1, 4)))

    def test_untrained_model_has_no_task(self):
        with pytest.raises(ModelError, match="^model has no trained heads$"):
            activations(oc.new_model(4, oc.Hyperparams(hidden_width=4)), 0, np.ones((1, 4)))

    def test_dimension_mismatch(self):
        model = self._model()
        with pytest.raises(ModelError, match="dimension mismatch"):
            forward_features(model, 0, np.ones(5))


def _split(params, inputs, learnable, frozen):
    """Arguments of the split form: learnable units first, then the frozen
    units' ReLU outputs computed from the full-width adapter."""
    units = np.concatenate((learnable, frozen))
    frozen_relu = np.maximum(
        inputs @ params["adapter_weights"][:, frozen] + params["adapter_bias"][frozen], 0.0)
    return {"adapter_weights": params["adapter_weights"][:, learnable].copy(),
            "adapter_bias": params["adapter_bias"][learnable],
            "embedding": params["embedding"][units],
            "head_weights": params["head_weights"][units],
            "head_bias": params["head_bias"]}, frozen_relu


class TestGradientCheck:
    @staticmethod
    def _problem(seed=33, n=5, d=6, h=7, c=3):
        rng = np.random.default_rng(seed)
        inputs = rng.normal(size=(n, d))
        labels = rng.integers(0, c, n)
        params = {
            "adapter_weights": rng.normal(size=(d, h)) * 0.5,
            "adapter_bias": rng.normal(size=h) * 0.1,
            "embedding": rng.uniform(-0.5, 0.5, h),
            "head_weights": rng.normal(size=(h, c)) * 0.5,
            "head_bias": rng.normal(size=c) * 0.1,
        }
        return rng, inputs, labels, params

    def test_analytic_matches_central_differences(self):
        self._check_central_differences(frozen=[])

    def test_split_form_matches_central_differences(self):
        self._check_central_differences(frozen=[1, 4, 5])

    def _check_central_differences(self, frozen):
        rng, inputs, labels, params = self._problem()
        slope = 3.0
        frozen_relu = None
        if frozen:
            learnable = np.setdiff1d(np.arange(7), frozen)
            params, frozen_relu = _split(params, inputs, learnable, np.array(frozen))

        def loss_of(p):
            return loss_and_grads(inputs, labels, p["adapter_weights"],
                                  p["adapter_bias"], p["embedding"],
                                  p["head_weights"], p["head_bias"], slope, frozen_relu)[0]

        _, grads = loss_and_grads(inputs, labels, **{
            "adapter_w": params["adapter_weights"],
            "adapter_b": params["adapter_bias"],
            "embedding": params["embedding"],
            "head_w": params["head_weights"],
            "head_b": params["head_bias"],
            "slope": slope,
            "frozen_relu": frozen_relu,
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

    @pytest.mark.parametrize("frozen", [[0], [2, 3, 6], [0, 1, 2, 3, 4, 5, 6]],
                             ids=["one", "three", "all"])
    def test_split_form_equals_the_full_form(self, frozen):
        _, inputs, labels, params = self._problem(seed=8, n=9, d=5, h=7, c=4)
        frozen = np.array(frozen)
        learnable = np.setdiff1d(np.arange(7), frozen)
        units = np.concatenate((learnable, frozen))
        split, frozen_relu = _split(params, inputs, learnable, frozen)
        full_loss, full = loss_and_grads(inputs, labels, params["adapter_weights"],
                                         params["adapter_bias"], params["embedding"],
                                         params["head_weights"], params["head_bias"], 2.0)
        loss, grads = loss_and_grads(inputs, labels, split["adapter_weights"],
                                     split["adapter_bias"], split["embedding"],
                                     split["head_weights"], split["head_bias"], 2.0,
                                     frozen_relu)
        assert loss == pytest.approx(full_loss, rel=1e-12)
        expected = {"adapter_weights": full["adapter_weights"][:, learnable],
                    "adapter_bias": full["adapter_bias"][learnable],
                    "embedding": full["embedding"][units],
                    "head_weights": full["head_weights"][units],
                    "head_bias": full["head_bias"]}
        assert grads.keys() == expected.keys()
        for name, want in expected.items():
            assert grads[name].shape == want.shape, name
            np.testing.assert_allclose(grads[name], want, rtol=1e-12, atol=1e-15,
                                       err_msg=name)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def unfolded_loss_and_grads(inputs, labels, adapter_w, adapter_b, embedding, head_w,
                            head_b, slope, frozen_relu=None):
    """The SGD step unfolded: the HAT mask gates the (n, h) activations,
    z = relu * m, and every gradient is taken through z."""
    n = len(inputs)
    learnable = adapter_w.shape[1]
    if frozen_relu is None:
        frozen_relu = np.empty((n, 0))
    pre = inputs @ adapter_w + adapter_b
    relu = np.concatenate([np.maximum(pre, 0.0), frozen_relu], axis=1)
    mask = 1.0 / (1.0 + np.exp(-slope * embedding))
    z = relu * mask
    logits = z @ head_w + head_b

    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(probs[np.arange(n), labels])))

    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n

    dz = dlogits @ head_w.T
    dpre = dz[:, :learnable] * mask[:learnable] * (pre > 0)
    return loss, {
        "head_weights": z.T @ dlogits,
        "head_bias": dlogits.sum(axis=0),
        "embedding": (dz * relu).sum(axis=0) * mask * (1.0 - mask) * slope,
        "adapter_weights": inputs.T @ dpre,
        "adapter_bias": dpre.sum(axis=0),
    }


class TestFoldedStep:
    """loss_and_grads folds the mask into the head; the unfolded form is its oracle."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           shape=st.tuples(st.integers(1, 12), st.integers(1, 6), st.integers(1, 10),
                           st.integers(1, 4)),
           ood_logit=st.booleans(),
           slope=st.one_of(st.floats(1 / 400, 400.0), st.sampled_from([1 / 400, 400.0])),
           seed=st.integers(0, 2**32 - 1))
    def test_folded_step_equals_the_unfolded_step(self, data, shape, ood_logit, slope, seed):
        n, d, h, c = shape
        logits = c + ood_logit
        frozen = np.array(data.draw(st.sampled_from(
            [[], list(range(h))] + [sorted(data.draw(st.sets(st.integers(0, h - 1),
                                                              max_size=h), label="some"))]),
            label="frozen"), dtype=np.intp)
        rng = np.random.default_rng(seed)
        inputs = rng.normal(size=(n, d))
        labels = rng.integers(0, logits, n)
        params = {
            "adapter_weights": rng.normal(size=(d, h)),
            "adapter_bias": rng.normal(size=h) * 0.5,
            "embedding": rng.uniform(-1.0, 1.0, h),
            "head_weights": rng.normal(size=(h, logits)),
            "head_bias": rng.normal(size=logits) * 0.1,
        }
        frozen_relu = None
        if len(frozen):
            learnable = np.setdiff1d(np.arange(h), frozen)
            params, frozen_relu = _split(params, inputs, learnable, frozen)
        args = (inputs, labels, params["adapter_weights"], params["adapter_bias"],
                params["embedding"], params["head_weights"], params["head_bias"], slope,
                frozen_relu)
        loss, grads = loss_and_grads(*args)
        want_loss, want = unfolded_loss_and_grads(*args)
        assert loss == pytest.approx(want_loss, rel=1e-9, abs=1e-12)
        assert grads.keys() == want.keys()
        for name, expected in want.items():
            assert grads[name].shape == expected.shape, name
            scale = np.abs(expected).max(initial=0.0)
            np.testing.assert_allclose(grads[name], expected, rtol=1e-9,
                                       atol=1e-12 * scale, err_msg=name)


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
        assert np.array_equal(covariance_inv(a.stats[0]), covariance_inv(b.stats[0]))

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

    @pytest.mark.parametrize("claimed", [28, 32], ids=["most-frozen", "all-frozen"])
    def test_frozen_columns_and_biases_bit_identical(self, claimed):
        # an earlier task whose saturated mask is exactly 1 on `claimed` of 32 units
        task = two_class_task(seed=7)
        hp = oc.Hyperparams(epochs=4, learning_rate=0.05, batch_size=16, hidden_width=32,
                            seed=3)
        model = oc.new_model(task.dim, hp)
        model.adapters.bias[:] = np.linspace(-0.2, 0.3, 32)
        frozen = np.zeros(32, dtype=bool)
        frozen[np.random.default_rng(1).permutation(32)[:claimed]] = True
        model.adapters.task_embeddings.append(np.where(frozen, EMBEDDING_CLAMP, -1.0))
        assert np.array_equal(oc.hat_mask(model.adapters.task_embeddings[0], 400.0) == 1.0,
                              frozen)
        model.heads.append(oc.TaskHead(np.zeros((32, 2)), np.zeros(2)))
        model.stats.append(manual_stats(np.zeros((2, 32))))
        model.classes_per_task = 2
        weights, bias = model.adapters.weights.copy(), model.adapters.bias.copy()

        oc.train_task(model, task, hp)

        assert np.array_equal(model.adapters.weights[:, frozen], weights[:, frozen])
        assert np.array_equal(model.adapters.bias[frozen], bias[frozen])
        learnt = ~frozen
        assert (model.adapters.weights[:, learnt] != weights[:, learnt]).any(axis=0).all()
        assert (model.adapters.bias[learnt] != bias[learnt]).all()
        # the new task's embedding and head still learn through the frozen units
        z = activations(model, 1, task.features)
        predictions = (z @ model.heads[1].weights + model.heads[1].bias).argmax(axis=1)
        assert np.mean(predictions == task.labels) >= 0.9

    def test_wrong_class_count_rejected(self, small_stream, small_hp):
        model = oc.new_model(small_stream.tasks[0][0].dim, small_hp)
        oc.train_task(model, task_local(small_stream.tasks[0][0], 0, 2), small_hp)
        three_class = oc.synth_gaussian(
            oc.SynthSpec(num_classes=3, dim=8, per_class=5, mean_separation=4.0, seed=1)
        )
        with pytest.raises(ModelError, match="expects 2 per task"):
            oc.train_task(model, three_class, small_hp)

    @pytest.mark.parametrize("train", ["task", "replay", "stream"])
    @pytest.mark.parametrize("changes", [{"hidden_width": 99}, {"slope_max": 50.0},
                                         {"hidden_width": 99, "slope_max": 50.0}])
    def test_hyperparams_that_disagree_with_the_model_are_refused(self, train, changes,
                                                                  small_stream):
        model = oc.new_model(8, oc.Hyperparams(hidden_width=16))
        hp = replace(oc.Hyperparams(epochs=1, hidden_width=16), **changes)
        local = task_local(small_stream.tasks[0][0], 0, 2)
        with pytest.raises(ModelError, match=r"^Hyperparams hidden_width \d+ and slope_max "
                                             r"[\d.]+ do not match the model's 16 and 400"):
            if train == "task":
                oc.train_task(model, local, hp)
            elif train == "replay":
                oc.train_task_replay(model, local, oc.Buffer.empty(10, 8), hp)
            else:
                oc.train_stream(model, small_stream, hp)
        assert model.trained_tasks == 0

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

    def test_diverging_run_with_an_epoch_hook_raises_model_error(self, small_stream):
        # one batch an epoch: the update after epoch 1 overflows, and the loss of epoch 2
        # reports it
        hp = oc.Hyperparams(epochs=2, learning_rate=1e300, batch_size=128, hidden_width=16,
                            seed=5)
        seen = []
        with pytest.raises(ModelError, match="non-finite loss at task 0, epoch 2"):
            oc.train_stream(oc.new_model(small_stream.tasks[0][0].dim, hp), small_stream, hp,
                            epoch_hook=lambda **kw: seen.append(kw))
        assert [e["epoch"] for e in seen] == [1]

    def test_non_finite_parameters_after_the_last_step_are_refused(self):
        # one batch: its loss is finite, and the step after it overflows the adapter
        task = two_class_task(separation=1e4)
        hp = oc.Hyperparams(epochs=1, learning_rate=1e306, batch_size=128, hidden_width=16)
        model = oc.new_model(task.dim, hp)
        adapter = model.adapters.weights.copy()
        with pytest.raises(ModelError, match="non-finite parameters at the end of task 0"):
            oc.train_task(model, task, hp)
        assert model.trained_tasks == 0
        assert np.array_equal(model.adapters.weights, adapter)

    def test_diverged_run_with_finite_parameters_is_refused(self):
        # the parameters end finite, but the covariance of their activations overflows
        task = two_class_task()
        hp = oc.Hyperparams(epochs=1, learning_rate=1e300, batch_size=128, hidden_width=16)
        with pytest.raises(ModelError, match="non-finite covariance for task 0"):
            oc.train_task(oc.new_model(task.dim, hp), task, hp)

    @pytest.mark.parametrize("percentile", [-1.0, 100.5, math.nan])
    @pytest.mark.parametrize("train", ["task", "replay", "stream"])
    def test_react_percentile_checked_before_training(self, train, percentile,
                                                      small_stream, small_hp):
        model = oc.new_model(8, small_hp)
        local = task_local(small_stream.tasks[0][0], 0, 2)
        with pytest.raises(ModelError, match="react_percentile must lie in"):
            hp = replace(small_hp, react_percentile=percentile)
            if train == "task":
                oc.train_task(model, local, hp)
            elif train == "replay":
                oc.train_task_replay(model, local, oc.Buffer.empty(10, 8), hp)
            else:
                oc.train_stream(model, small_stream, hp)
        assert model.trained_tasks == 0 and model.classes_per_task is None

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_backupdate_epochs_checked_before_training(self, epochs, small_stream, small_hp):
        model = oc.new_model(8, small_hp)
        with pytest.raises(ModelError, match="epochs must be >= 1"):
            hp = replace(small_hp, backupdate_epochs=epochs)
            oc.train_stream(model, small_stream, hp, replay=True, backupdate=True)
        assert model.trained_tasks == 0

    @pytest.mark.parametrize("make", [
        lambda stream, hp: replace(hp, epochs=2.5),
        lambda stream, hp: replace(hp, hidden_width=8.0),
        lambda stream, hp: replace(hp, batch_size=16.5),
        lambda stream, hp: replace(hp, backupdate_epochs=1.5),
        lambda stream, hp: replace(hp, seed=2.5),
        lambda stream, hp: replace(hp, seed=math.nan),
        lambda stream, hp: replace(hp, epochs=True),
        lambda stream, hp: oc.Buffer.empty(2.5, 8),
        lambda stream, hp: oc.Buffer.empty(4, 8.0),
        lambda stream, hp: oc.Buffer(2.5, np.empty((0, 8)), np.empty(0, dtype=np.int64),
                                     np.empty(0, dtype=np.int64)),
        lambda stream, hp: oc.train_stream(oc.new_model(8, hp), stream, hp, replay=True,
                                           buffer_capacity=2.5),
        lambda stream, hp: oc.new_model(8.0, hp),
        lambda stream, hp: oc.new_model(8, hp, trunk_dim=4.5),
    ], ids=["epochs", "hidden_width", "batch_size", "backupdate_epochs", "seed", "seed_nan",
            "bool", "buffer", "buffer_dim", "buffer_direct", "stream_buffer", "dim_in", "trunk_dim"])
    def test_integer_setting_that_is_not_an_integer_is_refused(self, make, small_stream,
                                                               small_hp):
        hp = replace(small_hp, epochs=np.int64(1), seed=np.uint8(2))  # numpy integers pass
        oc.Buffer.empty(np.int32(4), 8), oc.new_model(np.int16(8), hp, trunk_dim=np.int8(4))
        with pytest.raises(ModelError, match="must be an integer"):
            make(small_stream, small_hp)


    @pytest.mark.parametrize("hidden, trunk_dim, message", [
        (10**18, None, r"^adapter weights of shape \(8, 10{18}\) exceeds numpy's largest"),
        (4, 10**18, r"^trunk projection of shape \(8, 10{18}\) exceeds numpy's largest"),
        (10**20, 2, r"^adapter weights of shape \(2, 10{20}\) exceeds numpy's largest"),
    ])
    def test_shape_numpy_cannot_allocate_is_refused(self, hidden, trunk_dim, message):
        with pytest.raises(ModelError, match=message):
            oc.new_model(8, oc.Hyperparams(hidden_width=hidden), trunk_dim=trunk_dim)


class TestComputeTrainStats:
    def test_one_sample_per_class_gives_ridge_identity(self):
        hp = oc.Hyperparams(hidden_width=8, seed=1)
        model = oc.new_model(4, hp)
        model.adapters.task_embeddings.append(np.full(8, 10.0))
        model.heads.append(oc.TaskHead(np.zeros((8, 2)), np.zeros(2)))
        data = oc.Dataset(np.array([[1.0, 0.5, 0.2, 0.1], [0.0, 1.0, 0.3, 0.9]]),
                          np.array([0, 1]))
        stats = oc.compute_train_stats(model, data, task=0, ridge_coefficient=1e-4)
        assert np.array_equal(covariance_inv(stats), np.linalg.inv(1e-4 * np.eye(8)))

    def test_duplicating_samples_preserves_stats(self, small_stream, small_hp,
                                                 small_model):
        data = task_local(small_stream.tasks[0][0], 0, 2)
        doubled = oc.Dataset(np.concatenate([data.features, data.features]),
                             np.concatenate([data.labels, data.labels]))
        a = oc.compute_train_stats(small_model, data, task=0)
        b = oc.compute_train_stats(small_model, doubled, task=0)
        np.testing.assert_allclose(a.class_means, b.class_means, atol=1e-12)
        # the inverse's entries reach 1e4, so the bound scales with them
        scale = np.abs(covariance_inv(a)).max()
        np.testing.assert_allclose(covariance_inv(a), covariance_inv(b), rtol=0,
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
        np.testing.assert_allclose(covariance_inv(stats) @ expected_cov, np.eye(hidden),
                                   atol=1e-9)
        np.testing.assert_allclose(stats.mean_activations, z.mean(axis=0), atol=1e-9)
        pooled = np.sort(z.ravel())
        assert stats.react_threshold == pooled[math.ceil(0.9 * pooled.size) - 1]

    @settings(max_examples=40, deadline=None)
    @given(width=st.sampled_from([1, 63, 64, 65, 129, 512]),
           rows=st.sampled_from([0.5, 2.0]), seed=st.integers(0, 2**32 - 1))
    def test_factor_of_the_covariance_equals_the_factor_of_its_inverse(self, width, rows,
                                                                        seed):
        # rows < 1 leaves the scatter rank-deficient, so the ridge carries it
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(max(2, int(rows * width)), width)) * rng.uniform(0.1, 3.0, width)
        covariance = z.T @ z / len(z)
        covariance[np.diag_indices(width)] += 1e-4 * np.trace(covariance) / width
        factor = _covariance_whitening_factor(covariance)
        assert not np.triu(factor, 1).any()
        assert (np.diagonal(factor) > 0).all()
        np.testing.assert_allclose(factor @ factor.T @ covariance, np.eye(width),
                                   rtol=0, atol=1e-8)
        expected = whitening_factor(np.linalg.inv(covariance))
        np.testing.assert_allclose(factor, expected, rtol=0,
                                   atol=1e-9 * np.abs(expected).max())

    def test_covariance_that_does_not_factor(self, small_model):
        # one sample per class and no ridge leave an all-zero covariance
        data = oc.Dataset(np.ones((2, small_model.trunk.dim_in)), np.array([0, 1]))
        with pytest.raises(ModelError) as caught:
            oc.compute_train_stats(small_model, data, task=0, ridge_coefficient=0.0)
        assert str(caught.value) == "singular covariance after ridge 0 for task 0"

    def test_non_finite_activations_rejected(self, small_stream):
        # finite weights whose activations overflow
        data = task_local(small_stream.tasks[0][0], 0, 2)
        model = manual_model(np.full((8, 4), 1e308), np.zeros(4), [np.full(4, 10.0)],
                             [(np.zeros((4, 2)), np.zeros(2), False)], classes_per_task=2)
        with pytest.raises(ModelError, match="non-finite activations for task 0"):
            oc.compute_train_stats(model, data)

    def test_task_that_is_not_an_integer_is_refused(self, small_model):
        data = oc.Dataset(np.zeros((2, 8)), np.array([0, 1]))
        with pytest.raises(ModelError, match=r"^task must be an integer, got 0\.5$"):
            oc.compute_train_stats(small_model, data, task=0.5)

    def test_untrained_task_rejected(self, small_model):
        data = oc.Dataset(np.zeros((2, 8)), np.array([0, 1]))
        with pytest.raises(ModelError, match=r"^task 7 outside 0\.\.1$"):
            oc.compute_train_stats(small_model, data, task=7)

    def test_untrained_model_has_no_task(self):
        data = oc.Dataset(np.zeros((2, 8)), np.array([0, 1]))
        with pytest.raises(ModelError, match="^model has no trained heads$"):
            oc.compute_train_stats(oc.new_model(8, oc.Hyperparams(hidden_width=4)), data)


class TestBuffer:
    def _task(self, classes, per_class, dim=4, seed=0, base=0):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(classes * per_class, dim))
        labels = np.repeat(np.arange(base, base + classes), per_class)
        return oc.Dataset(features, labels)

    @pytest.mark.parametrize("direct", [False, True])
    def test_capacity_below_one_refused_when_made(self, direct):
        empty = (np.empty((0, 4)), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        with pytest.raises(ModelError, match="capacity must be >= 1"):
            oc.Buffer(0, *empty) if direct else oc.Buffer.empty(0, 4)

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

    def test_dim_below_one_refused(self):
        with pytest.raises(ModelError, match=r"^buffer dim must be >= 1, got -1$"):
            oc.Buffer.empty(4, -1)

    @pytest.mark.parametrize("task_id, message", [
        (2.5, "task_id must be an integer, got 2.5"), (-3, "task_id must be >= 0, got -3")])
    def test_task_id_that_is_not_a_non_negative_integer_is_refused(self, task_id, message):
        with pytest.raises(ModelError, match=f"^{message}$"):
            oc.buffer_update(oc.Buffer.empty(4, 4), self._task(2, 5), task_id=task_id, seed=0)


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

    def test_runs_on_a_loaded_model(self, small_stream, small_hp, tmp_path):
        # a loaded model back-updates as the model it was saved from
        model, buffer = self._trained_replay(small_stream, small_hp)
        path = tmp_path / "model.txt"
        oc.save_model(model, str(path))
        loaded = oc.load_model(str(path))
        oc.back_update(model, buffer, small_hp)
        oc.back_update(loaded, buffer, small_hp)
        for ours, theirs in zip(model.heads, loaded.heads):
            assert np.array_equal(ours.weights, theirs.weights)
            assert np.array_equal(ours.bias, theirs.bias)

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_epochs_below_one_rejected(self, epochs, small_hp):
        # even where back-update would be a no-op, the value is not ignored
        with pytest.raises(ModelError, match="epochs must be >= 1"):
            oc.back_update(oc.new_model(8, small_hp), oc.Buffer.empty(10, 8),
                           replace(small_hp, backupdate_epochs=epochs))

    def test_non_finite_head_refused(self, small_stream, small_hp):
        model, buffer = self._trained_replay(small_stream, small_hp)
        hp = replace(small_hp, learning_rate=1e308, backupdate_epochs=1)
        with pytest.raises(ModelError, match="non-finite head 0 after back-update"):
            oc.back_update(model, buffer, hp)

    def test_empty_buffer_rejected(self, small_stream, small_hp):
        model, _ = self._trained_replay(small_stream, small_hp)
        with pytest.raises(ModelError, match="non-empty buffer"):
            oc.back_update(model, oc.Buffer.empty(10, 8), small_hp)


def _model_bits(model):
    """Every array of a model as (shape, bytes), with its class and task counts."""
    arrays = [model.adapters.weights, model.adapters.bias, *model.adapters.task_embeddings]
    if model.trunk.projection is not None:
        arrays.append(model.trunk.projection)
    for head in model.heads:
        arrays += [head.weights, head.bias, np.float64(head.ood_logit_present)]
    for stats in model.stats:
        arrays += [stats.class_means, stats.whitening_factor, stats.mean_activations,
                   np.float64(stats.react_threshold)]
    return ([(a.shape, a.tobytes()) for a in arrays], model.classes_per_task,
            model.trained_tasks, len(model.adapters.task_embeddings), len(model.stats))


class TestTaskCommitsWhole:
    """A training call that raises leaves every model array as it was."""

    STEP_GRADIENTS = ["adapter_weights", "adapter_bias", "embedding", "head_weights",
                      "head_bias"]

    @settings(max_examples=60, deadline=None)
    @given(stage=st.sampled_from(["loss", "parameters", "activations", "singular",
                                  "back-update"]),
           replay=st.booleans(), earlier=st.integers(0, 2), trunk=st.booleans(),
           at=st.integers(0, 10**6), gradient=st.sampled_from(STEP_GRADIENTS))
    def test_a_failure_at_any_stage_leaves_the_model_bit_equal(self, stage, replay, earlier,
                                                               trunk, at, gradient):
        if stage == "back-update":
            replay, earlier = True, max(earlier, 1)
        spec = oc.SynthSpec(num_classes=6, dim=6, per_class=10, mean_separation=4.0, seed=7)
        train, test = oc.holdout(oc.synth_gaussian(spec), 0.25, 7)
        stream = oc.split_tasks(train, test, 3)
        hp = oc.Hyperparams(epochs=2, learning_rate=0.05, batch_size=8, hidden_width=8,
                            seed=3, slope_max=50.0)
        model = oc.new_model(6, hp, trunk_dim=4 if trunk else None)
        buffer = oc.Buffer.empty(6, 6)

        def train_task(t):
            local = task_local(stream.tasks[t][0], t, 2)
            if replay:
                oc.train_task_replay(model, local, buffer, hp)
            else:
                oc.train_task(model, local, hp)

        for t in range(earlier + (stage == "back-update")):
            train_task(t)
            if replay:
                buffer = oc.buffer_update(buffer, stream.tasks[t][0], t, hp.seed)
        before = _model_bits(model)
        real_step, real_activations = oc.model._sgd_step, oc.model.activations
        real_softmax = oc.model._softmax_in_place
        calls = []

        def step(*args):
            loss, grads = real_step(*args)
            calls.append(None)
            if stage == "loss" and len(calls) == 1 + at % steps:
                loss = math.nan
            if stage == "parameters" and len(calls) == steps:
                grads[gradient][...] = np.nan  # a clipped embedding keeps a NaN, not an inf
            return loss, grads

        def activations_with_a_nan(model, task, x):
            z = real_activations(model, task, x)
            z.flat[at % z.size] = np.nan
            return z

        def singular(covariance):
            raise np.linalg.LinAlgError("not positive definite")

        def softmax(logits):
            calls.append(None)
            out = real_softmax(logits)
            if len(calls) == 1 + at % steps:
                out[0, 0] = np.nan
            return out

        with pytest.MonkeyPatch.context() as patch:
            if stage == "back-update":
                batches = math.ceil(len(buffer) / hp.batch_size)
                steps = earlier * oc.model.DEFAULT_BACKUPDATE_EPOCHS * batches
                head = (at % steps) // (oc.model.DEFAULT_BACKUPDATE_EPOCHS * batches)
                patch.setattr(oc.model, "_softmax_in_place", softmax)
                with pytest.raises(ModelError, match=f"non-finite head {head} after"):
                    oc.back_update(model, buffer, hp)
            else:
                n = len(task_local(stream.tasks[earlier][0], earlier, 2))
                n += len(buffer) if replay else 0
                steps = hp.epochs * math.ceil(n / hp.batch_size)
                patch.setattr(oc.model, "_sgd_step", step)
                if stage == "activations":
                    patch.setattr(oc.model, "activations", activations_with_a_nan)
                elif stage == "singular":
                    patch.setattr(oc.model, "_covariance_whitening_factor", singular)
                message = {"loss": f"non-finite loss at task {earlier}",
                           "parameters": f"non-finite parameters at the end of task {earlier}",
                           "activations": f"non-finite activations for task {earlier}",
                           "singular": f"singular covariance .* for task {earlier}"}[stage]
                with pytest.raises(ModelError, match=message):
                    train_task(earlier)
        assert _model_bits(model) == before


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
            assert loaded.stats[t].whitening_factor.tobytes() == \
                small_model.stats[t].whitening_factor.tobytes()
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
        assert np.array_equal(forward_features(small_model, 1, x),
                              forward_features(loaded, 1, x))

    def test_truncated_file(self, small_model, tmp_path):
        path = tmp_path / "model.txt"
        oc.save_model(small_model, str(path))
        data = path.read_bytes()
        last = data.rindex(b"\narray ") + 1  # the last array record
        # halfway, inside the last payload, before its line break, and before 'end'
        for cut in (len(data) // 2, data.index(b"\n", last) + 9, data.rindex(b"\ncrc32 "),
                    len(data) - 4):
            path.write_bytes(data[:cut])
            with pytest.raises(ModelIOError, match="truncated model file"):
                oc.load_model(str(path))

    def test_hand_written_file_loads(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(version_five_bytes(DECIMAL_MODEL))
        model = oc.load_model(str(path))
        assert model.trained_tasks == 1 and model.classes_per_task == 2
        assert model.adapters.slope_max == 400.0
        assert np.array_equal(model.adapters.weights, [[1.0, 0.5], [-0.5, 2.0]])
        assert np.array_equal(model.adapters.bias, [0.25, 0.0])
        assert np.array_equal(model.adapters.task_embeddings[0], [6.0, -6.0])
        assert np.array_equal(model.heads[0].weights, [[1.5, -1.0], [0.5, 2.0]])
        assert np.array_equal(model.heads[0].bias, [0.0, 0.125])
        assert not model.heads[0].ood_logit_present
        assert np.array_equal(model.stats[0].class_means, [[1.0, 0.0], [0.0, 2.0]])
        assert np.array_equal(model.stats[0].whitening_factor, np.diag([math.sqrt(0.5), 0.5]))
        assert np.array_equal(model.stats[0].mean_activations, [0.5, 1.0])
        assert model.stats[0].react_threshold == 1.5
        assert oc.predict(model, "react", "enmd", np.array([1.0, 0.0])).predicted_class == 0
        oc.save_model(model, str(path))
        assert path.read_bytes() == version_five_bytes(DECIMAL_MODEL)

    def test_factor_read_before_the_hidden_width_refused(self, tmp_path):
        # records load in the order they are saved, so the hidden width is
        # always known when a factor is read
        text = DECIMAL_MODEL.replace("meta hidden_width 2\n", "")
        text = text.replace("end\n", "meta hidden_width 2\nend\n")
        path = tmp_path / "model.bin"
        path.write_bytes(version_five_bytes(text))
        with pytest.raises(ModelIOError, match="expected record 'meta hidden_width', "
                                               "got 'meta slope_max 400'"):
            oc.load_model(str(path))

    def test_duplicate_factor_record_refused(self, tmp_path):
        factor = f"array stats_factor_0 3\n{math.sqrt(0.5)!r} 0 0.5\n"
        path = tmp_path / "model.bin"
        path.write_bytes(version_five_bytes(DECIMAL_MODEL.replace(factor, factor * 2)))
        with pytest.raises(ModelIOError, match="expected record 'array stats_meanact_0', "
                                               "got 'array stats_factor_0 3'"):
            oc.load_model(str(path))

    def test_rows_are_exact_little_endian_doubles(self, tmp_path):
        # values with long 17-digit decimal forms, plus -0.0 and a subnormal
        head = np.array([[0.1, -0.0], [1 / 3, 5e-324]])
        model = manual_model(np.eye(2), [0.0, 0.0], [[6.0, -6.0]],
                             [(head, [0.0, 0.0], False)],
                             stats=[manual_stats([[1.0, 0.0], [0.0, 2.0]])],
                             classes_per_task=2)
        path = tmp_path / "model.txt"
        oc.save_model(model, str(path))
        record = next(r for r in model_records(path.read_bytes())
                      if r.startswith(b"array head_weights_0 "))
        assert record == (b"array head_weights_0 2 2\n" + head.astype("<f8").tobytes() + b"\n"
                          + f"crc32 head_weights_0 {zlib.crc32(head):08x}\n".encode())
        assert oc.load_model(str(path)).heads[0].weights.tobytes() == head.tobytes()

    def test_loaded_arrays_are_the_saved_bytes(self, small_model, tmp_path):
        path = tmp_path / "model.txt"
        oc.save_model(small_model, str(path))
        loaded = oc.load_model(str(path))
        lower = np.tril_indices(loaded.hidden_width)
        named = {"adapter_weights": loaded.adapters.weights, "adapter_bias": loaded.adapters.bias}
        for t, (head, stats) in enumerate(zip(loaded.heads, loaded.stats)):
            named.update({f"embedding_{t}": loaded.adapters.task_embeddings[t],
                          f"head_weights_{t}": head.weights, f"head_bias_{t}": head.bias,
                          f"stats_means_{t}": stats.class_means,
                          f"stats_factor_{t}": stats.whitening_factor,
                          f"stats_meanact_{t}": stats.mean_activations})
        for arr in named.values():
            assert arr.dtype == np.float64
            assert arr.flags.c_contiguous and arr.flags.writeable
        saved = {r.split()[1].decode(): record_values(r) for r in model_records(path.read_bytes())
                 if r.startswith(b"array ")}
        assert saved.keys() == named.keys()
        for name, values in saved.items():
            arr = named[name][lower] if name.startswith("stats_factor_") else named[name]
            assert arr.tobytes() == values.tobytes(), name

    @pytest.mark.parametrize("fed", ["whole", "cut", "huge-shape"])
    def test_load_from_a_fifo(self, fed, small_model, tmp_path):
        # a pipe has no size, so the reader cannot bound a payload by the rest of the file
        path, fifo = tmp_path / "model.txt", tmp_path / "model.fifo"
        oc.save_model(small_model, str(path))
        data = {"whole": path.read_bytes(), "cut": path.read_bytes()[:1000],
                "huge-shape": _projection_record(4000000000, "4000000000 4000000000")}[fed]
        os.mkfifo(fifo)

        def feed():
            try:
                with open(fifo, "wb") as fh:
                    fh.write(data)
            except BrokenPipeError:  # the reader stopped early
                pass

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            if fed == "whole":
                loaded = oc.load_model(str(fifo))
                assert loaded.stats[1].whitening_factor.tobytes() == \
                    small_model.stats[1].whitening_factor.tobytes()
            else:
                with pytest.raises(ModelIOError, match={"cut": "truncated model file",
                                                        "huge-shape": "bad shape"}[fed]):
                    oc.load_model(str(fifo))
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()

    def test_factor_with_an_entry_above_its_diagonal_not_saved(self, small_model, tmp_path):
        # the file keeps only the lower triangle, so the entry would be lost
        model = copy.deepcopy(small_model)
        factor = model.stats[1].whitening_factor
        model.stats[1].whitening_factor = factor + np.triu(np.ones_like(factor), 1)
        path = tmp_path / "model.txt"
        with pytest.raises(ModelError, match="whitening factor of task 1"):
            oc.save_model(model, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("version", ["1", "2", "3", "4", "99"])
    def test_version_mismatch(self, version, tmp_path):
        # the text files of versions 1 to 4 are refused like any version but 5
        path = tmp_path / "model.txt"
        path.write_text(f"opencil-model {version}\nend\n")
        with pytest.raises(ModelIOError, match=f"unsupported model file version {version} "):
            oc.load_model(str(path))

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("label,f0\n0,1.0\n")
        with pytest.raises(ModelIOError, match="header"):
            oc.load_model(str(path))

    def test_binary_file(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_bytes(b"opencil-model 5\n\xff\xfe\x00\x81\n")
        with pytest.raises(ModelIOError, match="UTF-8"):
            oc.load_model(str(path))

    @pytest.mark.parametrize("shape", ["2 2 2", "-1 2", "1e3", "100000000000000000000000 0"])
    def test_bad_version_five_shape(self, shape, tmp_path):
        # a dim_in that the last shape's row count matches, so that only numpy refuses it
        path = tmp_path / "model.txt"
        path.write_bytes(_projection_record(10**23, shape) + bytes(33) + b"end\n")
        with pytest.raises(ModelIOError, match="bad shape in array record 'trunk_projection'"):
            oc.load_model(str(path))

    def test_oversized_shape_refused_before_allocation(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_bytes(_projection_record(4000000000, "4000000000 4000000000")
                         + bytes(17) + b"end\n")
        with pytest.raises(ModelIOError, match="'trunk_projection' of shape 4000000000 "
                                               "4000000000 does not fit"):
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
        assert np.array_equal(forward_features(model, 0, x),
                              forward_features(loaded, 0, x))
