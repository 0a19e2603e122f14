"""Training pinned bit for bit to the plain per-step formulas.

The reference below keeps the straightforward form of each SGD step: a
two-branch sigmoid gate, a softmax copied before the one-hot is
subtracted, a gather of every batch from the unshuffled data, and a fresh
temporary for every gradient expression. The library runs the same
operations in the same order on the same operands, with fewer numpy calls
and temporaries, so every trained array must be equal, not merely close.

The step is the folded one: the HAT mask m scales the (h, C) head, W' =
diag(m) W, rather than the (n, h) activations, so logits = relu W' + b,
and with G = relu^T dlogits the head gradient is diag(m) G and the
embedding gradient rowsum(W * G) m (1 - m) slope. ``test_model.py`` checks
this form against the unfolded one, z = relu * m, to rounding.

The epoch log's accuracy is the running training accuracy: each batch's
logits argmax at that step's parameters, before the update, counted over
the epoch.

Both train a task over its units reordered learnable first: the adapter
columns whose gate is not exactly 0 are copied out and trained, the
frozen units' ReLU outputs are computed once per task, and the learned
columns are written back when the task ends.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opencil as oc
from opencil.data import task_local
from opencil.model import (EMBEDDING_CLAMP, EMBEDDING_INIT_RANGE, HEAD_INIT_STD, TaskHead,
                           activations, compute_train_stats)
from opencil.rng import substream


def ref_hat_mask(embedding, slope):
    x = slope * np.asarray(embedding, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def ref_loss_and_grads(inputs, labels, adapter_w, adapter_b, embedding, head_w, head_b,
                       slope, frozen_relu):
    """Loss, gradients and the batch's predicted labels."""
    n = len(inputs)
    learnable = adapter_w.shape[1]
    pre = inputs @ adapter_w + adapter_b
    relu = np.maximum(pre, 0.0)
    mask = ref_hat_mask(embedding, slope)
    folded = head_w * mask[:, None]
    logits = relu @ folded[:learnable] + frozen_relu @ folded[learnable:] + head_b
    predictions = logits.argmax(axis=1)

    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    probs = exps / exps.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(probs[np.arange(n), labels])))

    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n

    outer = np.concatenate([relu.T @ dlogits, frozen_relu.T @ dlogits])
    grads = {
        "head_weights": mask[:, None] * outer,
        "head_bias": dlogits.sum(axis=0),
        "embedding": (head_w * outer).sum(axis=1) * mask * (1.0 - mask) * slope,
    }
    dpre = (dlogits @ folded[:learnable].T) * (pre > 0)
    grads["adapter_weights"] = inputs.T @ dpre
    grads["adapter_bias"] = dpre.sum(axis=0)
    return loss, grads, predictions


def ref_annealed_slope(batch, num_batches, slope_max):
    if num_batches <= 1:
        return slope_max
    lo = 1.0 / slope_max
    return lo + (slope_max - lo) * batch / (num_batches - 1)


def ref_compensation(embedding, slope, slope_max):
    num = np.cosh(np.clip(slope * embedding, -50.0, 50.0)) + 1.0
    den = np.cosh(np.clip(embedding, -50.0, 50.0)) + 1.0
    return (slope_max / slope) * num / den


def ref_fit_new_head(model, inputs, labels, n_logits, hp, task, log):
    init_rng = substream(hp.seed, f"init:task{task}")
    embedding = init_rng.uniform(-EMBEDDING_INIT_RANGE, EMBEDDING_INIT_RANGE,
                                 model.hidden_width)
    head_w = init_rng.normal(0.0, HEAD_INIT_STD, (model.hidden_width, n_logits))
    head_b = np.zeros(n_logits)

    masks = [ref_hat_mask(e, model.adapters.slope_max)
             for e in model.adapters.task_embeddings]
    gate = np.ones(model.hidden_width)
    if masks:
        gate = gate * (1.0 - np.max(np.stack(masks), axis=0))
    learnable, frozen = np.flatnonzero(gate != 0), np.flatnonzero(gate == 0)
    units = np.concatenate([learnable, frozen])
    adapter = model.adapters
    # copies in C order: the gradients and their updates are C-ordered
    weights = adapter.weights[:, learnable].copy()
    bias = adapter.bias[learnable]
    frozen_relu = np.maximum(inputs @ adapter.weights[:, frozen].copy()
                             + adapter.bias[frozen], 0.0)
    gate = gate[learnable]
    embedding, head_w = embedding[units], head_w[units]
    batch_rng = substream(hp.seed, f"batch:task{task}")
    n = len(inputs)
    lr = hp.learning_rate

    for epoch in range(1, hp.epochs + 1):
        order = batch_rng.permutation(n)
        num_batches = math.ceil(n / hp.batch_size)
        loss_sum, hits = 0.0, 0
        for b in range(num_batches):
            idx = order[b * hp.batch_size : (b + 1) * hp.batch_size]
            slope = ref_annealed_slope(b, num_batches, hp.slope_max)
            loss, grads, predictions = ref_loss_and_grads(
                inputs[idx], labels[idx], weights, bias, embedding, head_w, head_b, slope,
                frozen_relu[idx])
            loss_sum += loss * len(idx)
            hits += int(np.sum(predictions == labels[idx]))
            weights -= lr * (grads["adapter_weights"] * gate)
            bias -= lr * (grads["adapter_bias"] * gate)
            compensation = ref_compensation(embedding, slope, hp.slope_max)
            embedding -= lr * grads["embedding"] * compensation
            np.clip(embedding, -EMBEDDING_CLAMP, EMBEDDING_CLAMP, out=embedding)
            head_w -= lr * grads["head_weights"]
            head_b -= lr * grads["head_bias"]
        log.append((task, epoch, loss_sum / n, hits / n))
    adapter.weights[:, learnable] = weights
    adapter.bias[learnable] = bias
    trained_head_w, trained_embedding = np.empty_like(head_w), np.empty_like(embedding)
    trained_head_w[units], trained_embedding[units] = head_w, embedding
    return trained_head_w, head_b, trained_embedding


def ref_back_update(model, buffer, hp, epochs):
    n_classes = model.classes_per_task
    lr = hp.learning_rate
    for j in range(model.trained_tasks - 1):
        head = model.heads[j]
        z = activations(model, j, buffer.features)
        labels = np.where(buffer.tasks == j, buffer.labels - j * n_classes, n_classes)
        rng = substream(hp.seed, f"backupdate:{model.trained_tasks}:head{j}")
        for _ in range(epochs):
            order = rng.permutation(len(z))
            for b in range(math.ceil(len(z) / hp.batch_size)):
                idx = order[b * hp.batch_size : (b + 1) * hp.batch_size]
                logits = z[idx] @ head.weights + head.bias
                shifted = logits - logits.max(axis=1, keepdims=True)
                exps = np.exp(shifted)
                probs = exps / exps.sum(axis=1, keepdims=True)
                dlogits = probs.copy()
                dlogits[np.arange(len(idx)), labels[idx]] -= 1.0
                dlogits /= len(idx)
                head.weights -= lr * (z[idx].T @ dlogits)
                head.bias -= lr * dlogits.sum(axis=0)


def ref_train_stream(model, stream, hp, log, *, replay=False, backupdate=False,
                     buffer_capacity=200):
    """train_stream with the reference SGD loops; the statistics and the buffer
    come from the library, which has no per-step arithmetic in them."""
    buffer = oc.Buffer.empty(buffer_capacity, stream.tasks[0][0].dim) if replay else None
    for t, (train_ds, _) in enumerate(stream.tasks):
        local = task_local(train_ds, t, stream.classes_per_task)
        model.classes_per_task = local.num_classes
        inputs, labels = model.trunk.apply(local.features), local.labels
        n_logits = local.num_classes
        if replay:
            n_logits += 1
            if len(buffer):
                inputs = np.concatenate([inputs, model.trunk.apply(buffer.features)])
                labels = np.concatenate([labels, np.full(len(buffer), local.num_classes)])
        head_w, head_b, embedding = ref_fit_new_head(model, inputs, labels, n_logits,
                                                     hp, t, log)
        model.adapters.task_embeddings.append(embedding)
        model.heads.append(TaskHead(head_w, head_b, ood_logit_present=replay))
        model.stats.append(compute_train_stats(model, local, task=t,
                                               ridge_coefficient=hp.covariance_ridge,
                                               react_percentile=hp.react_percentile))
        if replay:
            buffer = oc.buffer_update(buffer, train_ds, t, hp.seed)
            if backupdate and model.trained_tasks >= 2:
                ref_back_update(model, buffer, hp, hp.backupdate_epochs)
    return model


def model_arrays(model):
    arrays = {"adapter_weights": model.adapters.weights, "adapter_bias": model.adapters.bias}
    if model.trunk.projection is not None:
        arrays["projection"] = model.trunk.projection
    for t, (e, head, stats) in enumerate(zip(model.adapters.task_embeddings, model.heads,
                                             model.stats)):
        arrays.update({
            f"embedding_{t}": e, f"head_weights_{t}": head.weights,
            f"head_bias_{t}": head.bias, f"class_means_{t}": stats.class_means,
            f"whitening_factor_{t}": stats.whitening_factor,
            f"mean_activations_{t}": stats.mean_activations,
            f"react_threshold_{t}": np.float64(stats.react_threshold),
        })
    return arrays


@pytest.fixture(scope="module")
def three_task_stream():
    """6 classes in 3 tasks; 30 training samples a task leave a short last batch."""
    spec = oc.SynthSpec(num_classes=6, dim=10, per_class=20, mean_separation=3.0, seed=12)
    train, test = oc.holdout(oc.synth_gaussian(spec), 0.25, 12)
    return oc.split_tasks(train, test, 3)


@pytest.mark.parametrize("replay,trunk_dim,slope_max", [
    (False, None, 50.0), (True, 7, 50.0), (False, None, 400.0), (True, 7, 400.0)],
    ids=["buffer-free", "replay-backupdate-trunk", "buffer-free-frozen-units",
         "replay-backupdate-trunk-frozen-units"])
def test_train_stream_equals_the_reference_bit_for_bit(replay, trunk_dim, slope_max,
                                                       three_task_stream):
    # slope_max 50 leaves every unit learnable; at 400 earlier tasks freeze
    # more than half of the 24 units before tasks 2 and 3
    hp = oc.Hyperparams(epochs=6, learning_rate=0.05, batch_size=16, hidden_width=24,
                        seed=9, slope_max=slope_max, backupdate_epochs=3)
    options = dict(replay=replay, backupdate=replay, buffer_capacity=18)
    log, ref_log = [], []

    def hook(task, epoch, loss, accuracy, seconds):
        log.append((task, epoch, loss, accuracy))

    dim = three_task_stream.tasks[0][0].dim
    model = oc.train_stream(oc.new_model(dim, hp, trunk_dim=trunk_dim), three_task_stream,
                            hp, epoch_hook=hook, **options)
    reference = ref_train_stream(oc.new_model(dim, hp, trunk_dim=trunk_dim),
                                 three_task_stream, hp, ref_log, **options)
    ours, theirs = model_arrays(model), model_arrays(reference)
    assert ours.keys() == theirs.keys()
    for name in ours:
        assert np.array_equal(ours[name], theirs[name]), name
    assert log == ref_log  # per-epoch loss and accuracy, exactly
    # the gate stack is non-trivial: later tasks find units claimed by earlier ones
    masks = [oc.hat_mask(e, hp.slope_max) for e in model.adapters.task_embeddings]
    assert (masks[0] > 0.5).any()
    if slope_max == 400.0:
        assert (masks[0] == 1.0).sum() > hp.hidden_width // 2


_SPECIAL_BITS = [
    0x0000000000000000, 0x8000000000000000,  # +0, -0
    0x7FF0000000000000, 0xFFF0000000000000,  # +inf, -inf
    0x7FF8000000000000, 0xFFF8000000000000,  # quiet NaNs of both signs
    0x7FF0000000000001, 0xFFF8000000000123,  # a signalling NaN, a NaN with a payload
    0x0000000000000001, 0x800FFFFFFFFFFFFF,  # the smallest and a largest subnormal
    0x0010000000000000, 0x7FEFFFFFFFFFFFFF,  # the smallest normal, the largest finite
]
_SPECIAL = [float(np.array(b, dtype=np.uint64).view(np.float64)) for b in _SPECIAL_BITS]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.floats(width=64), st.sampled_from(_SPECIAL)),
                       min_size=1, max_size=40),
       slope=st.one_of(st.floats(min_value=0.0, max_value=1e6, exclude_min=True),
                       st.sampled_from([5e-324, 1.0, 400.0, 1e6])))
def test_hat_mask_equals_the_two_branch_sigmoid_bit_for_bit(values, slope):
    e = np.array(values, dtype=np.float64)
    # slope * e may overflow to inf, as intended, or meet a signalling NaN
    with np.errstate(over="ignore", invalid="ignore"):
        ours, theirs = oc.hat_mask(e, slope), ref_hat_mask(e, slope)
    assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64))
