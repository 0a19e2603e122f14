"""The trainable multi-head system and its training procedures.

Architecture: a frozen trunk (identity or a fixed random projection), one
shared ReLU adapter layer whose hidden units are gated per task by
sigmoid attention masks a = sigmoid(slope * e), and one linear classifier
head per task. While training a task the gate slope anneals from
1/slope_max to slope_max within each epoch; at inference and for
gradient protection the saturated mask (slope = slope_max) is used.
Gradients into an adapter hidden unit are scaled by one minus the
strongest saturated mask any earlier task placed on that unit, so units
fully claimed by earlier tasks are exactly frozen.

Two training paths exist: the buffer-free path trains each head only on
its own task's data; the replay baseline adds a class-balanced memory
buffer, an extra OOD logit per head, and an optional second pass that
fine-tunes earlier heads against buffered samples.

Training is single-writer: the train functions mutate the passed model
in place and return it. After training, a model is frozen by convention
and safe to share for read-only inference.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .detectors import build_dice_mask, percentile
from .errors import ModelError
from .rng import substream

EMBEDDING_INIT_RANGE = 0.1
EMBEDDING_CLAMP = 6.0
HEAD_INIT_STD = 0.01
DEFAULT_REACT_PERCENTILE = 90.0
DEFAULT_BACKUPDATE_EPOCHS = 10

__all__ = [
    "Hyperparams",
    "TrunkParams",
    "AdapterBank",
    "TaskHead",
    "TrainStats",
    "ModelState",
    "Buffer",
    "new_model",
    "hat_mask",
    "hat_gradient_gate",
    "forward_features",
    "activations",
    "loss_and_grads",
    "train_task",
    "train_task_replay",
    "compute_train_stats",
    "buffer_update",
    "back_update",
    "train_stream",
]


@dataclass(frozen=True)
class Hyperparams:
    """Knobs of the SGD training loop; all values must be positive."""

    epochs: int = 20
    learning_rate: float = 0.005
    batch_size: int = 64
    hidden_width: int = 64
    seed: int = 0
    slope_max: float = 400.0
    covariance_ridge: float = 1e-4

    def __post_init__(self) -> None:
        for name in ("epochs", "learning_rate", "batch_size", "hidden_width",
                     "slope_max", "covariance_ridge"):
            if not getattr(self, name) > 0:
                raise ModelError(f"{name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise ModelError(f"seed must be non-negative, got {self.seed}")


@dataclass
class TrunkParams:
    """Frozen feature trunk: identity or a fixed linear projection."""

    dim_in: int
    projection: np.ndarray | None = None  # (dim_in, dim_out); None = identity

    @property
    def dim_out(self) -> int:
        return self.dim_in if self.projection is None else self.projection.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return x if self.projection is None else x @ self.projection


@dataclass
class AdapterBank:
    """Shared ReLU adapter plus one gating embedding per trained task."""

    weights: np.ndarray  # (dim_trunk, hidden)
    bias: np.ndarray  # (hidden,)
    task_embeddings: list[np.ndarray] = field(default_factory=list)
    slope_max: float = 400.0


@dataclass
class TaskHead:
    """Linear classifier for one task; replay heads carry an extra OOD logit."""

    weights: np.ndarray  # (hidden, C) with C = classes (+1 if ood_logit_present)
    bias: np.ndarray  # (C,)
    ood_logit_present: bool = False

    @property
    def num_classes(self) -> int:
        return self.weights.shape[1] - (1 if self.ood_logit_present else 0)


@dataclass
class TrainStats:
    """Everything inference needs about a task's training activations."""

    class_means: np.ndarray  # (C, hidden)
    covariance_inv: np.ndarray  # (hidden, hidden), of the ridge-regularized covariance
    mean_activations: np.ndarray  # (hidden,)
    react_threshold: float


# Inference state derived from a head or its statistics is kept on that
# object as a plain attribute, not a dataclass field, so that ==, repr,
# dataclasses.replace and the model file never see it and it is freed
# with the model.

def _whitening(stats: TrainStats) -> tuple[np.ndarray, np.ndarray]:
    """Factor F with F F^T = covariance_inv, and the class means times F.

    F is the Cholesky factor of the symmetric part of ``covariance_inv``,
    so (z - mu) covariance_inv (z - mu)^T = ||z F - mu F||^2. Built on
    first use and kept while ``stats`` holds the same two arrays; nothing
    in the package writes them in place.
    """
    cached = getattr(stats, "_whitened", None)
    if (cached is not None and cached[0] is stats.covariance_inv
            and cached[1] is stats.class_means):
        return cached[2], cached[3]
    inv = stats.covariance_inv
    try:
        factor = np.linalg.cholesky((inv + inv.T) / 2.0)
    except np.linalg.LinAlgError:
        raise ModelError("inverse covariance is not positive definite") from None
    whitened_means = stats.class_means @ factor
    stats._whitened = (inv, stats.class_means, factor, whitened_means)
    return factor, whitened_means


def _same_values(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape and equal bits (so -0.0 differs from 0.0 and NaN equals NaN)."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _dice_weights(head: TaskHead, stats: TrainStats, p: float) -> np.ndarray:
    """Head weights times the DICE keep-mask at percentile ``p``.

    Built once per percentile and rebuilt once the head weights or mean
    activations differ from those it was built from: ``back_update``
    rewrites head weights in place, so identity would not notice.
    """
    cached = getattr(head, "_dice", None)
    if (cached is None or not _same_values(cached[0], head.weights)
            or not _same_values(cached[1], stats.mean_activations)):
        cached = head._dice = (head.weights.copy(), stats.mean_activations.copy(), {})
    by_percentile = cached[2]
    if p not in by_percentile:
        mask = build_dice_mask(head.weights.T, stats.mean_activations, p)
        by_percentile[p] = head.weights * mask.T
    return by_percentile[p]


@dataclass
class ModelState:
    """Trunk, adapter bank, per-task heads, and per-task statistics."""

    trunk: TrunkParams
    adapters: AdapterBank
    heads: list[TaskHead] = field(default_factory=list)
    stats: list[TrainStats] = field(default_factory=list)
    classes_per_task: int | None = None

    @property
    def trained_tasks(self) -> int:
        return len(self.heads)

    @property
    def hidden_width(self) -> int:
        return self.adapters.weights.shape[1]


def new_model(dim_in: int, hp: Hyperparams, trunk_dim: int | None = None) -> ModelState:
    """Create an untrained model with a freshly initialized adapter.

    ``trunk_dim`` switches the trunk from identity to a frozen random
    projection of that width.
    """
    if dim_in < 1:
        raise ModelError(f"dim_in must be >= 1, got {dim_in}")
    if trunk_dim is None:
        trunk = TrunkParams(dim_in)
    else:
        if trunk_dim < 1:
            raise ModelError(f"trunk_dim must be >= 1, got {trunk_dim}")
        proj_rng = substream(hp.seed, "init:trunk")
        projection = proj_rng.standard_normal((dim_in, trunk_dim)) / math.sqrt(dim_in)
        trunk = TrunkParams(dim_in, projection)
    init_rng = substream(hp.seed, "init:adapter")
    weights = init_rng.standard_normal((trunk.dim_out, hp.hidden_width))
    weights *= math.sqrt(2.0 / trunk.dim_out)
    bias = np.zeros(hp.hidden_width)
    return ModelState(trunk, AdapterBank(weights, bias, [], hp.slope_max))


def hat_mask(embedding: np.ndarray, slope: float) -> np.ndarray:
    """Elementwise sigmoid gate 1 / (1 + exp(-slope * e)), overflow-safe."""
    if not slope > 0:
        raise ModelError(f"slope must be positive, got {slope}")
    x = slope * np.asarray(embedding, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def hat_gradient_gate(grad: np.ndarray, prev_masks) -> np.ndarray:
    """Scale gradient flow into hidden unit i by (1 - max of previous masks).

    ``grad`` may be any tensor whose last axis runs over the adapter
    hidden units; with no previous tasks the gradient passes unchanged.
    """
    prev_masks = list(prev_masks)
    if not prev_masks:
        return grad
    strongest = np.max(np.stack(prev_masks), axis=0)
    return grad * (1.0 - strongest)


def _saturated_masks(model: ModelState, upto: int | None = None) -> list[np.ndarray]:
    upto = len(model.adapters.task_embeddings) if upto is None else upto
    s = model.adapters.slope_max
    return [hat_mask(e, s) for e in model.adapters.task_embeddings[:upto]]


def _shared_adapter(model: ModelState, x: np.ndarray) -> np.ndarray:
    """Ungated ReLU adapter output over a batch; every task gates this one array."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.trunk.dim_in:
        raise ModelError(
            f"input dimension mismatch: expected (n, {model.trunk.dim_in}), "
            f"got {x.shape}"
        )
    pre = model.trunk.apply(x) @ model.adapters.weights + model.adapters.bias
    return np.maximum(pre, 0.0)


def activations(model: ModelState, task: int, x: np.ndarray) -> np.ndarray:
    """Gated adapter activations for one task over a batch of inputs."""
    relu = _shared_adapter(model, x)
    n_embeddings = len(model.adapters.task_embeddings)
    if not 0 <= task < n_embeddings:
        raise ModelError(f"unknown task {task}; model has {n_embeddings} task(s)")
    return relu * hat_mask(model.adapters.task_embeddings[task], model.adapters.slope_max)


def forward_features(model: ModelState, task: int, x: np.ndarray) -> np.ndarray:
    """Gated adapter activations z_t for a single input vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ModelError(f"expected a single input vector, got shape {x.shape}")
    return activations(model, task, x[None, :])[0]


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def loss_and_grads(inputs, labels, adapter_w, adapter_b, embedding,
                   head_w, head_b, slope):
    """Mean cross-entropy of one batch and its analytic gradients.

    ``inputs`` are trunk outputs of shape (n, dim_trunk); the returned
    dict holds raw gradients before any protective gating. A diverging
    batch gives a non-finite loss, which the training loop turns into a
    ModelError, so numpy's floating-point warnings are silenced here.
    """
    n = len(inputs)
    pre = inputs @ adapter_w + adapter_b
    relu = np.maximum(pre, 0.0)
    mask = hat_mask(embedding, slope)
    z = relu * mask
    logits = z @ head_w + head_b

    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    probs = exps / exps.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(probs[np.arange(n), labels])))

    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n

    dz = dlogits @ head_w.T
    grads = {
        "head_weights": z.T @ dlogits,
        "head_bias": dlogits.sum(axis=0),
        "embedding": (dz * relu).sum(axis=0) * mask * (1.0 - mask) * slope,
    }
    dpre = dz * mask * (pre > 0)
    grads["adapter_weights"] = inputs.T @ dpre
    grads["adapter_bias"] = dpre.sum(axis=0)
    return loss, grads


def _annealed_slope(batch: int, num_batches: int, slope_max: float) -> float:
    if num_batches <= 1:
        return slope_max
    lo = 1.0 / slope_max
    return lo + (slope_max - lo) * batch / (num_batches - 1)


def _embedding_compensation(embedding: np.ndarray, slope: float,
                            slope_max: float) -> np.ndarray:
    """Undo the annealed sigmoid's saturation in the embedding update.

    Multiplying the raw gradient by (slope_max / slope) *
    (cosh(slope * e) + 1) / (cosh(e) + 1) gives updates of slope
    -independent magnitude, so embeddings reach the gate's saturation
    rails instead of stalling where the sigmoid derivative vanishes.
    """
    num = np.cosh(np.clip(slope * embedding, -50.0, 50.0)) + 1.0
    den = np.cosh(np.clip(embedding, -50.0, 50.0)) + 1.0
    return (slope_max / slope) * num / den


def _fit_new_head(model, inputs, labels, n_logits, hp, task, epoch_hook):
    """Run the SGD loop for a fresh head and return (head_w, head_b, embedding)."""
    init_rng = substream(hp.seed, f"init:task{task}")
    embedding = init_rng.uniform(-EMBEDDING_INIT_RANGE, EMBEDDING_INIT_RANGE,
                                 model.hidden_width)
    head_w = init_rng.normal(0.0, HEAD_INIT_STD, (model.hidden_width, n_logits))
    head_b = np.zeros(n_logits)

    prev_masks = _saturated_masks(model)
    batch_rng = substream(hp.seed, f"batch:task{task}")
    adapter = model.adapters
    n = len(inputs)
    lr = hp.learning_rate

    for epoch in range(1, hp.epochs + 1):
        started = time.perf_counter()
        order = batch_rng.permutation(n)
        num_batches = math.ceil(n / hp.batch_size)
        loss_sum = 0.0
        for b in range(num_batches):
            idx = order[b * hp.batch_size : (b + 1) * hp.batch_size]
            slope = _annealed_slope(b, num_batches, hp.slope_max)
            loss, grads = loss_and_grads(inputs[idx], labels[idx], adapter.weights,
                                         adapter.bias, embedding, head_w, head_b, slope)
            if not math.isfinite(loss):
                raise ModelError(
                    f"non-finite loss at task {task}, epoch {epoch}, batch {b + 1}"
                )
            loss_sum += loss * len(idx)
            adapter.weights -= lr * hat_gradient_gate(grads["adapter_weights"], prev_masks)
            adapter.bias -= lr * hat_gradient_gate(grads["adapter_bias"], prev_masks)
            compensation = _embedding_compensation(embedding, slope, hp.slope_max)
            embedding -= lr * grads["embedding"] * compensation
            np.clip(embedding, -EMBEDDING_CLAMP, EMBEDDING_CLAMP, out=embedding)
            head_w -= lr * grads["head_weights"]
            head_b -= lr * grads["head_bias"]
        if epoch_hook is not None:
            mask = hat_mask(embedding, hp.slope_max)
            z = np.maximum(inputs @ adapter.weights + adapter.bias, 0.0) * mask
            predictions = (z @ head_w + head_b).argmax(axis=1)
            epoch_hook(task=task, epoch=epoch, loss=loss_sum / n,
                       accuracy=float(np.mean(predictions == labels)),
                       seconds=time.perf_counter() - started)
    return head_w, head_b, embedding


def _check_task_data(model: ModelState, task_data: Dataset) -> int:
    if task_data.dim != model.trunk.dim_in:
        raise ModelError(
            f"task data dim {task_data.dim} does not match model input "
            f"dim {model.trunk.dim_in}"
        )
    n_classes = task_data.num_classes
    if model.classes_per_task is None:
        model.classes_per_task = n_classes
    elif n_classes != model.classes_per_task:
        raise ModelError(
            f"task has {n_classes} classes; model expects "
            f"{model.classes_per_task} per task"
        )
    return n_classes


def train_task(model: ModelState, task_data: Dataset, hp: Hyperparams, *,
               react_percentile: float = DEFAULT_REACT_PERCENTILE,
               epoch_hook=None) -> ModelState:
    """Train one new head on its task data alone (buffer-free path).

    ``task_data`` labels must already be remapped to [0, C). Appends one
    head, one gating embedding, and the task's train statistics; earlier
    heads and embeddings are untouched.
    """
    n_classes = _check_task_data(model, task_data)
    task = model.trained_tasks
    inputs = model.trunk.apply(task_data.features)
    head_w, head_b, embedding = _fit_new_head(
        model, inputs, task_data.labels, n_classes, hp, task, epoch_hook
    )
    model.adapters.task_embeddings.append(embedding)
    model.heads.append(TaskHead(head_w, head_b, ood_logit_present=False))
    model.stats.append(compute_train_stats(model, task_data, task=task,
                                           ridge_coefficient=hp.covariance_ridge,
                                           react_percentile=react_percentile))
    return model


def train_task_replay(model: ModelState, task_data: Dataset, buffer: "Buffer",
                      hp: Hyperparams, *,
                      react_percentile: float = DEFAULT_REACT_PERCENTILE,
                      epoch_hook=None) -> ModelState:
    """Replay-baseline forward step: task samples keep their class labels,
    buffered samples train an extra OOD logit appended to the head."""
    n_classes = _check_task_data(model, task_data)
    task = model.trained_tasks
    inputs = model.trunk.apply(task_data.features)
    labels = task_data.labels
    if len(buffer):
        inputs = np.concatenate([inputs, model.trunk.apply(buffer.features)])
        labels = np.concatenate([labels, np.full(len(buffer), n_classes, dtype=np.int64)])
    head_w, head_b, embedding = _fit_new_head(
        model, inputs, labels, n_classes + 1, hp, task, epoch_hook
    )
    model.adapters.task_embeddings.append(embedding)
    model.heads.append(TaskHead(head_w, head_b, ood_logit_present=True))
    model.stats.append(compute_train_stats(model, task_data, task=task,
                                           ridge_coefficient=hp.covariance_ridge,
                                           react_percentile=react_percentile))
    return model


def compute_train_stats(model: ModelState, task_data: Dataset, *,
                        task: int | None = None,
                        ridge_coefficient: float = 1e-4,
                        react_percentile: float = DEFAULT_REACT_PERCENTILE) -> TrainStats:
    """Class means, inverse tied covariance, mean activations, and clip threshold.

    The tied covariance is the within-class scatter averaged over all
    task samples plus a ridge scaled to the mean unit variance (the raw
    coefficient when the scatter is exactly zero). The clip threshold is
    the nearest-rank percentile of all pooled scalar activations.
    """
    task = model.trained_tasks - 1 if task is None else task
    if not 0 <= task < model.trained_tasks:
        raise ModelError(f"head for task {task} is not trained")
    z = activations(model, task, task_data.features)
    n_classes = task_data.num_classes
    hidden = z.shape[1]

    means = np.empty((n_classes, hidden))
    scatter = np.zeros((hidden, hidden))
    for c in range(n_classes):
        zc = z[task_data.labels == c]
        if len(zc) == 0:
            raise ModelError(f"class {c} has no training samples")
        means[c] = zc.mean(axis=0)
        centered = zc - means[c]
        scatter += centered.T @ centered
    tied = scatter / len(z)

    trace = float(np.trace(tied))
    ridge = ridge_coefficient * trace / hidden if trace > 0 else ridge_coefficient
    covariance = tied + ridge * np.eye(hidden)
    try:
        np.linalg.cholesky(covariance)
        covariance_inv = np.linalg.inv(covariance)
    except np.linalg.LinAlgError:
        raise ModelError(
            f"singular covariance after ridge {ridge:g} for task {task}"
        ) from None

    return TrainStats(
        class_means=means,
        covariance_inv=covariance_inv,
        mean_activations=z.mean(axis=0),
        react_threshold=percentile(z.ravel(), react_percentile),
    )


@dataclass
class Buffer:
    """Class-balanced memory of past samples (replay baseline only)."""

    capacity: int
    features: np.ndarray  # (m, dim)
    labels: np.ndarray  # (m,) global class ids
    tasks: np.ndarray  # (m,) source task ids

    @classmethod
    def empty(cls, capacity: int, dim: int) -> "Buffer":
        if capacity < 1:
            raise ModelError(f"buffer capacity must be >= 1, got {capacity}")
        return cls(capacity, np.empty((0, dim)), np.empty(0, dtype=np.int64),
                   np.empty(0, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.labels)

    def class_counts(self) -> dict[int, int]:
        values, counts = np.unique(self.labels, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


def buffer_update(buffer: Buffer, task_data: Dataset, task_id: int, seed: int) -> Buffer:
    """Fold a finished task into the buffer, rebalancing across all seen classes.

    Each seen class retains capacity // n_seen samples (the remainder
    spread over the lowest class ids), drawn uniformly without
    replacement; deterministic given the seed. ``task_data`` must carry
    global labels.
    """
    pools: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for c, count in buffer.class_counts().items():
        idx = np.flatnonzero(buffer.labels == c)
        pools[c] = (buffer.features[idx], buffer.tasks[idx])
    for c in np.unique(task_data.labels):
        idx = task_data.class_indices(int(c))
        pools[int(c)] = (task_data.features[idx],
                         np.full(len(idx), task_id, dtype=np.int64))

    seen = sorted(pools)
    if buffer.capacity < len(seen):
        raise ModelError(
            f"buffer capacity {buffer.capacity} is below the number of seen "
            f"classes {len(seen)}"
        )
    base, remainder = divmod(buffer.capacity, len(seen))

    rng = substream(seed, f"buffer:task{task_id}")
    kept_feats, kept_labels, kept_tasks = [], [], []
    for rank, c in enumerate(seen):
        feats, task_ids = pools[c]
        quota = base + (1 if rank < remainder else 0)
        take = min(quota, len(feats))
        picked = np.sort(rng.choice(len(feats), size=take, replace=False))
        kept_feats.append(feats[picked])
        kept_labels.append(np.full(take, c, dtype=np.int64))
        kept_tasks.append(task_ids[picked])
    return Buffer(buffer.capacity, np.concatenate(kept_feats),
                  np.concatenate(kept_labels), np.concatenate(kept_tasks))


def back_update(model: ModelState, buffer: Buffer, hp: Hyperparams, *,
                epochs: int = DEFAULT_BACKUPDATE_EPOCHS) -> ModelState:
    """Fine-tune every earlier head on buffered samples (full replay baseline).

    For head j, buffered task-j samples keep their class labels and all
    other buffered samples carry the OOD label; only the head's weights
    move, the adapter and embeddings stay untouched. A single trained
    task is a no-op.
    """
    if model.trained_tasks < 2:
        return model
    if len(buffer) == 0:
        raise ModelError("back-update needs a non-empty buffer")
    if model.classes_per_task is None:
        raise ModelError("model has no trained tasks")
    n_classes = model.classes_per_task
    lr = hp.learning_rate

    for j in range(model.trained_tasks - 1):
        head = model.heads[j]
        if not head.ood_logit_present:
            raise ModelError(f"head {j} has no OOD logit; back-update needs the replay path")
        z = activations(model, j, buffer.features)
        is_own = buffer.tasks == j
        labels = np.where(is_own, buffer.labels - j * n_classes, n_classes)

        rng = substream(hp.seed, f"backupdate:{model.trained_tasks}:head{j}")
        for _ in range(epochs):
            order = rng.permutation(len(z))
            for b in range(math.ceil(len(z) / hp.batch_size)):
                idx = order[b * hp.batch_size : (b + 1) * hp.batch_size]
                logits = z[idx] @ head.weights + head.bias
                shifted = logits - logits.max(axis=1, keepdims=True)
                exps = np.exp(shifted)
                probs = exps / exps.sum(axis=1, keepdims=True)
                dlogits = probs
                dlogits[np.arange(len(idx)), labels[idx]] -= 1.0
                dlogits /= len(idx)
                head.weights -= lr * (z[idx].T @ dlogits)
                head.bias -= lr * dlogits.sum(axis=0)
    return model


def train_stream(model: ModelState, stream, hp: Hyperparams, *,
                 replay: bool = False, backupdate: bool = False,
                 buffer_capacity: int = 200,
                 backupdate_epochs: int = DEFAULT_BACKUPDATE_EPOCHS,
                 react_percentile: float = DEFAULT_REACT_PERCENTILE,
                 epoch_hook=None) -> ModelState:
    """Train all tasks of a stream in order, buffer-free or with replay."""
    from .data import task_local  # local import keeps module load order simple

    if backupdate and not replay:
        raise ModelError("back-update requires the replay path")
    buffer = None
    if replay:
        first_train = stream.tasks[0][0]
        buffer = Buffer.empty(buffer_capacity, first_train.dim)

    for t, (train_ds, _test_ds) in enumerate(stream.tasks):
        local = task_local(train_ds, t, stream.classes_per_task)
        if replay:
            train_task_replay(model, local, buffer, hp,
                              react_percentile=react_percentile,
                              epoch_hook=epoch_hook)
            buffer = buffer_update(buffer, train_ds, t, hp.seed)
            if backupdate and model.trained_tasks >= 2:
                back_update(model, buffer, hp, epochs=backupdate_epochs)
        else:
            train_task(model, local, hp, react_percentile=react_percentile,
                       epoch_hook=epoch_hook)
    return model
