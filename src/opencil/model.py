"""The trainable multi-head system and its training procedures.

Architecture: a frozen trunk (identity or a fixed random projection), one
shared ReLU adapter layer whose hidden units are gated per task by
sigmoid attention masks a = sigmoid(slope * e), and one linear classifier
head per task. While training a task the gate slope anneals from
1/slope_max to slope_max within each epoch; at inference and for
gradient protection the saturated mask (slope = slope_max) is used.
Gradients into an adapter hidden unit are scaled by one minus the
strongest saturated mask any earlier task placed on that unit, so units
fully claimed by earlier tasks are exactly frozen; training skips their
gradient and update altogether.

Two training paths exist: the buffer-free path trains each head only on
its own task's data; the replay baseline adds a class-balanced memory
buffer, an extra OOD logit per head, and an optional second pass that
fine-tunes earlier heads against buffered samples.

Training is single-writer: the train functions change the passed model
and return it, replacing its arrays rather than writing into them. A task
or back-update that raises leaves the model as it was before that task or
back-update. Inference makes every model array it reads read-only (see
``opencil.pipeline``), so a model is safe to share for inference, and an
edit replaces an array instead of writing into it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, task_local
from .detectors import percentile
from .errors import ModelError, check_integer, check_percentile, check_positive, check_shape
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
    """Every training setting, checked once when made: the SGD loop's, the
    ReAct clip percentile fitted with each task's statistics, and the replay
    baseline's back-update epochs."""

    epochs: int = 20
    learning_rate: float = 0.005
    batch_size: int = 64
    hidden_width: int = 64
    seed: int = 0
    slope_max: float = 400.0
    covariance_ridge: float = 1e-4
    react_percentile: float = DEFAULT_REACT_PERCENTILE
    backupdate_epochs: int = DEFAULT_BACKUPDATE_EPOCHS

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size", "hidden_width", "backupdate_epochs"):
            check_integer(name, getattr(self, name), ModelError, 1)
        check_integer("seed", self.seed, ModelError, 0)
        for name in ("learning_rate", "slope_max", "covariance_ridge"):
            check_positive(name, getattr(self, name), ModelError)
        check_percentile("react_percentile", self.react_percentile, ModelError)


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
    slope_max: float = Hyperparams.slope_max


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
    whitening_factor: np.ndarray  # (hidden, hidden) lower F, F F^T = covariance^-1
    mean_activations: np.ndarray  # (hidden,)
    react_threshold: float


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


def _check_array(name: str, array, *shape) -> None:
    """Refuse an ``array`` that is not a numpy array of ``shape``."""
    if getattr(array, "shape", None) != shape:
        raise ModelError(f"{name} has shape {getattr(array, 'shape', None)}, expected {shape}")


def _check_model(model: ModelState) -> None:
    """Refuse a model that is not whole: one embedding, head and TrainStats per task,
    ``classes_per_task`` None exactly when no task is trained, every array of the shape
    the model's sizes give it, and every whitening factor lower-triangular."""
    tasks, classes, adapters = model.trained_tasks, model.classes_per_task, model.adapters
    if len(adapters.task_embeddings) != tasks or len(model.stats) != tasks:
        raise ModelError(f"model has {tasks} heads but {len(adapters.task_embeddings)} "
                         f"task embeddings and {len(model.stats)} train statistics")
    if (classes is None) != (tasks == 0):
        raise ModelError(f"classes_per_task {classes} does not fit {tasks} trained tasks")
    if tasks:
        check_integer("classes_per_task", classes, ModelError, 1)
    projection, weights = model.trunk.projection, adapters.weights
    # two axes, the last of any length: it sets the trunk's and the hidden width
    if projection is not None:
        _check_array("trunk projection", projection, model.trunk.dim_in,
                     *np.shape(projection)[-1:])
    _check_array("adapter weights", weights, model.trunk.dim_out, *np.shape(weights)[-1:])
    hidden = model.hidden_width
    _check_array("adapter bias", adapters.bias, hidden)
    for t, (embedding, head, stats) in enumerate(
            zip(adapters.task_embeddings, model.heads, model.stats)):
        logits = classes + (1 if head.ood_logit_present else 0)
        _check_array(f"embedding of task {t}", embedding, hidden)
        _check_array(f"head weights of task {t}", head.weights, hidden, logits)
        _check_array(f"head bias of task {t}", head.bias, logits)
        _check_array(f"class means of task {t}", stats.class_means, classes, hidden)
        _check_array(f"mean activations of task {t}", stats.mean_activations, hidden)
        factor = stats.whitening_factor
        if getattr(factor, "shape", None) != (hidden, hidden) or np.triu(factor, 1).any():
            raise ModelError(f"whitening factor of task {t} is not a lower-triangular "
                             f"{hidden} x {hidden} array")


def new_model(dim_in: int, hp: Hyperparams, trunk_dim: int | None = None) -> ModelState:
    """Create an untrained model with a freshly initialized adapter.

    ``trunk_dim`` switches the trunk from identity to a frozen random
    projection of that width. Shapes numpy cannot allocate are refused first.
    """
    check_integer("dim_in", dim_in, ModelError, 1)
    if trunk_dim is not None:
        check_integer("trunk_dim", trunk_dim, ModelError, 1)
        check_shape("trunk projection", (dim_in, trunk_dim), ModelError)
    check_shape("adapter weights", (trunk_dim or dim_in, hp.hidden_width), ModelError)
    if trunk_dim is None:
        trunk = TrunkParams(dim_in)
    else:
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
    check_positive("slope", slope, ModelError)
    x = slope * np.asarray(embedding, dtype=np.float64)
    # exp(-|x|) never overflows; minimum(x, -x) keeps a NaN's sign and payload
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _saturated_masks(model: ModelState) -> list[np.ndarray]:
    s = model.adapters.slope_max
    return [hat_mask(e, s) for e in model.adapters.task_embeddings]


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
    embeddings = model.adapters.task_embeddings
    if not embeddings:
        raise ModelError("model has no trained heads")
    check_integer("task", task, ModelError, 0, len(embeddings) - 1)
    mask = hat_mask(embeddings[task], model.adapters.slope_max)
    return _shared_adapter(model, x) * mask


def _softmax_in_place(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a 2-D float array, overwriting and returning it."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _adapter_relu(inputs, adapter_w, adapter_b):
    """ReLU(inputs @ adapter_w + adapter_b) and the ReLU's derivative."""
    relu = inputs @ adapter_w
    relu += adapter_b
    active = relu > 0  # taken before the ReLU clamps in place
    np.maximum(relu, 0.0, out=relu)
    return relu, active


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def loss_and_grads(inputs, labels, adapter_w, adapter_b, embedding,
                   head_w, head_b, slope, frozen_relu=None):
    """Mean cross-entropy of one batch and its analytic gradients.

    ``inputs`` are trunk outputs of shape (n, dim_trunk); the returned
    dict holds raw gradients before any protective gating. A diverging
    batch gives a non-finite loss, which the training loop turns into a
    ModelError, so numpy's floating-point warnings are silenced here.

    Split form: with ``frozen_relu`` of shape (n, f), ``adapter_w`` and
    ``adapter_b`` hold only the h - f learnable units, and the hidden
    layer is those units followed by the frozen units' fixed ReLU outputs.
    ``embedding`` and ``head_w`` run over all h units in that order; the
    adapter gradients cover the learnable units alone.
    """
    n = len(inputs)
    return _sgd_step(inputs, labels, adapter_w, adapter_b, embedding, head_w, head_b,
                     slope, np.empty((n, 0)) if frozen_relu is None else frozen_relu,
                     np.empty(n, dtype=np.intp))


def _sgd_step(inputs, labels, adapter_w, adapter_b, embedding, head_w, head_b, slope,
              frozen_relu, predictions):
    """:func:`loss_and_grads` with the HAT mask folded into the head.

    With m the mask, the gated layer z = relu diag(m) only ever meets the
    head, so the step multiplies the (h, C) head by m instead of the
    (n, h) activations: logits = relu W' + b with W' = diag(m) W, and
    with G = relu^T dlogits the head gradient is diag(m) G and the
    embedding gradient rowsum(W * G) m (1 - m) slope. The learnable
    units' pre-activation gradient is (dlogits W'^T) times the ReLU's
    derivative; the frozen units, possibly none, enter through their own
    products. The argmax of each row's logits is written into
    ``predictions``. Callers silence numpy's floating-point warnings.
    """
    n = len(inputs)
    rows = np.arange(n)
    learnable = adapter_w.shape[1]
    relu, active = _adapter_relu(inputs, adapter_w, adapter_b)
    mask = hat_mask(embedding, slope)
    folded = head_w * mask[:, None]
    logits = relu @ folded[:learnable]
    logits += frozen_relu @ folded[learnable:]
    logits += head_b
    logits.argmax(axis=1, out=predictions)

    probs = _softmax_in_place(logits)
    loss = -float(np.log(probs[rows, labels]).sum() / n)

    dlogits = probs  # softmax minus one-hot, over n, in place
    dlogits[rows, labels] -= 1.0
    dlogits /= n

    outer = np.empty_like(head_w)  # G = relu^T dlogits, learnable rows first
    np.matmul(relu.T, dlogits, out=outer[:learnable])
    np.matmul(frozen_relu.T, dlogits, out=outer[learnable:])
    embedding_grad = (head_w * outer).sum(axis=1) * mask * (1.0 - mask) * slope
    outer *= mask[:, None]  # G becomes the head gradient
    dpre = dlogits @ folded[:learnable].T
    dpre *= active
    return loss, {
        "head_weights": outer,
        "head_bias": dlogits.sum(axis=0),
        "embedding": embedding_grad,
        "adapter_weights": inputs.T @ dpre,
        "adapter_bias": dpre.sum(axis=0),
    }


def _annealed_slope(batch: int, num_batches: int, slope_max: float) -> float:
    if num_batches <= 1:
        return slope_max
    lo = 1.0 / slope_max
    return lo + (slope_max - lo) * batch / (num_batches - 1)


def _embedding_compensation(embedding: np.ndarray, slope: float,
                            slope_max: float) -> np.ndarray:
    """The factor (slope_max / slope) (cosh(slope e) + 1) / (cosh(e) + 1) on the
    raw embedding gradient, each cosh argument clamped to [-50, 50] as in HAT.

    Exactly, the gradient's m (1 - m) slope times it is slope_max / (2 (cosh e
    + 1)), free of the slope. In floating point it is not, once the gate
    saturates: at slope 400 that product is exactly 0 for e >= 0.1, where m
    rounds to 1, and 9.3e-12 at e = -0.2, where the clamp cuts cosh(slope e).
    """
    # minimum(maximum(.)) is np.clip without its wrapper calls
    num = np.cosh(np.minimum(np.maximum(slope * embedding, -50.0), 50.0)) + 1.0
    den = np.cosh(np.minimum(np.maximum(embedding, -50.0), 50.0)) + 1.0
    return (slope_max / slope) * num / den


def _descend(param: np.ndarray, grad: np.ndarray, *scales) -> None:
    """param -= grad * scales[0] * scales[1] ..., scaling the fresh ``grad`` in place.

    The factors apply left to right, so (grad * gate) * lr and
    (grad * lr) * c keep the bits of lr * (grad * gate) and lr * grad * c.
    """
    for scale in scales:
        grad *= scale
    param -= grad


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _fit_new_head(model, inputs, labels, n_logits, hp, task, epoch_hook):
    """Run the SGD loop for a fresh head without touching the model.

    Returns (learnable, weights, bias, head_w, head_b, embedding): the
    indices of the adapter units that trained, their learned adapter
    columns and bias, and the new head and gating embedding over all units.

    Units whose gate is exactly 0 are frozen: their ReLU outputs over the
    task's inputs are computed once, and each step's adapter product,
    gradient and update run over the other, learnable units alone. Within
    the task the learnable units come first, so every product runs on
    contiguous operands.

    With an ``epoch_hook``, each epoch reports its mean batch loss and the
    running training accuracy: every batch scored by its logits' argmax at
    that step's parameters, before the update.

    A diverging run raises ModelError, at its first non-finite batch loss or
    at the end of the task if a parameter is then non-finite, so numpy's
    floating-point warnings are silenced here.
    """
    init_rng = substream(hp.seed, f"init:task{task}")
    embedding = init_rng.uniform(-EMBEDDING_INIT_RANGE, EMBEDDING_INIT_RANGE,
                                 model.hidden_width)
    head_w = init_rng.normal(0.0, HEAD_INIT_STD, (model.hidden_width, n_logits))
    head_b = np.zeros(n_logits)

    # 1 - max of the earlier tasks' masks, the same for every batch of this task
    masks = _saturated_masks(model)
    gate = 1.0 - np.max(np.stack(masks), axis=0) if masks else np.ones(model.hidden_width)
    learnable = np.flatnonzero(gate)
    frozen = np.flatnonzero(gate == 0)
    units = np.concatenate((learnable, frozen))
    adapter = model.adapters
    # take keeps the copied columns C-ordered, as the gradients are
    weights, bias = adapter.weights.take(learnable, axis=1), adapter.bias[learnable]
    frozen_relu, _ = _adapter_relu(inputs, adapter.weights.take(frozen, axis=1),
                                   adapter.bias[frozen])
    gate = gate[learnable]
    embedding, head_w = embedding[units], head_w[units]
    batch_rng = substream(hp.seed, f"batch:task{task}")
    n = len(inputs)
    lr = hp.learning_rate
    num_batches = math.ceil(n / hp.batch_size)
    predictions = np.empty(n, dtype=np.intp)

    for epoch in range(1, hp.epochs + 1):
        started = time.perf_counter()
        order = batch_rng.permutation(n)
        epoch_inputs, epoch_labels = inputs[order], labels[order]
        epoch_frozen = frozen_relu[order]
        loss_sum = 0.0
        for b in range(num_batches):
            rows = slice(b * hp.batch_size, (b + 1) * hp.batch_size)
            batch_labels = epoch_labels[rows]
            slope = _annealed_slope(b, num_batches, hp.slope_max)
            loss, grads = _sgd_step(epoch_inputs[rows], batch_labels, weights, bias,
                                    embedding, head_w, head_b, slope, epoch_frozen[rows],
                                    predictions[rows])
            if not math.isfinite(loss):
                raise ModelError(
                    f"non-finite loss at task {task}, epoch {epoch}, batch {b + 1}"
                )
            loss_sum += loss * len(batch_labels)
            _descend(weights, grads["adapter_weights"], gate, lr)
            _descend(bias, grads["adapter_bias"], gate, lr)
            _descend(embedding, grads["embedding"], lr,
                     _embedding_compensation(embedding, slope, hp.slope_max))
            np.clip(embedding, -EMBEDDING_CLAMP, EMBEDDING_CLAMP, out=embedding)
            _descend(head_w, grads["head_weights"], lr)
            _descend(head_b, grads["head_bias"], lr)
        if epoch_hook is not None:
            hits = np.count_nonzero(predictions == epoch_labels)
            epoch_hook(task=task, epoch=epoch, loss=loss_sum / n, accuracy=hits / n,
                       seconds=time.perf_counter() - started)
    # the batch losses check every step but the last
    if not all(np.isfinite(a).all() for a in (weights, bias, embedding, head_w, head_b)):
        raise ModelError(f"non-finite parameters at the end of task {task}")
    restore = np.argsort(units)
    return learnable, weights, bias, head_w[restore], head_b, embedding[restore]


def _check_task(model: ModelState, task_data: Dataset, hp: Hyperparams) -> int:
    """The task's class count, once the model is whole and agrees with its data and ``hp``."""
    _check_model(model)
    if (hp.hidden_width, hp.slope_max) != (model.hidden_width, model.adapters.slope_max):
        raise ModelError(f"Hyperparams hidden_width {hp.hidden_width} and slope_max "
                         f"{hp.slope_max} do not match the model's {model.hidden_width} "
                         f"and {model.adapters.slope_max}")
    if task_data.dim != model.trunk.dim_in:
        raise ModelError(
            f"task data dim {task_data.dim} does not match model input "
            f"dim {model.trunk.dim_in}"
        )
    n_classes = task_data.num_classes
    if model.classes_per_task not in (None, n_classes):
        raise ModelError(
            f"task has {n_classes} classes; model expects "
            f"{model.classes_per_task} per task"
        )
    return n_classes


def train_task(model: ModelState, task_data: Dataset, hp: Hyperparams, *,
               epoch_hook=None) -> ModelState:
    """Train one new head on its task data alone (buffer-free path).

    ``task_data`` labels must already be remapped to [0, C). Appends one
    head, one gating embedding, and the task's train statistics; earlier
    heads and embeddings are untouched. A task that raises leaves the
    model as it was.
    """
    n_classes = _check_task(model, task_data, hp)
    inputs = model.trunk.apply(task_data.features)
    return _add_task(model, task_data, inputs, task_data.labels, n_classes, hp,
                     epoch_hook, ood_logit_present=False)


def train_task_replay(model: ModelState, task_data: Dataset, buffer: "Buffer",
                      hp: Hyperparams, *, epoch_hook=None) -> ModelState:
    """Replay-baseline forward step: task samples keep their class labels,
    buffered samples train an extra OOD logit appended to the head. A task
    that raises leaves the model as it was."""
    n_classes = _check_task(model, task_data, hp)
    inputs = model.trunk.apply(task_data.features)
    labels = task_data.labels
    if len(buffer):
        inputs = np.concatenate([inputs, model.trunk.apply(buffer.features)])
        labels = np.concatenate([labels, np.full(len(buffer), n_classes, dtype=np.int64)])
    return _add_task(model, task_data, inputs, labels, n_classes + 1, hp,
                     epoch_hook, ood_logit_present=True)


def _add_task(model, task_data, inputs, labels, n_logits, hp, epoch_hook,
              ood_logit_present):
    """Fit the next task's head and statistics, then commit them whole.

    The statistics come from a candidate model: the adapter with the
    learned columns written into a copy, and the new embedding and head
    appended to copies of the lists. Only once they exist is the model
    itself changed, by assignments and appends that cannot raise.
    """
    task = model.trained_tasks
    learnable, weights, bias, head_w, head_b, embedding = _fit_new_head(
        model, inputs, labels, n_logits, hp, task, epoch_hook
    )
    adapter = model.adapters
    adapter_w, adapter_b = adapter.weights.copy(), adapter.bias.copy()
    adapter_w[:, learnable] = weights
    adapter_b[learnable] = bias
    head = TaskHead(head_w, head_b, ood_logit_present=ood_logit_present)
    candidate = ModelState(
        model.trunk,
        AdapterBank(adapter_w, adapter_b, [*adapter.task_embeddings, embedding],
                    adapter.slope_max),
        [*model.heads, head])
    stats = compute_train_stats(candidate, task_data, task=task,
                                ridge_coefficient=hp.covariance_ridge,
                                react_percentile=hp.react_percentile)
    adapter.weights, adapter.bias = adapter_w, adapter_b
    adapter.task_embeddings.append(embedding)
    model.heads.append(head)
    model.stats.append(stats)
    model.classes_per_task = task_data.num_classes
    return model


@np.errstate(over="ignore", invalid="ignore")
def compute_train_stats(model: ModelState, task_data: Dataset, *,
                        task: int | None = None,
                        ridge_coefficient: float = Hyperparams.covariance_ridge,
                        react_percentile: float = DEFAULT_REACT_PERCENTILE) -> TrainStats:
    """Class means, whitening factor, mean activations, and clip threshold.

    The tied covariance is the within-class scatter averaged over all
    task samples plus a ridge scaled to the mean unit variance (the raw
    coefficient when the scatter is exactly zero). The whitening factor is
    the lower Cholesky factor of its inverse, the only form inference
    reads; it comes from one Cholesky factorisation of the covariance
    itself, with no explicit inverse. The clip threshold is the
    nearest-rank percentile of all pooled scalar activations. Non-finite
    activations or covariance, as a diverged run gives, raise ModelError.
    """
    task = model.trained_tasks - 1 if task is None else task
    z = activations(model, task, task_data.features)  # checks the task id
    if not np.isfinite(z).all():
        raise ModelError(f"non-finite activations for task {task}")
    labels = task_data.labels
    n_classes = task_data.num_classes
    hidden = z.shape[1]

    means = np.empty((n_classes, hidden))
    for c in range(n_classes):
        zc = z[labels == c]
        if len(zc) == 0:
            raise ModelError(f"class {c} has no training samples")
        means[c] = zc.mean(axis=0)
    mean_activations = z.mean(axis=0)
    react_threshold = percentile(z.ravel(), react_percentile)
    z -= means[labels]  # centred in place: z is not read again
    covariance = z.T @ z
    covariance /= len(z)

    trace = float(np.trace(covariance))
    ridge = ridge_coefficient * trace / hidden if trace > 0 else ridge_coefficient
    covariance[np.diag_indices(hidden)] += ridge
    if not np.isfinite(covariance).all():
        raise ModelError(f"non-finite covariance for task {task}")
    try:
        factor = _covariance_whitening_factor(covariance)
    except np.linalg.LinAlgError:
        raise ModelError(
            f"singular covariance after ridge {ridge:g} for task {task}"
        ) from None

    return TrainStats(
        class_means=means,
        whitening_factor=factor,
        mean_activations=mean_activations,
        react_threshold=react_threshold,
    )


def _covariance_whitening_factor(covariance: np.ndarray) -> np.ndarray:
    """Lower F with F F^T = covariance^-1, from one Cholesky factorisation.

    With P the reversal permutation and P covariance P = L L^T, the
    inverse is P L^-T L^-1 P = F F^T for F = P L^-T P, which is lower
    triangular. Raises np.linalg.LinAlgError if the covariance does not
    factor.
    """
    lower = np.linalg.cholesky(covariance[::-1, ::-1])
    return np.ascontiguousarray(_lower_inverse(lower).T[::-1, ::-1])


def _lower_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix, exactly zero above its diagonal.

    [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]], recursively;
    blocks of at most 64 rows go through np.linalg.inv, whose result
    holds rounding noise above the diagonal that np.tril clears (a whole
    model has no entry there).
    """
    n = len(lower)
    if n <= 64:
        return np.tril(np.linalg.inv(lower))
    k = n // 2
    head = _lower_inverse(lower[:k, :k])
    tail = _lower_inverse(lower[k:, k:])
    inverse = np.zeros_like(lower)
    inverse[:k, :k] = head
    inverse[k:, k:] = tail
    inverse[k:, :k] = -(tail @ lower[k:, :k] @ head)
    return inverse


@dataclass
class Buffer:
    """Class-balanced memory of past samples (replay baseline only)."""

    capacity: int
    features: np.ndarray  # (m, dim)
    labels: np.ndarray  # (m,) global class ids
    tasks: np.ndarray  # (m,) source task ids

    def __post_init__(self) -> None:
        check_integer("buffer capacity", self.capacity, ModelError, 1)

    @classmethod
    def empty(cls, capacity: int, dim: int) -> "Buffer":
        check_integer("buffer dim", dim, ModelError, 1)
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
    check_integer("task_id", task_id, ModelError, 0)
    check_integer("seed", seed, ModelError, 0)
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


@np.errstate(over="ignore", invalid="ignore")
def back_update(model: ModelState, buffer: Buffer, hp: Hyperparams) -> ModelState:
    """Fine-tune every earlier head on buffered samples (full replay baseline).

    For head j, buffered task-j samples keep their class labels and all
    other buffered samples carry the OOD label; only the head's weights
    move, for ``hp.backupdate_epochs`` epochs; the adapter and embeddings
    stay untouched. A single trained task is a no-op. Every head is fitted
    on a copy and the copies replace the heads only once all are finite: a
    head that ends with a non-finite value raises ModelError and leaves
    every head as it was.
    """
    _check_model(model)
    if model.trained_tasks < 2:
        return model
    if len(buffer) == 0:
        raise ModelError("back-update needs a non-empty buffer")
    n_classes = model.classes_per_task
    lr = hp.learning_rate
    earlier = model.heads[:-1]
    for j, head in enumerate(earlier):
        if not head.ood_logit_present:
            raise ModelError(f"head {j} has no OOD logit; back-update needs the replay path")

    fitted = []
    for j, head in enumerate(earlier):
        weights, bias = head.weights.copy(), head.bias.copy()
        z = activations(model, j, buffer.features)
        is_own = buffer.tasks == j
        labels = np.where(is_own, buffer.labels - j * n_classes, n_classes)

        rng = substream(hp.seed, f"backupdate:{model.trained_tasks}:head{j}")
        for _ in range(hp.backupdate_epochs):
            order = rng.permutation(len(z))
            epoch_z, epoch_labels = z[order], labels[order]
            for b in range(math.ceil(len(z) / hp.batch_size)):
                rows = slice(b * hp.batch_size, (b + 1) * hp.batch_size)
                batch_z = epoch_z[rows]
                dlogits = batch_z @ weights
                dlogits += bias
                _softmax_in_place(dlogits)
                dlogits[np.arange(len(batch_z)), epoch_labels[rows]] -= 1.0
                dlogits /= len(batch_z)
                _descend(weights, batch_z.T @ dlogits, lr)
                _descend(bias, dlogits.sum(axis=0), lr)
        if not (np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise ModelError(f"non-finite head {j} after back-update")
        fitted.append((weights, bias))
    for head, (weights, bias) in zip(earlier, fitted):
        head.weights, head.bias = weights, bias
    return model


def train_stream(model: ModelState, stream, hp: Hyperparams, *,
                 replay: bool = False, backupdate: bool = False,
                 buffer_capacity: int = 200, epoch_hook=None) -> ModelState:
    """Train all tasks of a stream in order, buffer-free or with replay.

    Every setting is checked before the first task trains.
    """
    if backupdate and not replay:
        raise ModelError("back-update requires the replay path")
    buffer = Buffer.empty(buffer_capacity, stream.tasks[0][0].dim) if replay else None

    for t, (train_ds, _test_ds) in enumerate(stream.tasks):
        local = task_local(train_ds, t, stream.classes_per_task)
        if replay:
            train_task_replay(model, local, buffer, hp, epoch_hook=epoch_hook)
            buffer = buffer_update(buffer, train_ds, t, hp.seed)
            if backupdate and model.trained_tasks >= 2:
                back_update(model, buffer, hp)
        else:
            train_task(model, local, hp, epoch_hook=epoch_hook)
    return model
