"""Inference orchestration over a trained model.

Per head, an input is mapped to gated activations, rectified by the
chosen detector, and reduced to a scalar in-distribution score; the
head with the highest score wins the task-id, and the class inside the
winning task comes from the head's original (unrectified) logits, which
makes within-task accuracy identical across detectors. Replay heads
carry an extra OOD logit that is excluded from both scoring and class
prediction, so scores stay comparable across the buffer-free and replay
paths. The detector and scorer formulas are computed here and nowhere
else, batched over rows and heads.

Closed-world evaluation at step k restricts inference to the first k
heads over the test sets of tasks 1..k; open-world evaluation scores
every test sample and splits them into seen (tasks 1..k) and unseen
(later tasks) populations. At every step the task-id is the head with the
highest score, ties to the lower head (``_routed``), and its score is the
system score.

Every entry point reads one pass (``_pass``) of a batch through every
head of the model's inference plan (``_Plan``) and cuts it to the heads
it asks for (``upto``). The plan folds each head's saturated mask m_t into
the arrays that read the gated activations z_t = relu * m_t:

- the class columns of every head as diag(m_t) W_t, side by side in one
  (h, T*C) array, so one product gives the raw logits of every head;
- per DICE percentile, diag(m_t) (W_t * keep-mask_t), stacked the same way;
- for the md scorers, diag(m_t) F_t, F_t the task's stored
  ``whitening_factor``, and the whitened class means mu_c F_t. Since
  (z - mu) F F^T (z - mu)^T = ||z F - mu F||^2 for the inverse covariance
  F F^T, d_min = min_c ||w||^2 - 2 w.mu_c F + ||mu_c F||^2 for
  w = relu (diag(m_t) F_t), with no loop over classes. F_t is
  lower-triangular, so the columns are cut into blocks of about
  ``_MD_BLOCK`` units and block [a, b) keeps only rows a..h-1, every head
  side by side as (h - a, T*(b - a)): at hidden 512, 62.5 % of the full
  (h, T*h). This part is built only when an md scorer is asked for.

ReAct clips and SCALE rescales z_t itself, so they form z_t per head; SCALE
then reuses the folded product, since (s z_t) W_t = s (z_t W_t). Rows are
processed in chunks, so that no (n, T*h) array over a whole test set is
built. Within a chunk each detector's logits are reduced once per base
score: sm and smmd share the softmax maximum, en and enmd at one temperature
the energy, and log of the md coefficient is taken once for every enmd.

A pass always scores all T heads. The logits come from the one product
over all of them; the whitened activations, the costly product, from one
product per md block over all T heads, for one row as for many, each
adding its columns' share to ||w||^2 and w.mu_c. A non-finite score is an
error only among the columns a call returns.

The plan is built on first use and kept on the model as a plain attribute,
which no dataclass field, ``==``, ``dataclasses.replace`` or the model file
sees. Building it first checks the model contract (``model._check_model``),
so every entry point refuses a model that is not whole. One rule
(``_unchanged``) keeps it and its memo slot: cached work is reused only
while every array it was computed from is the same object and still
read-only, and the cache makes those arrays read-only when it stores them.
So a write into an array that inference has read raises
``ValueError``, and an array replaced by another is seen. ``copy.deepcopy``
and pickling give writable arrays, so a copy builds its own plan (pickle
protocol 5 gives read-only arrays, which the plan copied with them still
matches). A write through another writable view of the same memory is not
seen. The plan's scalars are compared as bytes. Apart from the plan and those
flags nothing here writes to the model; per-sample work items are independent
and safe to parallelize.

Per-step loops over one test set (a curve over steps 1..T, open-world
metrics or closed-world accuracy after each step) ask for the same pass
again and again, and a sweep over detector-scorer pairs has made it
already. So the plan keeps one memo slot (``_columns``): the classes and
scores of every head over a stream's stacked test sets under every pair of
a tuple of detectors and a tuple of scorers, with their labels and true
tasks. It is keyed on the test sets' ``features`` and ``labels``, read-only
in every ``Dataset``, and on those tuples; a new plan starts with it empty.
A call hits when the test sets are unchanged and every pair it asks for is
in the slot's product of detectors x scorers; a miss makes one pass for the
pairs asked and replaces the slot. ``run_sweep`` asks for its D x S pairs,
and ``score_table``, ``evaluate_closed``, ``evaluate_open`` and
``mixed_scores`` for one, each over the whole stacked test set, so after a
sweep none of them scores a head of a pair it swept, and their scores of
one row agree to the bit: a pair's scores do not depend on which other
pairs share its pass. The slot retains the (D, S, n, T) scores, the (n, T)
classes, the labels and tasks, all read-only, and callers get copies or
values derived from them. ``predict`` scores one row and keeps no slot.

``run_sweep`` reads every step of a pair from the slot: step k routes heads
0..k-1 like ``evaluate_closed``, and while unseen tasks remain
``metrics.separation`` gives its ROC and precision-recall areas from one
sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
from .detectors import Detector, _nearest_rank_index, build_dice_mask
from .errors import ModelError, check_integer
from .model import ModelState, _check_model, _saturated_masks, _shared_adapter
from .scorers import Scorer

__all__ = [
    "Prediction",
    "ScoreTable",
    "ClosedWorldResult",
    "predict",
    "score_table",
    "evaluate_closed",
    "evaluate_open",
    "mixed_scores",
    "run_sweep",
]


@dataclass(frozen=True)
class Prediction:
    """Task id, global class id, and the winning head's score."""

    predicted_task: int
    predicted_class: int
    ind_score: float


@dataclass(frozen=True)
class ScoreTable:
    """Per-sample, per-head scores for one detector-scorer pair."""

    scores: np.ndarray  # (n, trained_tasks)
    labels: np.ndarray  # (n,) global class ids
    tasks: np.ndarray  # (n,) true task ids
    detector: str
    scorer: str


@dataclass(frozen=True)
class ClosedWorldResult:
    """Step accuracy over all seen classes plus per-task accuracies."""

    accuracy: float
    per_task: tuple[float, ...]


def _as_detector(detector) -> Detector:
    return detector if isinstance(detector, Detector) else Detector(str(detector))


def _as_scorer(scorer) -> Scorer:
    return scorer if isinstance(scorer, Scorer) else Scorer(str(scorer))


# Rows per chunk: enough for an efficient product, few enough that no array
# over a whole test set times T heads is built.
_CHUNK_ROWS = 128


# Units per column block of the folded whitening factors: wide enough for an
# efficient product, narrow enough that the zeros above each block are skipped.
_MD_BLOCK = 128


def _unchanged(held, current) -> bool:
    """Whether cached work computed from the arrays ``held`` may be reused for
    ``current``: the same arrays, one for one, every one still read-only."""
    return len(held) == len(current) and all(
        a is b and not a.flags.writeable for a, b in zip(held, current))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _fold(masks: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """diag(m_t) W_t of every head, side by side: (T, h, k) -> (h, T k)."""
    return (masks[:, :, None] * weights).transpose(1, 0, 2).reshape(masks.shape[1], -1)


class _Plan:
    """A model's heads with their saturated masks folded in, built once.

    z_t = relu * m_t, so z_t W_t = relu (diag(m_t) W_t): the logits of every
    head come from one product with ``folded``. Only class columns are kept;
    a replay head's OOD logit is never scored. The DICE weights and the
    Mahalanobis arrays are added on first use.
    """

    def __init__(self, model: ModelState, arrays, scalars):
        classes = model.classes_per_task
        self.masks = np.stack(_saturated_masks(model))  # (T, h)
        self.weights = np.stack([h.weights[:, :classes] for h in model.heads])  # (T, h, C)
        self.bias = np.stack([h.bias[:classes] for h in model.heads])  # (T, C)
        self.folded = _fold(self.masks, self.weights)  # (h, T C)
        self.thresholds = np.array([s.react_threshold for s in model.stats])
        self.mean_activations = np.stack([s.mean_activations for s in model.stats])
        self._dice: dict[float, np.ndarray] = {}
        self._md = None
        self.columns = None  # the memo slot; see ``_columns``
        self.arrays, self.scalars = tuple(_frozen(a) for a in arrays), scalars

    def dice(self, p: float) -> np.ndarray:
        """diag(m_t) (W_t * DICE keep-mask at percentile p), folded like ``folded``."""
        if p not in self._dice:
            masked = np.stack([w * build_dice_mask(w.T, a, p).T
                               for w, a in zip(self.weights, self.mean_activations)])
            self._dice[p] = _fold(self.masks, masked)
        return self._dice[p]

    def mahalanobis(self, stats):
        """(blocks, centers, means, norms) of the whitened class distances.

        With F_t the task's ``whitening_factor``, the squared Mahalanobis
        distance of z_t to class mean mu_c is ||w - mu_c F_t||^2 for
        w = relu (diag(m_t) F_t). F_t is lower-triangular, so columns a..b-1
        of diag(m_t) F_t are zero above row a. The columns are cut into
        h // ``_MD_BLOCK`` blocks [a, b), at least one, of near-equal width,
        and ``blocks`` holds one (a, b, block) per block: rows a..h-1 of its
        columns, every head side by side, (h - a, T (b - a)), each a view of
        one buffer. The whitened means are kept relative to their mean per head
        (``centers``), as (T, h, C) with squared norms (T, C), so that
        ||w||^2 - 2 w.mu + ||mu||^2 cancels little. Built on first use.
        """
        if self._md is None:
            tasks, hidden = self.masks.shape
            count = max(1, hidden // _MD_BLOCK)
            bounds = [hidden * i // count for i in range(count + 1)]
            spans = list(zip(bounds[:-1], bounds[1:]))
            # one allocation, like the full square it replaces: with one per block,
            # training and saving after a rebuild measured a little slower
            buffer = np.empty(tasks * sum((hidden - a) * (b - a) for a, b in spans))
            blocks, at = [], 0
            for a, b in spans:
                size = tasks * (hidden - a) * (b - a)
                blocks.append((a, b, buffer[at:at + size].reshape(hidden - a, tasks * (b - a))))
                at += size
            means = []
            for t, s in enumerate(stats):
                for a, b, block in blocks:
                    np.multiply(self.masks[t][a:, None], s.whitening_factor[a:, a:b],
                                out=block.reshape(hidden - a, tasks, b - a)[:, t])
                means.append(s.class_means @ s.whitening_factor)
            means = np.stack(means)  # (T, C, h)
            centers = means.mean(axis=1)
            means -= centers[:, None, :]
            self._md = (blocks, centers, np.ascontiguousarray(means.transpose(0, 2, 1)),
                        (means * means).sum(axis=2))
        return self._md


def _plan(model: ModelState) -> _Plan:
    """The model's plan, rebuilt unless every array that it or its memo slot
    reads is unchanged (``_unchanged``) and every scalar is bit-equal. A scalar
    that no float64 holds rebuilds it, so that the model contract names it."""
    adapters, heads, stats = model.adapters, model.heads, model.stats
    projection = model.trunk.projection
    arrays = [adapters.weights, adapters.bias, *([] if projection is None else [projection]),
              *adapters.task_embeddings, *(a for h in heads for a in (h.weights, h.bias)),
              *(a for s in stats
                for a in (s.class_means, s.whitening_factor, s.mean_activations))]
    try:
        scalars = np.array([model.trunk.dim_in, adapters.slope_max, model.classes_per_task or 0,
                            *(s.react_threshold for s in stats),
                            *(h.ood_logit_present for h in heads)], dtype=np.float64).tobytes()
    except (TypeError, ValueError, OverflowError):
        scalars = None
    plan = getattr(model, "_inference_plan", None)
    if plan is None or plan.scalars != scalars or not _unchanged(plan.arrays, arrays):
        _check_model(model)
        if model.trained_tasks == 0:
            raise ModelError("model has no trained heads")
        plan = model._inference_plan = _Plan(model, arrays, scalars)
    return plan


def _scale_factors(z: np.ndarray, p: float) -> np.ndarray:
    """Per-row exp(total / top-percentile mass); all-zero rows stay unscaled."""
    n, width = z.shape
    k = _nearest_rank_index(p, width)
    thresholds = np.partition(z, k - 1, axis=1)[:, k - 1]
    totals = z.sum(axis=1)
    tops = np.where(z >= thresholds[:, None], z, 0.0).sum(axis=1)
    ratios = np.ones(n)
    live = totals > 0
    ratios[live] = totals[live] / tops[live]
    factors = np.exp(ratios)
    factors[~live] = 1.0
    return factors


def _md_coefficient(relu: np.ndarray, md) -> np.ndarray:
    """(n, T) coefficients 1 / (1 + d_min) of every head, d_min the squared
    Mahalanobis distance of each head's activations to its closest class mean.

    One product per column block of ``_Plan.mahalanobis`` gives columns
    a..b-1 of w for every head, without the rows above the block, which are
    zero in every factor. Each block adds its columns' share to
    ||w - center||^2 and (w - center).mu_c, so no (T, n, h) array is built."""
    blocks, centers, means, norms = md
    tasks, _, classes = means.shape
    n = len(relu)
    squares, dots = np.zeros((n, tasks)), np.zeros((tasks, n, classes))
    for a, b, block in blocks:
        w = (relu[:, a:] @ block).reshape(n, tasks, b - a)
        w -= centers[:, a:b]
        squares += np.einsum("ntb,ntb->nt", w, w)
        dots += np.matmul(w.transpose(1, 0, 2), means[:, a:b])
    nearest = (norms[:, None, :] - 2.0 * dots).min(axis=2)
    return 1.0 / (1.0 + np.maximum(squares + nearest.T, 0.0))


def _base_key(scorer: Scorer):
    """Scorers with one key share a base score: sm and smmd the softmax
    maximum, en and enmd at one temperature the energy."""
    return ("sm", None) if scorer.kind in ("sm", "smmd") else ("en", scorer.temperature)


def _base(logits: np.ndarray, key) -> np.ndarray:
    """The base score of ``_base_key`` ``key`` over the last axis of ``logits``."""
    family, temperature = key
    if family == "sm":
        # a row's largest shifted logit is exactly 0, so its exp, the numerator,
        # is exactly 1 (a non-finite row gives NaN either way)
        return 1.0 / np.exp(logits - logits.max(axis=-1, keepdims=True)).sum(axis=-1)
    # at temperature 1 the division and the product are exact, so they are skipped
    scaled = logits if temperature == 1.0 else logits / temperature
    m = scaled.max(axis=-1, keepdims=True)
    energy = m[..., 0] + np.log(np.exp(scaled - m).sum(axis=-1))
    return energy if temperature == 1.0 else temperature * energy


def _pass(model: ModelState, x: np.ndarray, detectors, scorers):
    """One inference pass of a batch through every head.

    Returns ``(classes, scores)``: ``classes[s, t]`` is the global class
    head t predicts for sample s, and ``scores[i, j]`` the (n, T) scores
    under ``detectors[i]`` and ``scorers[j]``. Pairs are indexed by
    position, since two detectors may share a kind. The Mahalanobis arrays
    are built only when a scorer reads them.
    """
    plan = _plan(model)
    md = (plan.mahalanobis(model.stats) if any(s.kind in ("smmd", "enmd") for s in scorers)
          else None)
    with np.errstate(all="ignore"):  # an overflow shows as a non-finite score
        relu = _shared_adapter(model, x)
    return _heads(plan, md, relu, detectors, scorers)


def _cut(classes: np.ndarray, scores: np.ndarray, upto: int):
    """The columns of heads 0..upto-1 of a pass, whose ``scores`` are
    (..., n, T), for an ``upto`` in 1..T that the caller has checked. A
    non-finite score among them, under any pair, is an error."""
    scores = scores[..., :upto]
    finite = np.isfinite(scores).all(axis=(*range(scores.ndim - 2), scores.ndim - 1))
    bad = len(finite) - int(finite.sum())
    if bad:
        raise ModelError(f"non-finite scores for {bad} of {len(finite)} samples")
    return classes[:, :upto], scores


def _heads(plan: _Plan, md, relu: np.ndarray, detectors, scorers):
    """The classes and scores of every head from the shared-adapter output
    ``relu``, as ``_pass`` returns them."""
    tasks, classes_per_task = plan.bias.shape
    dice = [plan.dice(d.percentile) if d.kind == "dice" else None for d in detectors]
    keys = [_base_key(s) for s in scorers]
    log_md = any(s.kind == "enmd" for s in scorers)
    offsets = np.arange(tasks) * classes_per_task
    n = len(relu)
    classes = np.empty((n, tasks), dtype=np.int64)
    scores = np.empty((len(detectors), len(scorers), n, tasks))
    # an overflow shows as a non-finite score, which ``_cut`` reports
    with np.errstate(all="ignore"):
        for start in range(0, n, _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            r = relu[rows]
            products = (r @ plan.folded).reshape(len(r), tasks, -1)
            raw = products + plan.bias
            classes[rows] = raw.argmax(axis=2) + offsets
            coefficient = _md_coefficient(r, md) if md is not None else None
            log_coefficient = np.log(coefficient) if log_md else None
            for i, detector in enumerate(detectors):
                if detector.kind == "base":
                    logits = raw
                elif detector.kind == "dice":
                    logits = (r @ dice[i]).reshape(len(r), tasks, -1) + plan.bias
                else:  # react and scale change z_t itself, so they run per head
                    logits = np.empty_like(raw)
                    for t in range(tasks):
                        z = r * plan.masks[t]
                        if detector.kind == "react":
                            logits[:, t] = np.minimum(z, plan.thresholds[t]) @ plan.weights[t]
                        else:  # (s z_t) W_t = s (z_t W_t)
                            factors = _scale_factors(z, detector.percentile)
                            logits[:, t] = factors[:, None] * products[:, t]
                    logits += plan.bias
                bases = {}
                for j, (scorer, key) in enumerate(zip(scorers, keys)):
                    if key not in bases:
                        bases[key] = _base(logits, key)
                    if scorer.kind == "smmd":
                        np.multiply(bases[key], coefficient, out=scores[i, j, rows])
                    elif scorer.kind == "enmd":
                        np.add(bases[key], log_coefficient, out=scores[i, j, rows])
                    else:
                        scores[i, j, rows] = bases[key]
    return classes, scores


def _columns(model: ModelState, stream, upto: int, detectors, scorers):
    """Classes and scores of heads 0..upto-1 under every pair of
    ``detectors`` x ``scorers`` over the stream's stacked test sets, with the
    sets' labels and true tasks, as ``_cut`` returns them.

    They come from the plan's memo slot, which holds every head for one
    stream under the pairs of one pass. A hit (``_unchanged`` test-set
    arrays, every pair asked in the slot's product of detectors x scorers)
    costs no stacking and no adapter product; a miss scores every head under
    the pairs asked in one pass and replaces the slot. The classes, labels
    and tasks are read-only views into the slot, the scores a copy.
    """
    detectors = tuple(_as_detector(d) for d in detectors)
    scorers = tuple(_as_scorer(s) for s in scorers)
    plan = _plan(model)  # a new plan starts with an empty slot
    tests = [a for _train, test in stream.tasks for a in (test.features, test.labels)]
    slot = plan.columns
    if (slot is None or not _unchanged(slot[0], tests)
            or not all(d in slot[1] for d in detectors)
            or not all(s in slot[2] for s in scorers)):
        features, labels, tasks = _stack_tests(stream)
        classes, scores = _pass(model, features, detectors, scorers)
        slot = (tuple(_frozen(a) for a in tests), detectors, scorers,
                *(_frozen(a) for a in (classes, scores, labels, tasks)))
        # one assignment, so a concurrent call sees a whole slot, old or new
        plan.columns = slot
    _tests, held_detectors, held_scorers, classes, scores, labels, tasks = slot
    picked = scores[np.ix_([held_detectors.index(d) for d in detectors],
                           [held_scorers.index(s) for s in scorers])]
    return (*_cut(classes, picked, upto), labels, tasks)


def _routed(classes: np.ndarray, scores: np.ndarray):
    """Each row's ``(system score, task-id, class)`` over the heads given: the
    highest score wins, ties to the lower head. The only place a task-id is
    chosen."""
    rows = np.arange(len(scores))
    chosen = scores.argmax(axis=1)
    return scores[rows, chosen], chosen, classes[rows, chosen]


def _accuracies(correct: np.ndarray, tasks: np.ndarray, k: int):
    """Step k's closed-world accuracy over the rows of tasks 0..k-1, and each task's."""
    seen = tasks < k
    correct, tasks = correct[seen], tasks[seen]
    hits = np.bincount(tasks, weights=correct, minlength=k)
    return float(correct.mean()), (hits / np.bincount(tasks, minlength=k)).tolist()


def predict(model: ModelState, detector, scorer, x: np.ndarray) -> Prediction:
    """Full open-world prediction of one input: task-id, class, and system score.

    The task is the head with the highest score, ties going to the lower
    task id; the class is the argmax of that head's unrectified logits,
    any OOD logit excluded; the score is the winning head's.
    """
    x = np.asarray(x, dtype=np.float64)
    dim = model.trunk.dim_in
    if x.shape != (dim,):
        raise ModelError(f"predict takes one row of {dim} values, got shape {x.shape}")
    classes, scores = _cut(*_pass(model, x[None, :], [_as_detector(detector)],
                                  [_as_scorer(scorer)]), model.trained_tasks)
    system, task, predicted = _routed(classes, scores[0, 0])
    return Prediction(int(task[0]), int(predicted[0]), float(system[0]))


def _stack_tests(stream):
    parts = [test for _train, test in stream.tasks]
    features = np.concatenate([p.features for p in parts])
    labels = np.concatenate([p.labels for p in parts])
    tasks = np.concatenate([np.full(len(p), t, dtype=np.int64)
                            for t, p in enumerate(parts)])
    return features, labels, tasks


def _check_compatible(model: ModelState, stream, step: int | None = None,
                      open_world: bool = False) -> None:
    """Refuse a model ``_plan`` refuses, a stream it cannot score and, if given, a
    step outside 1..min(T, S) for T trained heads and S tasks in the stream. An
    open-world step needs an unseen task, so its top is min(T, S - 1)."""
    _plan(model)
    if stream.tasks[0][0].dim != model.trunk.dim_in:
        raise ModelError(
            f"stream dim {stream.tasks[0][0].dim} does not match model input "
            f"dim {model.trunk.dim_in}"
        )
    if model.classes_per_task != stream.classes_per_task:
        raise ModelError(
            f"stream has {stream.classes_per_task} classes per task; model "
            f"was trained with {model.classes_per_task}"
        )
    if open_world and stream.num_tasks == 1:
        raise ModelError("open-world evaluation needs an unseen task, and the stream "
                         "has 1 task")
    if step is not None:
        check_integer("step", step, ModelError, 1,
                      min(model.trained_tasks, stream.num_tasks - int(open_world)))


def score_table(model: ModelState, stream, detector, scorer) -> ScoreTable:
    """Per-head scores of every test sample in the stream."""
    detector = _as_detector(detector)
    scorer = _as_scorer(scorer)
    _check_compatible(model, stream)
    _, scores, labels, tasks = _columns(model, stream, model.trained_tasks, [detector], [scorer])
    return ScoreTable(scores[0, 0], labels.copy(), tasks.copy(), detector.kind, scorer.kind)


def evaluate_closed(model: ModelState, stream, upto: int, detector, scorer,
                    oracle_task: bool = False) -> ClosedWorldResult:
    """Accuracy over the test sets of tasks 1..upto with the first upto heads.

    A sample counts as correct only when its predicted global class
    matches the true label, which requires the task-id to be right.
    ``oracle_task`` routes each sample to its true head instead of the
    score argmax (task-incremental mode, used to check non-forgetting).
    The columns come from the pass over the whole stacked test set, of
    which the rows of tasks 1..upto are kept.
    """
    _check_compatible(model, stream, upto)
    classes, scores, labels, tasks = _columns(model, stream, upto, [detector], [scorer])
    seen = tasks < upto
    classes, scores, labels, tasks = classes[seen], scores[0, 0, seen], labels[seen], tasks[seen]
    predicted = (classes[np.arange(len(labels)), tasks] if oracle_task
                 else _routed(classes, scores)[2])
    accuracy, per_task = _accuracies(predicted == labels, tasks, upto)
    return ClosedWorldResult(accuracy, tuple(per_task))


def evaluate_open(model: ModelState, stream, upto: int, detector, scorer):
    """System scores split into seen (tasks 1..upto) and unseen populations."""
    _check_compatible(model, stream, upto, open_world=True)
    classes, scores, _labels, tasks = _columns(model, stream, upto, [detector], [scorer])
    system = _routed(classes, scores[0, 0])[0]
    return system[tasks < upto], system[tasks >= upto]


def mixed_scores(model: ModelState, stream, upto: int, detector, scorer):
    """System scores and correctness flags over the full mixed test set.

    Samples of unseen tasks carry a False flag; seen samples are flagged
    by the correctness of their closed-world class prediction at this
    step. Feeds the accuracy-rejection curve.
    """
    _check_compatible(model, stream, upto)
    classes, scores, labels, tasks = _columns(model, stream, upto, [detector], [scorer])
    system, _, predicted = _routed(classes, scores[0, 0])
    return system, (predicted == labels) & (tasks < upto)


def run_sweep(model: ModelState, stream, detectors, scorers) -> metrics.EvalReport:
    """All closed- and open-world metrics for every detector-scorer pair.

    Closed-world metrics aggregate the per-step accuracies at every step
    k; open-world ROC and precision-recall areas average over steps
    1..T-1, after which no unseen classes remain. Rows come out detector
    -major in the given order.
    """
    _check_compatible(model, stream)
    num_tasks = stream.num_tasks
    if model.trained_tasks != num_tasks:
        raise ModelError(
            f"model has {model.trained_tasks} trained tasks; stream has {num_tasks}"
        )
    detectors = [_as_detector(d) for d in detectors]
    scorers = [_as_scorer(s) for s in scorers]
    classes, scores, labels, tasks = _columns(model, stream, num_tasks, detectors, scorers)
    report = metrics.EvalReport()
    for i, detector in enumerate(detectors):
        for j, scorer in enumerate(scorers):
            report.rows.append(_sweep_row(detector, scorer, scores[i, j], classes,
                                          labels, tasks, num_tasks))
    return report


def _sweep_row(detector, scorer, scores, classes, labels, tasks,
               num_tasks) -> metrics.ReportRow:
    """One report row from the (n, T) head scores and classes of one pair.

    Step k reads heads 0..k-1 through ``_routed`` and ``_accuracies``, as
    ``evaluate_closed`` does, and while k < T ``metrics.separation`` gives its
    ROC and precision-recall areas."""
    step_accuracies, per_task_accuracies, step_auc, step_aupr = [], [], [], []
    for k in range(1, num_tasks + 1):
        system, _, predicted = _routed(classes[:, :k], scores[:, :k])
        accuracy, per_task = _accuracies(predicted == labels, tasks, k)
        step_accuracies.append(accuracy)
        per_task_accuracies.append(per_task)
        if k < num_tasks:
            roc, pr = metrics.separation(system, tasks < k)
            step_auc.append(roc)
            step_aupr.append(pr)

    return metrics.ReportRow(
        detector=detector.kind,
        scorer=scorer.kind,
        lca=metrics.lca(step_accuracies),
        aia=metrics.aia(step_accuracies),
        af=metrics.af(per_task_accuracies),
        auc=float(np.mean(step_auc)),
        aupr=float(np.mean(step_aupr)),
        step_accuracies=step_accuracies,
        per_task_accuracies=per_task_accuracies,
        step_auc=step_auc,
        step_aupr=step_aupr,
    )
