"""Inference orchestration over a trained model.

Per head, an input is mapped to gated activations, rectified by the
chosen detector, and reduced to a scalar in-distribution score; the
head with the highest score wins the task-id, and the class inside the
winning task comes from the head's original (unrectified) logits, which
makes within-task accuracy identical across detectors. Replay heads
carry an extra OOD logit that is excluded from both scoring and class
prediction, so scores stay comparable across the buffer-free and replay
paths.

Closed-world evaluation at step k restricts inference to the first k
heads over the test sets of tasks 1..k; open-world evaluation scores
every test sample and splits them into seen (tasks 1..k) and unseen
(later tasks) populations. The system-level score of a sample is the
maximum per-head score, the value realized at the task-id argmax.

Every entry point reads one pass, ``_forward``: the shared ReLU adapter
runs once per call, and each head then gates it with its saturated mask
and computes its raw logits and class prediction, its Mahalanobis
coefficient (only when an md scorer is asked for), and each requested
detector's rectified logits and each scorer's score. The functions below
only pick the heads, samples and pairs they need from that pass.

The Mahalanobis distance is computed in whitened form. With F the
Cholesky factor of the symmetric part of a head's covariance_inv,
(z - mu) covariance_inv (z - mu)^T = ||z F - mu F||^2, so a head costs
one (n, h) x (h, h) product plus a Euclidean distance per class. Two
derived arrays are built on first use and then reused by every pass:

- F and the whitened class means, kept on the head's ``TrainStats`` and
  rebuilt when its ``covariance_inv`` or ``class_means`` is a different
  array (``load_model`` builds them while checking the file);
- per DICE percentile, the head weights times the DICE keep-mask, kept
  on the ``TaskHead`` and rebuilt when the head weights or the mean
  activations differ in value from those they were built from.

Both live and die with the model (see ``model._whitening`` and
``model._dice_weights``) and are no dataclass field, so equality,
``dataclasses.replace`` and the model file never see them. Apart from
them nothing here writes to the model; per-sample work items are
independent and safe to parallelize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import metrics
from .detectors import Detector, _nearest_rank_index
from .errors import ModelError
from .model import ModelState, _dice_weights, _saturated_masks, _shared_adapter, _whitening
from .scorers import Scorer

__all__ = [
    "Prediction",
    "ScoreTable",
    "ClosedWorldResult",
    "head_score",
    "predict_task",
    "predict_class",
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


def _rectified_logits(model: ModelState, task: int, z: np.ndarray, raw: np.ndarray,
                      detector: Detector) -> np.ndarray:
    """Head logits under the detector; ``raw`` are the unrectified logits."""
    head = model.heads[task]
    kind = detector.kind
    if kind == "base":
        return raw
    if kind == "react":
        threshold = model.stats[task].react_threshold
        return np.minimum(z, threshold) @ head.weights + head.bias
    if kind == "scale":
        return (z * _scale_factors(z, detector.percentile)[:, None]) @ head.weights + head.bias
    if kind == "dice":
        return z @ _dice_weights(head, model.stats[task], detector.percentile) + head.bias
    raise ValueError(f"unknown detector {kind!r}")


def _scale_factors(z: np.ndarray, p: float) -> np.ndarray:
    """Per-row exp(total / top-percentile mass); all-zero rows stay unscaled."""
    n, width = z.shape
    k = _nearest_rank_index(p, width)
    thresholds = np.sort(z, axis=1)[:, k - 1]
    totals = z.sum(axis=1)
    tops = np.where(z >= thresholds[:, None], z, 0.0).sum(axis=1)
    ratios = np.ones(n)
    live = totals > 0
    ratios[live] = totals[live] / tops[live]
    factors = np.exp(ratios)
    factors[~live] = 1.0
    return factors


def _strip_ood(head, logits: np.ndarray) -> np.ndarray:
    return logits[..., :-1] if head.ood_logit_present else logits


def _md_coefficient(z: np.ndarray, stats) -> np.ndarray:
    """1 / (1 + d_min), d_min the squared Mahalanobis distance to the closest mean.

    In whitened coordinates, d_min = min_c ||z F - mu_c F||^2: one product
    with the head's factor F, then a Euclidean distance per class.
    """
    factor, whitened_means = _whitening(stats)
    w = z @ factor
    quad = np.full(len(z), np.inf)
    for mean in whitened_means:
        diff = w - mean
        np.minimum(quad, np.einsum("ij,ij->i", diff, diff), out=quad)
    return 1.0 / (1.0 + quad)


def _score(logits: np.ndarray, scorer: Scorer, coefficient) -> np.ndarray:
    kind = scorer.kind
    if kind in ("sm", "smmd"):
        shifted = logits - logits.max(axis=1, keepdims=True)
        exps = np.exp(shifted)
        base = exps.max(axis=1) / exps.sum(axis=1)
    else:
        scaled = logits / scorer.temperature
        m = scaled.max(axis=1)
        base = scorer.temperature * (m + np.log(np.exp(scaled - m[:, None]).sum(axis=1)))
    if kind == "smmd":
        return base * coefficient
    if kind == "enmd":
        return base + np.log(coefficient)
    return base


def _forward(model: ModelState, x: np.ndarray, upto: int, detectors=(), scorers=()):
    """One inference pass of a batch through the first ``upto`` heads.

    Returns ``(classes, scores)``: ``classes[s, t]`` is the global class
    head t predicts for sample s, and ``scores[i, j]`` the (n, upto)
    scores under ``detectors[i]`` and ``scorers[j]``. Pairs are indexed
    by position, since two detectors may share a kind.
    """
    if not 1 <= upto <= model.trained_tasks:
        raise ModelError(f"head count {upto} outside 1..{model.trained_tasks}")
    relu = _shared_adapter(model, x)
    classes = np.empty((len(relu), upto), dtype=np.int64)
    scores = np.empty((len(detectors), len(scorers), len(relu), upto))
    needs_md = any(s.kind in ("smmd", "enmd") for s in scorers)
    for t, mask in enumerate(_saturated_masks(model, upto)):
        head = model.heads[t]
        z = relu * mask
        raw = z @ head.weights + head.bias
        classes[:, t] = _strip_ood(head, raw).argmax(axis=1) + t * model.classes_per_task
        coefficient = _md_coefficient(z, model.stats[t]) if needs_md else None
        for i, detector in enumerate(detectors):
            logits = _strip_ood(head, _rectified_logits(model, t, z, raw, detector))
            for j, scorer in enumerate(scorers):
                scores[i, j, :, t] = _score(logits, scorer, coefficient)
    return classes, scores


def _pair_forward(model: ModelState, x: np.ndarray, upto: int, detector, scorer):
    """``_forward`` for one detector-scorer pair: classes and (n, upto) scores."""
    classes, scores = _forward(model, x, upto, [_as_detector(detector)], [_as_scorer(scorer)])
    return classes, scores[0, 0]


def head_score(model: ModelState, task: int, detector, scorer, x: np.ndarray) -> float:
    """In-distribution score of one input under one head."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ModelError(f"expected a single input vector, got shape {x.shape}")
    _, scores = _pair_forward(model, x[None, :], task + 1, detector, scorer)
    return float(scores[0, task])


def predict_task(model: ModelState, detector, scorer, x: np.ndarray,
                 upto: int | None = None) -> int:
    """Head with the highest score; ties break toward the lower task id."""
    upto = model.trained_tasks if upto is None else upto
    x = np.asarray(x, dtype=np.float64)
    _, scores = _pair_forward(model, x[None, :], upto, detector, scorer)
    return int(scores[0].argmax())


def predict_class(model: ModelState, x: np.ndarray, task: int,
                  ind_score: float = float("nan")) -> Prediction:
    """Class inside ``task`` from the head's original unrectified logits.

    The argmax over softmax probabilities equals the argmax over logits;
    any OOD logit is excluded. The global class id offsets the local
    argmax by the task's label base.
    """
    classes, _ = _forward(model, np.asarray(x, dtype=np.float64)[None, :], task + 1)
    return Prediction(task, int(classes[0, task]), ind_score)


def predict(model: ModelState, detector, scorer, x: np.ndarray) -> Prediction:
    """Full open-world prediction: task-id, class, and system score."""
    x = np.asarray(x, dtype=np.float64)
    classes, scores = _pair_forward(model, x[None, :], model.trained_tasks, detector, scorer)
    task = int(scores[0].argmax())
    return Prediction(task, int(classes[0, task]), float(scores[0, task]))


def _stack_tests(stream, upto: int | None = None):
    upto = stream.num_tasks if upto is None else upto
    parts = [stream.tasks[t][1] for t in range(upto)]
    features = np.concatenate([p.features for p in parts])
    labels = np.concatenate([p.labels for p in parts])
    tasks = np.concatenate([np.full(len(p), t, dtype=np.int64)
                            for t, p in enumerate(parts)])
    return features, labels, tasks


def _check_compatible(model: ModelState, stream) -> None:
    if model.trained_tasks == 0:
        raise ModelError("model has no trained heads")
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


def score_table(model: ModelState, stream, detector, scorer) -> ScoreTable:
    """Per-head scores of every test sample in the stream."""
    detector = _as_detector(detector)
    scorer = _as_scorer(scorer)
    _check_compatible(model, stream)
    features, labels, tasks = _stack_tests(stream)
    _, scores = _pair_forward(model, features, model.trained_tasks, detector, scorer)
    return ScoreTable(scores, labels, tasks, detector.kind, scorer.kind)


def evaluate_closed(model: ModelState, stream, upto: int, detector, scorer,
                    oracle_task: bool = False) -> ClosedWorldResult:
    """Accuracy over the test sets of tasks 1..upto with the first upto heads.

    A sample counts as correct only when its predicted global class
    matches the true label, which requires the task-id to be right.
    ``oracle_task`` routes each sample to its true head instead of the
    score argmax (task-incremental mode, used to check non-forgetting).
    """
    detector = _as_detector(detector)
    scorer = _as_scorer(scorer)
    _check_compatible(model, stream)
    if not 1 <= upto <= model.trained_tasks:
        raise ModelError(f"step {upto} outside 1..{model.trained_tasks}")
    features, labels, tasks = _stack_tests(stream, upto)
    if oracle_task:
        classes, _ = _forward(model, features, upto)
        chosen = tasks
    else:
        classes, scores = _pair_forward(model, features, upto, detector, scorer)
        chosen = scores.argmax(axis=1)
    correct = classes[np.arange(len(labels)), chosen] == labels
    per_task = tuple(float(correct[tasks == t].mean()) for t in range(upto))
    return ClosedWorldResult(float(correct.mean()), per_task)


def evaluate_open(model: ModelState, stream, upto: int, detector, scorer):
    """System scores split into seen (tasks 1..upto) and unseen populations."""
    _check_compatible(model, stream)
    if not 1 <= upto <= stream.num_tasks - 1:
        raise ModelError(
            f"open-world step must lie in 1..{stream.num_tasks - 1} "
            f"(no unseen classes remain at step {stream.num_tasks}); got {upto}"
        )
    features, _labels, tasks = _stack_tests(stream)
    _, scores = _pair_forward(model, features, upto, detector, scorer)
    system = scores.max(axis=1)
    return system[tasks < upto], system[tasks >= upto]


def mixed_scores(model: ModelState, stream, upto: int, detector, scorer):
    """System scores and correctness flags over the full mixed test set.

    Samples of unseen tasks carry a False flag; seen samples are flagged
    by the correctness of their closed-world class prediction at this
    step. Feeds the accuracy-rejection curve.
    """
    return _mixed_steps(model, stream, [upto], detector, scorer)[0]


def _mixed_steps(model: ModelState, stream, steps, detector, scorer):
    """``mixed_scores`` at every step in ``steps``, from one pass at max(steps) heads.

    Heads are scored independently, so the first k columns of that pass
    are the scores of a k-head pass.
    """
    _check_compatible(model, stream)
    features, labels, tasks = _stack_tests(stream)
    classes, scores = _pair_forward(model, features, max(steps), detector, scorer)
    sample_index = np.arange(len(labels))
    results = []
    for k in steps:
        predicted = classes[sample_index, scores[:, :k].argmax(axis=1)]
        results.append((scores[:, :k].max(axis=1), (predicted == labels) & (tasks < k)))
    return results


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
    features, labels, tasks = _stack_tests(stream)
    classes, scores = _forward(model, features, num_tasks, detectors, scorers)
    report = metrics.EvalReport()
    for i, detector in enumerate(detectors):
        for j, scorer in enumerate(scorers):
            report.rows.append(_sweep_row(detector, scorer, scores[i, j], classes,
                                          labels, tasks, num_tasks))
    return report


def _sweep_row(detector, scorer, scores, classes, labels, tasks,
               num_tasks) -> metrics.ReportRow:
    sample_index = np.arange(len(labels))
    step_accuracies = []
    per_task_accuracies = []
    for k in range(1, num_tasks + 1):
        seen = tasks < k
        chosen = scores[seen, :k].argmax(axis=1)
        predicted = classes[sample_index[seen], chosen]
        correct = predicted == labels[seen]
        step_accuracies.append(float(correct.mean()))
        seen_tasks = tasks[seen]
        per_task_accuracies.append(
            [float(correct[seen_tasks == t].mean()) for t in range(k)]
        )

    step_auc, step_aupr = [], []
    for k in range(1, num_tasks):
        system = scores[:, :k].max(axis=1)
        ind, ood = system[tasks < k], system[tasks >= k]
        step_auc.append(metrics.auc(ind, ood))
        step_aupr.append(metrics.aupr(ind, ood))

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
