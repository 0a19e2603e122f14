"""Comparisons between the program's outputs and independent figures.

Each function returns a list of error strings; an empty list is a pass.
None of them compares against stored output: the expected side is the
plain-numpy reference, a brute-force recomputation, or an invariant.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from reference import pairwise_auc

SCORE_RTOL = 1e-9  # the reference agrees to ~1e-13 on every workload
SCORE_ATOL = 1e-12
METRIC_ATOL = 1e-12
CSV_ATOL = 0.005 + 1e-9  # report values are percentages rounded to 2 decimals
CHANCE_MULTIPLE = 3.0


def close(a, b) -> np.ndarray:
    return np.abs(np.asarray(a) - np.asarray(b)) <= SCORE_ATOL + SCORE_RTOL * np.abs(np.asarray(b))


def predictions(label, ref_scores, ref_classes, tasks, classes, scores) -> list[str]:
    """The program's (task, class, score) per sample against the reference.

    ``ref_scores`` and ``ref_classes`` are (n, T). A task other than the
    reference argmax is accepted only when the two heads' reference scores
    are within tolerance of each other (a tie up to rounding).
    """
    errors = []
    for i, (task, cls, score) in enumerate(zip(tasks, classes, scores)):
        best = int(np.argmax(ref_scores[i]))
        if task != best and not close(ref_scores[i, task], ref_scores[i, best]):
            errors.append(f"{label}: sample {i} task {task}, reference {best}")
        elif cls != ref_classes[i, task]:
            errors.append(f"{label}: sample {i} class {cls}, reference {ref_classes[i, task]}")
        elif not close(score, ref_scores[i, task]):
            errors.append(f"{label}: sample {i} score {score!r}, reference {ref_scores[i, task]!r}")
    return errors[:5]


def score_table(label, scores, ref_scores) -> list[str]:
    if scores.shape != ref_scores.shape:
        return [f"{label}: score table shape {scores.shape}, reference {ref_scores.shape}"]
    bad = np.argwhere(~close(scores, ref_scores))
    return [f"{label}: score table differs from the reference at {len(bad)} entries, "
            f"first {tuple(bad[0])}"] if len(bad) else []


def brute_force_row(scores, labels, tasks, ref_classes):
    """(LCA, mean step AUC) recomputed from a (n, T) per-head score table."""
    n, num_tasks = scores.shape
    chosen = np.argmax(scores, axis=1)
    lca = float(np.mean(ref_classes[np.arange(n), chosen] == labels))
    aucs = []
    for k in range(1, num_tasks):
        system = scores[:, :k].max(axis=1)
        aucs.append(pairwise_auc(system[tasks < k], system[tasks >= k]))
    return lca, float(np.mean(aucs))


def row_matches(label, expected, reported, atol) -> list[str]:
    names = ("lca", "auc")
    return [f"{label}: {name} {got!r}, brute force {want!r}"
            for name, want, got in zip(names, expected, reported) if abs(want - got) > atol]


def flatten(obj, prefix="model"):
    """(path, value) for every array and scalar reachable through dataclasses."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from flatten(getattr(obj, f.name), f"{prefix}.{f.name}")
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from flatten(item, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def _same_bits(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float) or isinstance(b, float):
        return type(a) in (float, np.float64) and type(b) in (float, np.float64) \
            and float(a).hex() == float(b).hex()
    return a == b


def same_model(label, a, b) -> list[str]:
    """Every array and scalar of two models, bit for bit."""
    left, right = list(flatten(a)), list(flatten(b))
    if [p for p, _ in left] != [p for p, _ in right]:
        return [f"{label}: the two models have different fields"]
    return [f"{label}: {path} differs" for (path, x), (_, y) in zip(left, right)
            if not _same_bits(x, y)][:5]


def rejection_curve(label, points, total) -> list[str]:
    """points: (rejection_rate, retained) pairs in grid order for one step."""
    if not points:
        return [f"{label}: empty curve"]
    errors = []
    if points[0][0] != 0 or points[0][1] != total:
        errors.append(f"{label}: rate-0 point {points[0]} does not keep all {total} samples")
    retained = [r for _, r in points]
    if any(b > a for a, b in zip(retained, retained[1:])):
        errors.append(f"{label}: retained counts increase: {retained}")
    return errors


def oracle(label, accuracies: dict, ref_accuracy: float) -> list[str]:
    """Oracle-task accuracy is the same for every detector and the reference."""
    return [f"{label}: {kind} oracle accuracy {acc!r}, reference {ref_accuracy!r}"
            for kind, acc in accuracies.items() if acc != ref_accuracy]


def above_chance(label, lca_pct: float, num_classes: int) -> list[str]:
    """At least CHANCE_MULTIPLE times chance, or halfway to 100% when that is lower."""
    chance = 100.0 / num_classes
    floor = min(CHANCE_MULTIPLE * chance, (chance + 100.0) / 2)
    if lca_pct < floor:
        return [f"{label}: mean LCA {lca_pct:.2f}% is below {floor:.2f}% (chance {chance:.2f}%)"]
    return []


def buffers(label, snapshots, capacity: int) -> list[str]:
    """Each buffer after a task: within capacity, holding every seen class
    and no other, with class counts that differ by at most one.

    ``snapshots`` holds (seen classes, buffered labels) per update.
    """
    errors = []
    for step, (seen, labels) in enumerate(snapshots, start=1):
        counts = [int(np.sum(labels == c)) for c in seen]
        if len(labels) > capacity:
            errors.append(f"{label}: buffer after task {step} holds {len(labels)} > {capacity}")
        if set(np.unique(labels).tolist()) != set(seen) or max(counts) - min(counts) > 1:
            errors.append(f"{label}: buffer after task {step} is unbalanced: {counts}")
    return errors
