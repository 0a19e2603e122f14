"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per
-criterion lines. The shared stream is the 10-class, 5-task, 32
-dimensional Gaussian profile with separation 6 and 200 samples per
class; its separability is pre-verified by a nearest-class-mean oracle.
"""

import dataclasses
import math

import numpy as np
import pytest

import opencil as oc
from opencil.cli import main as cli_main
from opencil.data import task_local
from opencil.detectors import Detector
from opencil.model import loss_and_grads
from per_vector import (detector_logits, forward_features, mahalanobis_confidence,
                        score_energy, score_sm, whitening_factor)
from test_metrics import pr_area_by_exhaustive_thresholds, roc_area_by_threshold_sweep

DATA_SEED = 7
TRAIN_SEED = 11
HP = oc.Hyperparams(epochs=150, learning_rate=0.01, batch_size=64,
                    hidden_width=128, seed=TRAIN_SEED)


@pytest.fixture(scope="module")
def stream():
    spec = oc.SynthSpec(num_classes=10, dim=32, per_class=200,
                        mean_separation=6.0, seed=DATA_SEED)
    train, test = oc.holdout(oc.synth_gaussian(spec), 0.2, DATA_SEED)
    return oc.split_tasks(train, test, 5)


@pytest.fixture(scope="module")
def bufferfree_model(stream):
    model = oc.new_model(32, HP)
    return oc.train_stream(model, stream, HP)


@pytest.fixture(scope="module")
def morefw_model(stream):
    model = oc.new_model(32, HP)
    return oc.train_stream(model, stream, HP, replay=True, buffer_capacity=200)


def test_criterion_01_detector_degenerations(bufferfree_model):
    rng = np.random.default_rng(100)
    inputs = rng.normal(scale=3.0, size=(1000, 32))
    head = bufferfree_model.heads[0]
    zs = [forward_features(bufferfree_model, 0, x) for x in inputs]
    pooled_max = float(np.max(zs))
    open_stats = dataclasses.replace(bufferfree_model.stats[0],
                                     react_threshold=pooled_max)
    react = Detector("react")
    dice0 = Detector("dice", 0.0)
    base = Detector("base")
    for z in zs:
        reference = detector_logits(head, z, base)
        assert np.array_equal(detector_logits(head, z, react, open_stats),
                              reference)
        assert np.array_equal(detector_logits(head, z, dice0,
                                              bufferfree_model.stats[0]),
                              reference)
    print("\nACCEPTANCE 1 PASS: react above-range clip and dice p=0 are "
          "bit-identical to base on 1000 random inputs")


def test_criterion_02_class_prediction_invariance(bufferfree_model, stream):
    results = {
        kind: oc.evaluate_closed(bufferfree_model, stream, 5, kind, "enmd",
                                 oracle_task=True)
        for kind in ("base", "react", "dice", "scale")
    }
    accuracies = {kind: r.accuracy for kind, r in results.items()}
    assert len(set(accuracies.values())) == 1
    per_task = {kind: r.per_task for kind, r in results.items()}
    assert len(set(per_task.values())) == 1
    print(f"\nACCEPTANCE 2 PASS: oracle-task closed-world accuracy "
          f"{accuracies['base']:.4f} exactly equal across all four detectors")


def test_criterion_03_exact_within_task_non_forgetting(stream):
    model = oc.new_model(32, HP)
    immediate = []
    for t in range(5):
        oc.train_task(model, task_local(stream.tasks[t][0], t, 2), HP)
        step = oc.evaluate_closed(model, stream, t + 1, "base", "sm",
                                  oracle_task=True)
        immediate.append(step.per_task[t])
    final = oc.evaluate_closed(model, stream, 5, "base", "sm",
                               oracle_task=True).per_task
    for t in range(5):
        assert immediate[t] == final[t], (t, immediate[t], final[t])
    print(f"\nACCEPTANCE 3 PASS: per-task task-incremental accuracy exactly "
          f"preserved across later training ({[f'{a:.3f}' for a in final]})")


def test_criterion_04_metric_oracles():
    rng = np.random.default_rng(41)
    worst_auc_gap = 0.0
    worst_aupr_gap = 0.0
    for trial in range(100):
        ind = rng.normal(0.4, 1.0, rng.integers(4, 80))
        ood = rng.normal(0.0, 1.1, rng.integers(4, 80))
        if trial % 3 == 0:
            ind, ood = np.round(ind, 1), np.round(ood, 1)
        worst_auc_gap = max(worst_auc_gap,
                            abs(oc.auc(ind, ood) - roc_area_by_threshold_sweep(ind, ood)))
        worst_aupr_gap = max(worst_aupr_gap,
                             abs(oc.aupr(ind, ood) - pr_area_by_exhaustive_thresholds(ind, ood)))
    assert worst_auc_gap < 1e-9
    assert worst_aupr_gap < 1e-9

    assert oc.auc([2.0, 3.0, 4.0], [-1.0, 0.0, 1.0]) == 1.0

    null_a = rng.normal(size=10_000)
    null_b = rng.normal(size=10_000)
    null_auc = oc.auc(null_a, null_b)
    assert abs(null_auc - 0.5) <= 0.02
    print(f"\nACCEPTANCE 4 PASS: auc/aupr match oracles within 1e-9 "
          f"(worst {worst_auc_gap:.1e}/{worst_aupr_gap:.1e}), perfect=1.0, "
          f"null={null_auc:.4f}")


def test_criterion_05_gradient_check():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(20):
        n, d, h, c = 5, rng.integers(3, 8), rng.integers(4, 10), rng.integers(2, 5)
        inputs = rng.normal(size=(n, d))
        labels = rng.integers(0, c, n)
        params = {
            "adapter_weights": rng.normal(size=(d, h)) * 0.6,
            "adapter_bias": rng.normal(size=h) * 0.2,
            "embedding": rng.uniform(-0.6, 0.6, h),
            "head_weights": rng.normal(size=(h, c)) * 0.6,
            "head_bias": rng.normal(size=c) * 0.2,
        }
        slope = float(rng.uniform(0.5, 8.0))

        def loss_of():
            return loss_and_grads(inputs, labels, params["adapter_weights"],
                                  params["adapter_bias"], params["embedding"],
                                  params["head_weights"], params["head_bias"],
                                  slope)[0]

        _, grads = loss_and_grads(inputs, labels, params["adapter_weights"],
                                  params["adapter_bias"], params["embedding"],
                                  params["head_weights"], params["head_bias"],
                                  slope)
        name = rng.choice(list(params))
        flat = params[name].reshape(-1)
        k = rng.integers(0, flat.size)
        eps = 1e-6
        saved = flat[k]
        flat[k] = saved + eps
        up = loss_of()
        flat[k] = saved - eps
        down = loss_of()
        flat[k] = saved
        numeric = (up - down) / (2 * eps)
        analytic = grads[name].reshape(-1)[k]
        relative = abs(analytic - numeric) / max(abs(numeric), 1e-8)
        worst = max(worst, relative)
        assert relative < 1e-4, (name, relative)
    print(f"\nACCEPTANCE 5 PASS: analytic gradients match central differences "
          f"over 20 trials (worst relative error {worst:.2e})")


def test_criterion_06_scorer_identities():
    rng = np.random.default_rng(66)
    worst_energy = worst_sm = 0.0
    for _ in range(200):
        logits = rng.normal(scale=4.0, size=rng.integers(1, 9))
        shift = float(rng.normal(scale=5.0))
        worst_energy = max(worst_energy,
                           abs(score_energy(logits + shift) -
                               score_energy(logits) - shift))
        worst_sm = max(worst_sm,
                       abs(score_sm(logits + shift) - score_sm(logits)))
    assert worst_energy <= 1e-12
    assert worst_sm <= 1e-12

    dim, classes = 8, 4
    means = rng.normal(size=(classes, dim))
    basis = rng.normal(size=(dim, dim))
    covariance = basis @ basis.T + dim * np.eye(dim)
    stats = oc.TrainStats(class_means=means,
                          whitening_factor=whitening_factor(np.linalg.inv(covariance)),
                          mean_activations=means.mean(axis=0),
                          react_threshold=1.0)
    worst_maha = 0.0
    for _ in range(50):
        z = rng.normal(size=dim)
        inv = np.linalg.inv(covariance)
        best = -math.inf
        for c in range(classes):
            quad = 0.0
            for i in range(dim):
                for j in range(dim):
                    quad += (z[i] - means[c, i]) * inv[i, j] * (z[j] - means[c, j])
            best = max(best, -quad)
        worst_maha = max(worst_maha, abs(mahalanobis_confidence(z, stats) - best))
    assert worst_maha < 1e-9
    print(f"\nACCEPTANCE 6 PASS: energy shift {worst_energy:.1e}, sm shift "
          f"{worst_sm:.1e}, mahalanobis vs brute force {worst_maha:.1e}")


def test_criterion_07_end_to_end_synthetic_reproduction(bufferfree_model, stream):
    train_parts = [t[0] for t in stream.tasks]
    features = np.concatenate([p.features for p in train_parts])
    labels = np.concatenate([p.labels for p in train_parts])
    means = np.stack([features[labels == c].mean(axis=0) for c in range(10)])
    test_features = np.concatenate([t[1].features for t in stream.tasks])
    test_labels = np.concatenate([t[1].labels for t in stream.tasks])
    distances = ((test_features[:, None, :] - means[None]) ** 2).sum(axis=2)
    oracle = float((distances.argmin(axis=1) == test_labels).mean())
    assert oracle >= 0.97, f"nearest-class-mean oracle too weak: {oracle}"

    row = oc.run_sweep(bufferfree_model, stream, ["dice"], ["enmd"]).rows[0]
    assert row.lca >= 0.90, row
    assert row.af <= 0.05, row
    assert row.auc >= 0.90, row
    print(f"\nACCEPTANCE 7 PASS: oracle={oracle:.4f}, enmd lca={row.lca:.4f}, "
          f"af={row.af:+.4f}, auc={row.auc:.4f}")


def test_criterion_08_replay_parity(bufferfree_model, morefw_model, stream):
    bufferfree_rows = oc.run_sweep(bufferfree_model, stream, ["base"],
                              ["sm", "smmd", "en", "enmd"]).rows
    replay_rows = oc.run_sweep(morefw_model, stream, ["base"],
                               ["sm", "smmd", "en", "enmd"]).rows
    best_bufferfree = max(r.lca for r in bufferfree_rows)
    best_replay = max(r.lca for r in replay_rows)
    gap = abs(best_bufferfree - best_replay)
    assert gap <= 0.05, (best_bufferfree, best_replay)
    print(f"\nACCEPTANCE 8 PASS: best-scorer lca buffer-free={best_bufferfree:.4f} vs "
          f"replay={best_replay:.4f} (|gap|={gap:.4f})")


def test_criterion_09_rejection_curve_endpoint(bufferfree_model, stream):
    # step 1 of 5 equal tasks leaves an in:out ratio of exactly 1:4
    scores, correct = oc.mixed_scores(bufferfree_model, stream, 1, "dice", "enmd")
    points = oc.rejection_curve(scores, correct, 5.0)
    endpoint = points[0]
    assert endpoint.rejection_rate == 0.0
    assert abs(endpoint.accuracy - 0.20) <= 0.02, endpoint

    from opencil.detectors import percentile
    previous = None
    for point in points:
        threshold = percentile(scores, point.rejection_rate * 100.0)
        retained = frozenset(np.flatnonzero(scores >= threshold).tolist())
        assert len(retained) == point.retained_count
        if previous is not None:
            assert retained <= previous
        previous = retained
    print(f"\nACCEPTANCE 9 PASS: zero-rejection accuracy {endpoint.accuracy:.4f} "
          f"(target 0.20 +/- 0.02), retained sets nested over {len(points)} points")


def test_criterion_10_sweep_determinism_and_shape(bufferfree_model, stream,
                                                  tmp_path_factory):
    workdir = tmp_path_factory.mktemp("acceptance_eval")
    train_all = oc.Dataset(
        np.concatenate([t[0].features for t in stream.tasks]),
        np.concatenate([t[0].labels for t in stream.tasks]),
    )
    test_all = oc.Dataset(
        np.concatenate([t[1].features for t in stream.tasks]),
        np.concatenate([t[1].labels for t in stream.tasks]),
    )
    oc.save_csv(train_all, str(workdir / "train.csv"))
    oc.save_csv(test_all, str(workdir / "test.csv"))
    model_path = workdir / "model.txt"
    oc.save_model(bufferfree_model, str(model_path))

    reports = [workdir / "r1.csv", workdir / "r2.csv"]
    for report in reports:
        code = cli_main(["eval", "--model", str(model_path),
                         "--data", str(workdir), "-o", str(report)])
        assert code == 0
    lines = reports[0].read_text().strip().splitlines()
    assert len(lines) == 17  # header + 16 detector-scorer rows
    assert lines[0] == "detector,scorer,lca,aia,af,auc,aupr"
    assert reports[0].read_bytes() == reports[1].read_bytes()
    print("\nACCEPTANCE 10 PASS: eval emits 16 rows and is byte-identical "
          "across two runs")
