"""``run_sweep``'s report rows against the plain per-step formulas.

The reference below is the sweep as it was before the per-pair work was
shared: one argmax and one boolean mask per task per step, the ROC area from
``np.unique`` average ranks and the precision-recall area from its own
mergesort. The program derives every step from one running maximum over
heads, one ``bincount`` and one sort per step; its rows must equal these bit
for bit, ties across heads and across samples included.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opencil as oc
from opencil import metrics, pipeline

DETECTORS = [oc.Detector(kind) for kind in oc.DETECTOR_KINDS]
SCORERS = [oc.Scorer(kind) for kind in oc.SCORER_KINDS]


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the mean rank of their group."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    group_rank = ends - (counts - 1) / 2.0
    return group_rank[inverse]


def reference_auc(ind_scores, ood_scores) -> float:
    """Rank-based ROC area: P(ind > ood) + 0.5 P(ind = ood)."""
    ind = np.asarray(ind_scores, dtype=np.float64).ravel()
    ood = np.asarray(ood_scores, dtype=np.float64).ravel()
    if ind.size == 0 or ood.size == 0:
        raise ValueError("auc needs non-empty score lists")
    if not (np.isfinite(ind).all() and np.isfinite(ood).all()):
        raise ValueError("auc needs finite scores")
    ranks = _average_ranks(np.concatenate([ind, ood]))
    u = ranks[: ind.size].sum() - ind.size * (ind.size + 1) / 2.0
    return float(u / (ind.size * ood.size))


def reference_aupr(ind_scores, ood_scores) -> float:
    """Step-wise precision-recall area with in-distribution positive."""
    ind = np.asarray(ind_scores, dtype=np.float64).ravel()
    ood = np.asarray(ood_scores, dtype=np.float64).ravel()
    if ind.size == 0 or ood.size == 0:
        raise ValueError("aupr needs non-empty score lists")
    if not (np.isfinite(ind).all() and np.isfinite(ood).all()):
        raise ValueError("aupr needs finite scores")
    scores = np.concatenate([ind, ood])
    positive = np.concatenate([np.ones(ind.size), np.zeros(ood.size)])

    order = np.argsort(-scores, kind="mergesort")
    scores = scores[order]
    positive = positive[order]
    true_pos = np.cumsum(positive)
    predicted = np.arange(1, scores.size + 1, dtype=np.float64)

    # last position of each distinct score = that threshold's operating point
    last = np.flatnonzero(np.diff(scores) != 0)
    last = np.concatenate([last, [scores.size - 1]])
    precision = true_pos[last] / predicted[last]
    recall = true_pos[last] / ind.size
    return float(np.sum(np.diff(np.concatenate([[0.0], recall])) * precision))


def reference_sweep_row(detector, scorer, scores, classes, labels, tasks,
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
        step_auc.append(reference_auc(ind, ood))
        step_aupr.append(reference_aupr(ind, ood))

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


def _assert_same_row(got: metrics.ReportRow, expected: metrics.ReportRow) -> None:
    # == compares every field; repr also tells -0.0 from 0.0
    assert got == expected
    assert repr(got) == repr(expected)


# a few values, so that ties across heads and across samples are common
_VALUES = st.sampled_from([-2.5, -1.0, 0.0, 0.25, 0.25 + 2.0 ** -52, 1.0, 3.0])


@st.composite
def sweep_inputs(draw):
    """(scores, classes, labels, tasks, num_tasks) of a sweep over drawn heads."""
    num_tasks = draw(st.integers(2, 5))
    classes_per_task = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 6), min_size=num_tasks, max_size=num_tasks))
    tasks = np.repeat(np.arange(num_tasks), sizes)
    if draw(st.booleans()):  # the rows need not come grouped by task
        tasks = tasks[draw(st.permutations(range(len(tasks))))]
    n = len(tasks)
    scores = np.array(draw(st.lists(_VALUES, min_size=n * num_tasks,
                                    max_size=n * num_tasks))).reshape(n, num_tasks)
    local = st.integers(0, classes_per_task - 1)
    labels = tasks * classes_per_task + np.array(draw(st.lists(local, min_size=n, max_size=n)))
    classes = (np.arange(num_tasks) * classes_per_task
               + np.array(draw(st.lists(local, min_size=n * num_tasks,
                                        max_size=n * num_tasks))).reshape(n, num_tasks))
    return scores, classes.astype(np.int64), labels.astype(np.int64), tasks, num_tasks


class TestSweepRow:
    @settings(max_examples=300, deadline=None)
    @given(sweep_inputs())
    def test_matches_reference_with_ties(self, inputs):
        pair = (oc.Detector("dice"), oc.Scorer("enmd"))
        _assert_same_row(pipeline._sweep_row(*pair, *inputs),
                         reference_sweep_row(*pair, *inputs))

    def test_ties_across_heads_go_to_the_lower_head(self):
        # the first two samples tie heads 0 and 1; only head 0 predicts their class
        scores = np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 5.0]])
        classes = np.array([[0, 1], [0, 1], [0, 1]])
        labels, tasks = np.array([0, 0, 1]), np.array([0, 0, 1])
        row = pipeline._sweep_row(DETECTORS[0], SCORERS[0], scores, classes, labels, tasks, 2)
        assert row.step_accuracies == [1.0, 1.0]


class TestSeparation:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_VALUES, min_size=1, max_size=25), st.lists(_VALUES, min_size=1, max_size=25))
    def test_auc_and_aupr_match_reference_with_ties(self, ind, ood):
        assert repr(metrics.auc(ind, ood)) == repr(reference_auc(ind, ood))
        assert repr(metrics.aupr(ind, ood)) == repr(reference_aupr(ind, ood))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
           st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    def test_auc_and_aupr_match_reference(self, ind, ood):
        assert repr(metrics.auc(ind, ood)) == repr(reference_auc(ind, ood))
        assert repr(metrics.aupr(ind, ood)) == repr(reference_aupr(ind, ood))

    @pytest.mark.parametrize("positive", [[True, True], [False, False]])
    def test_one_population_is_refused(self, positive):
        with pytest.raises(ValueError, match="non-empty"):
            metrics.separation(np.array([0.0, 1.0]), np.array(positive))


@pytest.fixture(scope="module")
def four_task_cases():
    """A buffer-free and a replay model over 4 tasks, with their test streams."""
    spec = oc.SynthSpec(num_classes=8, dim=8, per_class=30, mean_separation=3.0, seed=21)
    train, test = oc.holdout(oc.synth_gaussian(spec), 0.25, 21)
    stream = oc.split_tasks(train, test, 4)
    hp = oc.Hyperparams(epochs=8, learning_rate=0.01, batch_size=32, hidden_width=16, seed=22)
    cases = []
    for replay in (False, True):
        model = oc.new_model(spec.dim, hp, trunk_dim=6 if replay else None)
        oc.train_stream(model, stream, hp, replay=replay, backupdate=replay,
                        buffer_capacity=16)
        cases.append((model, stream))
    return cases


def _lone_pass(model, features, upto, detector, scorer):
    """A pass of one detector-scorer pair: classes and (n, upto) scores."""
    classes, scores = pipeline._forward(model, features, upto, [detector], [scorer])
    return classes, scores[0, 0]


def _reference_report(model, stream, detectors, scorers):
    features, labels, tasks = pipeline._stack_tests(stream)
    rows = []
    for detector in detectors:
        for scorer in scorers:
            classes, scores = _lone_pass(model, features, stream.num_tasks, detector, scorer)
            rows.append(reference_sweep_row(detector, scorer, scores, classes, labels,
                                            tasks, stream.num_tasks))
    return rows


class TestRunSweep:
    def test_all_pairs_of_the_small_model(self, small_model, small_stream):
        report = oc.run_sweep(small_model, small_stream, DETECTORS, SCORERS)
        expected = _reference_report(small_model, small_stream, DETECTORS, SCORERS)
        assert len(report.rows) == 16
        for got, want in zip(report.rows, expected):
            _assert_same_row(got, want)

    @pytest.mark.parametrize("case", [0, 1], ids=["buffer-free", "replay"])
    def test_all_pairs_over_four_tasks(self, four_task_cases, case):
        model, stream = four_task_cases[case]
        report = oc.run_sweep(model, stream, DETECTORS, SCORERS)
        for got, want in zip(report.rows, _reference_report(model, stream, DETECTORS,
                                                            SCORERS)):
            _assert_same_row(got, want)

    def test_scorers_sharing_a_base_match_lone_passes(self, four_task_cases):
        # sm and smmd share one base, en and enmd one per temperature
        model, stream = four_task_cases[0]
        scorers = [oc.Scorer("en", 2.0), oc.Scorer("sm"), oc.Scorer("enmd", 2.0),
                   oc.Scorer("en"), oc.Scorer("smmd"), oc.Scorer("enmd", 0.5)]
        detectors = [oc.Detector("dice", 40.0), oc.Detector("scale", 60.0), DETECTORS[0]]
        features, _, _ = pipeline._stack_tests(stream)
        classes, scores = pipeline._forward(model, features, 4, detectors, scorers)
        for i, detector in enumerate(detectors):
            for j, scorer in enumerate(scorers):
                alone_classes, alone = _lone_pass(model, features, 4, detector, scorer)
                assert alone.tobytes() == scores[i, j].tobytes()
                assert (alone_classes == classes).all()

    @pytest.mark.parametrize("case", [0, 1], ids=["buffer-free", "replay"])
    def test_evaluate_closed_equals_the_sweep_at_every_step(self, four_task_cases, case):
        # all read one pass over the same stacked rows and one step rule, so they
        # agree exactly
        model, stream = four_task_cases[case]
        report = oc.run_sweep(model, stream, DETECTORS, SCORERS)
        tasks = pipeline._stack_tests(stream)[2]
        for d in DETECTORS:
            for s in SCORERS:
                row = report.row(d.kind, s.kind)
                for k in range(1, stream.num_tasks + 1):
                    result = oc.evaluate_closed(model, stream, k, d, s)
                    assert result.accuracy == row.step_accuracies[k - 1]
                    assert list(result.per_task) == row.per_task_accuracies[k - 1]
                    _, correct = oc.mixed_scores(model, stream, k, d, s)
                    seen = tasks < k
                    assert correct[seen].sum() / seen.sum() == row.step_accuracies[k - 1]
                    if k < stream.num_tasks:
                        auc = metrics.auc(*oc.evaluate_open(model, stream, k, d, s))
                        assert repr(auc) == repr(row.step_auc[k - 1])
