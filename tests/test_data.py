import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import opencil as oc
from opencil.errors import DataError, ModelError
from opencil.rng import substream


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path / "d.csv", "label,f0,f1\n0,1.0,2.0\n1,0.5,-0.5\n")
        ds = oc.load_csv(path)
        assert ds.dim == 2
        assert ds.num_classes == 2
        assert len(ds) == 2
        assert np.array_equal(ds.features, [[1.0, 2.0], [0.5, -0.5]])
        assert np.array_equal(ds.labels, [0, 1])

    def test_inconsistent_width(self, tmp_path):
        path = write(tmp_path / "d.csv", "label,f0,f1\n0,1.0,2.0\n1,0.5,-0.5,9.0\n")
        with pytest.raises(DataError, match="inconsistent width at row 3"):
            oc.load_csv(path)

    def test_missing_class(self, tmp_path):
        path = write(tmp_path / "d.csv", "label,f0\n0,1.0\n2,2.0\n")
        with pytest.raises(DataError, match="class 1 has no samples"):
            oc.load_csv(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "d.csv", "")
        with pytest.raises(DataError, match="empty file"):
            oc.load_csv(path)

    def test_header_only(self, tmp_path):
        path = write(tmp_path / "d.csv", "label,f0\n")
        with pytest.raises(DataError, match="no data rows"):
            oc.load_csv(path)

    def test_non_numeric_field(self, tmp_path):
        path = write(tmp_path / "d.csv", "label,f0\n0,1.0\n1,oops\n")
        with pytest.raises(DataError, match="non-numeric field at row 3"):
            oc.load_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_field(self, value, tmp_path):
        path = write(tmp_path / "d.csv", f"label,f0,f1\n0,1.0,2.0\n\n1,2.0,{value}\n")
        with pytest.raises(DataError, match="non-finite field at row 4"):
            oc.load_csv(path)

    def test_non_numeric_label(self, tmp_path):
        path = write(tmp_path / "d.csv", "label,f0\nx,1.0\n0,2.0\n")
        with pytest.raises(DataError, match="non-numeric label at row 2"):
            oc.load_csv(path)

    def test_bad_header(self, tmp_path):
        path = write(tmp_path / "d.csv", "lbl,a,b\n0,1.0,2.0\n")
        with pytest.raises(DataError, match="malformed header"):
            oc.load_csv(path)

    @pytest.mark.parametrize("text,row", [
        (b"label,f0\xff\n0,1.0\n", 1),
        (b"label,f0\n0,1.0\n1,2.\xfe0\n", 3),
        (b"label,f0\r\n0,1.0\r\n\r\n1,\xc3\n", 4),  # a cut two-byte sequence
    ], ids=["header", "field", "crlf-after-a-blank-row"])
    def test_text_that_is_not_utf8_is_refused_at_its_row(self, text, row, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        with pytest.raises(DataError, match=f"d.csv: row {row} is not UTF-8 text"):
            oc.load_csv(str(path))

    # a label at or above the number of data rows leaves a class empty; the two
    # large ones overflowed int64 and sized a label + 1 counter array before
    @pytest.mark.parametrize("label", ["3", "4000000000000000000",
                                       "100000000000000000000000000000"])
    def test_label_no_dense_labelling_can_hold_is_refused_at_its_row(self, label,
                                                                     tmp_path):
        path = write(tmp_path / "d.csv", f"label,f0\n0,1.0\n{label},2.0\n1,3.0\n")
        with pytest.raises(DataError, match=f"class 2 has no samples: label {label} at "
                                            f"row 3 is not below the 3 data rows"):
            oc.load_csv(path)


class TestSaveCsv:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = oc.Dataset(rng.normal(size=(40, 5)) * 100, rng.integers(0, 3, 40))
        if len(np.unique(ds.labels)) < 3:  # keep classes dense
            ds = oc.Dataset(ds.features, np.repeat([0, 1, 2], 40)[:40])
        path = tmp_path / "d.csv"
        oc.save_csv(ds, str(path))
        back = oc.load_csv(str(path))
        assert np.array_equal(back.labels, ds.labels)
        np.testing.assert_allclose(back.features, ds.features, rtol=1e-8)

    def test_second_round_trip_byte_stable(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = oc.Dataset(rng.normal(size=(30, 4)), np.repeat([0, 1, 2], 10))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        oc.save_csv(ds, str(p1))
        oc.save_csv(oc.load_csv(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestSynthGaussian:
    SPEC = oc.SynthSpec(num_classes=2, dim=2, per_class=3, mean_separation=8.0, seed=1)

    def test_sample_count(self):
        spec = oc.SynthSpec(num_classes=5, dim=6, per_class=7, mean_separation=4.0, seed=2)
        ds = oc.synth_gaussian(spec)
        assert len(ds) == 35
        assert ds.num_classes == 5
        assert ds.dim == 6

    def test_empirical_mean_separation(self):
        # expected distance is 8; the n=3 sampling noise bound allows 8 - 3
        ds = oc.synth_gaussian(self.SPEC)
        m0 = ds.features[ds.labels == 0].mean(axis=0)
        m1 = ds.features[ds.labels == 1].mean(axis=0)
        assert np.linalg.norm(m0 - m1) >= 5.0

    def test_determinism(self):
        a = oc.synth_gaussian(self.SPEC)
        b = oc.synth_gaussian(self.SPEC)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_determinism_on_disk(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        oc.save_csv(oc.synth_gaussian(self.SPEC), str(p1))
        oc.save_csv(oc.synth_gaussian(self.SPEC), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_separation_rejected(self):
        with pytest.raises(DataError, match="mean_separation"):
            oc.SynthSpec(num_classes=2, dim=2, per_class=3, mean_separation=0.0, seed=1)

    def test_dim_too_small(self):
        # refused when the recipe is made, before anything is drawn
        with pytest.raises(DataError, match="minimum feasible dim is 3"):
            oc.SynthSpec(num_classes=3, dim=2, per_class=5, mean_separation=4.0, seed=1)

    def test_exact_mean_placement(self):
        # with many samples the empirical distance concentrates near the target
        spec = oc.SynthSpec(num_classes=4, dim=16, per_class=4000,
                            mean_separation=6.0, seed=9)
        ds = oc.synth_gaussian(spec)
        means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.linalg.norm(means[i] - means[j]) - 6.0) < 0.2


class TestSplitTasks:
    def _pair(self, num_classes=10, per_class=6):
        spec = oc.SynthSpec(num_classes=num_classes, dim=num_classes,
                            per_class=per_class, mean_separation=4.0, seed=4)
        ds = oc.synth_gaussian(spec)
        return oc.holdout(ds, 0.5, 4)

    def test_task_class_ranges(self):
        train, test = self._pair()
        stream = oc.split_tasks(train, test, 5)
        assert stream.classes_per_task == 2
        assert set(stream.tasks[0][0].labels.tolist()) == {0, 1}
        assert set(stream.tasks[4][0].labels.tolist()) == {8, 9}
        assert set(stream.tasks[4][1].labels.tolist()) == {8, 9}

    def test_single_task_identity(self):
        train, test = self._pair()
        stream = oc.split_tasks(train, test, 1)
        assert stream.num_tasks == 1
        assert len(stream.tasks[0][0]) == len(train)
        assert np.array_equal(stream.tasks[0][0].features, train.features)

    def test_indivisible_class_count(self):
        train, test = self._pair()
        with pytest.raises(DataError, match="cannot be split"):
            oc.split_tasks(train, test, 3)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([(4, 2), (6, 2), (6, 3), (8, 4), (12, 4)]))
    def test_label_disjointness(self, shape):
        num_classes, num_tasks = shape
        spec = oc.SynthSpec(num_classes=num_classes, dim=num_classes,
                            per_class=4, mean_separation=4.0, seed=6)
        ds = oc.synth_gaussian(spec)
        train, test = oc.holdout(ds, 0.5, 6)
        stream = oc.split_tasks(train, test, num_tasks)
        label_sets = [set(t[0].labels.tolist()) | set(t[1].labels.tolist())
                      for t in stream.tasks]
        for i in range(num_tasks):
            for j in range(i + 1, num_tasks):
                assert not (label_sets[i] & label_sets[j])


class TestHoldout:
    def test_stratified_counts(self):
        spec = oc.SynthSpec(num_classes=3, dim=4, per_class=100,
                            mean_separation=4.0, seed=8)
        ds = oc.synth_gaussian(spec)
        train, test = oc.holdout(ds, 0.2, 8)
        for c in range(3):
            assert (test.labels == c).sum() == 20
            assert (train.labels == c).sum() == 80

    def test_partition_multiset(self):
        spec = oc.SynthSpec(num_classes=2, dim=3, per_class=25,
                            mean_separation=4.0, seed=2)
        ds = oc.synth_gaussian(spec)
        train, test = oc.holdout(ds, 0.4, 11)
        combined = np.concatenate([
            np.column_stack([train.labels, train.features]),
            np.column_stack([test.labels, test.features]),
        ])
        original = np.column_stack([ds.labels, ds.features])
        key = lambda m: m[np.lexsort(m.T)]
        assert np.array_equal(key(combined), key(original))

    def test_determinism(self):
        spec = oc.SynthSpec(num_classes=2, dim=3, per_class=30,
                            mean_separation=4.0, seed=2)
        ds = oc.synth_gaussian(spec)
        a_train, a_test = oc.holdout(ds, 0.3, 17)
        b_train, b_test = oc.holdout(ds, 0.3, 17)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.features, b_test.features)

    def test_tiny_class_rejected(self):
        ds = oc.Dataset(np.zeros((3, 2)), np.array([0, 0, 1]))
        with pytest.raises(DataError, match="class 1 has 1 sample"):
            oc.holdout(ds, 0.5, 0)

    def test_bad_fraction(self):
        ds = oc.Dataset(np.zeros((4, 2)), np.array([0, 0, 1, 1]))
        with pytest.raises(DataError, match="test_fraction"):
            oc.holdout(ds, 1.0, 0)


class TestTaskLocal:
    def test_remap(self):
        ds = oc.Dataset(np.zeros((4, 2)), np.array([4, 5, 5, 4]))
        local = oc.task_local(ds, 2, 2)
        assert np.array_equal(local.labels, [0, 1, 1, 0])

    def test_out_of_range(self):
        ds = oc.Dataset(np.zeros((2, 2)), np.array([0, 1]))
        with pytest.raises(DataError, match="outside task 2 range"):
            oc.task_local(ds, 2, 2)


class TestDataset:
    def test_view_is_copied(self):
        features, labels = np.zeros((10, 3)), np.arange(10) % 2
        ds = oc.Dataset(features[:5], labels[:5])
        features[0, 0], labels[0] = 5.0, 1  # a write through the viewed arrays
        assert ds.features[0, 0] == 0.0 and ds.labels[0] == 0
        assert not ds.features.flags.writeable and not ds.labels.flags.writeable
        # arrays that own their data, such as another Dataset's, are kept
        again = oc.Dataset(ds.features, ds.labels)
        assert again.features is ds.features and again.labels is ds.labels


_TINY = oc.SynthSpec(num_classes=2, dim=2, per_class=4, mean_separation=3.0, seed=1)


@pytest.mark.parametrize("make, error", [
    (lambda ds: replace(_TINY, num_classes=2.0), DataError),
    (lambda ds: replace(_TINY, dim=8.0), DataError),
    (lambda ds: replace(_TINY, per_class=10.5), DataError),
    (lambda ds: replace(_TINY, seed=2.5), DataError),
    (lambda ds: oc.split_tasks(ds, ds, 2.0), DataError),
    (lambda ds: oc.holdout(ds, 0.5, 2.5), DataError),
    (lambda ds: oc.holdout(ds, 0.5, -1), DataError),
    (lambda ds: oc.buffer_update(oc.Buffer.empty(4, 2), ds, 0, 2.5), ModelError),
    (lambda ds: oc.buffer_update(oc.Buffer.empty(4, 2), ds, 0, -1), ModelError),
], ids=["num_classes", "dim", "per_class", "synth_seed", "num_tasks", "holdout_seed",
        "holdout_negative_seed", "buffer_seed", "buffer_negative_seed"])
def test_seed_or_count_that_is_not_a_non_negative_integer_is_refused(make, error):
    ds = oc.synth_gaussian(_TINY)
    # numpy integers pass
    replace(_TINY, seed=np.uint8(2)), oc.split_tasks(ds, ds, np.int64(2))
    oc.holdout(ds, 0.5, np.int32(3)), oc.buffer_update(oc.Buffer.empty(4, 2), ds, 0, np.int8(1))
    with pytest.raises(error, match=r"^(num_classes|dim|per_class|seed|num_tasks) must be an "
                                    r"integer, got|^seed must be >= 0, got -1$"):
        make(ds)


@pytest.mark.parametrize("changes, message", [
    ({"mean_separation": math.inf}, r"^mean_separation must be positive and finite, got inf$"),
    ({"mean_separation": math.nan}, r"^mean_separation must be positive and finite, got nan$"),
    ({"dim": 10**20}, r"^rotation of shape \(10{20}, 10{20}\) exceeds numpy's largest array"),
    ({"dim": 10**12}, r"^rotation of shape .* exceeds numpy's largest array"),
    ({"per_class": 10**20}, r"^features of shape \(2, 10{20}, 2\) exceeds numpy's largest"),
    ({"num_classes": 3}, r"^dim 2 too small to place 3 class means"),
], ids=["sep_inf", "sep_nan", "dim_1e20", "dim_1e12", "per_class_1e20", "dim_below_classes"])
def test_recipe_refused_before_anything_is_drawn(changes, message):
    with pytest.raises(DataError, match=message):
        replace(_TINY, **changes)


@pytest.mark.parametrize("task, classes_per_task", [(1.0, 2), (1, 2.0), (-1, 2), (1, 0)])
def test_task_local_refuses_a_task_or_width_out_of_range(task, classes_per_task):
    ds = oc.Dataset(np.zeros((4, 2)), np.array([2, 3, 2, 3]))
    oc.task_local(ds, np.int64(1), np.int8(2))  # numpy integers pass
    with pytest.raises(DataError, match=r"^(task|classes_per_task) must be (an integer|>= )"):
        oc.task_local(ds, task, classes_per_task)


def test_substream_refuses_a_seed_that_is_not_a_non_negative_integer():
    assert substream(np.uint8(3), "x").random() == substream(3, "x").random()
    for seed, message in ((2.5, "seed must be an integer, got 2.5"),
                          (-1, "seed must be >= 0, got -1")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            substream(seed, "x")
