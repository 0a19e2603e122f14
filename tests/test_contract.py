"""The model contract: every reader of a whole model refuses one that is not.

``model._check_model`` states what makes a model whole. Inference (when it
builds a plan), ``save_model`` and training all check it first, so an edit
that breaks the contract fails in each of them with one ``ModelError`` and
one message, never with a bare numpy error or plausible-looking scores.
"""

import copy
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import opencil as oc
from conftest import model_records, record_values
from opencil.data import task_local
from opencil.errors import ModelError, ModelIOError
from opencil.model import _check_model

# (replay, trunk_dim, tasks, hidden) of every model drawn; each task has two classes
_KEYS = [(replay, trunk_dim, tasks, 4) for replay in (False, True)
         for trunk_dim in (None, 3) for tasks in (1, 2, 3)]
# at hidden 256 the plan keeps only the rows at or below each 128-unit column block
_KEYS += [(False, None, 2, 256), (True, None, 2, 256)]


@pytest.fixture(scope="module")
def whole_models():
    """Each key of ``_KEYS`` with its trained model, its stream (dim 8) and
    the Hyperparams it was trained with; replay runs back-update."""
    models = {}
    for replay, trunk_dim, tasks, hidden in _KEYS:
        hp = oc.Hyperparams(epochs=1, batch_size=16, hidden_width=hidden, seed=2)
        spec = oc.SynthSpec(num_classes=2 * tasks, dim=8, per_class=12, mean_separation=6.0,
                            seed=tasks)
        train, test = oc.holdout(oc.synth_gaussian(spec), 0.25, 1)
        stream = oc.split_tasks(train, test, tasks)
        model = oc.new_model(8, hp, trunk_dim=trunk_dim)
        oc.train_stream(model, stream, hp, replay=replay, backupdate=replay,
                        buffer_capacity=8)
        models[replay, trunk_dim, tasks, hidden] = (model, stream, hp)
    return models


def _array_slots(model):
    """(owner, key) of every model array: an attribute name, or a list index."""
    slots = [(model.adapters, "weights"), (model.adapters, "bias")]
    if model.trunk.projection is not None:
        slots.append((model.trunk, "projection"))
    slots += [(model.adapters.task_embeddings, t) for t in range(model.trained_tasks)]
    slots += [(head, key) for head in model.heads for key in ("weights", "bias")]
    slots += [(stats, key) for stats in model.stats
              for key in ("class_means", "whitening_factor", "mean_activations")]
    return slots


def _get(slot):
    owner, key = slot
    return owner[key] if isinstance(owner, list) else getattr(owner, key)


def _put(slot, value):
    owner, key = slot
    if isinstance(owner, list):
        owner[key] = value
    else:
        setattr(owner, key, value)


def _resized(array, axis, delta):
    """``array`` with one entry more (a copy of the last) or less along ``axis``."""
    if delta > 0:
        return np.concatenate([array, np.take(array, [-1], axis=axis)], axis=axis)
    return np.delete(array, -1, axis=axis)


def _symmetric_factor(model, t):
    """Task ``t``'s factor F replaced by the symmetric F F^T: a plausible
    array of the right shape, with entries above its diagonal."""
    stats = model.stats[t]
    stats.whitening_factor = stats.whitening_factor @ stats.whitening_factor.T
    return np.triu(stats.whitening_factor, 1).any()  # a diagonal F stays lower


@st.composite
def _edits(draw, model):
    """One edit that breaks the contract, applied to ``model`` in place; its label."""
    tasks = model.trained_tasks
    kind = draw(st.sampled_from(["list", "resize", "classes", "above-diagonal",
                                 "symmetric-factor"]))
    t = draw(st.integers(0, tasks - 1))
    if kind == "list":
        name = draw(st.sampled_from(["heads", "task_embeddings", "stats"]))
        entries = model.adapters.task_embeddings if name == "task_embeddings" else \
            getattr(model, name)
        if draw(st.booleans()):
            del entries[t]
            return f"drop {name}[{t}]"
        entries.append(copy.deepcopy(entries[t]))
        return f"append {name}[{t}]"
    if kind == "resize":
        slot = draw(st.sampled_from(_array_slots(model)))
        axis = draw(st.integers(0, _get(slot).ndim - 1))
        delta = draw(st.sampled_from([-1, 1]))
        _put(slot, _resized(_get(slot), axis, delta))
        return f"{slot[1]} axis {axis} {delta:+d}"
    if kind == "classes":
        model.classes_per_task = draw(st.sampled_from(
            [model.classes_per_task - 1, model.classes_per_task + 1, None]))
        return f"classes_per_task {model.classes_per_task}"
    if kind == "above-diagonal":
        factor = model.stats[t].whitening_factor.copy()
        hidden = len(factor)
        row = draw(st.integers(0, hidden - 2))
        column = draw(st.integers(row + 1, hidden - 1))
        factor[row, column] = draw(st.floats(allow_nan=False, allow_infinity=False)
                                   .filter(bool))
        model.stats[t].whitening_factor = factor
        return f"factor {t} entry ({row}, {column})"
    assume(_symmetric_factor(model, t))
    return f"symmetric factor {t}"


def _refusals(model, stream, hp, path, replay):
    """The ModelError message of every whole-model reader, by reader name, with
    ``back_update`` for a replay model of two or more tasks; a reader that
    returns or raises anything else fails the test."""
    features = stream.tasks[0][1].features
    readers = {
        "predict": lambda: oc.predict(model, "base", "smmd", features[0]),
        "run_sweep": lambda: oc.run_sweep(model, stream, ["base"], ["smmd"]),
        "score_table": lambda: oc.score_table(model, stream, "base", "smmd"),
        "train_task": lambda: oc.train_task(model, task_local(stream.tasks[0][0], 0, 2), hp),
        "save_model": lambda: oc.save_model(model, str(path)),
    }
    if replay and stream.num_tasks >= 2:
        buffer = oc.buffer_update(oc.Buffer.empty(8, 8), stream.tasks[0][0], 0, 0)
        readers["back_update"] = lambda: oc.back_update(model, buffer, hp)
    messages = {}
    for name, read in readers.items():
        with pytest.raises(ModelError) as caught:
            read()
        messages[name] = str(caught.value)
    return messages


def _assert_refused(model, stream, hp, path, replay):
    messages = _refusals(model, stream, hp, path, replay)
    assert len(set(messages.values())) == 1, messages
    assert not path.exists()


class TestWholeModels:
    @pytest.mark.parametrize("key", _KEYS, ids=str)
    def test_trained_and_loaded_models_pass(self, key, whole_models, tmp_path):
        model = whole_models[key][0]
        _check_model(model)
        path = tmp_path / "model.bin"
        oc.save_model(model, str(path))
        _check_model(oc.load_model(str(path)))

    def test_untrained_model_passes(self, tmp_path):
        model = oc.new_model(8, oc.Hyperparams(hidden_width=4), trunk_dim=3)
        _check_model(model)
        oc.save_model(model, str(tmp_path / "model.bin"))
        _check_model(oc.load_model(str(tmp_path / "model.bin")))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_model_that_loads_is_whole(self, data, whole_models, tmp_path_factory):
        # any one record changed, resealed: the load refuses it or returns a whole model
        key = data.draw(st.sampled_from(_KEYS), label="model")
        path = tmp_path_factory.getbasetemp() / "loaded.bin"
        oc.save_model(whole_models[key][0], str(path))
        records = model_records(path.read_bytes())
        at = data.draw(st.integers(1, len(records) - 2), label="record")
        fields = records[at].split(b"\n")[0].split()
        if fields[0] == b"meta":
            value = data.draw(st.integers(-1, 5), label="value")
            records[at] = b"meta %s %d\n" % (fields[1], value)
        else:
            values = record_values(records[at])
            index = data.draw(st.integers(0, values.size - 1), label="index")
            values.flat[index] = data.draw(st.floats(allow_nan=False, allow_infinity=False),
                                           label="value")
            values = np.ascontiguousarray(values, dtype="<f8")
            records[at] = (b" ".join(fields) + b"\n" + values.tobytes() + b"\n"
                           + b"crc32 %s %08x\n" % (fields[1], zlib.crc32(values)))
        path.write_bytes(b"".join(records))
        try:
            loaded = oc.load_model(str(path))
        except ModelIOError:
            return
        _check_model(loaded)


class TestBrokenModels:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_edit_is_refused_by_every_reader(self, data, whole_models,
                                                 tmp_path_factory):
        key = data.draw(st.sampled_from(_KEYS), label="model")
        model, stream, hp = whole_models[key]
        model = copy.deepcopy(model)
        data.draw(_edits(model), label="edit")
        _assert_refused(model, stream, hp, tmp_path_factory.getbasetemp() / "never.bin",
                        replay=key[0])

    @pytest.mark.parametrize("replay", [False, True])
    def test_symmetric_factor_at_hidden_256(self, replay, whole_models, tmp_path):
        # the plan keeps only the rows a..h-1 of each 128-unit column block, so it
        # would drop the entries above the diagonal and score without them
        model, stream, hp = whole_models[replay, None, 2, 256]
        model = copy.deepcopy(model)
        assert _symmetric_factor(model, 1)
        _assert_refused(model, stream, hp, tmp_path / "model.bin", replay)

    @pytest.mark.parametrize("replay", [False, True])
    @pytest.mark.parametrize("edit", [
        lambda m: setattr(m.stats[0], "class_means", m.stats[0].class_means[:1]),
        lambda m: setattr(m.stats[1], "mean_activations", m.stats[1].mean_activations[1:]),
        lambda m: m.adapters.task_embeddings.__setitem__(0, np.zeros(5)),
        lambda m: setattr(m.adapters, "bias", np.zeros(3)),
        lambda m: setattr(m.heads[1], "bias", np.append(m.heads[1].bias, 0.0)),
        lambda m: m.stats.pop(),
        lambda m: m.adapters.task_embeddings.pop(),
        lambda m: m.stats.append(m.stats[0]),
        lambda m: setattr(m, "classes_per_task", 3),
    ], ids=["class-means", "mean-activations", "embedding", "adapter-bias", "head-bias",
            "stats-dropped", "embedding-dropped", "stats-appended", "classes"])
    def test_edit_once_a_traceback_or_a_silent_skip(self, edit, replay, whole_models,
                                                   tmp_path):
        model, stream, hp = whole_models[replay, None, 2, 4]
        model = copy.deepcopy(model)
        edit(model)
        _assert_refused(model, stream, hp, tmp_path / "model.bin", replay)

    def test_train_task_appends_nothing_to_a_broken_model(self, whole_models):
        # with one TrainStats short, the next task's would land at the wrong index
        model, stream, hp = whole_models[False, None, 2, 4]
        model = copy.deepcopy(model)
        model.stats.pop()
        with pytest.raises(ModelError, match="^model has 2 heads but 2 task embeddings and "
                                             "1 train statistics$"):
            oc.train_task(model, task_local(stream.tasks[1][0], 1, 2), hp)
        assert (model.trained_tasks, len(model.stats)) == (2, 1)
