import math
import zlib

import numpy as np
import pytest

import opencil as oc
from opencil.model import AdapterBank, ModelState, TaskHead, TrainStats, TrunkParams
from per_vector import whitening_factor


@pytest.fixture(scope="session")
def small_stream():
    """4 classes, 2 tasks, dim 8, strongly separated."""
    spec = oc.SynthSpec(num_classes=4, dim=8, per_class=60, mean_separation=8.0, seed=3)
    train, test = oc.holdout(oc.synth_gaussian(spec), 0.25, 3)
    return oc.split_tasks(train, test, 2)


@pytest.fixture(scope="session")
def small_hp():
    return oc.Hyperparams(epochs=30, learning_rate=0.01, batch_size=32,
                          hidden_width=32, seed=5)


@pytest.fixture(scope="session")
def small_model(small_stream, small_hp):
    model = oc.new_model(small_stream.tasks[0][0].dim, small_hp)
    oc.train_stream(model, small_stream, small_hp)
    return model


def manual_model(adapter_weights, adapter_bias, embeddings, heads, stats=None,
                 classes_per_task=None, slope_max=400.0):
    """Assemble a ModelState directly from arrays (for hand-built cases)."""
    adapter_weights = np.asarray(adapter_weights, dtype=np.float64)
    adapters = AdapterBank(
        weights=adapter_weights,
        bias=np.asarray(adapter_bias, dtype=np.float64),
        task_embeddings=[np.asarray(e, dtype=np.float64) for e in embeddings],
        slope_max=slope_max,
    )
    head_objs = [
        TaskHead(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64), ood)
        for w, b, ood in heads
    ]
    return ModelState(
        trunk=TrunkParams(adapter_weights.shape[0]),
        adapters=adapters,
        heads=head_objs,
        stats=list(stats) if stats else [],
        classes_per_task=classes_per_task,
    )


def manual_stats(class_means, covariance=None, mean_activations=None,
                 react_threshold=1.0):
    class_means = np.asarray(class_means, dtype=np.float64)
    hidden = class_means.shape[1]
    covariance = np.eye(hidden) if covariance is None else np.asarray(covariance, float)
    if mean_activations is None:
        mean_activations = class_means.mean(axis=0)
    return TrainStats(
        class_means=class_means,
        whitening_factor=whitening_factor(np.linalg.inv(covariance)),
        mean_activations=np.asarray(mean_activations, dtype=np.float64),
        react_threshold=react_threshold,
    )


def model_records(data):
    """A version 5 model file cut into its records, each with its line breaks: the
    header, a meta line, ``end``, or an array's record line, payload, line break
    and checksum line together."""
    records, at = [], 0
    while at < len(data):
        end = data.index(b"\n", at) + 1
        fields = data[at:end].split()
        if fields[0] == b"array":
            end = data.index(b"\n", end + 8 * math.prod(int(s) for s in fields[2:])) + 1
            end = data.index(b"\n", end) + 1
        records.append(data[at:end])
        at = end
    return records


def record_values(record):
    """A copy of the values of a version 5 array record, in its declared shape."""
    line, _, rest = record.partition(b"\n")
    shape = [int(s) for s in line.split()[2:]]
    return np.frombuffer(rest[:8 * math.prod(shape)], dtype="<f8").reshape(shape).copy()


def version_five_bytes(decimal_text):
    """The model file that ``decimal_text`` describes, as version 5 writes it:
    the decimal rows of each array become one little-endian payload with its CRC-32."""
    out, array = [], None  # the name and values so far of the open array record
    for line in decimal_text.splitlines():
        fields = line.split()
        if fields[0] in ("opencil-model", "meta", "array", "end"):
            if array:
                values = np.array(array[1], dtype="<f8")
                out += [values.tobytes(), b"\n",
                        f"crc32 {array[0]} {zlib.crc32(values):08x}\n".encode()]
            array = (fields[1], []) if fields[0] == "array" else None
            out.append(line.encode() + b"\n")
        else:
            array[1].extend(float(v) for v in fields)
    return b"".join(out)
