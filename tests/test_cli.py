import argparse
import contextlib
import hashlib
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import opencil as oc
from conftest import model_records, record_values
from opencil import cli
from opencil.cli import _DEFAULTS, main


SIGNALLING_NAN = np.array([0x7FF0000000000001], dtype="<u8").view("<f8")


def _sealed(header, values):
    """A version 5 array record: ``header``, ``values`` as its payload and a
    checksum that matches them."""
    values = np.ascontiguousarray(values, dtype="<f8")
    return (f"{header}\n".encode() + values.tobytes() + b"\n"
            + f"crc32 {header.split()[1]} {zlib.crc32(values):08x}\n".encode())


def _parts(record):
    """An array record's line, payload and checksum line, each with no line break."""
    line, rest = record.split(b"\n", 1)
    payload, crc = rest[:-1].rsplit(b"\n", 1)
    return line, payload, crc


def _unsealed(record, payload):
    """``record`` with its payload replaced by ``payload``, keeping its checksum."""
    line, _, crc = _parts(record)
    return line + b"\n" + payload + b"\n" + crc + b"\n"


def _with_value(record, index, value):
    """``record`` whose flat value ``index`` is ``value``, with its checksum resealed."""
    values = record_values(record)
    values.flat[index] = value
    return _sealed(_parts(record)[0].decode(), values)


def _with_diagonal(record, unit, value):
    """A packed whitening-factor record whose diagonal entry ``unit`` is ``value``."""
    return _with_value(record, unit * (unit + 3) // 2, value)


def _not_a_number(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


def _positive_int(text):
    try:
        return int(text) >= 1
    except ValueError:
        return False


def _not_a_valid_step(text):  # the test model has two steps
    try:
        return not 1 <= int(text.strip()) <= 2
    except ValueError:
        return True


_TEXT = st.text(max_size=8).filter(_not_a_number)
_NON_FINITE = st.sampled_from(["nan", "NaN", "inf", "-inf", "1e400", "-1e400"])
_NEGATIVE_OR_ZERO = st.floats(max_value=0.0, allow_nan=False, allow_infinity=False)
_ABOVE_100 = st.floats(min_value=100.0, exclude_min=True, allow_infinity=False)


def _bad_floats(*out_of_range):
    return st.one_of(_TEXT, _NON_FINITE, *(s.map(repr) for s in out_of_range))


def _bad_ints(out_of_range):
    return st.one_of(_TEXT, st.sampled_from(["1.5", "1e3", "nan"]), out_of_range.map(str))


# flag: command, config key and malformed values; the data has 4 classes and the model 2 tasks
_MALFORMED = {
    "--steps": ("curve", "steps", st.one_of(
        st.lists(st.text(max_size=6).filter(lambda s: "," not in s and _not_a_valid_step(s)),
                 min_size=1, max_size=3).map(",".join),
        st.integers().filter(lambda k: not 1 <= k <= 2).map(str))),
    "--grid-step": ("curve", "grid_step", _bad_floats(
        _NEGATIVE_OR_ZERO, _ABOVE_100,
        st.floats(0.01, 100.0).filter(lambda g: abs(100 / g - round(100 / g)) > 1e-6))),
    "--dice-percentile": ("eval", "dice_percentile", _bad_floats(
        st.floats(max_value=0.0, exclude_max=True, allow_infinity=False), _ABOVE_100)),
    "--react-percentile": ("train", "react_percentile", _bad_floats(
        st.floats(max_value=0.0, exclude_max=True, allow_infinity=False), _ABOVE_100)),
    "--temperature": ("eval", "temperature", _bad_floats(_NEGATIVE_OR_ZERO)),
    "--tasks": ("train", "tasks", _bad_ints(st.integers().filter(lambda k: k not in (1, 2, 4)))),
    "--epochs": ("train", "epochs", _bad_ints(st.integers(max_value=0))),
    "--lr": ("train", "learning_rate", _bad_floats(_NEGATIVE_OR_ZERO)),
    "--hidden": ("train", "hidden_width", _bad_ints(st.integers(max_value=0))),
    "--backupdate-epochs": ("train", "backupdate_epochs",
                            _bad_ints(st.integers(max_value=0))),
}


# settings that size an array: 10**20 of one is refused before anything is allocated.
# Every other integer drawn is small, or one that the data refuses (_MALFORMED's task
# counts), so no accepted run loops long or allocates much.
_SIZES = {"classes", "dim", "per_class", "hidden_width", "trunk_dim"}
_SMALL_INTS = st.integers(-2, 6).map(str)
_POOL = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "2.5", "1e308", "1e-320", ""])
# malformed lists and kinds of detectors and scorers, and a valid kind of each
_KINDS = st.sampled_from(["", ",", "base,base", "sm,sm", "BASE", "nope", "sm,,en",
                          "dice,scale", "base", "sm"])
# by value type, or by config key for the string settings drawn
_VALUES = {
    int: st.one_of(_POOL, _SMALL_INTS, _TEXT, st.sampled_from(["1.5", "1e3"])),
    float: st.one_of(_POOL, st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.floats(1e-3, 100.0).map(repr), _TEXT, _NON_FINITE),
    "steps": st.sampled_from(["1", "2", "1,2", "1,1"]),  # which _MALFORMED adds to
    **dict.fromkeys(["detectors", "scorers", "detector", "scorer"], _KINDS),
}


def _setting_cases():
    """(command, key, flag, values) for every int and float setting of every
    command, every string setting of ``_VALUES`` and every setting of
    ``_MALFORMED``; its values include the malformed ones."""
    malformed = {key: (command, values) for command, key, values in _MALFORMED.values()}
    cases = []
    for key, (kind, _, commands, flag, _) in cli._SETTINGS.items():
        pool = _VALUES.get(kind if kind in (int, float) else key)
        if pool is None and key not in malformed:
            continue
        for command in commands.split():
            values = [] if pool is None else [pool]
            if key in _SIZES:
                values.append(st.just(str(10**20)))
            if malformed.get(key, (None,))[0] == command:
                values.append(malformed[key][1])
            cases.append((command, key, flag, st.one_of(values)))
    return cases


_SETTING_CASES = _setting_cases()


# each command's option strings, with the setting each sets and its value type
# ("flag": takes no value), and each config key with its type
_OPTIONS = {
    "synth": {"--classes": "classes:int", "--dim": "dim:int", "--per-class": "per_class:int",
              "--sep": "separation:float", "--seed": "seed:int",
              "--test-fraction": "test_fraction:float", "-o": "out:str", "--out": "out:str",
              "--config": "config:str"},
    "train": {"--data": "data:str", "--tasks": "tasks:int", "--epochs": "epochs:int",
              "--lr": "learning_rate:float", "--batch": "batch_size:int",
              "--hidden": "hidden_width:int", "--slope-max": "slope_max:float",
              "--ridge": "covariance_ridge:float", "--trunk-dim": "trunk_dim:int",
              "--seed": "seed:int", "--react-percentile": "react_percentile:float",
              "--replay": "replay:flag", "--buffer": "buffer_capacity:int",
              "--backupdate": "backupdate:flag",
              "--backupdate-epochs": "backupdate_epochs:int", "-o": "model:str",
              "--model": "model:str", "--log": "log:str", "--config": "config:str"},
    "eval": {"--model": "model:str", "--data": "data:str", "--detectors": "detectors:str",
             "--scorers": "scorers:str", "--temperature": "temperature:float",
             "--dice-percentile": "dice_percentile:float",
             "--scale-percentile": "scale_percentile:float", "-o": "out:str",
             "--out": "out:str", "--config": "config:str"},
    "curve": {"--model": "model:str", "--data": "data:str", "--steps": "steps:str",
              "--detector": "detector:str", "--scorer": "scorer:str",
              "--temperature": "temperature:float",
              "--dice-percentile": "dice_percentile:float",
              "--scale-percentile": "scale_percentile:float",
              "--grid-step": "grid_step:float", "-o": "out:str", "--out": "out:str",
              "--config": "config:str"},
}
_CONFIG_KEYS = {
    "classes": "int", "dim": "int", "per_class": "int", "separation": "float",
    "test_fraction": "float", "seed": "int", "out": "str", "data": "str", "tasks": "int",
    "epochs": "int", "learning_rate": "float", "batch_size": "int", "hidden_width": "int",
    "slope_max": "float", "covariance_ridge": "float", "trunk_dim": "int",
    "react_percentile": "float", "dice_percentile": "float", "scale_percentile": "float",
    "replay": "bool", "buffer_capacity": "int", "backupdate": "bool",
    "backupdate_epochs": "int", "model": "str", "log": "str", "detectors": "str",
    "scorers": "str", "temperature": "float", "detector": "str", "scorer": "str",
    "steps": "str", "grid_step": "float",
}
_DEFAULT_VALUES = {
    "test_fraction": 0.2, "seed": 0, "tasks": 5, "epochs": 20, "learning_rate": 0.005,
    "batch_size": 64, "hidden_width": 64, "slope_max": 400.0, "covariance_ridge": 1e-4,
    "react_percentile": 90.0, "dice_percentile": 85.0, "scale_percentile": 85.0,
    "replay": False, "buffer_capacity": 200, "backupdate": False, "backupdate_epochs": 10,
    "detectors": "base,react,dice,scale", "scorers": "sm,smmd,en,enmd", "temperature": 1.0,
    "detector": "base", "scorer": "enmd", "grid_step": 5.0,
}


def _one_config_value(text):
    """A value that a config line holds unchanged: no comment, no line break."""
    return "#" not in text and len(f"key={text}".splitlines()) == 1


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    code = main(["synth", "--classes", "4", "--dim", "8", "--per-class", "30",
                 "--sep", "8", "--seed", "3", "--test-fraction", "0.25",
                 "-o", str(d)])
    assert code == 0
    return d


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, data_dir):
    d = tmp_path_factory.mktemp("model")
    path = d / "model.txt"
    code = main(["train", "--data", str(data_dir), "--tasks", "2",
                 "--epochs", "15", "--lr", "0.01", "--batch", "32",
                 "--hidden", "32", "--seed", "5", "-o", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """The records of small saved models of dim 8, by (replay, trunk projection,
    trained tasks), each task two classes; replay runs back-update."""
    hp = oc.Hyperparams(epochs=1, batch_size=16, hidden_width=4, seed=2)
    path = tmp_path_factory.mktemp("saved") / "model.bin"
    models = {}
    for replay in (False, True):
        for trunk_dim in (None, 3):
            for tasks in range(4):
                model = oc.new_model(8, hp, trunk_dim=trunk_dim)
                if tasks:
                    spec = oc.SynthSpec(num_classes=2 * tasks, dim=8, per_class=12,
                                        mean_separation=6.0, seed=tasks)
                    train, test = oc.holdout(oc.synth_gaussian(spec), 0.25, 1)
                    oc.train_stream(model, oc.split_tasks(train, test, tasks), hp,
                                    replay=replay, backupdate=replay, buffer_capacity=8)
                oc.save_model(model, str(path))
                models[replay, trunk_dim, tasks] = model_records(path.read_bytes())
    return models


class TestSynth:
    def test_writes_train_and_test(self, data_dir):
        assert (data_dir / "train.csv").exists()
        assert (data_dir / "test.csv").exists()
        train = oc.load_csv(str(data_dir / "train.csv"))
        test = oc.load_csv(str(data_dir / "test.csv"))
        assert train.num_classes == test.num_classes == 4
        assert train.dim == test.dim == 8

    def test_rerun_byte_identical(self, data_dir, tmp_path):
        code = main(["synth", "--classes", "4", "--dim", "8", "--per-class", "30",
                     "--sep", "8", "--seed", "3", "--test-fraction", "0.25",
                     "-o", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "train.csv").read_bytes() == \
            (data_dir / "train.csv").read_bytes()
        assert (tmp_path / "test.csv").read_bytes() == \
            (data_dir / "test.csv").read_bytes()

    def test_zero_separation_fails_nonzero(self, tmp_path, capsys):
        code = main(["synth", "--classes", "4", "--dim", "8", "--per-class", "30",
                     "--sep", "0", "-o", str(tmp_path)])
        assert code != 0
        assert "mean_separation" in capsys.readouterr().err

    def test_missing_required_setting(self, tmp_path, capsys):
        code = main(["synth", "--dim", "8", "-o", str(tmp_path)])
        assert code == 1
        assert "classes" in capsys.readouterr().err


class TestTrain:
    def test_defaults_mirror_five_task_profile(self):
        assert _DEFAULTS["epochs"] == 20
        assert _DEFAULTS["learning_rate"] == 0.005
        assert _DEFAULTS["batch_size"] == 64
        assert _DEFAULTS["tasks"] == 5
        assert _DEFAULTS["hidden_width"] == 64
        assert _DEFAULTS["buffer_capacity"] == 200
        assert _DEFAULTS["backupdate_epochs"] == 10

    def test_model_file_written(self, model_path):
        model = oc.load_model(str(model_path))
        assert model.trained_tasks == 2
        assert model.classes_per_task == 2

    def test_log_lines(self, data_dir, tmp_path):
        log = tmp_path / "train.log"
        code = main(["train", "--data", str(data_dir), "--tasks", "2",
                     "--epochs", "2", "--hidden", "16", "--seed", "1",
                     "-o", str(tmp_path / "m.txt"), "--log", str(log)])
        assert code == 0
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 4  # 2 tasks x 2 epochs
        assert lines[0].startswith("task=0 epoch=1 loss=")
        assert "acc=" in lines[0] and "secs=" in lines[0]

    def test_replay_flags(self, data_dir, tmp_path):
        code = main(["train", "--data", str(data_dir), "--tasks", "2",
                     "--epochs", "3", "--hidden", "16", "--seed", "1",
                     "--replay", "--buffer", "40", "--backupdate",
                     "--backupdate-epochs", "2", "-o", str(tmp_path / "m.txt")])
        assert code == 0
        model = oc.load_model(str(tmp_path / "m.txt"))
        assert all(h.ood_logit_present for h in model.heads)

    def test_backupdate_without_replay_rejected(self, data_dir, tmp_path, capsys):
        code = main(["train", "--data", str(data_dir), "--tasks", "2",
                     "--backupdate", "-o", str(tmp_path / "m.txt")])
        assert code == 1
        assert "replay" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,config", [
        (["--buffer", "7"], ""),
        (["--backupdate-epochs", "5"], ""),
        (["--replay", "--backupdate-epochs", "5"], ""),
        ([], "buffer_capacity=7\n"),
        ([], "backupdate_epochs=5\n"),
        (["--replay"], "backupdate_epochs=5\n"),
    ], ids=["buffer-flag", "backupdate-epochs-flag", "backupdate-epochs-flag-with-replay",
            "buffer-key", "backupdate-epochs-key", "backupdate-epochs-key-with-replay"])
    def test_setting_of_a_path_not_taken_is_refused(self, flags, config, data_dir, tmp_path,
                                                     capsys):
        # a buffer is read only with --replay, back-update epochs only with --backupdate
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        model = tmp_path / "m.txt"
        assert main(["train", "--data", str(data_dir), "--tasks", "2", "--epochs", "2",
                     "--hidden", "8", "--config", str(cfg), "-o", str(model)] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "requires" in err
        assert not model.exists()

    def test_log_that_would_overwrite_the_model_is_refused(self, data_dir, tmp_path, capsys):
        model = tmp_path / "m.txt"
        same = str(tmp_path / "." / "m.txt")
        assert main(["train", "--data", str(data_dir), "--tasks", "2", "--epochs", "2",
                     "--hidden", "8", "-o", str(model), "--log", same]) == 1
        assert "overwrite the model file" in capsys.readouterr().err
        assert not model.exists()

    def test_reads_the_train_split_alone(self, data_dir, tmp_path, capsys):
        alone = tmp_path / "alone"
        alone.mkdir()
        shutil.copy(data_dir / "train.csv", alone / "train.csv")
        models = [tmp_path / "full.txt", tmp_path / "alone.txt"]
        for d, model in zip((data_dir, alone), models):
            assert main(["train", "--data", str(d), "--tasks", "2", "--epochs", "3",
                         "--hidden", "16", "--seed", "2", "-o", str(model)]) == 0
        assert models[0].read_bytes() == models[1].read_bytes()
        (alone / "train.csv").rename(alone / "test.csv")
        assert main(["train", "--data", str(alone), "--tasks", "2",
                     "-o", str(tmp_path / "never.txt")]) == 1
        assert "dataset file not found" in capsys.readouterr().err

    def test_deterministic_model_files(self, data_dir, tmp_path):
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for p in paths:
            code = main(["train", "--data", str(data_dir), "--tasks", "2",
                         "--epochs", "3", "--hidden", "16", "--seed", "8",
                         "-o", str(p)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestEval:
    def test_full_grid_row_count(self, data_dir, model_path, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["eval", "--model", str(model_path), "--data", str(data_dir),
                     "-o", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "detector,scorer,lca,aia,af,auc,aupr"
        assert len(lines) == 17  # header + 4 x 4 grid
        first = lines[1].split(",")
        assert first[:2] == ["base", "sm"]
        assert all(len(v.split(".")[-1]) == 2 for v in first[2:])  # 2 decimals

    def test_single_pair(self, data_dir, model_path, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["eval", "--model", str(model_path), "--data", str(data_dir),
                     "--detectors", "base", "--scorers", "enmd", "-o", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("base,enmd,")

    def test_byte_identical_runs_and_model_untouched(self, data_dir, model_path,
                                                     tmp_path):
        digest_before = hashlib.sha256(model_path.read_bytes()).hexdigest()
        outs = [tmp_path / "r1.csv", tmp_path / "r2.csv"]
        for out in outs:
            assert main(["eval", "--model", str(model_path),
                         "--data", str(data_dir), "-o", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert hashlib.sha256(model_path.read_bytes()).hexdigest() == digest_before

    def test_unknown_detector(self, data_dir, model_path, tmp_path, capsys):
        code = main(["eval", "--model", str(model_path), "--data", str(data_dir),
                     "--detectors", "odin", "-o", str(tmp_path / "r.csv")])
        assert code == 1
        assert "odin" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["eval"], ["curve", "--steps", "1,2"]])
    def test_reads_the_test_split_alone(self, argv, data_dir, model_path, tmp_path, capsys):
        alone = tmp_path / "alone"
        alone.mkdir()
        shutil.copy(data_dir / "test.csv", alone / "test.csv")
        outs = [tmp_path / "full.csv", tmp_path / "alone.csv"]
        for d, out in zip((data_dir, alone), outs):
            assert main(argv + ["--model", str(model_path), "--data", str(d),
                                "-o", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        (alone / "test.csv").rename(alone / "train.csv")
        assert main(argv + ["--model", str(model_path), "--data", str(alone)]) == 1
        assert "dataset file not found" in capsys.readouterr().err

    def test_incompatible_data_reported(self, model_path, tmp_path, capsys):
        other = tmp_path / "other"
        main(["synth", "--classes", "4", "--dim", "6", "--per-class", "20",
              "--sep", "8", "--seed", "1", "-o", str(other)])
        code = main(["eval", "--model", str(model_path), "--data", str(other),
                     "-o", str(tmp_path / "r.csv")])
        assert code == 2
        assert "dim" in capsys.readouterr().err


class TestCurve:
    def test_requested_steps_present(self, data_dir, model_path, tmp_path):
        out = tmp_path / "curves.csv"
        code = main(["curve", "--model", str(model_path), "--data", str(data_dir),
                     "--steps", "1,2", "-o", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,rejection_rate,accuracy,retained"
        steps = {line.split(",")[0] for line in lines[1:]}
        assert steps == {"1", "2"}

    def test_default_grid_twenty_points(self, data_dir, model_path, tmp_path):
        out = tmp_path / "curves.csv"
        code = main(["curve", "--model", str(model_path), "--data", str(data_dir),
                     "--steps", "1", "-o", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()[1:]
        assert len(lines) == 20

    def test_zero_rejection_matches_mixed_accuracy(self, data_dir, model_path,
                                                   tmp_path):
        out = tmp_path / "curves.csv"
        assert main(["curve", "--model", str(model_path), "--data", str(data_dir),
                     "--steps", "1", "--detector", "base", "--scorer", "enmd",
                     "-o", str(out)]) == 0
        first = out.read_text().strip().splitlines()[1].split(",")
        model = oc.load_model(str(model_path))
        train = oc.load_csv(str(data_dir / "train.csv"))
        test = oc.load_csv(str(data_dir / "test.csv"))
        stream = oc.split_tasks(train, test, 2)
        _scores, correct = oc.mixed_scores(model, stream, 1, "base", "enmd")
        assert float(first[2]) == pytest.approx(correct.mean(), abs=1e-6)

    def test_step_out_of_range(self, data_dir, model_path, tmp_path, capsys):
        code = main(["curve", "--model", str(model_path), "--data", str(data_dir),
                     "--steps", "9", "-o", str(tmp_path / "c.csv")])
        assert code == 1
        assert "step 9" in capsys.readouterr().err

    def test_steps_together_equal_steps_alone(self, data_dir, model_path, tmp_path):
        # one pass at the largest step serves every step, byte for byte
        def curve(steps):
            out = tmp_path / f"curve-{steps}.csv"
            assert main(["curve", "--model", str(model_path), "--data", str(data_dir),
                         "--steps", steps, "--detector", "dice", "--scorer", "enmd",
                         "-o", str(out)]) == 0
            return out.read_text().splitlines()

        alone = curve("2")[1:] + curve("1")[1:]
        assert curve("2,1") == ["step,rejection_rate,accuracy,retained"] + alone


class TestConfigFile:
    def test_unknown_key_rejected(self, data_dir, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("epoches=3\n")
        code = main(["train", "--data", str(data_dir), "--tasks", "2",
                     "--config", str(config), "-o", str(tmp_path / "m.txt")])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_flag_overrides_file(self, data_dir, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("epochs=5\nhidden_width=16\nseed=1\n")
        log = tmp_path / "t.log"
        code = main(["train", "--data", str(data_dir), "--tasks", "2",
                     "--epochs", "2", "--config", str(config),
                     "-o", str(tmp_path / "m.txt"), "--log", str(log)])
        assert code == 0
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 4  # flag epochs=2 beats file epochs=5

    def test_file_overrides_default(self, data_dir, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("epochs=2\nhidden_width=16\nseed=1\n")
        log = tmp_path / "t.log"
        code = main(["train", "--data", str(data_dir), "--tasks", "2",
                     "--config", str(config), "-o", str(tmp_path / "m.txt"),
                     "--log", str(log)])
        assert code == 0
        assert len(log.read_text().strip().splitlines()) == 4

    def test_comments_and_booleans(self, data_dir, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# replay settings\nreplay=true\nbuffer_capacity=40\n"
                          "epochs=2\nhidden_width=16\nseed=1\n")
        code = main(["train", "--data", str(data_dir), "--tasks", "2",
                     "--config", str(config), "-o", str(tmp_path / "m.txt")])
        assert code == 0
        model = oc.load_model(str(tmp_path / "m.txt"))
        assert model.heads[0].ood_logit_present

    @pytest.mark.parametrize("key, value", [("replay", "maybe"), ("backupdate", "2"),
                                            ("replay", "")])
    def test_bad_boolean_names_the_file_line_and_key(self, key, value, data_dir, tmp_path,
                                                     capsys):
        config = tmp_path / "run.cfg"
        config.write_text(f"epochs=2\n{key} = {value}\n")
        code = main(["train", "--data", str(data_dir), "--tasks", "2",
                     "--config", str(config), "-o", str(tmp_path / "m.txt")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {config}:2: bad value for {key!r}: {value!r}\n"
        assert not (tmp_path / "m.txt").exists()

    def test_config_file_that_is_not_utf8_is_a_usage_error(self, data_dir, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"epochs=3\n\xff\xfe\n")
        assert main(["train", "--data", str(data_dir), "--tasks", "2",
                     "--config", str(config), "-o", str(tmp_path / "m.txt")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {config}: ")
        assert err.count("\n") == 1 and not (tmp_path / "m.txt").exists()

    def test_missing_config_file(self, data_dir, tmp_path, capsys):
        code = main(["train", "--data", str(data_dir), "--tasks", "2",
                     "--config", str(tmp_path / "absent.cfg"),
                     "-o", str(tmp_path / "m.txt")])
        assert code == 1
        assert "config" in capsys.readouterr().err.lower()


class TestSettingsTable:
    def test_each_command_keeps_its_options(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert sub.choices.keys() == _OPTIONS.keys()
        for command, options in sub.choices.items():
            found = {option: f"{a.dest}:{'flag' if a.nargs == 0 else (a.type or str).__name__}"
                     for a in options._actions for option in a.option_strings
                     if option not in ("-h", "--help")}
            assert found == _OPTIONS[command], command
            assert options.format_help().startswith(f"usage: opencil {command}")

    def test_config_keys_keep_their_types(self):
        assert {key: kind.__name__ for key, kind in cli.CONFIG_KEYS.items()} == _CONFIG_KEYS

    def test_defaults_keep_their_values(self):
        assert _DEFAULTS == _DEFAULT_VALUES
        assert all(type(_DEFAULTS[key]).__name__ == _CONFIG_KEYS[key] for key in _DEFAULTS)


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys):
        # a 71.1 PiB array, which the allocator refuses at once
        assert main(["synth", "--classes", "2", "--dim", "100000000", "--per-class", "2",
                     "--sep", "3", "-o", str(tmp_path / "h")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "allocate" in err

    @pytest.mark.parametrize("argv, code", [
        (["synth", "--dim", str(10**20)], 1),
        (["synth", "--per-class", str(10**20)], 1),
        (["synth", "--dim", str(10**12)], 1),
        (["synth", "--sep", "inf"], 1),
        (["synth", "--classes", "10", "--dim", "4", "--per-class", "5"], 1),
        (["synth", "--test-fraction", "1e-320"], 2),
        (["train", "--hidden", str(10**18)], 2),
        (["train", "--trunk-dim", str(10**18)], 2),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else str(value))
    def test_refused_size_or_recipe_is_one_error_line_and_writes_nothing(
            self, argv, code, data_dir, tmp_path, capsys):
        # a later flag overrides the same flag of the base command
        base = {"synth": ["--classes", "2", "--dim", "8", "--per-class", "10", "--sep", "3",
                          "-o", str(tmp_path / "h" / "x")],
                "train": ["--data", str(data_dir), "--tasks", "2", "--epochs", "1",
                          "--hidden", "4", "-o", str(tmp_path / "m.bin")]}[argv[0]]
        assert main(argv[:1] + base + argv[1:]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command,split,tail", [
        ("train", "train", b"1,0.5,\xff\n"),
        ("eval", "test", b"1,\xc3(,0\n"),
    ])
    def test_csv_that_is_not_utf8_is_a_runtime_error(self, command, split, tail, data_dir,
                                                     model_path, tmp_path, capsys):
        data = tmp_path / "d"
        shutil.copytree(data_dir, data)
        rows = len((data / f"{split}.csv").read_text().splitlines())
        with open(data / f"{split}.csv", "ab") as fh:
            fh.write(tail)
        rest = ["--tasks", "2", "-o", str(tmp_path / "m.bin")] if command == "train" else \
            ["--model", str(model_path)]
        assert main([command, "--data", str(data)] + rest) == 2
        err = capsys.readouterr().err
        assert err == f"error: {data / split}.csv: row {rows + 1} is not UTF-8 text\n"

    @pytest.mark.parametrize("command,split,label", [
        ("train", "train", "4000000000000000000"),
        ("eval", "test", "100000000000000000000000000000"),
    ])
    def test_label_beyond_the_rows_is_a_runtime_error(self, command, split, label, data_dir,
                                                     model_path, tmp_path, capsys):
        data = tmp_path / "d"
        shutil.copytree(data_dir, data)
        lines = (data / f"{split}.csv").read_text().splitlines()
        lines[2] = label + lines[2][lines[2].index(","):]
        (data / f"{split}.csv").write_text("\n".join(lines) + "\n")
        rest = ["--tasks", "2", "-o", str(tmp_path / "m.bin")] if command == "train" else \
            ["--model", str(model_path)]
        assert main([command, "--data", str(data)] + rest) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: class ") and err.count("\n") == 1
        assert f"label {label} at row 3" in err

    @pytest.mark.parametrize("argv", [
        ["curve", "--steps", "x"],
        ["curve", "--steps", ","],
        ["curve", "--grid-step", "7"],
        ["eval", "--dice-percentile", "150"],
        ["eval", "--temperature", "0"],
        ["eval", "--react-percentile", "10"],  # ReAct uses the train-time threshold
        ["train", "--react-percentile", "150"],
        ["curve", "--steps", ""],
        ["curve", "--steps", "2,2"],  # would write step 2 twice
        ["eval", "--temperature", "inf"],
        ["curve", "--grid-step", "1e-300"],  # 1e302 points
        ["train", "--replay", "--backupdate", "--backupdate-epochs", "-3"],  # no epochs
    ])
    def test_bad_flag_value_is_a_usage_error(self, argv, data_dir, model_path, tmp_path,
                                             capsys):
        model_flag = ["-o", str(tmp_path / "m.txt")] if argv[0] == "train" else \
            ["--model", str(model_path), "-o", str(tmp_path / "out.csv")]
        assert main(argv + ["--data", str(data_dir)] + model_flag) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("record,offset,value", [
        ("array head_weights_0", 1, "nan"),  # the second value; the checksum is kept
        ("meta stats_react_0", 0, "inf"),
    ])
    def test_non_finite_model_value_is_a_runtime_error(self, record, offset, value,
                                                        data_dir, model_path, tmp_path,
                                                        capsys):
        records = model_records(model_path.read_bytes())
        at = next(i for i, r in enumerate(records) if r.startswith(record.encode() + b" "))
        if record.startswith("array"):
            values = record_values(records[at])
            values.flat[offset] = float(value)
            records[at] = _unsealed(records[at], values.tobytes())
        else:
            records[at] = records[at].rsplit(b" ", 1)[0] + f" {value}\n".encode()
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"".join(records))
        with pytest.raises(oc.ModelIOError, match="non-finite"):
            oc.load_model(str(bad))
        assert main(["eval", "--model", str(bad), "--data", str(data_dir),
                     "--detectors", "base", "--scorers", "en"]) == 2
        assert "non-finite" in capsys.readouterr().err

    # each edit gets and returns the bytes of a record: a meta line, or an array's
    # record line, payload, line break and checksum line; _sealed and _with_value
    # re-seal an edit that only a later check should see
    @pytest.mark.parametrize("record,edit", [
        # one class per head instead of two: each row loses its last value
        ("array head_weights_0", lambda r: _sealed(
            "array head_weights_0 32 1", record_values(r)[:, :-1])),
        # a class mean row dropped
        ("array stats_means_1", lambda r: _sealed("array stats_means_1 1 32",
                                                  record_values(r)[:1])),
        # a record line that is not UTF-8 text
        ("array head_bias_1", lambda r: r.replace(b"head_bias_1", b"head_bias_1\xff", 1)),
        # a payload cut short by one value, or by one byte
        ("array stats_means_0", lambda r: _unsealed(r, _parts(r)[1][:-8])),
        ("array stats_meanact_0", lambda r: _unsealed(r, _parts(r)[1][:-1])),
        # a payload one byte too long
        ("array adapter_bias", lambda r: _unsealed(r, _parts(r)[1] + b"\0")),
        # a signalling NaN bit pattern
        ("array embedding_1", lambda r: _with_value(r, 0, SIGNALLING_NAN[0])),
        # an array record with no payload before the end sentinel
        ("array stats_meanact_1", lambda r: _parts(r)[0] + b"\nend\n"),
        # one payload bit flipped: valid doubles, other values
        pytest.param("array head_weights_1", lambda r: _unsealed(
            r, _parts(r)[1][:5] + bytes([_parts(r)[1][5] ^ 1]) + _parts(r)[1][6:]),
            id="checksum-mismatch"),
        pytest.param("array adapter_weights", lambda r: r[:r.rindex(b"crc32 ")],
                     id="checksum-missing"),
        pytest.param("array head_bias_0", lambda r: r.replace(b"\ncrc32 ", b"crc32 ", 1),
                     id="payload-without-line-break"),
        pytest.param("array head_bias_0", lambda r: r.replace(b"\ncrc32 ", b"\n\ncrc32 ", 1),
                     id="payload-with-extra-line-break"),
        pytest.param("array stats_meanact_0", lambda r: _with_value(r, 3, np.nan), id="nan"),
        pytest.param("array stats_means_1", lambda r: _with_value(r, 7, -np.inf), id="inf"),
        # a shape far beyond the file, refused before anything is allocated
        pytest.param("array head_bias_0", lambda r: b"array head_bias_0 4000000000 4000000000"
                     + r[r.index(b"\n"):], id="shape-too-large"),
        # whitening factors whose diagonal is not positive, and a packed
        # lower triangle one value short of 32 * 33 / 2
        pytest.param("array stats_factor_0", lambda r: _with_diagonal(r, 0, 0.0),
                     id="factor-zero-diagonal"),
        pytest.param("array stats_factor_0", lambda r: _with_diagonal(r, 1, -1.0),
                     id="factor-negative-diagonal"),
        pytest.param("array stats_factor_1", lambda r: _with_diagonal(r, 2, np.nan),
                     id="factor-nan-diagonal"),
        pytest.param("array stats_factor_1", lambda r: _sealed(
            "array stats_factor_1 527", record_values(r)[:-1]), id="factor-packed-length"),
        # a second well-formed record under a name already read
        pytest.param("array head_bias_0", lambda r: r + _sealed(
            "array head_bias_0 2", record_values(r) + 1.0), id="duplicate-array"),
        pytest.param("meta slope_max", lambda r: r + b"meta slope_max 1\n",
                     id="duplicate-meta"),
    ])
    def test_corrupt_model_is_a_runtime_error(self, record, edit, data_dir, model_path,
                                              tmp_path, capsys):
        records = model_records(model_path.read_bytes())
        at = next(i for i, r in enumerate(records) if r.startswith(record.encode() + b" "))
        records[at] = edit(records[at])
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"".join(records))
        name = record.split()[1]
        with pytest.raises(oc.ModelIOError, match=name):
            oc.load_model(str(bad))
        assert main(["eval", "--model", str(bad), "--data", str(data_dir),
                     "--detectors", "base", "--scorers", "en"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and name in err
        assert "Traceback" not in err

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_records_out_of_the_written_order_are_refused(self, data, saved_models,
                                                          data_dir):
        key = data.draw(st.sampled_from(sorted(saved_models, key=str)), label="model")
        records = saved_models[key]
        edit = data.draw(st.sampled_from(["swap", "drop", "repeat"]), label="edit")
        # any record after the header; 'end' has no record after it to swap with
        at = data.draw(st.integers(1, len(records) - (2 if edit == "swap" else 1)),
                       label="at")
        edited = list(records)
        if edit == "swap":
            edited[at:at + 2] = [records[at + 1], records[at]]
        elif edit == "drop":
            del edited[at]
        else:
            edited.insert(at, records[at])
        # the first record out of place is the one the reader names as expected;
        # a repeated 'end' is the first record after the file should have ended
        first = next((i for i, (r, e) in enumerate(zip(records, edited)) if r != e),
                     min(len(records), len(edited)))
        if first < len(records):
            expected = " ".join(records[first].split(b"\n")[0].decode().split()[:2])
            message = f"expected record '{expected}'"
        else:
            message = "unexpected bytes after end"
        bad = data_dir.parent / "reordered.bin"
        bad.write_bytes(b"".join(edited))
        with pytest.raises(oc.ModelIOError, match=message):
            oc.load_model(str(bad))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["eval", "--model", str(bad), "--data", str(data_dir)])
        assert code == 2
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert message in err.getvalue()

    @pytest.mark.parametrize("tail", [b"\n", b"x", b"end\n", b"opencil-model 5\n"],
                             ids=["line-break", "byte", "second-end", "second-header"])
    def test_bytes_after_end_are_refused(self, tail, data_dir, model_path, tmp_path, capsys):
        bad = tmp_path / "appended.bin"
        bad.write_bytes(model_path.read_bytes() + tail)
        with pytest.raises(oc.ModelIOError, match="unexpected bytes after end"):
            oc.load_model(str(bad))
        assert main(["eval", "--model", str(bad), "--data", str(data_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "unexpected bytes after end" in err

    def test_old_model_file_version_is_a_runtime_error(self, data_dir, tmp_path, capsys):
        old = tmp_path / "old.bin"
        old.write_text("opencil-model 4\nmeta dim_in 8\nend\n")
        assert main(["eval", "--model", str(old), "--data", str(data_dir)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "unsupported model file version 4 " in err

    @pytest.mark.parametrize("argv", [
        ["train", "--epochs", "0"],
        ["train", "--hidden", "0"],
        ["train", "--lr", "0"],
        ["train", "--batch", "0"],
        ["train", "--trunk-dim", "0"],
        ["train", "--replay", "--buffer", "0"],
        ["train", "--tasks", "0"],
        ["train", "--seed", "-1"],
        ["synth", "--classes", "0"],
        ["synth", "--test-fraction", "1.5"],
    ], ids=" ".join)
    def test_bad_setting_is_a_usage_error_before_any_data(self, argv, data_dir, tmp_path,
                                                          monkeypatch, capsys):
        def no_data(*args):
            raise AssertionError("data read or made before the settings were checked")

        monkeypatch.setattr(cli, "load_csv", no_data)
        monkeypatch.setattr(cli, "synth_gaussian", no_data)
        base = {"train": ["--data", str(data_dir), "--tasks", "2", "--epochs", "1",
                          "--hidden", "4", "-o", str(tmp_path / "m.txt")],
                "synth": ["--classes", "4", "--dim", "8", "--per-class", "30", "--sep", "8",
                          "-o", str(tmp_path / "d")]}[argv[0]]
        assert main(argv[:1] + base + argv[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_tasks_the_data_cannot_split_is_a_runtime_error(self, data_dir, tmp_path, capsys):
        assert main(["train", "--data", str(data_dir), "--tasks", "3", "--epochs", "1",
                     "--hidden", "4", "-o", str(tmp_path / "m.txt")]) == 2
        assert "4 classes" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train-model", "train-log", "eval", "curve"])
    def test_missing_output_directory_is_refused_before_any_work(self, command, data_dir,
                                                                 model_path, tmp_path,
                                                                 monkeypatch, capsys):
        def no_work(*args):
            raise AssertionError("work started before the output directory was checked")

        monkeypatch.setattr(cli, "load_csv", no_work)
        monkeypatch.setattr(cli, "load_model", no_work)
        missing = str(tmp_path / "nodir" / "out")
        model = tmp_path / "m.txt"
        argv = {"train-model": ["train", "--data", str(data_dir), "-o", missing],
                "train-log": ["train", "--data", str(data_dir), "-o", str(model),
                              "--log", missing],
                "eval": ["eval", "--model", str(model_path), "--data", str(data_dir),
                         "-o", missing],
                "curve": ["curve", "--model", str(model_path), "--data", str(data_dir),
                          "-o", missing]}[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: output directory does not exist: {tmp_path / 'nodir'}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", ["eval-model", "eval-config", "curve-test-data",
                                      "curve-model-by-another-name", "train-train-data",
                                      "train-log-train-data", "train-log-test-data",
                                      "eval-train-data", "eval-hard-link-to-model"])
    def test_output_that_is_an_input_is_refused_before_any_read(self, case, data_dir,
                                                                model_path, tmp_path,
                                                                monkeypatch, capsys):
        def no_read(*args):
            raise AssertionError("an input was read before the output path was checked")

        data, model, config = tmp_path / "d", tmp_path / "m.bin", tmp_path / "run.cfg"
        shutil.copytree(data_dir, data)
        shutil.copyfile(model_path, model)
        config.write_text("detectors=base\n")
        os.link(model, tmp_path / "hard.bin")  # one file under two names
        inputs = {path: path.read_bytes()
                  for path in (data / "train.csv", data / "test.csv", model, config)}
        monkeypatch.setattr(cli, "load_csv", no_read)
        monkeypatch.setattr(cli, "load_model", no_read)
        score = ["--model", str(model), "--data", str(data)]
        train = ["train", "--data", str(data), "--tasks", "2", "--epochs", "1", "--hidden", "4"]
        argv = {"eval-model": ["eval", *score, "-o", str(model)],
                "eval-config": ["eval", *score, "--config", str(config), "-o", str(config)],
                "curve-test-data": ["curve", *score, "-o", str(data / "test.csv")],
                "curve-model-by-another-name": ["curve", *score,
                                                "-o", str(data / ".." / "m.bin")],
                "train-train-data": [*train, "-o", str(data / "train.csv")],
                "train-log-train-data": [*train, "-o", str(tmp_path / "new.bin"),
                                         "--log", str(data / "train.csv")],
                # a split the command does not read is still not its to overwrite
                "train-log-test-data": [*train, "-o", str(tmp_path / "new.bin"),
                                        "--log", str(data / "test.csv")],
                "eval-train-data": ["eval", *score, "-o", str(data / "train.csv")],
                "eval-hard-link-to-model": ["eval", *score,
                                            "-o", str(tmp_path / "hard.bin")]}[case]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "would overwrite" in err
        assert all(path.read_bytes() == before for path, before in inputs.items())
        assert not (tmp_path / "new.bin").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_output_path_that_is_a_directory_is_refused(self, command, data_dir, model_path,
                                                        tmp_path, capsys):
        argv = {"train": ["train", "--data", str(data_dir), "--tasks", "2", "--epochs", "1",
                          "--hidden", "4"],
                "eval": ["eval", "--model", str(model_path), "--data", str(data_dir)]}[command]
        assert main(argv + ["-o", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: output path is a directory: {tmp_path}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, key", [
        ("synth", "out"), ("train", "data"), ("train", "model"), ("train", "log"),
        ("eval", "data"), ("eval", "model"), ("eval", "out"),
        ("curve", "data"), ("curve", "model"), ("curve", "out")])
    @pytest.mark.parametrize("value", ["", "  "])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_empty_path_is_refused_before_any_work(self, command, key, value, via_config,
                                                   data_dir, model_path, tmp_path,
                                                   monkeypatch, capsys):
        def no_work(*args):
            raise AssertionError("work started before the empty path was refused")

        for name in ("load_csv", "load_model", "synth_gaussian"):
            monkeypatch.setattr(cli, name, no_work)
        # an empty path must not fall back to the current directory and its files
        cwd = tmp_path / "cwd"
        shutil.copytree(data_dir, cwd)
        monkeypatch.chdir(cwd)
        score = ["--model", str(model_path), "--data", str(data_dir)]
        options = {"synth": ["--classes", "4", "--dim", "8", "--per-class", "30", "--sep", "8",
                             "--out", str(tmp_path / "d")],
                   "train": ["--data", str(data_dir), "--tasks", "2", "--epochs", "1",
                             "--hidden", "4", "--model", str(tmp_path / "m.bin")],
                   "eval": score, "curve": score}[command]
        flag = f"--{key}"
        if flag in options:
            at = options.index(flag)
            del options[at:at + 2]
        if via_config:
            config = tmp_path / "run.cfg"
            config.write_text(f"{key}={value}\n", encoding="utf-8")
            options += ["--config", str(config)]
        else:
            options += [flag, value]
        assert main([command, *options]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: setting {key!r} is empty; it must name a path\n"
        assert sorted(p.name for p in cwd.iterdir()) == ["test.csv", "train.csv"]
        made = sorted(p.name for p in tmp_path.iterdir())
        assert made == (["cwd", "run.cfg"] if via_config else ["cwd"])

    def test_synth_output_that_is_an_existing_file_is_refused(self, tmp_path, monkeypatch,
                                                              capsys):
        def no_work(*args):
            raise AssertionError("data made before the output path was refused")

        monkeypatch.setattr(cli, "synth_gaussian", no_work)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        assert main(["synth", "--classes", "4", "--dim", "8", "--per-class", "30", "--sep", "8",
                     "-o", str(taken)]) == 1
        assert capsys.readouterr().err == \
            f"error: output directory is an existing file: {taken}\n"
        assert taken.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [taken]

    @pytest.mark.parametrize("below", ["sub", "sub/deeper"])
    def test_synth_output_below_an_existing_file_is_refused(self, below, tmp_path,
                                                            monkeypatch, capsys):
        def no_work(*args):
            raise AssertionError("data made before the output path was refused")

        monkeypatch.setattr(cli, "synth_gaussian", no_work)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / below
        assert main(["synth", "--classes", "4", "--dim", "8", "--per-class", "10", "--sep", "8",
                     "-o", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: output directory {out} lies below an existing file: {taken}\n"
        assert taken.read_text() == "kept\n"
        assert list(tmp_path.iterdir()) == [taken]

    @settings(max_examples=200, deadline=None)
    @given(case=st.sampled_from(sorted(_MALFORMED)).flatmap(
        lambda flag: st.tuples(st.just(flag), _MALFORMED[flag][2])),
        via_config=st.booleans())
    def test_malformed_flag_value_gives_one_error_line(self, case, via_config, data_dir,
                                                       model_path):
        flag, value = case
        command, key, _ = _MALFORMED[flag]
        assume(not via_config or _one_config_value(value))
        never = model_path.parent / "never-written"
        rest = {"train": ["--data", str(data_dir), "--tasks", "2", "--epochs", "1",
                          "--hidden", "4", "-o", str(never)],
                "eval": ["--model", str(model_path), "--data", str(data_dir),
                         "-o", str(never)],
                "curve": ["--model", str(model_path), "--data", str(data_dir),
                          "-o", str(never)]}[command]
        if flag in rest:
            at = rest.index(flag)
            del rest[at:at + 2]
        if via_config:
            config = model_path.parent / "malformed.cfg"
            config.write_text(f"{key}={value}\n", encoding="utf-8")
            argv = [command, "--config", str(config)] + rest
        else:
            argv = [command, flag, value] + rest
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        # only a number of tasks that the 4 classes cannot split is the data's to refuse
        assert code == (2 if flag == "--tasks" and _positive_int(value) else 1)
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()
        assert not never.exists()

    @settings(max_examples=300, deadline=None)
    @given(case=st.sampled_from(_SETTING_CASES).flatmap(
        lambda case: st.tuples(st.just(case), case[3])), via_config=st.booleans())
    def test_any_setting_value_ends_in_one_exit_code(self, case, via_config, data_dir,
                                                     model_path):
        (command, key, flag, _), value = case
        assume(not via_config or _one_config_value(value))
        with tempfile.TemporaryDirectory() as temp:
            out = Path(temp) / "out"
            out.mkdir()
            rest = {"synth": ["--classes", "2", "--dim", "2", "--per-class", "10", "--sep", "3",
                              "-o", str(out / "d")],
                    "train": ["--data", str(data_dir), "--tasks", "2", "--epochs", "1",
                              "--hidden", "4", "-o", str(out / "m.bin"),
                              "--log", str(out / "log.txt")],
                    "eval": ["--model", str(model_path), "--data", str(data_dir),
                             "-o", str(out / "report.csv")],
                    "curve": ["--model", str(model_path), "--data", str(data_dir),
                              "-o", str(out / "curve.csv")]}[command]
            # the switches and detector under which the setting is read
            rest += {"buffer_capacity": ["--replay"],
                     "backupdate_epochs": ["--replay", "--backupdate"]}.get(key, [])
            if command == "curve" and key in ("dice_percentile", "scale_percentile"):
                rest += ["--detector", key.split("_")[0]]
            if flag in rest:  # a flag outranks the config file, so the base value goes
                at = rest.index(flag)
                del rest[at:at + 2]
            if via_config:
                config = Path(temp) / "settings.cfg"
                config.write_text(f"{key}={value}\n", encoding="utf-8")
                argv = [command, "--config", str(config)] + rest
            else:
                argv = [command, flag, value] + rest
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if code:
                assert err.getvalue().startswith("error: ")
                assert err.getvalue().count("\n") == 1
                assert list(out.iterdir()) == []
            elif command == "synth":
                for split in ("train", "test"):
                    rows = np.loadtxt(out / "d" / f"{split}.csv", delimiter=",", skiprows=1,
                                      ndmin=2)
                    assert np.isfinite(rows).all()

    @pytest.mark.parametrize("argv", [
        ["eval", "--detectors", "base", "--scorers", "enmd"],
        ["curve", "--detector", "base", "--scorer", "enmd"],
    ])
    def test_non_finite_scores_are_a_runtime_error(self, argv, data_dir, model_path,
                                                   tmp_path, capsys):
        # 1e300 is a finite feature, but its Mahalanobis distance overflows
        shutil.copy(data_dir / "train.csv", tmp_path / "train.csv")
        lines = (data_dir / "test.csv").read_text().splitlines()
        for i in range(1, 6):
            width = lines[i].count(",")
            lines[i] = lines[i].split(",")[0] + ",1e300" * width
        (tmp_path / "test.csv").write_text("\n".join(lines) + "\n")
        assert main(argv + ["--model", str(model_path), "--data", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: non-finite scores for 5 of \d+ samples\n", err)

    def test_non_finite_feature_is_a_runtime_error(self, data_dir, model_path, tmp_path,
                                                   capsys):
        shutil.copy(data_dir / "train.csv", tmp_path / "train.csv")
        lines = (data_dir / "test.csv").read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
        (tmp_path / "test.csv").write_text("\n".join(lines) + "\n")
        assert main(["eval", "--model", str(model_path), "--data", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: non-finite field at row 4\n"

    def test_diverging_training_prints_one_error_line(self, data_dir, tmp_path):
        # a subprocess, so numpy warnings reach stderr as they would for a user
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        result = subprocess.run(
            [sys.executable, "-m", "opencil", "train", "--data", str(data_dir),
             "--tasks", "2", "--epochs", "2", "--lr", "1e6", "--hidden", "16",
             "-o", str(tmp_path / "m.txt")],
            capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 2
        assert result.stderr.startswith("error: non-finite loss")
        assert result.stderr.count("\n") == 1

    def test_overflowing_training_prints_one_error_line(self, data_dir, tmp_path):
        # at this rate the first step's update overflows the parameters; a subprocess,
        # so that a numpy warning would reach stderr
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        result = subprocess.run(
            [sys.executable, "-m", "opencil", "train", "--data", str(data_dir),
             "--tasks", "2", "--epochs", "2", "--lr", "1e300", "--hidden", "16",
             "-o", str(tmp_path / "m.txt")],
            capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 2
        assert re.fullmatch(r"error: non-finite loss at task 0, epoch 2, batch 1\n",
                            result.stderr)
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("classes,tasks", [(2, 1), (4, 2)])
    def test_diverged_training_writes_no_model(self, classes, tasks, tmp_path):
        # one epoch: no batch loss is non-finite, but the trained task's statistics are
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        run = [sys.executable, "-m", "opencil"]
        data, model = tmp_path / "d", tmp_path / "m.bin"
        subprocess.run(run + ["synth", "--classes", str(classes), "--dim", "8",
                              "--per-class", "30", "--sep", "8", "-o", str(data)],
                       check=True, capture_output=True, env=env, timeout=120)
        result = subprocess.run(
            run + ["train", "--data", str(data), "--tasks", str(tasks), "--epochs", "1",
                   "--lr", "1e300", "--hidden", "16", "-o", str(model)],
            capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 2
        assert re.fullmatch(r"error: non-finite [^\n]*\n", result.stderr)
        assert not model.exists()

    def test_no_command(self, capsys):
        assert main([]) == 1


class TestSettingsBeforeWork:
    @pytest.mark.parametrize("command,key,value", [
        ("eval", "detectors", "base,base"),
        ("eval", "detectors", "base, dice ,base"),
        ("eval", "scorers", "sm,sm"),
        ("eval", "scorers", ","),
        ("curve", "steps", "1,1"),
        ("curve", "steps", "1,01"),
        ("curve", "steps", ""),
    ])
    def test_list_that_names_an_item_twice_or_none_is_a_usage_error(
            self, command, key, value, data_dir, model_path, tmp_path, capsys):
        # each report row or curve step would be written twice
        out = tmp_path / "out.csv"
        code = main([command, "--model", str(model_path), "--data", str(data_dir),
                     f"--{key}", value, "-o", str(out)])
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: {key} must name at least one item, each once, got {value!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--detectors", "--scorers"])
    @pytest.mark.parametrize("value", ["", " , "])
    def test_empty_kind_list_is_a_usage_error(self, flag, value, data_dir, model_path,
                                              capsys):
        code = main(["eval", "--model", str(model_path), "--data", str(data_dir), flag, value])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--temperature", "-1"],
        ["--detectors", ""],
        ["--scorers", "en,odin"],
        ["--detectors", "dice", "--dice-percentile", "150"],
        ["--detectors", "scale", "--scale-percentile", "-1"],
    ])
    def test_eval_checks_settings_before_reading_the_model(self, argv, tmp_path, capsys):
        code = main(["eval", "--model", str(tmp_path / "missing.bin"),
                     "--data", str(tmp_path / "missing")] + argv)
        assert code == 1
        assert "missing" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--steps", "x"],
        ["--steps", " , "],
        ["--steps", "2,2"],
        ["--steps", "1, 2,01"],
        ["--grid-step", "7"],
        ["--grid-step", "1e-300"],
        ["--temperature", "0"],
        ["--detector", "dice", "--dice-percentile", "101"],
        ["--scorer", "odin"],
    ])
    def test_curve_checks_settings_before_reading_the_model(self, argv, tmp_path, capsys):
        code = main(["curve", "--model", str(tmp_path / "missing.bin"),
                     "--data", str(tmp_path / "missing")] + argv)
        assert code == 1
        assert "missing" not in capsys.readouterr().err
        # the range of a step depends on the model, so it is checked once that is read
        assert main(["curve", "--model", str(tmp_path / "missing.bin"),
                     "--data", str(tmp_path / "missing"), "--steps", "9"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--detectors", "base", "--scorers", "en", "--dice-percentile", "150"],
        ["--detectors", "base,react", "--dice-percentile", "50"],
        ["--detectors", "dice", "--scale-percentile", "50"],
    ])
    def test_eval_refuses_a_percentile_no_detector_reads(self, argv, data_dir, model_path,
                                                         tmp_path, capsys):
        code = main(["eval", "--model", str(tmp_path / "missing.bin"),
                     "--data", str(data_dir)] + argv)
        out, err = capsys.readouterr()
        assert code == 1
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "missing" not in err
        # with the detector that reads it, the same value is used
        run = ["eval", "--model", str(model_path), "--data", str(data_dir),
               "--detectors", "dice,scale", "--scorers", "en",
               "--dice-percentile", "50", "--scale-percentile", "50"]
        assert main(run) == 0

    @pytest.mark.parametrize("argv", [
        ["--steps", "1", "--scale-percentile", "5"],
        ["--detector", "dice", "--scale-percentile", "50"],
        ["--detector", "scale", "--dice-percentile", "50"],
    ])
    def test_curve_refuses_a_percentile_its_detector_does_not_read(self, argv, data_dir,
                                                                   tmp_path, capsys):
        code = main(["curve", "--model", str(tmp_path / "missing.bin"),
                     "--data", str(data_dir)] + argv)
        out, err = capsys.readouterr()
        assert code == 1
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "missing" not in err

    @pytest.mark.parametrize("command", ["eval", "curve"])
    def test_config_percentile_for_an_idle_detector_is_refused(self, command, data_dir,
                                                               tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("detectors=base\ndetector=base\ndice_percentile=40\n")
        code = main([command, "--model", str(tmp_path / "missing.bin"),
                     "--data", str(data_dir), "--config", str(config)])
        assert code == 1
        assert "dice_percentile" in capsys.readouterr().err

    @pytest.mark.parametrize("command, argv", [
        ("eval", ["--scorers", "sm,smmd", "--temperature", "2"]),
        ("curve", ["--scorer", "sm", "--temperature", "7"]),
    ])
    def test_temperature_without_an_energy_scorer_is_refused(self, command, argv, data_dir,
                                                             model_path, tmp_path, capsys):
        code = main([command, "--model", str(tmp_path / "missing.bin"),
                     "--data", str(data_dir)] + argv)
        out, err = capsys.readouterr()
        assert code == 1
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "temperature" in err and "missing" not in err
        # with an energy scorer in the run, the same value is used
        assert main(["eval", "--model", str(model_path), "--data", str(data_dir),
                     "--detectors", "base", "--scorers", "sm,en", "--temperature", "2"]) == 0

    @pytest.mark.parametrize("command", ["eval", "curve"])
    def test_config_temperature_without_an_energy_scorer_is_refused(self, command, data_dir,
                                                                    tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("scorers=sm,smmd\nscorer=smmd\ntemperature=2\n")
        code = main([command, "--model", str(tmp_path / "missing.bin"),
                     "--data", str(data_dir), "--config", str(config)])
        assert code == 1
        assert "temperature" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, message", [
    ("eval", "epochs 3\n", "{config}:1: expected key=value, got 'epochs 3'"),
    ("curve", "# a comment\n\nseed: 3  # no equals sign\n",
     "{config}:3: expected key=value, got 'seed: 3  # no equals sign'"),
    ("eval", None, "model file holds no trained tasks"),
    ("curve", None, "model file holds no trained tasks"),
], ids=["config-eval", "config-curve", "untrained-eval", "untrained-curve"])
def test_refusal_names_the_fault(command, config, message, data_dir, tmp_path, capsys):
    # an untrained model of the data's dim, so only the trained-task count is wrong
    model = tmp_path / "untrained.bin"
    oc.save_model(oc.new_model(8, oc.Hyperparams(hidden_width=4)), str(model))
    argv = [command, "--data", str(data_dir), "--model", str(model)]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message.format(config=tmp_path / 'run.cfg')}\n")
