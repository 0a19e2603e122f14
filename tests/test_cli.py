import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opencil as oc
from opencil.cli import _DEFAULTS, main


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

    def test_missing_config_file(self, data_dir, tmp_path, capsys):
        code = main(["train", "--data", str(data_dir), "--tasks", "2",
                     "--config", str(tmp_path / "absent.cfg"),
                     "-o", str(tmp_path / "m.txt")])
        assert code == 1
        assert "config" in capsys.readouterr().err.lower()


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [
        ["curve", "--steps", "x"],
        ["curve", "--steps", ","],
        ["curve", "--grid-step", "7"],
        ["eval", "--dice-percentile", "150"],
        ["eval", "--temperature", "0"],
        ["eval", "--react-percentile", "10"],  # ReAct uses the train-time threshold
        ["train", "--react-percentile", "150"],
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
        ("array head_weights_0", 1, "nan"),  # the last value of the first row
        ("meta stats_react_0", 0, "inf"),
    ])
    def test_non_finite_model_value_is_a_runtime_error(self, record, offset, value,
                                                        data_dir, model_path, tmp_path,
                                                        capsys):
        lines = model_path.read_text().splitlines()
        at = offset + next(i for i, line in enumerate(lines) if line.startswith(record))
        lines[at] = lines[at].rsplit(" ", 1)[0] + " " + value
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(oc.ModelIOError, match="non-finite"):
            oc.load_model(str(bad))
        assert main(["eval", "--model", str(bad), "--data", str(data_dir),
                     "--detectors", "base", "--scorers", "en"]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("record,edit", [
        # one class per head instead of two: each row loses its last value
        ("array head_weights_0", lambda rows: ["array head_weights_0 32 1"]
         + [row.rsplit(" ", 1)[0] for row in rows[1:]]),
        # a class mean row dropped
        ("array stats_means_1", lambda rows: ["array stats_means_1 1 32"] + rows[1:2]),
        # a negative variance on the diagonal: no Cholesky factor
        ("array stats_covinv_0", lambda rows: [rows[0], "-1 " + rows[1].split(" ", 1)[1]]
         + rows[2:]),
    ])
    def test_corrupt_model_is_a_runtime_error(self, record, edit, data_dir, model_path,
                                              tmp_path, capsys):
        lines = model_path.read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(record + " "))
        n_rows = int(lines[at].split()[2])
        lines[at:at + 1 + n_rows] = edit(lines[at:at + 1 + n_rows])
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        name = record.split()[1]
        with pytest.raises(oc.ModelIOError, match=name):
            oc.load_model(str(bad))
        assert main(["eval", "--model", str(bad), "--data", str(data_dir),
                     "--detectors", "base", "--scorers", "en"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err
        assert "Traceback" not in err

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

    def test_no_command(self, capsys):
        assert main([]) == 1
