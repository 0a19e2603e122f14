"""The README's command-line example, run in-process, writes the golden CSVs.

``tests/data/readme_report.csv`` and ``tests/data/readme_curves.csv`` are the
``eval`` and ``curve`` outputs of the README's ``synth``, ``train``, ``eval``
and ``curve`` commands. ``readme_replay_report.csv`` and
``readme_replay_curves.csv`` are the outputs of the same ``eval`` and
``curve`` commands on the model of the README's replay ``train`` line. The
same commands must keep writing them byte for byte: a change that moves any
reported digit has to say so by updating the golden files. The README's
example of editing a trained model runs as written too.
"""

import re
import shlex
from pathlib import Path

import pytest

import opencil as oc
from opencil.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().parent / "data"

COMMANDS = [
    "opencil synth --classes 10 --dim 32 --per-class 200 --sep 6 --seed 7 -o d/",
    "opencil train --data d/ --tasks 5 --epochs 150 --lr 0.01 --hidden 128 "
    "--seed 11 -o model.bin --log train.log",
    "opencil eval --model model.bin --data d/ -o report.csv",
    "opencil curve --model model.bin --data d/ --steps 1,3 --grid-step 5 -o curves.csv",
]
REPLAY_TRAIN = ("opencil train --data d/ --tasks 5 --replay --buffer 200 --backupdate "
                "-o replay-model.bin")
# the README's synth, its replay train line, and its eval and curve on that model
REPLAY_COMMANDS = [COMMANDS[0], REPLAY_TRAIN] + [
    c.replace("model.bin", "replay-model.bin").replace(" -o ", " -o replay-")
    for c in COMMANDS[2:]]


def _readme_commands() -> list[str]:
    """The README's shell lines, with backslash continuations joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    joined = re.sub(r"\\\n\s*", "", text)
    return [" ".join(line.split()) for line in joined.splitlines()
            if line.startswith("opencil ")]


def _run(commands, capsys):
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, capsys.readouterr().err


def test_commands_are_the_readme_ones():
    assert set(COMMANDS + [REPLAY_TRAIN]) <= set(_readme_commands())


def test_readme_commands_write_the_golden_csvs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _run(COMMANDS, capsys)
    for written, golden in [("report.csv", "readme_report.csv"),
                            ("curves.csv", "readme_curves.csv")]:
        assert (tmp_path / written).read_bytes() == (DATA / golden).read_bytes(), written


def test_readme_replay_commands_write_the_golden_csvs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _run(REPLAY_COMMANDS, capsys)
    for written, golden in [("replay-report.csv", "readme_replay_report.csv"),
                            ("replay-curves.csv", "readme_replay_curves.csv")]:
        assert (tmp_path / written).read_bytes() == (DATA / golden).read_bytes(), written


def _editing_example() -> tuple[str, str]:
    """The README's code for editing a trained model, and the in-place write
    that its ``# not:`` comment names."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Editing a trained model"):]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    return code, re.search(r"# not: (.+)", code).group(1)


def test_readme_editing_example_replaces_and_the_write_it_avoids_raises(
        small_model, small_stream, tmp_path):
    code, in_place = _editing_example()
    oc.save_model(small_model, str(tmp_path / "model.bin"))
    model = oc.load_model(str(tmp_path / "model.bin"))
    before = oc.score_table(model, small_stream, "dice", "enmd").scores
    with pytest.raises(ValueError, match="read-only"):
        exec(in_place, {"stats": model.stats[0]})
    exec(code, {"model": model})
    after = oc.score_table(model, small_stream, "dice", "enmd").scores
    oc.save_model(model, str(tmp_path / "edited.bin"))
    fresh = oc.score_table(oc.load_model(str(tmp_path / "edited.bin")), small_stream,
                           "dice", "enmd").scores
    assert after.tobytes() != before.tobytes()
    assert after.tobytes() == fresh.tobytes()
