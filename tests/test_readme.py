"""The README's examples run as documented, so its formats cannot drift from
the code: each `eatcert` command it shows exits 0, and `simulate` reads the
device file and parameter file it shows."""

import shlex
from pathlib import Path

import pytest

from eatcert.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# Options whose value names a file; the tests move those files to tmp_path.
FILE_OPTIONS = ("--out", "--device-file", "--params")


def fenced_blocks(label):
    """The text of each fenced block whose opening fence carries `label`."""
    blocks, inside = [], None
    for line in README.splitlines(keepends=True):
        if line.startswith("```"):
            if inside is None:
                inside = line[3:].strip(), []
            else:
                if inside[0] == label:
                    blocks.append("".join(inside[1]))
                inside = None
        elif inside is not None:
            inside[1].append(line)
    return blocks


def commands():
    """argv of every `eatcert` command in the README's sh blocks."""
    found = []
    for block in fenced_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words[:1] == ["eatcert"]:
                found.append(words[1:])
    return found


def in_dir(argv, directory):
    return [
        str(directory / word) if prev in FILE_OPTIONS else word
        for prev, word in zip([None] + argv, argv)
    ]


def test_examples_found():
    assert sorted(argv[0] for argv in commands()) == [
        "bound", "bound2d", "rate", "simulate", "verify",
    ]
    assert len(fenced_blocks("")) == 2


@pytest.mark.parametrize("argv", commands(), ids=lambda argv: argv[0])
def test_command_exits_zero(argv, tmp_path, capsys):
    if argv[0] == "simulate":
        device_text, params_text = fenced_blocks("")
        assert device_text.startswith("blocks = ")
        assert params_text.startswith("n = ")
        (tmp_path / argv[argv.index("--device-file") + 1]).write_text(device_text)
        (tmp_path / argv[argv.index("--params") + 1]).write_text(params_text)
    assert main(in_dir(argv, tmp_path)) == 0, capsys.readouterr().err
    if "--out" in argv:
        assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0
