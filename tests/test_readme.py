"""The README's examples run as written."""

import argparse
import re
import shlex
from pathlib import Path

from hfgames.cli import build_parser, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def test_library_example_runs():
    (block,) = blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def cli_lines() -> list[list[str]]:
    """Each ``hfgames`` line of the CLI blocks as argv, once with and once
    without an optional ``[--json]``; lines that need a terminal or a
    recorded file are left out."""
    out = []
    for block in blocks("sh"):
        for line in block.splitlines():
            variants = (line.replace("[--json]", "--json"), line.replace("[--json]", ""))
            for variant in dict.fromkeys(variants):
                argv = shlex.split(variant, comments=True)
                if argv[:1] == ["hfgames"] and not {"--interactive", "--replay"} & set(argv):
                    out.append(argv[1:])
    return out


def test_cli_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = cli_lines()
    assert len(lines) == 7
    for argv in lines:
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_file_formats_name_their_commands():
    """A format that no command reads or writes is not one of the
    workbench's: every bullet of the section names its subcommand."""
    (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    section = README.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- (.*?)(?=^- |\Z)", section, re.M | re.S)
    for bullet in bullets:
        named = re.findall(r"`hfgames ([\w-]+)", bullet)
        assert named and set(named) <= set(commands), bullet
    assert len(bullets) == 2
