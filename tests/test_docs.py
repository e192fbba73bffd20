"""The README's command examples, parsed by the real command-line parser,
so an example that names a removed flag or a bad value fails here."""

import shlex
from pathlib import Path

import pytest

from boxshift.cli import _glue_negative_values, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> list[str]:
    """Every ``boxshift ...`` line in a fenced code block, with backslash
    continuations joined."""
    commands: list[str] = []
    in_block = False
    pending = ""
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block = not in_block
            continue
        if not in_block:
            continue
        text = pending + line.strip()
        if text.endswith("\\"):
            pending = text[:-1] + " "
            continue
        pending = ""
        if text.startswith("boxshift "):
            commands.append(text)
    return commands


def test_readme_has_command_examples():
    assert len(_readme_commands()) >= 5


@pytest.mark.parametrize("command", _readme_commands(),
                         ids=lambda command: command.split()[1])
def test_readme_command_parses(command):
    parser, _ = build_parser()
    argv = _glue_negative_values(shlex.split(command)[1:])
    args = parser.parse_args(argv)
    assert args.command == argv[0]
