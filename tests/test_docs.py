"""The README's library example imports names that exist, its command lines
parse, and every flag it names exists."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from eened.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_imports_resolve():
    # the package root re-exports nothing, so these lines are the one
    # statement of which module each public name lives in
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library use\n.*?```python\n(.*?)```", text, re.S)
    imports = [line for line in block.group(1).splitlines()
               if line.startswith("from eened")]
    assert imports
    for line in imports:
        exec(line, {})


def test_command_line_examples_parse():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S)
    lines = block.group(1).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("eened ")]
    assert commands
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")


def test_every_flag_named_is_an_option_of_some_command():
    # pip's flag is the one the README names for another program
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*",
                           README.read_text(encoding="utf-8")))
    named.discard("--no-build-isolation")
    subs = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    known = {option for sub in subs.choices.values() for action in sub._actions
             for option in action.option_strings}
    assert "--features" in named
    assert sorted(named - known) == []
