"""The >>> examples in README.md run and print what the README shows, and so
do its triangle, its twisted sequence and its command-line block."""

import doctest
import re
import shlex
import textwrap
from pathlib import Path

from gwbinom.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
# a top-level fenced block; its body stops before the closing fence
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
# a fenced block indented under a list item
INDENTED_FENCE = re.compile(r"^ +```\n(.*?)^ +```", re.M | re.S)


def test_readme_examples():
    text = README.read_text()
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    globs = {}
    for block in FENCE.finditer(text):
        lineno = text.count("\n", 0, block.start(1))
        runner.run(parser.get_doctest(block.group(1), globs, "README.md", str(README), lineno))
    failed, attempted = runner.summarize(verbose=False)
    assert attempted > 0 and failed == 0


def _out(capsys, argv):
    assert main(argv) == 0, argv
    return capsys.readouterr().out


def test_readme_triangle_is_the_cli_triangle(capsys):
    (block,) = INDENTED_FENCE.findall(README.read_text())
    assert textwrap.dedent(block) == _out(capsys, ["triangle", "--rows", "9"])


def test_readme_twisted_sequence_is_the_cli_sequence(capsys):
    shown = re.search(r"The sequence starts `(.*), \.\.\.`", README.read_text()).group(1)
    lines = _out(capsys, ["twisted", "--max-j", "8"]).splitlines()
    assert shown == ", ".join(line.split("\t")[1] for line in lines)


def test_readme_commands_exit_0_and_print_their_comments(capsys):
    # each command of the Command line block; a comment that opens with a
    # value is the first line that command prints
    text = README.read_text()
    block = FENCE.search(text, text.index("## Command line")).group(1)
    checked = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        first = _out(capsys, shlex.split(command)[1:]).splitlines()[0]
        value = re.match(r"\s*(\d+(\+u)?)\b", comment)
        if value:
            assert value.group(1) == first, line
            checked.append(first)
    assert checked == ["55+u", "69+u"]
