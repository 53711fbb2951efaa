"""The >>> examples in README.md run and print what the README shows."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
# a top-level fenced block; its body stops before the closing fence
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)


def test_readme_examples():
    text = README.read_text()
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    globs = {}
    for block in FENCE.finditer(text):
        lineno = text.count("\n", 0, block.start(1))
        runner.run(parser.get_doctest(block.group(1), globs, "README.md", str(README), lineno))
    failed, attempted = runner.summarize(verbose=False)
    assert attempted > 0 and failed == 0
