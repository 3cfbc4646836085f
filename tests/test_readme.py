"""The README's Python examples, run as doctests, and its command lines."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from supertrop.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# Each ```python block, with the line its first example is on.
BLOCKS = [(TEXT.count("\n", 0, m.start(1)), m.group(1)) for m in
          re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)]
# The `supertrop ...` lines of the "Command line" block that end in a
# `# answer` comment, as arguments and comment.
SHELL = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", TEXT,
                  re.M | re.S).group(1)
COMMANDS = [(shlex.split(line, comments=True)[1:],
             line.split("#", 1)[1].strip()) for line in SHELL.splitlines()
            if line.startswith("supertrop ") and "#" in line]


def test_readme_has_examples():
    assert len(BLOCKS) >= 4


# Named by position, so that an edit above a block keeps the test's name.
@pytest.mark.parametrize("lineno, block", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example(lineno, block):
    test = doctest.DocTestParser().get_doctest(
        block, {}, f"README.md:{lineno + 1}", str(README), lineno)
    runner = doctest.DocTestRunner()
    runner.run(test)
    failed, attempted = runner.summarize(verbose=False)
    assert attempted and not failed


def test_readme_command_lines_print_their_answers(capsys, tmp_path,
                                                  monkeypatch):
    # In a scratch directory, in case a command writes a file.
    monkeypatch.chdir(tmp_path)
    assert len(COMMANDS) >= 9
    for argv, comment in COMMANDS:
        code = main(argv)
        first = capsys.readouterr().out.partition("\n")[0]
        # The comment is the answer, or the answer, a comma and a remark
        # ("10, exponential oracle"); "[1, 6]" is an answer with a comma.
        assert code == 0 and first, argv
        assert comment == first or comment.startswith(first + ", "), argv
