"""The README's Python examples, run as doctests."""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# Each ```python block, with the line its first example is on.
BLOCKS = [(TEXT.count("\n", 0, m.start(1)), m.group(1)) for m in
          re.finditer(r"^```python\n(.*?)^```", TEXT, re.M | re.S)]


def test_readme_has_examples():
    assert len(BLOCKS) >= 4


@pytest.mark.parametrize("lineno, block", BLOCKS,
                         ids=[f"line{n + 1}" for n, _ in BLOCKS])
def test_readme_example(lineno, block):
    test = doctest.DocTestParser().get_doctest(
        block, {}, f"README.md:{lineno + 1}", str(README), lineno)
    runner = doctest.DocTestRunner()
    runner.run(test)
    failed, attempted = runner.summarize(verbose=False)
    assert attempted and not failed
