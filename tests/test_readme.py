"""Every ```python block of README.md runs as written."""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (first line number, source) of each block
BLOCKS = [
    (TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, flags=re.M | re.S)
]


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("line,source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(line, source):
    # padded so that a traceback names the README's own line numbers
    code = compile("\n" * (line - 1) + source, str(README), "exec")
    exec(code, {"__name__": "readme_block"})
