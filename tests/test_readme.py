"""Every ```python block of README.md runs as written, and its quoted aipg
summary line is what the command beside it prints."""
import os
import re
import shlex
import subprocess
import sys
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


def test_readme_aipg_summary_line_matches_its_command(tmp_path):
    # the six-solver iprox bench command under Experiments, run as written
    # under one BLAS thread; seconds is wall time, so it is masked
    command = re.search(r"^(iprox bench link_prediction .*?--out trace\.csv)$", TEXT, flags=re.M | re.S)
    quoted = re.search(r"^```text\n(aipg: .*)\n```$", TEXT, flags=re.M).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(README.parent / "src"), env.get("PYTHONPATH")]))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "iprox.cli", *shlex.split(command.group(1).replace("\\\n", " "))[1:]],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    printed = [line for line in proc.stdout.splitlines() if line.startswith("aipg: ")]

    def mask(line):
        return re.sub(r"seconds=\S+", "seconds=*", line)

    assert [mask(line) for line in printed] == [mask(quoted)]
