"""The README's Python snippets run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def test_library_example_and_memo_reset_run_as_written(capsys):
    blocks = python_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["best"].fitness.value > 0
    assert "clear_cache" in namespace
    assert capsys.readouterr().out.startswith("[")
