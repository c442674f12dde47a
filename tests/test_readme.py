"""The README's Python snippets and shell commands run as written."""

import re
import shlex
from pathlib import Path

from bitweave.cli import ENV_CACHE, main

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.S)


def command_line_commands():
    """The ``bitweave`` commands of the "Command line" section's shell block,
    continuation lines joined and comments dropped."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    joined = block.replace("\\\n", " ")
    return [shlex.split(line, comments=True) for line in joined.splitlines()
            if line.startswith("bitweave ")]


def test_library_example_and_memo_reset_run_as_written(capsys):
    blocks = python_blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["best"].fitness.value > 0
    assert "clear_cache" in namespace
    assert capsys.readouterr().out.startswith("[")


def test_command_line_examples_run_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(ENV_CACHE, raising=False)
    commands = command_line_commands()
    assert [argv[1] for argv in commands] == [
        "enumerate", "index", "index", "simulate", "simulate", "evolve", "sample",
    ]
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)
    out = capsys.readouterr().out
    assert "\n39\n3,5\n" in out  # the index examples print what they claim
    assert (tmp_path / "runs" / "mm5" / "history.csv").is_file()


def test_kernel_entry_is_copied_from_the_table():
    """The README's kernel entry is the one in patterns.py, line for line,
    comments included; only indentation may differ."""
    block = re.search(r"```text\n(.*?)```", README.read_text(), re.S).group(1)
    source = (README.parent / "src" / "bitweave" / "patterns.py").read_text()

    def dedent(text):
        return "\n".join(line.strip() for line in text.splitlines()) + "\n"

    assert dedent(block) in dedent(source)
