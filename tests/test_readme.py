"""The README's Library example runs as written.

The ```python block under ``## Library`` is executed in a directory holding
the ``drums.wav`` it loads, rendered by ``synth --bars 8 --render``.
"""

import re
from pathlib import Path

from groovekit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "-o", "drums.csv", "--bars", "8", "--render", "drums.wav"]) == 0
    capsys.readouterr()
    exec(compile(library_example(), str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
