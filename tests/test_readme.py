"""The README's library quickstart runs as documented."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def test_quickstart_runs(capsys):
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["est"].slope == 1.0
    assert namespace["report"].epsilon > 0.0
    assert namespace["result"].report.containment
    assert len(capsys.readouterr().out.splitlines()) == 2
