"""The README's code runs as documented: every ``python`` block, in order,
in one namespace, from an empty working directory."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "__main__"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
