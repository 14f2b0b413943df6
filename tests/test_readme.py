"""README.md's Python quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_quick_start_runs():
    [block] = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.DOTALL | re.MULTILINE)
    exec(compile(block, str(README), "exec"), {})
