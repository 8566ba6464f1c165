"""README's Quick start block runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_prints_commented_values():
    text = README.read_text()
    block = re.search(r"## Quick start\s+```python\n(.*?)```", text, re.S).group(1)
    expected = re.findall(r"^print\(.*\)\s+# (\d+)", block, re.M)
    assert len(expected) == 5
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().split() == expected
