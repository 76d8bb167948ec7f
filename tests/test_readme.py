"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_what_its_comments_state():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    # classify(c).kind.value; two extensions of the edge; clique_number;
    # the part count; report.passed and report.oracle_clique_count.
    assert len(lines) == 6
    assert lines[0] == "already_maximal"
    assert [line.split()[0] for line in lines[1:3]] == ["min", "max"]
    assert lines[3:] == ["4", "10", "True 15"]
