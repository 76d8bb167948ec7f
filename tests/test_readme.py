"""The README's library quick start and command-line examples print what
they show."""

import ast
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

import johnson_cliques
from johnson_cliques.cli import run

README = Path(__file__).parent.parent / "README.md"
PACKAGE = Path(johnson_cliques.__file__).parent


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def cli_examples() -> list[tuple[str, list[str]]]:
    """(command, shown output lines) of each ``$ johnson-cliques ...`` example
    in the README's sh blocks: the lines after the command, up to a blank line."""
    text = README.read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for chunk in block.split("\n\n"):
            lines = chunk.strip("\n").splitlines()
            if lines and lines[0].startswith("$ johnson-cliques "):
                examples.append((lines[0][2:], lines[1:]))
    return examples


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


def test_readme_has_cli_examples():
    assert len(cli_examples()) >= 6


@pytest.mark.parametrize("command,shown", cli_examples(), ids=[c for c, _ in cli_examples()])
def test_cli_example_prints_what_is_shown(command, shown):
    # "johnson-cliques ARGS | head -N | tail -N": run ARGS through cli.run,
    # then keep the first or last N lines; "..." in a shown line matches
    # any text.
    stages = command.split(" | ")
    out, err = io.BytesIO(), io.BytesIO()
    assert run(shlex.split(stages[0])[1:], out, err) == 0, err.getvalue()
    lines = out.getvalue().decode().splitlines()
    for stage in stages[1:]:
        tool, count = shlex.split(stage)
        assert tool in ("head", "tail"), stage
        n = int(count.removeprefix("-"))
        lines = lines[:n] if tool == "head" else lines[-n:]
    assert len(lines) == len(shown), (lines, shown)
    for line, expected in zip(lines, shown):
        assert re.fullmatch(".*".join(map(re.escape, expected.split("..."))), line), (line, expected)


def test_runtime_is_pure_standard_library():
    """Every absolute import in the package names a standard-library module."""
    imported = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert {"argparse", "math"} <= imported
    assert imported <= sys.stdlib_module_names, sorted(imported - sys.stdlib_module_names)


def test_layout_names_every_module():
    """The README's Layout block lists each module of the package."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Layout\n\n```\n(.*?)```", text, re.S).group(1)
    listed = {line.split()[0] for line in block.splitlines() if line.startswith("  ")}
    modules = {path.name for path in PACKAGE.glob("*.py")}
    assert modules <= listed, sorted(modules - listed)
