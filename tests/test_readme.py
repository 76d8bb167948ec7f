"""The README's library quick start and command-line examples print what
they show, and its lists of modules, public names, subcommands and verify
report keys match the package."""

import argparse
import ast
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

import johnson_cliques
from johnson_cliques import JohnsonParams, verify
from johnson_cliques.cli import build_parser, run

README = Path(__file__).parent.parent / "README.md"
PACKAGE = Path(johnson_cliques.__file__).parent


def readme() -> str:
    return README.read_text(encoding="utf-8")


def section(heading: str) -> str:
    """The README's text from the heading that starts with ``heading`` to the
    next ``## `` heading."""
    return readme().split("\n" + heading, 1)[1].split("\n## ", 1)[0]


def quick_start() -> str:
    return re.search(r"```python\n(.*?)```", section("## Library quick start"), re.S).group(1)


def cli_examples() -> list[tuple[str, list[str]]]:
    """(command, shown output lines) of each ``$ johnson-cliques ...`` example
    in the README's sh blocks: the lines after the command, up to a blank line."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", readme(), re.S):
        for chunk in block.split("\n\n"):
            lines = chunk.strip("\n").splitlines()
            if lines and lines[0].startswith("$ johnson-cliques "):
                examples.append((lines[0][2:], lines[1:]))
    return examples


def test_quick_start_prints_what_its_comments_state():
    """Each ``print`` line of the quick start prints the text of its ``# ...``
    comment, and nothing else is printed."""
    code = quick_start()
    stated = [line.partition("  # ")[2] for line in code.splitlines() if line.startswith("print(")]
    assert stated and all(stated), code
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == stated


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
    """The README's layout block lists each module of the package, and each
    .py file it lists is a module of the package."""
    block = re.search(r"```\n(src/johnson_cliques/\n.*?)```", readme(), re.S).group(1)
    listed = {line.split()[0] for line in block.splitlines() if line.startswith("  ")}
    modules = {path.name for path in PACKAGE.glob("*.py")}
    assert modules <= listed, sorted(modules - listed)
    assert {name for name in listed if name.endswith(".py")} <= modules


def test_synopsis_names_every_subcommand():
    """The command synopsis has one line per subcommand of the CLI's parser."""
    block = section("## Command line").split("```", 2)[1]
    listed = [line.split()[1] for line in block.splitlines() if line.startswith("johnson-cliques ")]
    action = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(listed) == sorted(action.choices)


def test_api_lists_every_public_name_once():
    """The API list has one line per name that __init__ imports, the public API."""
    listed = re.findall(r"^- `(\w+)", section("## Library API"), re.M)
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    public = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
              for alias in node.names]
    assert sorted(listed) == sorted(public)


def test_verify_report_keys_are_listed_in_report_order():
    """The report-line template lists the keys of a report line in order, and
    the check list under it names the checks in report order."""
    report = verify(JohnsonParams(5, 3))
    text = section("## Command line")
    template = re.search(r"^- verify reports: `(\{.*\})`", text, re.M).group(1)
    shown = template.replace("<checks>", ",".join(f'"{key}":..' for key in report.checks))
    assert re.findall(r'"(\w+)":', shown) == list(report.to_dict())
    listed = re.findall(r"^  - `(\w+)`: ", text, re.M)
    assert listed == list(report.checks)


def test_names_no_private_identifier():
    """Private names (a leading underscore) are not part of the contract; the
    dunder module names of the layout block are allowed."""
    assert not re.findall(r"(?<!\w)_(?!_)\w+", readme())


def test_exit_codes_match_the_help_text():
    """The README's "Exit codes:" paragraph and the top-level --help text name
    the same exit codes, and each names every code the CLI returns."""
    code = r'(?:Exit codes:|;)\s+`?(\d+)`?\s'
    paragraph = readme().split("\nExit codes:", 1)[1].split("\n\n", 1)[0]
    listed = set(re.findall(code, "Exit codes:" + paragraph))
    out = io.BytesIO()
    assert run(["--help"], out, io.BytesIO()) == 0
    helped = set(re.findall(code, out.getvalue().decode()))
    assert listed == helped == {"0", "1", "2", "3", "141"}
