"""Every documented ``python -m repro.<cli> ...`` command parses.

The commands are collected from the fenced code blocks of README.md and
CONTRIBUTING.md and from the ``::`` blocks of the ``repro`` module
docstrings.  ``\\`` continuations are joined; environment prefixes, ``&``
and ``#`` comments are stripped.  Each command is parsed by its module's
``_build_parser()`` -- nothing runs -- and every scenario it names as a
positional (``run``/``sweep``/``describe``/``gantt``) must be registered,
so a renamed command, a deleted flag or an unknown scenario in the docs
fails here instead of in a reader's shell.

A case is named by its file and its command text (plus ``#2``, ``#3``...
for a repeated command), never by its line number, so editing a document
renames only the cases whose commands changed.
"""

from __future__ import annotations

import ast
import importlib
import re
import shlex
from pathlib import Path
from typing import List, Tuple

import pytest

from repro.scenarios import names as registered_names

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

#: ``python -m`` target -> the module holding its ``_build_parser``.
CLI_MODULES = {
    "repro.scenarios": "repro.scenarios.cli",
    "repro.distributed": "repro.distributed.cli",
    "repro.telemetry": "repro.telemetry.cli",
    "repro.dashboard": "repro.dashboard.__main__",
    "repro.store": "repro.store.cli",
}

#: Subcommands whose positionals name scenarios, in any of the CLIs (the
#: former runners ``scheduler`` and ``record`` included, so a parser that
#: still offers one is checked too), and the attributes holding them.
SCENARIO_COMMANDS = {"run", "sweep", "describe", "gantt", "scheduler", "record"}
SCENARIO_ATTRIBUTES = ("names", "name", "scenario")

_SHELL_SEPARATORS = {"&", "&&", "|", "||", ";"}
_COMMAND_RE = re.compile(r"\bpython3? -m repro\.")


def _fenced_lines(path: Path) -> List[Tuple[int, str]]:
    lines, inside = [], False
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if line.lstrip().startswith("```"):
            inside = not inside
        elif inside:
            lines.append((number, line))
    return lines


def _literal_block_lines(docstring: str) -> List[Tuple[int, str]]:
    """Lines of the reST ``::`` literal blocks of a docstring."""

    lines, indent = [], None
    for number, line in enumerate(docstring.splitlines(), 1):
        if indent is not None:
            if not line.strip() or len(line) - len(line.lstrip()) > indent:
                lines.append((number, line))
                continue
            indent = None
        if line.rstrip().endswith("::"):
            indent = len(line) - len(line.lstrip())
    return lines


def _logical_commands(lines: List[Tuple[int, str]]) -> List[Tuple[int, str]]:
    """Join ``\\`` continuations; keep the lines that call ``python -m repro.``."""

    commands, pending, start = [], "", 0
    for number, line in lines:
        if not pending:
            start = number
        stripped = line.rstrip()
        if stripped.endswith("\\"):
            pending += stripped[:-1] + " "
            continue
        text, pending = pending + stripped, ""
        if _COMMAND_RE.search(text):
            commands.append((start, text))
    return commands


def _documented_commands() -> List[Tuple[str, str, List[str]]]:
    sources = []
    for doc in ("README.md", "CONTRIBUTING.md"):
        sources.append((doc, _fenced_lines(ROOT / doc)))
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docstring = ast.get_docstring(tree, clean=False)
        if docstring and _COMMAND_RE.search(docstring):
            offset = tree.body[0].lineno - 1  # docstring line -> file line
            lines = [(offset + n, line) for n, line in _literal_block_lines(docstring)]
            sources.append((str(path.relative_to(ROOT)), lines))
    found = []
    for source, lines in sources:
        for number, text in _logical_commands(lines):
            tokens = shlex.split(text, comments=True)
            for index, token in enumerate(tokens[:-2]):
                if token in ("python", "python3") and tokens[index + 1] == "-m":
                    module, args = tokens[index + 2], []
                    for arg in tokens[index + 3:]:
                        if arg in _SHELL_SEPARATORS:
                            break
                        args.append(arg)
                    if module in CLI_MODULES:
                        found.append((f"{source}:{number}", module, args))
                    break
    return found


COMMANDS = _documented_commands()


def _case_ids(commands: List[Tuple[str, str, List[str]]]) -> List[str]:
    """``FILE python -m MODULE ARGS``, with an ordinal for repeats."""

    ids, seen = [], {}
    for where, module, args in commands:
        base = f"{where.rsplit(':', 1)[0]} python -m {module} {shlex.join(args)}".rstrip()
        seen[base] = seen.get(base, 0) + 1
        ids.append(base if seen[base] == 1 else f"{base} #{seen[base]}")
    return ids


def test_every_cli_is_documented_and_collected():
    assert {module for _where, module, _args in COMMANDS} == set(CLI_MODULES)


@pytest.mark.parametrize("where, module, args", COMMANDS, ids=_case_ids(COMMANDS))
def test_documented_command_parses(where, module, args, capsys):
    parser = importlib.import_module(CLI_MODULES[module])._build_parser()
    try:
        namespace = parser.parse_args(args)
    except SystemExit:
        pytest.fail(
            f"{where}: python -m {module} {shlex.join(args)}\n{capsys.readouterr().err}"
        )
    if getattr(namespace, "command", None) not in SCENARIO_COMMANDS:
        return
    named = set()
    for attribute in SCENARIO_ATTRIBUTES:
        value = getattr(namespace, attribute, None) or []
        named.update([value] if isinstance(value, str) else value)
    unknown = sorted(named - set(registered_names()))
    assert not unknown, f"{where}: unregistered scenario(s) {unknown}"
