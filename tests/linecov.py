"""Line coverage of `src/storypointer` as a pytest plugin, with an allowlist.

    PYTHONPATH=src:tests python -m pytest -q -p linecov

traces every line the package runs, in the main thread and in threads it
starts, with `sys.settrace`, then fails the session if a statement never
ran outside the functions that `ALLOWED` names. A statement is a line in
the line table of the module's compiled code; an allowlist entry is keyed
by file and enclosing function (`<module>` for top-level code), holds how
many of its statements may stay unrun, and says why. An entry whose
function ran in full, or ran fewer statements than allowed, is reported as
stale, so the list shrinks as tests reach the code. Code that runs only in
a child process (the served `serve_forever`) cannot be seen by the tracer.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "storypointer"

# (file relative to the package, enclosing function) -> (statements that may stay unrun, reason)
ALLOWED = {
    ("cli.py", "<module>"): (1, "subprocess only: the `python -m storypointer.cli` entry"),
    ("cli.py", "_cmd_serve"): (3, "subprocess only: `storypointer serve` runs in a child process"),
    ("cli.py", "main"): (2, "subprocess only: the KeyboardInterrupt exit"),
    ("server.py", "serve_forever"): (6, "subprocess only: runs inside the served child process"),
    ("kernel/tensor.py", "Tensor.__repr__"): (1, "printed on failure: an assertion message"),
    ("kernel/gradcheck.py", "GradCheckReport.__str__"): (
        4, "printed on failure: an assertion message"),
    ("corpus.py", "_load_stopwords"): (1, "defensive: the bundled stopword list has no blank line"),
    ("server.py", "_DeadlineSocketIO.readinto"): (
        1, "defensive: a read that starts after the request deadline"),
    ("static_embed.py", "_noise_distribution"): (
        1, "defensive: both callers count at least one known word first"),
}

_ROOT = str(PACKAGE) + os.sep
_hits = set()  # (filename, line) pairs that ran
_failures = []  # the report lines of a failed gate


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(_ROOT):
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
        return _local
    return None


def statements(code):
    """The lines in the line tables of `code` and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= statements(const)
    return lines


def enclosing_functions(tree):
    """Each line of a function mapped to the function's qualified name; the
    innermost function wins."""
    owner = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    for line in range(first, child.end_lineno + 1):
                        owner[line] = name
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return owner


def unrun_by_function():
    """{(file, function): [unrun lines]} over every module of the package."""
    unrun = defaultdict(list)
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        owner = enclosing_functions(ast.parse(source))
        filename = str(path)
        for line in sorted(statements(compile(source, filename, "exec"))):
            if (filename, line) not in _hits:
                unrun[(str(path.relative_to(PACKAGE)), owner.get(line, "<module>"))].append(line)
    return unrun


def pytest_configure(config):
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    unrun = unrun_by_function()
    failures = [f"{file}:{','.join(map(str, lines))} in {function} never ran"
                for (file, function), lines in sorted(unrun.items())
                if len(lines) > ALLOWED.get((file, function), (0, ""))[0]]
    failures += [f"stale allowlist entry {file} {function}: {len(unrun.get((file, function), []))} "
                 f"statements unrun, {allowed} allowed ({reason})"
                 for (file, function), (allowed, reason) in sorted(ALLOWED.items())
                 if len(unrun.get((file, function), [])) < allowed]
    _failures.extend(failures)
    if failures and session.exitstatus == 0:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    terminalreporter.section("line coverage of src/storypointer")
    for line in _failures:
        terminalreporter.write_line(line)
    if not _failures:
        terminalreporter.write_line("every statement ran, or is allowed to stay unrun")
