"""Source hygiene: every name a module or test file imports is used in it."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "storypointer"
# test_acceptance.py is excluded: the acceptance suite is kept as written, but for its imports
MODULES = (sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
           + sorted(p for p in TESTS.glob("*.py") if p.name != "test_acceptance.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            # quoted annotations such as -> "FeatureBatch" hold names too
            annotation = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            for sub in ast.walk(annotation) if annotation is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    quoted = ast.parse(sub.value, mode="eval")
                    used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted(name for name in imported if name not in used)


def module_id(path: Path) -> str:
    return str(path.relative_to(PACKAGE if PACKAGE in path.parents else ROOT))


@pytest.mark.parametrize("path", MODULES, ids=module_id)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    source = ("import os\nfrom typing import List, Optional\nfrom m import A, B\n"
              "x: List[int] = []\ndef f() -> \"A\": pass\n")
    assert unused_imports(source) == ["B", "Optional", "os"]
