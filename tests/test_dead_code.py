"""No top-level function or class in `src/semfuse` goes unreferenced:
code that nothing calls is deleted, not kept."""

import ast
from pathlib import Path

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "semfuse"
ROOTS = (PACKAGE, REPO_ROOT / "scripts", REPO_ROOT / "perfbench")


def referenced_names(roots) -> set[str]:
    """Every name a `Name`, an `Attribute` or an import refers to in the
    Python files under ``roots``."""
    names = set()
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def unreferenced(package: Path, roots) -> list[str]:
    """``file:line: name`` of each top-level ``def`` or ``class`` in
    ``package/*.py`` that nothing under ``roots`` refers to."""
    used = referenced_names(roots)
    return [
        f"{path}:{node.lineno}: {node.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    ]


def test_every_top_level_definition_is_referenced():
    assert unreferenced(PACKAGE, ROOTS) == []


def test_the_guard_names_a_planted_unused_function(tmp_path):
    package, scripts = tmp_path / "pkg", tmp_path / "scripts"
    package.mkdir()
    scripts.mkdir()
    (package / "mod.py").write_text(
        "import os\n\n\nclass Used:\n    pass\n\n\n"
        "def called():\n    return Used()\n\n\n"
        "def helper():\n    return os.sep\n\n\n"
        "def unused():\n    return called()\n"
    )
    (scripts / "run.py").write_text("from pkg.mod import helper\n\nhelper()\n")
    assert unreferenced(package, (package, scripts)) == [f"{package / 'mod.py'}:16: unused"]
    assert unreferenced(package, (package,)) == [
        f"{package / 'mod.py'}:12: helper", f"{package / 'mod.py'}:16: unused"]
