"""numpy is the only runtime dependency: every absolute import in
`src/semfuse` names the standard library, numpy or semfuse itself."""

import ast
import sys
from pathlib import Path

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "semfuse"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "semfuse"}


def foreign_imports(package: Path) -> list[str]:
    """``file:line: module`` of each absolute import, at any depth, in
    ``package/*.py`` whose top-level package is not in ALLOWED."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path}:{node.lineno}: {module}" for module in modules
                      if module.split(".")[0] not in ALLOWED]
    return found


def test_the_package_imports_only_the_standard_library_and_numpy():
    assert foreign_imports(PACKAGE) == []


def test_the_guard_names_a_planted_lazy_import(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import os.path\nfrom urllib import request\n\nimport numpy as np\n"
        "from semfuse.errors import FormatError\nfrom . import sibling\n\n\n"
        "def post():\n    import requests\n\n    return requests\n"
    )
    assert foreign_imports(tmp_path) == [f"{tmp_path / 'mod.py'}:10: requests"]
