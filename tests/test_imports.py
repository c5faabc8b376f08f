"""Every module-level import in the package and the tests is used.

The scan reads each module's syntax tree: a name bound by a top-level
``import`` or ``from ... import`` must be read somewhere in the module.
``qcollide/__init__.py`` is skipped, since its imports are the public API.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "qcollide").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level imports of ``source`` that the module never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for statement in tree.body:
        if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
            continue
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            for alias in statement.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    unused.append(name)
    return unused


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep as s\nprint(path)\n") == ["math", "s"]


def test_no_unused_module_imports():
    assert len(MODULES) > 20
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {module: names for module, names in found.items() if names} == {}
