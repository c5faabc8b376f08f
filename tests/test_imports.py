"""Every module-level import in the package and the tests is used, and so is every package definition.

The scans read syntax trees.  A name bound by a top-level ``import`` or
``from ... import`` must be read somewhere in its module.  A function, class
or constant defined at the top level of a package module must be read, or
imported, somewhere in the package, the tests or the benchmark harness,
outside its own definition.  ``qcollide/__init__.py`` is skipped by both,
since its imports are the public API.
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


def definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Top-level functions, classes and assigned names of a module, with their statements."""
    found = {}
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[statement.name] = statement
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        found[node.id] = statement
    return found


def reads(tree: ast.AST) -> list[str]:
    """Every name a tree reads: loaded names, attribute names and imported names."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.extend(alias.name for alias in node.names)
    return out


def unread_definitions(package: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` of each package definition that no source reads outside that definition.

    ``package`` maps module names to the sources whose definitions are
    scanned; ``readers`` are further sources that may read them.
    """
    counts: dict[str, int] = {}
    for source in [*package.values(), *readers]:
        for name in reads(ast.parse(source)):
            counts[name] = counts.get(name, 0) + 1
    unread = []
    for module, source in package.items():
        for name, statement in definitions(ast.parse(source)).items():
            if counts.get(name, 0) - reads(statement).count(name) <= 0:
                unread.append(f"{module}.{name}")
    return unread


def test_scan_finds_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep as s\nprint(path)\n") == ["math", "s"]


def test_no_unused_module_imports():
    assert len(MODULES) > 20
    found = {str(path.relative_to(ROOT)): unused_imports(path.read_text(encoding="utf-8")) for path in MODULES}
    assert {module: names for module, names in found.items() if names} == {}


def test_scan_finds_an_unread_definition():
    package = {"m": "A = 1\nB = A\ndef f(n):\n    return f(n - 1)\nclass C:\n    pass\n"}
    assert unread_definitions(package, ["from m import C\n"]) == ["m.B", "m.f"]


def test_no_unread_package_definitions():
    package = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / "qcollide").glob("*.py"))
        if path.name != "__init__.py"
    }
    readers = [
        path.read_text(encoding="utf-8")
        for path in [
            ROOT / "src" / "qcollide" / "__init__.py",
            *(ROOT / "tests").glob("*.py"),
            *(ROOT / "perfbench").glob("*.py"),
        ]
    ]
    assert len(package) > 10
    assert unread_definitions(package, readers) == []
