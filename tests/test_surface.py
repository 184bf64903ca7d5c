"""The package holds no test-only code, and loads nothing beyond its dependencies.

Every top-level function and class under src/grsecant is referenced
somewhere in the package outside its own body, exported through
`grsecant.__all__`, or a click command, and every imported name is read
where it is imported, exported, or marked `# noqa: F401`.  Helpers that
only tests call belong in tests/oracle.py.  Importing `grsecant.cli` loads
only the standard library, numpy, click and grsecant itself.  Every source
file parses as Python 3.10, the oldest version pyproject.toml accepts.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import grsecant

PACKAGE = Path(grsecant.__file__).parent


def _names(node):
    """Every name and attribute referenced in a syntax tree."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _is_command(node) -> bool:
    return any(
        isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute) and dec.func.attr in ("command", "group")
        for dec in node.decorator_list
    )


def test_every_top_level_definition_is_used_exported_or_a_command():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = Counter(name for tree in trees.values() for name in _names(tree))
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and used[node.name] == Counter(_names(node))[node.name]
        and node.name not in grsecant.__all__
        and not _is_command(node)
    ]
    assert unused == []


def test_every_import_is_used_exported_or_marked():
    # The check needs no linter: a name a module imports is read in that module,
    # exported through `grsecant.__all__`, or imported on a `# noqa: F401`
    # line (the traced run patches those module attributes).
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        lines = source.splitlines()
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and name not in grsecant.__all__ and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno}:{name}")
    assert unused == []


def test_cli_import_loads_only_stdlib_numpy_and_click():
    # Every start of the command line pays for this import, in a fresh process.
    script = (
        "import sys; before = set(sys.modules); import grsecant.cli; "
        "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    loaded = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    modules = loaded.stdout.split()
    assert "numpy" in modules and "grsecant" in modules
    assert [m for m in modules if m not in sys.stdlib_module_names and m not in ("numpy", "click", "grsecant")] == []


def test_sources_parse_at_the_oldest_supported_python():
    # Syntax newer than requires-python would fail the 3.10 CI legs at import,
    # before any test runs, while passing on a newer interpreter.
    root = Path(__file__).resolve().parents[1]
    assert 'requires-python = ">=3.10"' in (root / "pyproject.toml").read_text(encoding="utf-8")
    paths = sorted(path for top in ("src", "tests", "benchmarks") for path in (root / top).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
