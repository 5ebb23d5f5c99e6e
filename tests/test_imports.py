"""Every name a module under ``src/driftwatch/`` or a script under ``tools/``
imports is referenced in it, and no package module imports another one's
underscored name.

No linter ships with the test dependencies, so this walks each module's
syntax tree with the standard library.  ``__init__.py`` is exempt from the
first rule: its imports are the package's public API.  ``PINNED`` lists the
underscored names the second rule allows, each with its reason.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "driftwatch"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
TOOLS = sorted((ROOT / "tools").glob("*.py"))

# perfbench's tracer finds a traced function by its attribute name on its home
# module and replaces every module binding of it, so these keep their names
PINNED = {
    "_process_parts": "the estimator.process_parts span; calibration and monitor bind it",
    "_quad": "the kernels.quad span; limitsim and optkernel bind it",
    "_batch_null_values": "the limitsim.batch_null_values span; calibration binds it",
    "_drift_curve": "the limitsim.drift_curve span; calibration and optkernel bind it",
    "_null_values": "the limitsim.null_values span; calibration binds it",
}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement in ``source`` and never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "os (line 1)", "tau (line 2)"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", MODULES + TOOLS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> dict[str, int]:
    """Underscored names that ``source`` imports from the package (by a relative
    import or from ``driftwatch``), with the line of their first import."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "driftwatch"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.setdefault(alias.name, node.lineno)
    return found


def test_private_import_is_found():
    source = "from .a import _x, y\nfrom driftwatch.b import _z\nfrom os import _exit\n"
    assert private_imports(source) == {"_x": 1, "_z": 2}
    assert private_imports("from . import cli\nimport driftwatch._y\n") == {}


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_no_underscored_name_crosses_modules(path):
    found = private_imports(path.read_text(encoding="utf-8"))
    assert [f"{name} (line {line})" for name, line in found.items() if name not in PINNED] == []


def test_every_pinned_name_is_still_imported():
    imported = set().union(*(private_imports(p.read_text(encoding="utf-8")) for p in MODULES))
    assert set(PINNED) <= imported
