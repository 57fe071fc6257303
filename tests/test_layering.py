"""Package layering: no module imports another module's private helpers."""

import ast
from pathlib import Path

import fusionexp

SRC = Path(fusionexp.__file__).parent


def private_cross_imports(path):
    """(line, module, name) for each `from <package module> import _name` in path."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("fusionexp"):
            continue  # standard library and third-party imports
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append((node.lineno, node.module, alias.name))
    return found


def test_no_module_imports_private_names_from_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    offenders = {
        p.name: hits for p in modules if (hits := private_cross_imports(p))
    }
    assert offenders == {}


def test_checker_flags_a_private_import(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "from .field import _private, public\n"
        "from fusionexp.group import _other\n"
        "def f():\n"
        "    from . import _inner\n"
    )
    assert private_cross_imports(sample) == [
        (2, "field", "_private"),
        (3, "fusionexp.group", "_other"),
        (5, None, "_inner"),
    ]
