"""Package layering: no module imports another module's private helpers, the
package keeps its import cost down, and every package name the benchmark
scripts in perfbench/ use still exists."""

import ast
import importlib
import subprocess
import sys
import types
from pathlib import Path

import fusionexp

SRC = Path(fusionexp.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def imported_modules(path):
    """Top-level names of the absolute modules imported in path."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.split(".")[0])
    return found


def test_only_protocols_imports_dataclasses_and_no_module_imports_typing():
    imports = {p.name: imported_modules(p) for p in sorted(SRC.glob("*.py"))}
    assert "value.py" in imports and "collections" in imports["dlp.py"]
    assert {name for name, found in imports.items() if "dataclasses" in found} == {
        "protocols.py"
    }
    assert {name for name, found in imports.items() if "typing" in found} == set()


def test_cli_import_leaves_out_typing_and_threading():
    # -S as well as -I, as in the benchmark's child: site and its .pth files
    # can import typing and threading before the package does
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fusionexp.cli; "
        "print(' '.join(sorted({'typing', 'threading', 'fusionexp.protocols'} "
        "& set(sys.modules))))"
    )
    out = subprocess.run([sys.executable, "-I", "-S", "-c", probe, str(SRC.parent)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["fusionexp.protocols"]


def package_aliases(tree):
    """Local name -> fusionexp module for each import of the package in tree."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fusionexp":
                    target = alias.name if alias.asname else "fusionexp"
                    aliases[alias.asname or "fusionexp"] = importlib.import_module(target)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fusionexp"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name, None)
                if isinstance(value, types.ModuleType):
                    aliases[alias.asname or alias.name] = value
    return aliases


def unresolved_package_names(path):
    """(line, dotted name) for each `alias.name...` that the package lacks.

    A dotted chain is followed while it names modules, so `fx.fe_mul` and
    `fx.field.fe_mul` are both checked, and `from fusionexp.x import y`
    checks that y exists.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = package_aliases(tree)
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fusionexp"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    missing.append((node.lineno, f"{node.module}.{alias.name}"))
        if not isinstance(node, ast.Attribute):
            continue
        chain = [node.attr]
        inner = node.value
        while isinstance(inner, ast.Attribute):
            chain.insert(0, inner.attr)
            inner = inner.value
        if not (isinstance(inner, ast.Name) and inner.id in aliases):
            continue
        obj = aliases[inner.id]
        for i, attr in enumerate(chain):
            if not isinstance(obj, types.ModuleType):
                break
            if not hasattr(obj, attr):
                missing.append((node.lineno, ".".join([inner.id, *chain[: i + 1]])))
                break
            obj = getattr(obj, attr)
    return sorted(missing)


def literal_assignment(path, name):
    """The literal value assigned to a module-level name in path."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def test_benchmark_uses_only_existing_package_names():
    scripts = sorted(PERFBENCH.glob("*.py"))
    assert len(scripts) > 5
    missing = {p.name: hits for p in scripts if (hits := unresolved_package_names(p))}
    assert missing == {}


def test_benchmark_traced_and_faulted_functions_exist():
    traced = literal_assignment(PERFBENCH / "tracer.py", "TRACED")
    faulted = [fault[:2] for _, _, fault in literal_assignment(PERFBENCH / "selftest.py", "CASES")]
    targets = [(m, n) for m, names in traced.items() for n in names] + faulted
    assert len(targets) > 20
    missing = [
        (m, n) for m, n in targets
        if not callable(getattr(importlib.import_module(f"fusionexp.{m}"), n, None))
    ]
    assert missing == []


def test_name_checker_flags_a_missing_name(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import fusionexp as fx\n"
        "import fusionexp.cli as fx_cli\n"
        "from fusionexp import field\n"
        "from fusionexp.group import pow_sm, no_such_import\n"
        "fx.fusion_pow, fx.gone, fx.field.fe_mul, fx.field.gone\n"
        "fx_cli.main, fx_cli.gone, field.fe_mul, field.gone\n"
        "fx.FusionBase.anything\n"
    )
    assert unresolved_package_names(sample) == [
        (4, "fusionexp.group.no_such_import"),
        (5, "fx.field.gone"),
        (5, "fx.gone"),
        (6, "field.gone"),
        (6, "fx_cli.gone"),
    ]
