"""Mutation testing of chosen functions, one mutant at a time.

    python tests/mutate.py src/fusionexp/protocols.py tests/test_protocols.py \\
        --functions vss_verify_all,_interpolate [--replace OLD NEW ...]

More than one test file may follow the module.  A method of a top-level
class is named Class.method (GroupElement.__init__).  Each mutant changes
one node of the named functions' syntax trees:
- a comparison flipped (== and !=, < and <=, > and >=, in and not in,
  is and is not);
- an int constant plus 1, or a bool constant negated;
- + and -, // and *, << and >> swapped;
- one operand of an `and` or `or` dropped;
- a `not` removed.
`--replace OLD NEW` adds a mutant that replaces the text OLD, which must
occur once in the module, by NEW (for mutants no operator above makes,
such as a `try` around a call).  For each mutant, `pyproject.toml`, `src/`
and `tests/` are copied to a temporary directory, the mutated module is
written there, and the test files run there under `timeout` (TIMEOUT
seconds), with their address space bounded (MEMORY bytes, RLIMIT_AS) and
bytecode writing off, so that no mutant runs another's cached code.  A
mutant is killed when the tests fail, time out or hit the memory bound: a
mutant that allocates without bound meets MemoryError or dies, and either
way the run fails.  The checkout itself is never written.  Uses the
standard library only; the name keeps pytest from collecting this file.
Exits 1 when a mutant survives.
"""

from __future__ import annotations

import argparse
import ast
import copy
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120  # seconds per test run
MEMORY = 3 << 30  # bytes of address space per test run

_COMPARE_FLIPS = {
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE, ast.LtE: ast.Lt,
    ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_BINOP_SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.FloorDiv: ast.Mult, ast.Mult: ast.FloorDiv,
    ast.LShift: ast.RShift, ast.RShift: ast.LShift,
}


def _sites(node: ast.AST) -> list[tuple[int, str]]:
    """The mutations one node admits, as (choice, description) pairs."""
    if isinstance(node, ast.Compare):
        return [(k, f"flip {type(op).__name__} #{k}") for k, op in enumerate(node.ops)
                if type(op) in _COMPARE_FLIPS]
    if isinstance(node, ast.Constant) and type(node.value) is bool:
        return [(0, f"{node.value} -> {not node.value}")]
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return [(0, f"{node.value} -> {node.value + 1}")]
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOP_SWAPS:
        return [(0, f"{type(node.op).__name__} -> {_BINOP_SWAPS[type(node.op)].__name__}")]
    if isinstance(node, ast.BoolOp):
        return [(k, f"drop operand {k} of {type(node.op).__name__}")
                for k in range(len(node.values))]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        return [(0, "drop not")]
    return []


def _mutate(node: ast.AST, choice: int) -> ast.AST:
    """The node with mutation `choice` applied (a new node where it is replaced)."""
    if isinstance(node, ast.Compare):
        node.ops[choice] = _COMPARE_FLIPS[type(node.ops[choice])]()
    elif isinstance(node, ast.Constant):
        node.value = not node.value if type(node.value) is bool else node.value + 1
    elif isinstance(node, ast.BinOp):
        node.op = _BINOP_SWAPS[type(node.op)]()
    elif isinstance(node, ast.BoolOp):
        del node.values[choice]
        if len(node.values) == 1:
            return node.values[0]
    else:  # not x -> x
        return node.operand
    return node


def _functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """The top-level functions by name and the methods of top-level classes as Class.method."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            found.update((f"{node.name}.{fn.name}", fn) for fn in node.body
                         if isinstance(fn, ast.FunctionDef))
    return found


def _targets(tree: ast.Module, functions: set[str]) -> list[ast.AST]:
    """Every node inside the named functions, in a fixed order."""
    nodes = []
    for name, fn in _functions(tree).items():
        if name in functions:
            nodes.extend(n for stmt in fn.body for n in ast.walk(stmt))
    return nodes


class _Replace(ast.NodeTransformer):
    def __init__(self, target: ast.AST, choice: int):
        self.target, self.choice = target, choice

    def generic_visit(self, node):
        node = super().generic_visit(node)
        return _mutate(node, self.choice) if node is self.target else node


def ast_mutants(source: str, functions: set[str]) -> list[tuple[str, str]]:
    """(description, mutated source) for every site in the named functions."""
    tree = ast.parse(source)
    found = set(_functions(tree))
    if functions - found:
        raise SystemExit(f"no top-level function or method {sorted(functions - found)}")
    mutants = []
    for i, node in enumerate(_targets(tree, functions)):
        for choice, what in _sites(node):
            fresh = copy.deepcopy(tree)
            target = _targets(fresh, functions)[i]
            mutated = ast.fix_missing_locations(_Replace(target, choice).visit(fresh))
            mutants.append((f"line {node.lineno}: {what}", ast.unparse(mutated)))
    return mutants


def text_mutants(source: str, pairs: list[tuple[str, str]]) -> list[tuple[str, str]]:
    mutants = []
    for old, new in pairs:
        if source.count(old) != 1:
            raise SystemExit(f"{old!r} occurs {source.count(old)} times, not once")
        mutants.append((f"replace {old!r} by {new!r}", source.replace(old, new)))
    return mutants


def _bound_memory() -> None:
    """Run in the child before exec: cap its address space, inherited by pytest."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run_tests(workdir: Path, module: Path, source: str, test_files: list[str]) -> bool:
    """Whether the test files pass with `source` in place of the module."""
    (workdir / module).write_text(source)
    cmd = ["timeout", str(TIMEOUT), sys.executable, "-B", "-m", "pytest", "-x", "-q",
           "-p", "no:cacheprovider", *test_files]
    run = subprocess.run(cmd, cwd=workdir, capture_output=True, preexec_fn=_bound_memory)
    return run.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module path from the repository root")
    parser.add_argument("tests", nargs="+", help="test file paths from the repository root")
    parser.add_argument("--functions", required=True,
                        help="comma-separated top-level names, a method as Class.method")
    parser.add_argument("--replace", nargs=2, action="append", default=[],
                        metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    module = Path(args.module)
    source = (ROOT / module).read_text()
    mutants = ast_mutants(source, set(args.functions.split(",")))
    mutants += text_mutants(source, [tuple(p) for p in args.replace])
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        workdir = Path(tmp)
        shutil.copy(ROOT / "pyproject.toml", workdir)
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, workdir / sub,
                            ignore=shutil.ignore_patterns("__pycache__"))
        if not run_tests(workdir, module, source, args.tests):
            raise SystemExit("the tests fail on the unmutated module")
        survivors = 0
        for what, mutated in mutants:
            killed = not run_tests(workdir, module, mutated, args.tests)
            survivors += not killed
            print(f"{'killed  ' if killed else 'SURVIVED'} {what}", flush=True)
    print(f"{len(mutants)} mutants, {len(mutants) - survivors} killed, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
