"""`src/horocurv` holds only what runs: every function has a caller there.

Each function and method defined in `src/horocurv` must be named by some
`Name` or `Attribute` node of `src/horocurv/*.py` or `perfbench/*.py`.
Names are matched by their last component, so a method counts as called
wherever an attribute of that name is read.  Code that only the tests
call belongs in `tests/oracles.py`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "horocurv"

# entry points for callers outside the repository, which nothing inside
# needs to call
EXCEPTIONS = {
    "run",              # cli.run, the console-script entry point
    "expm_frechet",     # model_spaces stub that perfbench/tracer.py binds
    "point",            # SymmetricSpace.point and .tangent validate the
    "tangent",          # points and tangents a library caller builds
}


def _parse(paths):
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}


def _exports(tree):
    """The names the package `__init__` imports from its modules."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_src_function_is_called_outside_the_tests():
    src = _parse(sorted(SRC.glob("*.py")))
    trees = list(src.values()) + list(
        _parse(sorted((ROOT / "perfbench").glob("*.py"))).values())
    used = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))}
    allowed = EXCEPTIONS | _exports(src[SRC / "__init__.py"])
    defined, unused = set(), []
    for path, tree in src.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            defined.add(name)
            dunder = name.startswith("__") and name.endswith("__")
            if not (dunder or name in used or name in allowed):
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"functions that only the tests call: {unused}"
    assert EXCEPTIONS <= defined, f"stale exceptions: {EXCEPTIONS - defined}"
