"""`src/horocurv` holds only what runs: every function has a caller there,
and every parameter default is overridden by some caller there.

Each function and method defined in `src/horocurv` must be named by some
`Name` or `Attribute` node of `src/horocurv/*.py` or `perfbench/*.py`.
Names are matched by their last component, so a method counts as called
wherever an attribute of that name is read.  Likewise each parameter with
a default must be passed by some call there, by keyword, by position, or
through `*args` or `**kw`; a constructor call passes the parameters of
its class's `__init__`.  A default that no caller overrides is a setting
that only the tests use.  Code that only the tests call belongs in
`tests/oracles.py`.
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


def _callee(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _defaulted(tree):
    """(function name, parameter, position) for each parameter with a
    default; a method's position skips `self`, an `__init__` is named by
    its class."""
    for owner in ast.walk(tree):
        for node in ast.iter_child_nodes(owner):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method = isinstance(owner, ast.ClassDef)
            name = owner.name if method and node.name == "__init__" \
                else node.name
            args = node.args
            pos = (args.posonlyargs + args.args)[int(method):]
            for i in range(len(pos) - len(args.defaults), len(pos)):
                yield name, pos[i].arg, i
            for a, d in zip(args.kwonlyargs, args.kw_defaults):
                if d is not None:
                    yield name, a.arg, None


def _passes(call, param, position):
    """The call passes `param` by keyword, `**kw`, `*args` or position."""
    return (any(k.arg in (None, param) for k in call.keywords)
            or any(isinstance(a, ast.Starred) for a in call.args)
            or (position is not None and len(call.args) > position))


def test_every_src_default_is_passed_outside_the_tests():
    src = _parse(sorted(SRC.glob("*.py")))
    trees = list(src.values()) + list(
        _parse(sorted((ROOT / "perfbench").glob("*.py"))).values())
    calls = [n for tree in trees for n in ast.walk(tree)
             if isinstance(n, ast.Call)]
    exports = _exports(src[SRC / "__init__.py"])
    unused = [f"{path.name} {name}({param})"
              for path, tree in src.items()
              for name, param, position in _defaulted(tree)
              if name not in exports
              and not any(_callee(c) == name and _passes(c, param, position)
                          for c in calls)]
    assert not unused, f"defaults that only the tests override: {unused}"
