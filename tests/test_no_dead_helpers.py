"""Every private function of the package is called from the package.

A function or method whose name starts with a single underscore is an
implementation detail, so only the package itself can use it.  If no
code in `src/tensorcat` outside its own body names it, nothing calls it.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tensorcat"


def _names(node) -> Counter:
    """How often a subtree names each identifier, bare or as an attribute."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_every_private_function_is_referenced():
    trees = {p.name: ast.parse(p.read_text(), str(p))
             for p in sorted(SRC.glob("*.py"))}
    assert "fincat.py" in trees
    used = Counter()
    for tree in trees.values():
        used += _names(tree)
    defs = [(fname, node) for fname, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and _is_private(node.name)]
    assert defs
    unused = [f"{fname}:{node.lineno} {node.name}" for fname, node in defs
              if used[node.name] - _names(node)[node.name] <= 0]
    assert not unused, "private functions that nothing calls: " + \
        ", ".join(unused)
