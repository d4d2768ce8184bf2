"""No module of the package computes with floating point.

The engine is exact: a float literal or a `float(...)` call anywhere in
`src/tensorcat` fails this test, except inside `cli._approximate`, the
decimal rendering that text reports mark as approximate.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tensorcat"

# (module, function) pairs that may use floats, and why
ALLOWED = {("cli", "_approximate"): "cosmetic decimal rendering"}


def _float_uses(tree, module):
    """(line, what) for each float literal or float() call outside the
    allowed functions."""
    out = []

    def visit(node):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and (module, node.name) in ALLOWED):
            return
        if isinstance(node, ast.Constant) and isinstance(node.value,
                                                         (float, complex)):
            out.append((node.lineno, f"literal {node.value!r}"))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "float"):
            out.append((node.lineno, "float() call"))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return out


def test_no_float_outside_the_approximate_rendering():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}: {what}"
                  for line, what in _float_uses(tree, path.stem)]
    assert found == []


def test_the_check_sees_floats():
    tree = ast.parse("def f(x):\n    return x ** 0.5 + float(x)\n"
                     "def _approximate(x):\n    return float(x)\n")
    # the exemption names one function of one module
    seen = [(2, "literal 0.5"), (2, "float() call")]
    assert _float_uses(tree, "cli") == seen
    assert _float_uses(tree, "poly") == seen + [(4, "float() call")]
