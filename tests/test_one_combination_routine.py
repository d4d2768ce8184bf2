"""Every sum of matrices or morphisms goes through one routine.

`Matrix.combine` computes linear combinations, accumulated row by row over
the nonzero entries of each term; `Mor.combine` calls it block by block,
and `+`, `-`, negation and `scale` call them.  A loop that folds
terms one at a time with `x = t if x is None else x + t` would bring back a
second way to add; this test fails if any module of `src/tensorcat` has
one.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tensorcat"


def _folds(tree) -> list:
    """Line numbers of `x = t if x is None else x + t` (either order of
    the sum) in a parsed module."""
    hits = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.IfExp)):
            continue
        test, other = node.value.test, node.value.orelse
        if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                and isinstance(test.ops[0], ast.Is)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None
                and isinstance(test.left, ast.Name)):
            continue
        name = test.left.id
        targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
        operands = (other.left, other.right) \
            if isinstance(other, ast.BinOp) and isinstance(other.op, ast.Add) \
            else ()
        if name in targets and any(isinstance(x, ast.Name) and x.id == name
                                   for x in operands):
            hits.append(node.lineno)
    return hits


def test_the_guard_finds_the_idiom():
    src = ("out = None\n"
           "for t in terms:\n"
           "    out = t if out is None else out + t\n"
           "acc = t if acc is None else t + acc\n"
           "v = f(x) if v is None else g(v, x)\n")
    assert sorted(_folds(ast.parse(src))) == [3, 4]


def test_no_module_folds_a_sum_term_by_term():
    paths = sorted(SRC.glob("*.py"))
    assert any(p.name == "linalg.py" for p in paths)
    hits = [f"{p.name}:{line}" for p in paths
            for line in _folds(ast.parse(p.read_text(), str(p)))]
    assert not hits, "sum folded term by term instead of combine: " + \
        ", ".join(hits)
