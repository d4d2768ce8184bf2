"""Category validation reads F entries and composes no morphism.

The whole of `validate_category` reads tables and F entries:
`_validate_structure` and `_validate_f_blocks` the tables,
`_validate_pentagon` (with `_pentagon_holds`, `_f_row` and `_sums`) the
rows of F for each quadruple of labels, n^4 times for n labels, and
`_validate_snakes` and `_left_pair` the two loops of each label through
`_snake_loops` and `f_entry`.  Composing associators in the pentagon, as
the check once did, cost about 48 us a quadruple.  This test fails if
any of them calls `associator`, `associator_inv`, `tensor_mor` or `id`,
or composes with `@`; the composed pentagon and snakes live in
`tests/pentagon_oracle.py`.
"""

import ast
from pathlib import Path

FINCAT = (Path(__file__).resolve().parent.parent / "src" / "tensorcat"
          / "fincat.py")
GUARDED = ("validate_category", "_validate_structure", "_validate_f_blocks",
           "_validate_pentagon", "_pentagon_holds", "_f_row", "_sums",
           "_validate_snakes", "_snake_loops", "_left_pair", "f_entry",
           "_f_data")
COMPOSING = {"associator", "associator_inv", "tensor_mor", "id"}


def _compositions(fn) -> list:
    """(line, what) for each composing call or `@` inside `fn`."""
    hits = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(
                f, "id", None)
            if name in COMPOSING:
                hits.append((node.lineno, name))
        elif (isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, ast.MatMult)):
            hits.append((node.lineno, "@"))
    return hits


def _functions(tree) -> dict:
    return {node.name: node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)}


def test_the_guard_finds_compositions():
    src = ("def f(cat, A, B):\n"
           "    x = cat.associator(A, B, A) @ cat.id(A)\n"
           "    y = cat.tensor_mor(x, x)\n"
           "    y @= x\n"
           "    return id(A) + cat.f_entry(A)\n")
    fn = _functions(ast.parse(src))["f"]
    assert sorted(_compositions(fn)) == [
        (2, "@"), (2, "associator"), (2, "id"), (3, "tensor_mor"),
        (4, "@"), (5, "id")]


def test_validation_composes_no_morphism():
    fns = _functions(ast.parse(FINCAT.read_text(), str(FINCAT)))
    assert set(GUARDED) <= set(fns)
    hits = [f"{name}:{line} {what}" for name in GUARDED
            for line, what in _compositions(fns[name])]
    assert not hits, "category validation composes morphisms: " + \
        ", ".join(hits)
