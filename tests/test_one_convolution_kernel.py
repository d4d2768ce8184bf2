"""Every dense polynomial product and division goes through one kernel.

`fields._b_mul`, `_b_divmod` and `_b_inv_mod` multiply, divide and invert
coefficient lists over any ring whose arithmetic, zero and one are passed
in: the integers and F_p for rational factoring, a field's coefficient
tuples for `Poly`, and the truncated characteristic polynomials of the
char-p radical.  `Field._mul` keeps its own loop, as the hot path of
every scalar product.  A loop that accumulates into `out[i + j]`, the
idiom of a convolution or a long division, would bring back a second
kernel; this test fails if any module of `src/tensorcat` other than
`fields.py` has one.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tensorcat"


def _convolutions(tree) -> list:
    """Line numbers of assignments whose target is subscripted by `i + j`
    (either order) in a parsed module."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            continue
        for t in targets:
            index = t.slice if isinstance(t, ast.Subscript) else None
            if (isinstance(index, ast.BinOp) and isinstance(index.op, ast.Add)
                    and {getattr(index.left, "id", None),
                         getattr(index.right, "id", None)} == {"i", "j"}):
                hits.append(node.lineno)
    return hits


def test_the_guard_finds_the_idiom():
    src = ("for i, x in enumerate(a):\n"
           "    for j, y in enumerate(b):\n"
           "        out[i + j] = out[i + j] + x * y\n"
           "rem[j + i] -= c * d\n"
           "row[n + t] = x\n"
           "out[i] = out[i + j]\n"
           "k = i + j\n")
    assert sorted(_convolutions(ast.parse(src))) == [3, 4]


def test_only_fields_convolves():
    paths = sorted(SRC.glob("*.py"))
    assert any(p.name == "fields.py" for p in paths)
    hits = [f"{p.name}:{line}" for p in paths
            for line in _convolutions(ast.parse(p.read_text(), str(p)))
            if p.name != "fields.py"]
    assert not hits, "polynomial product or division outside the kernel " \
        "of fields.py: " + ", ".join(hits)
