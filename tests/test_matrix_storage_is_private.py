"""Only `linalg` knows how a Matrix stores its entries.

Every other module of the package reads and builds matrices through the
accessors `linalg` documents, so a change of the storage format touches
`linalg` alone.  The dense rows live in the attribute `a`; no other module
of `src/tensorcat` names an attribute of that name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tensorcat"


def test_no_module_but_linalg_names_the_matrix_storage():
    paths = sorted(SRC.glob("*.py"))
    assert any(p.name == "fincat.py" for p in paths)
    hits = [f"{p.name}:{node.lineno}" for p in paths if p.name != "linalg.py"
            for node in ast.walk(ast.parse(p.read_text(), str(p)))
            if isinstance(node, ast.Attribute) and node.attr == "a"]
    assert not hits, "Matrix storage read or written outside linalg: " + \
        ", ".join(hits)
