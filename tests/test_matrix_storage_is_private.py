"""Only `linalg` knows how a Matrix stores its entries.

Every other module of the package, and every test, reads and builds
matrices through the accessors `linalg` documents, so a change of the
storage format touches `linalg` alone.  The sparse rows live in the
attribute `_nz`; no other file of `src/tensorcat` or `tests` names an
attribute of that name.
"""

import ast
from pathlib import Path

from tensorcat.linalg import Matrix

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tensorcat"
TESTS = ROOT / "tests"


def test_no_module_but_linalg_names_the_matrix_storage():
    assert "_nz" in Matrix.__slots__
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert any(p.name == "fincat.py" for p in paths)
    assert any(p.name == "test_linalg.py" for p in paths)
    hits = [f"{p.parent.name}/{p.name}:{node.lineno}" for p in paths
            if p != SRC / "linalg.py"
            for node in ast.walk(ast.parse(p.read_text(), str(p)))
            if isinstance(node, ast.Attribute) and node.attr == "_nz"]
    assert not hits, "Matrix storage read or written outside linalg: " + \
        ", ".join(hits)
