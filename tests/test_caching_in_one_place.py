"""Caching in the package is done in one place per owner.

A `CategoryPres` keeps what it derives from its data in one table,
`_cache`, and only the `_cached` decorator of `fincat` reads or writes
it: no other code of `src/tensorcat` names that attribute, except the
assignment in `CategoryPres.__init__` that creates it.  No code sets
another attribute whose name ends in `_cache`.  A fact of one object is
a `functools.cached_property`; no module memoizes with `lru_cache` or
`functools.cache`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tensorcat"


def _trees() -> dict:
    trees = {p.name: ast.parse(p.read_text(), str(p))
             for p in sorted(SRC.glob("*.py"))}
    assert "fincat.py" in trees
    return trees


def _inside(tree, kind, name) -> set:
    """The ids of the nodes of every `kind` definition called `name`."""
    return {id(sub) for node in ast.walk(tree)
            if isinstance(node, kind) and node.name == name
            for sub in ast.walk(node)}


def test_only_cached_reads_or_writes_the_category_cache():
    helpers, creations, hits = [], [], []
    for fname, tree in _trees().items():
        helper = _inside(tree, ast.FunctionDef, "_cached")
        if helper:
            helpers.append(fname)
        init = {id(sub) for cls in ast.walk(tree)
                if isinstance(cls, ast.ClassDef) and cls.name == "CategoryPres"
                for fn in cls.body
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
                for sub in ast.walk(fn)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr == "_cache"):
                continue
            if id(node) in helper:
                continue
            where = f"{fname}:{node.lineno}"
            if isinstance(node.ctx, ast.Store) and id(node) in init:
                creations.append(where)
            else:
                hits.append(where)
    assert helpers == ["fincat.py"]
    assert len(creations) == 1, creations
    assert not hits, "the category cache used outside `_cached`: " + \
        ", ".join(hits)


def test_no_other_cache_attribute_is_set():
    hits = [f"{fname}:{node.lineno} {node.attr}"
            for fname, tree in _trees().items() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and node.attr.endswith("_cache") and node.attr != "_cache"]
    assert not hits, "cache attributes besides `_cache`: " + ", ".join(hits)


def test_no_module_memoizes_with_functools_cache():
    hits = [f"{fname}:{node.lineno}"
            for fname, tree in _trees().items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and (node.id if isinstance(node, ast.Name) else node.attr)
            in ("lru_cache", "cache")]
    assert not hits, "functools memo outside the two idioms: " + \
        ", ".join(hits)
