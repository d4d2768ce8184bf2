"""Every function of the package is called from the package or exported.

A function or method whose name starts with a single underscore is an
implementation detail, so only the package itself can use it.  If no
code in `src/tensorcat` outside its own body names it, nothing calls it.

A public function or method is named by other code of the package, or
listed in `ALLOWED` with the reason it stays.  Being exported by
`tensorcat/__init__.py` is not enough: a function that only the tests
call belongs in `tests/`.

A name that a module of the package imports is used in that module;
only `tensorcat/__init__.py` imports names to export them.

A parameter with a default is set, by keyword or by position, by some
call in the package to a function of its name, or listed in
`ALLOWED_DEFAULTS` with the reason it stays: a default that no call
overrides is a constant.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tensorcat"

# public functions that nothing in the package names, and why they stay
ALLOWED = {
    "_Parser.error": "argparse calls this hook on a usage error",
    "module_to_json": "writes the module file format the README documents",
    "module_from_json": "reads the module file format the README documents",
    "Poly.eval": "evaluation, the reference tests check `compose` against",
    "Matrix.scale": "public arithmetic beside `+`, `-` and negation; the "
                    "package's own sums call `Matrix.combine`",
    "Mor.scale": "public arithmetic beside `+`, `-` and negation; the "
                 "package's own sums call `Mor.combine`",
    "CategoryPres.zero_obj": "the zero object beside `unit_obj` and "
                             "`simple`; tests build zero objects with it",
    "embed": "exported: maps a scalar into an extension field, the "
             "public form of `Embedding` for one value",
    "center_semisimple_verdict": "exported category-level criterion: the "
                                 "center is semisimple iff the global "
                                 "dimension is nonzero",
    "Matrix.det": "a public determinant beside `inv` and `rank`; the "
                  "benchmark's tracer wraps it by name for the "
                  "`linalg.det_inv` span, and tests check `charpoly` "
                  "against it",
    "lift_idempotent": "the benchmark's tracer wraps it by name for the "
                       "`ordalg.idempotents` span, so removing it breaks "
                       "the perfbench self-tests; it goes with the next "
                       "change to the benchmark",
}


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


def _trees() -> dict:
    trees = {p.name: ast.parse(p.read_text(), str(p))
             for p in sorted(SRC.glob("*.py"))}
    assert "fincat.py" in trees
    return trees


def _used(trees) -> Counter:
    used = Counter()
    for tree in trees.values():
        used += _names(tree)
    return used


def test_every_private_function_is_referenced():
    trees = _trees()
    used = _used(trees)
    defs = [(fname, node) for fname, tree in trees.items()
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and _is_private(node.name)]
    assert defs
    unused = [f"{fname}:{node.lineno} {node.name}" for fname, node in defs
              if used[node.name] - _names(node)[node.name] <= 0]
    assert not unused, "private functions that nothing calls: " + \
        ", ".join(unused)


def test_every_import_is_used():
    unused = []
    for fname, tree in _trees().items():
        if fname == "__init__.py":
            continue
        used = _names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                # `import a.b` binds `a`
                name = (alias.asname or alias.name).split(".")[0]
                if not used[name]:
                    unused.append(f"{fname}:{node.lineno} {name}")
    assert not unused, "imports that nothing uses: " + ", ".join(unused)


def _public_defs(tree):
    """(qualified name, node) of each module-level function and method
    whose name has no leading underscore."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, funcs):
                    yield f"{node.name}.{sub.name}", sub


def test_every_public_function_is_referenced_or_exported():
    trees = _trees()
    used = _used(trees)
    unused = set()
    for tree in trees.values():
        for qual, node in _public_defs(tree):
            if node.name.startswith("__"):
                continue
            if used[node.name] - _names(node)[node.name] <= 0:
                unused.add(qual)
    assert not unused - ALLOWED.keys(), \
        "public functions that nothing in the package calls: " + \
        ", ".join(sorted(unused - ALLOWED.keys()))
    # an entry whose function is gone or now referenced leaves the list
    assert not ALLOWED.keys() - unused, \
        "allowed but referenced or missing: " + \
        ", ".join(sorted(ALLOWED.keys() - unused))


# defaulted parameters that no call in the package sets, and why they stay
ALLOWED_DEFAULTS = {
    "main(argv)": "the console script calls `main()`, so the arguments come "
                  "from sys.argv; tests and the benchmark pass argv",
    "embed(image_of_generator)": "exported, and the only way `embed` "
                                 "serves extension fields",
}


def _defaulted(fn, skip: int):
    """(call position, name) of each parameter of `fn` with a default;
    `skip` is 1 for a method's self, and a keyword-only parameter has no
    position."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    yield from ((k - skip, a.arg) for k, a in enumerate(positional)
                if k >= first)
    yield from ((None, a.arg)
                for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None)


def test_every_defaulted_parameter_is_set_by_some_call():
    trees = _trees()
    # callee name -> the most positional arguments of a call, and the
    # keywords set; *args sets every position and **kwargs every keyword
    most, keywords = Counter(), {}
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.id if isinstance(f, ast.Name) else \
                getattr(f, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            most[name] = max(most[name],
                             float("inf") if starred else len(call.args))
            keywords.setdefault(name, set()).update(
                kw.arg or "**" for kw in call.keywords)
    unset = set()
    for tree in trees.values():
        owner = {id(sub): cls for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for sub in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owner.get(id(fn))
            method = cls is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in fn.decorator_list)
            # a class is called by its own name to run __init__
            name = cls.name if cls and fn.name == "__init__" else fn.name
            kws = keywords.get(name, set())
            unset |= {f"{name}({arg})" for pos, arg in _defaulted(fn, method)
                      if arg not in kws and "**" not in kws
                      and (pos is None or most[name] <= pos)}
    assert not unset - ALLOWED_DEFAULTS.keys(), \
        "defaulted parameters that no call sets: " + \
        ", ".join(sorted(unset - ALLOWED_DEFAULTS.keys()))
    assert not ALLOWED_DEFAULTS.keys() - unset, \
        "allowed but set or missing: " + \
        ", ".join(sorted(ALLOWED_DEFAULTS.keys() - unset))
