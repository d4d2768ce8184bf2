"""`tensorcat validate`, `analyze` and `decompose` on mutated catalog files
never end in a traceback, and `module_from_json` on a mutated module file
returns or raises `FormatError` or `ValidationFailure`, nothing else; a
module file whose side is not `right` raises `FormatError`.

Each example takes the JSON of a catalog category and one of its algebras,
or of a module, and swaps a few nodes for values of another JSON type, or
a string for a coefficient "n/d" with n and d in -2..3, so that zero
denominators, and denominators that are zero in the field, are drawn too.
Integers stay in -2..3 and containers stay small, so no size grows and
every example runs in bounded time.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcat.algebra import internal_end
from tensorcat.catalog import make_algebra, standard_entries
from tensorcat.cli import main
from tensorcat.fileio import (FormatError, algebra_to_json, category_to_json,
                              module_from_json, module_to_json)
from tensorcat.fincat import Obj, ValidationFailure
from tensorcat.modcat import algebra_as_module, free_module

CASES = {"z2": ("regular_pointed", {}),
         "fibonacci": ("internal_end", {"obj": {"t": 1}})}

_ratios = st.builds("{}/{}".format, st.integers(-2, 3), st.integers(-2, 3))
_atoms = st.one_of(st.none(), st.booleans(), st.integers(-2, 3),
                   st.sampled_from([0.5, 1.5, -1.0, 2.0]),
                   st.sampled_from(["", "1", "-1", "1/2", "g0", "g1", "t",
                                    "x"]), _ratios)
_values = st.one_of(_atoms, st.lists(_atoms, max_size=3),
                    st.dictionaries(st.sampled_from(["g0", "g1", "t", "1"]),
                                    _atoms, max_size=2))


def _kind(v) -> str:
    return type(v).__name__


def _paths(node, path=()):
    """Every node of a JSON value, as the path of keys leading to it."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for k, child in items:
        yield from _paths(child, path + (k,))


def _get(node, path):
    for k in path:
        node = node[k]
    return node


def _mutate(data, blob):
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(blob))))
        old = _get(blob, path)
        if isinstance(old, str) and data.draw(st.booleans()):
            new = data.draw(_ratios)
        else:
            new = data.draw(_values.filter(lambda v: _kind(v) != _kind(old)))
        if not path:
            blob = new
        else:
            _get(blob, path[:-1])[path[-1]] = new
    return blob


@pytest.fixture(scope="module")
def blobs():
    out = {}
    for name, (kind, params) in CASES.items():
        cat = standard_entries()[name]()
        alg = make_algebra(cat, kind, params)
        out[name] = (category_to_json(cat), algebra_to_json(alg))
    return out


@pytest.mark.parametrize("verb", ["validate", "analyze", "decompose"])
@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_validate_survives_mutated_files(tmp_path_factory, blobs, name,
                                         verb, data):
    cat_blob, alg_blob = json.loads(json.dumps(blobs[name]))
    if data.draw(st.booleans()):
        cat_blob = _mutate(data, cat_blob)
    else:
        alg_blob = _mutate(data, alg_blob)
    tmp = tmp_path_factory.mktemp("fuzz")
    cat_p, alg_p = tmp / "cat.json", tmp / "alg.json"
    cat_p.write_text(json.dumps(cat_blob))
    alg_p.write_text(json.dumps(alg_blob))
    assert main([verb, str(cat_p), str(alg_p)]) in (0, 1, 2, 3)


MODULES = ("z2/regular", "vec_q/m2 regular", "fibonacci/end_t free t")


@pytest.fixture(scope="module")
def module_blobs():
    """name -> (algebra, JSON of a module over it): the right regular
    modules of the regular z2 algebra and of M_2(Q) (a dense carrier), and
    the free module on t over the Fibonacci internal end of t."""
    entries = standard_entries()
    z2, vq, fib = entries["z2"](), entries["vec_q"](), entries["fibonacci"]()
    reg = make_algebra(z2, "regular_pointed", {})
    m2 = internal_end(vq, Obj(vq, {"1": 2}))
    end_t = make_algebra(fib, "internal_end", {"obj": {"t": 1}})
    modules = dict(zip(MODULES, [algebra_as_module(reg),
                                 algebra_as_module(m2),
                                 free_module(fib.simple("t"), end_t)]))
    return {name: (m.algebra, module_to_json(m))
            for name, m in modules.items()}


@pytest.mark.parametrize("name", MODULES)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_module_loader_survives_mutated_files(module_blobs, name, data):
    A, blob = module_blobs[name]
    blob = _mutate(data, json.loads(json.dumps(blob)))
    try:
        module_from_json(A, blob)
    except (FormatError, ValidationFailure):
        pass


@pytest.mark.parametrize("name", MODULES)
def test_module_loader_refuses_a_left_module_file(module_blobs, name):
    A, blob = module_blobs[name]
    blob = dict(blob, side="left")
    with pytest.raises(FormatError, match="only right modules"):
        module_from_json(A, blob)
