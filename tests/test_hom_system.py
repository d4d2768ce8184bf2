"""`hom_basis` writes the module constraint phi o act_x - act_y o (phi (x) 1)
from the actions' nonzeros through the fusion index tables;
`end_oracle.module_hom_basis_reference` composes it for each unit-basis
map.  Both matrices are equal entry for entry and have one reduced
echelon form, so the two bases agree map for map.

`free_bimodule_maps` reads the maps out of free bimodules straight off
the nonzeros of the target's two actions, so the bimodule End builds no
fusion table of (A (x) y) (x) A for a generator carrier y.  That the
maps equal their composed form right o (left (x) 1) o (1 (x) psi (x) 1)
is checked in `test_nonzero_builds.py`.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from end_oracle import module_hom_basis_reference
from tensorcat.algebra import internal_end
from tensorcat.catalog import make_algebra, standard_entries
from tensorcat.fincat import CategoryPres, Mor, Obj
from tensorcat.modcat import (algebra_as_module, bimodule_end_algebra,
                              free_module, free_module_end, hom_basis,
                              module_dual, obj_tensor_module, simple_modules)
from tensorcat.ordalg import NotSemisimple

# a twisted associator, a multiplicity-2 carrier, two non-pointed fusion
# categories, a multi-fusion category and two finite fields (F_3[Z/3] is
# not semisimple, so it has no simples to draw)
ALGEBRAS = {
    "z2_twisted/end_g1": lambda c: make_algebra(
        c["z2_twisted"], "internal_end", {"obj": {"g1": 1}}),
    "vec_q/m2": lambda c: internal_end(c["vec_q"], Obj(c["vec_q"], {"1": 2})),
    "fibonacci/end_t": lambda c: make_algebra(
        c["fibonacci"], "internal_end", {"obj": {"t": 1}}),
    "ising/end_sig": lambda c: make_algebra(
        c["ising"], "internal_end", {"obj": {"sig": 1}}),
    "mmf2/end_e12": lambda c: make_algebra(
        c["mmf2"], "internal_end", {"obj": {"e12": 1}}),
    "vec_f2/group3": lambda c: make_algebra(
        c["vec_f2"], "ordinary_group_algebra", {"n": 3}),
    "z3_f3/regular": lambda c: make_algebra(
        c["z3_f3"], "regular_pointed", {}),
}


@lru_cache(maxsize=None)
def _modules(name):
    """(algebra, modules): the nonzero free modules, A, A^L and the
    simples of A when A is semisimple."""
    A = ALGEBRAS[name]({n: mk() for n, mk in standard_entries().items()})
    cat = A.cat
    frees = [free_module(cat.simple(b), A) for b in cat.labels]
    frees = [f for f in frees if not f.carrier.is_zero()]
    try:
        simples = simple_modules(free_module_end(A)).simples
    except NotSemisimple:
        simples = []
    return A, frees + [algebra_as_module(A), module_dual(A)] + simples


def test_hom_basis_equals_the_composed_reference_on_each_pair():
    # every ordered pair of the fixed modules, itself included, so each
    # module's identity lies in a nonempty basis; each semisimple A has
    # at least one simple besides a free module, A and A^L
    for name in ALGEBRAS:
        _A, mods = _modules(name)
        assert len(mods) >= 3 + (name != "z3_f3/regular"), name
        for x in mods:
            assert hom_basis(x, x), (name, x)
            for y in mods:
                assert hom_basis(x, y) == module_hom_basis_reference(x, y), \
                    (name, x, y)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hom_basis_equals_the_composed_reference(data):
    # list equality of Mor: the same maps in the same order, not just
    # the same span; either side may first be moved along an object a of
    # multiplicity one or two
    name = data.draw(st.sampled_from(sorted(ALGEBRAS)))
    A, mods = _modules(name)
    cat = A.cat

    def draw_module():
        x = data.draw(st.sampled_from(mods))
        if data.draw(st.booleans()):
            a = Obj(cat, {data.draw(st.sampled_from(list(cat.labels))):
                          data.draw(st.integers(1, 2))})
            x = obj_tensor_module(a, x)
        return x
    x, y = draw_module(), draw_module()
    assert hom_basis(x, y) == module_hom_basis_reference(x, y)


def test_hom_basis_composes_no_morphisms(monkeypatch):
    pairs = [(x, y) for name in ("vec_q/m2", "fibonacci/end_t",
                                 "mmf2/end_e12")
             for x in _modules(name)[1] for y in _modules(name)[1]]
    expected = [module_hom_basis_reference(x, y) for x, y in pairs]

    def refuse(*_args):
        raise AssertionError("hom_basis composed morphisms")
    with monkeypatch.context() as m:
        m.setattr(Mor, "__matmul__", refuse)
        m.setattr(CategoryPres, "tensor_mor", refuse)
        got = [hom_basis(x, y) for x, y in pairs]
    assert got == expected


def test_bimodule_end_builds_no_fusion_table_of_a_two_sided_action():
    # a fresh category each, so no other test has filled its cache: the
    # fusion tables of A (x) y and y (x) A are built, none of
    # (A (x) y) (x) A.  Where A is the unit (z2_twisted/end_g1), A (x) y
    # is y and that table is the right action's own y (x) A
    checked = 0
    for name in ("z2_twisted/end_g1", "fibonacci/end_t", "ising/end_sig",
                 "z3_f3/regular", "vec_q/m2"):
        A = ALGEBRAS[name]({n: mk() for n, mk in standard_entries().items()})
        cat = A.cat
        end = bimodule_end_algebra(A)
        assert len(end.modules) >= 1, name
        lefts = {args[0] for (method, args) in cat._cache
                 if method == "_fusion"}
        for b in end.modules:
            cy = cat.tensor(A.carrier, b.carrier)
            if cy == b.carrier:
                continue
            assert cy.key not in lefts, (name, b.generator)
            checked += 1
    assert checked == 9
