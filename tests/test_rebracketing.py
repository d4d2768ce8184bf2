"""The package's rebracketings against the general one of the oracle.

`internal_end`, `module_dual`, `free_bimodule` and the test constructions
`module_internal_end` and `right_module_dual` each rebracket by a one- or
two-step associator composite.  By Mac Lane's coherence theorem every
composite of associators between two bracketings is the same map, so each
must equal `reassoc`, which goes through the left comb of the leaves.  The
checks run on the arguments those constructions meet: the carriers of
algebras and of right and left modules, free modules on an object with a
multiplicity of two, and every simple label, in categories with
nontrivial F matrices (`fibonacci`, `ising`, `z2_twisted`) and in a
multi-fusion one (`mmf2`).
"""

import pytest

from construction_oracle import (coev_right, ev_right, left_regular_module,
                                 reassoc, right_module_dual)
from tensorcat.algebra import internal_end
from tensorcat.catalog import make_algebra
from tensorcat.fincat import Obj
from tensorcat.modcat import (algebra_as_module, free_bimodule, free_module,
                              free_module_end, module_dual, simple_modules)

NAMES = ["fibonacci", "ising", "z2_twisted", "mmf2"]

# the corpus algebra of each category
ALGEBRA = {"fibonacci": {"t": 1}, "ising": {"sig": 1},
           "z2_twisted": {"g1": 1}, "mmf2": {"e12": 1}}


def _setting(cat, name):
    """(A, objects, right-module carriers): A is an internal end, the
    objects are every simple and one with a label twice, and the carriers
    are those of A and of the free modules and simples over it."""
    A = make_algebra(cat, "internal_end", {"obj": ALGEBRA[name]})
    twice = Obj(cat, {cat.labels[-1]: 2, cat.labels[0]: 1})
    objs = [cat.simple(a) for a in cat.labels] + [twice]
    mods = [algebra_as_module(A), free_module(twice, A)]
    mods += simple_modules(free_module_end(A)).simples
    return A, objs, [m.carrier for m in mods]


def _cases(cat, name):
    """(site, composite, source tree, target tree) for each of the seven
    rebracketings, on the arguments its construction meets."""
    A, objs, carriers = _setting(cat, name)
    c = A.carrier
    T, Id, tm = cat.tensor, cat.id, cat.tensor_mor
    Ta, Ti = cat.associator, cat.associator_inv
    for a in objs:
        av = cat.dual_obj(a)
        yield ("internal_end",
               tm(Ta(a, av, a), Id(av)) @ Ti(T(a, av), a, av),
               ((a, av), (a, av)), ((a, (av, a)), av))
        yield ("free_bimodule right", Ta(T(c, a), c, c),
               ((T(c, a), c), c), (T(c, a), (c, c)))
        yield ("free_bimodule left",
               tm(Ti(c, c, a), Id(c)) @ Ti(c, T(c, a), c),
               (c, ((c, a), c)), (((c, c), a), c))
    for xc in carriers:
        xv = cat.dual_obj(xc)
        yield ("right_module_dual m3",
               tm(Ta(xv, xc, c), Id(xv)) @ Ti(T(xv, xc), c, xv),
               ((xv, xc), (c, xv)), ((xv, (xc, c)), xv))
        yield ("right_module_dual m5", Ta(xv, xc, xv),
               ((xv, xc), xv), (xv, (xc, xv)))
        # the free cover of a module with carrier xc has carrier xc c
        ac = T(xc, c)
        yield ("module_internal_end",
               tm(Id(ac), Ti(xv, xc, c)) @ Ta(ac, xv, ac),
               (((xc, c), xv), (xc, c)), ((xc, c), ((xv, xc), c)))
    # A as a left module
    cv = cat.dual_obj(c)
    yield ("module_dual m3",
           tm(Ta(cv, c, c), Id(cv)) @ Ti(T(cv, c), c, cv),
           ((cv, c), (c, cv)), ((cv, (c, c)), cv))


@pytest.mark.parametrize("name", NAMES)
def test_associator_composites_equal_the_general_rebracketing(cats, name):
    cat = cats[name]
    sites, nontrivial = set(), 0
    for site, composite, src, dst in _cases(cat, name):
        assert composite == reassoc(cat, src, dst), (name, site, src, dst)
        sites.add(site)
        nontrivial += composite != cat.id(composite.src)
    assert len(sites) == 7
    if name != "mmf2":
        assert nontrivial > 0


def _free_bimodule_by_reassoc(A, a):
    """The actions of `free_bimodule(A, a)`, rebracketed by `reassoc`."""
    cat, c = A.cat, A.carrier
    inner = cat.tensor(c, a)
    right = cat.tensor_mor(cat.id(inner), A.mult) \
        @ reassoc(cat, ((inner, c), c), (inner, (c, c)))
    left = cat.tensor_mor(cat.tensor_mor(A.mult, cat.id(a)), cat.id(c)) \
        @ reassoc(cat, (c, ((c, a), c)), (((c, c), a), c))
    return left, right


def _dual_action_by_reassoc(x):
    """The action of `right_module_dual(x)` for a right module x, with its
    rebracketings done by `reassoc`."""
    cat, c, xc = x.cat, x.algebra.carrier, x.carrier
    xv = cat.dual_obj(xc)
    cxv = cat.tensor(c, xv)
    return (cat.unitor_right(xv)
            @ cat.tensor_mor(cat.id(xv), ev_right(cat, xc))
            @ reassoc(cat, ((xv, xc), xv), (xv, (xc, xv)))
            @ cat.tensor_mor(cat.tensor_mor(cat.id(xv), x.action),
                             cat.id(xv))
            @ reassoc(cat, ((xv, xc), (c, xv)), ((xv, (xc, c)), xv))
            @ cat.tensor_mor(coev_right(cat, xc), cat.id(cxv))
            @ cat.unitor_left_inv(cxv))


def _left_dual_action_by_reassoc(x):
    """The action on x^v that transposes the action of a left module x
    through the left duality: for the left regular module of A, the
    action of `module_dual(A)`."""
    cat, c, xc = x.cat, x.algebra.carrier, x.carrier
    xv = cat.dual_obj(xc)
    xvc = cat.tensor(xv, c)
    return (cat.unitor_left(xv)
            @ cat.tensor_mor(cat.ev_left(xc), cat.id(xv))
            @ cat.tensor_mor(cat.tensor_mor(cat.id(xv), x.action),
                             cat.id(xv))
            @ reassoc(cat, ((xv, c), (xc, xv)), ((xv, (c, xc)), xv))
            @ cat.tensor_mor(cat.id(xvc), cat.coev_left(xc))
            @ cat.unitor_right_inv(xvc))


@pytest.mark.parametrize("name", NAMES)
def test_constructions_equal_their_reassoc_forms(cats, name):
    cat = cats[name]
    A, objs, _carriers = _setting(cat, name)
    for a in objs:
        E = internal_end(cat, a)
        av = cat.dual_obj(a)
        inner = cat.unitor_right(a) @ cat.tensor_mor(cat.id(a),
                                                     cat.ev_left(a))
        assert E.mult == cat.tensor_mor(inner, cat.id(av)) @ reassoc(
            cat, ((a, av), (a, av)), ((a, (av, a)), av)), (name, a)
        b = free_bimodule(A, a)
        assert (b.left_action, b.right_action) == \
            _free_bimodule_by_reassoc(A, a), (name, a)
    for x in (algebra_as_module(A), free_module(objs[-1], A)):
        assert right_module_dual(x).action == _dual_action_by_reassoc(x)
    assert module_dual(A).action == \
        _left_dual_action_by_reassoc(left_regular_module(A))
